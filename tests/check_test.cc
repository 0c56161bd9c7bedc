/**
 * @file
 * Invariant-oracle tests: seeded corruptions must trip exactly the
 * checker that owns the violated invariant, and checking must be
 * strictly passive - a checked run produces bit-identical metrics to
 * an unchecked one, and identical runs are deterministic.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/tlb.h"
#include "check/check.h"
#include "daxvm/api.h"
#include "fs/file_system.h"
#include "fs/inode.h"
#include "latr/latr.h"
#include "sys/system.h"
#include "vm/address_space.h"
#include "workloads/apache.h"
#include "workloads/kvstore.h"
#include "workloads/ycsb.h"

using namespace dax;

namespace {

sys::SystemConfig
checkedConfig(int checkLevel = 2)
{
    sys::SystemConfig sc;
    sc.cores = 2;
    sc.pmemBytes = 64ULL << 20;
    sc.pmemTableBytes = 16ULL << 20;
    sc.dramBytes = 32ULL << 20;
    sc.checkLevel = checkLevel;
    return sc;
}

/** Assert every recorded violation carries the expected tags. */
void
expectOnly(const check::Oracle &oracle, const std::string &checker,
           const std::string &invariant)
{
    ASSERT_FALSE(oracle.violations().empty());
    for (const check::Violation &v : oracle.violations()) {
        EXPECT_EQ(v.checker, checker) << oracle.reportText();
        EXPECT_EQ(v.invariant, invariant) << oracle.reportText();
    }
}

} // namespace

// ---------------------------------------------------------------------
// Seeded corruptions: each trips exactly its checker
// ---------------------------------------------------------------------

TEST(Corruption, StaleTlbEntryTripsTlbChecker)
{
    sys::System system(checkedConfig());
    check::Oracle *oracle = system.oracle();
    ASSERT_NE(oracle, nullptr);
    oracle->setFailFast(false);

    // Real state first: a mapped, faulted page must be silent.
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = system.makeFile("/f", 64 * 1024, 4096);
    auto as = system.newProcess();
    const std::uint64_t base =
        as->mmap(cpu, ino, 0, 64 * 1024, true, 0);
    ASSERT_NE(base, 0u);
    as->memRead(cpu, base, 1, mem::Pattern::Seq);
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();

    // Corrupt: cache a translation the page table never produced.
    arch::WalkResult bogus;
    bogus.present = true;
    bogus.paddr = 0x123000;
    bogus.pageShift = 12;
    bogus.writable = true;
    const std::uint64_t strayVa = base + 12 * 4096ULL + 256 * 1024;
    system.hub().mmu(0).tlb().insert(strayVa & ~0xfffULL, as->asid(),
                                     bogus);

    EXPECT_GE(oracle->runAll(), 1u);
    expectOnly(*oracle, "tlb", "tlb.stale-entry");

    // Undo so the remaining hooks (munmap, teardown) run clean.
    system.hub().mmu(0).tlb().flushAsid(as->asid());
    oracle->clearViolations();
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();
}

TEST(Corruption, OverlappingExtentsTripFsChecker)
{
    sys::System system(checkedConfig());
    check::Oracle *oracle = system.oracle();
    ASSERT_NE(oracle, nullptr);
    oracle->setFailFast(false);

    const fs::Ino ino = system.makeFile("/a", 3 * 4096);
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();

    fs::Inode &node = system.fs().inode(ino);
    ASSERT_EQ(node.extents.size(), 1u);
    const fs::Extent whole = node.extents.begin()->second;
    ASSERT_EQ(whole.count, 3u);
    ASSERT_EQ(node.allocatedCount, 3u);

    // Re-key the tree so file block 1 is mapped twice while both the
    // physical footprint and the allocated-block count stay intact:
    // only the extents.overlap invariant is breached.
    const auto saved = node.extents;
    node.extents.clear();
    node.extents[0] = {whole.block, 2};
    node.extents[1] = {whole.block + 2, 1};

    EXPECT_GE(oracle->runAll(), 1u);
    expectOnly(*oracle, "fs", "fs.extents.overlap");

    node.extents = saved;
    oracle->clearViolations();
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();
}

TEST(Corruption, MappedInodeWithoutEntryTripsVmChecker)
{
    sys::System system(checkedConfig());
    check::Oracle *oracle = system.oracle();
    ASSERT_NE(oracle, nullptr);
    oracle->setFailFast(false);

    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = system.makeFile("/f", 4 * 4096);
    auto as = system.newProcess();
    ASSERT_TRUE(system.open(cpu, "/f").has_value());
    const std::uint64_t va = as->mmap(cpu, ino, 0, 4 * 4096, false, 0);
    ASSERT_NE(va, 0u);
    system.vfs().close(cpu, ino);
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();

    // Corrupt: drop the registration but keep the VMA, then evict the
    // inode, which erases the now-empty reverse-map entry. The VMA
    // still maps the inode, so the checker must notice.
    system.vmm().unregisterMapping(ino, as.get(), va);
    system.remount();
    ASSERT_TRUE(system.vmm().mappedInodes().empty());

    EXPECT_GE(oracle->runAll(), 1u);
    expectOnly(*oracle, "vm", "vm.rmap.refcount");

    system.vmm().registerMapping(ino, as.get(), va);
    oracle->clearViolations();
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();
}

TEST(Corruption, DoubleClaimedBlockTripsFsChecker)
{
    sys::System system(checkedConfig());
    check::Oracle *oracle = system.oracle();
    ASSERT_NE(oracle, nullptr);
    oracle->setFailFast(false);

    const fs::Ino a = system.makeFile("/a", 4096);
    const fs::Ino b = system.makeFile("/b", 4096);
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();

    // Point b's extent at a's physical block: same extent shape and
    // counts everywhere, but one frame now has two owners.
    fs::Inode &nodeB = system.fs().inode(b);
    ASSERT_EQ(nodeB.extents.size(), 1u);
    const fs::Extent saved = nodeB.extents.begin()->second;
    nodeB.extents.begin()->second.block =
        system.fs().inode(a).extents.begin()->second.block;

    EXPECT_GE(oracle->runAll(), 1u);
    expectOnly(*oracle, "fs", "fs.alloc.double-claim");

    nodeB.extents.begin()->second = saved;
    oracle->clearViolations();
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();
}

TEST(Corruption, OverlappingBusyIntervalsTripSimChecker)
{
    sys::System system(checkedConfig());
    check::Oracle *oracle = system.oracle();
    ASSERT_NE(oracle, nullptr);
    oracle->setFailFast(false);

    auto as = system.newProcess();
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();

    // Two overlapping writer holds can never be produced by the lock
    // model itself (insert() merges); inject them raw.
    as->mmapSem().writerBusyForTest().injectRawForTest(100, 200);
    as->mmapSem().writerBusyForTest().injectRawForTest(150, 250);

    EXPECT_GE(oracle->runAll(), 1u);
    expectOnly(*oracle, "sim", "sim.busy.overlap");

    as->mmapSem().writerBusyForTest().pruneBefore(1'000'000, false);
    oracle->clearViolations();
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();
}

// ---------------------------------------------------------------------
// Machine-check edge cases: poison interacting with the TLB walk
// cache, LATR's lazy-shootdown window, and shared DaxVM file tables
// ---------------------------------------------------------------------

namespace {

sys::SystemConfig
mediaConfig(bool daxvm = false)
{
    sys::SystemConfig sc = checkedConfig();
    sc.mediaPolicy = fs::MediaPolicy::RemapZero;
    sc.daxvm = daxvm;
    return sc;
}

/** Physical address of @p ino's file block 0. */
std::uint64_t
blockZeroAddr(sys::System &system, fs::Ino ino)
{
    const auto run = system.fs().inode(ino).find(0);
    return system.fs().blockAddr(run->physBlock);
}

} // namespace

TEST(MediaEdge, PoisonHittingCachedWalkLeafIsRepairedOnce)
{
    sys::System system(mediaConfig());
    check::Oracle *oracle = system.oracle();
    ASSERT_NE(oracle, nullptr);
    oracle->setFailFast(false);

    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = system.makeFile("/f", 64 * 1024, 64 * 1024);
    auto as = system.newProcess();
    const std::uint64_t va =
        as->mmap(cpu, ino, 0, 64 * 1024, false, vm::kMapPopulate);
    ASSERT_NE(va, 0u);
    // Warm the translation (TLB + walk cache hold the leaf), then
    // flush the TLB so the next access goes through the walker and
    // its cached leaf.
    as->memRead(cpu, va, 64, mem::Pattern::Seq);
    system.hub().mmu(0).tlb().flushAsid(as->asid());

    const std::uint64_t oldPa = blockZeroAddr(system, ino);
    system.pmem().poisonLine(oldPa);

    // The walker serves the (now poisoned) frame; the device raises
    // the #MC; the repair remaps the block and the retry must NOT be
    // satisfied from the stale cached leaf.
    std::uint8_t got = 0xff;
    as->memRead(cpu, va, 1, mem::Pattern::Rand, &got);
    EXPECT_EQ(got, 0u); // remap-zero replacement
    EXPECT_NE(blockZeroAddr(system, ino), oldPa);
    EXPECT_EQ(system.pmem().mceRaised(), 1u);
    EXPECT_EQ(system.fs().mceRepaired(), 1u);
    EXPECT_EQ(system.fs().mceFailed(), 0u);

    // The repaired translation is stable: no second machine check.
    as->memRead(cpu, va, 64, mem::Pattern::Seq);
    EXPECT_EQ(system.pmem().mceRaised(), 1u);
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();
}

TEST(MediaEdge, PoisonUnderLatrLazyShootdownWindow)
{
    sys::System system(mediaConfig());
    check::Oracle *oracle = system.oracle();
    ASSERT_NE(oracle, nullptr);
    oracle->setFailFast(false);

    sim::Cpu cpu0(nullptr, 0, 0), cpu1(nullptr, 1, 1);
    const fs::Ino ino = system.makeFile("/f", 16 * 4096, 16 * 4096);
    auto as = system.newProcess();

    // Two mappings of the same file. va1 is only ever touched from
    // core 1; va2 from core 0.
    const std::uint64_t va1 =
        as->mmap(cpu1, ino, 0, 16 * 4096, false, 0);
    const std::uint64_t va2 =
        as->mmap(cpu0, ino, 0, 16 * 4096, false, 0);
    ASSERT_NE(va1, 0u);
    ASSERT_NE(va2, 0u);
    as->memRead(cpu1, va1, 4096, mem::Pattern::Seq);
    as->memRead(cpu0, va2, 4096, mem::Pattern::Seq);

    // Lazy-unmap va1: core 1's TLB entry goes stale with only a
    // pending LATR descriptor covering it - no IPI.
    ASSERT_TRUE(system.latr().munmapLazy(cpu0, *as, va1));
    ASSERT_TRUE(system.latr().pendingCovers(1, as->asid(), va1));
    ASSERT_NE(system.hub().mmu(1).tlb().lookup(va1, as->asid()),
              nullptr);

    // Poison the shared frame inside the lazy window, then access it
    // through the still-live mapping.
    system.pmem().poisonLine(blockZeroAddr(system, ino));
    std::uint8_t got = 0xff;
    as->memRead(cpu0, va2, 1, mem::Pattern::Rand, &got);
    EXPECT_EQ(got, 0u);
    EXPECT_EQ(system.pmem().mceRaised(), 1u);
    EXPECT_EQ(system.fs().mceRepaired(), 1u);

    // The repair must neither deliver the lazy invalidation early nor
    // trip the TLB checker: core 1's stale entry is still excused by
    // the pending descriptor.
    EXPECT_TRUE(system.latr().pendingCovers(1, as->asid(), va1));
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();

    // Core 1's scheduling-boundary drain closes the window.
    system.latr().drain(cpu1);
    EXPECT_EQ(system.hub().mmu(1).tlb().lookup(va1, as->asid()),
              nullptr);
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();
}

TEST(MediaEdge, SharedFileTableRepairVisibleToAllMappers)
{
    sys::System system(mediaConfig(/*daxvm=*/true));
    check::Oracle *oracle = system.oracle();
    ASSERT_NE(oracle, nullptr);
    oracle->setFailFast(false);

    sim::Cpu cpu0(nullptr, 0, 0), cpu1(nullptr, 1, 1);
    // Large enough for a persistent (shared) file table.
    const fs::Ino ino = system.makeFile("/f", 1ULL << 20, 64 * 1024);
    auto as1 = system.newProcess();
    auto as2 = system.newProcess();
    ASSERT_NE(system.dax(), nullptr);
    const std::uint64_t v1 =
        system.dax()->mmap(cpu0, *as1, ino, 0, 1ULL << 20, false, 0);
    const std::uint64_t v2 =
        system.dax()->mmap(cpu1, *as2, ino, 0, 1ULL << 20, false, 0);
    ASSERT_NE(v1, 0u);
    ASSERT_NE(v2, 0u);
    // Both processes touch the same file page through the shared
    // table.
    as1->memRead(cpu0, v1, 64, mem::Pattern::Seq);
    as2->memRead(cpu1, v2, 64, mem::Pattern::Seq);

    const std::uint64_t oldPa = blockZeroAddr(system, ino);
    system.pmem().poisonLine(oldPa);

    // First toucher takes the #MC; the repair swaps the shared
    // file-table entry in place.
    std::uint8_t got = 0xff;
    as1->memRead(cpu0, v1, 1, mem::Pattern::Rand, &got);
    EXPECT_EQ(got, 0u);
    EXPECT_EQ(system.fs().mceRepaired(), 1u);
    EXPECT_NE(blockZeroAddr(system, ino), oldPa);
    const std::uint64_t raisedAfterRepair = system.pmem().mceRaised();

    // The second process must observe the repaired block through its
    // own mapping - no second machine check, no stale data.
    got = 0xff;
    as2->memRead(cpu1, v2, 1, mem::Pattern::Rand, &got);
    EXPECT_EQ(got, 0u);
    EXPECT_EQ(system.pmem().mceRaised(), raisedAfterRepair);
    EXPECT_EQ(system.pmem().mceRaised(),
              system.fs().mceRepaired() + system.fs().mceFailed());
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();
}

TEST(Corruption, SwallowedMachineCheckTripsFsChecker)
{
    sys::System system(mediaConfig());
    check::Oracle *oracle = system.oracle();
    ASSERT_NE(oracle, nullptr);
    oracle->setFailFast(false);

    const fs::Ino ino = system.makeFile("/f", 4096, 4096);
    EXPECT_EQ(oracle->runAll(), 0u) << oracle->reportText();

    // A raw device read that swallows the machine check models an
    // access path masking poison: the device counted a raise that no
    // handler ever repaired or reported.
    system.pmem().poisonLine(blockZeroAddr(system, ino));
    std::uint8_t b = 0;
    EXPECT_THROW(system.pmem().fetch(blockZeroAddr(system, ino), &b, 1),
                 mem::MachineCheckException);

    EXPECT_GE(oracle->runAll(), 1u);
    expectOnly(*oracle, "fs", "fs.mce.unaccounted");
    oracle->clearViolations();
}

// ---------------------------------------------------------------------
// Determinism: identical runs produce identical metrics, and checking
// is invisible to the simulation
// ---------------------------------------------------------------------

namespace {

/** Miniature Fig. 8a shape: two mmap-serving Apache workers. */
std::string
runApacheOnce(int checkLevel)
{
    sys::SystemConfig sc;
    sc.cores = 2;
    sc.pmemBytes = 128ULL << 20;
    sc.pmemTableBytes = 32ULL << 20;
    sc.dramBytes = 64ULL << 20;
    sc.checkLevel = checkLevel;
    sys::System system(sc);

    const std::vector<fs::Ino> pages =
        wl::makeWebPages(system, "/www/", 8, 32 * 1024);
    std::vector<std::unique_ptr<vm::AddressSpace>> spaces;
    const sim::Time start = system.quiesceTime();
    for (int t = 0; t < 2; t++) {
        spaces.push_back(system.newProcess());
        wl::ApacheWorker::Config wc;
        wc.pages = pages;
        wc.pageBytes = 32 * 1024;
        wc.requests = 40;
        wc.access.interface = wl::Interface::Mmap;
        wc.seed = static_cast<std::uint64_t>(t) + 1;
        system.engine().addThread(
            std::make_unique<wl::ApacheWorker>(system, *spaces.back(),
                                               wc),
            t, start);
    }
    system.engine().run();
    return system.snapshotMetrics().toJson().dump(2);
}

/** Miniature Fig. 9c shape: YCSB load-A then run-A over the KvStore. */
std::string
runYcsbOnce(int checkLevel)
{
    sys::SystemConfig sc;
    sc.cores = 2;
    sc.pmemBytes = 128ULL << 20;
    sc.pmemTableBytes = 32ULL << 20;
    sc.dramBytes = 64ULL << 20;
    sc.checkLevel = checkLevel;
    sys::System system(sc);

    auto as = system.newProcess();
    wl::KvStore::Config kc;
    kc.memtableRecords = 64;
    kc.compactionTrigger = 4;
    kc.compactionWidth = 2;
    kc.access.interface = wl::Interface::Mmap;
    kc.access.mapSync = true;
    wl::KvStore kv(system, *as, kc);

    wl::YcsbRunner::Config load;
    load.kv = &kv;
    load.mix = wl::YcsbMix::loadA();
    load.records = 256;
    load.ops = 256;
    load.opsPerQuantum = 16;
    load.seed = 7;
    system.engine().addThread(std::make_unique<wl::YcsbRunner>(load), 0,
                              system.quiesceTime());
    system.engine().run();

    wl::YcsbRunner::Config run = load;
    run.mix = wl::YcsbMix::runA();
    run.seed = 8;
    system.engine().addThread(std::make_unique<wl::YcsbRunner>(run), 0,
                              system.quiesceTime());
    system.engine().run();

    return system.snapshotMetrics().toJson().dump(2);
}

} // namespace

TEST(Determinism, ApacheDoubleRunBitIdentical)
{
    EXPECT_EQ(runApacheOnce(0), runApacheOnce(0));
}

TEST(Determinism, YcsbDoubleRunBitIdentical)
{
    EXPECT_EQ(runYcsbOnce(0), runYcsbOnce(0));
}

TEST(Determinism, CheckedApacheRunMatchesUnchecked)
{
    // Checkers are passive: level 2 sweeps after every quantum must
    // not perturb a single metric.
    EXPECT_EQ(runApacheOnce(0), runApacheOnce(2));
}

TEST(Determinism, CheckedYcsbRunMatchesUnchecked)
{
    EXPECT_EQ(runYcsbOnce(0), runYcsbOnce(2));
}
