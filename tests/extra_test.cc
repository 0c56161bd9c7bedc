/**
 * @file
 * Additional edge-case coverage across subsystems: VFS pinning,
 * ephemeral heap growth, single-core shootdowns, journal batch
 * commits, DaxVM corner cases, KvStore recycling, LATR costs.
 */
#include <gtest/gtest.h>

#include "daxvm/api.h"
#include "daxvm/file_table.h"
#include "workloads/kvstore.h"
#include "sys/system.h"

using namespace dax;

namespace {

sys::SystemConfig
extraConfig()
{
    sys::SystemConfig config;
    config.cores = 4;
    config.pmemBytes = 512ULL << 20;
    config.pmemTableBytes = 64ULL << 20;
    config.dramBytes = 256ULL << 20;
    return config;
}

struct Fixture
{
    Fixture() : system(extraConfig()), as(system.newProcess()) {}

    sys::System system;
    std::unique_ptr<vm::AddressSpace> as;
    sim::Cpu cpu{nullptr, 0, 0};
};

} // namespace

TEST(VfsExtra, DoubleCloseThrows)
{
    Fixture f;
    f.system.makeFile("/x", 4096);
    auto r = f.system.open(f.cpu, "/x");
    f.system.vfs().close(f.cpu, r->ino);
    EXPECT_THROW(f.system.vfs().close(f.cpu, r->ino), std::logic_error);
}

TEST(VfsExtra, ReopenAfterRemountIsColdAgain)
{
    Fixture f;
    f.system.makeFile("/x", 4096);
    auto r1 = f.system.open(f.cpu, "/x");
    f.system.vfs().close(f.cpu, r1->ino);
    f.system.remount();
    auto r2 = f.system.open(f.cpu, "/x");
    EXPECT_TRUE(r2->cold);
    f.system.vfs().close(f.cpu, r2->ino);
}

TEST(EphemeralExtra, HeapGrowsPastOneGigabyte)
{
    // Map >1 GB worth of concurrent 2 MB granules: the heap must
    // extend in 1 GB regions instead of failing.
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/e", 2ULL << 20);
    std::vector<std::uint64_t> vas;
    for (int i = 0; i < 600; i++) { // 600 x 2 MB > 1 GB
        const std::uint64_t va = f.system.dax()->mmap(
            f.cpu, *f.as, ino, 0, 2ULL << 20, false, vm::kMapEphemeral);
        ASSERT_NE(va, 0u) << i;
        vas.push_back(va);
    }
    auto &region = f.as->ephemeralRegion();
    EXPECT_GT(region.size, 1ULL << 30);
    EXPECT_EQ(region.liveVmas, 600u);
    for (const auto va : vas)
        ASSERT_TRUE(f.system.dax()->munmap(f.cpu, *f.as, va));
    EXPECT_EQ(region.liveVmas, 0u);
    EXPECT_EQ(region.bump, 0u); // addresses reclaimed
}

TEST(ShootdownExtra, SingleCoreNeedsNoIpi)
{
    sys::SystemConfig config = extraConfig();
    config.cores = 1;
    sys::System system(config);
    auto as = system.newProcess();
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = system.makeFile("/f", 16 * 4096);
    const std::uint64_t va = as->mmap(cpu, ino, 0, 16 * 4096, false, 0);
    as->memRead(cpu, va, 16 * 4096, mem::Pattern::Seq);
    as->munmap(cpu, va, 16 * 4096);
    EXPECT_EQ(system.metrics().counterValue("tlb.ipis"), 0u);
}

TEST(JournalExtra, CommitAllFlushesEveryInode)
{
    Fixture f;
    sim::Cpu cpu(nullptr, 0, 0);
    for (int i = 0; i < 5; i++) {
        const fs::Ino ino = f.system.fs().create(
            cpu, "/j" + std::to_string(i));
        f.system.fs().fallocate(cpu, ino, 0, 4096);
    }
    EXPECT_EQ(f.system.fs().journal().dirtyCount(), 5u);
    f.system.fs().journal().commitAll(cpu);
    EXPECT_EQ(f.system.fs().journal().dirtyCount(), 0u);
}

TEST(DaxExtra, MmapBeyondAllocationFails)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/d", 64 * 1024);
    EXPECT_EQ(f.system.dax()->mmap(f.cpu, *f.as, ino, 1 << 20, 4096,
                                   false, 0),
              0u);
}

TEST(DaxExtra, DoubleMunmapReturnsFalse)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/d", 4096);
    const std::uint64_t va =
        f.system.dax()->mmap(f.cpu, *f.as, ino, 0, 4096, false, 0);
    ASSERT_TRUE(f.system.dax()->munmap(f.cpu, *f.as, va));
    EXPECT_FALSE(f.system.dax()->munmap(f.cpu, *f.as, va));
}

TEST(DaxExtra, MunmapOfPosixMappingReturnsFalse)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/d", 4096);
    const std::uint64_t va = f.as->mmap(f.cpu, ino, 0, 4096, false, 0);
    EXPECT_FALSE(f.system.dax()->munmap(f.cpu, *f.as, va));
    EXPECT_TRUE(f.as->munmap(f.cpu, va, 4096));
}

TEST(DaxExtra, ProtectionRoundTripOnWholeMapping)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/d", 2ULL << 20);
    const std::uint64_t va = f.system.dax()->mmap(
        f.cpu, *f.as, ino, 0, 2ULL << 20, true, vm::kMapNoMsync);
    vm::Vma *vma = f.as->findVma(va);
    ASSERT_NE(vma, nullptr);
    // Downgrade, verify write fails, upgrade, verify write works.
    ASSERT_TRUE(f.as->mprotect(f.cpu, vma->start, vma->length(), false));
    EXPECT_THROW(f.as->memWrite(f.cpu, va, 8, mem::Pattern::Rand),
                 std::runtime_error);
    ASSERT_TRUE(f.as->mprotect(f.cpu, vma->start, vma->length(), true));
    const std::uint64_t magic = 42;
    f.as->memWrite(f.cpu, va, 8, mem::Pattern::Rand,
                   mem::WriteMode::NtStore, &magic);
    std::uint64_t got = 0;
    f.as->memRead(f.cpu, va, 8, mem::Pattern::Rand, &got);
    EXPECT_EQ(got, magic);
}

TEST(DaxExtra, UnlinkForcesUnmapOfLiveMapping)
{
    Fixture f;
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = f.system.makeFile("/gone", 32 * 1024);
    const std::uint64_t va = f.system.dax()->mmap(
        cpu, *f.as, ino, 0, 32 * 1024, false, vm::kMapEphemeral);
    f.as->memRead(cpu, va, 8, mem::Pattern::Rand);
    f.system.fs().unlink(cpu, "/gone");
    EXPECT_THROW(f.as->memRead(cpu, va, 8, mem::Pattern::Rand),
                 std::runtime_error);
}

TEST(FileTablesExtra, PartialClearKeepsNode)
{
    Fixture f;
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = f.system.fs().create(cpu, "/p");
    f.system.fs().fallocate(cpu, ino, 0, 64 * 4096);
    auto &tables = f.system.fileTables()->tables(&cpu, ino);
    const auto nodesBefore = tables.table->nodeCount();
    // Shrink to half: entries cleared, the PTE page remains.
    f.system.fs().ftruncate(cpu, ino, 32 * 4096);
    EXPECT_EQ(tables.table->nodeCount(), nodesBefore);
    EXPECT_NE(tables.table->pteNode(0), nullptr);
    // Shrink to zero: the chunk's node is released.
    f.system.fs().ftruncate(cpu, ino, 0);
    EXPECT_EQ(tables.table->pteNode(0), nullptr);
}

TEST(KvStoreExtra, WalRecyclingAvoidsReallocation)
{
    Fixture f;
    wl::KvStore::Config kc;
    kc.memtableRecords = 32;
    kc.compactionTrigger = 100; // no compaction in this test
    kc.access.interface = wl::Interface::DaxVm;
    kc.access.nosync = true;
    wl::KvStore kv(f.system, *f.as, kc);
    sim::Cpu cpu(nullptr, 0, 0);
    for (std::uint64_t k = 0; k < 96; k++) // 3 memtable flushes
        kv.put(cpu, k);
    EXPECT_EQ(kv.flushes(), 3u);
    // Exactly one WAL exists at a time; old ones were recycled, so at
    // most two WAL files were ever created.
    const auto wals = f.system.fs().list("/kv/wal");
    EXPECT_LE(wals.size(), 2u);
}

TEST(LatrExtra, DrainWithNothingPendingIsFree)
{
    Fixture f;
    sim::Cpu cpu(nullptr, 1, 1);
    const sim::Time before = cpu.now();
    f.system.latr().drain(cpu);
    EXPECT_EQ(cpu.now(), before);
}

TEST(CostModelExtra, EachValidationRuleFires)
{
    using sim::CostModel;
    {
        CostModel cm;
        cm.pmemLoadLat = cm.dramLoadLat - 1;
        EXPECT_FALSE(sim::validateCostModel(cm).empty());
    }
    {
        CostModel cm;
        cm.kernelCopyFactor = 1.5;
        EXPECT_FALSE(sim::validateCostModel(cm).empty());
    }
    {
        CostModel cm;
        cm.walkLeafPmem = cm.walkLeafDram;
        EXPECT_FALSE(sim::validateCostModel(cm).empty());
    }
    {
        CostModel cm;
        cm.tlbFlushThreshold = 0;
        EXPECT_FALSE(sim::validateCostModel(cm).empty());
    }
    {
        CostModel cm;
        cm.pmemDeviceReadBw = cm.pmemDeviceWriteBw;
        EXPECT_FALSE(sim::validateCostModel(cm).empty());
    }
}

TEST(SystemExtra, QuiesceTimeGrowsWithTraffic)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/q", 1 << 20);
    const sim::Time before = f.system.quiesceTime();
    sim::Cpu cpu(nullptr, 0, 0);
    cpu.advanceTo(before);
    f.system.fs().read(cpu, ino, 0, nullptr, 1 << 20);
    EXPECT_GT(f.system.quiesceTime(), before);
}

TEST(SystemExtra, PatternByteIsDeterministicAndVaries)
{
    EXPECT_EQ(sys::System::patternByte(3, 17),
              sys::System::patternByte(3, 17));
    int diffs = 0;
    for (std::uint64_t i = 0; i < 64; i++) {
        if (sys::System::patternByte(1, i)
            != sys::System::patternByte(2, i)) {
            diffs++;
        }
    }
    EXPECT_GT(diffs, 48);
}

TEST(DeviceExtra, OccupyWriteDelaysLaterTransfers)
{
    Fixture f;
    auto &pmem = f.system.pmem();
    const sim::Time busy = pmem.occupyWrite(0, 64 << 20);
    EXPECT_GT(busy, 0u);
    sim::Cpu cpu(nullptr, 0, 0);
    pmem.write(cpu, 0, 4096, mem::WriteMode::NtStore,
               mem::Pattern::Seq);
    EXPECT_GE(cpu.now(), busy); // queued behind the daemon burst
}

TEST(MonitorExtra, SecondPollWithoutTrafficDoesNotMigrate)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/m", 1ULL << 20);
    const std::uint64_t va = f.system.dax()->mmap(
        f.cpu, *f.as, ino, 0, 1ULL << 20, false, 0);
    f.as->memRead(f.cpu, va, 1ULL << 20, mem::Pattern::Seq);
    f.system.dax()->pollMonitor(f.cpu, *f.as, ino);
    // No TLB misses between polls: rule cannot fire.
    EXPECT_FALSE(f.system.dax()->pollMonitor(f.cpu, *f.as, ino));
}

TEST(Fork, ChildSeesParentMappingsAndData)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 64 * 1024, 64 * 1024);
    const std::uint64_t va = f.as->mmap(f.cpu, ino, 0, 64 * 1024,
                                        false, 0);
    f.as->memRead(f.cpu, va, 64 * 1024, mem::Pattern::Seq);
    auto child = f.as->fork(f.cpu);
    // Child reads through copied translations without faulting.
    const auto faults = f.system.metrics().counterValue("vm.faults");
    std::uint8_t b = 0;
    sim::Cpu childCpu(nullptr, 1, 1);
    child->memRead(childCpu, va + 777, 1, mem::Pattern::Rand, &b);
    EXPECT_EQ(b, sys::System::patternByte(ino, 777));
    EXPECT_EQ(f.system.metrics().counterValue("vm.faults"), faults);
    // Independent teardown: child unmap does not affect the parent.
    ASSERT_TRUE(child->munmap(childCpu, va, 64 * 1024));
    f.as->memRead(f.cpu, va + 777, 1, mem::Pattern::Rand, &b);
    EXPECT_EQ(b, sys::System::patternByte(ino, 777));
}

TEST(Fork, DaxVmMappingsReattachCheaply)
{
    Fixture f;
    // Force 4 KB process mappings (fragmented-image conditions): the
    // POSIX fork must copy per-PTE while DaxVM re-attaches granules.
    f.system.vmm().setHugePagesEnabled(false);
    const fs::Ino big = f.system.makeFile("/big", 256ULL << 20);
    const std::uint64_t dva = f.system.dax()->mmap(
        f.cpu, *f.as, big, 0, 256ULL << 20, false, 0);
    ASSERT_NE(dva, 0u);

    sim::Cpu daxCpu(nullptr, 0, 0);
    auto daxChild = f.as->fork(daxCpu);
    // Compare with a POSIX child of a fully populated mapping of the
    // same size: the DaxVM fork must be far cheaper per byte.
    auto posixAs = f.system.newProcess();
    sim::Cpu posixCpu(nullptr, 1, 1);
    const std::uint64_t pva = posixAs->mmap(
        posixCpu, big, 0, 256ULL << 20, false, vm::kMapPopulate);
    ASSERT_NE(pva, 0u);
    sim::Cpu forkCpu(nullptr, 1, 1);
    auto posixChild = posixAs->fork(forkCpu);
    EXPECT_LT(daxCpu.now() * 10, forkCpu.now());

    // And the data is reachable in the DaxVM child.
    sim::Cpu childCpu(nullptr, 2, 2);
    daxChild->memRead(childCpu, dva, 4096, mem::Pattern::Seq);
    EXPECT_EQ(f.system.metrics().counterValue("vm.faults"), 0u);
}

TEST(Fork, EphemeralMappingsNotInherited)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/e", 32 * 1024);
    const std::uint64_t va = f.system.dax()->mmap(
        f.cpu, *f.as, ino, 0, 32 * 1024, false, vm::kMapEphemeral);
    ASSERT_NE(va, 0u);
    auto child = f.as->fork(f.cpu);
    sim::Cpu childCpu(nullptr, 1, 1);
    EXPECT_THROW(child->memRead(childCpu, va, 8, mem::Pattern::Rand),
                 std::runtime_error);
    // Parent still works.
    f.as->memRead(f.cpu, va, 8, mem::Pattern::Rand);
}
