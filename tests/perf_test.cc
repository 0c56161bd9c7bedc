/**
 * @file
 * Host-fast-path tests: the golden-equivalence proof that the walk
 * cache and VMA cache are observationally pure (bit-identical
 * simulated output with SystemConfig::hostFastPaths on vs off), unit
 * tests for every invalidation edge the caches depend on (munmap,
 * mprotect, attach/detach, shared leaf and interior tables, fork-style
 * table duplication, table teardown/ASID reuse), the TLB's huge count and live-slot list
 * against a plain TLB, and a randomized cross-check of the
 * open-addressed FlatHash64 against std::unordered_map.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/page_table.h"
#include "arch/pte.h"
#include "arch/tlb.h"
#include "mem/device.h"
#include "mem/frame_alloc.h"
#include "sim/flat_hash.h"
#include "sim/rng.h"
#include "sys/system.h"
#include "workloads/filesweep.h"
#include "workloads/repetitive.h"

using namespace dax;
using namespace dax::arch;

namespace {

sys::SystemConfig
smallConfig(bool fastPaths = true)
{
    sys::SystemConfig config;
    config.cores = 4;
    config.pmemBytes = 512ULL << 20;
    config.pmemTableBytes = 64ULL << 20;
    config.dramBytes = 256ULL << 20;
    config.hostFastPaths = fastPaths;
    return config;
}

sim::Cpu
cpuOn(int core)
{
    return sim::Cpu(nullptr, core, core);
}

struct ArchFixture
{
    sim::CostModel cm;
    mem::Device dram{mem::Kind::Dram, 64ULL << 20, cm,
                     mem::Backing::Sparse};
    mem::Device pmemDev{mem::Kind::Pmem, 64ULL << 20, cm,
                        mem::Backing::Sparse};
    mem::FrameAllocator dramFrames{dram, 0, 64ULL << 20};
    mem::FrameAllocator pmemFrames{pmemDev, 0, 64ULL << 20};
};

sim::Time
runTasks(sys::System &system,
         std::vector<std::unique_ptr<sim::Task>> tasks)
{
    const sim::Time start = system.quiesceTime();
    int core = 0;
    for (auto &task : tasks) {
        system.engine().addThread(std::move(task), core, start);
        core = (core + 1) % static_cast<int>(system.engine().numCores());
    }
    const sim::Time makespan = system.engine().run();
    return makespan > start ? makespan - start : 0;
}

/**
 * One deterministic fig1a-shaped (read-once file sweep over mmap and
 * DaxVM-ephemeral) plus fig6-shaped (sequential synced writes over one
 * large mapping) run. Returns every observable the benches derive
 * their figures from - elapsed virtual times and the full metrics
 * snapshot - serialized to one string for byte comparison.
 */
std::string
goldenRun(bool fastPaths)
{
    sys::System system(smallConfig(fastPaths));
    std::string out;

    // fig1a shape: sweep a small file set through two interfaces.
    auto paths = wl::makeFileSet(system, "/sweep/", 16, 64 * 1024);
    for (const bool daxvm : {false, true}) {
        auto as = system.newProcess();
        wl::Filesweep::Config config;
        config.paths = paths;
        config.access.interface =
            daxvm ? wl::Interface::DaxVm : wl::Interface::Mmap;
        if (daxvm) {
            config.access.ephemeral = true;
            config.access.asyncUnmap = true;
        }
        std::vector<std::unique_ptr<sim::Task>> tasks;
        tasks.push_back(
            std::make_unique<wl::Filesweep>(system, *as, config));
        out += "sweep " + std::to_string(daxvm) + " elapsed "
             + std::to_string(runTasks(system, std::move(tasks)))
             + "\n";
    }

    // fig6 shape: sequential 1 KB synced writes on one mapped file.
    const fs::Ino ino = system.makeFile("/synced", 8ULL << 20);
    {
        auto as = system.newProcess();
        wl::Repetitive::Config config;
        config.ino = ino;
        config.fileBytes = 8ULL << 20;
        config.opBytes = 1024;
        config.write = true;
        config.ops = 2048;
        config.writesPerSync = 64;
        config.access.interface = wl::Interface::Mmap;
        std::vector<std::unique_ptr<sim::Task>> tasks;
        tasks.push_back(
            std::make_unique<wl::Repetitive>(system, *as, config));
        out += "sync elapsed "
             + std::to_string(runTasks(system, std::move(tasks)))
             + "\n";
    }

    out += system.snapshotMetrics().toJson().dump(2);
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Golden equivalence: fast paths on vs off must be bit-identical.
// ---------------------------------------------------------------------

TEST(GoldenEquivalence, FastPathsAreObservationallyPure)
{
    // The System constructor honours DAXVM_HOST_FAST as an escape
    // hatch; neutralize it so this test really compares on vs off.
    unsetenv("DAXVM_HOST_FAST");
    const std::string fast = goldenRun(true);
    const std::string slow = goldenRun(false);
    EXPECT_EQ(fast, slow)
        << "host fast paths changed simulated output";
}

// ---------------------------------------------------------------------
// Walk-cache invalidation edges
// ---------------------------------------------------------------------

TEST(WalkCache, HitsAfterTlbInvalidateAndMatchesFullWalk)
{
    ArchFixture f;
    PageTable pt(f.dramFrames);
    // map() walks the path it builds, so it already fills the cache.
    pt.map(0x1000, 0x5000, kPteLevel, pte::kWrite);
    EXPECT_EQ(pt.walkCache().fills(), 1u);
    EXPECT_EQ(pt.walkCache().hits(), 0u);
    Mmu mmu(f.cm);
    MmuPerf perf;
    auto cpu = cpuOn(0);

    const auto first = mmu.translate(cpu, pt, 0x1080, false, 1, perf);
    ASSERT_EQ(first.outcome, Mmu::Outcome::Ok);
    EXPECT_EQ(pt.walkCache().hits(), 1u);

    // Drop the TLB entry: the repeat walk comes from the cached path
    // and agrees with the uncached walk field for field.
    mmu.tlb().invalidatePage(0x1000, 1);
    const auto second = mmu.translate(cpu, pt, 0x1080, false, 1, perf);
    EXPECT_EQ(second.outcome, Mmu::Outcome::Ok);
    EXPECT_EQ(second.paddr, first.paddr);
    EXPECT_EQ(pt.walkCache().hits(), 2u);
    EXPECT_EQ(pt.lookup(0x1080), pt.walkFromRoot(0x1080));
    EXPECT_EQ(pt.walkCache().fills(), 1u);
}

TEST(WalkCache, MunmapStyleLeafClearIsVisibleWithoutInvalidation)
{
    ArchFixture f;
    PageTable pt(f.dramFrames);
    pt.map(0x2000, 0x6000, kPteLevel, pte::kWrite);
    Mmu mmu(f.cm);
    MmuPerf perf;
    auto cpu = cpuOn(0);
    ASSERT_EQ(mmu.translate(cpu, pt, 0x2000, false, 1, perf).outcome,
              Mmu::Outcome::Ok);

    // munmap of a 4 KB page: leaf cleared, INVLPG sent. clear() starts
    // at the cached leaf table, and the cache needs no invalidation
    // because hits re-read the leaf PTE.
    const std::uint64_t hits = pt.walkCache().hits();
    EXPECT_NE(pt.clear(0x2000, kPteLevel), 0u);
    EXPECT_EQ(pt.walkCache().hits(), hits + 1);
    mmu.tlb().invalidatePage(0x2000, 1);
    EXPECT_EQ(mmu.translate(cpu, pt, 0x2000, false, 1, perf).outcome,
              Mmu::Outcome::NotPresent);
}

TEST(WalkCache, MprotectStyleWriteBitDropIsVisible)
{
    ArchFixture f;
    PageTable pt(f.dramFrames);
    pt.map(0x3000, 0x7000, kPteLevel, pte::kWrite);
    Mmu mmu(f.cm);
    MmuPerf perf;
    auto cpu = cpuOn(0);
    ASSERT_EQ(mmu.translate(cpu, pt, 0x3000, true, 1, perf).outcome,
              Mmu::Outcome::Ok);

    ASSERT_TRUE(pt.setFlags(0x3000, kPteLevel, 0, pte::kWrite));
    mmu.tlb().invalidatePage(0x3000, 1);
    EXPECT_EQ(mmu.translate(cpu, pt, 0x3000, true, 1, perf).outcome,
              Mmu::Outcome::ProtFault);
    EXPECT_EQ(mmu.translate(cpu, pt, 0x3000, false, 1, perf).outcome,
              Mmu::Outcome::Ok);
}

TEST(WalkCache, SharedLeafIsCachedSharedInteriorIsNotAndDetachIsVisible)
{
    ArchFixture f;
    // A DaxVM-style file table in PMem: a PTE page, which a process
    // attaches at a PMD slot (2 MB granule), under a PMD page, which a
    // process attaches at a PUD slot (1 GB granule).
    PageTable filePt(f.pmemFrames);
    filePt.map(0, 0x40000, kPteLevel, pte::kWrite);
    Node *filePmd = filePt.root()->child[0]->child[0];
    Node *fileNode = filePmd->child[0];
    ASSERT_NE(fileNode, nullptr);
    filePmd->shared = true; // owned by the file table, as in daxvm
    fileNode->shared = true;

    PageTable procPt(f.dramFrames);
    Mmu mmu(f.cm);
    MmuPerf perf;
    auto cpu = cpuOn(0);

    // PMD level: only the leaf table is shared. Its owner rewrites
    // entries but never re-points it, so the path is cached...
    const std::uint64_t va = 2ULL << 20;
    const std::uint64_t gen0 = procPt.structureGen();
    ASSERT_GT(procPt.attach(va, kPmdLevel, fileNode, true), 0u);
    EXPECT_GT(procPt.structureGen(), gen0);
    ASSERT_EQ(mmu.translate(cpu, procPt, va, false, 1, perf).outcome,
              Mmu::Outcome::Ok);
    EXPECT_EQ(procPt.walkCache().fills(), 1u);
    EXPECT_EQ(procPt.walkCache().hits(), 0u);
    const WalkResult cached = procPt.lookup(va);
    EXPECT_EQ(procPt.walkCache().hits(), 1u);
    EXPECT_EQ(cached.pteNode, fileNode);
    EXPECT_EQ(cached, procPt.walkFromRoot(va));

    // ...and every hit re-reads the owner's entries.
    const Pte leaf = fileNode->entry(0);
    fileNode->setEntry(0, 0);
    mmu.tlb().invalidatePage(va, 1);
    EXPECT_EQ(mmu.translate(cpu, procPt, va, false, 1, perf).outcome,
              Mmu::Outcome::NotPresent);
    EXPECT_EQ(procPt.walkCache().hits(), 2u);
    fileNode->setEntry(0, leaf);
    EXPECT_EQ(mmu.translate(cpu, procPt, va, false, 1, perf).outcome,
              Mmu::Outcome::Ok);
    EXPECT_EQ(procPt.walkCache().hits(), 3u);

    // Detach bumps the generation: the cached path is gone.
    const std::uint64_t gen1 = procPt.structureGen();
    EXPECT_EQ(procPt.detach(va, kPmdLevel), fileNode);
    EXPECT_GT(procPt.structureGen(), gen1);
    mmu.tlb().invalidatePage(va, 1);
    EXPECT_EQ(mmu.translate(cpu, procPt, va, false, 1, perf).outcome,
              Mmu::Outcome::NotPresent);
    EXPECT_EQ(procPt.walkCache().hits(), 3u);

    // PUD level: the shared PMD page is interior, and its owner
    // re-points its entries behind this table's back, so the path is
    // never cached.
    const std::uint64_t gva = 1ULL << 30;
    procPt.attach(gva, kPudLevel, filePmd, true);
    const std::uint64_t fills = procPt.walkCache().fills();
    ASSERT_EQ(mmu.translate(cpu, procPt, gva, false, 1, perf).outcome,
              Mmu::Outcome::Ok);
    EXPECT_EQ(procPt.lookup(gva).pteNode, nullptr);
    EXPECT_EQ(procPt.walkCache().fills(), fills);
    EXPECT_EQ(procPt.walkCache().hits(), 3u);
    EXPECT_EQ(procPt.detach(gva, kPudLevel), filePmd);
    mmu.tlb().invalidatePage(gva, 1);
    EXPECT_EQ(mmu.translate(cpu, procPt, gva, false, 1, perf).outcome,
              Mmu::Outcome::NotPresent);
    // Hand the nodes back to their owner so filePt's teardown frees
    // them.
    filePmd->shared = false;
    fileNode->shared = false;
}

TEST(WalkCache, ForkStyleTablesWithSameVaDoNotAlias)
{
    ArchFixture f;
    PageTable parent(f.dramFrames);
    PageTable child(f.dramFrames);
    const std::uint64_t va = 0x4000;
    parent.map(va, 0x10000, kPteLevel, pte::kWrite);
    child.map(va, 0x20000, kPteLevel, pte::kWrite);

    Mmu mmu(f.cm);
    MmuPerf perf;
    auto cpu = cpuOn(0);
    const auto p1 = mmu.translate(cpu, parent, va, false, 1, perf);
    const auto c1 = mmu.translate(cpu, child, va, false, 2, perf);
    ASSERT_EQ(p1.outcome, Mmu::Outcome::Ok);
    ASSERT_EQ(c1.outcome, Mmu::Outcome::Ok);
    EXPECT_NE(p1.paddr, c1.paddr);

    // Both tables use the same direct-mapped slot for this va, but
    // each table owns its cache, so re-walks cannot alias.
    mmu.tlb().invalidatePage(va, 1);
    mmu.tlb().invalidatePage(va, 2);
    EXPECT_EQ(mmu.translate(cpu, parent, va, false, 1, perf).paddr,
              p1.paddr);
    EXPECT_EQ(mmu.translate(cpu, child, va, false, 2, perf).paddr,
              c1.paddr);
}

TEST(WalkCache, TableTeardownNeverLeaksStaleEntries)
{
    ArchFixture f;
    Mmu mmu(f.cm);
    MmuPerf perf;
    auto cpu = cpuOn(0);
    const std::uint64_t va = 0x5000;

    auto pt1 = std::make_unique<PageTable>(f.dramFrames);
    pt1->map(va, 0x30000, kPteLevel, pte::kWrite);
    ASSERT_EQ(mmu.translate(cpu, *pt1, va, false, 1, perf).paddr,
              0x30000u);
    // ASID teardown: the process dies, its table (and the cache it
    // owns) is destroyed, and a new process (new table, quite possibly
    // at the same heap address) reuses the va from an empty cache.
    pt1.reset();
    auto pt2 = std::make_unique<PageTable>(f.dramFrames);
    pt2->map(va, 0x31000, kPteLevel, pte::kWrite);
    mmu.tlb().flush();
    EXPECT_EQ(mmu.translate(cpu, *pt2, va, false, 2, perf).paddr,
              0x31000u);
}

namespace {

/** 1 GB range a shared file-table PMD node can be attached over. */
constexpr std::uint64_t kPudRegion = 1ULL << 39;
/** The PMD slot of that node the file table's owner re-points. */
constexpr unsigned kSharedSlot = 1;

/** Interior entry pointing at @p child, as a file table writes it. */
Pte
tableEntry(const Node &child)
{
    return pte::make(child.frame,
                     pte::kPresent | pte::kWrite | pte::kUser);
}

/**
 * Twin page tables, one with the walk cache and one without, built
 * from twin pools that hand out identical frames. Each twin has its
 * own DaxVM-style shared file-table nodes: two PTE nodes, and a PMD
 * node whose kSharedSlot the file table's owner points at either.
 */
struct TwinTables
{
    sim::CostModel cm;
    mem::Device dram[2] = {
        {mem::Kind::Dram, 16ULL << 20, cm, mem::Backing::Sparse},
        {mem::Kind::Dram, 16ULL << 20, cm, mem::Backing::Sparse}};
    mem::Device pmem[2] = {
        {mem::Kind::Pmem, 16ULL << 20, cm, mem::Backing::Sparse},
        {mem::Kind::Pmem, 16ULL << 20, cm, mem::Backing::Sparse}};
    mem::FrameAllocator dramFrames[2] = {{dram[0], 0, 16ULL << 20},
                                         {dram[1], 0, 16ULL << 20}};
    mem::FrameAllocator pmemFrames[2] = {{pmem[0], 0, 16ULL << 20},
                                         {pmem[1], 0, 16ULL << 20}};
    Node file[2];
    Node otherFile[2];
    Node filePmd[2];
    PageTable cached{dramFrames[0], /*walkCache=*/true};
    PageTable plain{dramFrames[1], /*walkCache=*/false};

    TwinTables()
    {
        for (int i = 0; i < 2; i++) {
            for (Node *n : {&file[i], &otherFile[i], &filePmd[i]}) {
                n->dev = &pmem[i];
                n->frames = &pmemFrames[i];
                n->frame = pmemFrames[i].alloc();
                n->shared = true;
            }
            filePmd[i].child[kSharedSlot] = &file[i];
            filePmd[i].setEntry(kSharedSlot, tableEntry(file[i]));
        }
    }
};

} // namespace

namespace dax::arch {

void
PrintTo(const WalkResult &w, std::ostream *os)
{
    *os << "{present=" << w.present << " paddr=0x" << std::hex << w.paddr
        << " leafPteAddr=0x" << w.leafPteAddr << std::dec
        << " shift=" << w.pageShift << " writable=" << w.writable
        << " dram=" << w.dram << " leafInDram=" << w.leafInDram
        << " levels=" << w.levelsTouched << " pteNode=" << w.pteNode
        << " upperWritable=" << w.upperWritable << "}";
}

} // namespace dax::arch

TEST(WalkCache, RandomCallsMatchUncachedWalks)
{
    // The first three regions, 128 MB apart, share one of the cache's
    // 64 direct-mapped slots. The last sits under another PGD entry,
    // where a shared PMD node may be attached, in a slot of its own:
    // its entries outlive the other regions' probes, so one cached
    // across the owner's re-pointing would be caught.
    const std::uint64_t regions[] = {
        0, 64ULL << 21, 8 * (64ULL << 21),
        kPudRegion + kSharedSlot * mem::kHugePageSize};
    constexpr unsigned kPages = 8; // 4 KB pages used per region
    std::vector<std::uint64_t> probes;
    for (const std::uint64_t r : regions) {
        for (unsigned p = 0; p < kPages; p++)
            probes.push_back(r + p * mem::kPageSize + 0x18);
        probes.push_back(r + mem::kHugePageSize - 8);
        probes.push_back(r + mem::kHugePageSize); // never mapped
    }

    std::uint64_t hits = 0;
    std::uint64_t fills = 0;
    // Hits whose cached leaf table is a shared (attached) node.
    std::uint64_t sharedHits = 0;
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        sim::Rng rng(seed);
        // Short rounds on fresh tables: a PMD-level clear of an
        // interior entry leaves its region unreachable for good.
        for (int round = 0; round < 10; round++) {
            TwinTables t;
            for (int step = 0; step < 300; step++) {
                const std::uint64_t region = regions[rng.below(4)];
                const auto pageIdx =
                    static_cast<unsigned>(rng.below(kPages));
                const std::uint64_t page =
                    region + pageIdx * mem::kPageSize;
                const bool bit = rng.below(2) == 0;
                const std::uint64_t pa4k =
                    (1 + rng.below(4096)) * mem::kPageSize;
                const std::uint64_t pa2m =
                    (1 + rng.below(64)) * mem::kHugePageSize;
                const Pte w = bit ? pte::kWrite : 0;
                // Mostly PTE-level calls, as in the fault and unmap
                // paths; interior and attachment calls in between.
                const auto op = rng.below(19);
                // One call on table @p i; its result as a number, ~0
                // when it throws.
                auto apply = [&](int i) -> std::uint64_t {
                    PageTable &pt = i == 0 ? t.cached : t.plain;
                    try {
                        switch (op) {
                          case 0:
                          case 1:
                          case 2:
                          case 3:
                          case 4:
                            return pt.map(page, pa4k, kPteLevel, w);
                          case 5:
                          case 6:
                          case 7:
                            return pt.clear(page, kPteLevel);
                          case 8:
                            return pt.setFlags(page, kPteLevel, w,
                                               pte::kWrite & ~w);
                          case 9:
                            return pt.map(region, pa2m, kPmdLevel, w);
                          case 10:
                            return pt.clear(region, kPmdLevel);
                          case 11:
                            return pt.setFlags(region, kPmdLevel, w,
                                               pte::kWrite & ~w);
                          case 12:
                            return pt.attach(region, kPmdLevel,
                                             &t.file[i], bit);
                          case 13:
                            return pt.detach(region, kPmdLevel)
                                != nullptr;
                          case 14:
                            return pt.setAttachmentWritable(
                                region, kPmdLevel, bit);
                          case 15:
                            // Only the last region's 1 GB holds it, and
                            // that region's slot is never empty, so no
                            // call grows a node inside the shared PMD.
                            return pt.attach(kPudRegion, kPudLevel,
                                             &t.filePmd[i], bit);
                          case 16:
                            return pt.detach(kPudRegion, kPudLevel)
                                != nullptr;
                          case 17: {
                            // The file table's owner re-points a PMD
                            // slot behind the process tables' backs,
                            // as FileTable does.
                            Node &pte = bit ? t.file[i] : t.otherFile[i];
                            t.filePmd[i].child[kSharedSlot] = &pte;
                            t.filePmd[i].setEntry(kSharedSlot,
                                                  tableEntry(pte));
                            return 0;
                          }
                          default:
                            // ...and rewrites a leaf of a shared node.
                            t.file[i].setEntry(
                                pageIdx,
                                bit ? pte::make(pa4k, pte::kPresent
                                                          | pte::kWrite
                                                          | pte::kUser)
                                    : 0);
                            return 0;
                        }
                    } catch (const std::logic_error &) {
                        return ~0ULL;
                    }
                };
                const std::string where =
                    "seed " + std::to_string(seed) + " round "
                    + std::to_string(round) + " step "
                    + std::to_string(step) + " op " + std::to_string(op);
                const std::uint64_t got = apply(0);
                ASSERT_EQ(got, apply(1)) << where;
                ASSERT_EQ(t.cached.ownedNodes(), t.plain.ownedNodes())
                    << where;
                for (const std::uint64_t va : probes) {
                    const WalkResult fromRoot = t.cached.walkFromRoot(va);
                    const std::uint64_t before = t.cached.walkCache().hits();
                    const WalkResult walk = t.cached.lookup(va);
                    ASSERT_EQ(walk, fromRoot)
                        << where << " va 0x" << std::hex << va;
                    if (t.cached.walkCache().hits() > before
                        && walk.pteNode->shared) {
                        sharedHits++;
                    }
                    // The twins own different host nodes; nothing else
                    // may differ.
                    WalkResult twin = t.plain.lookup(va);
                    ASSERT_EQ(twin.pteNode == nullptr,
                              fromRoot.pteNode == nullptr)
                        << where;
                    twin.pteNode = fromRoot.pteNode;
                    ASSERT_EQ(twin, fromRoot)
                        << where << " va 0x" << std::hex << va;
                }
            }
            hits += t.cached.walkCache().hits();
            fills += t.cached.walkCache().fills();
            EXPECT_EQ(t.plain.walkCache().hits()
                          + t.plain.walkCache().fills(),
                      0u);
        }
    }
    // Both the hit and the fill paths were exercised, and hits went
    // through attached leaf tables too.
    EXPECT_GT(hits, 10000u);
    EXPECT_GT(fills, 1000u);
    EXPECT_GT(sharedHits, 1000u);
}

// ---------------------------------------------------------------------
// TLB fast paths against the plain TLB
// ---------------------------------------------------------------------

namespace {

/**
 * The TLB without host-side bookkeeping: every probe scans the whole
 * huge array and every flush the whole of both arrays. Tlb's huge
 * count and live-slot list may skip work, never change an answer, an
 * entry or an LRU tick.
 */
class RefTlb
{
  public:
    RefTlb(unsigned smallEntries, unsigned smallWays, unsigned hugeEntries)
        : smallSets_(smallEntries / smallWays), smallWays_(smallWays),
          small_(smallEntries), huge_(hugeEntries)
    {
    }

    const TlbEntry *
    lookup(std::uint64_t va, Asid asid)
    {
        TlbEntry *e = probeSmall(va, asid);
        if (e == nullptr)
            e = probeHuge(va, asid);
        if (e != nullptr)
            e->lru = lruTick_++;
        return e;
    }

    void
    insert(std::uint64_t va, Asid asid, const WalkResult &walk)
    {
        if (TlbEntry *e = probeSmall(va, asid))
            e->valid = false;
        if (TlbEntry *e = probeHuge(va, asid))
            e->valid = false;

        const std::uint64_t mask = (1ULL << walk.pageShift) - 1;
        TlbEntry entry;
        entry.valid = true;
        entry.asid = asid;
        entry.vbase = va & ~mask;
        entry.pbase = walk.paddr & ~mask;
        entry.pageShift = walk.pageShift;
        entry.writable = walk.writable;
        entry.dram = walk.dram;
        entry.lru = lruTick_++;

        TlbEntry *first = &huge_[0];
        std::size_t ways = huge_.size();
        if (walk.pageShift == 12) {
            const unsigned set =
                static_cast<unsigned>((va >> 12) % smallSets_);
            first = &small_[set * smallWays_];
            ways = smallWays_;
        }
        TlbEntry *victim = first;
        for (std::size_t w = 0; w < ways; w++) {
            TlbEntry &e = first[w];
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.lru < victim->lru)
                victim = &e;
        }
        *victim = entry;
    }

    void
    invalidatePage(std::uint64_t va, Asid asid)
    {
        if (TlbEntry *e = probeSmall(va, asid)) {
            e->valid = false;
            invalidations_++;
        }
        if (TlbEntry *e = probeHuge(va, asid)) {
            e->valid = false;
            invalidations_++;
        }
    }

    void
    flush()
    {
        for (auto &e : small_)
            e.valid = false;
        for (auto &e : huge_)
            e.valid = false;
        invalidations_++;
    }

    void
    flushAsid(Asid asid)
    {
        for (auto &e : small_) {
            if (e.asid == asid)
                e.valid = false;
        }
        for (auto &e : huge_) {
            if (e.asid == asid)
                e.valid = false;
        }
        invalidations_++;
    }

    std::uint64_t invalidations() const { return invalidations_; }
    const std::vector<TlbEntry> &smallEntries() const { return small_; }
    const std::vector<TlbEntry> &hugeEntries() const { return huge_; }

  private:
    TlbEntry *
    probeSmall(std::uint64_t va, Asid asid)
    {
        const unsigned set = static_cast<unsigned>((va >> 12) % smallSets_);
        for (unsigned w = 0; w < smallWays_; w++) {
            TlbEntry &e = small_[set * smallWays_ + w];
            if (e.valid && e.asid == asid && e.pageShift == 12
                && e.vbase == (va & ~0xfffULL))
                return &e;
        }
        return nullptr;
    }

    TlbEntry *
    probeHuge(std::uint64_t va, Asid asid)
    {
        for (auto &e : huge_) {
            if (!e.valid || e.asid != asid)
                continue;
            const std::uint64_t mask = (1ULL << e.pageShift) - 1;
            if (e.vbase == (va & ~mask))
                return &e;
        }
        return nullptr;
    }

    unsigned smallSets_;
    unsigned smallWays_;
    std::vector<TlbEntry> small_;
    std::vector<TlbEntry> huge_;
    std::uint64_t lruTick_ = 1;
    std::uint64_t invalidations_ = 0;
};

/**
 * Empty when every valid small entry of @p tlb is on its live-slot
 * list exactly once and no slot is listed twice; else the first
 * problem found.
 */
std::string
liveListProblem(const Tlb &tlb)
{
    const auto &small = tlb.smallEntries();
    std::vector<unsigned> listed(small.size());
    for (const unsigned slot : tlb.liveSmallSlots()) {
        if (slot >= small.size() || listed[slot]++ != 0)
            return "slot " + std::to_string(slot)
                 + " out of range or listed twice";
    }
    for (std::size_t slot = 0; slot < small.size(); slot++) {
        if (small[slot].valid && listed[slot] == 0)
            return "valid slot " + std::to_string(slot) + " not listed";
    }
    return "";
}

/** Position of @p e in a TLB's arrays (small first), -1 for a miss. */
template <typename T>
long
slotOf(const T &tlb, const TlbEntry *e)
{
    if (e == nullptr)
        return -1;
    const auto &small = tlb.smallEntries();
    if (e >= small.data() && e < small.data() + small.size())
        return e - small.data();
    return static_cast<long>(small.size()) + (e - tlb.hugeEntries().data());
}

} // namespace

TEST(TlbFastPath, HugeCountMatchesReferenceTlb)
{
    struct Phase
    {
        unsigned small, ways, huge;
        bool flushHeavy; // 1 in 4 calls is an ASID or full flush
    };
    // Default Cascade Lake shape, then a tiny one that evicts often,
    // then the tiny one flushing often, so the live-slot list is
    // compacted and its slots are reused.
    for (const Phase g : {Phase{1536, 4, 32, false}, Phase{64, 4, 4, false},
                          Phase{64, 4, 4, true}}) {
        Tlb tlb(g.small, g.ways, g.huge);
        RefTlb ref(g.small, g.ways, g.huge);
        sim::Rng rng(g.small + (g.flushHeavy ? 1 : 0));
        for (int step = 0; step < 50000; step++) {
            const Asid asid = 1 + static_cast<Asid>(rng.below(3));
            // Three 1 GB regions; pages spill across 2 MB boundaries.
            const std::uint64_t va = (rng.below(3) << 30)
                                   + rng.below(2048) * mem::kPageSize
                                   + rng.below(mem::kPageSize);
            const auto op = !g.flushHeavy      ? rng.below(32)
                          : rng.below(4) == 0 ? 30 + rng.below(2)
                                              : rng.below(30);
            const std::string where = "tlb " + std::to_string(g.small)
                                    + (g.flushHeavy ? " flushing" : "")
                                    + " step " + std::to_string(step)
                                    + " op " + std::to_string(op);
            if (op < 12) {
                WalkResult walk;
                walk.present = true;
                const auto kind = rng.below(8);
                walk.pageShift = kind < 5 ? 12 : kind < 7 ? 21 : 30;
                walk.paddr = rng.below(1ULL << 40);
                walk.writable = rng.below(2) == 0;
                walk.dram = rng.below(2) == 0;
                tlb.insert(va, asid, walk);
                ref.insert(va, asid, walk);
            } else if (op < 22) {
                const TlbEntry *got = tlb.lookup(va, asid);
                const TlbEntry *want = ref.lookup(va, asid);
                ASSERT_EQ(slotOf(tlb, got), slotOf(ref, want)) << where;
            } else if (op < 30) {
                tlb.invalidatePage(va, asid);
                ref.invalidatePage(va, asid);
            } else if (op == 30) {
                tlb.flushAsid(asid);
                ref.flushAsid(asid);
            } else if (g.flushHeavy || rng.below(4) == 0) {
                tlb.flush();
                ref.flush();
            }
            ASSERT_EQ(tlb.invalidations(), ref.invalidations()) << where;
            ASSERT_TRUE(tlb.smallEntries() == ref.smallEntries()) << where;
            ASSERT_TRUE(tlb.hugeEntries() == ref.hugeEntries()) << where;
            ASSERT_EQ(liveListProblem(tlb), "") << where;
        }
    }
}

// ---------------------------------------------------------------------
// VMA-cache invalidation edges
// ---------------------------------------------------------------------

TEST(VmaCache, HitsAccumulateAndMunmapInvalidates)
{
    sys::System system(smallConfig());
    const fs::Ino ino = system.makeFile("/v", 1ULL << 20);
    auto as = system.newProcess();
    auto cpu = cpuOn(0);
    const std::uint64_t va = as->mmap(cpu, ino, 0, 1ULL << 20, true, 0);
    ASSERT_NE(va, 0u);

    as->memRead(cpu, va, 64, mem::Pattern::Seq);
    as->memRead(cpu, va + 4096, 64, mem::Pattern::Seq);
    EXPECT_GT(as->vmaCacheHits(), 0u);

    const std::uint64_t gen = as->vmaGeneration();
    ASSERT_TRUE(as->munmap(cpu, va, 1ULL << 20));
    EXPECT_GT(as->vmaGeneration(), gen);
    EXPECT_EQ(as->findVma(va), nullptr);
}

TEST(VmaCache, MprotectSplitKeepsLookupsCorrect)
{
    sys::System system(smallConfig());
    const fs::Ino ino = system.makeFile("/m", 4 * 4096);
    auto as = system.newProcess();
    auto cpu = cpuOn(0);
    const std::uint64_t va = as->mmap(cpu, ino, 0, 4 * 4096, true, 0);
    ASSERT_NE(va, 0u);
    as->memRead(cpu, va, 64, mem::Pattern::Seq); // warm the cache

    // Split the VMA in three; the cached pointer from before the split
    // must not be served for any of the new pieces.
    ASSERT_TRUE(as->mprotect(cpu, va + 4096, 4096, false));
    const vm::Vma *left = as->findVma(va);
    const vm::Vma *mid = as->findVma(va + 4096);
    const vm::Vma *right = as->findVma(va + 2 * 4096);
    ASSERT_NE(left, nullptr);
    ASSERT_NE(mid, nullptr);
    ASSERT_NE(right, nullptr);
    EXPECT_NE(left, mid);
    EXPECT_NE(mid, right);
    EXPECT_TRUE(left->contains(va));
    EXPECT_TRUE(mid->contains(va + 4096));
    EXPECT_FALSE(mid->writable);
    EXPECT_TRUE(right->contains(va + 2 * 4096));
}

TEST(VmaCache, ForkedSpacesAreIndependent)
{
    sys::System system(smallConfig());
    const fs::Ino ino = system.makeFile("/f", 1ULL << 20);
    auto parent = system.newProcess();
    auto cpu = cpuOn(0);
    const std::uint64_t va =
        parent->mmap(cpu, ino, 0, 1ULL << 20, false, 0);
    ASSERT_NE(va, 0u);
    parent->memRead(cpu, va, 64, mem::Pattern::Seq); // warm the cache

    auto child = parent->fork(cpu);
    ASSERT_NE(child, nullptr);
    ASSERT_NE(child->findVma(va), nullptr);
    // Unmapping in the parent must not disturb the child's lookups.
    ASSERT_TRUE(parent->munmap(cpu, va, 1ULL << 20));
    EXPECT_EQ(parent->findVma(va), nullptr);
    ASSERT_NE(child->findVma(va), nullptr);
    child->memRead(cpu, va, 64, mem::Pattern::Seq);
}

TEST(VmaCache, MremapMoveInvalidates)
{
    sys::System system(smallConfig());
    const fs::Ino ino = system.makeFile("/r", 1ULL << 20);
    auto as = system.newProcess();
    auto cpu = cpuOn(0);
    const std::uint64_t va = as->mmap(cpu, ino, 0, 2 * 4096, true, 0);
    ASSERT_NE(va, 0u);
    as->memRead(cpu, va, 64, mem::Pattern::Seq); // warm the cache

    const std::uint64_t newVa =
        as->mremap(cpu, va, 2 * 4096, 8 * 4096);
    ASSERT_NE(newVa, 0u);
    const vm::Vma *vma = as->findVma(newVa);
    ASSERT_NE(vma, nullptr);
    EXPECT_TRUE(vma->contains(newVa + 7 * 4096));
    if (newVa != va) {
        EXPECT_EQ(as->findVma(va), nullptr);
    }
}

// ---------------------------------------------------------------------
// FlatHash64 vs std::unordered_map
// ---------------------------------------------------------------------

TEST(FlatHash, RandomizedCrossCheck)
{
    sim::FlatHash64<std::uint64_t> fh;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    sim::Rng rng(2026);

    // A small key domain forces constant insert/erase collisions, the
    // worst case for backshift deletion bugs.
    for (int i = 0; i < 200000; i++) {
        const std::uint64_t key = rng.next() % 512;
        switch (rng.next() % 3) {
          case 0: {
            const std::uint64_t val = rng.next();
            fh[key] = val;
            ref[key] = val;
            break;
          }
          case 1:
            fh.erase(key);
            ref.erase(key);
            break;
          default: {
            const std::uint64_t *got = fh.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << key;
            if (got != nullptr) {
                ASSERT_EQ(*got, it->second) << "key " << key;
            }
            break;
          }
        }
    }

    ASSERT_EQ(fh.size(), ref.size());
    std::uint64_t seen = 0;
    fh.forEach([&](std::uint64_t key, const std::uint64_t &val) {
        const auto it = ref.find(key);
        ASSERT_NE(it, ref.end());
        ASSERT_EQ(val, it->second);
        seen++;
    });
    EXPECT_EQ(seen, ref.size());
}
