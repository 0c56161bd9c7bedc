/**
 * @file
 * Unit tests for the architecture layer: PTE encoding, page tables
 * (incl. attachments and permission intersection), TLB, walker timing
 * (Table II calibration), shootdowns.
 */
#include <gtest/gtest.h>

#include "arch/page_table.h"
#include "sim/rng.h"
#include "arch/pte.h"
#include "arch/shootdown.h"
#include "arch/tlb.h"
#include "mem/device.h"
#include "mem/frame_alloc.h"

using namespace dax;
using namespace dax::arch;

namespace {

struct Fixture
{
    sim::CostModel cm;
    mem::Device dram{mem::Kind::Dram, 64ULL << 20, cm,
                     mem::Backing::Sparse};
    mem::Device pmemDev{mem::Kind::Pmem, 64ULL << 20, cm,
                        mem::Backing::Sparse};
    mem::FrameAllocator dramFrames{dram, 0, 64ULL << 20};
    mem::FrameAllocator pmemFrames{pmemDev, 0, 64ULL << 20};
};

sim::Cpu
cpuOn(int core)
{
    return sim::Cpu(nullptr, core, core);
}

} // namespace

TEST(Pte, EncodingRoundTrips)
{
    const Pte e = pte::make(0x12345000, pte::kPresent | pte::kWrite);
    EXPECT_TRUE(pte::present(e));
    EXPECT_TRUE(pte::writable(e));
    EXPECT_FALSE(pte::huge(e));
    EXPECT_EQ(pte::addr(e), 0x12345000u);
}

TEST(Pte, SoftwareBitsDoNotClobberAddress)
{
    const Pte e = pte::make(0xabcdef000,
                            pte::kPresent | pte::kSoftDram
                                | pte::kSoftAttached
                                | pte::kSoftDirtyTracked);
    EXPECT_EQ(pte::addr(e), 0xabcdef000u);
    EXPECT_TRUE(pte::inDram(e));
    EXPECT_TRUE(pte::attached(e));
}

TEST(Pte, LevelGeometry)
{
    EXPECT_EQ(levelSpan(kPteLevel), 4096u);
    EXPECT_EQ(levelSpan(kPmdLevel), 2ULL << 20);
    EXPECT_EQ(levelSpan(kPudLevel), 1ULL << 30);
    EXPECT_EQ(levelIndex(0x200000, kPmdLevel), 1u);
    EXPECT_EQ(levelIndex(0x1000, kPteLevel), 1u);
}

TEST(PageTable, Map4kLookup)
{
    Fixture f;
    PageTable pt(f.dramFrames);
    pt.map(0x7000, 0x42000, kPteLevel, pte::kWrite);
    const WalkResult w = pt.lookup(0x7123);
    EXPECT_TRUE(w.present);
    EXPECT_EQ(w.paddr, 0x42123u);
    EXPECT_EQ(w.pageShift, 12u);
    EXPECT_TRUE(w.writable);
}

TEST(PageTable, LookupMissingReturnsAbsent)
{
    Fixture f;
    PageTable pt(f.dramFrames);
    EXPECT_FALSE(pt.lookup(0xdead000).present);
}

TEST(PageTable, MapHuge2M)
{
    Fixture f;
    PageTable pt(f.dramFrames);
    pt.map(0x200000, 0x40000000, kPmdLevel, pte::kWrite);
    const WalkResult w = pt.lookup(0x200000 + 0x12345);
    EXPECT_TRUE(w.present);
    EXPECT_EQ(w.pageShift, 21u);
    EXPECT_EQ(w.paddr, 0x40000000u + 0x12345u);
}

TEST(PageTable, ClearRemovesTranslation)
{
    Fixture f;
    PageTable pt(f.dramFrames);
    pt.map(0x7000, 0x42000, kPteLevel, 0);
    const Pte old = pt.clear(0x7000, kPteLevel);
    EXPECT_TRUE(pte::present(old));
    EXPECT_FALSE(pt.lookup(0x7000).present);
    EXPECT_EQ(pt.clear(0x7000, kPteLevel), 0u);
}

TEST(PageTable, UnalignedMapThrows)
{
    Fixture f;
    PageTable pt(f.dramFrames);
    EXPECT_THROW(pt.map(0x7001, 0, kPteLevel, 0), std::invalid_argument);
    EXPECT_THROW(pt.map(0x1000, 0, kPmdLevel, 0), std::invalid_argument);
}

TEST(PageTable, SetFlagsUpgradesWritability)
{
    Fixture f;
    PageTable pt(f.dramFrames);
    pt.map(0x7000, 0x42000, kPteLevel, 0);
    EXPECT_FALSE(pt.lookup(0x7000).writable);
    EXPECT_TRUE(pt.setFlags(0x7000, kPteLevel, pte::kWrite, 0));
    EXPECT_TRUE(pt.lookup(0x7000).writable);
    EXPECT_TRUE(pt.setFlags(0x7000, kPteLevel, 0, pte::kWrite));
    EXPECT_FALSE(pt.lookup(0x7000).writable);
}

TEST(PageTable, NodeAccountingAndDestruction)
{
    Fixture f;
    const auto before = f.dramFrames.allocated();
    {
        PageTable pt(f.dramFrames);
        pt.map(0x200000, 0x1000, kPteLevel, 0);
        EXPECT_EQ(pt.ownedNodes(), 4u); // PGD+PUD+PMD+PTE
        EXPECT_EQ(f.dramFrames.allocated(), before + 4);
    }
    EXPECT_EQ(f.dramFrames.allocated(), before);
}

TEST(PageTable, AttachSharesForeignPteNode)
{
    Fixture f;
    PageTable pt(f.dramFrames);

    // Build a "file table" PTE node in PMem frames.
    auto *foreign = new Node();
    foreign->dev = &f.pmemDev;
    foreign->frames = &f.pmemFrames;
    foreign->frame = f.pmemFrames.alloc();
    foreign->shared = true;
    foreign->setEntry(3, pte::make(0x99000, pte::kPresent | pte::kWrite
                                                | pte::kUser));

    pt.attach(0x400000, kPmdLevel, foreign, /*writable=*/true);
    const WalkResult w = pt.lookup(0x400000 + 3 * 4096 + 5);
    EXPECT_TRUE(w.present);
    EXPECT_EQ(w.paddr, 0x99005u);
    EXPECT_TRUE(w.writable);
    EXPECT_FALSE(w.leafInDram); // leaf PTEs live in PMem

    Node *back = pt.detach(0x400000, kPmdLevel);
    EXPECT_EQ(back, foreign);
    EXPECT_FALSE(pt.lookup(0x400000 + 3 * 4096).present);

    f.pmemFrames.free(foreign->frame);
    delete foreign;
}

TEST(PageTable, AttachmentPermissionIntersection)
{
    // The file-table PTE has max rights; a read-only attachment entry
    // must make the effective translation read-only (paper Fig. 2).
    Fixture f;
    PageTable pt(f.dramFrames);
    auto *foreign = new Node();
    foreign->dev = &f.pmemDev;
    foreign->frames = &f.pmemFrames;
    foreign->frame = f.pmemFrames.alloc();
    foreign->shared = true;
    foreign->setEntry(0, pte::make(0x55000, pte::kPresent | pte::kWrite
                                                | pte::kUser));

    pt.attach(0x600000, kPmdLevel, foreign, /*writable=*/false);
    EXPECT_FALSE(pt.lookup(0x600000).writable);
    EXPECT_TRUE(pt.setAttachmentWritable(0x600000, kPmdLevel, true));
    EXPECT_TRUE(pt.lookup(0x600000).writable);

    pt.detach(0x600000, kPmdLevel);
    f.pmemFrames.free(foreign->frame);
    delete foreign;
}

TEST(PageTable, SharedNodesSurviveProcessDestruction)
{
    Fixture f;
    auto *foreign = new Node();
    foreign->dev = &f.pmemDev;
    foreign->frames = &f.pmemFrames;
    foreign->frame = f.pmemFrames.alloc();
    foreign->shared = true;
    {
        PageTable pt(f.dramFrames);
        pt.attach(0x400000, kPmdLevel, foreign, true);
        // Process dies with the attachment still in place.
    }
    EXPECT_EQ(f.pmemFrames.allocated(), 1u); // still alive
    f.pmemFrames.free(foreign->frame);
    delete foreign;
}

TEST(Tlb, HitAfterInsert)
{
    Tlb tlb;
    WalkResult w;
    w.present = true;
    w.paddr = 0x42000;
    w.pageShift = 12;
    w.writable = true;
    tlb.insert(0x7000, 1, w);
    const TlbEntry *e = tlb.lookup(0x7abc, 1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->pbase, 0x42000u);
    EXPECT_EQ(tlb.lookup(0x8000, 1), nullptr);
    EXPECT_EQ(tlb.lookup(0x7000, 2), nullptr); // other ASID
}

TEST(Tlb, HugeEntryCoversWholePage)
{
    Tlb tlb;
    WalkResult w;
    w.present = true;
    w.paddr = 0x40000000;
    w.pageShift = 21;
    tlb.insert(0x200000, 1, w);
    EXPECT_NE(tlb.lookup(0x200000 + 0x1fffff, 1), nullptr);
    EXPECT_EQ(tlb.lookup(0x400000, 1), nullptr);
}

TEST(Tlb, InvalidatePageAndFlush)
{
    Tlb tlb;
    WalkResult w;
    w.present = true;
    w.paddr = 0x1000;
    w.pageShift = 12;
    tlb.insert(0x1000, 1, w);
    tlb.insert(0x2000, 2, w);
    tlb.invalidatePage(0x1000, 1);
    EXPECT_EQ(tlb.lookup(0x1000, 1), nullptr);
    EXPECT_NE(tlb.lookup(0x2000, 2), nullptr);
    tlb.flushAsid(2);
    EXPECT_EQ(tlb.lookup(0x2000, 2), nullptr);
}

TEST(Tlb, SetConflictEvictsLru)
{
    Tlb tlb(/*smallEntries=*/8, /*smallWays=*/2, /*hugeEntries=*/4);
    WalkResult w;
    w.present = true;
    w.pageShift = 12;
    // 4 sets; pages 0, 4, 8 land in set 0 with 2 ways.
    const std::uint64_t base = 0;
    for (std::uint64_t i : {0, 4, 8}) {
        w.paddr = i * 4096;
        tlb.insert(base + i * 4096, 1, w);
    }
    EXPECT_EQ(tlb.lookup(base, 1), nullptr); // oldest evicted
    EXPECT_NE(tlb.lookup(base + 4 * 4096, 1), nullptr);
    EXPECT_NE(tlb.lookup(base + 8 * 4096, 1), nullptr);
}

TEST(Mmu, Table2WalkCosts)
{
    // Reproduce the structure of paper Table II: sequential walks cost
    // far less than random, and PMem-resident leaves far more than
    // DRAM, with random-PMem ~800 cycles.
    Fixture f;

    auto measure = [&](mem::FrameAllocator &frames, bool seq) {
        PageTable pt(frames);
        const std::uint64_t pages = 4096;
        for (std::uint64_t i = 0; i < pages; i++)
            pt.map(i * 4096, i * 4096, kPteLevel, pte::kWrite);
        Mmu mmu(f.cm);
        MmuPerf perf;
        auto cpu = cpuOn(0);
        sim::Rng rng(1);
        for (std::uint64_t i = 0; i < pages; i++) {
            const std::uint64_t page = seq ? i : rng.below(pages);
            // Flush so that every access walks.
            mmu.tlb().flush();
            mmu.translate(cpu, pt, page * 4096, false, 1, perf);
        }
        return perf.avgWalkCycles();
    };

    const double seqDram = measure(f.dramFrames, true);
    const double randDram = measure(f.dramFrames, false);
    const double seqPmem = measure(f.pmemFrames, true);
    const double randPmem = measure(f.pmemFrames, false);

    EXPECT_LT(seqDram, 60.0);
    EXPECT_NEAR(randDram, 111.0, 30.0);
    EXPECT_LT(seqPmem, 200.0);
    EXPECT_NEAR(randPmem, 821.0, 120.0);
    EXPECT_GT(randPmem, randDram * 4);
}

TEST(Mmu, ProtFaultOnReadOnlyWrite)
{
    Fixture f;
    PageTable pt(f.dramFrames);
    pt.map(0x1000, 0x2000, kPteLevel, 0); // read-only
    Mmu mmu(f.cm);
    MmuPerf perf;
    auto cpu = cpuOn(0);
    const auto r = mmu.translate(cpu, pt, 0x1000, true, 1, perf);
    EXPECT_EQ(r.outcome, Mmu::Outcome::ProtFault);
    const auto r2 = mmu.translate(cpu, pt, 0x1000, false, 1, perf);
    EXPECT_EQ(r2.outcome, Mmu::Outcome::Ok);
}

TEST(Shootdown, InvalidatesRemoteTlbs)
{
    Fixture f;
    ShootdownHub hub(f.cm, 4);
    std::vector<std::unique_ptr<Mmu>> mmus;
    for (int c = 0; c < 4; c++) {
        mmus.push_back(std::make_unique<Mmu>(f.cm));
        hub.registerMmu(c, mmus.back().get());
    }
    WalkResult w;
    w.present = true;
    w.paddr = 0x1000;
    w.pageShift = 12;
    for (int c = 0; c < 4; c++)
        mmus[static_cast<unsigned>(c)]->tlb().insert(0x1000, 1, w);

    auto cpu = cpuOn(0);
    hub.shootdownPages(cpu, 0xf, 1, {0x1000});
    for (int c = 0; c < 4; c++) {
        EXPECT_EQ(mmus[static_cast<unsigned>(c)]->tlb().lookup(0x1000, 1),
                  nullptr);
    }
    EXPECT_EQ(hub.metricsRegistry().counterValue("tlb.ipis"), 1u);
}

TEST(Shootdown, InitiatorPaysPerRemoteCore)
{
    Fixture f;
    ShootdownHub hub(f.cm, 8);
    std::vector<std::unique_ptr<Mmu>> mmus;
    for (int c = 0; c < 8; c++) {
        mmus.push_back(std::make_unique<Mmu>(f.cm));
        hub.registerMmu(c, mmus.back().get());
    }
    auto few = cpuOn(0);
    hub.shootdownFull(few, 0x3, 1); // 1 remote
    auto many = cpuOn(0);
    hub.shootdownFull(many, 0xff, 1); // 7 remotes
    EXPECT_GT(many.now(), few.now());
}

TEST(Shootdown, DisruptionChargedToVictims)
{
    Fixture f;
    ShootdownHub hub(f.cm, 2);
    std::vector<std::unique_ptr<Mmu>> mmus;
    for (int c = 0; c < 2; c++) {
        mmus.push_back(std::make_unique<Mmu>(f.cm));
        hub.registerMmu(c, mmus.back().get());
    }
    auto initiator = cpuOn(0);
    hub.shootdownFull(initiator, 0x3, 1);
    auto victim = cpuOn(1);
    hub.drainDisruption(victim);
    EXPECT_EQ(victim.now(), f.cm.ipiRemoteDisruption);
    // Draining twice charges nothing more.
    hub.drainDisruption(victim);
    EXPECT_EQ(victim.now(), f.cm.ipiRemoteDisruption);
}

TEST(Shootdown, ThresholdSwitchesToFullFlush)
{
    Fixture f;
    ShootdownHub hub(f.cm, 1);
    Mmu mmu(f.cm);
    hub.registerMmu(0, &mmu);
    std::vector<std::uint64_t> pages;
    for (std::uint64_t i = 0; i < f.cm.tlbFlushThreshold + 1; i++)
        pages.push_back(i * 4096);
    auto cpu = cpuOn(0);
    hub.shootdownPages(cpu, 0x1, 1, pages);
    EXPECT_EQ(hub.metricsRegistry().counterValue("tlb.full_flushes"), 1u);
    EXPECT_EQ(hub.metricsRegistry().counterValue("tlb.invlpg"), 0u);
}

TEST(MmuPerf, MonitorArithmetic)
{
    MmuPerf perf;
    perf.tlbMisses = 10;
    perf.walkNs = 1000; // 2700 cycles over 10 misses = 270 c/miss
    EXPECT_NEAR(perf.avgWalkCycles(), 270.0, 1.0);
    EXPECT_NEAR(perf.mmuOverhead(10000), 0.1, 1e-9);
}

TEST(PageTable, AttachedNodeAccessor)
{
    Fixture f;
    PageTable pt(f.dramFrames);
    auto *foreign = new Node();
    foreign->dev = &f.pmemDev;
    foreign->frames = &f.pmemFrames;
    foreign->frame = f.pmemFrames.alloc();
    foreign->shared = true;

    EXPECT_EQ(pt.attachedNode(0x400000, kPmdLevel), nullptr);
    pt.attach(0x400000, kPmdLevel, foreign, true);
    EXPECT_EQ(pt.attachedNode(0x400000, kPmdLevel), foreign);
    // A regular huge mapping is not an attachment.
    pt.map(0x600000, 0x40000000, kPmdLevel, pte::kWrite);
    EXPECT_EQ(pt.attachedNode(0x600000, kPmdLevel), nullptr);

    pt.detach(0x400000, kPmdLevel);
    EXPECT_EQ(pt.attachedNode(0x400000, kPmdLevel), nullptr);
    f.pmemFrames.free(foreign->frame);
    delete foreign;
}

TEST(Shootdown, CoarsenedListEscalatesViaTotalPages)
{
    // DaxVM granule unmaps pass one representative address per 512-page
    // granule; the real page count must drive the 33-page escalation,
    // or stale entries inside the granule survive in the initiator's
    // own TLB.
    Fixture f;
    ShootdownHub hub(f.cm, 1);
    Mmu mmu(f.cm);
    hub.registerMmu(0, &mmu);

    WalkResult w;
    w.present = true;
    w.paddr = 0x5000;
    w.pageShift = 12;
    mmu.tlb().insert(0x20000, 1, w); // inside the granule, NOT listed

    auto cpu = cpuOn(0);
    hub.shootdownPages(cpu, 0x1, 1, {0x0}, /*totalPages=*/512);
    EXPECT_EQ(hub.metricsRegistry().counterValue("tlb.full_flushes"), 1u);
    EXPECT_EQ(hub.metricsRegistry().counterValue("tlb.invlpg"), 0u);
    EXPECT_EQ(mmu.tlb().lookup(0x20000, 1), nullptr);
}

TEST(Shootdown, SmallTotalStillUsesInvlpg)
{
    Fixture f;
    ShootdownHub hub(f.cm, 1);
    Mmu mmu(f.cm);
    hub.registerMmu(0, &mmu);
    auto cpu = cpuOn(0);
    hub.shootdownPages(cpu, 0x1, 1, {0x1000, 0x2000}, /*totalPages=*/2);
    EXPECT_EQ(hub.metricsRegistry().counterValue("tlb.full_flushes"), 0u);
    EXPECT_EQ(hub.metricsRegistry().counterValue("tlb.invlpg"), 2u);
}
