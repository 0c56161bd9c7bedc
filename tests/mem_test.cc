/**
 * @file
 * Unit tests for memory devices and frame allocation.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "mem/device.h"
#include "mem/frame_alloc.h"
#include "sim/engine.h"
#include "sim/fault.h"

using namespace dax;
using namespace dax::mem;

namespace {

sim::CostModel cm;

sim::Cpu
scratchCpu()
{
    return sim::Cpu(nullptr, 0, 0);
}

} // namespace

TEST(Device, FullBackingRoundTripsBytes)
{
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::Full);
    const char msg[] = "persistent";
    dev.store(4096, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    dev.fetch(4096, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST(Device, SparseBackingRoundTripsBytes)
{
    Device dev(Kind::Pmem, 1ULL << 30, cm, Backing::Sparse);
    const char msg[] = "sparse-page";
    // Cross a page boundary on purpose.
    dev.store(8190, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    dev.fetch(8190, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
    EXPECT_EQ(dev.sparsePages(), 2u);
}

TEST(Device, SparseUntouchedReadsZero)
{
    Device dev(Kind::Pmem, 1ULL << 30, cm, Backing::Sparse);
    std::uint8_t buf[64];
    std::memset(buf, 0xff, sizeof(buf));
    dev.fetch(123456789 / 64 * 64, buf, sizeof(buf));
    for (const auto b : buf)
        ASSERT_EQ(b, 0);
    EXPECT_TRUE(dev.isZero(0, 1 << 20));
}

TEST(Device, ZeroReclaimsWholeSparsePages)
{
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::Sparse);
    const std::uint64_t v = 42;
    dev.store(4096, &v, sizeof(v));
    EXPECT_FALSE(dev.isZero(4096, 4096));
    dev.zero(4096, 4096);
    EXPECT_TRUE(dev.isZero(4096, 4096));
    EXPECT_EQ(dev.sparsePages(), 0u);
}

TEST(Device, WordAccessors)
{
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::Sparse);
    dev.storeWord(512, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(dev.loadWord(512), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(dev.loadWord(520), 0u);
}

TEST(Device, OutOfRangeThrows)
{
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::Sparse);
    std::uint8_t b = 0;
    EXPECT_THROW(dev.fetch((1 << 20), &b, 1), std::out_of_range);
    EXPECT_THROW(dev.store((1 << 20) - 1, &b, 2), std::out_of_range);
}

TEST(Device, SparseWriteStraddlingPagesKeepsEveryByte)
{
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::Sparse);
    // A write spanning three host pages, starting and ending mid-page.
    std::uint8_t buf[2 * kPageSize + 100];
    for (std::size_t i = 0; i < sizeof(buf); i++)
        buf[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const Paddr addr = kPageSize - 50;
    dev.store(addr, buf, sizeof(buf));
    // [kPageSize-50, 3*kPageSize+50): pages 0 through 3 materialize.
    EXPECT_EQ(dev.sparsePages(), 4u);
    std::uint8_t out[sizeof(buf)] = {};
    dev.fetch(addr, out, sizeof(out));
    EXPECT_EQ(std::memcmp(buf, out, sizeof(buf)), 0);
    // Bytes just outside the written range stayed zero.
    std::uint8_t edge = 0xff;
    dev.fetch(addr - 1, &edge, 1);
    EXPECT_EQ(edge, 0);
    dev.fetch(addr + sizeof(buf), &edge, 1);
    EXPECT_EQ(edge, 0);
}

TEST(Device, IsZeroAcrossMaterializedAndUnmaterializedPages)
{
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::Sparse);
    // Page 1: materialized with nonzero content. Page 3: materialized
    // but all-zero (stored zeros). Pages 0, 2, 4: never touched.
    const std::uint8_t nz = 5;
    dev.store(kPageSize + 17, &nz, 1);
    const std::uint8_t z = 0;
    dev.store(3 * kPageSize + 17, &z, 1);
    EXPECT_GE(dev.sparsePages(), 1u);

    EXPECT_FALSE(dev.isZero(0, 5 * kPageSize));
    EXPECT_TRUE(dev.isZero(0, kPageSize));
    EXPECT_FALSE(dev.isZero(kPageSize, kPageSize));
    EXPECT_TRUE(dev.isZero(2 * kPageSize, 3 * kPageSize));

    dev.zero(kPageSize + 17, 1);
    EXPECT_TRUE(dev.isZero(0, 5 * kPageSize));
}

TEST(Device, CheckRangeRejectsOverflowingRanges)
{
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::Sparse);
    std::uint8_t b = 0;
    // addr + bytes would wrap around 2^64: must be rejected, not
    // silently accepted by a naive addr + bytes <= capacity check.
    const std::uint64_t huge = ~0ULL - 32;
    EXPECT_THROW(dev.fetch(64, &b, huge), std::out_of_range);
    EXPECT_THROW(dev.store(64, &b, huge), std::out_of_range);
    EXPECT_THROW(dev.zero(64, huge), std::out_of_range);
    EXPECT_THROW((void)dev.isZero(64, huge), std::out_of_range);
    EXPECT_THROW(dev.flushRange(64, huge), std::out_of_range);
    // Degenerate but legal: an empty range at the very end.
    dev.fetch(1 << 20, &b, 0);
    // One past the end is out.
    EXPECT_THROW(dev.fetch((1 << 20) + 1, &b, 0), std::out_of_range);
}

TEST(Device, PmemLoadLatencyExceedsDram)
{
    Device pmem(Kind::Pmem, 1 << 20, cm, Backing::None);
    Device dram(Kind::Dram, 1 << 20, cm, Backing::None);
    EXPECT_GT(pmem.loadLatency(), dram.loadLatency());
}

TEST(Device, SequentialReadChargesBandwidth)
{
    Device dev(Kind::Pmem, 16 << 20, cm, Backing::None);
    auto cpu = scratchCpu();
    const sim::Time t =
        dev.read(cpu, 0, 6 * 1000 * 1000, Pattern::Seq);
    // 6 MB at pmemReadBwCore (6 GB/s) = 1 ms.
    EXPECT_NEAR(static_cast<double>(t), 1e6, 1e4);
}

TEST(Device, RandomReadAddsLatency)
{
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::None);
    auto seqCpu = scratchCpu();
    auto randCpu = scratchCpu();
    const sim::Time seq = dev.read(seqCpu, 0, 1024, Pattern::Seq);
    const sim::Time rand = dev.read(randCpu, 0, 1024, Pattern::Rand);
    EXPECT_EQ(rand, seq + cm.pmemLoadLat);
}

TEST(Device, NtStoreFasterThanClwbPath)
{
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::None);
    auto a = scratchCpu();
    auto b = scratchCpu();
    const sim::Time nt =
        dev.write(a, 0, 1 << 16, WriteMode::NtStore, Pattern::Seq);
    const sim::Time clwb =
        dev.write(b, 0, 1 << 16, WriteMode::CachedFlush, Pattern::Seq);
    EXPECT_LT(nt, clwb);
    EXPECT_NEAR(static_cast<double>(clwb) / static_cast<double>(nt), 2.0,
                0.1);
}

TEST(Device, KernelCopySlowerThanUser)
{
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::None);
    auto a = scratchCpu();
    auto b = scratchCpu();
    const sim::Time user = dev.read(a, 0, 1 << 16, Pattern::Seq);
    const sim::Time kernel = dev.readKernel(b, 0, 1 << 16, Pattern::Seq);
    EXPECT_GT(kernel, user);
}

TEST(Device, WriteBandwidthBelowReadBandwidth)
{
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::None);
    auto a = scratchCpu();
    auto b = scratchCpu();
    const sim::Time rd = dev.read(a, 0, 1 << 20, Pattern::Seq);
    const sim::Time wr =
        dev.write(b, 0, 1 << 20, WriteMode::NtStore, Pattern::Seq);
    EXPECT_GT(wr, rd);
}

// ---------------------------------------------------------------------
// Media errors: poisoned lines and machine checks
// ---------------------------------------------------------------------

TEST(MediaError, PoisonedLineRaisesOnReadsOnly)
{
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::Sparse);
    const std::uint64_t v = 7;
    dev.store(4096, &v, sizeof(v));
    dev.poisonLine(4096 + 8); // anywhere inside the line poisons it
    EXPECT_TRUE(dev.isPoisoned(4096, 64));

    std::uint64_t got = 0;
    EXPECT_THROW(dev.fetch(4096, &got, sizeof(got)),
                 MachineCheckException);
    auto cpu = scratchCpu();
    EXPECT_THROW(dev.read(cpu, 4096, 64, Pattern::Seq),
                 MachineCheckException);
    EXPECT_THROW(dev.readKernel(cpu, 4096, 64, Pattern::Seq),
                 MachineCheckException);
    EXPECT_EQ(dev.mceRaised(), 3u);

    // Writes never consult poison (a dead line accepts stores; it
    // stays dead until repaired)...
    dev.store(4096, &v, sizeof(v), WriteMode::NtStore);
    auto wcpu = scratchCpu();
    dev.write(wcpu, 4096, 64, WriteMode::NtStore, Pattern::Seq);
    EXPECT_TRUE(dev.isPoisoned(4096, 64));
    // ...and the scrub view never raises either.
    (void)dev.isZero(0, 1 << 20);

    // Neighbouring lines are unaffected.
    dev.fetch(4096 + 64, &got, sizeof(got));

    // Repair heals the line permanently.
    dev.clearPoison(4096, 64);
    EXPECT_FALSE(dev.isPoisoned(4096, 64));
    dev.fetch(4096, &got, sizeof(got));
    EXPECT_EQ(got, v);
}

TEST(MediaError, MachineCheckCarriesLineAddress)
{
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::Sparse);
    const Paddr line = 8192 + 3 * 64;
    dev.poisonLine(line + 17);
    std::uint8_t buf[256];
    try {
        // The read starts two lines early: the fault address must be
        // the poisoned line, not the access base.
        dev.fetch(8192 + 64, buf, sizeof(buf));
        FAIL() << "poisoned read did not raise";
    } catch (const MachineCheckException &mc) {
        EXPECT_EQ(mc.addr(), line);
    }
}

TEST(MediaError, BackgroundUesAreSeedDeterministic)
{
    sim::MediaSpec spec;
    spec.seed = 42;
    spec.backgroundRate = 0.01;
    Device a(Kind::Pmem, 1 << 20, cm, Backing::Sparse);
    Device b(Kind::Pmem, 1 << 20, cm, Backing::Sparse);
    a.setMedia(&spec);
    b.setMedia(&spec);

    std::uint64_t bad = 0;
    for (Paddr addr = 0; addr < (1 << 20); addr += 64) {
        ASSERT_EQ(a.isPoisoned(addr, 64), b.isPoisoned(addr, 64));
        if (a.isPoisoned(addr, 64))
            bad++;
    }
    // ~1% of 16384 lines; loose bounds keep the test seed-robust.
    EXPECT_GT(bad, 50u);
    EXPECT_LT(bad, 500u);

    // A different seed draws a different bad-line set.
    sim::MediaSpec other = spec;
    other.seed = 43;
    b.setMedia(&other);
    bool differs = false;
    for (Paddr addr = 0; addr < (1 << 20) && !differs; addr += 64)
        differs = a.isPoisoned(addr, 64) != b.isPoisoned(addr, 64);
    EXPECT_TRUE(differs);
}

TEST(MediaError, WearOutPoisonsHotLines)
{
    sim::MediaSpec spec;
    spec.seed = 7;
    spec.wearScale = 8; // tiny write budgets: lines die fast
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::Sparse);
    dev.setMedia(&spec);

    // Hammer one line with durable stores until its budget runs out.
    const std::uint64_t v = 1;
    bool died = false;
    for (int i = 0; i < 10000 && !died; i++) {
        dev.store(4096, &v, sizeof(v), WriteMode::NtStore);
        died = dev.isPoisoned(4096, 64);
    }
    ASSERT_TRUE(died);
    std::uint64_t got = 0;
    EXPECT_THROW(dev.fetch(4096, &got, sizeof(got)),
                 MachineCheckException);
    // A cold line is still healthy.
    dev.fetch(64 * 1024, &got, sizeof(got));
}

TEST(MediaError, CrashPoisonsTornNtStore)
{
    sim::MediaSpec spec;
    spec.poisonTornStore = true;
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::Sparse);
    dev.setMedia(&spec);

    // The crash plan fires from the durable-store boundary: the store
    // it interrupts never completes its ECC word.
    sim::FaultPlan plan =
        sim::FaultPlan::atKind(sim::FaultEvent::DurableStore, 0);
    dev.setFaultPlan(&plan);
    std::uint8_t line[64];
    std::memset(line, 0xab, sizeof(line));
    EXPECT_THROW(dev.store(4096, line, sizeof(line), WriteMode::NtStore),
                 sim::CrashException);
    dev.setFaultPlan(nullptr);

    dev.crash();
    EXPECT_TRUE(dev.isPoisoned(4096, 64));
    std::uint64_t got = 0;
    EXPECT_THROW(dev.fetch(4096, &got, sizeof(got)),
                 MachineCheckException);
}

TEST(MediaError, CompletedStoreIsNotTorn)
{
    sim::MediaSpec spec;
    spec.poisonTornStore = true;
    Device dev(Kind::Pmem, 1 << 20, cm, Backing::Sparse);
    dev.setMedia(&spec);

    // No crash mid-store: completing the store clears the torn
    // candidate, so a later power cut poisons nothing.
    const std::uint64_t v = 5;
    dev.store(4096, &v, sizeof(v), WriteMode::NtStore);
    dev.crash();
    EXPECT_FALSE(dev.isPoisoned(4096, 64));
    std::uint64_t got = 0;
    dev.fetch(4096, &got, sizeof(got));
    EXPECT_EQ(got, v);
}

TEST(FrameAllocator, AllocZeroesAndRecycles)
{
    Device dev(Kind::Dram, 1 << 20, cm, Backing::Sparse);
    FrameAllocator alloc(dev, 0, 1 << 20);
    const Paddr a = alloc.alloc();
    dev.storeWord(a, 99);
    alloc.free(a);
    const Paddr b = alloc.alloc();
    EXPECT_EQ(b, a); // LIFO recycling
    EXPECT_EQ(dev.loadWord(b), 0u); // re-zeroed
}

TEST(FrameAllocator, ExhaustionThrows)
{
    Device dev(Kind::Dram, 4 * kPageSize, cm, Backing::Sparse);
    FrameAllocator alloc(dev, 0, 4 * kPageSize);
    for (int i = 0; i < 4; i++)
        alloc.alloc();
    EXPECT_THROW(alloc.alloc(), std::bad_alloc);
}

TEST(FrameAllocator, TracksAllocatedCount)
{
    Device dev(Kind::Dram, 1 << 20, cm, Backing::Sparse);
    FrameAllocator alloc(dev, 0, 1 << 20);
    EXPECT_EQ(alloc.allocated(), 0u);
    const Paddr a = alloc.alloc();
    const Paddr b = alloc.alloc();
    EXPECT_NE(a, b);
    EXPECT_EQ(alloc.allocated(), 2u);
    alloc.free(a);
    EXPECT_EQ(alloc.allocated(), 1u);
}

TEST(FrameAllocator, RejectsForeignFrees)
{
    Device dev(Kind::Dram, 1 << 20, cm, Backing::Sparse);
    FrameAllocator alloc(dev, 4096, 1 << 19);
    EXPECT_THROW(alloc.free(0), std::invalid_argument);
    EXPECT_THROW(alloc.free(4097), std::invalid_argument);
}

TEST(FrameAllocator, DoubleFreeThrows)
{
    // Regression: the freelist used to accept the same frame twice and
    // later hand it out to two owners. A per-frame allocation bitmap
    // now rejects the second free.
    Device dev(Kind::Dram, 1 << 20, cm, Backing::Sparse);
    FrameAllocator alloc(dev, 0, 1 << 20);
    const Paddr a = alloc.alloc();
    alloc.free(a);
    EXPECT_THROW(alloc.free(a), std::logic_error);
    // Never-allocated frames are equally rejected.
    EXPECT_THROW(alloc.free(a + kPageSize), std::logic_error);
    // The frame is still usable after the failed double free.
    EXPECT_EQ(alloc.alloc(), a);
    EXPECT_EQ(alloc.allocated(), 1u);
}
