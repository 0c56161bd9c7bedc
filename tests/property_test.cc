/**
 * @file
 * Property-based (parameterized) tests: randomized operation sequences
 * checked against simple reference implementations, and invariant
 * sweeps across file sizes and interfaces.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "fs/block_alloc.h"
#include "fs/interval.h"
#include "sim/busy_intervals.h"
#include "sim/rng.h"
#include "sys/system.h"
#include "workloads/common.h"

using namespace dax;

// ---------------------------------------------------------------------
// IntervalMap vs a bitset reference
// ---------------------------------------------------------------------

class IntervalProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(IntervalProperty, MatchesBitsetReference)
{
    sim::Rng rng(GetParam());
    fs::IntervalMap map;
    std::vector<bool> ref(4096, false);

    for (int op = 0; op < 2000; op++) {
        const std::uint64_t start = rng.below(4000);
        const std::uint64_t count = 1 + rng.below(96);
        if (rng.below(2) == 0) {
            fs::intervalInsert(map, start, count);
            for (std::uint64_t i = start; i < start + count; i++)
                ref[i] = true;
        } else {
            const std::uint64_t removed =
                fs::intervalErase(map, start, count);
            std::uint64_t expect = 0;
            for (std::uint64_t i = start; i < start + count; i++) {
                if (ref[i]) {
                    expect++;
                    ref[i] = false;
                }
            }
            ASSERT_EQ(removed, expect) << "op " << op;
        }
    }

    // Final state equivalence.
    std::uint64_t total = 0;
    for (const auto b : ref)
        total += b ? 1 : 0;
    ASSERT_EQ(fs::intervalTotal(map), total);
    for (std::uint64_t i = 0; i < ref.size(); i++) {
        ASSERT_EQ(fs::intervalOverlaps(map, i, 1), ref[i])
            << "unit " << i;
    }
    // Intervals are canonical: disjoint and coalesced.
    bool first = true;
    std::uint64_t prevEnd = 0;
    for (const auto &[s, c] : map) {
        if (!first) {
            ASSERT_GT(s, prevEnd) << "not coalesced/disjoint";
        }
        first = false;
        prevEnd = s + c;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------
// BusyIntervals: reservations never overlap recorded busy periods
// ---------------------------------------------------------------------

class BusyIntervalsProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BusyIntervalsProperty, ReservedSlotsNeverOverlap)
{
    sim::Rng rng(GetParam());
    sim::BusyIntervals busy;
    std::vector<std::pair<sim::Time, sim::Time>> recorded;

    for (int op = 0; op < 500; op++) {
        const sim::Time t = rng.below(100000);
        const sim::Time d = 1 + rng.below(500);
        const sim::Time start = busy.reserveSlot(t, d);
        ASSERT_GE(start, t);
        for (const auto &[a, b] : recorded) {
            ASSERT_TRUE(start + d <= a || start >= b)
                << "slot [" << start << "," << start + d
                << ") overlaps [" << a << "," << b << ")";
        }
        busy.insert(start, start + d);
        recorded.emplace_back(start, start + d);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusyIntervalsProperty,
                         ::testing::Values(7, 11, 19, 23, 42));

// ---------------------------------------------------------------------
// Block allocator conservation under random churn
// ---------------------------------------------------------------------

class AllocatorProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AllocatorProperty, ConservesBlocksUnderChurn)
{
    sim::Rng rng(GetParam());
    const std::uint64_t total = 16384;
    fs::BlockAllocator alloc(total, 0);
    std::vector<fs::Extent> held;
    std::uint64_t heldBlocks = 0;

    for (int op = 0; op < 3000; op++) {
        if (rng.below(2) == 0 || held.empty()) {
            const std::uint64_t want = 1 + rng.below(512);
            auto got = alloc.alloc(want, rng.below(total));
            std::uint64_t gotBlocks = 0;
            for (const auto &e : got) {
                gotBlocks += e.count;
                held.push_back(e);
            }
            if (!got.empty()) {
                ASSERT_EQ(gotBlocks, want);
            }
            heldBlocks += gotBlocks;
        } else {
            const std::uint64_t idx = rng.below(held.size());
            heldBlocks -= held[idx].count;
            alloc.free(held[idx]);
            held[idx] = held.back();
            held.pop_back();
        }
        ASSERT_EQ(alloc.freeBlocks() + alloc.zeroedBlocks() + heldBlocks,
                  total)
            << "block conservation violated at op " << op;
    }

    // Free everything: the map must coalesce back to one extent.
    for (const auto &e : held)
        alloc.free(e);
    EXPECT_EQ(alloc.freeBlocks(), total);
    EXPECT_EQ(alloc.freeExtents(), 1u);
    EXPECT_EQ(alloc.largestFreeExtent(), total);
    EXPECT_TRUE(alloc.check().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperty,
                         ::testing::Values(3, 9, 27, 81));

// ---------------------------------------------------------------------
// Data integrity across interfaces and file sizes
// ---------------------------------------------------------------------

struct IntegrityParam
{
    std::uint64_t fileBytes;
    wl::Interface interface;
};

class IntegritySweep : public ::testing::TestWithParam<IntegrityParam>
{
};

TEST_P(IntegritySweep, EveryInterfaceReadsIdenticalBytes)
{
    const auto param = GetParam();
    sys::SystemConfig config;
    config.cores = 2;
    config.pmemBytes = 512ULL << 20;
    config.pmemTableBytes = 64ULL << 20;
    config.dramBytes = 256ULL << 20;
    sys::System system(config);

    const fs::Ino ino =
        system.makeFile("/f", param.fileBytes, param.fileBytes);
    auto as = system.newProcess();
    sim::Cpu cpu(nullptr, 0, 0);

    std::vector<std::uint8_t> out(param.fileBytes, 0);
    if (param.interface == wl::Interface::Read) {
        ASSERT_EQ(system.fs().read(cpu, ino, 0, out.data(), out.size()),
                  out.size());
    } else {
        wl::AccessOptions access;
        access.interface = param.interface;
        const std::uint64_t va = wl::mapFile(
            cpu, system, *as, ino, 0, param.fileBytes, false, access);
        ASSERT_NE(va, 0u);
        as->memRead(cpu, va, out.size(), mem::Pattern::Seq, out.data());
        wl::unmapFile(cpu, system, *as, va, param.fileBytes, access);
    }
    for (std::uint64_t i = 0; i < out.size();
         i += std::max<std::uint64_t>(1, out.size() / 257)) {
        ASSERT_EQ(out[i], sys::System::patternByte(ino, i))
            << "offset " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndInterfaces, IntegritySweep,
    ::testing::Values(
        IntegrityParam{1024, wl::Interface::Read},
        IntegrityParam{1024, wl::Interface::Mmap},
        IntegrityParam{1024, wl::Interface::DaxVm},
        IntegrityParam{32768, wl::Interface::Read},
        IntegrityParam{32768, wl::Interface::Mmap},
        IntegrityParam{32768, wl::Interface::MmapPopulate},
        IntegrityParam{32768, wl::Interface::DaxVm},
        IntegrityParam{1 << 20, wl::Interface::Mmap},
        IntegrityParam{1 << 20, wl::Interface::DaxVm},
        IntegrityParam{(4 << 20) + 4096, wl::Interface::Mmap},
        IntegrityParam{(4 << 20) + 4096, wl::Interface::DaxVm}));

// ---------------------------------------------------------------------
// DaxVM invariants across file sizes
// ---------------------------------------------------------------------

class DaxVmSizeSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DaxVmSizeSweep, NoFaultsAndBoundedAttachCost)
{
    const std::uint64_t bytes = GetParam();
    sys::SystemConfig config;
    config.cores = 2;
    config.pmemBytes = 2ULL << 30;
    config.pmemTableBytes = 256ULL << 20;
    config.dramBytes = 512ULL << 20;
    sys::System system(config);
    const fs::Ino ino = system.makeFile("/f", bytes);
    auto as = system.newProcess();
    sim::Cpu cpu(nullptr, 0, 0);

    const sim::Time before = cpu.now();
    const std::uint64_t va =
        system.dax()->mmap(cpu, *as, ino, 0, bytes, false, 0);
    ASSERT_NE(va, 0u);
    const sim::Time mapCost = cpu.now() - before;

    as->memRead(cpu, va, bytes, mem::Pattern::Seq);
    EXPECT_EQ(system.metrics().counterValue("vm.faults"), 0u)
        << "daxvm mappings must never fault on reads";

    // Attachment cost is per 2 MB granule (or better), never per page.
    const std::uint64_t granules =
        (bytes + mem::kHugePageSize - 1) / mem::kHugePageSize;
    EXPECT_LT(mapCost, 2000 + granules * 1500)
        << "attach cost grew faster than granules";
}

INSTANTIATE_TEST_SUITE_P(Sizes, DaxVmSizeSweep,
                         ::testing::Values(4096, 65536, 1 << 20,
                                           2 << 20, 16 << 20, 64 << 20,
                                           256 << 20));

// ---------------------------------------------------------------------
// TLB vs reference map under random churn
// ---------------------------------------------------------------------

class TlbProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TlbProperty, NeverReturnsStaleOrWrongTranslation)
{
    sim::Rng rng(GetParam());
    arch::Tlb tlb(64, 4, 8);
    // Reference: what is *allowed* to be cached (va -> pa).
    std::map<std::uint64_t, std::uint64_t> valid;

    for (int op = 0; op < 5000; op++) {
        const std::uint64_t page = rng.below(256);
        const std::uint64_t va = page << 12;
        switch (rng.below(3)) {
          case 0: {
            arch::WalkResult w;
            w.present = true;
            w.paddr = (page * 7 + 13) << 12;
            w.pageShift = 12;
            w.writable = true;
            tlb.insert(va, 1, w);
            valid[va] = w.paddr;
            break;
          }
          case 1:
            tlb.invalidatePage(va, 1);
            valid.erase(va);
            break;
          default: {
            const auto *e = tlb.lookup(va, 1);
            if (e != nullptr) {
                auto it = valid.find(va);
                ASSERT_NE(it, valid.end())
                    << "stale TLB entry for va " << va;
                ASSERT_EQ(e->pbase, it->second);
            }
            break;
          }
        }
    }
    tlb.flushAsid(1);
    for (const auto &[va, pa] : valid) {
        (void)pa;
        ASSERT_EQ(tlb.lookup(va, 1), nullptr);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbProperty,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------
// Zipf skew sweep
// ---------------------------------------------------------------------

class ZipfProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfProperty, MassConcentratesWithTheta)
{
    sim::Rng rng(55);
    sim::Zipf zipf(10000, GetParam());
    std::uint64_t top = 0;
    const int n = 20000;
    for (int i = 0; i < n; i++) {
        if (zipf.next(rng) < 1000)
            top++;
    }
    // More skew than uniform in every configuration.
    EXPECT_GT(top, n / 10 * 2);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfProperty,
                         ::testing::Values(0.5, 0.8, 0.99));
