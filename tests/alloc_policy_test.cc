/**
 * @file
 * Strategy-equivalence tests for the pluggable allocation policies
 * (docs/performance.md "Allocator strategies"): every policy must
 * produce identical *logical* state - file contents, recovery images,
 * rebuild round-trips - even though physical placement differs. Also
 * exercises the segregated pool's own consistency audit under churn.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "fs/block_alloc.h"
#include "fs/file_system.h"
#include "fs/seg_pool.h"
#include "mem/device.h"
#include "sim/rng.h"
#include "sys/system.h"

using namespace dax;
using namespace dax::fs;

namespace {

const AllocPolicy kPolicies[] = {AllocPolicy::FirstFit,
                                 AllocPolicy::Segregated};

sys::SystemConfig
policyConfig(AllocPolicy policy, Personality personality)
{
    sys::SystemConfig sc;
    sc.cores = 2;
    sc.pmemBytes = 64ULL << 20;
    sc.pmemTableBytes = 16ULL << 20;
    sc.dramBytes = 32ULL << 20;
    sc.personality = personality;
    sc.blockAllocPolicy = policy;
    return sc;
}

/**
 * A fig1a/fig6-shaped metadata workload: create files across the size
 * range with patterned content, punch deletion holes, refill, and
 * append+fsync to a long-lived log. Deterministic for a seed.
 */
void
runChurn(sys::System &system, std::vector<std::string> &paths)
{
    sim::Rng rng(2024);
    sim::Cpu cpu(nullptr, 0, 0);
    auto makeOne = [&](const std::string &path) {
        const std::uint64_t size = 4096ULL << rng.below(8);
        system.makeFile(path, size,
                        std::min<std::uint64_t>(size, 64 * 1024));
        paths.push_back(path);
    };
    for (int i = 0; i < 40; i++)
        makeOne("/churn/" + std::to_string(i));
    // Punch deletion holes, then refill so the refills land in
    // policy-dependent places.
    for (std::size_t i = 0; i < paths.size(); i += 3) {
        system.fs().unlink(cpu, paths[i]);
        paths[i] = paths.back();
        paths.pop_back();
    }
    for (int i = 0; i < 12; i++)
        makeOne("/refill/" + std::to_string(i));
    // fig6-shaped tail: append+fsync a long-lived log.
    const Ino log = system.makeFile("/log", 4096, 4096);
    paths.push_back("/log");
    std::uint8_t rec[512];
    for (int i = 0; i < 64; i++) {
        std::memset(rec, 0x40 + (i % 26), sizeof(rec));
        system.fs().write(cpu, log, system.fs().inode(log).size, rec,
                          sizeof(rec));
        system.fs().fsync(cpu, log);
    }
}

/** FNV-1a over a file's read-back bytes. */
std::uint64_t
fileHash(sys::System &system, const std::string &path)
{
    sim::Cpu cpu(nullptr, 0, 0);
    const auto ino = system.fs().lookupPath(path);
    if (!ino.has_value())
        return 0;
    const std::uint64_t size = system.fs().inode(*ino).size;
    std::vector<std::uint8_t> buf(size);
    system.fs().read(cpu, *ino, 0, buf.data(), size);
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::uint8_t b : buf) {
        h ^= b;
        h *= 1099511628211ULL;
    }
    return h ^ size;
}

using Runs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/**
 * Placement oracle for the first-fit policy: the sorted-vector
 * allocator the node-based free map replaced, with its carve passes,
 * coalescing and index-based range removal kept as they were. Only the
 * calls the differential trace makes are modelled (no prezero sink).
 */
class VectorFirstFit
{
  public:
    explicit VectorFirstFit(std::uint64_t nBlocks) : total_(nBlocks)
    {
        free_.emplace_back(0, nBlocks);
        freeBlocks_ = nBlocks;
    }

    std::vector<Extent>
    alloc(std::uint64_t count, std::uint64_t goal, std::vector<bool> *zeroed,
          bool preferHugeAligned)
    {
        std::vector<Extent> out;
        if (count == 0 || freeBlocks_ + zeroedBlocks_ < count)
            return out;
        std::uint64_t fromZeroed = std::min(zeroedBlocks_, count);
        if (fromZeroed > 0) {
            auto z = carve(zeroed_, fromZeroed, goal, zeroedBlocks_, false);
            for (const auto &e : z) {
                out.push_back(e);
                zeroed->push_back(true);
            }
            if (z.empty())
                fromZeroed = 0;
        }
        const std::uint64_t rest = count - fromZeroed;
        if (rest > 0) {
            auto f = carve(free_, rest, goal, freeBlocks_,
                           preferHugeAligned && rest >= kBlocksPerHuge);
            if (f.empty()) {
                for (const auto &e : out) {
                    insertFree(zeroed_, e);
                    zeroedBlocks_ += e.count;
                }
                out.clear();
                zeroed->clear();
                return out;
            }
            for (const auto &e : f) {
                out.push_back(e);
                zeroed->push_back(false);
            }
        }
        return out;
    }

    void
    free(const Extent &e)
    {
        insertFree(free_, e);
        freeBlocks_ += e.count;
    }

    void
    freeZeroed(const Extent &e)
    {
        insertFree(zeroed_, e);
        zeroedBlocks_ += e.count;
    }

    bool
    promoteZeroed(const Extent &e)
    {
        if (e.count == 0)
            return true;
        if (e.endBlock() > total_)
            return false;
        auto it = upperBound(free_, e.block);
        if (it == free_.begin())
            return false;
        --it;
        if (it->first + it->second < e.endBlock())
            return false;
        removeRange(free_, e.block, e.count);
        freeBlocks_ -= e.count;
        insertFree(zeroed_, e);
        zeroedBlocks_ += e.count;
        return true;
    }

    std::uint64_t
    rebuildFrom(const std::vector<Extent> &allocated)
    {
        free_.assign(1, {0, total_});
        freeBlocks_ = total_;
        zeroed_.clear();
        zeroedBlocks_ = 0;
        retired_.clear();
        retiredBlocks_ = 0;
        std::uint64_t conflicts = 0;
        for (const auto &e : allocated) {
            if (e.count == 0)
                continue;
            const std::uint64_t removed =
                removeRange(free_, e.block, e.count);
            freeBlocks_ -= removed;
            conflicts += e.count - removed;
        }
        return conflicts;
    }

    void
    rebuildRetired(const std::vector<Extent> &retired)
    {
        for (const auto &e : retired) {
            if (e.count == 0)
                continue;
            freeBlocks_ -= removeRange(free_, e.block, e.count);
            insertFree(retired_, e);
            retiredBlocks_ += e.count;
        }
    }

    Runs free_, zeroed_, retired_;
    std::uint64_t freeBlocks_ = 0;
    std::uint64_t zeroedBlocks_ = 0;
    std::uint64_t retiredBlocks_ = 0;

  private:
    static Runs::iterator
    lowerBound(Runs &m, std::uint64_t key)
    {
        return std::lower_bound(
            m.begin(), m.end(), key,
            [](const auto &r, std::uint64_t k) { return r.first < k; });
    }
    static Runs::iterator
    upperBound(Runs &m, std::uint64_t key)
    {
        return std::upper_bound(
            m.begin(), m.end(), key,
            [](std::uint64_t k, const auto &r) { return k < r.first; });
    }
    static void
    emplace(Runs &m, std::uint64_t start, std::uint64_t len)
    {
        m.insert(lowerBound(m, start), {start, len});
    }

    static void
    insertFree(Runs &m, const Extent &e)
    {
        auto it = lowerBound(m, e.block);
        if (it != m.end() && it->first == e.block)
            throw std::logic_error("double free of block extent");
        it = m.insert(it, {e.block, e.count});
        auto next = std::next(it);
        if (next != m.end() && it->first + it->second == next->first) {
            it->second += next->second;
            m.erase(next);
        }
        if (it != m.begin()) {
            auto prev = std::prev(it);
            if (prev->first + prev->second == it->first) {
                prev->second += it->second;
                m.erase(it);
            }
        }
    }

    static std::vector<Extent>
    carve(Runs &m, std::uint64_t count, std::uint64_t goal,
          std::uint64_t &pool, bool hugeAligned)
    {
        std::vector<Extent> out;
        if (count == 0 || pool < count)
            return out;
        std::uint64_t remaining = count;
        if (hugeAligned) {
            for (auto it = m.begin(); it != m.end(); ++it) {
                const auto [start, len] = *it;
                const std::uint64_t aligned =
                    (start + kBlocksPerHuge - 1) / kBlocksPerHuge
                    * kBlocksPerHuge;
                if (aligned + remaining > start + len)
                    continue;
                m.erase(it);
                if (aligned > start)
                    emplace(m, start, aligned - start);
                if (start + len > aligned + remaining)
                    emplace(m, aligned + remaining,
                            start + len - aligned - remaining);
                out.push_back({aligned, remaining});
                pool -= remaining;
                return out;
            }
        }
        auto takeFrom = [&](std::size_t i) {
            const auto [start, len] = m[i];
            const std::uint64_t take = std::min(len, remaining);
            out.push_back({start, take});
            m.erase(m.begin() + static_cast<std::ptrdiff_t>(i));
            if (len > take)
                emplace(m, start + take, len - take);
            pool -= take;
            remaining -= take;
        };
        // Pass 1: first whole fit at/after the goal, then before it.
        const auto goalIdx =
            static_cast<std::size_t>(lowerBound(m, goal) - m.begin());
        for (std::size_t pass = 0; pass < 2; pass++) {
            const std::size_t lo = pass == 0 ? goalIdx : 0;
            const std::size_t hi = pass == 0 ? m.size() : goalIdx;
            for (std::size_t i = lo; i < hi; i++) {
                if (m[i].second >= remaining) {
                    takeFrom(i);
                    return out;
                }
            }
        }
        // Pass 2: gather from the goal onward, wrapping around.
        while (remaining > 0 && !m.empty()) {
            auto it = lowerBound(m, goal);
            if (it == m.end())
                it = m.begin();
            takeFrom(static_cast<std::size_t>(it - m.begin()));
        }
        if (remaining > 0) {
            for (const auto &e : out) {
                insertFree(m, e);
                pool += e.count;
            }
            out.clear();
        }
        return out;
    }

    static std::uint64_t
    removeRange(Runs &m, std::uint64_t start, std::uint64_t count)
    {
        const std::uint64_t end = start + count;
        std::uint64_t removed = 0;
        auto i = static_cast<std::size_t>(upperBound(m, start) - m.begin());
        if (i > 0)
            --i;
        while (i < m.size()) {
            const auto [runStart, len] = m[i];
            if (runStart >= end)
                break;
            const std::uint64_t runEnd = runStart + len;
            if (runEnd <= start) {
                ++i;
                continue;
            }
            const std::uint64_t cutStart = std::max(runStart, start);
            const std::uint64_t cutEnd = std::min(runEnd, end);
            removed += cutEnd - cutStart;
            m.erase(m.begin() + static_cast<std::ptrdiff_t>(i));
            if (runStart < cutStart) {
                emplace(m, runStart, cutStart - runStart);
                ++i;
            }
            if (cutEnd < runEnd) {
                emplace(m, cutEnd, runEnd - cutEnd);
                ++i;
            }
        }
        return removed;
    }

    std::uint64_t total_;
};

Runs
runsOf(const std::vector<Extent> &extents)
{
    Runs out;
    for (const auto &e : extents)
        out.emplace_back(e.block, e.count);
    return out;
}

/** First difference between the allocator and the oracle, or "". */
std::string
stateDiff(const BlockAllocator &alloc, const VectorFirstFit &ref)
{
    const Runs freeRuns(alloc.freeMap().begin(), alloc.freeMap().end());
    if (freeRuns != ref.free_)
        return "free map differs";
    if (runsOf(alloc.zeroedExtents()) != ref.zeroed_)
        return "zeroed pool differs";
    if (runsOf(alloc.retiredExtents()) != ref.retired_)
        return "retired pool differs";
    if (alloc.freeBlocks() != ref.freeBlocks_
        || alloc.zeroedBlocks() != ref.zeroedBlocks_
        || alloc.retiredBlocks() != ref.retiredBlocks_)
        return "block counters differ";
    const auto problems = alloc.check();
    return problems.empty() ? "" : "check(): " + problems.front();
}

} // namespace

TEST(AllocPolicy, EnvOverrideParsesAndRejects)
{
    setenv("DAXVM_ALLOC", "segregated,buddy", 1);
    {
        sys::System system(
            policyConfig(AllocPolicy::FirstFit, Personality::Ext4Dax));
        EXPECT_EQ(system.fs().allocator().policy(),
                  AllocPolicy::Segregated);
        EXPECT_EQ(system.config().framePolicy, mem::FramePolicy::Buddy);
    }
    setenv("DAXVM_ALLOC", "first-fit", 1);
    {
        sys::System system(policyConfig(AllocPolicy::Segregated,
                                        Personality::Ext4Dax));
        EXPECT_EQ(system.fs().allocator().policy(),
                  AllocPolicy::FirstFit);
        EXPECT_EQ(system.config().framePolicy, mem::FramePolicy::Lifo);
    }
    setenv("DAXVM_ALLOC", "bogus", 1);
    EXPECT_THROW(sys::System system(policyConfig(
                     AllocPolicy::FirstFit, Personality::Ext4Dax)),
                 std::invalid_argument);
    unsetenv("DAXVM_ALLOC");
}

TEST(AllocPolicy, IdenticalFileContentsAcrossPolicies)
{
    unsetenv("DAXVM_ALLOC");
    for (const auto personality :
         {Personality::Ext4Dax, Personality::Nova}) {
        std::vector<std::vector<std::uint64_t>> hashes;
        for (const auto policy : kPolicies) {
            sys::System system(policyConfig(policy, personality));
            std::vector<std::string> paths;
            runChurn(system, paths);
            std::vector<std::uint64_t> h;
            for (const auto &p : paths)
                h.push_back(fileHash(system, p));
            hashes.push_back(std::move(h));
        }
        EXPECT_EQ(hashes[0], hashes[1])
            << "file contents diverged between policies";
    }
}

TEST(AllocPolicy, IdenticalRecoveryImagesAcrossPolicies)
{
    unsetenv("DAXVM_ALLOC");
    for (const auto personality :
         {Personality::Ext4Dax, Personality::Nova}) {
        std::vector<std::vector<std::uint64_t>> hashes;
        for (const auto policy : kPolicies) {
            sys::System system(policyConfig(policy, personality));
            std::vector<std::string> paths;
            runChurn(system, paths);
            system.crash();
            const auto rec = system.recover();
            EXPECT_EQ(rec.fs.conflictBlocks, 0u);
            EXPECT_TRUE(system.fs().allocator().check().empty());
            std::vector<std::uint64_t> h;
            for (const auto &p : paths)
                h.push_back(fileHash(system, p));
            hashes.push_back(std::move(h));
        }
        EXPECT_EQ(hashes[0], hashes[1])
            << "recovered contents diverged between policies";
    }
}

TEST(AllocPolicy, RebuildRoundTripsUnderBothPolicies)
{
    for (const auto policy : kPolicies) {
        BlockAllocator alloc(4096, 0, policy);
        sim::Rng rng(99);
        std::vector<Extent> held;
        for (int i = 0; i < 60; i++) {
            auto got = alloc.alloc(1 + rng.below(96),
                                   rng.below(4096));
            for (const auto &e : got)
                held.push_back(e);
        }
        for (std::size_t i = 0; i < held.size(); i += 3) {
            alloc.free(held[i]);
            held[i] = held.back();
            held.pop_back();
        }
        std::uint64_t allocated = 0;
        for (const auto &e : held)
            allocated += e.count;

        // Rebuild from the committed extents: everything else free.
        EXPECT_EQ(alloc.rebuildFrom(held), 0u);
        EXPECT_EQ(alloc.freeBlocks(), 4096u - allocated);
        EXPECT_TRUE(alloc.check().empty());

        // The free view must be exactly the complement of `held`.
        for (const auto &e : held) {
            auto again = alloc.alloc(e.count, e.block);
            bool overlaps = false;
            for (const auto &g : again)
                overlaps = overlaps
                           || (g.block < e.block + e.count
                               && e.block < g.block + g.count);
            EXPECT_FALSE(overlaps)
                << "rebuild left a committed extent allocatable";
            for (const auto &g : again)
                alloc.free(g);
        }

        // Retired extents leave the population permanently.
        const Extent bad{held[0].block, held[0].count};
        alloc.rebuildRetired({bad});
        EXPECT_EQ(alloc.retiredBlocks(), bad.count);
        EXPECT_TRUE(alloc.check().empty());

        // Conflicting images are detected under every policy.
        BlockAllocator dirty(1024, 0, policy);
        const Extent x{0, 80};
        const Extent y{40, 80};
        EXPECT_EQ(dirty.rebuildFrom({x, y}), 40u);
        EXPECT_TRUE(dirty.check().empty());
    }
}

TEST(AllocPolicy, SegregatedPoolAuditStaysCleanUnderChurn)
{
    BlockAllocator alloc(1ULL << 15, 0, AllocPolicy::Segregated);
    sim::Rng rng(7);
    std::vector<Extent> held;
    for (int op = 0; op < 20000; op++) {
        const bool doAlloc =
            held.empty() || (alloc.freeBlocks() > 0 && rng.below(2));
        if (doAlloc) {
            auto got =
                alloc.alloc(1 + rng.below(64), rng.below(1ULL << 15),
                            nullptr, rng.below(8) == 0);
            for (const auto &e : got)
                held.push_back(e);
        } else {
            const std::uint64_t i = rng.below(held.size());
            alloc.free(held[i]);
            held[i] = held.back();
            held.pop_back();
        }
        if (op % 4000 == 0) {
            ASSERT_TRUE(alloc.check().empty()) << "op " << op;
        }
    }
    ASSERT_TRUE(alloc.check().empty());
    for (const auto &e : held)
        alloc.free(e);
    EXPECT_EQ(alloc.freeBlocks(), 1ULL << 15);
    EXPECT_EQ(alloc.freeExtents(), 1u);
    EXPECT_EQ(alloc.largestFreeExtent(), 1ULL << 15);
    EXPECT_TRUE(alloc.check().empty());
}

TEST(AllocPolicy, SegregatedServesGoalDirectedAndHugeCarves)
{
    BlockAllocator alloc(8192, 0, AllocPolicy::Segregated);
    alloc.alloc(3, 0); // misalign the frontier
    auto huge = alloc.alloc(kBlocksPerHuge, 0, nullptr,
                            /*preferHugeAligned=*/true);
    ASSERT_EQ(huge.size(), 1u);
    EXPECT_EQ(huge[0].block % kBlocksPerHuge, 0u);

    // Fragment, then gather a request larger than any single run.
    std::vector<Extent> held;
    for (int i = 0; i < 20; i++)
        held.push_back(alloc.alloc(100, 0)[0]);
    for (std::size_t i = 0; i < held.size(); i += 2)
        alloc.free(held[i]);
    const std::uint64_t before = alloc.freeBlocks();
    auto gathered = alloc.alloc(before, 0);
    std::uint64_t total = 0;
    for (const auto &e : gathered)
        total += e.count;
    EXPECT_EQ(total, before);
    EXPECT_EQ(alloc.freeBlocks(), 0u);
}

TEST(AllocPolicy, FirstFitPlacementMatchesSortedVectorReference)
{
    // One seeded trace of >=100K calls through every first-fit entry
    // point; after each call the allocator must agree with the
    // sorted-vector oracle on the returned extents and on every pool.
    constexpr std::uint64_t kBlocks = 1ULL << 14;
    BlockAllocator alloc(kBlocks, 0, AllocPolicy::FirstFit);
    VectorFirstFit ref(kBlocks);
    sim::Rng rng(1212);
    std::vector<Extent> held;    // allocated and owned by the trace
    std::vector<Extent> retired; // durable retired set
    std::uint64_t calls = 0;
    std::uint64_t zeroedHits = 0;
    std::uint64_t hugePlaced = 0;
    std::uint64_t promotedYes = 0;
    std::uint64_t promotedNo = 0;

    // Hand back a held extent, sometimes only its head.
    auto takeHeld = [&]() {
        const std::uint64_t i = rng.below(held.size());
        Extent e = held[i];
        if (e.count > 1 && rng.below(8) == 0) {
            const std::uint64_t cut = 1 + rng.below(e.count - 1);
            held[i] = {e.block + cut, e.count - cut};
            e.count = cut;
        } else {
            held[i] = held.back();
            held.pop_back();
        }
        return e;
    };
    // A piece of some free run; removing it splits off a head, a tail
    // or both.
    auto freeSubRange = [&]() {
        const auto [start, len] = ref.free_[rng.below(ref.free_.size())];
        const std::uint64_t off = rng.below(len);
        return Extent{start + off,
                      1 + rng.below(std::min<std::uint64_t>(len - off, 64))};
    };

    while (calls < 120000) {
        const char *what = "";
        const std::uint64_t avail = alloc.freeBlocks() + alloc.zeroedBlocks();
        const std::uint64_t dice = rng.below(100);
        if (calls % 5000 == 4999) {
            // Crash recovery: retire one held extent and one free
            // range, rebuild from the held set, re-apply retirements.
            if (!held.empty())
                retired.push_back(takeHeld());
            if (!ref.free_.empty())
                retired.push_back(freeSubRange());
            ASSERT_EQ(alloc.rebuildFrom(held), ref.rebuildFrom(held));
            calls++;
            ASSERT_EQ(stateDiff(alloc, ref), "")
                << "call " << calls << " (rebuildFrom)";
            what = "rebuildRetired";
            alloc.rebuildRetired(retired);
            ref.rebuildRetired(retired);
        } else if (held.empty() || avail > kBlocks * 3 / 4
                   || (avail > kBlocks / 2 && dice < 45)) {
            what = "alloc";
            const bool huge = rng.below(10) == 0;
            const std::uint64_t count =
                huge ? kBlocksPerHuge + rng.below(kBlocksPerHuge)
                     : 1 + rng.below(64);
            // Small requests aim at the low half, so huge-aligned
            // windows keep reopening above it.
            const std::uint64_t goal = rng.below(huge ? kBlocks : kBlocks / 2);
            std::vector<bool> zGot;
            std::vector<bool> zWant;
            const auto got = alloc.alloc(count, goal, &zGot, huge);
            const auto want = ref.alloc(count, goal, &zWant, huge);
            ASSERT_EQ(got, want) << "call " << calls;
            ASSERT_EQ(zGot, zWant) << "call " << calls;
            for (std::size_t i = 0; i < got.size(); i++) {
                held.push_back(got[i]);
                zeroedHits += zGot[i] ? 1 : 0;
                hugePlaced += !zGot[i] && huge
                              && got[i].block % kBlocksPerHuge == 0
                              && got[i].count >= kBlocksPerHuge;
            }
        } else if (dice < 80) {
            what = "free";
            const Extent e = takeHeld();
            alloc.free(e);
            ref.free(e);
        } else if (dice < 90) {
            what = "freeZeroed";
            const Extent e = takeHeld();
            alloc.freeZeroed(e);
            ref.freeZeroed(e);
        } else {
            what = "promoteZeroed";
            const Extent e = rng.below(2) == 0 && !ref.free_.empty()
                ? freeSubRange()
                : Extent{rng.below(kBlocks), 1 + rng.below(64)};
            const bool ok = alloc.promoteZeroed(e);
            ASSERT_EQ(ok, ref.promoteZeroed(e)) << "call " << calls;
            (ok ? promotedYes : promotedNo)++;
        }
        calls++;
        ASSERT_EQ(stateDiff(alloc, ref), "")
            << "call " << calls << " (" << what << ")";
    }
    // The trace must actually reach every path it claims to cover.
    EXPECT_GT(zeroedHits, 1000u);
    EXPECT_GT(hugePlaced, 100u);
    EXPECT_GT(promotedYes, 1000u);
    EXPECT_GT(promotedNo, 1000u);
    EXPECT_GT(retired.size(), 40u);
}
