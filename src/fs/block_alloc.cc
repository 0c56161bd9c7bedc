/**
 * @file
 * BlockAllocator implementation.
 */
#include "fs/block_alloc.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <stdexcept>

namespace dax::fs {

BlockAllocator::BlockAllocator(std::uint64_t nBlocks, std::uint64_t baseAddr)
    : totalBlocks_(nBlocks), baseAddr_(baseAddr)
{
    if (nBlocks == 0)
        throw std::invalid_argument("allocator needs blocks");
    free_.runs.emplace(0, nBlocks);
    free_.blocks = nBlocks;
}

void
BlockAllocator::insertFree(Pool &pool, const Extent &extent)
{
    ExtentMap &map = pool.runs;
    auto [it, inserted] = map.emplace(extent.block, extent.count);
    if (!inserted)
        throw std::logic_error("double free of block extent");
    pool.blocks += extent.count;

    // Coalesce with successor.
    auto next = std::next(it);
    if (next != map.end() && it->first + it->second == next->first) {
        it->second += next->second;
        map.erase(next);
    }
    // Coalesce with predecessor.
    if (it != map.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            map.erase(it);
            it = prev;
        }
    }
    // The merged run may be the first at least 2^c long for each
    // class c it spans.
    for (int c = std::bit_width(it->second) - 1;
         c >= 0 && pool.hint[c] > it->first; c--)
        pool.hint[c] = it->first;
}

void
BlockAllocator::raiseHint(Pool &pool, int cls, std::uint64_t longest,
                          std::uint64_t to)
{
    // Runs below hint[cls] are shorter than 2^cls and the passed-over
    // ones no longer than longest: both are shorter than 2^c from
    // c = max(cls, bit_width(longest)) up.
    for (int c = std::max(cls, static_cast<int>(std::bit_width(longest)));
         c < static_cast<int>(pool.hint.size()) && pool.hint[c] < to; c++)
        pool.hint[c] = to;
}

std::vector<Extent>
BlockAllocator::carve(Pool &pool, std::uint64_t count, std::uint64_t goal,
                      bool hugeAligned)
{
    std::vector<Extent> out;
    if (count == 0 || pool.blocks < count)
        return out;

    ExtentMap &map = pool.runs;
    std::uint64_t remaining = count;
    // Every run starting below hint[cls] is shorter than
    // 2^cls <= count blocks, so no first-fit pass can stop at one.
    const int cls = std::bit_width(count) - 1;
    std::uint64_t longest = 0;

    // Pass 0 (large files on a healthy image): carve a 2 MB-aligned
    // run so the mapping layer can use huge pages (ext4 alignment
    // heuristics for DAX).
    if (hugeAligned) {
        for (auto it = map.lower_bound(pool.hint[cls]); it != map.end();
             ++it) {
            const std::uint64_t start = it->first;
            const std::uint64_t len = it->second;
            const std::uint64_t aligned =
                (start + kBlocksPerHuge - 1) / kBlocksPerHuge
                * kBlocksPerHuge;
            if (aligned + remaining > start + len) {
                longest = std::max(longest, len);
                continue;
            }
            raiseHint(pool, cls, longest, start);
            const std::uint64_t head = aligned - start;
            const std::uint64_t tail = start + len - aligned - remaining;
            const auto next = map.erase(it);
            if (head > 0)
                map.emplace_hint(next, start, head);
            if (tail > 0)
                map.emplace_hint(next, aligned + remaining, tail);
            out.push_back({aligned, remaining});
            pool.blocks -= remaining;
            return out;
        }
        raiseHint(pool, cls, longest, totalBlocks_);
        longest = 0;
    }

    // Pass 1: a single extent fully satisfying the request, preferring
    // the first fit at or after the goal (ext4's goal-directed search),
    // then the first fit below it.
    auto firstFit = [&](auto it, auto end) {
        for (; it != end && it->second < remaining; ++it)
            longest = std::max(longest, it->second);
        return it;
    };
    const std::uint64_t skip = pool.hint[cls];
    auto fit = firstFit(map.lower_bound(std::max(goal, skip)), map.end());
    // Whether the search passed over every run below where it stopped.
    bool swept = goal <= skip;
    if (fit == map.end() && goal > skip) {
        const auto wrap = map.lower_bound(goal);
        fit = firstFit(map.lower_bound(skip), wrap);
        if (fit == wrap)
            fit = map.end();
        swept = true;
    }
    if (swept)
        raiseHint(pool, cls, longest,
                  fit == map.end() ? totalBlocks_ : fit->first);
    if (fit != map.end()) {
        out.push_back({fit->first, remaining});
        const std::uint64_t start = fit->first;
        const std::uint64_t len = fit->second;
        const auto next = map.erase(fit);
        if (len > remaining)
            map.emplace_hint(next, start + remaining, len - remaining);
        pool.blocks -= remaining;
        return out;
    }

    // Pass 2: gather fragments largest-area-first in address order
    // starting at the goal, wrapping around.
    auto takeFrom = [&](auto it) {
        const std::uint64_t start = it->first;
        const std::uint64_t len = it->second;
        const std::uint64_t take = len < remaining ? len : remaining;
        out.push_back({start, take});
        const auto next = map.erase(it);
        if (len > take)
            map.emplace_hint(next, start + take, len - take);
        pool.blocks -= take;
        remaining -= take;
    };
    while (remaining > 0) {
        auto it = map.lower_bound(goal);
        if (it == map.end())
            it = map.begin();
        if (it == map.end())
            break; // exhausted
        takeFrom(it);
    }

    if (remaining > 0) {
        // Roll back: out of space.
        for (const auto &e : out)
            insertFree(pool, e);
        out.clear();
    }
    return out;
}

std::vector<Extent>
BlockAllocator::alloc(std::uint64_t count, std::uint64_t goal,
                      std::vector<bool> *zeroed, bool preferHugeAligned)
{
    std::vector<Extent> out;
    if (count == 0)
        return out;
    if (free_.blocks + zeroed_.blocks < count)
        return out; // ENOSPC

    // Prefer pre-zeroed extents first: callers that need zeroed blocks
    // skip the synchronous zeroing for this portion.
    std::uint64_t fromZeroed =
        zeroed_.blocks < count ? zeroed_.blocks : count;
    if (fromZeroed > 0) {
        auto z = carve(zeroed_, fromZeroed, goal, /*hugeAligned=*/false);
        for (const auto &e : z) {
            out.push_back(e);
            if (zeroed != nullptr)
                zeroed->push_back(true);
        }
        if (z.empty())
            fromZeroed = 0; // carve can fail only when pool < request
    }
    const std::uint64_t rest = count - fromZeroed;
    if (rest > 0) {
        auto f = carve(free_, rest, goal,
                       preferHugeAligned && rest >= kBlocksPerHuge);
        if (f.empty()) {
            // Roll back the zeroed part.
            for (const Extent &e : out)
                insertFree(zeroed_, e);
            out.clear();
            if (zeroed != nullptr)
                zeroed->clear();
            return out;
        }
        for (const auto &e : f) {
            out.push_back(e);
            if (zeroed != nullptr)
                zeroed->push_back(false);
        }
    }
    return out;
}

void
BlockAllocator::free(const Extent &extent, int core, sim::Time now)
{
    if (extent.endBlock() > totalBlocks_)
        throw std::invalid_argument("free beyond device");
    if (sink_ != nullptr && sink_->onFree(core, now, extent)) {
        divertedBlocks_ += extent.count;
        return; // DaxVM prezero path owns the blocks now
    }
    insertFree(free_, extent);
}

void
BlockAllocator::freeZeroed(const Extent &extent)
{
    if (extent.endBlock() > totalBlocks_)
        throw std::invalid_argument("freeZeroed beyond device");
    // Saturating: callers may seed the zeroed pool directly (tests).
    divertedBlocks_ -=
        divertedBlocks_ < extent.count ? divertedBlocks_ : extent.count;
    insertFree(zeroed_, extent);
}

void
BlockAllocator::retire(const Extent &extent)
{
    if (extent.endBlock() > totalBlocks_)
        throw std::invalid_argument("retire beyond device");
    if (extent.count == 0)
        return;
    insertFree(retired_, extent);
}

std::vector<Extent>
BlockAllocator::retiredExtents() const
{
    std::vector<Extent> out;
    out.reserve(retired_.runs.size());
    for (const auto &[start, len] : retired_.runs)
        out.push_back({start, len});
    return out;
}

std::uint64_t
BlockAllocator::removeRange(Pool &pool, std::uint64_t start,
                            std::uint64_t count)
{
    // Cutting only shortens runs and moves none below where it began,
    // so every hint still holds.
    ExtentMap &map = pool.runs;
    const std::uint64_t end = start + count;
    std::uint64_t removed = 0;

    auto it = map.upper_bound(start);
    if (it != map.begin())
        --it;
    while (it != map.end() && it->first < end) {
        const std::uint64_t runStart = it->first;
        const std::uint64_t runEnd = runStart + it->second;
        if (runEnd <= start) {
            ++it;
            continue;
        }
        const std::uint64_t cutStart = runStart > start ? runStart : start;
        const std::uint64_t cutEnd = runEnd < end ? runEnd : end;
        removed += cutEnd - cutStart;
        // Surviving head/tail pieces go in front of the next run.
        it = map.erase(it);
        if (runStart < cutStart)
            map.emplace_hint(it, runStart, cutStart - runStart);
        if (cutEnd < runEnd)
            map.emplace_hint(it, cutEnd, runEnd - cutEnd);
    }
    pool.blocks -= removed;
    return removed;
}

std::uint64_t
BlockAllocator::rebuildFrom(const std::vector<Extent> &allocated)
{
    free_ = Pool{};
    free_.runs.emplace(0, totalBlocks_);
    free_.blocks = totalBlocks_;
    zeroed_ = Pool{};
    divertedBlocks_ = 0;
    retired_ = Pool{};

    std::uint64_t conflicts = 0;
    for (const auto &e : allocated) {
        if (e.count == 0)
            continue;
        if (e.endBlock() > totalBlocks_) {
            conflicts += e.count;
            continue;
        }
        conflicts += e.count - removeRange(free_, e.block, e.count);
    }
    return conflicts;
}

void
BlockAllocator::rebuildRetired(const std::vector<Extent> &retired)
{
    for (const auto &e : retired) {
        if (e.count == 0 || e.endBlock() > totalBlocks_)
            continue;
        removeRange(free_, e.block, e.count);
        insertFree(retired_, e);
    }
}

bool
BlockAllocator::promoteZeroed(const Extent &extent)
{
    if (extent.count == 0)
        return true;
    if (extent.endBlock() > totalBlocks_)
        return false;
    // Require full coverage by a single free run (the free map is
    // coalesced, so a fully-free range is always one run).
    auto it = free_.runs.upper_bound(extent.block);
    if (it == free_.runs.begin())
        return false;
    --it;
    if (it->first + it->second < extent.endBlock())
        return false;
    removeRange(free_, extent.block, extent.count);
    insertFree(zeroed_, extent);
    return true;
}

std::vector<Extent>
BlockAllocator::zeroedExtents() const
{
    std::vector<Extent> out;
    out.reserve(zeroed_.runs.size());
    for (const auto &[start, len] : zeroed_.runs)
        out.push_back({start, len});
    return out;
}

std::vector<std::string>
BlockAllocator::check() const
{
    std::vector<std::string> problems;
    auto audit = [&](const char *name, const Pool &pool) {
        std::uint64_t sum = 0;
        std::uint64_t prevEnd = 0;
        bool first = true;
        for (const auto &[start, len] : pool.runs) {
            if (len == 0)
                problems.push_back(std::string(name) + ": empty run at "
                                   + std::to_string(start));
            else if (pool.hint[std::bit_width(len) - 1] > start)
                problems.push_back(std::string(name) + ": run at "
                                   + std::to_string(start)
                                   + " lies below its size-class hint");
            if (!first && start <= prevEnd)
                problems.push_back(std::string(name)
                                   + ": overlapping/uncoalesced run at "
                                   + std::to_string(start));
            if (start + len > totalBlocks_)
                problems.push_back(std::string(name)
                                   + ": run past device end at "
                                   + std::to_string(start));
            sum += len;
            prevEnd = start + len;
            first = false;
        }
        if (sum != pool.blocks)
            problems.push_back(std::string(name) + ": counter "
                               + std::to_string(pool.blocks)
                               + " != map sum " + std::to_string(sum));
        if (!std::is_sorted(pool.hint.begin(), pool.hint.end()))
            problems.push_back(std::string(name)
                               + ": size-class hints decrease");
    };
    audit("freeMap", free_);
    audit("zeroedMap", zeroed_);
    audit("retiredMap", retired_);

    // The pools must be pairwise disjoint.
    auto overlapsMap = [&](const char *name, const ExtentMap &map,
                           const ExtentMap &other, const char *otherName) {
        for (const auto &[start, len] : map) {
            auto it = other.upper_bound(start);
            if (it != other.begin()) {
                auto prev = std::prev(it);
                if (prev->first + prev->second > start)
                    problems.push_back(std::string(name) + " run at "
                                       + std::to_string(start)
                                       + " overlaps " + otherName);
            }
            if (it != other.end() && it->first < start + len)
                problems.push_back(std::string(name) + " run at "
                                   + std::to_string(start) + " overlaps "
                                   + otherName);
        }
    };
    overlapsMap("zeroed", zeroed_.runs, free_.runs, "free map");
    overlapsMap("retired", retired_.runs, free_.runs, "free map");
    overlapsMap("retired", retired_.runs, zeroed_.runs, "zeroed map");

    if (free_.blocks + zeroed_.blocks + divertedBlocks_ + retired_.blocks
        > totalBlocks_)
        problems.push_back(
            "free+zeroed+diverted+retired exceeds device size");
    return problems;
}

std::uint64_t
BlockAllocator::largestFreeExtent() const
{
    std::uint64_t best = 0;
    for (const auto &[start, len] : free_.runs) {
        (void)start;
        if (len > best)
            best = len;
    }
    return best;
}

double
BlockAllocator::hugeAlignedFreeFraction() const
{
    if (free_.blocks == 0)
        return 0.0;
    std::uint64_t hugeBlocks = 0;
    for (const auto &[start, len] : free_.runs) {
        const std::uint64_t alignedStart =
            (start + kBlocksPerHuge - 1) / kBlocksPerHuge * kBlocksPerHuge;
        const std::uint64_t end = start + len;
        if (alignedStart >= end)
            continue;
        const std::uint64_t usable =
            (end - alignedStart) / kBlocksPerHuge * kBlocksPerHuge;
        hugeBlocks += usable;
    }
    return static_cast<double>(hugeBlocks)
         / static_cast<double>(free_.blocks);
}

} // namespace dax::fs
