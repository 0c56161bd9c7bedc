/**
 * @file
 * BlockAllocator implementation.
 */
#include "fs/block_alloc.h"

#include <cstddef>
#include <stdexcept>

namespace dax::fs {

BlockAllocator::BlockAllocator(std::uint64_t nBlocks, std::uint64_t baseAddr)
    : totalBlocks_(nBlocks), baseAddr_(baseAddr)
{
    if (nBlocks == 0)
        throw std::invalid_argument("allocator needs blocks");
    freeMap_.emplace(0, nBlocks);
    freeBlocks_ = nBlocks;
}

void
BlockAllocator::insertFree(ExtentMap &map, const Extent &extent)
{
    auto [it, inserted] = map.emplace(extent.block, extent.count);
    if (!inserted)
        throw std::logic_error("double free of block extent");

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
        }
    }
}

std::vector<Extent>
BlockAllocator::carve(ExtentMap &map, std::uint64_t count,
                      std::uint64_t goal, std::uint64_t &pool,
                      bool hugeAligned)
{
    std::vector<Extent> out;
    if (count == 0 || pool < count)
        return out;

    std::uint64_t remaining = count;

    // Pass 0 (large files on a healthy image): carve a 2 MB-aligned
    // run so the mapping layer can use huge pages (ext4 alignment
    // heuristics for DAX).
    if (hugeAligned) {
        for (auto it = map.begin(); it != map.end(); ++it) {
            const std::uint64_t start = it->first;
            const std::uint64_t len = it->second;
            const std::uint64_t aligned =
                (start + kBlocksPerHuge - 1) / kBlocksPerHuge
                * kBlocksPerHuge;
            if (aligned + remaining > start + len)
                continue;
            const std::uint64_t head = aligned - start;
            const std::uint64_t tail = start + len - aligned - remaining;
            const auto next = map.erase(it);
            if (head > 0)
                map.emplace_hint(next, start, head);
            if (tail > 0)
                map.emplace_hint(next, aligned + remaining, tail);
            out.push_back({aligned, remaining});
            pool -= remaining;
            return out;
        }
    }

    // Pass 1: a single extent fully satisfying the request, preferring
    // the first fit at or after the goal (ext4's goal-directed search).
    auto tryWhole = [&](auto begin, auto end) -> bool {
        for (auto it = begin; it != end; ++it) {
            if (it->second >= remaining) {
                out.push_back({it->first, remaining});
                const std::uint64_t start = it->first;
                const std::uint64_t len = it->second;
                const auto next = map.erase(it);
                if (len > remaining)
                    map.emplace_hint(next, start + remaining,
                                     len - remaining);
                pool -= remaining;
                remaining = 0;
                return true;
            }
        }
        return false;
    };
    if (tryWhole(map.lower_bound(goal), map.end())
        || tryWhole(map.begin(), map.lower_bound(goal))) {
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
        pool -= take;
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
        for (const auto &e : out) {
            insertFree(map, e);
            pool += e.count;
        }
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
    if (freeBlocks_ + zeroedBlocks_ < count)
        return out; // ENOSPC

    // Prefer pre-zeroed extents first: callers that need zeroed blocks
    // skip the synchronous zeroing for this portion.
    std::uint64_t fromZeroed =
        zeroedBlocks_ < count ? zeroedBlocks_ : count;
    if (fromZeroed > 0) {
        auto z = carve(zeroedMap_, fromZeroed, goal, zeroedBlocks_,
                       /*hugeAligned=*/false);
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
        auto f = carve(freeMap_, rest, goal, freeBlocks_,
                       preferHugeAligned && rest >= kBlocksPerHuge);
        if (f.empty()) {
            // Roll back the zeroed part.
            for (std::size_t i = 0; i < out.size(); i++) {
                insertFree(zeroedMap_, out[i]);
                zeroedBlocks_ += out[i].count;
            }
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
    insertFree(freeMap_, extent);
    freeBlocks_ += extent.count;
}

void
BlockAllocator::freeZeroed(const Extent &extent)
{
    if (extent.endBlock() > totalBlocks_)
        throw std::invalid_argument("freeZeroed beyond device");
    // Saturating: callers may seed the zeroed pool directly (tests).
    divertedBlocks_ -=
        divertedBlocks_ < extent.count ? divertedBlocks_ : extent.count;
    insertFree(zeroedMap_, extent);
    zeroedBlocks_ += extent.count;
}

void
BlockAllocator::retire(const Extent &extent)
{
    if (extent.endBlock() > totalBlocks_)
        throw std::invalid_argument("retire beyond device");
    if (extent.count == 0)
        return;
    insertFree(retiredMap_, extent);
    retiredBlocks_ += extent.count;
}

std::vector<Extent>
BlockAllocator::retiredExtents() const
{
    std::vector<Extent> out;
    out.reserve(retiredMap_.size());
    for (const auto &[start, len] : retiredMap_)
        out.push_back({start, len});
    return out;
}

std::uint64_t
BlockAllocator::removeRange(ExtentMap &map, std::uint64_t start,
                            std::uint64_t count)
{
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
    return removed;
}

std::uint64_t
BlockAllocator::rebuildFrom(const std::vector<Extent> &allocated)
{
    freeMap_.clear();
    freeMap_.emplace(0, totalBlocks_);
    freeBlocks_ = totalBlocks_;
    zeroedMap_.clear();
    zeroedBlocks_ = 0;
    divertedBlocks_ = 0;
    retiredMap_.clear();
    retiredBlocks_ = 0;

    std::uint64_t conflicts = 0;
    for (const auto &e : allocated) {
        if (e.count == 0)
            continue;
        if (e.endBlock() > totalBlocks_) {
            conflicts += e.count;
            continue;
        }
        const std::uint64_t removed =
            removeRange(freeMap_, e.block, e.count);
        freeBlocks_ -= removed;
        conflicts += e.count - removed;
    }
    return conflicts;
}

void
BlockAllocator::rebuildRetired(const std::vector<Extent> &retired)
{
    for (const auto &e : retired) {
        if (e.count == 0 || e.endBlock() > totalBlocks_)
            continue;
        freeBlocks_ -= removeRange(freeMap_, e.block, e.count);
        insertFree(retiredMap_, e);
        retiredBlocks_ += e.count;
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
    auto it = freeMap_.upper_bound(extent.block);
    if (it == freeMap_.begin())
        return false;
    --it;
    if (it->first + it->second < extent.endBlock())
        return false;
    removeRange(freeMap_, extent.block, extent.count);
    freeBlocks_ -= extent.count;
    insertFree(zeroedMap_, extent);
    zeroedBlocks_ += extent.count;
    return true;
}

std::vector<Extent>
BlockAllocator::zeroedExtents() const
{
    std::vector<Extent> out;
    out.reserve(zeroedMap_.size());
    for (const auto &[start, len] : zeroedMap_)
        out.push_back({start, len});
    return out;
}

std::vector<std::string>
BlockAllocator::check() const
{
    std::vector<std::string> problems;
    auto audit = [&](const char *name, const ExtentMap &map,
                     std::uint64_t counter) {
        std::uint64_t sum = 0;
        std::uint64_t prevEnd = 0;
        bool first = true;
        for (const auto &[start, len] : map) {
            if (len == 0)
                problems.push_back(std::string(name) + ": empty run at "
                                   + std::to_string(start));
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
        if (sum != counter)
            problems.push_back(std::string(name) + ": counter "
                               + std::to_string(counter) + " != map sum "
                               + std::to_string(sum));
    };
    audit("freeMap", freeMap_, freeBlocks_);
    audit("zeroedMap", zeroedMap_, zeroedBlocks_);
    audit("retiredMap", retiredMap_, retiredBlocks_);

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
    overlapsMap("zeroed", zeroedMap_, freeMap_, "free map");
    overlapsMap("retired", retiredMap_, freeMap_, "free map");
    overlapsMap("retired", retiredMap_, zeroedMap_, "zeroed map");

    if (freeBlocks_ + zeroedBlocks_ + divertedBlocks_ + retiredBlocks_
        > totalBlocks_)
        problems.push_back(
            "free+zeroed+diverted+retired exceeds device size");
    return problems;
}

std::uint64_t
BlockAllocator::largestFreeExtent() const
{
    std::uint64_t best = 0;
    for (const auto &[start, len] : freeMap_) {
        (void)start;
        if (len > best)
            best = len;
    }
    return best;
}

double
BlockAllocator::hugeAlignedFreeFraction() const
{
    if (freeBlocks_ == 0)
        return 0.0;
    std::uint64_t hugeBlocks = 0;
    for (const auto &[start, len] : freeMap_) {
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
         / static_cast<double>(freeBlocks_);
}

} // namespace dax::fs
