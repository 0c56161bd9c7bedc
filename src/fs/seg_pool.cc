/**
 * @file
 * SegregatedPool implementation.
 */
#include "fs/seg_pool.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dax::fs {

namespace {

/** Entries probed per size-class bin before moving to a larger class.
 *  Bounds the alloc paths to O(1); any run in a class one above the
 *  request's ceiling class is guaranteed to fit, so bounded probing
 *  only ever skips *optional* candidates in the floor class. */
constexpr std::size_t kBinProbeLimit = 8;

} // namespace

SegregatedPool::SegregatedPool(std::uint64_t nBlocks)
    : totalBlocks_(nBlocks), bits_((nBlocks + 63) / 64, 0)
{
    runs_.reserve(1024);
    ends_.reserve(1024);
    attach(0, nBlocks);
    setBits(0, nBlocks);
    blocks_ = nBlocks;
}

unsigned
SegregatedPool::binOf(std::uint64_t len)
{
    return static_cast<unsigned>(std::bit_width(len)) - 1;
}

void
SegregatedPool::attach(std::uint64_t start, std::uint64_t len)
{
    const unsigned b = binOf(len);
    RunRec &rec = runs_[start];
    rec.len = len;
    rec.binPos = static_cast<std::uint32_t>(bins_[b].size());
    bins_[b].push_back(start);
    binOccupancy_ |= 1ULL << b;
    ends_[start + len] = start;
}

void
SegregatedPool::detach(std::uint64_t start, const RunRec &rec)
{
    const unsigned b = binOf(rec.len);
    auto &bin = bins_[b];
    const std::uint32_t pos = rec.binPos;
    // Swap-remove; fix the moved entry's back pointer.
    bin[pos] = bin.back();
    bin.pop_back();
    if (pos < bin.size())
        runs_.find(bin[pos])->binPos = pos;
    if (bin.empty())
        binOccupancy_ &= ~(1ULL << b);
    ends_.erase(start + rec.len);
    runs_.erase(start);
}

void
SegregatedPool::setBits(std::uint64_t start, std::uint64_t len)
{
    std::uint64_t b = start;
    const std::uint64_t end = start + len;
    while (b < end && (b & 63) != 0)
        bits_[b >> 6] |= 1ULL << (b & 63), b++;
    while (b + 64 <= end)
        bits_[b >> 6] = ~0ULL, b += 64;
    while (b < end)
        bits_[b >> 6] |= 1ULL << (b & 63), b++;
}

void
SegregatedPool::clearBits(std::uint64_t start, std::uint64_t len)
{
    std::uint64_t b = start;
    const std::uint64_t end = start + len;
    while (b < end && (b & 63) != 0)
        bits_[b >> 6] &= ~(1ULL << (b & 63)), b++;
    while (b + 64 <= end)
        bits_[b >> 6] = 0, b += 64;
    while (b < end)
        bits_[b >> 6] &= ~(1ULL << (b & 63)), b++;
}

bool
SegregatedPool::anyBitSet(std::uint64_t start, std::uint64_t len) const
{
    std::uint64_t b = start;
    const std::uint64_t end = start + len;
    while (b < end && (b & 63) != 0) {
        if (bit(b))
            return true;
        b++;
    }
    while (b + 64 <= end) {
        if (bits_[b >> 6] != 0)
            return true;
        b += 64;
    }
    while (b < end) {
        if (bit(b))
            return true;
        b++;
    }
    return false;
}

std::uint64_t
SegregatedPool::runStartOf(std::uint64_t b) const
{
    // Runs are maximal set-bit ranges: scan backward for the first
    // clear bit (cold recovery paths only; hot paths never call this).
    std::size_t w = b >> 6;
    // Clear bits at positions <= (b & 63) within the word.
    const unsigned off = static_cast<unsigned>(b & 63);
    std::uint64_t inv = ~bits_[w]
        & (off == 63 ? ~0ULL : ((1ULL << (off + 1)) - 1));
    while (inv == 0) {
        if (w == 0)
            return 0; // free all the way down to block 0
        w--;
        inv = ~bits_[w];
    }
    const unsigned last = 63 - static_cast<unsigned>(std::countl_zero(inv));
    return (static_cast<std::uint64_t>(w) << 6) + last + 1;
}

std::uint64_t
SegregatedPool::nextFree(std::uint64_t from, std::uint64_t limit) const
{
    std::uint64_t b = from;
    while (b < limit && (b & 63) != 0) {
        if (bit(b))
            return b;
        b++;
    }
    while (b < limit) {
        const std::uint64_t w = bits_[b >> 6];
        if (w != 0) {
            const std::uint64_t cand =
                b + static_cast<std::uint64_t>(std::countr_zero(w));
            return cand < limit ? cand : limit;
        }
        b += 64;
    }
    return limit;
}

void
SegregatedPool::insert(std::uint64_t start, std::uint64_t len)
{
    if (len == 0)
        return;
    if (start + len > totalBlocks_)
        throw std::invalid_argument("free beyond device");
    if (anyBitSet(start, len))
        throw std::logic_error("double free of block extent");

    std::uint64_t newStart = start;
    std::uint64_t newLen = len;
    // Coalesce with the predecessor ending exactly at start.
    if (const std::uint64_t *pred = ends_.find(start)) {
        const std::uint64_t predStart = *pred;
        const RunRec rec = *runs_.find(predStart);
        detach(predStart, rec);
        newStart = predStart;
        newLen += rec.len;
    }
    // Coalesce with the successor starting exactly at the end.
    if (const RunRec *succ = runs_.find(start + len)) {
        const RunRec rec = *succ;
        detach(start + len, rec);
        newLen += rec.len;
    }
    attach(newStart, newLen);
    setBits(start, len);
    blocks_ += len;
}

void
SegregatedPool::slice(std::uint64_t start, const RunRec &rec,
                      std::uint64_t cutStart, std::uint64_t cutLen)
{
    const std::uint64_t end = start + rec.len;
    detach(start, rec);
    if (cutStart > start)
        attach(start, cutStart - start);
    if (cutStart + cutLen < end)
        attach(cutStart + cutLen, end - cutStart - cutLen);
    clearBits(cutStart, cutLen);
    blocks_ -= cutLen;
}

std::vector<Extent>
SegregatedPool::carve(std::uint64_t count, bool hugeAligned)
{
    std::vector<Extent> out;
    if (count == 0 || blocks_ < count)
        return out;

    // Pass 0: a 2 MB-aligned placement so the mapping layer can use
    // huge pages. Walk occupied classes smallest-first with bounded
    // probes; a run of length >= count + kBlocksPerHuge - 1 always
    // contains an aligned fit, so large classes succeed immediately.
    if (hugeAligned) {
        std::uint64_t mask =
            binOccupancy_ & ~((1ULL << binOf(count)) - 1);
        while (mask != 0) {
            const unsigned b =
                static_cast<unsigned>(std::countr_zero(mask));
            mask &= mask - 1;
            const auto &bin = bins_[b];
            const std::size_t probes =
                std::min(bin.size(), kBinProbeLimit);
            for (std::size_t i = 0; i < probes; i++) {
                const std::uint64_t start = bin[bin.size() - 1 - i];
                const RunRec rec = *runs_.find(start);
                const std::uint64_t aligned =
                    (start + kBlocksPerHuge - 1) / kBlocksPerHuge
                    * kBlocksPerHuge;
                if (aligned + count > start + rec.len)
                    continue;
                slice(start, rec, aligned, count);
                out.push_back({aligned, count});
                return out;
            }
        }
    }

    // Pass 1: a single run fully satisfying the request. The floor
    // class may hold a fit (lengths there span [2^b, 2^(b+1))); any
    // occupied class above it fits unconditionally, and taking from
    // the *lowest* such class spares large runs for huge alignment.
    const unsigned fl = binOf(count);
    {
        const auto &bin = bins_[fl];
        const std::size_t probes = std::min(bin.size(), kBinProbeLimit);
        for (std::size_t i = 0; i < probes; i++) {
            const std::uint64_t start = bin[bin.size() - 1 - i];
            const RunRec rec = *runs_.find(start);
            if (rec.len < count)
                continue;
            slice(start, rec, start, count);
            out.push_back({start, count});
            return out;
        }
        const std::uint64_t above =
            fl >= 63 ? 0 : binOccupancy_ & ~((2ULL << fl) - 1);
        if (above != 0) {
            const unsigned b =
                static_cast<unsigned>(std::countr_zero(above));
            const std::uint64_t start = bins_[b].back();
            const RunRec rec = *runs_.find(start);
            slice(start, rec, start, count);
            out.push_back({start, count});
            return out;
        }
    }

    // Pass 2: gather fragments largest-class-first. blocks_ >= count,
    // so this always completes; no rollback path needed.
    std::uint64_t remaining = count;
    while (remaining > 0) {
        const unsigned b = 63
            - static_cast<unsigned>(std::countl_zero(binOccupancy_));
        const std::uint64_t start = bins_[b].back();
        const RunRec rec = *runs_.find(start);
        const std::uint64_t take = std::min(rec.len, remaining);
        slice(start, rec, start, take);
        out.push_back({start, take});
        remaining -= take;
    }
    return out;
}

std::uint64_t
SegregatedPool::removeRange(std::uint64_t start, std::uint64_t count)
{
    const std::uint64_t end = std::min(start + count, totalBlocks_);
    std::uint64_t removed = 0;
    std::uint64_t pos = start < end ? nextFree(start, end) : end;
    while (pos < end) {
        const std::uint64_t runStart = runStartOf(pos);
        const RunRec rec = *runs_.find(runStart);
        const std::uint64_t runEnd = runStart + rec.len;
        const std::uint64_t cutStart = std::max(runStart, start);
        const std::uint64_t cutEnd = std::min(runEnd, end);
        slice(runStart, rec, cutStart, cutEnd - cutStart);
        removed += cutEnd - cutStart;
        pos = runEnd < end ? nextFree(runEnd, end) : end;
    }
    return removed;
}

bool
SegregatedPool::isRangeFree(std::uint64_t start, std::uint64_t count) const
{
    if (count == 0)
        return true;
    if (start + count > totalBlocks_)
        return false;
    for (std::uint64_t b = start; b < start + count; b++) {
        if (!bit(b))
            return false;
    }
    return true;
}

void
SegregatedPool::reset()
{
    runs_.clear();
    ends_.clear();
    for (auto &bin : bins_)
        bin.clear();
    binOccupancy_ = 0;
    std::fill(bits_.begin(), bits_.end(), 0);
    attach(0, totalBlocks_);
    setBits(0, totalBlocks_);
    blocks_ = totalBlocks_;
}

std::uint64_t
SegregatedPool::largestRun() const
{
    if (binOccupancy_ == 0)
        return 0;
    const unsigned b =
        63 - static_cast<unsigned>(std::countl_zero(binOccupancy_));
    std::uint64_t best = 0;
    for (const std::uint64_t start : bins_[b])
        best = std::max(best, runs_.find(start)->len);
    return best;
}

std::uint64_t
SegregatedPool::hugeAlignedBlocks() const
{
    std::uint64_t hugeBlocks = 0;
    runs_.forEach([&](std::uint64_t start, const RunRec &rec) {
        const std::uint64_t alignedStart =
            (start + kBlocksPerHuge - 1) / kBlocksPerHuge * kBlocksPerHuge;
        const std::uint64_t end = start + rec.len;
        if (alignedStart >= end)
            return;
        hugeBlocks += (end - alignedStart) / kBlocksPerHuge * kBlocksPerHuge;
    });
    return hugeBlocks;
}

void
SegregatedPool::materialize(ExtentMap &out) const
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;
    runs.reserve(runs_.size());
    runs_.forEach([&](std::uint64_t start, const RunRec &rec) {
        runs.emplace_back(start, rec.len);
    });
    std::sort(runs.begin(), runs.end());
    out.clear();
    for (const auto &[start, len] : runs)
        out.emplace_hint(out.end(), start, len); // O(1) amortized
}

std::vector<std::string>
SegregatedPool::check() const
{
    std::vector<std::string> problems;
    std::uint64_t sum = 0;
    std::size_t binned = 0;
    runs_.forEach([&](std::uint64_t start, const RunRec &rec) {
        const std::uint64_t end = start + rec.len;
        if (rec.len == 0)
            problems.push_back("seg: empty run at "
                               + std::to_string(start));
        if (end > totalBlocks_) {
            problems.push_back("seg: run past device end at "
                               + std::to_string(start));
            return;
        }
        if (!isRangeFree(start, rec.len))
            problems.push_back("seg: bitmap missing run at "
                               + std::to_string(start));
        if (start > 0 && bit(start - 1))
            problems.push_back("seg: uncoalesced run at "
                               + std::to_string(start));
        if (end < totalBlocks_ && bit(end))
            problems.push_back("seg: uncoalesced run end at "
                               + std::to_string(start));
        const std::uint64_t *e = ends_.find(end);
        if (e == nullptr || *e != start)
            problems.push_back("seg: missing end tag for run at "
                               + std::to_string(start));
        const unsigned b = binOf(rec.len);
        if (rec.binPos >= bins_[b].size()
            || bins_[b][rec.binPos] != start)
            problems.push_back("seg: bad bin back pointer at "
                               + std::to_string(start));
        sum += rec.len;
    });
    for (unsigned b = 0; b < bins_.size(); b++) {
        binned += bins_[b].size();
        const bool occupied = (binOccupancy_ >> b) & 1ULL;
        if (occupied != !bins_[b].empty())
            problems.push_back("seg: occupancy bit wrong for bin "
                               + std::to_string(b));
    }
    if (binned != runs_.size())
        problems.push_back("seg: bin population != run population");
    if (ends_.size() != runs_.size())
        problems.push_back("seg: end-tag population != run population");
    if (sum != blocks_)
        problems.push_back("seg: counter " + std::to_string(blocks_)
                           + " != run sum " + std::to_string(sum));
    std::uint64_t popcount = 0;
    for (const std::uint64_t w : bits_)
        popcount += static_cast<std::uint64_t>(std::popcount(w));
    if (popcount != blocks_)
        problems.push_back("seg: bitmap popcount "
                           + std::to_string(popcount) + " != counter "
                           + std::to_string(blocks_));
    return problems;
}

} // namespace dax::fs
