/**
 * @file
 * Size-segregated free-block pool: the O(1) allocation strategy behind
 * fs::BlockAllocator's AllocPolicy::Segregated mode.
 *
 * The first-fit policy keeps free space in one ordered map and scans
 * it, which degrades toward O(free-extents) per allocation on an aged
 * image (hundreds to thousands of extents after Geriatrix-style
 * churn). This pool keeps the same *population* of coalesced free runs
 * but indexes it for constant-time operation:
 *
 *  - runs_  : start block -> {length, bin position} (open-addressed
 *             flat hash, sim/flat_hash.h)
 *  - ends_  : end block -> start block, so freeing coalesces with both
 *             neighbours via two O(1) lookups (boundary tags)
 *  - bins_  : power-of-two size classes (bin = floor(log2(len)))
 *             holding run starts, swap-removed in O(1) via the back
 *             pointer stored in runs_
 *  - binOccupancy_ : one bit per size class; ctz finds the first class
 *             that can satisfy a request without scanning empty bins
 *  - bits_  : one bit per free block, giving O(range) overlap
 *             detection on free (double frees throw exactly like the
 *             first-fit policy) and run-boundary recovery for the cold
 *             removeRange / promote paths
 *
 * Everything is deterministic: bin order depends only on the operation
 * history (swap-remove, never host pointers), and the materialized
 * ExtentMap view used by checkers is sorted by start block.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fs/extent.h"
#include "sim/flat_hash.h"

namespace dax::fs {

class SegregatedPool
{
  public:
    /** Start with the whole device [0, nBlocks) free. */
    explicit SegregatedPool(std::uint64_t nBlocks);

    /** Free blocks currently in the pool. */
    std::uint64_t blocks() const { return blocks_; }

    /** Coalesced free runs currently in the pool. */
    std::uint64_t runCount() const { return runs_.size(); }

    /**
     * Return a freed extent to the pool, coalescing with both
     * neighbours. @throws std::logic_error when any block of the
     * extent is already free (double free).
     */
    void insert(std::uint64_t start, std::uint64_t len);

    /**
     * Carve @p count blocks out of the pool. Returns as few extents as
     * the size-class structure allows; empty exactly when
     * blocks() < count (never a partial result). With @p hugeAligned,
     * first try to place the run on a 2 MB boundary. The goal hint of
     * the first-fit policy is deliberately ignored: segregated
     * placement is size-directed, not address-directed
     * (docs/performance.md).
     */
    std::vector<Extent> carve(std::uint64_t count, bool hugeAligned);

    /**
     * Remove every free block in [start, start+count) from the pool
     * (crash-recovery carving). @return blocks actually removed.
     */
    std::uint64_t removeRange(std::uint64_t start, std::uint64_t count);

    /** True when every block of [start, start+count) is free. */
    bool isRangeFree(std::uint64_t start, std::uint64_t count) const;

    /** Reset to the whole device free (rebuildFrom). */
    void reset();

    /** Length of the largest free run (introspection). */
    std::uint64_t largestRun() const;

    /** Free blocks usable as aligned 2 MB chunks (aging metric). */
    std::uint64_t hugeAlignedBlocks() const;

    /**
     * Materialize the pool as a sorted, coalesced ExtentMap (for the
     * fs checker and other cold consumers of freeMap()).
     */
    void materialize(ExtentMap &out) const;

    /** Internal consistency problems; empty when consistent. */
    std::vector<std::string> check() const;

  private:
    struct RunRec
    {
        std::uint64_t len = 0;
        std::uint32_t binPos = 0;
    };

    static unsigned binOf(std::uint64_t len);

    void attach(std::uint64_t start, std::uint64_t len);
    void detach(std::uint64_t start, const RunRec &rec);
    void setBits(std::uint64_t start, std::uint64_t len);
    void clearBits(std::uint64_t start, std::uint64_t len);
    bool anyBitSet(std::uint64_t start, std::uint64_t len) const;
    bool bit(std::uint64_t b) const
    {
        return (bits_[b >> 6] >> (b & 63)) & 1ULL;
    }
    /** Start of the (maximal) free run containing free block @p b. */
    std::uint64_t runStartOf(std::uint64_t b) const;
    /** First free block in [from, limit), or limit when none. */
    std::uint64_t nextFree(std::uint64_t from, std::uint64_t limit) const;
    /** Take [cutStart, cutStart+cutLen) out of the run at @p start. */
    void slice(std::uint64_t start, const RunRec &rec,
               std::uint64_t cutStart, std::uint64_t cutLen);

    std::uint64_t totalBlocks_;
    std::uint64_t blocks_ = 0;
    sim::FlatHash64<RunRec> runs_;
    sim::FlatHash64<std::uint64_t> ends_;
    std::array<std::vector<std::uint64_t>, 64> bins_;
    std::uint64_t binOccupancy_ = 0;
    std::vector<std::uint64_t> bits_; ///< 1 bit per free block
};

} // namespace dax::fs
