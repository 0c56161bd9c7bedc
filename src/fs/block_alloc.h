/**
 * @file
 * Extent-based block allocator over the PMem data region.
 *
 * Free space is a coalescing map of extents; allocation is best-effort
 * contiguous (first fit at or after a goal), splitting into multiple
 * extents when fragmentation forces it - the mechanism by which an
 * aged image degrades huge-page coverage (paper Sections III/V).
 * Per-size-class skip hints let a first-fit search start past the
 * runs too short to hold it without changing where it lands.
 *
 * DaxVM's asynchronous pre-zeroing hooks the *free* path: freed blocks
 * can be diverted to a PrezeroSink instead of returning to the free
 * map, and allocation prefers pre-zeroed extents when the caller needs
 * zeroed blocks (paper Section IV-E: the allocator itself is not
 * changed, so no extra external fragmentation is induced).
 */
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fs/extent.h"
#include "sim/time.h"

namespace dax::sim {
class Cpu;
}

namespace dax::fs {

/** Receives freed extents for asynchronous zeroing (DaxVM). */
class PrezeroSink
{
  public:
    virtual ~PrezeroSink() = default;

    /**
     * Offer a freed extent for background zeroing.
     * @param core the core performing the free (per-core lists)
     * @param now the current virtual time of the freeing thread
     * @return true when accepted (the sink now owns the blocks and
     *         will return them via BlockAllocator::freeZeroed()).
     */
    virtual bool onFree(int core, sim::Time now, const Extent &extent) = 0;

    /**
     * Synchronously zero and release up to @p maxBlocks diverted
     * blocks back to the allocator's zeroed pool. Called by the media
     * repair path when the clean-frame pool is exhausted (bounded
     * retry: the caller backs off and retries rather than draining
     * everything). @return blocks released (0 when nothing pending).
     */
    virtual std::uint64_t
    drainBounded(sim::Cpu *cpu, std::uint64_t maxBlocks)
    {
        (void)cpu;
        (void)maxBlocks;
        return 0;
    }
};

class BlockAllocator
{
  public:
    /** Manage blocks [0, nBlocks); block 0 maps to @p baseAddr bytes. */
    BlockAllocator(std::uint64_t nBlocks, std::uint64_t baseAddr);

    /**
     * Allocate @p count blocks near @p goal (block number hint).
     * Returns as few extents as fragmentation allows; empty on ENOSPC
     * (partial allocations are rolled back).
     * @param zeroed outputs per returned extent whether it comes
     *        pre-zeroed (from the prezero pool)
     */
    std::vector<Extent> alloc(std::uint64_t count, std::uint64_t goal,
                              std::vector<bool> *zeroed = nullptr,
                              bool preferHugeAligned = false);

    /**
     * Free an extent. When a PrezeroSink is installed and accepts it,
     * the blocks bypass the free map until freeZeroed().
     */
    void free(const Extent &extent, int core = 0, sim::Time now = 0);

    /** Return blocks zeroed by the prezero daemon to the zeroed pool. */
    void freeZeroed(const Extent &extent);

    /**
     * Retire an extent the media reported bad: the blocks leave the
     * allocatable population permanently (never returned to the free
     * or zeroed pools). The caller owns them (they were allocated)
     * when retiring.
     */
    void retire(const Extent &extent);

    /** Install (or remove, nullptr) the DaxVM prezero sink. */
    void setPrezeroSink(PrezeroSink *sink) { sink_ = sink; }

    /** Installed prezero sink, or nullptr (media repair backoff). */
    PrezeroSink *prezeroSink() const { return sink_; }

    // Crash recovery -----------------------------------------------------

    /**
     * Rebuild the free map from scratch so that exactly @p allocated
     * is in use (crash recovery from the durable metadata image).
     * Clears the zeroed pool and the diverted count: blocks in flight
     * to the (volatile) prezero daemon are free again after a crash.
     * @return blocks claimed by more than one extent (0 on a clean
     *         image; conflicts are left allocated once).
     */
    std::uint64_t rebuildFrom(const std::vector<Extent> &allocated);

    /**
     * Re-apply the durable retired-block set after rebuildFrom():
     * carves the extents out of the free map into the retired pool.
     * Extents already outside the free map (still claimed by an inode
     * on a torn image) are recorded retired without double-counting.
     */
    void rebuildRetired(const std::vector<Extent> &retired);

    /**
     * Move a fully-free extent into the zeroed pool (recovery re-
     * admission after its content verified zero). @return false when
     * any block of the extent is not currently in the free map.
     */
    bool promoteZeroed(const Extent &extent);

    /** Current zeroed-pool extents (recovery verification). */
    std::vector<Extent> zeroedExtents() const;

    /**
     * Internal consistency check: counters match the maps, maps are
     * coalesced and in-range, free and zeroed pools are disjoint, and
     * free + zeroed + diverted + allocated == total.
     * @return human-readable problems; empty when consistent.
     */
    std::vector<std::string> check() const;

    /** Physical byte address of @p block. */
    std::uint64_t
    blockAddr(std::uint64_t block) const
    {
        return baseAddr_ + block * kBlockSize;
    }

    // Introspection -----------------------------------------------------
    std::uint64_t freeBlocks() const { return free_.blocks; }
    std::uint64_t zeroedBlocks() const { return zeroed_.blocks; }
    /** Blocks in flight to the prezero daemon (volatile across crash). */
    std::uint64_t divertedBlocks() const { return divertedBlocks_; }
    /** Blocks permanently retired for media errors. */
    std::uint64_t retiredBlocks() const { return retired_.blocks; }
    std::uint64_t totalBlocks() const { return totalBlocks_; }
    std::uint64_t freeExtents() const { return free_.runs.size(); }
    std::uint64_t largestFreeExtent() const;

    /** Free map (start block -> length), for invariant checkers. */
    const ExtentMap &freeMap() const { return free_.runs; }

    /** Retired pool (start block -> length), for invariant checkers. */
    const ExtentMap &retiredMap() const { return retired_.runs; }

    /** Current retired extents (persistence, reporting). */
    std::vector<Extent> retiredExtents() const;

    /**
     * Fraction of free space sitting in 2 MB-aligned fully-free huge
     * chunks - the aging/fragmentation health metric.
     */
    double hugeAlignedFreeFraction() const;

  private:
    /** One pool of blocks: its runs, their sum and first-fit hints. */
    struct Pool
    {
        /** start block -> length (blocks), coalesced. */
        ExtentMap runs;
        std::uint64_t blocks = 0;
        /**
         * First-fit skip hints, non-decreasing in c: every run that
         * starts below hint[c] is shorter than 2^c blocks, so a search
         * for at least 2^c blocks may start at hint[c]. A coalescing
         * insert lowers them; a search that passed over every run
         * below its fit raises them.
         */
        std::array<std::uint64_t, 64> hint{};
    };

    std::vector<Extent> carve(Pool &pool, std::uint64_t count,
                              std::uint64_t goal, bool hugeAligned);
    /**
     * A search that started at hint[cls] passed over every run below
     * block @p to, none longer than @p longest: raise each hint this
     * proves to @p to.
     */
    static void raiseHint(Pool &pool, int cls, std::uint64_t longest,
                          std::uint64_t to);
    void insertFree(Pool &pool, const Extent &extent);
    /** Remove [start, start+count) from @p pool; @return blocks removed. */
    static std::uint64_t removeRange(Pool &pool, std::uint64_t start,
                                     std::uint64_t count);

    std::uint64_t totalBlocks_;
    std::uint64_t baseAddr_;
    Pool free_;
    /** pre-zeroed extents ready for zero-demanding allocations. */
    Pool zeroed_;
    /** media-retired extents, permanently out of circulation. */
    Pool retired_;
    std::uint64_t divertedBlocks_ = 0;
    PrezeroSink *sink_ = nullptr;
};

} // namespace dax::fs
