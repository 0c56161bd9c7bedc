/**
 * @file
 * Page-frame allocator for metadata pages (process page tables in DRAM,
 * persistent DaxVM file tables in PMem).
 *
 * File *data* blocks are managed by the file system's extent allocator
 * (fs/block_alloc.h); this allocator hands out single 4 KB frames from
 * a dedicated region of a device: a bump pointer plus a LIFO free
 * list, O(1) and cache-warm.
 *
 * A per-frame allocated bitmap makes freeing the same frame twice
 * throw instead of corrupting the free list with a duplicate (which
 * an outstanding-count check misses whenever any other frame is still
 * allocated).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "mem/device.h"

namespace dax::mem {

class FrameAllocator
{
  public:
    /**
     * Manage frames in [base, base+size) of @p dev.
     * @param base region start (page aligned)
     * @param size region size in bytes (page aligned)
     */
    FrameAllocator(Device &dev, Paddr base, std::uint64_t size);

    /** Allocate one zeroed 4 KB frame. @throws std::bad_alloc on OOM. */
    Paddr alloc();

    /**
     * Return a frame to the pool.
     * @throws std::invalid_argument for frames outside the region,
     * @throws std::logic_error when the frame is not allocated
     *         (double free).
     */
    void free(Paddr frame);

    /** Frames currently handed out. */
    std::uint64_t allocated() const { return allocated_; }

    /** Total frames managed. */
    std::uint64_t total() const { return totalFrames_; }

    Device &device() { return dev_; }

  private:
    std::uint64_t frameIndex(Paddr frame) const
    {
        return (frame - base_) / kPageSize;
    }
    bool isAllocated(std::uint64_t idx) const
    {
        return (allocBits_[idx >> 6] >> (idx & 63)) & 1ULL;
    }
    void markAllocated(std::uint64_t idx);
    void markFree(std::uint64_t idx);

    Device &dev_;
    Paddr base_;
    std::uint64_t totalFrames_;
    std::uint64_t bump_ = 0;           // next never-used frame index
    std::vector<Paddr> freeList_;      // recycled frames
    std::uint64_t allocated_ = 0;
    /** 1 bit per frame: currently allocated (double-free detection). */
    std::vector<std::uint64_t> allocBits_;
};

} // namespace dax::mem
