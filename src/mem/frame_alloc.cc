/**
 * @file
 * FrameAllocator implementation.
 */
#include "mem/frame_alloc.h"

#include <new>
#include <stdexcept>

namespace dax::mem {

FrameAllocator::FrameAllocator(Device &dev, Paddr base, std::uint64_t size)
    : dev_(dev), base_(base), totalFrames_(size / kPageSize)
{
    if (base % kPageSize != 0 || size % kPageSize != 0)
        throw std::invalid_argument("frame region not page aligned");
    if (base + size > dev.capacity())
        throw std::invalid_argument("frame region exceeds device");
    allocBits_.assign((totalFrames_ + 63) / 64, 0);
}

void
FrameAllocator::markAllocated(std::uint64_t idx)
{
    allocBits_[idx >> 6] |= 1ULL << (idx & 63);
}

void
FrameAllocator::markFree(std::uint64_t idx)
{
    allocBits_[idx >> 6] &= ~(1ULL << (idx & 63));
}

Paddr
FrameAllocator::alloc()
{
    Paddr frame;
    if (!freeList_.empty()) {
        frame = freeList_.back();
        freeList_.pop_back();
    } else if (bump_ < totalFrames_) {
        frame = base_ + bump_ * kPageSize;
        bump_++;
    } else {
        throw std::bad_alloc();
    }
    markAllocated(frameIndex(frame));
    dev_.zero(frame, kPageSize);
    allocated_++;
    return frame;
}

void
FrameAllocator::free(Paddr frame)
{
    if (frame < base_ || frame >= base_ + totalFrames_ * kPageSize
        || frame % kPageSize != 0) {
        throw std::invalid_argument("freeing frame outside region");
    }
    const std::uint64_t idx = frameIndex(frame);
    if (!isAllocated(idx))
        throw std::logic_error("double free of frame");
    markFree(idx);
    allocated_--;
    freeList_.push_back(frame);
}

} // namespace dax::mem
