/**
 * @file
 * Extent types shared across the file-system layer.
 */
#pragma once

#include <cstdint>
#include <map>

#include "mem/device.h"

namespace dax::fs {

/** File-system block size (== page size; DAX requires this). */
inline constexpr std::uint64_t kBlockSize = mem::kPageSize;
/** Blocks per 2 MB huge page. */
inline constexpr std::uint64_t kBlocksPerHuge =
    mem::kHugePageSize / kBlockSize;

/** A run of physically contiguous blocks. */
struct Extent
{
    std::uint64_t block = 0;  ///< first physical block number
    std::uint64_t count = 0;  ///< number of blocks

    std::uint64_t bytes() const { return count * kBlockSize; }
    std::uint64_t endBlock() const { return block + count; }

    bool operator==(const Extent &) const = default;
};

/** An extent mapped at a position within a file. */
struct FileExtent
{
    std::uint64_t fileBlock = 0;  ///< first file-relative block
    Extent extent;

    bool operator==(const FileExtent &) const = default;
};

/**
 * Coalesced free-run map (start block -> length) behind the block
 * allocator's pools. Node-based on purpose: an aged image holds
 * thousands of runs, so O(log n) insert/erase beats a sorted vector's
 * memmove (docs/performance.md).
 */
using ExtentMap = std::map<std::uint64_t, std::uint64_t>;

} // namespace dax::fs
