/**
 * @file
 * Host-side paging-structure-cache analog, one per PageTable.
 *
 * Hardware walkers keep PML4E/PDPTE/PDE caches so a TLB miss usually
 * costs one leaf PTE fetch, not four dependent loads. The simulator's
 * functional walks pay the same shape of cost on the *host*: three
 * device loadWord() probes to reach the leaf table, then the leaf
 * entry. This cache keys the upper three levels of a walk on the 2 MB
 * region (va >> 21) and remembers the PTE-level node they lead to, so
 * every walker of the table -- PageTable::lookup() and the PTE-level
 * walk behind map()/clear()/setFlags() -- starts at the leaf node.
 *
 * It is purely a host optimization and must never change simulated
 * output:
 *  - entries are tagged with the table's structural generation
 *    (PageTable::structureGen()), so any interior mutation (huge
 *    map/clear, interior flag flips, attach/detach) silently
 *    invalidates them without deref of the stale node. Installing or
 *    clearing a huge leaf bumps the generation, so a hit never crosses
 *    a huge entry;
 *  - leaf PTEs are re-read on every hit, so PTE-level mutations
 *    (4 KB map/clear/permission flips) need no invalidation at all;
 *  - the leaf table may be a shared file-table PTE page attached at
 *    PMD level (DaxVM's 2 MB granule): its owner only rewrites that
 *    page's entries, which every hit re-reads, and detaching it bumps
 *    the generation;
 *  - a path through a shared interior node is never cached (the
 *    table leaves WalkResult::pteNode null for it): the owner of a
 *    PMD page attached at PUD level re-points that page's entries
 *    without touching this table.
 *
 * A cached shared leaf rests on one invariant, which DaxVM keeps: an
 * attached file-table node is never freed while a process tree points
 * at it. The VFS keeps a mapped inode cached (so eviction cannot free
 * its volatile table or DRAM mirror), a media repair rewrites entries
 * in place instead of emptying the page, and a table rebuilt in PMem
 * or migrated to DRAM takes over every attachment before the old
 * nodes go (DaxVm::reattachFile()).
 *
 * The hit/fill counters are host-side diagnostics for tests and stay
 * out of the metrics registry, keeping snapshots bit-identical with
 * the cache disabled.
 */
#pragma once

#include <array>
#include <cstdint>

namespace dax::arch {

struct Node;

class WalkCache
{
  public:
    /** Direct-mapped on the low PMD-index bits of the 2 MB region. */
    static constexpr unsigned kEntries = 64;

    struct Entry
    {
        std::uint64_t tag = ~0ULL; // va >> 21
        std::uint64_t gen = 0;
        Node *pteNode = nullptr;
        /** AND of writability across the upper three levels. */
        bool upperWritable = false;
    };

    /** Cached path to @p va's leaf table at generation @p gen. */
    const Entry *
    find(std::uint64_t va, std::uint64_t gen)
    {
        const Entry &e = entries_[slot(va)];
        if (e.pteNode == nullptr || e.tag != va >> 21 || e.gen != gen)
            return nullptr;
        hits_++;
        return &e;
    }

    /** Remember a completed walk through private interior nodes. */
    void
    fill(std::uint64_t va, std::uint64_t gen, Node *pteNode,
         bool upperWritable)
    {
        Entry &e = entries_[slot(va)];
        e.tag = va >> 21;
        e.gen = gen;
        e.pteNode = pteNode;
        e.upperWritable = upperWritable;
        fills_++;
    }

    /** Host-side diagnostics (never exported to metrics). */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t fills() const { return fills_; }

  private:
    static unsigned
    slot(std::uint64_t va)
    {
        return static_cast<unsigned>(va >> 21) & (kEntries - 1);
    }

    std::array<Entry, kEntries> entries_{};
    std::uint64_t hits_ = 0;
    std::uint64_t fills_ = 0;
};

} // namespace dax::arch
