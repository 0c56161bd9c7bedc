/**
 * @file
 * DaxVM pre-populated file tables (paper Section IV-A).
 *
 * A FileTable is a fragment of an x86-64 radix tree owned by the file
 * system, translating file offsets to PMem physical addresses:
 *
 *   root (PUD-like) -> per-1GB PMD nodes -> per-2MB PTE nodes
 *                       \__ huge PMD entries for 2 MB-contiguous,
 *                           aligned file chunks
 *
 * Tables live either in DRAM frames (volatile: rebuilt on cold open,
 * destroyed on inode eviction) or PMem frames (persistent: survive
 * reboot; updates are flushed with cache-line-batched clwb). The
 * manager applies the paper's placement policy (<=32 KB volatile,
 * larger persisted) and handles monitor-driven migration to DRAM.
 */
#pragma once

#include <bitset>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "arch/page_table.h"
#include "fs/file_system.h"
#include "mem/frame_alloc.h"
#include "sim/cost_model.h"
#include "sim/fault.h"
#include "sim/metrics.h"

namespace dax::daxvm {

class FileTable
{
  public:
    /**
     * @param frames frame source (DRAM for volatile, PMem for
     *        persistent tables)
     * @param persistent charge clwb flushes on updates and survive
     *        remount
     */
    FileTable(mem::FrameAllocator &frames, bool persistent,
              const sim::CostModel &cm);
    ~FileTable();

    FileTable(const FileTable &) = delete;
    FileTable &operator=(const FileTable &) = delete;

    bool persistent() const { return persistent_; }

    /**
     * Record translations for @p extent at @p fileBlock, building
     * nodes bottom-up. 2 MB-aligned fully-contiguous chunks become
     * huge PMD entries. @p cpu may be null (setup, no charging).
     */
    void populate(sim::Cpu *cpu, std::uint64_t fileBlock,
                  const fs::Extent &extent, std::uint64_t blockAddrBase);

    /**
     * Clear translations for [fileBlock, fileBlock+count). A PTE page
     * whose last present entry clears is freed.
     */
    void clearRange(sim::Cpu *cpu, std::uint64_t fileBlock,
                    std::uint64_t count);

    /**
     * Shared PTE-level node of 2 MB chunk @p chunk, or nullptr when
     * the chunk is huge-mapped or empty.
     */
    arch::Node *pteNode(std::uint64_t chunk) const;

    /** Shared PMD-level node of 1 GB chunk @p gchunk (may be null). */
    arch::Node *pmdNode(std::uint64_t gchunk) const;

    /**
     * Huge PMD entry value for 2 MB chunk @p chunk (0 when the chunk
     * is not huge-mapped).
     */
    arch::Pte hugeEntry(std::uint64_t chunk) const;

    /** Table pages owned. */
    std::uint64_t nodeCount() const { return nodes_; }
    std::uint64_t bytes() const { return nodes_ * mem::kPageSize; }

  private:
    /**
     * Per-2 MB-chunk state. Tables are built bottom-up as fragments
     * (paper Section IV-A1): a small file owns exactly one 4 KB PTE
     * page; 2 MB-contiguous aligned chunks are a single huge entry
     * with no PTE page at all. PMD-level nodes are materialized only
     * when a >1 GB file needs PUD-level attachment.
     */
    struct Chunk
    {
        arch::Node *pte = nullptr;
        arch::Pte huge = 0;
        /**
         * Host-only record of which entries of pte are present, kept
         * by populate() (which may rewrite a present entry in place)
         * and clearRange(), so that emptiness needs no reload of the
         * page's 512 words.
         */
        std::bitset<arch::kEntriesPerNode> present;
    };

    arch::Node *newNode(bool leaf);
    void freeNode(arch::Node *node);
    /** @p chunk's state, with a PTE page allocated if it had none. */
    Chunk &ensurePte(sim::Cpu *cpu, std::uint64_t chunk);
    /** Keep a materialized PMD node's entry for @p chunk in sync. */
    void syncPmdEntry(std::uint64_t chunk);
    /** Charge a batched persistent PTE flush for @p entries updates. */
    void chargePersist(sim::Cpu *cpu, std::uint64_t entries);

    mem::FrameAllocator &frames_;
    bool persistent_;
    const sim::CostModel &cm_;
    std::map<std::uint64_t, Chunk> chunks_;         ///< by 2 MB chunk
    std::map<std::uint64_t, arch::Node *> pmds_;    ///< by 1 GB chunk
    std::uint64_t nodes_ = 0;
};

/**
 * Per-inode DaxVM state stored in fs::Inode::priv.
 */
struct InodeTables : public fs::InodePrivate
{
    /** Primary table (placement per policy). */
    std::unique_ptr<FileTable> table;
    /** DRAM mirror built by the MMU monitor (paper Table III). */
    std::unique_ptr<FileTable> dramMirror;
    /** Serve attachments from the mirror when present. */
    bool useMirror = false;

    FileTable *
    active() const
    {
        return useMirror && dramMirror ? dramMirror.get() : table.get();
    }
};

/**
 * Durable representation of one persistent file table: the extent
 * layout it encodes, sealed by a checksum and a generation tag. The
 * midUpdate flag models the update window - set before the first
 * table write of an update, cleared when the update completes; a
 * crash inside the window leaves a torn image that attach-time
 * validation rejects (rebuild fallback).
 *
 * A completed update only bumps the generation and marks the image
 * unsealed. The layout copy and its checksum are taken when something
 * reads the image (FileTableManager::sealImages(), imageOf()): every
 * extent-map change is followed by a table hook that opens the next
 * window before any persistence boundary, so the live extent map at a
 * crash is exactly the layout the last completed update wrote.
 */
struct PersistentImage
{
    std::uint64_t generation = 0;
    std::uint64_t checksum = 0;
    bool midUpdate = false;
    /** extents and checksum describe the current generation. */
    bool sealed = false;
    /** (fileBlock, extent) pairs in file order. */
    std::vector<std::pair<std::uint64_t, fs::Extent>> extents;
};

/** What FileTableManager::recoverAll() did per persistent table. */
struct TableRecovery
{
    /** Images that validated (checksum + generation intact). */
    std::uint64_t validated = 0;
    /** Torn/stale images rebuilt from the inode's extent tree. */
    std::uint64_t rebuilt = 0;
    /** Images whose inode did not survive recovery. */
    std::uint64_t dropped = 0;
};

/**
 * FileTableManager: the file-system extension maintaining file tables
 * across block (de)allocations, the placement policy, cold-open
 * reconstruction, and storage accounting.
 */
class FileTableManager : public fs::FsHooks
{
  public:
    FileTableManager(fs::FileSystem &fs, mem::FrameAllocator &dramFrames,
                     mem::FrameAllocator &pmemFrames,
                     const sim::CostModel &cm);
    ~FileTableManager() override;

    /** Tables of @p ino, creating (and populating) them if needed. */
    InodeTables &tables(sim::Cpu *cpu, fs::Ino ino);

    /** Cold open: rebuild volatile tables (persistent ones survive). */
    void onColdOpen(sim::Cpu &cpu, fs::Ino ino);

    /** Build a DRAM mirror and serve attachments from it. */
    void migrateToDram(sim::Cpu &cpu, fs::Ino ino);

    /** Observe persistent-table update windows for crash injection. */
    void setFaultPlan(sim::FaultPlan *plan) { plan_ = plan; }

    /**
     * Seal every unsealed image that is not mid-update: copy its
     * inode's live extent map and checksum it. Must run while the
     * extent maps are the pre-crash ones, i.e. before
     * FileSystem::recover() replaces them. Untimed; a no-op when
     * every image is sealed.
     */
    void sealImages();

    /**
     * Post-crash attach of every surviving persistent table: validate
     * its durable image (checksum, generation, not mid-update, layout
     * matches the recovered extent tree) and re-instantiate the
     * table; torn or stale images fall back to a rebuild from the
     * extent tree. Call after sealImages() and
     * FileSystem::recover(). Untimed.
     */
    TableRecovery recoverAll();

    /** Checksum over @p img's generation and layout (FNV-1a). */
    static std::uint64_t imageChecksum(const PersistentImage &img);

    /** Durable image of @p ino's table, sealed (nullptr when volatile). */
    const PersistentImage *
    imageOf(fs::Ino ino)
    {
        auto it = images_.find(ino);
        if (it == images_.end())
            return nullptr;
        seal(it->first, it->second);
        return &it->second;
    }

    // FsHooks ----------------------------------------------------------
    void onBlocksAllocated(sim::Cpu &cpu, fs::Inode &inode,
                           std::uint64_t fileBlock,
                           const fs::Extent &extent) override;
    void onBlocksFreeing(sim::Cpu &cpu, fs::Inode &inode,
                         std::uint64_t fileBlock,
                         const fs::Extent &extent) override;
    /**
     * Media repair: swap the poisoned block's translation in place
     * (O(1) reattach) instead of tearing down every mapping of the
     * file. A huge-mapped chunk demotes to a PTE node because the
     * replacement breaks its physical contiguity.
     */
    void onBlocksRemapped(sim::Cpu &cpu, fs::Inode &inode,
                          std::uint64_t fileBlock,
                          const fs::Extent &oldExtent,
                          const fs::Extent &newExtent) override;
    void onInodeEvict(fs::Inode &inode) override;

    // Accounting ---------------------------------------------------------
    std::uint64_t pmemTableBytes() const
    {
        return pmemFrames_.allocated() * mem::kPageSize;
    }
    std::uint64_t dramTableBytes() const
    {
        return dramFrames_.allocated() * mem::kPageSize;
    }

    fs::FileSystem &fs() { return fs_; }
    const sim::CostModel &cm() const { return cm_; }

    /** Force-unmap callback installed by the DaxVm facade. */
    using ForceUnmap = void (*)(void *ctx, sim::Cpu &cpu, fs::Ino ino);
    void
    setForceUnmap(ForceUnmap fn, void *ctx)
    {
        forceUnmap_ = fn;
        forceUnmapCtx_ = ctx;
    }

    /**
     * Remap-fixup callback installed by the DaxVm facade: after a
     * media repair rewired a block's translation in the shared table,
     * fix stale process-private copies (huge PMD entries) and shoot
     * down every TLB that may cache the retired block's translation.
     */
    using RemapFixup = void (*)(void *ctx, sim::Cpu &cpu, fs::Ino ino,
                                std::uint64_t fileBlock);
    void
    setRemapFixup(RemapFixup fn, void *ctx)
    {
        remapFixup_ = fn;
        remapFixupCtx_ = ctx;
    }

    /**
     * Re-attach callback installed by the DaxVm facade: the table
     * serving @p ino was replaced by one with identical translations
     * (a volatile table rebuilt in PMem), so every live attachment
     * must move to the new table's nodes before the old ones are
     * freed.
     */
    using Reattach = void (*)(void *ctx, sim::Cpu &cpu, fs::Ino ino);
    void
    setReattach(Reattach fn, void *ctx)
    {
        reattach_ = fn;
        reattachCtx_ = ctx;
    }

  private:
    bool persistentPolicy(const fs::Inode &inode) const;
    void buildFromExtents(sim::Cpu *cpu, fs::Inode &inode,
                          InodeTables &tables);
    /**
     * Populate @p table with every block of @p inode's extent map
     * except file blocks [fileBlock, fileBlock + count), the blocks an
     * allocation hook is adding: extendTo may already have merged them
     * into the tail extent, and the hook populates them itself.
     */
    void populateAllBut(sim::Cpu &cpu, const fs::Inode &inode,
                        FileTable &table, std::uint64_t fileBlock,
                        std::uint64_t count);
    /**
     * Open @p inode's update window before a hook's first table write
     * (no-op when the table has no durable image yet).
     */
    void beginUpdate(const fs::Inode &inode);
    /**
     * Complete an update of @p inode's durable table image: fire a
     * TableUpdate fault point inside the window, bump the generation,
     * mark the image unsealed and close the window (or drop the image
     * when the table is volatile). O(1): sealing is deferred.
     */
    void updateImage(const fs::Inode &inode, bool persistent);
    /** Copy @p ino's live layout into @p img and checksum it. */
    void seal(fs::Ino ino, PersistentImage &img) const;

    fs::FileSystem &fs_;
    mem::FrameAllocator &dramFrames_;
    mem::FrameAllocator &pmemFrames_;
    const sim::CostModel &cm_;
    ForceUnmap forceUnmap_ = nullptr;
    void *forceUnmapCtx_ = nullptr;
    RemapFixup remapFixup_ = nullptr;
    void *remapFixupCtx_ = nullptr;
    Reattach reattach_ = nullptr;
    void *reattachCtx_ = nullptr;
    sim::FaultPlan *plan_ = nullptr;
    /** Typed instruments in the file system's registry. */
    sim::Counter tableRebuilds_;
    sim::Counter tableMigrations_;
    sim::Counter tablePopulates_;
    /** ino -> durable image of its persistent table. */
    std::map<fs::Ino, PersistentImage> images_;
};

} // namespace dax::daxvm
