/**
 * @file
 * x86-64 radix page tables with DaxVM attachment support.
 *
 * Nodes are 4 KB frames allocated from a device (process tables in
 * DRAM; DaxVM persistent file tables in PMem) whose 512 entries are
 * stored functionally in device bytes. A host-side child-pointer mirror
 * accelerates traversal; for persistent tables the mirror can be
 * rebuilt from device bytes after a simulated crash.
 *
 * DaxVM's O(1) mmap is implemented literally: attach() points an
 * interior slot of a process tree at a node owned by a shared file
 * table, with per-process permission bits kept on the attachment entry.
 * Translation applies the minimum permissions across levels, as the
 * x86 walker does.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "arch/pte.h"
#include "arch/walk_cache.h"
#include "mem/device.h"
#include "mem/frame_alloc.h"

namespace dax::arch {

/** One radix-tree node (a 4 KB table page). */
struct Node
{
    mem::Device *dev = nullptr;
    mem::FrameAllocator *frames = nullptr;
    mem::Paddr frame = 0;
    /** Interior mirror; nullptr for leaf (PTE-level) nodes. */
    std::array<Node *, kEntriesPerNode> child{};
    /** Owned by a shared file table: never freed by a process tree. */
    bool shared = false;

    Pte entry(unsigned idx) const
    {
        return dev->loadWord(frame + idx * sizeof(Pte));
    }

    void setEntry(unsigned idx, Pte e)
    {
        dev->storeWord(frame + idx * sizeof(Pte), e);
    }
};

/** Result of a functional translation. */
struct WalkResult
{
    bool present = false;
    /** Physical address of the byte translated. */
    std::uint64_t paddr = 0;
    /** True when the frame is DRAM (vs PMem). */
    bool dram = false;
    /** log2 of the page size backing the translation (12 or 21 or 30). */
    unsigned pageShift = 12;
    /** Effective writability: AND across all levels. */
    bool writable = false;
    /** Leaf table resides in DRAM (walk timing). */
    bool leafInDram = true;
    /** Leaf PTE physical location (walker cache-line model). */
    std::uint64_t leafPteAddr = 0;
    /** Levels traversed (4 normal, fewer for huge mappings). */
    int levelsTouched = 0;
    /**
     * PTE-level node the walk ended in, as the table's walk cache
     * records it. Only set when the walk reached PTE level (huge
     * leaves stay null) through interior nodes owned by the walked
     * table. The node itself may be shared: a file-table PTE page
     * attached at PMD level, whose owner only rewrites its entries. A
     * shared interior node (a PUD-level attachment, whose owner
     * re-points its entries) leaves it null.
     */
    const Node *pteNode = nullptr;
    /** AND of writability across interior levels (leaf excluded). */
    bool upperWritable = false;

    bool operator==(const WalkResult &) const = default;
};

class PageTable
{
  public:
    /**
     * @param meta frame source for owned nodes (typically DRAM).
     * @param walkCache enable the host-side walk cache. Purely a
     * host-time optimization: every WalkResult and so every simulated
     * cost is bit-identical either way (SystemConfig::hostFastPaths /
     * DAXVM_HOST_FAST=0 is the escape hatch, proven by the
     * golden-equivalence test).
     */
    explicit PageTable(mem::FrameAllocator &meta, bool walkCache = true);
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /**
     * Install a translation of size 4 KB (level 0), 2 MB or 1 GB.
     * @param va page-aligned virtual address
     * @param pa physical address with pte::kSoftDram tag when DRAM
     * @param level kPteLevel, kPmdLevel or kPudLevel
     * @param flags extra PTE flags (kWrite, kSoftDirtyTracked, ...)
     * @return number of table pages newly allocated on the path
     */
    unsigned map(std::uint64_t va, std::uint64_t pa, int level, Pte flags);

    /**
     * Clear a translation; @return the old entry (0 when absent).
     * Empty interior nodes are *not* eagerly freed (matching Linux).
     */
    Pte clear(std::uint64_t va, int level);

    /** Update flag bits of an existing entry (e.g. drop kWrite). */
    bool setFlags(std::uint64_t va, int level, Pte set, Pte clearMask);

    /**
     * Functional translation of @p va. Starts at the cached leaf table
     * when the walk cache holds the path.
     */
    WalkResult lookup(std::uint64_t va) const;

    /**
     * The same translation walked from the root, never reading or
     * filling the walk cache: the independent oracle that checkers
     * compare cached state against.
     */
    WalkResult walkFromRoot(std::uint64_t va) const;

    /**
     * Attach a foreign (file-table) node at @p level of the tree:
     * level 1 attaches a PTE node under a PMD slot (2 MB granule),
     * level 2 attaches a PMD node under a PUD slot (1 GB granule).
     * @param writable per-process max permission kept on this entry
     * @return table pages newly allocated building the private path
     */
    unsigned attach(std::uint64_t va, int level, Node *foreign,
                    bool writable);

    /** Detach a previously attached node. @return it (or nullptr). */
    Node *detach(std::uint64_t va, int level);

    /** The foreign node attached at @p va/@p level (nullptr if none). */
    Node *attachedNode(std::uint64_t va, int level);

    /** Change the permission bits of an attachment entry. */
    bool setAttachmentWritable(std::uint64_t va, int level, bool writable);

    /** Table pages currently owned by this tree (excl. attachments). */
    std::uint64_t ownedNodes() const { return ownedNodes_; }

    /**
     * Structural generation: bumped whenever interior structure that a
     * cached walk path may have captured changes (huge or interior
     * entries mapped, cleared or re-flagged, attach/detach, attachment
     * permission flips). Leaf PTE mutations do not bump it -- cached
     * paths re-read the leaf entry from device bytes on every use --
     * and neither does growing a new path, which no cached path
     * crosses.
     */
    std::uint64_t structureGen() const { return structureGen_; }

    Node *root() { return root_; }
    const Node *root() const { return root_; }

    /** Host-side walk cache (diagnostics for tests). */
    const WalkCache &walkCache() const { return walkCache_; }

  private:
    Node *newNode(bool leaf);
    void freeTree(Node *node, int level);
    /** Walk to the node holding the entry for @p va at @p level. */
    Node *walkTo(std::uint64_t va, int level, bool create,
                 unsigned *newPages);
    /**
     * Translate @p va from @p node at @p level, reached through
     * upper levels whose writability AND is @p writable. With
     * @p fillCache, a path to the leaf table through private interior
     * nodes is recorded in the walk cache.
     */
    WalkResult walkDown(std::uint64_t va, Node *node, int level,
                        bool writable, bool fillCache) const;

    mem::FrameAllocator &meta_;
    Node *root_;
    std::uint64_t ownedNodes_ = 0;
    std::uint64_t structureGen_ = 0;
    bool cacheOn_;
    /** Filled by lookup(), which is const: host state only. */
    mutable WalkCache walkCache_;
};

} // namespace dax::arch
