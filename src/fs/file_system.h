/**
 * @file
 * The DAX file system: ext4-DAX and NOVA personalities over the PMem
 * device.
 *
 * Functional: file bytes really live in PMem device memory, the extent
 * tree really maps file blocks to physical blocks, unlink really frees
 * (and pre-zeroing really zeroes) blocks. Timed: every operation
 * charges the calling Cpu according to the cost model.
 *
 * Personality differences (paper Sections III-B, V-B):
 *  - ext4-DAX zeroes newly allocated blocks even on the write-syscall
 *    path; NOVA does not (it zeroes only on fallocate for secure DAX
 *    mmap).
 *  - ext4 metadata commits are serialized jbd2 transactions; NOVA
 *    commits are cheap in-place log appends (MAP_SYNC ~ free).
 */
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fs/block_alloc.h"
#include "fs/inode.h"
#include "fs/journal.h"
#include "fs/path_index.h"
#include "mem/device.h"
#include "sim/cost_model.h"
#include "sim/engine.h"

namespace dax::fs {

/**
 * Degradation policy when a machine check hits file data (the
 * SystemConfig knob; paper-style "memory as a file" robustness):
 *  - FailFast: no repair. The faulting access fails (SIGBUS through
 *    mmap, EIO through read()) and the file block lands on the
 *    inode's durable badblock list until fsck repair punches it out.
 *  - RemapZero: O(1) remap - the poisoned block is retired and
 *    replaced with a fresh zeroed block; lost data reads as zeros.
 *  - RemapRestore: like RemapZero, but the clean 64 B lines of the
 *    old block are salvaged into the replacement first, so only the
 *    poisoned lines themselves read as zeros.
 */
enum class MediaPolicy { FailFast, RemapZero, RemapRestore };

/**
 * EIO surfaced by fs-mediated paths (read(), fsync-covered data) when
 * a media error cannot be repaired under the active policy.
 */
class IoError : public std::exception
{
  public:
    IoError(Ino ino, std::uint64_t fileBlock)
        : ino_(ino), fileBlock_(fileBlock)
    {}

    const char *what() const noexcept override
    {
        return "EIO: uncorrectable media error";
    }

    Ino ino() const { return ino_; }
    std::uint64_t fileBlock() const { return fileBlock_; }

  private:
    Ino ino_;
    std::uint64_t fileBlock_;
};

/**
 * Observer interface for subsystems (DaxVM file tables, the VM layer)
 * that must react to storage (de)allocation.
 */
class FsHooks
{
  public:
    virtual ~FsHooks() = default;

    /** Blocks were just allocated to @p inode at @p fileBlock. */
    virtual void onBlocksAllocated(sim::Cpu &cpu, Inode &inode,
                                   std::uint64_t fileBlock,
                                   const Extent &extent) = 0;

    /**
     * Blocks of @p inode are about to be freed (truncate/unlink).
     * Mappings must be torn down synchronously (paper Section IV-C:
     * "DaxVM maintains safety by synchronously forcing unmappings if
     * storage blocks are reclaimed").
     */
    virtual void onBlocksFreeing(sim::Cpu &cpu, Inode &inode,
                                 std::uint64_t fileBlock,
                                 const Extent &extent) = 0;

    /** The VFS evicted @p inode from its cache (volatile state dies). */
    virtual void onInodeEvict(Inode &inode) = 0;

    /**
     * True while this hook holds a reference that keeps @p inode in
     * the VFS cache, as a VMA's file reference keeps a Linux inode in
     * the icache: eviction skips the inode, so the volatile state that
     * onInodeEvict() would destroy outlives every mapping of it.
     */
    virtual bool holdsInode(const Inode &inode) const
    {
        (void)inode;
        return false;
    }

    /**
     * One file block of @p inode was remapped in place (media-error
     * repair): it now lives at @p newExtent instead of @p oldExtent,
     * with identical file offset. The extent tree is already updated;
     * the old block is being *retired*, not freed - overriders must
     * not return it to the allocator. The default tears down and
     * re-establishes mappings via the free/allocate hooks; DaxVM
     * overrides this with an O(1) file-table entry swap.
     */
    virtual void onBlocksRemapped(sim::Cpu &cpu, Inode &inode,
                                  std::uint64_t fileBlock,
                                  const Extent &oldExtent,
                                  const Extent &newExtent)
    {
        onBlocksFreeing(cpu, inode, fileBlock, oldExtent);
        onBlocksAllocated(cpu, inode, fileBlock, newExtent);
    }
};

/** What FileSystem::recover() found while replaying the journal. */
struct RecoveryReport
{
    /** Inodes restored from the durable metadata image. */
    std::uint64_t inodesRestored = 0;
    /** Blocks claimed by more than one committed extent (corruption). */
    std::uint64_t conflictBlocks = 0;
    /** Dirty (uncommitted) inodes rolled back by the crash. */
    std::uint64_t rolledBack = 0;
};

class FileSystem
{
  public:
    /**
     * @param personality ext4-DAX or NOVA behaviour
     * @param pmem the PMem device holding file data
     * @param dataBase byte offset of the data region within the device
     * @param dataBytes size of the data region
     */
    /**
     * @param metrics shared telemetry registry; when null (standalone
     *        tests) the file system owns a private one
     */
    FileSystem(Personality personality, mem::Device &pmem,
               std::uint64_t dataBase, std::uint64_t dataBytes,
               const sim::CostModel &cm,
               sim::MetricsRegistry *metrics = nullptr);

    Personality personality() const { return journal_.personality(); }

    // ------------------------------------------------------------------
    // Namespace
    // ------------------------------------------------------------------

    /** Create an empty file. @return its inode number. */
    Ino create(sim::Cpu &cpu, const std::string &path);

    /** Remove a file, freeing its blocks. @return false if absent. */
    bool unlink(sim::Cpu &cpu, const std::string &path);

    /** Path -> inode (functional, no timing). */
    std::optional<Ino> lookupPath(const std::string &path) const;

    /** All paths with the given prefix (directory walk), sorted. */
    std::vector<std::string> list(const std::string &prefix) const;

    // ------------------------------------------------------------------
    // Data operations (system-call paths)
    // ------------------------------------------------------------------

    /**
     * DAX write syscall: copies @p len bytes into the file with
     * non-temporal stores (synchronously persistent), allocating blocks
     * past EOF. @p src may be nullptr for cost-only experiments.
     */
    std::uint64_t write(sim::Cpu &cpu, Ino ino, std::uint64_t off,
                        const void *src, std::uint64_t len);

    /** DAX read syscall: copy file bytes into a user buffer. */
    std::uint64_t read(sim::Cpu &cpu, Ino ino, std::uint64_t off,
                       void *dst, std::uint64_t len, bool seq = true);

    /**
     * Allocate blocks for [off, off+len) zeroing them (the secure
     * mmap-append path). @return false on ENOSPC.
     */
    bool fallocate(sim::Cpu &cpu, Ino ino, std::uint64_t off,
                   std::uint64_t len);

    /** Shrink or grow (sparse-free) a file. */
    void ftruncate(sim::Cpu &cpu, Ino ino, std::uint64_t newSize);

    /**
     * Setup-time allocation for workload/aging construction: extends
     * the file without charging zeroing costs (a fresh simulated
     * device is already zero). Not part of the modeled API.
     */
    bool fallocateSetup(Ino ino, std::uint64_t len);

    /** Notify hooks that @p inode is losing its volatile state. */
    void notifyEvict(Inode &inode);

    /** True while a hook holds @p inode (FsHooks::holdsInode()). */
    bool inodeHeld(const Inode &inode) const;

    /**
     * Commit metadata (data is already persistent on DAX writes), after
     * flushing any dirty cache lines still sitting over the file's
     * blocks (Cached stores through a non-MAP_SYNC mapping).
     */
    void fsync(sim::Cpu &cpu, Ino ino);

    // ------------------------------------------------------------------
    // Crash recovery
    // ------------------------------------------------------------------

    /**
     * Post-crash mount: rebuild the namespace, inode table, extent
     * trees and block allocator from the journal's durable metadata
     * image. ext4 replays committed jbd2 transactions; NOVA scans the
     * per-inode logs - both converge to Journal::committedImage().
     * Uncommitted (dirty) metadata rolls back; inodes created but
     * never committed vanish. Untimed (mount-time work).
     *
     * Callers must tear down volatile mapping state (VM, VFS caches)
     * first; per-inode private state is destroyed here.
     */
    RecoveryReport recover();

    /**
     * Offline consistency check: extent trees well-formed and in
     * range, no physical block claimed twice (media-retired blocks
     * count as claims), allocator counters consistent with its maps,
     * namespace and inode table in sync.
     * @return human-readable problems; empty when consistent.
     */
    std::vector<std::string> fsck() const;

    // ------------------------------------------------------------------
    // Media errors
    // ------------------------------------------------------------------

    void setMediaPolicy(MediaPolicy policy) { mediaPolicy_ = policy; }
    MediaPolicy mediaPolicy() const { return mediaPolicy_; }

    /**
     * Handle a machine check raised at physical address @p paddr
     * (line-aligned). Under a remap policy the owning file block is
     * moved to a fresh zeroed block (salvaging clean lines under
     * RemapRestore), the poisoned block is retired, and the change
     * commits synchronously so recovery never resurrects the bad
     * mapping. Under FailFast (or when repair is impossible: unowned
     * block, ENOSPC) the block is recorded on the inode's badblock
     * list instead.
     *
     * @return true when repaired (the caller may retry the access),
     *         false when the error must be reported (SIGBUS / EIO).
     */
    bool handlePoison(sim::Cpu &cpu, std::uint64_t paddr);

    /**
     * Offline repair pass (mount-time fsck): punch every recorded bad
     * file block out of its file - the block becomes a hole reading
     * as zeros, the physical block retires. Untimed.
     * @return file blocks punched.
     */
    std::uint64_t fsckRepair();

    /** Machine checks repaired by remapping (plain counter: kept out
     *  of the metrics registry so fault-free runs stay byte-identical). */
    std::uint64_t mceRepaired() const { return mceRepaired_; }
    /** Machine checks surfaced as EIO/badblock records. */
    std::uint64_t mceFailed() const { return mceFailed_; }

    // ------------------------------------------------------------------
    // Mapping support & introspection
    // ------------------------------------------------------------------

    Inode &inode(Ino ino);
    const Inode &inode(Ino ino) const;
    bool exists(Ino ino) const
    {
        return ino < inodes_.size() && inodes_[ino] != nullptr;
    }

    /**
     * The inode table, indexed by inode number: slot 0 and the slots
     * of unlinked inodes are null. Numbers are issued in ascending
     * order and never reused, so walking the table visits the live
     * inodes in ascending inode number.
     */
    const std::vector<std::unique_ptr<Inode>> &inodeTable() const
    {
        return inodes_;
    }

    /** Physical byte address of @p block. */
    std::uint64_t blockAddr(std::uint64_t block) const
    {
        return alloc_.blockAddr(block);
    }

    /** Charge the extent-tree lookup cost for one offset resolution. */
    void chargeExtentLookup(sim::Cpu &cpu, const Inode &inode) const;

    BlockAllocator &allocator() { return alloc_; }
    Journal &journal() { return journal_; }
    mem::Device &device() { return pmem_; }
    sim::MetricsRegistry &metricsRegistry() { return *metrics_; }

    void addHooks(FsHooks *hooks) { hooks_.push_back(hooks); }
    void removeHooks(FsHooks *hooks);

    /** Zero freshly allocated extents, charging the device. */
    void zeroExtents(sim::Cpu &cpu, const std::vector<Extent> &extents,
                     const std::vector<bool> &alreadyZeroed);

  private:
    /**
     * Allocate blocks so the file covers [off, off+len).
     * @param zeroPolicy whether new blocks must end up zeroed and who
     *        pays (write syscall overwrites them anyway on NOVA)
     * @return newly allocated extents (empty also when nothing needed)
     */
    enum class ZeroPolicy { None, Synchronous };
    bool extendTo(sim::Cpu &cpu, Inode &node, std::uint64_t newBlocks,
                  ZeroPolicy zeroPolicy, bool markUnwritten);

    void freeAll(sim::Cpu &cpu, Inode &node, std::uint64_t fromBlock);

    /** Owner of physical block @p block: (inode, file block). */
    std::optional<std::pair<Ino, std::uint64_t>>
    resolveBlock(std::uint64_t block) const;

    /**
     * Remove @p fileBlock from @p node's extent tree, splitting its
     * covering extent. @return the physical block, nullopt on a hole.
     */
    std::optional<std::uint64_t> punchBlock(Inode &node,
                                            std::uint64_t fileBlock);

    /** Allocate one media-safe zeroed replacement block (see .cc). */
    std::optional<std::uint64_t> allocReplacement(sim::Cpu &cpu, Ino ino,
                                                  std::uint64_t goal);

    /** handlePoison body; the wrapper keeps accounting crash-exact. */
    bool handlePoisonImpl(sim::Cpu &cpu, std::uint64_t paddr);

    /** Record @p fileBlock bad, commit, count the failure. */
    void recordBadBlock(sim::Cpu &cpu, Inode &node,
                        std::uint64_t fileBlock);

    mem::Device &pmem_;
    const sim::CostModel &cm_;
    std::unique_ptr<sim::MetricsRegistry> ownedMetrics_;
    sim::MetricsRegistry *metrics_;
    BlockAllocator alloc_;
    Journal journal_;
    /** See inodeTable(); its size is the next inode number. */
    std::vector<std::unique_ptr<Inode>> inodes_;
    /** Path -> inode over inodes_ (the namespace). */
    PathIndex<> names_;
    std::vector<FsHooks *> hooks_;
    MediaPolicy mediaPolicy_ = MediaPolicy::FailFast;
    /** Plain members, not registry metrics (byte-identity: see above). */
    std::uint64_t mceRepaired_ = 0;
    std::uint64_t mceFailed_ = 0;
    /** Typed hot-path instruments (see sim/metrics.h). */
    struct
    {
        sim::Counter creates;
        sim::Counter unlinks;
        sim::Counter prezeroedBlocks;
        sim::Counter zeroedBlocks;
        sim::Counter blockAllocs;
        sim::Counter blocksFreed;
        sim::Counter writeBytes;
        sim::Counter readBytes;
        sim::Counter fallocates;
        sim::Counter truncates;
        sim::Counter fsyncFlushedLines;
        sim::Counter fsyncs;
        sim::Counter recoveries;
    } counters_;
};

} // namespace dax::fs
