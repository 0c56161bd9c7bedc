/**
 * @file
 * Metadata persistence model: ext4's jbd2 journal vs NOVA's per-inode
 * log.
 *
 * The behavioural difference that drives the paper's YCSB results: on
 * ext4-DAX, committing dirty metadata is a heavyweight, globally
 * serialized journal transaction (MAP_SYNC first-write faults trigger
 * it synchronously); on NOVA, metadata updates commit in place with a
 * cheap log append, making MAP_SYNC effectively free.
 *
 * The journal is also the *durable metadata image*: each commit
 * captures a snapshot of the inode's metadata (path, size, extent
 * tree, unwritten set). After a power failure, FileSystem::recover()
 * replays this image - committed transactions survive, uncommitted
 * in-memory changes roll back, inodes created but never committed
 * vanish. ext4 replays the journal; NOVA scans per-inode logs; both
 * converge to the same committed image, they differ in commit cost.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "fs/inode.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/locks.h"
#include "sim/metrics.h"

namespace dax::fs {

enum class Personality { Ext4Dax, Nova };

/** Durable (committed) metadata of one inode. */
struct InodeRecord
{
    std::string path;
    std::uint64_t size = 0;
    std::map<std::uint64_t, Extent> extents;
    IntervalMap unwritten;
    /** Committed media-error list (see Inode::badBlocks). */
    IntervalMap badBlocks;
    std::uint64_t allocatedCount = 0;
};

class Journal
{
  public:
    Journal(Personality personality, const sim::CostModel &cm)
        : personality_(personality), cm_(cm), lock_("jbd2")
    {}

    Personality personality() const { return personality_; }

    /**
     * Install the inode resolver used to capture commit snapshots
     * (FileSystem wires this at construction). Without a resolver the
     * journal degrades to cost-only commits (no durable image).
     */
    using Resolver = std::function<const Inode *(Ino)>;
    void setResolver(Resolver resolver)
    {
        resolver_ = std::move(resolver);
    }

    /** Observe commit boundaries for crash injection (may be null). */
    void setFaultPlan(sim::FaultPlan *plan) { plan_ = plan; }

    /**
     * Record per-commit latency (lock wait included) as the
     * "fs.journal.commit_ns" histogram in @p registry. Optional: an
     * unbound journal skips the recording.
     */
    void bindMetrics(sim::MetricsRegistry &registry)
    {
        commitNs_ = registry.histogram("fs.journal.commit_ns");
    }

    /** Record that @p ino has uncommitted metadata. */
    void markDirty(Ino ino)
    {
        const std::size_t word = ino / 64;
        if (word >= dirty_.size())
            dirty_.resize(word + 1);
        const std::uint64_t bit = std::uint64_t{1} << (ino % 64);
        if ((dirty_[word] & bit) != 0)
            return;
        dirty_[word] |= bit;
        dirtyCount_++;
        dirtyLo_ = std::min(dirtyLo_, word);
        dirtyHi_ = std::max(dirtyHi_, word + 1);
    }

    bool isDirty(Ino ino) const
    {
        const std::size_t word = ino / 64;
        return word < dirty_.size()
            && (dirty_[word] >> (ino % 64) & 1) != 0;
    }

    /**
     * Commit @p ino's metadata. ext4: serialized jbd2 transaction
     * (expensive); NOVA: cheap in-place log append. No-op when clean.
     * The committed snapshot becomes part of the durable image.
     */
    void commit(sim::Cpu &cpu, Ino ino);

    /**
     * Commit the removal of @p ino (unlink): charges a transaction
     * and erases the inode from the durable image.
     */
    void commitErase(sim::Cpu &cpu, Ino ino);

    /**
     * Commit everything (unmount / global sync). On ext4 the dirty
     * inodes batch into a single jbd2 transaction (group commit: one
     * journalCommit charge for N inodes); NOVA appends per-inode log
     * entries as usual.
     */
    void commitAll(sim::Cpu &cpu);

    // Recovery ----------------------------------------------------------

    /** The durable image: ino -> last committed metadata. */
    const std::map<Ino, InodeRecord> &committedImage() const
    {
        return committed_;
    }

    /** Forget dirty state after a crash (nothing is dirty on mount). */
    void clearDirty()
    {
        resetDirty();
        pendingRetired_.clear();
    }

    /**
     * Record a media-retired physical extent on behalf of @p ino. The
     * record becomes durable atomically with @p ino's next snapshot
     * (the commit where the inode stops referencing the blocks): a
     * crash before that commit rolls both back together, so a
     * half-done repair re-runs cleanly after recovery, and a torn
     * image can never claim a block both retired and file-owned.
     */
    void recordRetired(Ino ino, const Extent &extent)
    {
        pendingRetired_[ino].push_back(extent);
    }

    /** Durable retired-block set (committed records only). */
    std::vector<Extent> retiredImage() const;

    // Introspection -----------------------------------------------------

    /** Committed transactions (a group commit counts once). */
    std::uint64_t commits() const { return commits_; }
    /** Inodes committed through group commits (batching stat). */
    std::uint64_t batchedInodes() const { return batchedInodes_; }
    std::size_t dirtyCount() const { return dirtyCount_; }
    const sim::Mutex &lock() const { return lock_; }

    /** Invariant-check observer fired after each commit. */
    void setCheckHook(sim::CheckHook *hook) { checkHook_ = hook; }

    /** Installed fault plan (recovery-replay double-fault injection). */
    sim::FaultPlan *faultPlan() const { return plan_; }

  private:
    /** Charge one commit and fire the matching fault event. */
    void chargeCommit(sim::Cpu &cpu);
    void snapshot(Ino ino);
    /** Make @p ino's pending retired records durable (see above). */
    void mergeRetired(Ino ino);
    void clearDirtyBit(Ino ino);
    /** The dirty inodes in ascending order (a group-commit batch). */
    std::vector<Ino> dirtyBatch() const;
    /** Empty the dirty set. */
    void resetDirty();

    Personality personality_;
    const sim::CostModel &cm_;
    sim::Mutex lock_;
    Resolver resolver_;
    sim::FaultPlan *plan_ = nullptr;
    sim::CheckHook *checkHook_ = nullptr;
    /**
     * The dirty set: bit (ino % 64) of word (ino / 64) is set while
     * that inode has uncommitted metadata. Inode numbers are dense, so
     * marking and clearing are O(1) and a batch is read in ascending
     * order. Only words [dirtyLo_, dirtyHi_) may hold a set bit, so a
     * commit scans the range its batch spans, not every inode number
     * ever issued.
     */
    std::vector<std::uint64_t> dirty_;
    std::size_t dirtyCount_ = 0;
    std::size_t dirtyLo_ = SIZE_MAX;
    std::size_t dirtyHi_ = 0;
    std::map<Ino, InodeRecord> committed_;
    /** Retired extents awaiting their inode's commit (volatile). */
    std::map<Ino, std::vector<Extent>> pendingRetired_;
    /** Committed retired set, coalesced (durable). */
    IntervalMap retired_;
    std::uint64_t commits_ = 0;
    std::uint64_t batchedInodes_ = 0;
    sim::LatencyHistogram commitNs_;
};

} // namespace dax::fs
