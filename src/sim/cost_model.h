/**
 * @file
 * Calibrated latency/bandwidth constants for the simulated platform.
 *
 * The platform modeled is the paper's testbed: a Cascade Lake socket at
 * a fixed 2.7 GHz, 94 GB DRAM and 384 GB (3 DIMM) Intel Optane DCPMM in
 * AppDirect mode. Constants are taken from:
 *
 *  - the paper itself (Table II page-walk cycles; Section III
 *    measurements such as the 30-40% zeroing share of appends),
 *  - Yang et al., "An Empirical Guide to the Behavior and Use of
 *    Scalable Persistent Memory", FAST'20 (Optane latencies, per-thread
 *    and device bandwidths, ntstore vs. clwb behaviour),
 *  - published Linux microbenchmarks for syscall/fault/IPI costs.
 *
 * Every constant is a plain member so experiments can override it; the
 * defaults are what all benches use. CostModel is passed by const
 * reference everywhere - there is exactly one per simulated System.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace dax::sim {

/** Bandwidth in bytes per nanosecond (numerically equal to GB/s). */
using Bw = double;

struct CostModel
{
    // ------------------------------------------------------------------
    // Kernel entry / generic software paths
    // ------------------------------------------------------------------
    /** User->kernel->user crossing for a trivial syscall. */
    Time syscall = 180;
    /** Trap + handler entry/exit of a page fault (before any work). */
    Time faultEntry = 550;
    /** Path lookup + dentry work of open() for a cached path. */
    Time openBase = 900;
    /** close() teardown. */
    Time closeBase = 250;
    /** Extra open() work on a VFS inode-cache miss (load inode). */
    Time coldOpenExtra = 1500;

    // ------------------------------------------------------------------
    // Virtual memory bookkeeping (all charged while mmap_sem is held)
    // ------------------------------------------------------------------
    /** Find free virtual range + allocate & link a VMA (rb-tree). */
    Time vmaAlloc = 420;
    /** Unlink + free a VMA. */
    Time vmaFree = 320;
    /** Split or merge a VMA (partial munmap / mprotect). */
    Time vmaSplit = 380;
    /** Install one 4 KB PTE (demand fault or populate). */
    Time pteSet = 90;
    /** Install one 2 MB PMD entry. */
    Time pmdSet = 110;
    /** Clear one PTE on unmap. */
    Time pteClear = 60;
    /** Allocate/free one page-table page (DRAM). */
    Time ptPageAlloc = 260;
    /** Software dirty-tracking: radix-tree tag + mapping lock. */
    Time dirtyTag = 240;
    /**
     * Contended rwsem acquire/release atomics (cacheline bouncing):
     * charged inside each writer critical section (twice) and once per
     * reader acquisition of mm->mmap_sem.
     */
    Time rwsemWriterAtomics = 400;
    Time rwsemReaderAtomics = 150;
    /** Write-protect one PTE during sync (restart dirty tracking). */
    Time wrProtect = 110;

    // ------------------------------------------------------------------
    // Fault path file-system work
    // ------------------------------------------------------------------
    /** Per-extent-tree-node lookup translating file offset->block. */
    Time extentLookup = 160;
    /** Journal transaction commit (ext4-DAX, jbd2). */
    Time journalCommit = 9000;
    /** NOVA log-entry append + commit (much cheaper, in-place meta). */
    Time novaLogCommit = 700;
    /** Block (de)allocation in the FS allocator, per extent. */
    Time blockAllocOp = 600;

    // ------------------------------------------------------------------
    // TLB and shootdowns
    // ------------------------------------------------------------------
    /** TLB lookup (charged 0; hits are folded into access bandwidth). */
    Time tlbLookup = 0;
    /** Local INVLPG of one page. */
    Time invlpg = 120;
    /** Local full TLB flush (CR3 write). */
    Time fullFlushLocal = 450;
    /** Initiating a shootdown IPI broadcast (fixed cost). */
    Time ipiBase = 1600;
    /** Additional initiator cost per remote core ack'ing. */
    Time ipiPerCore = 350;
    /** Work stolen from each interrupted remote core per IPI. */
    Time ipiRemoteDisruption = 500;
    /**
     * Linux batches per-page invalidations up to this many pages in a
     * single munmap, then prefers a full flush (x86: 33).
     */
    unsigned tlbFlushThreshold = 33;

    // ------------------------------------------------------------------
    // Page walks (calibrated to paper Table II)
    // ------------------------------------------------------------------
    /** Upper levels of the walk (PGD/PUD/PMD) hitting paging caches. */
    Time walkUpperLevels = 8;
    /** Leaf PTE fetch when the PTE cache line misses, tables in DRAM. */
    Time walkLeafDram = 33;
    /** Leaf PTE fetch when the PTE cache line misses, tables in PMem. */
    Time walkLeafPmem = 296;
    /**
     * Probability denominator that a sequential walk hits the cached
     * PTE line: 8 PTEs (64 B line) per line, so 7 of 8 sequential
     * misses hit the line fetched by their neighbour.
     */
    unsigned ptesPerCacheLine = 8;

    // ------------------------------------------------------------------
    // Memory devices
    // ------------------------------------------------------------------
    /** DRAM random 64 B load latency. */
    Time dramLoadLat = 85;
    /** PMem (Optane) random 64 B load latency. */
    Time pmemLoadLat = 305;
    /** Per-core sequential read bandwidth from DRAM (AVX-512). */
    Bw dramReadBwCore = 12.0;
    /** Per-core write bandwidth to DRAM. */
    Bw dramWriteBwCore = 9.0;
    /** Device-level DRAM bandwidth (6 channels). */
    Bw dramDeviceBw = 100.0;
    /** Per-core sequential read bandwidth from PMem (AVX-512). */
    Bw pmemReadBwCore = 6.0;
    /** Per-core ntstore bandwidth to PMem. */
    Bw pmemNtStoreBwCore = 2.2;
    /** Per-core store+clwb bandwidth to PMem (~half of ntstore). */
    Bw pmemClwbBwCore = 1.1;
    /** Device-level PMem read bandwidth (3 DIMMs). */
    Bw pmemDeviceReadBw = 26.0;
    /** Device-level PMem write bandwidth (3 DIMMs). */
    Bw pmemDeviceWriteBw = 6.8;
    /**
     * Kernel copies cannot use AVX-512 (register save/restore at the
     * boundary - paper Section III-C) and use memcpy_mcsafe on PMem;
     * they run at this fraction of the user-space bandwidth.
     */
    double kernelCopyFactor = 0.55;
    /** clwb + sfence of a single dirtied cache line. */
    Time clwbLine = 60;
    /**
     * Machine-check delivery for a poisoned-line load: #MC trap, MCE
     * bank decode and memory_failure() bookkeeping before any repair
     * or signal work (Linux MCE handler, order-of-microseconds).
     */
    Time mceHandle = 5000;

    // ------------------------------------------------------------------
    // DaxVM specifics
    // ------------------------------------------------------------------
    /** Attach/detach one PMD/PUD slot of a file table. */
    Time tableAttach = 120;
    /** Ephemeral-heap bump allocation (atomics, no rb-tree). */
    Time ephemeralAlloc = 90;
    /** Ephemeral VMA list insert/remove under its spinlock. */
    Time ephemeralListOp = 70;
    /** Persist one cache line of file-table PTEs (clwb+fence, batched). */
    Time tablePersistLine = 80;
    /** Default zombie-page batch before a deferred full flush. */
    unsigned asyncUnmapBatchPages = 33;
    /** File sizes below this keep volatile-only file tables. */
    std::uint64_t volatileTableMax = 32 * 1024;
    /** Monitor rule (paper Table III). */
    double monitorWalkCycleThreshold = 200.0;
    double monitorMmuOverheadThreshold = 0.05;
    /** Pre-zero daemon default bandwidth throttle (bytes/ns == GB/s). */
    Bw prezeroThrottle = 1.0;

    // ------------------------------------------------------------------
    // Application-side constants (workload models)
    // ------------------------------------------------------------------
    /** Per-request HTTP parse/respond compute (Apache model). */
    Time httpRequestOverhead = 15000;
    /** Socket write syscall overhead per request. */
    Time socketSyscall = 700;
    /** TCP accept + fd/session setup for one new client connection. */
    Time tcpAccept = 4200;
    /** Per-file string-search compute per byte (ag model), ns/byte. */
    double searchNsPerByte = 0.08;

    // Derived helpers --------------------------------------------------

    /** Cost of copying @p bytes at @p bw GB/s. */
    static Time
    xfer(std::uint64_t bytes, Bw bw)
    {
        return static_cast<Time>(static_cast<double>(bytes) / bw + 0.5);
    }

    /** Shootdown initiator cost for @p remoteCores responders. */
    Time
    shootdownInitiator(unsigned remoteCores) const
    {
        return remoteCores == 0 ? 0 : ipiBase + ipiPerCore * remoteCores;
    }
};

/**
 * Check internal consistency of a cost model.
 * @return human-readable problems; empty when the model is usable.
 */
std::vector<std::string> validateCostModel(const CostModel &cm);

} // namespace dax::sim
