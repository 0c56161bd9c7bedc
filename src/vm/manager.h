/**
 * @file
 * Kernel-wide virtual memory state shared by all address spaces:
 *
 *  - the per-inode reverse-mapping registry (Linux address_space
 *    ->i_mmap): which (AddressSpace, VMA) pairs map each file;
 *  - the per-inode dirty-page interval tree used by kernel-space
 *    dirty tracking (the page-cache tags of paper Section III-A4);
 *  - the FsHooks implementation that zaps mappings synchronously when
 *    the file system reclaims blocks (truncate/unlink safety).
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "arch/perf.h"
#include "arch/shootdown.h"
#include "fs/file_system.h"
#include "fs/interval.h"
#include "mem/frame_alloc.h"
#include "sim/cost_model.h"
#include "sim/locks.h"
#include "sim/metrics.h"

namespace dax::vm {

class AddressSpace;

/**
 * SIGBUS (BUS_MCEERR_AR) delivered to the simulated thread whose load
 * through a DAX mapping hit a poisoned line that the active media
 * policy could not repair. Carries the faulting VA and the poisoned
 * physical line for the harness/workload to report.
 */
class SigBusException : public std::exception
{
  public:
    SigBusException(std::uint64_t va, std::uint64_t paddr)
        : va_(va), paddr_(paddr)
    {}

    const char *what() const noexcept override
    {
        return "SIGBUS: uncorrectable media error in mapped page";
    }

    std::uint64_t va() const { return va_; }
    std::uint64_t paddr() const { return paddr_; }

  private:
    std::uint64_t va_;
    std::uint64_t paddr_;
};

class VmManager : public fs::FsHooks
{
  public:
    /**
     * @param metrics shared telemetry registry; when null (standalone
     *        tests) the manager owns a private one
     */
    VmManager(const sim::CostModel &cm, arch::ShootdownHub &hub,
              fs::FileSystem &fs, mem::FrameAllocator &dramMeta,
              mem::Device &dram, sim::MetricsRegistry *metrics = nullptr);
    ~VmManager() override;

    // ------------------------------------------------------------------
    // Reverse mapping (i_mmap)
    // ------------------------------------------------------------------
    void registerMapping(fs::Ino ino, AddressSpace *as,
                         std::uint64_t vmaStart);
    void unregisterMapping(fs::Ino ino, AddressSpace *as,
                           std::uint64_t vmaStart);

    struct MappingRef
    {
        AddressSpace *as;
        std::uint64_t vmaStart;
    };

    const std::vector<MappingRef> &mappingsOf(fs::Ino ino) const;

    // ------------------------------------------------------------------
    // Kernel dirty tracking
    // ------------------------------------------------------------------

    /** Tag [startPage, startPage+count) of @p ino dirty (radix tag). */
    void markDirty(sim::Cpu &cpu, fs::Ino ino, std::uint64_t startPage,
                   std::uint64_t count);

    /**
     * Dirty intervals of a file in 4 KB file pages, startPage -> count
     * (empty when clean).
     */
    const fs::IntervalMap &dirtyOf(fs::Ino ino) const;

    /** Total dirty 4 KB pages of @p ino. */
    std::uint64_t dirtyPages(fs::Ino ino) const;

    /**
     * Kernel sync of @p ino's mapped dirty data in [off, off+len):
     * flush CPU cache lines for dirty intervals, write-protect the
     * pages again in every mapping process (with shootdowns), clear
     * the tags, and commit metadata.
     */
    void syncFile(sim::Cpu &cpu, fs::Ino ino, std::uint64_t off,
                  std::uint64_t len);

    // ------------------------------------------------------------------
    // FsHooks: storage reclamation safety
    // ------------------------------------------------------------------
    void onBlocksAllocated(sim::Cpu &cpu, fs::Inode &inode,
                           std::uint64_t fileBlock,
                           const fs::Extent &extent) override;
    void onBlocksFreeing(sim::Cpu &cpu, fs::Inode &inode,
                         std::uint64_t fileBlock,
                         const fs::Extent &extent) override;
    void onInodeEvict(fs::Inode &inode) override;
    /** A mapped inode stays cached (its file tables stay attached). */
    bool
    holdsInode(const fs::Inode &inode) const override
    {
        return !mappingsOf(inode.ino).empty();
    }

    // Plumbing -----------------------------------------------------------
    const sim::CostModel &cm() const { return cm_; }
    arch::ShootdownHub &hub() { return hub_; }
    fs::FileSystem &fs() { return fs_; }
    mem::FrameAllocator &dramMeta() { return dramMeta_; }
    mem::Device &dram() { return dram_; }
    sim::MetricsRegistry &metricsRegistry() { return *metrics_; }

    /** Typed hot-path instruments (see sim/metrics.h). */
    struct VmCounters
    {
        sim::Counter mmap;
        sim::Counter munmap;
        sim::Counter mprotect;
        sim::Counter forks;
        sim::Counter mremap;
        sim::Counter mremapMoves;
        sim::Counter msyncNoop;
        sim::Counter dirtyTags;
        sim::Counter syncWholeFile;
        sim::Counter syncFlushedPages;
        sim::Counter syncs;
        sim::Counter truncateZaps;
        sim::Counter majorFaults;
        sim::Counter faults;
        sim::Counter daxvmWpFaults;
        sim::Counter wpFaults;
        sim::Counter populates;
        sim::LatencyHistogram faultNs;
    };
    VmCounters &counters() { return counters_; }

    /**
     * Live address-space tracking: AddressSpace registers itself at
     * construction and deposits its mmap_sem LockStats and MMU perf
     * counters here at destruction, so the "vm.mmap_sem.*" and
     * "arch.mmu.*" gauges aggregate across live and retired processes.
     */
    void registerSpace(AddressSpace *as) { spaces_.insert(as); }
    void unregisterSpace(AddressSpace *as);

    /** Live address spaces, for invariant checkers. */
    const std::set<AddressSpace *> &spaces() const { return spaces_; }

    /**
     * Inodes with reverse-mapping state, in ascending inode number, for
     * invariant checkers.
     */
    std::vector<fs::Ino>
    mappedInodes() const
    {
        std::vector<fs::Ino> inos;
        inos.reserve(inodeVm_.size());
        for (const auto &[ino, state] : inodeVm_)
            inos.push_back(ino);
        std::sort(inos.begin(), inos.end());
        return inos;
    }

    /** Invariant-check observer fired after each munmap. */
    void setCheckHook(sim::CheckHook *hook) { checkHook_ = hook; }
    sim::CheckHook *checkHook() const { return checkHook_; }

    /** Next ASID for a new address space. */
    arch::Asid nextAsid() { return nextAsid_++; }

    /**
     * Machine checks delivered as SIGBUS through mapped accesses.
     * Plain member, not a registry counter: fault-free runs must stay
     * byte-identical in the stats dump.
     */
    void noteMceSigbus() { mceSigbus_++; }
    std::uint64_t mceSigbus() const { return mceSigbus_; }

    /** Global huge-page policy (Fig. 6 turns huge pages off). */
    bool hugePagesEnabled() const { return hugePages_; }
    void setHugePagesEnabled(bool enabled) { hugePages_ = enabled; }

    /**
     * Host-side fast-path policy inherited by new address spaces
     * (page-table walk cache, last-hit VMA cache). Observationally
     * pure either way; the escape hatch exists so the
     * golden-equivalence test can prove it.
     */
    bool hostFastPaths() const { return hostFastPaths_; }
    void setHostFastPaths(bool enabled) { hostFastPaths_ = enabled; }

    /**
     * Crash: reverse mappings and dirty tags are volatile kernel
     * state - forget them. Surviving AddressSpace objects must be
     * destroyed by the harness (their processes died with the power);
     * a late unregisterMapping on the emptied registry is a no-op.
     */
    void resetVolatile() { inodeVm_.clear(); }

  private:
    struct InodeVm
    {
        std::vector<MappingRef> mappings;
        fs::IntervalMap dirty;
    };

    InodeVm &inodeVm(fs::Ino ino) { return inodeVm_[ino]; }

    const sim::CostModel &cm_;
    arch::ShootdownHub &hub_;
    fs::FileSystem &fs_;
    mem::FrameAllocator &dramMeta_;
    mem::Device &dram_;
    std::unique_ptr<sim::MetricsRegistry> ownedMetrics_;
    sim::MetricsRegistry *metrics_;
    /**
     * Reverse-mapping state per inode. An entry with no mapping and no
     * dirty tag behaves exactly like a missing one; onInodeEvict()
     * erases such an entry when its inode leaves the VFS cache or is
     * unlinked.
     */
    std::unordered_map<fs::Ino, InodeVm> inodeVm_;
    sim::CheckHook *checkHook_ = nullptr;
    arch::Asid nextAsid_ = 1;
    std::uint64_t mceSigbus_ = 0;
    bool hugePages_ = true;
    bool hostFastPaths_ = true;
    VmCounters counters_;
    std::set<AddressSpace *> spaces_;
    sim::LockStats retiredSemRead_;
    sim::LockStats retiredSemWrite_;
    arch::MmuPerf retiredPerf_;
    sim::Time retiredExecNs_ = 0;

    static const std::vector<MappingRef> kNoMappings;
    static const fs::IntervalMap kNoDirty;
};

} // namespace dax::vm
