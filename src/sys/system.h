/**
 * @file
 * System: assembles devices, MMUs, file system, VM layer, DaxVM and
 * baselines into one simulated machine. This is the top of the public
 * API: examples, tests and benches construct a System, create
 * processes and drive workloads on the engine.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/shootdown.h"
#include "arch/tlb.h"
#include "daxvm/api.h"
#include "daxvm/file_table.h"
#include "daxvm/prezero.h"
#include "fs/aging.h"
#include "fs/file_system.h"
#include "fs/vfs.h"
#include "latr/latr.h"
#include "mem/device.h"
#include "mem/frame_alloc.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "vm/address_space.h"
#include "vm/manager.h"

namespace dax::check {
class Oracle;
}

namespace dax::sys {

struct SystemConfig
{
    /** Simulated cores (paper socket: 16). */
    unsigned cores = 16;
    /** PMem data region (file system) size. */
    std::uint64_t pmemBytes = 4ULL << 30;
    /** PMem region reserved for persistent DaxVM file tables. */
    std::uint64_t pmemTableBytes = 256ULL << 20;
    /** DRAM metadata region (process page tables, volatile tables). */
    std::uint64_t dramBytes = 2ULL << 30;
    mem::Backing backing = mem::Backing::Sparse;
    fs::Personality personality = fs::Personality::Ext4Dax;
    /** Instantiate the DaxVM subsystem (file tables, daxvm_mmap). */
    bool daxvm = true;
    /** Divert frees to the asynchronous pre-zero daemon. */
    bool prezero = true;
    /**
     * Free-space strategy for the data-block allocator
     * (docs/performance.md "Allocator strategies"). FirstFit keeps
     * every current bench byte-identical; Segregated gives O(1)
     * expected alloc/free on aged images (placement may differ).
     */
    fs::AllocPolicy blockAllocPolicy = fs::AllocPolicy::FirstFit;
    /**
     * Frame-recycling strategy for the metadata frame allocators
     * (DRAM page tables, PMem DaxVM file tables). Buddy keeps 2 MB
     * runs intact. The DAXVM_ALLOC environment knob overrides both
     * allocator policies: a comma-separated list of
     * "first-fit" | "segregated" (blocks) and "lifo" | "buddy"
     * (frames), e.g. DAXVM_ALLOC=segregated,buddy.
     */
    mem::FramePolicy framePolicy = mem::FramePolicy::Lifo;
    /** VFS inode cache capacity (0 = unlimited). */
    std::size_t inodeCacheCapacity = 1 << 16;
    /**
     * Degradation policy for uncorrectable media errors (see
     * docs/robustness.md): fail fast with EIO/SIGBUS, remap to a
     * zeroed frame, or remap and restore salvageable lines.
     */
    fs::MediaPolicy mediaPolicy = fs::MediaPolicy::FailFast;
    /**
     * Cross-layer invariant checking (see check/check.h): 0 = off,
     * 1 = strided sweeps (bench), 2 = every event (tests). When 0,
     * the DAXVM_CHECK environment variable is consulted instead.
     */
    int checkLevel = 0;
    /**
     * Host-side fast paths (per-core walk cache, per-process VMA
     * cache). Purely host-time: simulated output is bit-identical
     * either way (docs/performance.md). The escape hatch exists for
     * the golden-equivalence test and for bisecting host-perf issues;
     * DAXVM_HOST_FAST=0 in the environment also disables them.
     */
    bool hostFastPaths = true;
    /**
     * Host threads running the engine. Only 0 and 1 are accepted (the
     * engine is sequential); System throws std::invalid_argument on
     * anything else.
     */
    unsigned simThreads = 0;
    sim::CostModel cm;
};

/** Volatile state discarded by System::crash(). */
struct CrashReport
{
    /** Dirty (unflushed) PMem cache lines lost. */
    std::uint64_t dirtyLinesLost = 0;
    /** Blocks forgotten from the prezero daemon's pending lists. */
    std::uint64_t prezeroPendingLost = 0;
};

/** Combined result of System::recover(). */
struct RecoverReport
{
    fs::RecoveryReport fs;
    daxvm::TableRecovery tables;
    /** Pre-crash zeroed-pool blocks that re-verified zero. */
    std::uint64_t zeroedReadmitted = 0;
    /** Pre-crash zeroed-pool blocks demoted to plain free. */
    std::uint64_t zeroedDemoted = 0;
};

class System
{
  public:
    explicit System(const SystemConfig &config);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    // Subsystem access ---------------------------------------------------
    sim::Engine &engine() { return engine_; }
    mem::Device &pmem() { return pmem_; }
    mem::Device &dram() { return dram_; }
    fs::FileSystem &fs() { return fs_; }
    fs::Vfs &vfs() { return vfs_; }
    vm::VmManager &vmm() { return *vmm_; }
    arch::ShootdownHub &hub() { return hub_; }
    daxvm::DaxVm *dax() { return dax_.get(); }
    daxvm::FileTableManager *fileTables() { return ftm_.get(); }
    daxvm::PrezeroDaemon *prezeroDaemon() { return prezero_.get(); }
    latr::Latr &latr() { return *latr_; }
    /** The invariant oracle; null unless checking is enabled. */
    check::Oracle *oracle() { return oracle_.get(); }
    const SystemConfig &config() const { return config_; }
    const sim::CostModel &cm() const { return config_.cm; }

    /** The system-wide telemetry registry all subsystems publish to. */
    sim::MetricsRegistry &metrics() { return metrics_; }

    /**
     * One rolled-up snapshot of every instrument in the system: runs
     * the collectors (device channels, lock stats, pool depths, MMU
     * perf) and returns counters, gauges and histograms by name.
     */
    sim::MetricsSnapshot snapshotMetrics() { return metrics_.snapshot(); }

    /**
     * Start windowed time-series telemetry (docs/metrics.md): interval
     * snapshots of the registry rolled per virtual-time window. Call
     * before the measured phase; workloads that support timelines
     * (open-loop servers) tick it as requests complete.
     */
    void enableTimeline(const sim::MetricsTimeline::Config &cfg);

    /** The windowed timeline, or null when enableTimeline() was not called. */
    sim::MetricsTimeline *timeline() { return timeline_.get(); }

    /** Hot-path timeline tick; a no-op unless enableTimeline() ran. */
    void timelineTick(sim::Cpu &cpu)
    {
        if (timeline_ != nullptr)
            timelineTickSlow(cpu);
    }

    // Lifecycle -----------------------------------------------------------

    /** Create a new simulated process (address space). */
    std::unique_ptr<vm::AddressSpace> newProcess();

    /**
     * Open via the VFS; with DaxVM enabled a cold open also rebuilds
     * volatile file tables (charged).
     */
    std::optional<fs::Vfs::OpenResult> open(sim::Cpu &cpu,
                                            const std::string &path);

    /**
     * Setup helper: create a file of @p bytes without timing; the
     * first @p fillBytes bytes get a deterministic pattern for
     * integrity checks.
     */
    fs::Ino makeFile(const std::string &path, std::uint64_t bytes,
                     std::uint64_t fillBytes = 0);

    /** Age the file-system image (Geriatrix-style). */
    fs::AgingReport age(const fs::AgingConfig &config);

    /**
     * Simulate a clean reboot/remount: drops the inode cache (volatile
     * file tables die; persistent ones survive in PMem). Assumes all
     * metadata was committed - use crash()/recover() to model a power
     * failure with uncommitted state.
     */
    void remount();

    /**
     * Install @p plan on every persistence-boundary observer (PMem
     * device, journal, DaxVM tables, prezero daemon). Pass nullptr to
     * detach. The plan must outlive the System or be detached first.
     */
    void setFaultPlan(sim::FaultPlan *plan);

    /**
     * Simulated power failure: volatile state dies NOW. Dirty cache
     * lines never written back are discarded, the prezero pending
     * lists vanish, kernel caches (VFS, reverse mappings, dirty tags)
     * are forgotten. Durable PMem state is untouched. Any surviving
     * AddressSpace objects must be discarded by the caller (their
     * processes died with the machine).
     */
    CrashReport crash();

    /**
     * Post-crash mount: replay the journal's durable metadata image
     * (FileSystem::recover), validate-or-rebuild persistent DaxVM
     * file tables, and re-verify the pre-crash zeroed pool against
     * the durable medium before readmitting it.
     */
    RecoverReport recover();

    /** Deterministic fill pattern byte for position @p i of @p ino. */
    static std::uint8_t patternByte(fs::Ino ino, std::uint64_t i);

    /**
     * Virtual time after which all device channels are idle. When a
     * System is reused for sequential measurement phases, start new
     * threads (or scratch Cpus) here so they do not queue behind the
     * previous phase's transfers.
     */
    sim::Time quiesceTime() const;

  private:
    void timelineTickSlow(sim::Cpu &cpu);

    SystemConfig config_;
    /** Declared before every subsystem so it outlives them all. */
    sim::MetricsRegistry metrics_;
    sim::Engine engine_;
    mem::Device pmem_;
    mem::Device dram_;
    mem::FrameAllocator dramMeta_;
    mem::FrameAllocator pmemTables_;
    std::vector<std::unique_ptr<arch::Mmu>> mmus_;
    arch::ShootdownHub hub_;
    fs::FileSystem fs_;
    fs::Vfs vfs_;
    std::unique_ptr<vm::VmManager> vmm_;
    std::unique_ptr<daxvm::FileTableManager> ftm_;
    std::unique_ptr<daxvm::DaxVm> dax_;
    std::unique_ptr<daxvm::PrezeroDaemon> prezero_;
    std::unique_ptr<latr::Latr> latr_;
    /** Invariant oracle (checkLevel/DAXVM_CHECK); usually null. */
    std::unique_ptr<check::Oracle> oracle_;
    /** Windowed telemetry (enableTimeline); usually null. */
    std::unique_ptr<sim::MetricsTimeline> timeline_;
    /** Zeroed-pool snapshot taken at crash() for recover()'s re-check. */
    std::vector<fs::Extent> preCrashZeroed_;
};

} // namespace dax::sys
