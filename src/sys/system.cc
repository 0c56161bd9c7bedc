/**
 * @file
 * System assembly.
 */
#include "sys/system.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.h"
#include "sim/trace.h"

namespace dax::sys {

System::System(const SystemConfig &config)
    : config_(config), metrics_(config.cores), engine_(config.cores),
      pmem_(mem::Kind::Pmem, config.pmemBytes + config.pmemTableBytes,
            config_.cm),
      dram_(mem::Kind::Dram, config.dramBytes, config_.cm),
      dramMeta_(dram_, 0, config.dramBytes),
      pmemTables_(pmem_, config.pmemBytes, config.pmemTableBytes),
      hub_(config_.cm, config.cores, &metrics_),
      fs_(config.personality, pmem_, 0, config.pmemBytes, config_.cm,
          &metrics_),
      vfs_(fs_, config_.cm, config.inodeCacheCapacity)
{
    pmem_.bindMetrics(metrics_, "mem.pmem");
    dram_.bindMetrics(metrics_, "mem.dram");
    fs_.setMediaPolicy(config.mediaPolicy);
    bool fastPaths = config.hostFastPaths;
    if (const char *env = std::getenv("DAXVM_HOST_FAST")) {
        if (std::atoi(env) == 0)
            fastPaths = false;
    }
    config_.hostFastPaths = fastPaths;
    if (config.simThreads > 1)
        throw std::invalid_argument(
            "System: simThreads must be 0 or 1 (the engine is "
            "sequential)");
    for (unsigned c = 0; c < config.cores; c++) {
        mmus_.push_back(std::make_unique<arch::Mmu>(config_.cm));
        hub_.registerMmu(static_cast<int>(c), mmus_.back().get());
    }
    vmm_ = std::make_unique<vm::VmManager>(config_.cm, hub_, fs_,
                                           dramMeta_, dram_, &metrics_);
    vmm_->setHostFastPaths(fastPaths);
    if (config.daxvm) {
        ftm_ = std::make_unique<daxvm::FileTableManager>(
            fs_, dramMeta_, pmemTables_, config_.cm);
        dax_ = std::make_unique<daxvm::DaxVm>(*vmm_, *ftm_);
        if (config.prezero) {
            prezero_ = std::make_unique<daxvm::PrezeroDaemon>(
                fs_, config_.cm, config_.cm.prezeroThrottle,
                config.cores);
            fs_.allocator().setPrezeroSink(prezero_.get());
            auto *daemon = prezero_.get();
            const int tid = engine_.addDaemon(
                std::make_unique<sim::FnTask>(
                    [daemon](sim::Cpu &cpu) { return daemon->step(cpu); },
                    "prezerod"),
                /*core=*/0);
            daemon->attachEngine(&engine_, tid);
        }
    }
    latr_ = std::make_unique<latr::Latr>(config_.cm, hub_, config.cores);

    int checkLevel = config.checkLevel;
    if (checkLevel == 0) {
        if (const char *env = std::getenv("DAXVM_CHECK"))
            checkLevel = std::atoi(env);
    }
    if (checkLevel > 0) {
        oracle_ = std::make_unique<check::Oracle>(*this, checkLevel);
        engine_.setCheckHook(oracle_.get());
        hub_.setCheckHook(oracle_.get());
        latr_->setCheckHook(oracle_.get());
        vmm_->setCheckHook(oracle_.get());
        fs_.journal().setCheckHook(oracle_.get());
    }

    // System-level samples: engine progress and the prezero daemon's
    // pool depth (the daemon itself may be disabled or absent).
    auto steps = metrics_.gauge("sim.engine.steps");
    auto pending = metrics_.gauge("daxvm.prezero.pending_blocks");
    auto zeroed = metrics_.gauge("daxvm.prezero.zeroed_blocks");
    metrics_.addCollector([this, steps, pending, zeroed]() mutable {
        steps.set(static_cast<double>(engine_.steps()));
        if (prezero_ != nullptr) {
            pending.set(
                static_cast<double>(prezero_->pendingBlocks()));
            zeroed.set(static_cast<double>(prezero_->zeroedBlocks()));
        }
    });

    // Give this System its own process id in the span trace so that
    // traces from sequential Systems (whose virtual clocks restart at
    // zero) land on distinct, internally-monotone tracks.
    sim::Trace::get().spans().attachProcess(&metrics_, "system");
}

System::~System()
{
    sim::Trace::get().spans().detachProcess(&metrics_);
    if (oracle_ != nullptr) {
        // Final leak sweep while every subsystem is still alive, then
        // detach the hooks so nothing fires into a dead oracle while
        // members destruct.
        oracle_->onCheck(sim::CheckEvent::Teardown,
                         engine_.maxThreadClock());
        engine_.setCheckHook(nullptr);
        hub_.setCheckHook(nullptr);
        latr_->setCheckHook(nullptr);
        vmm_->setCheckHook(nullptr);
        fs_.journal().setCheckHook(nullptr);
    }
    if (prezero_ != nullptr)
        fs_.allocator().setPrezeroSink(nullptr);
}

void
System::enableTimeline(const sim::MetricsTimeline::Config &cfg)
{
    timeline_ = std::make_unique<sim::MetricsTimeline>(metrics_, cfg);
}

void
System::timelineTickSlow(sim::Cpu &cpu)
{
    // Chrome counter tracks only make sense when spans are being
    // recorded; otherwise tick without a trace track.
    sim::SpanRecorder &rec = sim::Trace::get().spans();
    timeline_->tick(cpu.now(), rec.anyEnabled()
                                   ? sim::spanTrackOf(cpu)
                                   : sim::MetricsTimeline::kNoTrack);
}

std::unique_ptr<vm::AddressSpace>
System::newProcess()
{
    return std::make_unique<vm::AddressSpace>(*vmm_);
}

std::optional<fs::Vfs::OpenResult>
System::open(sim::Cpu &cpu, const std::string &path)
{
    auto res = vfs_.open(cpu, path);
    if (res && res->cold && ftm_ != nullptr)
        ftm_->onColdOpen(cpu, res->ino);
    return res;
}

std::uint8_t
System::patternByte(fs::Ino ino, std::uint64_t i)
{
    // Cheap deterministic mixing; distinct per file and position.
    const std::uint64_t x = (ino * 0x9e3779b97f4a7c15ULL) ^ (i * 2654435761ULL);
    return static_cast<std::uint8_t>(x >> 16);
}

fs::Ino
System::makeFile(const std::string &path, std::uint64_t bytes,
                 std::uint64_t fillBytes)
{
    sim::Cpu scratch(nullptr, -1, 0);
    const fs::Ino ino = fs_.create(scratch, path);
    if (bytes > 0 && !fs_.fallocateSetup(ino, bytes))
        throw std::runtime_error("makeFile: out of space: " + path);
    // Pre-existing files already carry their DaxVM tables (they were
    // built when the file was written); construct them untimed.
    if (ftm_ != nullptr && bytes > 0)
        ftm_->tables(nullptr, ino);
    if (fillBytes > 0) {
        fillBytes = std::min(fillBytes, bytes);
        std::vector<std::uint8_t> buf(
            std::min<std::uint64_t>(fillBytes, 1 << 20));
        std::uint64_t off = 0;
        while (off < fillBytes) {
            const std::uint64_t chunk =
                std::min<std::uint64_t>(buf.size(), fillBytes - off);
            for (std::uint64_t i = 0; i < chunk; i++)
                buf[i] = patternByte(ino, off + i);
            // Functional store only (setup, no timing).
            const fs::Inode &node = fs_.inode(ino);
            std::uint64_t done = 0;
            while (done < chunk) {
                const std::uint64_t fb = (off + done) / fs::kBlockSize;
                const std::uint64_t in = (off + done) % fs::kBlockSize;
                const auto run = node.find(fb);
                const std::uint64_t n = std::min(
                    chunk - done, run->count * fs::kBlockSize - in);
                pmem_.store(fs_.blockAddr(run->physBlock) + in,
                            buf.data() + done, n);
                done += n;
            }
            off += chunk;
        }
    }
    // Setup files are part of the pre-crash durable image: commit
    // their metadata (untimed) so they survive a power failure.
    fs_.journal().commit(scratch, ino);
    return ino;
}

fs::AgingReport
System::age(const fs::AgingConfig &config)
{
    // Aging is an offline image-preparation step: freed blocks must
    // return to the allocator immediately, not queue behind the
    // (not-yet-running) pre-zero daemon.
    const bool prezeroWasEnabled =
        prezero_ != nullptr && prezero_->enabled();
    if (prezero_ != nullptr)
        prezero_->setEnabled(false);
    auto report = fs::ageFileSystem(fs_, config);
    if (prezero_ != nullptr)
        prezero_->setEnabled(prezeroWasEnabled);
    return report;
}

void
System::remount()
{
    vfs_.dropCaches();
}

void
System::setFaultPlan(sim::FaultPlan *plan)
{
    pmem_.setFaultPlan(plan);
    fs_.journal().setFaultPlan(plan);
    if (ftm_ != nullptr)
        ftm_->setFaultPlan(plan);
    if (prezero_ != nullptr)
        prezero_->setFaultPlan(plan);
    // Media degradation rides the plan. Clamp the fault range to the
    // file-data region: table frames have their own failure model
    // (TableUpdate tearing) and must never be silently poisoned.
    if (plan != nullptr && plan->media() != nullptr) {
        sim::MediaSpec spec = *plan->media();
        spec.limit = std::min(spec.limit, config_.pmemBytes);
        pmem_.setMedia(&spec);
    } else {
        pmem_.setMedia(nullptr);
    }
}

CrashReport
System::crash()
{
    CrashReport report;
    // Seal the persistent table images first, while the extent maps
    // are still the ones their last completed updates described.
    if (ftm_ != nullptr)
        ftm_->sealImages();
    // The zeroed pool's *blocks* are durable (zeroes on the medium)
    // but the pool membership is volatile: snapshot it so recover()
    // can re-verify and readmit.
    preCrashZeroed_ = fs_.allocator().zeroedExtents();
    report.dirtyLinesLost = pmem_.crash();
    dram_.crash();
    if (prezero_ != nullptr)
        report.prezeroPendingLost = prezero_->onCrash();
    // Kernel DRAM state dies with the power.
    vmm_->resetVolatile();
    vfs_.reset();
    return report;
}

RecoverReport
System::recover()
{
    RecoverReport report;
    // No-op after crash(): recovery replaces the extent maps below.
    if (ftm_ != nullptr)
        ftm_->sealImages();
    report.fs = fs_.recover();
    if (ftm_ != nullptr)
        report.tables = ftm_->recoverAll();
    // Re-admit pre-crash zeroed extents only after re-verifying the
    // invariant against the durable medium: every block must still be
    // zero AND free under the recovered metadata.
    for (const auto &e : preCrashZeroed_) {
        if (pmem_.isZero(fs_.blockAddr(e.block), e.bytes())
            && fs_.allocator().promoteZeroed(e)) {
            report.zeroedReadmitted += e.count;
        } else {
            report.zeroedDemoted += e.count;
        }
    }
    preCrashZeroed_.clear();
    if (oracle_ != nullptr)
        oracle_->onCheck(sim::CheckEvent::Recover,
                         engine_.maxThreadClock());
    return report;
}

sim::Time
System::quiesceTime() const
{
    sim::Time t = pmem_.readChannel().busyUntil();
    t = std::max(t, pmem_.writeChannel().busyUntil());
    t = std::max(t, dram_.readChannel().busyUntil());
    t = std::max(t, dram_.writeChannel().busyUntil());
    return t;
}

} // namespace dax::sys
