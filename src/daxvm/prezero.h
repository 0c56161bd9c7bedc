/**
 * @file
 * DaxVM asynchronous block pre-zeroing (paper Section IV-E).
 *
 * Freed blocks are diverted to per-core lists instead of returning to
 * the allocator; a rate-limited kernel thread zeroes them with
 * non-temporal stores (throttled to protect foreground bandwidth) and
 * then releases them to the allocator's *zeroed* pool, from which
 * zero-demanding allocations (mmap appends / fallocate) are served
 * without synchronous zeroing.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "fs/block_alloc.h"
#include "fs/file_system.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "sim/fault.h"

namespace dax::daxvm {

class PrezeroDaemon : public sim::Task, public fs::PrezeroSink
{
  public:
    /**
     * @param throttle bandwidth cap in GB/s (paper evaluates a
     *        64 MB/s throttle ablation; default from the cost model)
     */
    PrezeroDaemon(fs::FileSystem &fs, const sim::CostModel &cm,
                  sim::Bw throttle, unsigned nCores);

    /** Register with the engine (daemon thread) after addDaemon(). */
    void
    attachEngine(sim::Engine *engine, int threadId)
    {
        engine_ = engine;
        threadId_ = threadId;
    }

    /** Disable diversion (frees go straight to the allocator). */
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    sim::Bw throttle() const { return throttle_; }

    /**
     * Drain the backlog synchronously without timing (pre-zero "in
     * advance of running the workload" experiments).
     */
    void drainUntimed();

    /** Observe zeroed-pool releases for crash injection. */
    void setFaultPlan(sim::FaultPlan *plan) { plan_ = plan; }

    /**
     * Power failure: the per-core pending lists are volatile kernel
     * state - the blocks they reference come back as plain free
     * blocks via the allocator rebuild. @return blocks forgotten.
     */
    std::uint64_t onCrash();

    // PrezeroSink -------------------------------------------------------
    bool onFree(int core, sim::Time now, const fs::Extent &extent)
        override;
    /**
     * Media repair asking for clean frames while the zeroed pool is
     * dry: zero up to @p maxBlocks from the backlog synchronously on
     * the repairing CPU. @return blocks released to the zeroed pool.
     */
    std::uint64_t drainBounded(sim::Cpu *cpu, std::uint64_t maxBlocks)
        override;

    // sim::Task ----------------------------------------------------------
    bool step(sim::Cpu &cpu) override;
    std::string name() const override { return "prezerod"; }

    std::uint64_t pendingBlocks() const { return pendingBlocks_; }
    std::uint64_t zeroedBlocks() const { return zeroedBlocks_; }

  private:
    /** Zero one extent: functional + device bandwidth occupancy. */
    void zeroExtent(sim::Cpu *cpu, const fs::Extent &extent);

    fs::FileSystem &fs_;
    const sim::CostModel &cm_;
    sim::Bw throttle_;
    bool enabled_ = true;
    sim::Engine *engine_ = nullptr;
    int threadId_ = -1;
    sim::FaultPlan *plan_ = nullptr;
    std::vector<std::deque<fs::Extent>> queues_; ///< per-core lists
    unsigned nextQueue_ = 0;
    std::uint64_t pendingBlocks_ = 0;
    std::uint64_t zeroedBlocks_ = 0;
};

} // namespace dax::daxvm
