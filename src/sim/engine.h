/**
 * @file
 * Deterministic virtual-time execution engine.
 *
 * The engine owns a set of simulated hardware threads, each pinned to a
 * core and carrying its own nanosecond clock. It repeatedly steps the
 * runnable thread with the smallest clock; a step executes one workload
 * *quantum* (e.g. one request) which advances the clock through the
 * cost model. Stepping in global time order makes updates to shared
 * queueing state (lock free-times, device busy-times, TLB contents)
 * causally consistent, so contention emerges from the model and runs
 * are bit-reproducible.
 *
 * Daemons (e.g. the DaxVM pre-zero thread) are threads that park when
 * idle and are woken by producers; they do not hold up termination.
 * The contract is spelled out in docs/engine.md.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/check_hook.h"
#include "sim/time.h"

namespace dax::sim {

class Engine;

/**
 * Execution context of one simulated hardware thread. All cost charging
 * flows through Cpu::advance(); blocking primitives advance the clock
 * to the acquisition time.
 */
class Cpu
{
  public:
    Cpu(Engine *engine, int threadId, int coreId)
        : engine_(engine), threadId_(threadId), coreId_(coreId)
    {}

    Time now() const { return now_; }
    int threadId() const { return threadId_; }
    int coreId() const { return coreId_; }
    Engine *engine() const { return engine_; }

    /** Charge @p ns of work. */
    void advance(Time ns) { now_ += ns; }

    /** Block until virtual time @p t (no-op if already past). */
    void
    advanceTo(Time t)
    {
        if (t > now_)
            now_ = t;
    }

    /**
     * Safe horizon for pruning queueing state: the minimum virtual
     * time any future request can carry (see Engine::safeHorizon).
     * Engineless scratch Cpus (single-threaded tests) use their own
     * clock.
     */
    Time pruneHorizon() const;

  private:
    Engine *engine_;
    int threadId_;
    int coreId_;
    Time now_ = 0;
};

/**
 * A simulated thread body. step() runs one quantum and returns false
 * when the thread has finished its program. For daemons, returning
 * false parks the thread instead; the engine re-steps it after the
 * next wake().
 */
class Task
{
  public:
    virtual ~Task() = default;

    /** Execute one quantum. @return false when the program is done. */
    virtual bool step(Cpu &cpu) = 0;

    /** Short label used in engine traces and stats. */
    virtual std::string name() const { return "task"; }
};

/** Adapter turning a callable into a Task. */
class FnTask : public Task
{
  public:
    using Fn = std::function<bool(Cpu &)>;

    explicit FnTask(Fn fn, std::string name = "fn")
        : fn_(std::move(fn)), name_(std::move(name))
    {}

    bool step(Cpu &cpu) override { return fn_(cpu); }
    std::string name() const override { return name_; }

  private:
    Fn fn_;
    std::string name_;
};

class Engine
{
  public:
    /** @param nCores cores available; threads are pinned round robin. */
    explicit Engine(unsigned nCores);

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    unsigned numCores() const { return nCores_; }

    /**
     * Add a worker thread running @p task, pinned to @p core (or round
     * robin when negative), starting its clock at @p startAt (for
     * sequential measurement phases on one engine). The trailing int
     * is ignored; it keeps callers written against the former
     * isolation-domain argument compiling.
     * @return the thread id.
     */
    int addThread(std::unique_ptr<Task> task, int core = -1,
                  Time startAt = 0, int = 0);

    /** Add a parked daemon thread (woken via wake()). */
    int addDaemon(std::unique_ptr<Task> task, int core = -1);

    /**
     * Wake a parked daemon, not before @p notBefore. The daemon also
     * resumes no earlier than safeHorizon(): a waker may pass a stale
     * notBefore, and pruned queueing state must stay in the past.
     */
    void wake(int threadId, Time notBefore);

    /** Park the calling daemon (valid only from within its step()). */
    void park(int threadId);

    /**
     * Run until every non-daemon thread finished.
     * @return makespan: the maximum clock among non-daemon threads.
     */
    Time run();

    /** Number of threads added so far (workers and daemons). */
    std::size_t threadCount() const { return threads_.size(); }

    /**
     * Maximum clock over all threads. Unlike safeHorizon() this is an
     * upper bound on elapsed virtual time: threads ahead of the min
     * clock (e.g. ones that just blocked on a lock) count.
     */
    Time maxThreadClock() const;

    /**
     * Install an invariant-check observer fired after every quantum
     * (nullptr disables). Owned by the caller; used by check::Oracle.
     */
    void setCheckHook(CheckHook *hook) { checkHook_ = hook; }

    /** Total quanta stepped (debug/health metric). */
    std::uint64_t steps() const { return steps_; }

    /** Number of run() invocations so far (checker re-baselining). */
    std::uint64_t runEpoch() const { return runEpoch_; }

    /**
     * True while inside run(): all lock/resource activity is engine-
     * driven, so conservation budgets apply. Outside run(), engineless
     * scratch Cpus restart clocks per phase and are exempt.
     */
    bool running() const { return running_; }

    /**
     * Clock of the currently stepping thread at its quantum start: no
     * future request can be issued at an earlier virtual time, so
     * queueing state older than this is safely prunable. After run()
     * it holds the last quantum start.
     */
    Time safeHorizon() const { return safeHorizon_; }

  private:
    struct ThreadState
    {
        std::unique_ptr<Task> task;
        Cpu cpu;
        bool daemon = false;
        bool parked = false;
        bool done = false;
    };

    int addInternal(std::unique_ptr<Task> task, int core, bool daemon);

    unsigned nCores_;
    unsigned nextCore_ = 0;
    std::vector<std::unique_ptr<ThreadState>> threads_;
    std::uint64_t steps_ = 0;
    std::uint64_t runEpoch_ = 0;
    bool running_ = false;
    Time safeHorizon_ = 0;
    /** Thread inside step(), or -1 (wake() flow-arrow source). */
    int stepping_ = -1;
    CheckHook *checkHook_ = nullptr;
};

} // namespace dax::sim
