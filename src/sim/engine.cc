/**
 * @file
 * Min-clock deterministic scheduler implementation: step the runnable
 * thread with the smallest clock, ties to the lowest thread id.
 */
#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/trace.h"

namespace dax::sim {

Engine::Engine(unsigned nCores)
    : nCores_(nCores)
{
    if (nCores == 0)
        throw std::invalid_argument("Engine needs at least one core");
}

Time
Cpu::pruneHorizon() const
{
    return engine_ != nullptr ? engine_->safeHorizon() : now_;
}

int
Engine::addInternal(std::unique_ptr<Task> task, int core, bool daemon)
{
    const int id = static_cast<int>(threads_.size());
    int coreId = core;
    if (coreId < 0) {
        coreId = static_cast<int>(nextCore_ % nCores_);
        nextCore_++;
    }
    threads_.push_back(std::make_unique<ThreadState>(
        ThreadState{std::move(task), Cpu(this, id, coreId), daemon,
                    /*parked=*/daemon, /*done=*/false}));
    return id;
}

int
Engine::addThread(std::unique_ptr<Task> task, int core, Time startAt,
                  int)
{
    const int id = addInternal(std::move(task), core, /*daemon=*/false);
    threads_.back()->cpu.advanceTo(startAt);
    return id;
}

int
Engine::addDaemon(std::unique_ptr<Task> task, int core)
{
    return addInternal(std::move(task), core, /*daemon=*/true);
}

void
Engine::wake(int threadId, Time notBefore)
{
    auto &t = *threads_.at(threadId);
    assert(t.daemon && "only daemons park/wake");
    // A parked daemon's clock can sit far behind the min clock, and a
    // waker may pass a stale notBefore (e.g. an enqueue time recorded
    // before it blocked). Resync to the safe horizon as well so the
    // daemon can never observe queueing state (busy intervals, lock
    // holds) that pruneBefore(safeHorizon) already discarded.
    t.cpu.advanceTo(std::max(notBefore, safeHorizon_));
    t.parked = false;
    // Causal arrow waker -> woken daemon. Bookkeeping only: no virtual
    // time moves.
    if (stepping_ >= 0) {
        SpanRecorder &rec = Trace::get().spans();
        if (rec.enabled(TraceCat::Sched)) {
            const std::uint64_t id = rec.flowStart(
                TraceCat::Sched, static_cast<std::uint32_t>(stepping_),
                -1, safeHorizon_, "wake");
            rec.flowEnd(TraceCat::Sched,
                        static_cast<std::uint32_t>(t.cpu.threadId()),
                        t.cpu.coreId(), t.cpu.now(), "wake", id);
        }
    }
}

void
Engine::park(int threadId)
{
    threads_.at(threadId)->parked = true;
}

Time
Engine::run()
{
    runEpoch_++;
    running_ = true;
    // Clear the flags even when a task throws (crash injection).
    struct Guard
    {
        Engine &e;
        ~Guard()
        {
            e.running_ = false;
            e.stepping_ = -1;
        }
    } guard{*this};

    for (;;) {
        ThreadState *best = nullptr;
        unsigned pendingWorkers = 0;
        for (auto &tp : threads_) {
            auto &t = *tp;
            if (!t.daemon && !t.done)
                pendingWorkers++;
            if (t.done || t.parked)
                continue;
            if (best == nullptr || t.cpu.now() < best->cpu.now())
                best = &t;
        }
        if (pendingWorkers == 0)
            break;
        if (best == nullptr) {
            // Only parked daemons remain but workers are "pending":
            // cannot happen - workers are never parked.
            throw std::logic_error("engine deadlock: no runnable thread");
        }
        steps_++;
        safeHorizon_ = best->cpu.now();
        stepping_ = best->cpu.threadId();
        const bool more = best->task->step(best->cpu);
        stepping_ = -1;
        if (checkHook_ != nullptr)
            checkHook_->onCheck(CheckEvent::Quantum, best->cpu.now());
        if (!more) {
            if (best->daemon)
                best->parked = true; // daemons never terminate, re-park
            else
                best->done = true;
        }
    }

    Time makespan = 0;
    for (auto &tp : threads_) {
        if (!tp->daemon && tp->cpu.now() > makespan)
            makespan = tp->cpu.now();
    }
    return makespan;
}

Time
Engine::maxThreadClock() const
{
    Time t = 0;
    for (const auto &tp : threads_)
        t = std::max(t, tp->cpu.now());
    return t;
}

} // namespace dax::sim
