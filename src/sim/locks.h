/**
 * @file
 * Queueing models for kernel synchronization primitives.
 *
 * Locks do not suspend host execution; they advance the simulated
 * thread's clock to the acquisition time. Busy periods are tracked as
 * exact intervals (see busy_intervals.h): a requester waits only when
 * its request time falls inside a recorded hold, so short critical
 * sections late in another thread's quantum do not falsely serialize
 * the system. The engine's min-clock stepping guarantees every hold
 * that could overlap a request is already recorded.
 *
 * Contention statistics (wait time, acquisitions) are kept per lock so
 * benches can report where time went - e.g. mmap_sem writer queueing
 * in Fig. 8a.
 */
#pragma once

#include <cstdint>
#include <string>

#include "sim/busy_intervals.h"
#include "sim/engine.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace dax::sim {

/**
 * Record a retrospective lock-wait span (the wait is only known at
 * acquisition). One predictable branch when recording is off; zero
 * waits are not recorded, so volume tracks contention, not traffic.
 */
inline void
traceLockWait(Cpu &cpu, const std::string &lockName, Time requested)
{
    SpanRecorder &rec = Trace::get().spans();
    if (rec.enabled(TraceCat::Lock) && cpu.now() > requested) {
        rec.span(TraceCat::Lock, spanTrackOf(cpu), cpu.coreId(),
                 requested, cpu.now(), "lock_wait", lockName);
    }
}

/** Aggregate contention statistics of one lock. */
struct LockStats
{
    std::uint64_t acquisitions = 0;
    Time waitNs = 0;
    Time heldNs = 0;
};

/**
 * Exclusive lock (kernel mutex/spinlock). The spinlock distinction is
 * purely a cost-model concern (short hold times); the queueing model
 * is identical.
 */
class Mutex
{
  public:
    explicit Mutex(std::string name = "mutex") : name_(std::move(name)) {}

    /**
     * Acquire: advances @p cpu to the acquisition time. Because hold
     * durations are unknown at acquisition and requests arrive out of
     * virtual-time order, the acquisition reserves the first gap large
     * enough for the lock's average hold - preventing a later-stepped
     * thread from slotting a long hold into a short idle gap and
     * overlapping a recorded critical section.
     */
    void
    lock(Cpu &cpu)
    {
        const Time requested = cpu.now();
        busy_.pruneBefore(cpu.pruneHorizon(), cpu.engine() != nullptr);
        cpu.advanceTo(busy_.reserveSlot(requested, expectedHold()));
        stats_.acquisitions++;
        stats_.waitNs += cpu.now() - requested;
        heldSince_ = cpu.now();
        traceLockWait(cpu, name_, requested);
    }

    /** Release at the caller's current time. */
    void
    unlock(Cpu &cpu)
    {
        busy_.insert(heldSince_, cpu.now());
        stats_.heldNs += cpu.now() - heldSince_;
    }

    /** Average hold time so far (floor of 50 ns). */
    Time
    expectedHold() const
    {
        if (stats_.acquisitions == 0)
            return 50;
        const Time avg = stats_.heldNs / stats_.acquisitions;
        return avg < 50 ? 50 : avg;
    }

    const LockStats &stats() const { return stats_; }
    const std::string &name() const { return name_; }

    /** Busy periods, for invariant checkers. */
    const BusyIntervals &busy() const { return busy_; }

  private:
    std::string name_;
    BusyIntervals busy_;
    Time heldSince_ = 0;
    LockStats stats_;
};

/** RAII guard for Mutex. */
class ScopedLock
{
  public:
    ScopedLock(Mutex &m, Cpu &cpu) : m_(m), cpu_(cpu) { m_.lock(cpu_); }
    ~ScopedLock() { m_.unlock(cpu_); }

    ScopedLock(const ScopedLock &) = delete;
    ScopedLock &operator=(const ScopedLock &) = delete;

  private:
    Mutex &m_;
    Cpu &cpu_;
};

/**
 * Reader/writer semaphore modeling Linux mm->mmap_sem: readers overlap
 * freely, a writer excludes both readers and writers. This single
 * primitive produces the mmap scalability collapse of Fig. 1b / 8a.
 */
class RwSemaphore
{
  public:
    /**
     * @param writerAtomics extra hold time charged at writer
     *        acquire and release (contended-atomics model)
     * @param readerAtomics per-reader-acquisition charge
     */
    explicit RwSemaphore(std::string name = "rwsem",
                         Time writerAtomics = 0, Time readerAtomics = 0)
        : name_(std::move(name)), writerAtomics_(writerAtomics),
          readerAtomics_(readerAtomics)
    {}

    void
    lockRead(Cpu &cpu)
    {
        const Time requested = cpu.now();
        writerBusy_.pruneBefore(cpu.pruneHorizon(),
                                cpu.engine() != nullptr);
        cpu.advanceTo(writerBusy_.firstFree(requested));
        cpu.advance(readerAtomics_);
        readStats_.acquisitions++;
        readStats_.waitNs += cpu.now() - requested;
        readHeldSince_ = cpu.now();
        traceLockWait(cpu, name_, requested);
    }

    void
    unlockRead(Cpu &cpu)
    {
        readerBusy_.insert(readHeldSince_, cpu.now());
        readStats_.heldNs += cpu.now() - readHeldSince_;
    }

    void
    lockWrite(Cpu &cpu)
    {
        const Time requested = cpu.now();
        const bool engineDriven = cpu.engine() != nullptr;
        writerBusy_.pruneBefore(cpu.pruneHorizon(), engineDriven);
        readerBusy_.pruneBefore(cpu.pruneHorizon(), engineDriven);
        // Writers wait for both writers and (possibly coalesced)
        // reader occupancy, and reserve a gap sized by the average
        // writer hold (see Mutex::lock).
        const Time hold = expectedWriterHold();
        Time t = requested;
        for (;;) {
            const Time t2 = readerBusy_.firstFree(
                writerBusy_.reserveSlot(t, hold));
            if (t2 == t)
                break;
            t = t2;
        }
        cpu.advanceTo(t);
        writeStats_.acquisitions++;
        writeStats_.waitNs += cpu.now() - requested;
        heldSince_ = cpu.now();
        traceLockWait(cpu, name_, requested);
        cpu.advance(writerAtomics_);
    }

    void
    unlockWrite(Cpu &cpu)
    {
        cpu.advance(writerAtomics_);
        writerBusy_.insert(heldSince_, cpu.now());
        writeStats_.heldNs += cpu.now() - heldSince_;
    }

    /** Average writer hold time so far (floor of 50 ns). */
    Time
    expectedWriterHold() const
    {
        if (writeStats_.acquisitions == 0)
            return 50;
        const Time avg = writeStats_.heldNs / writeStats_.acquisitions;
        return avg < 50 ? 50 : avg;
    }

    const LockStats &readStats() const { return readStats_; }
    const LockStats &writeStats() const { return writeStats_; }
    const std::string &name() const { return name_; }

    /** Busy periods, for invariant checkers. */
    const BusyIntervals &writerBusy() const { return writerBusy_; }
    const BusyIntervals &readerBusy() const { return readerBusy_; }

    /** Mutable busy periods for corruption-injection tests only. */
    BusyIntervals &writerBusyForTest() { return writerBusy_; }

  private:
    std::string name_;
    Time writerAtomics_ = 0;
    Time readerAtomics_ = 0;
    BusyIntervals writerBusy_;
    BusyIntervals readerBusy_;
    Time heldSince_ = 0;
    Time readHeldSince_ = 0;
    LockStats readStats_;
    LockStats writeStats_;
};

/** RAII guards for RwSemaphore. */
class ScopedReadLock
{
  public:
    ScopedReadLock(RwSemaphore &s, Cpu &cpu) : s_(s), cpu_(cpu)
    {
        s_.lockRead(cpu_);
    }
    ~ScopedReadLock() { s_.unlockRead(cpu_); }

    ScopedReadLock(const ScopedReadLock &) = delete;
    ScopedReadLock &operator=(const ScopedReadLock &) = delete;

  private:
    RwSemaphore &s_;
    Cpu &cpu_;
};

class ScopedWriteLock
{
  public:
    ScopedWriteLock(RwSemaphore &s, Cpu &cpu) : s_(s), cpu_(cpu)
    {
        s_.lockWrite(cpu_);
    }
    ~ScopedWriteLock() { s_.unlockWrite(cpu_); }

    ScopedWriteLock(const ScopedWriteLock &) = delete;
    ScopedWriteLock &operator=(const ScopedWriteLock &) = delete;

  private:
    RwSemaphore &s_;
    Cpu &cpu_;
};

} // namespace dax::sim
