/**
 * @file
 * Unit tests for the simulation core: time, RNG, engine scheduling,
 * lock queueing models, bandwidth resources.
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_set>

#include "sim/busy_intervals.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "sim/locks.h"
#include "sim/resource.h"
#include "sim/rng.h"

using namespace dax::sim;

TEST(Time, CycleConversionRoundTrips)
{
    EXPECT_EQ(cyclesToNs(27), 10u); // 27 cycles at 2.7 GHz = 10 ns
    EXPECT_DOUBLE_EQ(nsToCycles(10), 27.0);
    EXPECT_EQ(5_us, 5000u);
    EXPECT_EQ(2_ms, 2000000u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; i++)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; i++)
        ASSERT_LT(rng.below(13), 13u);
    // Extreme bounds behave.
    Rng big(8);
    for (int i = 0; i < 100; i++) {
        ASSERT_EQ(big.below(1), 0u);
        ASSERT_LT(big.below(~0ULL), ~0ULL);
    }
}

TEST(Rng, BelowUnbiasedAtHostileBound)
{
    // bound = 3 * 2^62 occupies 3/4 of the u64 range, the worst case
    // for the multiply-shift reduction: without Lemire's rejection
    // step, outputs v with v % 3 == 0 appear with probability 1/2
    // instead of 1/3 (1/4 each for the other residues), because the
    // input-to-output map assigns two preimages to every third value.
    // Since bound is divisible by 3, a correct below() makes v % 3
    // exactly uniform. Chi-square over the three residue cells, 2
    // degrees of freedom: threshold 13.8 is the p ~= 0.001 cutoff,
    // while the biased reduction scores ~N/8 (3750 here).
    const std::uint64_t bound = 3ULL << 62;
    Rng rng(2026);
    const int n = 30000;
    std::uint64_t cells[3] = {0, 0, 0};
    for (int i = 0; i < n; i++) {
        const std::uint64_t v = rng.below(bound);
        ASSERT_LT(v, bound);
        cells[v % 3]++;
    }
    const double expect = n / 3.0;
    double chi2 = 0;
    for (const std::uint64_t c : cells) {
        const double d = static_cast<double>(c) - expect;
        chi2 += d * d / expect;
    }
    EXPECT_LT(chi2, 13.8) << cells[0] << " " << cells[1] << " "
                          << cells[2];

    // The rejection loop consumes a deterministic number of draws:
    // same seed, same sequence.
    Rng a(5), b(5);
    for (int i = 0; i < 1000; i++)
        ASSERT_EQ(a.below(bound), b.below(bound));
}

TEST(Rng, JumpStreamsAreDisjointAndDeterministic)
{
    // stream(n) must equal n applications of jump() on a copy...
    Rng base(42);
    Rng manual = base;
    manual.jump();
    Rng viaStream = base.stream(1);
    for (int i = 0; i < 256; i++)
        ASSERT_EQ(manual.next(), viaStream.next());

    // ...leave the source untouched...
    Rng untouched(42);
    for (int i = 0; i < 64; i++)
        ASSERT_EQ(base.next(), untouched.next());

    // ...and produce pairwise-disjoint sequences: jump() advances by
    // 2^128 steps, so an overlapping prefix would mean a broken
    // polynomial (a subtly wrong constant degrades to near-identical
    // or overlapping streams, which `Rng(seed + i)` never ruled out).
    const int kStreams = 4, kDraws = 4096;
    std::unordered_set<std::uint64_t> seen;
    for (int s = 0; s < kStreams; s++) {
        Rng stream = Rng(42).stream(static_cast<std::uint64_t>(s));
        for (int i = 0; i < kDraws; i++)
            seen.insert(stream.next());
    }
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(kStreams) * kDraws);
}

TEST(Rng, LongJumpStreamsAreDisjointFromJumpStreams)
{
    // longJump() advances 2^192 steps: far past any realistic number
    // of jump() substreams. Tenants take longJump streams and split
    // them into per-client jump streams (workloads/tenant.h); none of
    // those may collide.
    std::unordered_set<std::uint64_t> seen;
    std::size_t produced = 0;
    Rng master(1234);
    for (int t = 0; t < 3; t++) {
        master.longJump();
        for (int c = 0; c < 3; c++) {
            Rng client = master.stream(static_cast<std::uint64_t>(c));
            for (int i = 0; i < 1024; i++) {
                seen.insert(client.next());
                produced++;
            }
        }
    }
    EXPECT_EQ(seen.size(), produced);

    // Determinism across instances.
    Rng a(9), b(9);
    a.longJump();
    b.longJump();
    for (int i = 0; i < 256; i++)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; i++) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Zipf, SkewsTowardsLowKeys)
{
    Rng rng(11);
    Zipf zipf(1000, 0.99);
    std::uint64_t low = 0, total = 20000;
    for (std::uint64_t i = 0; i < total; i++) {
        const auto k = zipf.next(rng);
        ASSERT_LT(k, 1000u);
        if (k < 100)
            low++;
    }
    // Zipf(0.99): the top 10% of keys draw well over half the mass.
    EXPECT_GT(low, total / 2);
}

TEST(CostModel, DefaultsValidate)
{
    CostModel cm;
    EXPECT_TRUE(validateCostModel(cm).empty());
}

TEST(CostModel, BrokenModelReported)
{
    CostModel cm;
    cm.pmemNtStoreBwCore = 0.5;
    cm.pmemClwbBwCore = 1.0;
    EXPECT_FALSE(validateCostModel(cm).empty());
}

TEST(CostModel, XferMatchesBandwidth)
{
    // 1 GB/s == 1 byte/ns.
    EXPECT_EQ(CostModel::xfer(1000, 1.0), 1000u);
    EXPECT_EQ(CostModel::xfer(4096, 2.0), 2048u);
}

TEST(Engine, RunsThreadsToCompletionInTimeOrder)
{
    Engine engine(2);
    std::vector<int> order;
    int stepsA = 0, stepsB = 0;
    engine.addThread(std::make_unique<FnTask>([&](Cpu &cpu) {
        order.push_back(0);
        cpu.advance(100);
        return ++stepsA < 3;
    }));
    engine.addThread(std::make_unique<FnTask>([&](Cpu &cpu) {
        order.push_back(1);
        cpu.advance(250);
        return ++stepsB < 3;
    }));
    const Time makespan = engine.run();
    EXPECT_EQ(makespan, 750u);
    // Thread 0 (faster quanta) must be scheduled more often early on.
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1); // both at 0; tie broken by id
}

TEST(Engine, MakespanIsMaxThreadClock)
{
    Engine engine(4);
    for (int i = 1; i <= 4; i++) {
        engine.addThread(std::make_unique<FnTask>([i](Cpu &cpu) {
            cpu.advance(static_cast<Time>(i) * 1000);
            return false;
        }));
    }
    EXPECT_EQ(engine.run(), 4000u);
}

TEST(Engine, StartAtOffsetsThreadClock)
{
    Engine engine(1);
    engine.addThread(std::make_unique<FnTask>([](Cpu &cpu) {
        cpu.advance(10);
        return false;
    }),
                     -1, 5000);
    EXPECT_EQ(engine.run(), 5010u);
}

TEST(Engine, DaemonParksAndWakes)
{
    Engine engine(1);
    int daemonRuns = 0;
    const int daemonId =
        engine.addDaemon(std::make_unique<FnTask>([&](Cpu &cpu) {
            daemonRuns++;
            cpu.advance(10);
            return false; // park again
        }));
    int workerSteps = 0;
    engine.addThread(std::make_unique<FnTask>([&, daemonId](Cpu &cpu) {
        cpu.advance(100);
        if (workerSteps == 0)
            cpu.engine()->wake(daemonId, cpu.now());
        return ++workerSteps < 2; // stay alive so the daemon can run
    }));
    engine.run();
    EXPECT_EQ(daemonRuns, 1);
}

TEST(Engine, ZeroCoresRejected)
{
    EXPECT_THROW(Engine engine(0), std::invalid_argument);
}

TEST(Mutex, SerializesCriticalSections)
{
    Engine engine(2);
    Mutex mutex("m");
    Time endA = 0, endB = 0;
    engine.addThread(std::make_unique<FnTask>([&](Cpu &cpu) {
        mutex.lock(cpu);
        cpu.advance(1000);
        mutex.unlock(cpu);
        endA = cpu.now();
        return false;
    }));
    engine.addThread(std::make_unique<FnTask>([&](Cpu &cpu) {
        mutex.lock(cpu);
        cpu.advance(1000);
        mutex.unlock(cpu);
        endB = cpu.now();
        return false;
    }));
    engine.run();
    // Both start at t=0 but the second must wait for the first.
    EXPECT_EQ(std::min(endA, endB), 1000u);
    EXPECT_EQ(std::max(endA, endB), 2000u);
    EXPECT_EQ(mutex.stats().acquisitions, 2u);
    EXPECT_EQ(mutex.stats().waitNs, 1000u);
}

TEST(RwSemaphore, ReadersOverlap)
{
    Engine engine(4);
    RwSemaphore sem("s");
    std::vector<Time> ends;
    for (int i = 0; i < 4; i++) {
        engine.addThread(std::make_unique<FnTask>([&](Cpu &cpu) {
            sem.lockRead(cpu);
            cpu.advance(1000);
            sem.unlockRead(cpu);
            ends.push_back(cpu.now());
            return false;
        }));
    }
    engine.run();
    for (const auto end : ends)
        EXPECT_EQ(end, 1000u); // no reader waited
}

TEST(RwSemaphore, WriterExcludesReadersAndWriters)
{
    Engine engine(3);
    RwSemaphore sem("s");
    Time writerEnd = 0, readerEnd = 0;
    engine.addThread(std::make_unique<FnTask>([&](Cpu &cpu) {
        sem.lockWrite(cpu);
        cpu.advance(500);
        sem.unlockWrite(cpu);
        writerEnd = cpu.now();
        return false;
    }));
    engine.addThread(std::make_unique<FnTask>([&](Cpu &cpu) {
        cpu.advance(100); // arrive while the writer holds the lock
        sem.lockRead(cpu);
        cpu.advance(10);
        sem.unlockRead(cpu);
        readerEnd = cpu.now();
        return false;
    }));
    engine.run();
    EXPECT_EQ(writerEnd, 500u);
    EXPECT_EQ(readerEnd, 510u); // waited until the writer released
}

TEST(RwSemaphore, WriterWaitsForReaders)
{
    Engine engine(2);
    RwSemaphore sem("s");
    Time writerStartObserved = 0;
    engine.addThread(std::make_unique<FnTask>([&](Cpu &cpu) {
        sem.lockRead(cpu);
        cpu.advance(2000);
        sem.unlockRead(cpu);
        return false;
    }));
    engine.addThread(std::make_unique<FnTask>([&](Cpu &cpu) {
        cpu.advance(50);
        sem.lockWrite(cpu);
        writerStartObserved = cpu.now();
        sem.unlockWrite(cpu);
        return false;
    }));
    engine.run();
    EXPECT_EQ(writerStartObserved, 2000u);
}

TEST(Resource, SingleThreadSeesCoreBandwidth)
{
    Engine engine(1);
    Resource res("r", 10.0);
    Time elapsed = 0;
    engine.addThread(std::make_unique<FnTask>([&](Cpu &cpu) {
        elapsed = res.transfer(cpu, 2000, 2.0); // 2 GB/s core limit
        return false;
    }));
    engine.run();
    EXPECT_EQ(elapsed, 1000u);
}

TEST(Resource, ManyThreadsSaturateDeviceBandwidth)
{
    // 8 threads, each wanting 6 GB/s from a 12 GB/s device: aggregate
    // must be device-bound, so the makespan is ~8*size/12.
    Engine engine(8);
    Resource res("r", 12.0);
    for (int i = 0; i < 8; i++) {
        engine.addThread(std::make_unique<FnTask>([&](Cpu &cpu) {
            res.transfer(cpu, 12000, 6.0);
            return false;
        }));
    }
    const Time makespan = engine.run();
    EXPECT_EQ(makespan, 8 * 12000 / 12);
    EXPECT_EQ(res.bytesTransferred(), 8u * 12000u);
}

TEST(Resource, OccupyDelaysForegroundTransfers)
{
    Engine engine(1);
    Resource res("r", 1.0);
    res.occupy(0, 5000); // daemon holds the device until t=5000
    Time elapsed = 0;
    engine.addThread(std::make_unique<FnTask>([&](Cpu &cpu) {
        elapsed = res.transfer(cpu, 1000, 10.0);
        return false;
    }));
    engine.run();
    EXPECT_EQ(elapsed, 6000u); // queued behind the daemon
}

TEST(LockStats, TracksHeldTime)
{
    Engine engine(1);
    Mutex mutex("m");
    engine.addThread(std::make_unique<FnTask>([&](Cpu &cpu) {
        ScopedLock guard(mutex, cpu);
        cpu.advance(123);
        return false;
    }));
    engine.run();
    EXPECT_EQ(mutex.stats().heldNs, 123u);
}

TEST(BusyIntervals, FirstFreeSkipsContiguousRuns)
{
    BusyIntervals busy;
    busy.insert(100, 200);
    busy.insert(200, 300); // merges into [100, 300)
    EXPECT_EQ(busy.size(), 1u);
    EXPECT_EQ(busy.firstFree(50), 50u);
    EXPECT_EQ(busy.firstFree(100), 300u);
    EXPECT_EQ(busy.firstFree(250), 300u);
    EXPECT_EQ(busy.firstFree(300), 300u);
}

TEST(BusyIntervals, ReserveSlotFindsGapOfRequestedSize)
{
    BusyIntervals busy;
    busy.insert(100, 200);
    busy.insert(250, 400);
    // 50-wide gap at [200, 250): fits 50 but not 60.
    EXPECT_EQ(busy.reserveSlot(150, 50), 200u);
    EXPECT_EQ(busy.reserveSlot(150, 60), 400u);
    EXPECT_EQ(busy.reserveSlot(0, 100), 0u);
}

TEST(BusyIntervals, PruneDropsOnlyPastIntervals)
{
    BusyIntervals busy;
    busy.insert(100, 200);
    busy.insert(300, 400);
    busy.pruneBefore(250);
    EXPECT_EQ(busy.size(), 1u);
    EXPECT_EQ(busy.firstFree(300), 400u);
}

TEST(Engine, WakeResumesDaemonAtMaxOfNotBeforeAndQuantumStart)
{
    // Two daemons woken from the same quantum (start 100, end 200):
    // one with a future notBefore, one with a stale one. Each resumes
    // at max(notBefore, quantum start).
    Engine engine(2);
    Time lateClock = 0, staleClock = 0;
    const int late = engine.addDaemon(std::make_unique<FnTask>(
        [&](Cpu &cpu) {
            lateClock = cpu.now();
            return false;
        }));
    const int stale = engine.addDaemon(std::make_unique<FnTask>(
        [&](Cpu &cpu) {
            staleClock = cpu.now();
            return false;
        }));
    int steps = 0;
    engine.addThread(std::make_unique<FnTask>([&](Cpu &cpu) {
        cpu.advance(100);
        if (++steps == 2) {
            cpu.engine()->wake(late, cpu.now());
            cpu.engine()->wake(stale, 0);
        }
        return steps < 3;
    }));
    engine.run();
    EXPECT_EQ(lateClock, 200u);
    EXPECT_EQ(staleClock, 100u);
}

TEST(Engine, ThrowingTaskPropagatesAndRerunFinishesSurvivors)
{
    // FaultPlan-style crash injection: a task throws mid-run. run()
    // surfaces the exception, and the engine stays usable: the next
    // run() re-steps the thrower and finishes the survivor.
    Engine engine(2);
    bool thrown = false;
    engine.addThread(std::make_unique<FnTask>([&thrown](Cpu &cpu) {
        cpu.advance(100);
        if (!thrown) {
            thrown = true;
            throw std::runtime_error("injected crash");
        }
        return false;
    }));
    int survivorSteps = 0;
    engine.addThread(std::make_unique<FnTask>([&survivorSteps](Cpu &cpu) {
        cpu.advance(60);
        return ++survivorSteps < 30;
    }));
    EXPECT_THROW(engine.run(), std::runtime_error);
    EXPECT_FALSE(engine.running());
    EXPECT_NO_THROW(engine.run());
    EXPECT_EQ(survivorSteps, 30);
}

TEST(Engine, WakeResyncsStaleClockToSafeHorizon)
{
    // A producer far ahead in virtual time may wake a parked daemon
    // with a precomputed (stale) notBefore. The daemon must resume at
    // or after the engine's safe horizon: every lock has already
    // pruned its busy intervals up to that point, so running the
    // daemon earlier would let it observe (and slot holds into) state
    // from a pruned past.
    Engine engine(2);
    Time daemonClock = 0;
    const int daemonId =
        engine.addDaemon(std::make_unique<FnTask>([&](Cpu &cpu) {
            daemonClock = cpu.now();
            return false;
        }),
                         0);
    int steps = 0;
    engine.addThread(std::make_unique<FnTask>([&, daemonId](Cpu &cpu) {
        cpu.advance(1000);
        if (++steps == 2) {
            // Quantum started at t=1000, so the safe horizon is 1000;
            // 50 is a stale timestamp from the thread's own past.
            cpu.engine()->wake(daemonId, 50);
        }
        return steps < 3;
    }),
                     1);
    engine.run();
    EXPECT_GE(daemonClock, 1000u);
}
