/**
 * @file
 * Structured span tracing tests: balanced Begin/End streams (even
 * under crash-injection unwinding), per-track timestamp monotonicity
 * on engine-driven runs, byte-identical behaviour with tracing off,
 * per-category recording, and reconciliation of trace_report totals
 * and instant counts against the metrics registry (docs/tracing.md).
 */
#include <gtest/gtest.h>

#include "sim/fault.h"
#include "sim/json.h"
#include "sim/trace.h"
#include "sys/system.h"

using namespace dax;

namespace {

sys::SystemConfig
traceConfig(unsigned cores = 4)
{
    sys::SystemConfig config;
    config.cores = cores;
    config.pmemBytes = 512ULL << 20;
    config.pmemTableBytes = 64ULL << 20;
    config.dramBytes = 256ULL << 20;
    return config;
}

/** Sandbox the global tracer: every test starts and ends pristine. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sim::Trace::get().reset();
        sim::Trace::get().spans().enableAll();
    }

    void TearDown() override { sim::Trace::get().reset(); }

    /** Export the recorder's Chrome trace and analyze it. */
    static sim::TraceReport
    analyze()
    {
        const std::string text =
            sim::Trace::get().spans().chromeTraceString();
        std::string error;
        const sim::Json doc = sim::Json::parse(text, &error);
        EXPECT_EQ(error, "");
        return sim::analyzeChromeTrace(doc);
    }
};

/**
 * Engine-driven workload touching every instrumented layer: each
 * worker mmaps a MAP_SYNC window of its file (journal commits on the
 * first write to each page), faults it in, msyncs and unmaps it
 * (shootdowns). @return the makespan.
 */
sim::Time
runWorkload(sys::System &system, unsigned threads)
{
    const std::uint64_t window = 1ULL << 20;
    std::vector<fs::Ino> inos;
    sim::Cpu setup(nullptr, -1, 0);
    for (unsigned t = 0; t < threads; t++) {
        // fallocate (not makeFile) leaves the metadata dirty and the
        // blocks unwritten, so the first write fault on each page
        // commits the journal - the MAP_SYNC path under test.
        const fs::Ino ino =
            system.fs().create(setup, "/f" + std::to_string(t));
        system.fs().fallocate(setup, ino, 0, window);
        inos.push_back(ino);
    }
    auto as = system.newProcess();
    for (unsigned t = 0; t < threads; t++) {
        const fs::Ino ino = inos[t];
        auto *asp = as.get();
        bool done = false;
        system.engine().addThread(
            std::make_unique<sim::FnTask>(
                [asp, ino, window, done](sim::Cpu &cpu) mutable {
                    if (done)
                        return false;
                    const std::uint64_t va = asp->mmap(
                        cpu, ino, 0, window, true, vm::kMapSync);
                    asp->memWrite(cpu, va, window, mem::Pattern::Seq);
                    asp->memRead(cpu, va, window, mem::Pattern::Seq);
                    asp->msync(cpu, va, window);
                    asp->munmap(cpu, va, window);
                    done = true;
                    return false;
                },
                "tracewl"),
            static_cast<int>(t));
    }
    return system.engine().run();
}

} // namespace

TEST_F(TraceTest, EngineRunIsBalancedAndMonotone)
{
    sys::System system(traceConfig());
    runWorkload(system, 4);

    const sim::TraceReport report = analyze();
    EXPECT_TRUE(report.problems.empty())
        << (report.problems.empty() ? "" : report.problems.front());
    EXPECT_EQ(report.nonMonotone, 0u);
    EXPECT_EQ(report.dropped, 0u);
    EXPECT_GT(report.events, 0u);

    // The fault span nests the paper's breakdown children.
    EXPECT_GT(report.faultCount, 0u);
    EXPECT_GT(report.faultChildren.count("pt_walk"), 0u);
    EXPECT_GT(report.faultChildren.count("frame_alloc"), 0u);
    EXPECT_GT(report.faultChildren.count("journal_commit"), 0u);
    EXPECT_GT(report.spans.count("shootdown"), 0u);
    EXPECT_GT(report.spans.count("mmap"), 0u);
}

TEST_F(TraceTest, BalancedUnderCrashInjection)
{
    sys::System system(traceConfig(1));
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = system.fs().create(cpu, "/c");
    system.fs().fallocate(cpu, ino, 0, 4096); // dirty metadata
    // Crash at the first journal commit: the fault and journal_commit
    // spans are open at the throw and must be closed by RAII
    // unwinding, keeping the exported stream balanced.
    sim::FaultPlan plan =
        sim::FaultPlan::atKind(sim::FaultEvent::JournalCommit, 0);
    system.setFaultPlan(&plan);
    auto as = system.newProcess();
    const std::uint64_t wva =
        as->mmap(cpu, ino, 0, 4096, true, vm::kMapSync);
    bool crashed = false;
    try {
        as->memWrite(cpu, wva, 8, mem::Pattern::Rand);
    } catch (const sim::CrashException &) {
        crashed = true;
    }
    ASSERT_TRUE(crashed);
    system.setFaultPlan(nullptr);

    const sim::TraceReport report = analyze();
    EXPECT_TRUE(report.problems.empty())
        << (report.problems.empty() ? "" : report.problems.front());
    EXPECT_GT(report.spans.count("fault"), 0u);
}

TEST_F(TraceTest, TracingOffDoesNotChangeTheRun)
{
    sim::Trace::get().reset(); // tracing off
    sys::System off(traceConfig());
    const sim::Time offMakespan = runWorkload(off, 4);
    const sim::MetricsSnapshot offSnap = off.snapshotMetrics();

    sim::Trace::get().spans().enableAll();
    sys::System on(traceConfig());
    const sim::Time onMakespan = runWorkload(on, 4);
    const sim::MetricsSnapshot onSnap = on.snapshotMetrics();

    EXPECT_GT(sim::Trace::get().spans().eventCount(), 0u);
    // Recording advances no virtual time and touches no instrument:
    // the traced run is indistinguishable from the untraced one.
    EXPECT_EQ(offMakespan, onMakespan);
    EXPECT_EQ(offSnap, onSnap);
}

TEST_F(TraceTest, ReportReconcilesWithMetricsRegistry)
{
    // Single worker: multi-core runs can take spurious faults (stale
    // remote TLB entries) that retry without a histogram record - see
    // docs/tracing.md for the reconciliation contract.
    sys::System system(traceConfig(1));
    runWorkload(system, 1);
    const sim::MetricsSnapshot snap = system.snapshotMetrics();

    const sim::TraceReport report = analyze();
    ASSERT_TRUE(report.problems.empty())
        << (report.problems.empty() ? "" : report.problems.front());
    ASSERT_EQ(report.dropped, 0u);

    const auto within = [](std::uint64_t a, std::uint64_t b) {
        const double hi = static_cast<double>(std::max(a, b));
        const double lo = static_cast<double>(std::min(a, b));
        return hi == 0.0 || (hi - lo) / hi <= 0.001;
    };

    const std::uint64_t faultNs =
        snap.histograms.at("vm.fault_ns").sum;
    EXPECT_EQ(report.faultCount,
              snap.histograms.at("vm.fault_ns").count);
    EXPECT_TRUE(within(report.faultTotalNs, faultNs))
        << report.faultTotalNs << " vs " << faultNs;

    // handleFault records one `fault read|write` instant per entry,
    // retries included, so the instants count every vm.faults bump.
    const auto instants = [&](const char *kind) -> std::uint64_t {
        const auto it = report.instants.find(kind);
        return it != report.instants.end() ? it->second : 0;
    };
    const std::uint64_t faultInstants =
        instants("fault read") + instants("fault write");
    EXPECT_GT(faultInstants, 0u);
    EXPECT_EQ(faultInstants, snap.counter("vm.faults"));

    std::uint64_t shootdownNs = 0;
    if (report.spans.count("shootdown") != 0)
        shootdownNs += report.spans.at("shootdown").totalNs;
    if (report.spans.count("shootdown_full") != 0)
        shootdownNs += report.spans.at("shootdown_full").totalNs;
    EXPECT_TRUE(within(shootdownNs,
                       snap.histograms.at("tlb.shootdown_ns").sum))
        << shootdownNs << " vs "
        << snap.histograms.at("tlb.shootdown_ns").sum;

    ASSERT_GT(report.spans.count("journal_commit"), 0u);
    EXPECT_TRUE(
        within(report.spans.at("journal_commit").totalNs,
               snap.histograms.at("fs.journal.commit_ns").sum))
        << report.spans.at("journal_commit").totalNs << " vs "
        << snap.histograms.at("fs.journal.commit_ns").sum;
}

TEST_F(TraceTest, LockWaitsReconcileWithLockStats)
{
    sys::System system(traceConfig(8));
    runWorkload(system, 8);

    std::uint64_t traced = 0;
    const sim::TraceReport report = analyze();
    for (const auto &[name, ns] : report.lockWaitNs)
        if (name == "mmap_sem")
            traced += ns;
    // Zero waits are skipped by the recorder, so the traced sum equals
    // the lock's accumulated wait time exactly. The workload's
    // AddressSpace is gone, but the VM layer's gauges keep retired
    // spaces' stats.
    const sim::MetricsSnapshot snap = system.snapshotMetrics();
    const std::uint64_t expected =
        static_cast<std::uint64_t>(
            snap.gauge("vm.mmap_sem.read_wait_ns"))
        + static_cast<std::uint64_t>(
            snap.gauge("vm.mmap_sem.write_wait_ns"));
    EXPECT_EQ(traced, expected);
}

TEST_F(TraceTest, ResetRestoresPristineState)
{
    sys::System system(traceConfig(1));
    runWorkload(system, 1);
    EXPECT_GT(sim::Trace::get().spans().eventCount(), 0u);

    sim::Trace::get().reset();
    EXPECT_EQ(sim::Trace::get().spans().eventCount(), 0u);
    EXPECT_EQ(sim::Trace::get().spans().droppedCount(), 0u);
    EXPECT_FALSE(sim::Trace::get().spans().enabled(
        sim::TraceCat::Fault));
}

TEST_F(TraceTest, RecordsOnlyEnabledCategories)
{
    // The recorder's mask gates DAX_TRACE and DAX_SPAN sites alike:
    // with only Fault on, the workload's mmaps and MAP_SYNC journal
    // commits leave nothing behind, even when nested in a fault.
    sim::Trace::get().spans().disableAll();
    sim::Trace::get().spans().enable(sim::TraceCat::Fault);
    sys::System system(traceConfig(1));
    runWorkload(system, 1);

    const sim::TraceReport report = analyze();
    ASSERT_TRUE(report.problems.empty())
        << (report.problems.empty() ? "" : report.problems.front());
    ASSERT_FALSE(report.instants.empty());
    for (const auto &[kind, count] : report.instants)
        EXPECT_EQ(kind.rfind("fault ", 0), 0u) << kind;
    EXPECT_GT(report.faultCount, 0u);
    EXPECT_EQ(report.spans.count("mmap"), 0u);
    EXPECT_EQ(report.spans.count("journal_commit"), 0u);
}

TEST_F(TraceTest, ExportersProduceWellFormedOutput)
{
    sys::System system(traceConfig(2));
    runWorkload(system, 2);

    std::string error;
    const std::string chrome =
        sim::Trace::get().spans().chromeTraceString();
    sim::Json::parse(chrome, &error);
    EXPECT_EQ(error, "");

    const std::string folded =
        sim::Trace::get().spans().foldedStacksString();
    EXPECT_NE(folded.find("fault"), std::string::npos);
    // Nesting is preserved in the folded stacks.
    EXPECT_NE(folded.find("fault;pt_walk"), std::string::npos);
}

TEST_F(TraceTest, RingOverflowStaysBalanced)
{
    sim::Trace::get().spans().setCapacity(64);
    sys::System system(traceConfig(1));
    runWorkload(system, 1);
    ASSERT_GT(sim::Trace::get().spans().droppedCount(), 0u);

    // The exporter repairs wrap damage: the stream stays balanced and
    // the drop count is surfaced as metadata.
    const sim::TraceReport report = analyze();
    EXPECT_TRUE(report.problems.empty())
        << (report.problems.empty() ? "" : report.problems.front());
    EXPECT_GT(report.dropped, 0u);
}
