/**
 * @file
 * Shared bench harness: builds Systems, runs worker groups on the
 * engine, and prints paper-style figure/table rows.
 *
 * Every bench binary prints (a) the exact workload parameters and
 * scaling factors relative to the paper's setup and (b) one row per
 * figure series point, so EXPERIMENTS.md can quote the output
 * directly.
 *
 * Besides the human-readable stdout (whose format is frozen - runs
 * are bit-reproducible, and a change that must not move the model is
 * byte-compared against a run of its parent), each bench accumulates
 * a BenchResult: every figure row, every note, the SystemConfig of the
 * measured systems, the workload seed, and the merged telemetry
 * snapshot of every recorded System. `--json PATH` serializes it
 * (schema: docs/metrics.md); scripts/run_all.sh aggregates the
 * per-bench files and scripts/bench_diff.py validates them.
 *
 * Bench main() protocol:
 *   int main(int argc, char **argv) {
 *       bench::init(argc, argv, "fig1a_readonce");
 *       ... bench::note(...); sys::System system(...);
 *       ... printFigure(...); bench::record(system); ...
 *       return bench::finish();
 *   }
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "sim/json.h"
#include "sim/metrics.h"
#include "sim/trace.h"
#include "sys/system.h"
#include "workloads/common.h"

namespace dax::bench {

/** Default bench system sizes (scaled from the paper's 384 GB PMem). */
inline sys::SystemConfig
benchConfig(std::uint64_t pmemBytes = 2ULL << 30, unsigned cores = 16)
{
    sys::SystemConfig config;
    config.cores = cores;
    config.pmemBytes = pmemBytes;
    config.pmemTableBytes = std::max<std::uint64_t>(
        pmemBytes / 16, 128ULL << 20);
    config.dramBytes = 1ULL << 30;
    return config;
}

/**
 * Run @p tasks as engine threads pinned to cores 0..n-1, starting at
 * the system's quiesce time.
 * @return the elapsed virtual time (makespan - start).
 */
inline sim::Time
runWorkers(sys::System &system,
           std::vector<std::unique_ptr<sim::Task>> tasks)
{
    const sim::Time start = system.quiesceTime();
    int core = 0;
    for (auto &task : tasks) {
        system.engine().addThread(std::move(task), core, start);
        core = (core + 1) % static_cast<int>(system.engine().numCores());
    }
    const sim::Time makespan = system.engine().run();
    return makespan > start ? makespan - start : 0;
}

/** One figure series: label + y value per x position. */
struct Series
{
    std::string name;
    std::vector<double> values;
};

/** One printed figure, captured verbatim for the JSON result. */
struct FigureData
{
    std::string title;
    std::string xLabel;
    std::vector<std::string> xs;
    std::vector<Series> series;
};

/** Serialize figure rows (shared by "figures" and "host"."figures"). */
inline sim::Json
figuresToJson(const std::vector<FigureData> &figures)
{
    sim::Json figArr = sim::Json::array();
    for (const auto &fig : figures) {
        sim::Json f = sim::Json::object();
        f["title"] = sim::Json(fig.title);
        f["x_label"] = sim::Json(fig.xLabel);
        sim::Json xsArr = sim::Json::array();
        for (const auto &x : fig.xs)
            xsArr.push(sim::Json(x));
        f["xs"] = std::move(xsArr);
        sim::Json seriesArr = sim::Json::array();
        for (const auto &s : fig.series) {
            sim::Json sj = sim::Json::object();
            sj["name"] = sim::Json(s.name);
            sim::Json vals = sim::Json::array();
            for (const double v : s.values)
                vals.push(sim::Json(v));
            sj["values"] = std::move(vals);
            seriesArr.push(std::move(sj));
        }
        f["series"] = std::move(seriesArr);
        figArr.push(std::move(f));
    }
    return figArr;
}

/**
 * Everything one bench run produced: the figure rows exactly as
 * printed, free-form notes (workload parameters, aging reports), the
 * configuration and merged metrics snapshot of every System passed to
 * record(), and the workload seed.
 */
struct BenchResult
{
    std::string name;
    std::uint64_t seed = 0;
    std::vector<std::string> notes;
    std::vector<FigureData> figures;
    /** Snapshots of all recorded systems, merged. */
    sim::MetricsSnapshot metrics;
    unsigned systemsRecorded = 0;
    bool haveConfig = false;
    sys::SystemConfig config;
    /** Empty = stdout only (no JSON requested). */
    std::string jsonPath;
    /** Empty = no Chrome span trace requested (`--trace PATH`). */
    std::string tracePath;
    /** Empty = no folded-stack export (`--trace-folded PATH`). */
    std::string foldedPath;
    /**
     * Host wall-clock figures (e.g. micro_ops google-benchmark rows).
     * Serialized under a separate "host" section that check_sweep
     * ignores: everything under "figures" stays deterministic
     * virtual-time data.
     */
    std::vector<FigureData> hostFigures;
    /**
     * One windowed-telemetry run per recorded System that had
     * enableTimeline() on (schema: daxvm-bench-timeline-v1,
     * docs/metrics.md). Deterministic virtual-time data, validated by
     * bench_diff.py.
     */
    std::vector<sim::Json> timelineRuns;

    sim::Json
    toJson() const
    {
        sim::Json root = sim::Json::object();
        root["schema"] = sim::Json("daxvm-bench-result-v1");
        root["bench"] = sim::Json(name);
        root["seed"] = sim::Json(seed);

        sim::Json noteArr = sim::Json::array();
        for (const auto &n : notes)
            noteArr.push(sim::Json(n));
        root["notes"] = std::move(noteArr);

        root["figures"] = figuresToJson(figures);
        if (!hostFigures.empty()) {
            // Host wall-clock data lives in its own section so the
            // determinism comparators can drop it wholesale.
            sim::Json host = sim::Json::object();
            host["figures"] = figuresToJson(hostFigures);
            root["host"] = std::move(host);
        }

        sim::Json cfg = sim::Json::object();
        if (haveConfig) {
            cfg["cores"] = sim::Json(std::uint64_t(config.cores));
            cfg["pmem_bytes"] = sim::Json(config.pmemBytes);
            cfg["pmem_table_bytes"] = sim::Json(config.pmemTableBytes);
            cfg["dram_bytes"] = sim::Json(config.dramBytes);
            cfg["personality"] = sim::Json(
                config.personality == fs::Personality::Ext4Dax
                    ? "ext4dax"
                    : "nova");
            cfg["daxvm"] = sim::Json(config.daxvm);
            cfg["prezero"] = sim::Json(config.prezero);
            cfg["inode_cache_capacity"] =
                sim::Json(std::uint64_t(config.inodeCacheCapacity));
        }
        root["config"] = std::move(cfg);
        root["systems_recorded"] =
            sim::Json(std::uint64_t(systemsRecorded));
        root["metrics"] = metrics.toJson();
        if (!timelineRuns.empty()) {
            sim::Json timeline = sim::Json::object();
            timeline["schema"] = sim::Json("daxvm-bench-timeline-v1");
            sim::Json runs = sim::Json::array();
            for (const auto &run : timelineRuns)
                runs.push(run);
            timeline["runs"] = std::move(runs);
            root["timeline"] = std::move(timeline);
        }
        if (!tracePath.empty() || !foldedPath.empty()) {
            // Tracing-only section: lets tools refuse attribution over
            // lossy traces (satellite: trace.dropped_events). Absent
            // in untraced runs so their JSON stays byte-stable.
            const auto &rec = sim::Trace::get().spans();
            sim::Json trace = sim::Json::object();
            trace["events"] = sim::Json(rec.eventCount());
            trace["dropped_events"] = sim::Json(rec.droppedCount());
            root["trace"] = std::move(trace);
        }
        return root;
    }
};

/** The process-wide result under construction. */
inline BenchResult &
result()
{
    static BenchResult r;
    return r;
}

/**
 * Print the shared bench usage text to stderr, followed by
 * @p extraOptions (a bench's own option lines, already formatted).
 */
inline void
usage(const char *argv0, const char *extraOptions = "")
{
    std::fprintf(stderr,
                 "usage: %s [--json PATH] [--trace PATH] "
                 "[--trace-folded PATH]\n"
                 "  --json PATH          also write the BenchResult as "
                 "JSON (schema: docs/metrics.md)\n"
                 "  --trace PATH         write a Chrome trace_event span "
                 "trace (docs/tracing.md)\n"
                 "  --trace-folded PATH  write folded stacks "
                 "(flamegraph input)\n"
                 "%s",
                 argv0, extraOptions);
}

/**
 * Parse the shared bench command line (`--json PATH`, `--trace PATH`,
 * `--trace-folded PATH`) and name the result. Call first in every
 * bench main(): span recording starts here, before any System exists.
 * A bench that pre-filters its own options passes their usage lines
 * as @p extraOptions.
 */
inline void
init(int argc, char **argv, const std::string &name,
     const char *extraOptions = "")
{
    result().name = name;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            result().jsonPath = argv[++i];
        } else if (arg == "--trace" && i + 1 < argc) {
            result().tracePath = argv[++i];
        } else if (arg == "--trace-folded" && i + 1 < argc) {
            result().foldedPath = argv[++i];
        } else {
            usage(argv[0], extraOptions);
            std::exit(arg == "--help" ? 0 : 2);
        }
    }
    if (!result().tracePath.empty() || !result().foldedPath.empty())
        sim::Trace::get().spans().enableAll();
}

/** Record the workload seed in the result (default 0 = unseeded). */
inline void
setSeed(std::uint64_t seed)
{
    result().seed = seed;
}

/** Print a `# `-prefixed parameter/scaling line and capture it. */
inline void
note(const std::string &text)
{
    std::printf("# %s\n", text.c_str());
    result().notes.push_back(text);
}

/**
 * Fold @p system's configuration and full telemetry snapshot into the
 * result. Call once per System, after its measurement phases and
 * before it is destroyed. Distinct systems have distinct registries,
 * so counters merge additively without double counting.
 */
inline void
record(sys::System &system)
{
    auto &r = result();
    if (!r.haveConfig) {
        r.config = system.config();
        r.haveConfig = true;
    }
    r.metrics.merge(system.snapshotMetrics());
    if (system.timeline() != nullptr) {
        system.timeline()->close(system.engine().maxThreadClock());
        r.timelineRuns.push_back(system.timeline()->toJson());
    }
    r.systemsRecorded++;
}

/**
 * Write the JSON result / span trace exports if requested. Return the
 * bench's exit code (use as `return bench::finish();`).
 */
inline int
finish()
{
    const auto &r = result();
    if (!r.tracePath.empty()) {
        std::FILE *f = std::fopen(r.tracePath.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n",
                         r.tracePath.c_str());
            return 1;
        }
        sim::Trace::get().spans().writeChromeTrace(f);
        std::fclose(f);
    }
    if (!r.foldedPath.empty()) {
        std::FILE *f = std::fopen(r.foldedPath.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n",
                         r.foldedPath.c_str());
            return 1;
        }
        sim::Trace::get().spans().writeFoldedStacks(f);
        std::fclose(f);
    }
    if (r.jsonPath.empty())
        return 0;
    std::FILE *f = std::fopen(r.jsonPath.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", r.jsonPath.c_str());
        return 1;
    }
    const std::string text = r.toJson().dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return 0;
}

/** Age an image the way the evaluation section does. */
inline fs::AgingReport
ageImage(sys::System &system, double churn = 3.0)
{
    fs::AgingConfig aging;
    aging.churnFactor = churn;
    auto report = system.age(aging);
    std::printf("# %s\n", report.toString().c_str());
    result().notes.push_back(report.toString());
    return report;
}

/** Print a figure as an aligned table: rows = x, columns = series. */
inline void
printFigure(const std::string &title, const std::string &xLabel,
            const std::vector<std::string> &xs,
            const std::vector<Series> &series, const char *format = "%12.2f")
{
    std::printf("\n== %s ==\n", title.c_str());
    std::printf("%-14s", xLabel.c_str());
    for (const auto &s : series)
        std::printf("%16s", s.name.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < xs.size(); i++) {
        std::printf("%-14s", xs[i].c_str());
        for (const auto &s : series) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), format,
                          i < s.values.size() ? s.values[i] : 0.0);
            std::printf("%16s", buf);
        }
        std::printf("\n");
    }
    result().figures.push_back(FigureData{title, xLabel, xs, series});
}

/** Human-readable byte size (4K, 2M, 1G...). */
inline std::string
sizeLabel(std::uint64_t bytes)
{
    char buf[32];
    if (bytes >= (1ULL << 30) && bytes % (1ULL << 30) == 0)
        std::snprintf(buf, sizeof(buf), "%lluG", (unsigned long long)(bytes >> 30));
    else if (bytes >= (1ULL << 20) && bytes % (1ULL << 20) == 0)
        std::snprintf(buf, sizeof(buf), "%lluM", (unsigned long long)(bytes >> 20));
    else
        std::snprintf(buf, sizeof(buf), "%lluK", (unsigned long long)(bytes >> 10));
    return buf;
}

} // namespace dax::bench
