/**
 * @file
 * Fragmentation over time: replay Geriatrix-style create/delete churn
 * at 70% utilization for growing churn volumes (1x..8x of capacity)
 * and chart how first-fit block allocation's free space decays into
 * fragments.
 *
 * Deterministic figures (virtual state, bit-reproducible): free-extent
 * count, huge-aligned free fraction, largest free extent, huge-aligned
 * allocation success, and extents handed back per 4 MB allocation.
 * Host wall-clock alloc-latency percentiles (p50/p99 of a mixed-size
 * alloc probe on the aged image) go to the JSON "host" section, which
 * the determinism comparators strip (tools/check_sweep lists this
 * bench as wall-clock for that reason).
 */
#include <algorithm>
#include <chrono>
#include <vector>

#include "bench/common.h"
#include "fs/aging.h"
#include "sim/rng.h"

using namespace dax;
using namespace dax::bench;

namespace {

struct ChurnPoint
{
    std::uint64_t freeExtents = 0;
    double hugeFreeFraction = 0.0;
    double largestFreeMb = 0.0;
    double hugeSuccessPct = 0.0;
    double extentsPer4Mb = 0.0;
    double allocP50Ns = 0.0;
    double allocP99Ns = 0.0;
};

/** Huge-aligned probe: how many of 48 one-chunk requests come back as
 * a single aligned run? All allocations are held until the end so a
 * success cannot be satisfied by a previous probe's freed blocks, then
 * everything is freed (coalescing restores the pools exactly). */
double
hugeSuccessProbe(fs::BlockAllocator &alloc)
{
    constexpr unsigned kAttempts = 48;
    unsigned hits = 0;
    std::vector<std::vector<fs::Extent>> held;
    for (unsigned i = 0; i < kAttempts; i++) {
        auto extents =
            alloc.alloc(fs::kBlocksPerHuge, 0, nullptr, true);
        if (extents.empty())
            break;
        if (extents.size() == 1
            && extents[0].block % fs::kBlocksPerHuge == 0) {
            hits++;
        }
        held.push_back(std::move(extents));
    }
    for (const auto &extents : held)
        for (const auto &e : extents)
            alloc.free(e);
    return 100.0 * static_cast<double>(hits) / kAttempts;
}

/** Average extent count per 4 MB allocation at random goals. Each
 * probe frees its blocks back immediately, restoring the free pool. */
double
extentsPerAllocProbe(fs::BlockAllocator &alloc, sim::Rng &rng)
{
    constexpr unsigned kProbes = 64;
    constexpr std::uint64_t kCount = (4ULL << 20) / fs::kBlockSize;
    std::uint64_t extentsTotal = 0;
    unsigned done = 0;
    for (unsigned i = 0; i < kProbes; i++) {
        auto extents =
            alloc.alloc(kCount, rng.below(alloc.totalBlocks()));
        if (extents.empty())
            continue;
        extentsTotal += extents.size();
        done++;
        for (const auto &e : extents)
            alloc.free(e);
    }
    return done == 0 ? 0.0
                     : static_cast<double>(extentsTotal) / done;
}

/** Wall-clock percentiles of a mixed-size (1..64 block) alloc on the
 * aged image. State-restoring like the probes above; host-only data. */
void
allocLatencyProbe(fs::BlockAllocator &alloc, sim::Rng &rng,
                  double &p50Ns, double &p99Ns)
{
    constexpr unsigned kSamples = 4096;
    std::vector<double> ns;
    ns.reserve(kSamples);
    for (unsigned i = 0; i < kSamples; i++) {
        const std::uint64_t count = 1 + rng.below(64);
        const std::uint64_t goal = rng.below(alloc.totalBlocks());
        const auto t0 = std::chrono::steady_clock::now();
        auto extents = alloc.alloc(count, goal);
        const auto t1 = std::chrono::steady_clock::now();
        for (const auto &e : extents)
            alloc.free(e);
        ns.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
    std::sort(ns.begin(), ns.end());
    p50Ns = ns[ns.size() / 2];
    p99Ns = ns[ns.size() - 1 - ns.size() / 100];
}

/** printFigure twin for host wall-clock rows: same table layout, but
 * the rows land in the JSON "host" section instead of "figures". */
void
printHostFigure(const std::string &title, const std::string &xLabel,
                const std::vector<std::string> &xs,
                const std::vector<Series> &series)
{
    std::printf("\n== %s (host wall clock) ==\n", title.c_str());
    std::printf("%-14s", xLabel.c_str());
    for (const auto &s : series)
        std::printf("%16s", s.name.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < xs.size(); i++) {
        std::printf("%-14s", xs[i].c_str());
        for (const auto &s : series)
            std::printf("%16.0f", s.values[i]);
        std::printf("\n");
    }
    result().hostFigures.push_back(
        FigureData{title, xLabel, xs, series});
}

} // namespace

int
main(int argc, char **argv)
{
    init(argc, argv, "fig_aging_frag");
    note("Fragmentation over time: churn volume sweep at 70% "
         "utilization, first-fit block allocation");
    note("image: 1GB pmem; churn profile: Agrawal sizes, "
         "watermarks 0.52/0.92; probes restore allocator state");
    setSeed(42);

    const std::vector<double> churns = {1.0, 2.0, 4.0, 8.0};

    std::vector<std::string> xs;
    std::vector<ChurnPoint> points(churns.size());

    for (std::size_t ci = 0; ci < churns.size(); ci++) {
        char label[16];
        std::snprintf(label, sizeof(label), "%.0fx", churns[ci]);
        xs.push_back(label);
        sys::SystemConfig config = benchConfig(1ULL << 30);
        config.prezero = false;
        sys::System system(config);

        fs::AgingConfig aging;
        aging.churnFactor = churns[ci];
        const auto report = system.age(aging);
        note(std::string("first-fit ") + label + ": "
             + report.toString());

        fs::BlockAllocator &alloc = system.fs().allocator();
        ChurnPoint &pt = points[ci];
        pt.freeExtents = report.freeExtents;
        pt.hugeFreeFraction = report.hugeAlignedFreeFraction;
        pt.largestFreeMb =
            static_cast<double>(report.largestFreeExtentBlocks)
            * fs::kBlockSize / (1024.0 * 1024);
        pt.hugeSuccessPct = hugeSuccessProbe(alloc);
        sim::Rng rng(1000 + ci * 10);
        pt.extentsPer4Mb = extentsPerAllocProbe(alloc, rng);
        allocLatencyProbe(alloc, rng, pt.allocP50Ns, pt.allocP99Ns);
        record(system);
    }

    // One series per figure, named for the allocator it measures.
    auto series = [&](auto get) {
        Series s;
        s.name = "first-fit";
        for (const ChurnPoint &p : points)
            s.values.push_back(get(p));
        return std::vector<Series>{std::move(s)};
    };

    printFigure("Free extents after aging", "churn", xs,
                series([](const ChurnPoint &p) {
                    return static_cast<double>(p.freeExtents);
                }),
                "%12.0f");
    printFigure("Huge-aligned free fraction", "churn", xs,
                series([](const ChurnPoint &p) {
                    return p.hugeFreeFraction;
                }),
                "%12.4f");
    printFigure("Largest free extent (MB)", "churn", xs,
                series([](const ChurnPoint &p) {
                    return p.largestFreeMb;
                }));
    printFigure("Huge-aligned alloc success (%)", "churn", xs,
                series([](const ChurnPoint &p) {
                    return p.hugeSuccessPct;
                }));
    printFigure("Extents per 4 MB alloc", "churn", xs,
                series([](const ChurnPoint &p) {
                    return p.extentsPer4Mb;
                }));
    printHostFigure("Alloc latency p50 (ns)", "churn", xs,
                    series([](const ChurnPoint &p) {
                        return p.allocP50Ns;
                    }));
    printHostFigure("Alloc latency p99 (ns)", "churn", xs,
                    series([](const ChurnPoint &p) {
                        return p.allocP99Ns;
                    }));
    return bench::finish();
}
