/**
 * @file
 * Fig 10 (beyond the paper): open-loop multi-tenant traffic with
 * tail-latency SLOs (docs/workloads.md).
 *
 * Three tenants — Apache static pages (Poisson arrivals), a P-Redis
 * cache (bursty MMPP-2 arrivals) and a YCSB/LSM store (diurnal ramp)
 * — share one device and file system. A load sweep scales every
 * tenant's offered arrival rate; requests are injected open loop, so
 * latency is measured from the scheduled arrival (queueing delay
 * included) and saturation shows up as a tail-latency knee instead of
 * the closed-loop throughput plateau of Figs. 8-9.
 *
 * Reported per tenant and load point: interpolated p50/p99/p999
 * latency, SLO-violation share, achieved throughput, plus the derived
 * saturation-throughput-vs-SLO curve (the largest achieved throughput
 * whose p99 meets each SLO target).
 *
 * Scaling knobs (CI smoke): `--requests N` or DAXVM_OPENLOOP_REQUESTS
 * set the total request count across tenants and load points
 * (default 1,050,000).
 *
 * Determinism: bit-identical across double runs (tools/check_sweep).
 * Arrival generation runs as per-tenant engine tasks in phase 1; in
 * phase 2 the tenants' servers contend for the same locks and
 * devices under exact min-clock ordering.
 */
#include <algorithm>
#include <array>
#include <cstring>

#include "bench/common.h"
#include "sim/cli.h"
#include "workloads/tenant.h"

using namespace dax;
using namespace dax::bench;
using namespace dax::wl;

namespace {

struct PointResult
{
    double p50Us = 0;
    double p99Us = 0;
    double p999Us = 0;
    double violationPct = 0;
    double achievedKrps = 0;
};

constexpr double kLoads[] = {0.4, 0.8, 1.2, 1.6, 2.0};
constexpr double kSloTargetsMs[] = {0.25, 0.5, 1.0, 2.0, 4.0};

std::vector<TenantSpec>
mixSpecs(double load, std::uint64_t perPoint)
{
    // Request split: Apache and P-Redis 40% each, YCSB 20% (its ops
    // are the heaviest). Counts are exact (ArrivalGenTask splits the
    // remainder across client streams).
    std::vector<TenantSpec> specs(3);

    TenantSpec &apache = specs[0];
    apache.name = "apache";
    apache.kind = TenantKind::Apache;
    apache.requests = perPoint * 2 / 5;
    apache.servers = 6;
    apache.sloNs = 500000; // 500 us
    apache.arrival.kind = ArrivalKind::Poisson;
    apache.arrival.ratePerSec = 170000.0 * load;
    apache.arrival.clients = 96;
    apache.arrival.meanSessionRequests = 32;
    apache.pageCount = 64;
    apache.pageBytes = 4096;
    apache.access.interface = Interface::DaxVm;
    apache.access.ephemeral = true;
    apache.access.asyncUnmap = true;
    apache.access.nosync = true;

    TenantSpec &predis = specs[1];
    predis.name = "predis";
    predis.kind = TenantKind::PRedis;
    predis.requests = perPoint * 2 / 5;
    predis.servers = 6;
    predis.sloNs = 200000; // 200 us
    predis.arrival.kind = ArrivalKind::Bursty;
    predis.arrival.ratePerSec = 1000000.0 * load;
    predis.arrival.clients = 64;
    predis.arrival.meanSessionRequests = 256;
    predis.arrival.burstRateFactor = 6.0;
    predis.arrival.meanBurstNs = 2000000;
    predis.arrival.meanCalmNs = 10000000;
    predis.storeBytes = 64ULL << 20;
    predis.indexBytes = 8ULL << 20;
    predis.valueBytes = 4096;
    predis.access.interface = Interface::DaxVm;
    predis.access.nosync = true;

    TenantSpec &ycsb = specs[2];
    ycsb.name = "ycsb";
    ycsb.kind = TenantKind::Ycsb;
    ycsb.requests = perPoint - apache.requests - predis.requests;
    ycsb.servers = 4;
    ycsb.sloNs = 1000000; // 1 ms
    ycsb.arrival.kind = ArrivalKind::Diurnal;
    ycsb.arrival.ratePerSec = 55000.0 * load;
    ycsb.arrival.clients = 32;
    ycsb.arrival.meanSessionRequests = 128;
    ycsb.arrival.diurnalAmplitude = 0.75;
    ycsb.arrival.diurnalPeriodNs = 40000000;
    ycsb.mix = YcsbMix::runB();
    // Keep the preload proportionate when the smoke knob shrinks the
    // request budget.
    ycsb.records = std::max<std::uint64_t>(
        1000, std::min<std::uint64_t>(20000, ycsb.requests / 2));
    ycsb.scanLength = 16;
    ycsb.access.interface = Interface::DaxVm;
    ycsb.access.nosync = true;

    return specs;
}

} // namespace

int
main(int argc, char **argv)
{
    // Pre-filter the bench-specific knob; everything else goes to the
    // shared harness parser (which rejects unknown arguments).
    const char *requestsUsage =
        "  --requests N         total requests over all load points "
        "(default 1050000;\n"
        "                       DAXVM_OPENLOOP_REQUESTS is the "
        "fallback)\n";
    auto badValue = [&](const char *value, const char *what) {
        std::fprintf(stderr, "fig10_openloop: bad value '%s' for %s\n",
                     value, what);
        usage(argv[0], requestsUsage);
        return 2;
    };
    std::uint64_t totalRequests = 0;
    std::vector<char *> pass;
    pass.push_back(argv[0]);
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
            if (!sim::parseNumber(argv[++i], totalRequests))
                return badValue(argv[i], "--requests");
        } else {
            pass.push_back(argv[i]);
        }
    }
    init(static_cast<int>(pass.size()), pass.data(), "fig10_openloop",
         requestsUsage);
    if (totalRequests == 0) {
        if (const char *env = std::getenv("DAXVM_OPENLOOP_REQUESTS")) {
            if (!sim::parseNumber(env, totalRequests))
                return badValue(env, "DAXVM_OPENLOOP_REQUESTS");
        }
    }
    if (totalRequests == 0)
        totalRequests = 1050000;

    const std::uint64_t seed = 42;
    setSeed(seed);
    const std::size_t nLoads = std::size(kLoads);
    const std::uint64_t perPoint =
        totalRequests / static_cast<std::uint64_t>(nLoads);

    note("Fig 10: open-loop multi-tenant traffic, tail-latency SLOs "
         "(beyond the paper)");
    note("tenants: apache(poisson, slo 500us) + predis(bursty mmpp-2, "
         "slo 200us) + ycsb-B(diurnal ramp, slo 1ms), one shared "
         "device/fs");
    note("requests total: " + std::to_string(perPoint * nLoads)
         + " across " + std::to_string(nLoads)
         + " load points (--requests / DAXVM_OPENLOOP_REQUESTS to "
           "scale)");
    note("latency measured from scheduled arrival (open loop: "
         "queueing delay included)");

    // results[tenant][load point]
    std::vector<std::array<PointResult, std::size(kLoads)>> results(3);
    std::vector<std::string> tenantNames;

    for (std::size_t li = 0; li < nLoads; li++) {
        sys::System system(benchConfig(2ULL << 30, 16));
        // Windowed telemetry: 5 ms virtual windows over the open-loop
        // instruments only (docs/metrics.md). Ticked by the servers;
        // record() closes it into the JSON "timeline" section.
        sim::MetricsTimeline::Config timeline;
        timeline.windowNs = 5'000'000;
        timeline.prefix = "openloop.";
        system.enableTimeline(timeline);
        auto specs = mixSpecs(kLoads[li], perPoint);

        sim::Rng master(seed);
        std::vector<std::unique_ptr<Tenant>> tenants;
        for (std::size_t t = 0; t < specs.size(); t++) {
            // Tenant streams 2^192 apart; client streams 2^128 apart
            // within each tenant (rng.h).
            sim::Rng stream = master;
            for (std::size_t j = 0; j <= t; j++)
                stream.longJump();
            tenants.push_back(std::make_unique<Tenant>(
                system, specs[t], stream));
        }

        // Phase 1: arrival synthesis, one task per tenant, plus the
        // YCSB preload.
        for (std::size_t t = 0; t < tenants.size(); t++) {
            system.engine().addThread(tenants[t]->makeGenTask(),
                                      static_cast<int>(t));
            if (auto preload = tenants[t]->makePreloadTask())
                system.engine().addThread(std::move(preload),
                                          static_cast<int>(t));
        }
        system.engine().run();

        // Phase 2: serve. All tenants' server pools share the engine
        // - they contend on the same file system and device.
        const sim::Time base = system.quiesceTime();
        std::vector<std::unique_ptr<sim::Task>> servers;
        for (auto &tenant : tenants) {
            tenant->beginService(base);
            for (auto &s : tenant->makeServers())
                servers.push_back(std::move(s));
        }
        runWorkers(system, std::move(servers));

        for (std::size_t t = 0; t < tenants.size(); t++) {
            const auto &tenant = *tenants[t];
            const std::string prefix =
                "openloop." + tenant.spec().name + ".";
            const sim::HistogramData lat =
                system.metrics().histogramValue(prefix + "latency_ns");
            const std::uint64_t violations =
                system.metrics().counterValue(prefix
                                              + "slo_violations");
            PointResult &r = results[t][li];
            r.p50Us = static_cast<double>(lat.percentile(0.50)) / 1e3;
            r.p99Us = static_cast<double>(lat.percentile(0.99)) / 1e3;
            r.p999Us =
                static_cast<double>(lat.percentile(0.999)) / 1e3;
            r.violationPct =
                lat.count == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(violations)
                          / static_cast<double>(lat.count);
            r.achievedKrps = tenant.achievedRate() / 1e3;
            if (li == 0)
                tenantNames.push_back(tenant.spec().name);
        }
        record(system);
    }

    std::vector<std::string> xs;
    for (const double load : kLoads) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%.1fx", load);
        xs.push_back(buf);
    }

    const auto figure = [&](const std::string &title,
                            double PointResult::* field) {
        std::vector<Series> series;
        for (std::size_t t = 0; t < results.size(); t++) {
            Series s;
            s.name = tenantNames[t];
            for (std::size_t li = 0; li < nLoads; li++)
                s.values.push_back(results[t][li].*field);
            series.push_back(std::move(s));
        }
        printFigure(title, "load", xs, series);
    };

    figure("Fig 10a: p50 latency vs offered load (us, lower is "
           "better)",
           &PointResult::p50Us);
    figure("Fig 10b: p99 latency vs offered load (us, lower is "
           "better)",
           &PointResult::p99Us);
    figure("Fig 10c: p999 latency vs offered load (us, lower is "
           "better)",
           &PointResult::p999Us);
    figure("Fig 10d: SLO violations vs offered load (%, lower is "
           "better)",
           &PointResult::violationPct);
    figure("Fig 10e: achieved throughput vs offered load (krps, "
           "higher is better)",
           &PointResult::achievedKrps);

    // Saturation throughput vs SLO: the best achieved throughput
    // among load points whose measured p99 meets the target.
    {
        std::vector<std::string> sloXs;
        for (const double ms : kSloTargetsMs) {
            char buf[16];
            std::snprintf(buf, sizeof(buf), "%.2fms", ms);
            sloXs.push_back(buf);
        }
        std::vector<Series> series;
        for (std::size_t t = 0; t < results.size(); t++) {
            Series s;
            s.name = tenantNames[t];
            for (const double ms : kSloTargetsMs) {
                double best = 0.0;
                for (std::size_t li = 0; li < nLoads; li++) {
                    if (results[t][li].p99Us <= ms * 1000.0
                        && results[t][li].achievedKrps > best)
                        best = results[t][li].achievedKrps;
                }
                s.values.push_back(best);
            }
            series.push_back(std::move(s));
        }
        printFigure("Fig 10f: saturation throughput vs p99 SLO "
                    "(krps, higher is better)",
                    "p99 SLO", sloXs, series);
    }

    return finish();
}
