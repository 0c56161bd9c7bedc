/**
 * @file
 * Unit tests for the workload models: filesweep, repetitive, append,
 * apache, textsearch corpus, P-Redis, KvStore and YCSB.
 */
#include <gtest/gtest.h>

#include "workloads/apache.h"
#include "workloads/append.h"
#include "workloads/filesweep.h"
#include "workloads/kvstore.h"
#include "workloads/openloop.h"
#include "workloads/predis.h"
#include "workloads/repetitive.h"
#include "workloads/tenant.h"
#include "workloads/textsearch.h"
#include "workloads/ycsb.h"

using namespace dax;
using namespace dax::wl;

namespace {

sys::SystemConfig
testConfig(std::uint64_t pmem = 512ULL << 20)
{
    sys::SystemConfig config;
    config.cores = 4;
    config.pmemBytes = pmem;
    config.pmemTableBytes = 64ULL << 20;
    config.dramBytes = 512ULL << 20;
    return config;
}

} // namespace

TEST(Filesweep, CompletesAllFilesOnEveryInterface)
{
    for (const auto iface : {Interface::Read, Interface::Mmap,
                             Interface::MmapPopulate,
                             Interface::DaxVm}) {
        sys::System system(testConfig());
        auto as = system.newProcess();
        Filesweep::Config config;
        config.paths = makeFileSet(system, "/sweep/", 20, 32 * 1024);
        config.access.interface = iface;
        if (iface == Interface::DaxVm) {
            config.access.ephemeral = true;
            config.access.asyncUnmap = true;
        }
        Filesweep sweep(system, *as, config);
        sim::Cpu cpu(nullptr, 0, 0);
        while (sweep.step(cpu)) {
        }
        EXPECT_EQ(sweep.filesDone(), 20u) << config.access.label();
        EXPECT_EQ(sweep.bytesDone(), 20u * 32 * 1024);
        EXPECT_GT(cpu.now(), 0u);
    }
}

TEST(Filesweep, DaxVmFasterThanMmapForSmallFiles)
{
    sys::System system(testConfig());
    auto run = [&](AccessOptions access, const char *prefix) {
        auto as = system.newProcess();
        Filesweep::Config config;
        config.paths = makeFileSet(system, prefix, 50, 32 * 1024);
        config.access = access;
        Filesweep sweep(system, *as, config);
        sim::Cpu cpu(nullptr, 0, 0);
        cpu.advanceTo(system.quiesceTime());
        const sim::Time start = cpu.now();
        while (sweep.step(cpu)) {
        }
        return cpu.now() - start;
    };
    AccessOptions mm;
    mm.interface = Interface::Mmap;
    AccessOptions dax;
    dax.interface = Interface::DaxVm;
    dax.ephemeral = true;
    dax.asyncUnmap = true;
    AccessOptions rd;
    rd.interface = Interface::Read;
    const auto tMmap = run(mm, "/a/");
    const auto tDax = run(dax, "/b/");
    const auto tRead = run(rd, "/c/");
    EXPECT_LT(tDax, tMmap);
    EXPECT_LT(tDax, tRead);  // paper Fig. 4: DaxVM beats read
    EXPECT_LT(tRead, tMmap); // and mmap loses to read on small files
}

TEST(Repetitive, RunsReadsAndWrites)
{
    sys::System system(testConfig());
    auto as = system.newProcess();
    const fs::Ino ino = system.makeFile("/big", 64ULL << 20);
    for (const bool write : {false, true}) {
        for (const bool random : {false, true}) {
            Repetitive::Config config;
            config.ino = ino;
            config.fileBytes = 64ULL << 20;
            config.opBytes = 4096;
            config.write = write;
            config.randomOrder = random;
            config.ops = 500;
            config.access.interface = Interface::DaxVm;
            config.access.nosync = true;
            Repetitive rep(system, *as, config);
            sim::Cpu cpu(nullptr, 0, 0);
            while (rep.step(cpu)) {
            }
            EXPECT_EQ(rep.opsDone(), 500u);
        }
    }
}

TEST(Repetitive, SyscallVariantUsesNoMappings)
{
    sys::System system(testConfig());
    auto as = system.newProcess();
    const fs::Ino ino = system.makeFile("/big", 16ULL << 20);
    Repetitive::Config config;
    config.ino = ino;
    config.fileBytes = 16ULL << 20;
    config.write = true;
    config.ops = 100;
    config.writesPerSync = 10;
    config.access.interface = Interface::Read;
    Repetitive rep(system, *as, config);
    sim::Cpu cpu(nullptr, 0, 0);
    while (rep.step(cpu)) {
    }
    EXPECT_EQ(system.metrics().counterValue("vm.mmap"), 0u);
    EXPECT_GT(system.metrics().counterValue("fs.fsyncs"), 0u);
}

TEST(Append, AllInterfacesProduceFiles)
{
    for (const auto iface :
         {Interface::Read, Interface::Mmap, Interface::DaxVm}) {
        sys::System system(testConfig());
        auto as = system.newProcess();
        Append::Config config;
        config.appendBytes = 256 * 1024;
        config.files = 20;
        config.access.interface = iface;
        if (iface == Interface::DaxVm)
            config.access.nosync = true;
        Append append(system, *as, config);
        sim::Cpu cpu(nullptr, 0, 0);
        while (append.step(cpu)) {
        }
        EXPECT_EQ(append.filesDone(), 20u);
    }
}

TEST(Append, PrezeroRecyclingSkipsSynchronousZeroing)
{
    // DaxVM with the daemon drained between appends allocates from the
    // zeroed pool; baseline pays synchronous zeroing per fallocate.
    sys::System system(testConfig());
    auto as = system.newProcess();
    Append::Config config;
    config.appendBytes = 1ULL << 20;
    config.files = 10;
    config.access.interface = Interface::DaxVm;
    config.access.nosync = true;
    Append append(system, *as, config);
    sim::Cpu cpu(nullptr, 0, 0);
    while (append.step(cpu)) {
        system.prezeroDaemon()->drainUntimed();
    }
    EXPECT_GT(system.metrics().counterValue("fs.prezeroed_blocks"), 0u);
}

TEST(Apache, ServesRequestsOnAllInterfaces)
{
    sys::System system(testConfig());
    auto pages = makeWebPages(system, "/www/", 32, 32 * 1024);
    for (const auto iface : {Interface::Read, Interface::Mmap,
                             Interface::MmapPopulate,
                             Interface::DaxVm}) {
        auto as = system.newProcess();
        ApacheWorker::Config config;
        config.pages = pages;
        config.requests = 200;
        config.access.interface = iface;
        if (iface == Interface::DaxVm) {
            config.access.ephemeral = true;
            config.access.asyncUnmap = true;
        }
        ApacheWorker worker(system, *as, config);
        sim::Cpu cpu(nullptr, 0, 0);
        while (worker.step(cpu)) {
        }
        EXPECT_EQ(worker.requestsDone(), 200u);
    }
}

TEST(Apache, LatrVariantDrainsLazily)
{
    sys::System system(testConfig());
    auto pages = makeWebPages(system, "/www/", 8, 32 * 1024);
    auto as = system.newProcess();
    ApacheWorker::Config config;
    config.pages = pages;
    config.requests = 50;
    config.access.interface = Interface::MmapPopulate;
    config.access.latr = true;
    ApacheWorker worker(system, *as, config);
    sim::Cpu cpu(nullptr, 0, 0);
    while (worker.step(cpu)) {
    }
    EXPECT_EQ(worker.requestsDone(), 50u);
    EXPECT_EQ(system.metrics().counterValue("tlb.ipis"), 0u);
}

TEST(TextSearch, CorpusHasExpectedShape)
{
    sys::System system(testConfig(1ULL << 30));
    auto paths = makeSourceTreeCorpus(system, "/src/", 2000);
    EXPECT_EQ(paths.size(), 2000u);
    std::uint64_t total = 0;
    for (const auto &p : paths)
        total += system.fs().inode(*system.fs().lookupPath(p)).size;
    // Median ~8 KB: 2000 files well under 256 MB but over 8 MB.
    EXPECT_GT(total, 8ULL << 20);
    EXPECT_LT(total, 256ULL << 20);
    auto slice0 = sliceForThread(paths, 0, 4);
    auto slice3 = sliceForThread(paths, 3, 4);
    EXPECT_EQ(slice0.size(), 500u);
    EXPECT_EQ(slice3.size(), 500u);
    EXPECT_NE(slice0[0], slice3[0]);
}

TEST(PRedis, DaxVmBootsInstantlyPopulateStalls)
{
    sys::System system(testConfig(1ULL << 30));
    // Age the image: the store gets fragmented (4 KB) extents, so
    // populate really stalls startup (paper Fig. 9b).
    fs::AgingConfig aging;
    aging.churnFactor = 1.5;
    system.age(aging);
    const std::uint64_t storeBytes = 256ULL << 20;
    const std::uint64_t indexBytes = 16ULL << 20;
    auto runBoot = [&](Interface iface, const char *tag) {
        auto as = system.newProcess();
        PRedisServer::Config config;
        config.store = *system.fs().lookupPath("/redis/store");
        config.index = *system.fs().lookupPath("/redis/index");
        config.storeBytes = storeBytes;
        config.indexBytes = indexBytes;
        config.ops = 2000;
        config.access.interface = iface;
        config.access.nosync = iface == Interface::DaxVm;
        (void)tag;
        PRedisServer server(system, *as, config);
        sim::Cpu cpu(nullptr, 0, 0);
        cpu.advanceTo(system.quiesceTime());
        while (server.step(cpu)) {
        }
        EXPECT_EQ(server.opsDone(), 2000u);
        return server.bootLatency();
    };
    system.makeFile("/redis/store", storeBytes);
    system.makeFile("/redis/index", indexBytes);
    const auto daxBoot = runBoot(Interface::DaxVm, "daxvm");
    const auto populateBoot =
        runBoot(Interface::MmapPopulate, "populate");
    const auto lazyBoot = runBoot(Interface::Mmap, "mmap");
    EXPECT_LT(daxBoot * 10, populateBoot);
    EXPECT_LT(lazyBoot, populateBoot);
}

TEST(KvStore, PutGetFlushCompact)
{
    sys::System system(testConfig(1ULL << 30));
    auto as = system.newProcess();
    KvStore::Config config;
    config.memtableRecords = 64;
    config.compactionTrigger = 4;
    config.compactionWidth = 2;
    config.access.interface = Interface::DaxVm;
    config.access.nosync = true;
    KvStore kv(system, *as, config);
    sim::Cpu cpu(nullptr, 0, 0);
    for (std::uint64_t k = 0; k < 1000; k++)
        kv.put(cpu, k);
    EXPECT_GT(kv.flushes(), 10u);
    EXPECT_GT(kv.compactions(), 0u);
    EXPECT_LE(kv.sstables(), 8u);
    // Every inserted key is findable; absent keys are not.
    for (std::uint64_t k = 0; k < 1000; k += 37)
        EXPECT_TRUE(kv.get(cpu, k)) << k;
    EXPECT_FALSE(kv.get(cpu, 99999));
}

TEST(KvStore, WorksOverPosixMmapWithMapSync)
{
    sys::System system(testConfig(1ULL << 30));
    auto as = system.newProcess();
    KvStore::Config config;
    config.memtableRecords = 64;
    config.access.interface = Interface::Mmap;
    config.access.mapSync = true;
    KvStore kv(system, *as, config);
    sim::Cpu cpu(nullptr, 0, 0);
    for (std::uint64_t k = 0; k < 300; k++)
        kv.put(cpu, k);
    EXPECT_TRUE(kv.get(cpu, 5));
    // MAP_SYNC first-write faults committed the journal repeatedly.
    EXPECT_GT(system.fs().journal().commits(), 10u);
}

TEST(Ycsb, MixesDispatchExpectedOperations)
{
    sys::System system(testConfig(1ULL << 30));
    auto as = system.newProcess();
    KvStore::Config kvConfig;
    kvConfig.memtableRecords = 128;
    kvConfig.access.interface = Interface::DaxVm;
    kvConfig.access.nosync = true;
    KvStore kv(system, *as, kvConfig);

    // Load phase.
    YcsbRunner::Config load;
    load.kv = &kv;
    load.mix = YcsbMix::loadA();
    load.records = 0;
    load.ops = 2000;
    YcsbRunner loader(load);
    sim::Cpu cpu(nullptr, 0, 0);
    while (loader.step(cpu)) {
    }
    EXPECT_EQ(kv.puts(), 2000u);

    // Run A: half the ops are reads.
    YcsbRunner::Config runA;
    runA.kv = &kv;
    runA.mix = YcsbMix::runA();
    runA.records = 2000;
    runA.ops = 2000;
    YcsbRunner runner(runA);
    while (runner.step(cpu)) {
    }
    EXPECT_NEAR(static_cast<double>(kv.gets()), 1000.0, 150.0);
    EXPECT_NEAR(static_cast<double>(kv.puts()), 3000.0, 150.0);
}

TEST(Ycsb, RunEIssuesScans)
{
    sys::System system(testConfig(1ULL << 30));
    auto as = system.newProcess();
    KvStore::Config kvConfig;
    kvConfig.memtableRecords = 128;
    kvConfig.access.interface = Interface::DaxVm;
    kvConfig.access.nosync = true;
    KvStore kv(system, *as, kvConfig);
    sim::Cpu cpu(nullptr, 0, 0);
    for (std::uint64_t k = 0; k < 1000; k++)
        kv.put(cpu, k);
    YcsbRunner::Config runE;
    runE.kv = &kv;
    runE.mix = YcsbMix::runE();
    runE.records = 1000;
    runE.ops = 500;
    YcsbRunner runner(runE);
    const sim::Time before = cpu.now();
    while (runner.step(cpu)) {
    }
    EXPECT_GT(cpu.now(), before);
    EXPECT_EQ(runner.opsDone(), 500u);
}

// ---------------------------------------------------------------------
// Open-loop traffic engine (workloads/openloop.h, workloads/tenant.h)
// ---------------------------------------------------------------------

TEST(OpenLoop, ArrivalProcessesExactSortedAndOrderIndependent)
{
    for (const auto kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                            ArrivalKind::Diurnal}) {
        ArrivalConfig config;
        config.kind = kind;
        config.ratePerSec = 200000.0;
        config.clients = 4;
        config.meanSessionRequests = 16.0;
        config.meanBurstNs = 1000000;
        config.meanCalmNs = 4000000;
        config.diurnalPeriodNs = 10000000;
        const std::uint64_t perClient = 3000;

        // Generate client streams in opposite orders: the schedule
        // must not depend on which client extends the (Bursty)
        // modulation timeline first.
        ArrivalProcess fwd(config, sim::Rng(77));
        ArrivalProcess rev(config, sim::Rng(77));
        std::vector<std::vector<Arrival>> a(config.clients);
        std::vector<std::vector<Arrival>> b(config.clients);
        for (unsigned c = 0; c < config.clients; c++)
            a[c] = fwd.generateClient(c, perClient);
        for (unsigned c = config.clients; c-- > 0;)
            b[c] = rev.generateClient(c, perClient);

        // Exact per-client counts, strictly increasing timestamps,
        // sessions open on the first request.
        for (unsigned c = 0; c < config.clients; c++) {
            ASSERT_EQ(a[c].size(), perClient);
            ASSERT_TRUE(a[c].front().newSession);
            for (std::size_t i = 1; i < a[c].size(); i++)
                ASSERT_GT(a[c][i].at, a[c][i - 1].at);
        }

        const auto merged = ArrivalProcess::mergeSchedules(a);
        const auto mergedRev = ArrivalProcess::mergeSchedules(b);
        ASSERT_EQ(merged.size(), perClient * config.clients);
        ASSERT_EQ(mergedRev.size(), merged.size());
        std::uint64_t sessions = 0;
        for (std::size_t i = 0; i < merged.size(); i++) {
            ASSERT_EQ(merged[i].at, mergedRev[i].at);
            ASSERT_EQ(merged[i].client, mergedRev[i].client);
            ASSERT_EQ(merged[i].newSession, mergedRev[i].newSession);
            if (i > 0) {
                ASSERT_GE(merged[i].at, merged[i - 1].at);
            }
            if (merged[i].newSession)
                sessions++;
        }

        // Thinning preserves the configured mean rate. The estimator
        // is count over the span of the *slowest* client stream, which
        // biases a few percent low; the MMPP's slowly mixing
        // modulation adds realization noise on top (~12 burst cycles
        // in this window), hence the wider band for Bursty.
        const double spanSec =
            static_cast<double>(merged.back().at) / 1e9;
        const double rate =
            static_cast<double>(merged.size()) / spanSec;
        const double tol = kind == ArrivalKind::Bursty ? 0.3 : 0.12;
        EXPECT_NEAR(rate, config.ratePerSec, tol * config.ratePerSec)
            << arrivalKindName(kind);
        // ...and sessions churn at ~1/meanSessionRequests.
        const double expectSessions =
            static_cast<double>(merged.size())
            / config.meanSessionRequests;
        EXPECT_NEAR(static_cast<double>(sessions), expectSessions,
                    0.25 * expectSessions)
            << arrivalKindName(kind);
    }
}

namespace {

/** A miniature fig10-style mix: 3 tenants, 600 requests each. */
sim::MetricsSnapshot
runSmallOpenLoopMix()
{
    sys::System system(testConfig(1ULL << 30));

    std::vector<TenantSpec> specs(3);
    TenantSpec &apache = specs[0];
    apache.name = "apache";
    apache.kind = TenantKind::Apache;
    apache.requests = 600;
    apache.servers = 2;
    apache.sloNs = 300000;
    apache.arrival.kind = ArrivalKind::Poisson;
    apache.arrival.ratePerSec = 150000.0;
    apache.arrival.clients = 8;
    apache.pageCount = 16;
    apache.access.interface = Interface::DaxVm;
    apache.access.ephemeral = true;
    apache.access.asyncUnmap = true;
    apache.access.nosync = true;

    TenantSpec &predis = specs[1];
    predis.name = "predis";
    predis.kind = TenantKind::PRedis;
    predis.requests = 600;
    predis.servers = 2;
    predis.sloNs = 100000;
    predis.arrival.kind = ArrivalKind::Bursty;
    predis.arrival.ratePerSec = 400000.0;
    predis.arrival.clients = 8;
    predis.storeBytes = 4ULL << 20;
    predis.indexBytes = 512ULL << 10;
    predis.access.interface = Interface::DaxVm;
    predis.access.nosync = true;

    TenantSpec &ycsb = specs[2];
    ycsb.name = "ycsb";
    ycsb.kind = TenantKind::Ycsb;
    ycsb.requests = 600;
    ycsb.servers = 2;
    ycsb.sloNs = 1000000;
    ycsb.arrival.kind = ArrivalKind::Diurnal;
    ycsb.arrival.ratePerSec = 50000.0;
    ycsb.arrival.clients = 8;
    ycsb.records = 400;
    ycsb.access.interface = Interface::DaxVm;
    ycsb.access.nosync = true;

    sim::Rng master(99);
    std::vector<std::unique_ptr<Tenant>> tenants;
    for (std::size_t t = 0; t < specs.size(); t++) {
        sim::Rng stream = master;
        for (std::size_t j = 0; j <= t; j++)
            stream.longJump();
        tenants.push_back(
            std::make_unique<Tenant>(system, specs[t], stream));
    }

    for (std::size_t t = 0; t < tenants.size(); t++) {
        system.engine().addThread(tenants[t]->makeGenTask(),
                                  static_cast<int>(t));
        if (auto preload = tenants[t]->makePreloadTask())
            system.engine().addThread(std::move(preload),
                                      static_cast<int>(t));
    }
    system.engine().run();

    const sim::Time base = system.quiesceTime();
    int core = 0;
    for (auto &tenant : tenants) {
        tenant->beginService(base);
        for (auto &server : tenant->makeServers()) {
            system.engine().addThread(std::move(server), core, base);
            core = (core + 1)
                 % static_cast<int>(system.engine().numCores());
        }
    }
    system.engine().run();
    return system.snapshotMetrics();
}

} // namespace

TEST(OpenLoop, TenantMixDeterministicWithConsistentAccounting)
{
    const sim::MetricsSnapshot s1 = runSmallOpenLoopMix();
    const sim::MetricsSnapshot s2 = runSmallOpenLoopMix();

    for (const std::string name : {"apache", "predis", "ycsb"}) {
        const std::string prefix = "openloop." + name + ".";
        EXPECT_EQ(s1.counter(prefix + "requests"), 600u) << name;

        const auto it = s1.histograms.find(prefix + "latency_ns");
        ASSERT_NE(it, s1.histograms.end()) << name;
        const sim::HistogramData &lat = it->second;
        EXPECT_EQ(lat.count, 600u) << name;

        // latency = queueing delay + service time, per request, so
        // the sums must agree exactly.
        const sim::HistogramData &queued =
            s1.histograms.at(prefix + "queue_delay_ns");
        const sim::HistogramData &service =
            s1.histograms.at(prefix + "service_ns");
        EXPECT_EQ(lat.sum, queued.sum + service.sum) << name;
        EXPECT_EQ(queued.count, lat.count) << name;
        EXPECT_EQ(service.count, lat.count) << name;

        // Connection churn: more than one session, at most one per
        // request; violations cannot exceed requests.
        const std::uint64_t conns =
            s1.counter(prefix + "connections");
        EXPECT_GT(conns, 1u) << name;
        EXPECT_LE(conns, 600u) << name;
        EXPECT_LE(s1.counter(prefix + "slo_violations"), 600u)
            << name;

        // Bit-identical across runs.
        EXPECT_EQ(lat, s2.histograms.at(prefix + "latency_ns"))
            << name;
        EXPECT_EQ(queued, s2.histograms.at(prefix + "queue_delay_ns"))
            << name;
        EXPECT_EQ(s1.counter(prefix + "slo_violations"),
                  s2.counter(prefix + "slo_violations"))
            << name;
    }
}
