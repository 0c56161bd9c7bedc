/**
 * @file
 * Integration tests: multi-threaded engine runs reproducing the
 * paper's qualitative results end to end - scalability orderings,
 * fragmentation sensitivity, crash/remount behaviour, determinism.
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "workloads/apache.h"
#include "workloads/filesweep.h"
#include "workloads/kvstore.h"
#include "workloads/textsearch.h"
#include "workloads/ycsb.h"

using namespace dax;
using namespace dax::wl;

namespace {

sys::SystemConfig
bigConfig()
{
    sys::SystemConfig config;
    config.cores = 16;
    config.pmemBytes = 1ULL << 30;
    config.pmemTableBytes = 128ULL << 20;
    config.dramBytes = 512ULL << 20;
    return config;
}

/**
 * Run the Apache workload on @p threads cores through @p access.
 * @return aggregate requests/second.
 */
double
apacheThroughput(unsigned threads, const AccessOptions &access,
                 std::uint64_t requestsPerThread = 1500)
{
    sys::SystemConfig config = bigConfig();
    config.cores = threads;
    sys::System system(config);
    auto pages = makeWebPages(system, "/www/", 64, 32 * 1024);
    std::vector<std::unique_ptr<vm::AddressSpace>> spaces;
    std::vector<ApacheWorker *> workers;
    auto as = system.newProcess(); // all threads share the process
    for (unsigned t = 0; t < threads; t++) {
        ApacheWorker::Config wc;
        wc.pages = pages;
        wc.requests = requestsPerThread;
        wc.access = access;
        wc.seed = t + 1;
        auto worker =
            std::make_unique<ApacheWorker>(system, *as, wc);
        workers.push_back(worker.get());
        system.engine().addThread(std::move(worker),
                                  static_cast<int>(t));
    }
    const sim::Time makespan = system.engine().run();
    std::uint64_t requests = 0;
    for (auto *w : workers)
        requests += w->requestsDone();
    spaces.push_back(std::move(as));
    return static_cast<double>(requests)
         / (static_cast<double>(makespan) / 1e9);
}

} // namespace

TEST(Scalability, ReadScalesNearlyLinearly)
{
    AccessOptions read;
    read.interface = Interface::Read;
    const double one = apacheThroughput(1, read);
    const double eight = apacheThroughput(8, read);
    EXPECT_GT(eight, one * 5.0);
}

TEST(Scalability, DefaultMmapCollapses)
{
    AccessOptions mm;
    mm.interface = Interface::Mmap;
    const double four = apacheThroughput(4, mm);
    const double sixteen = apacheThroughput(16, mm);
    // Past the knee, extra cores add (almost) nothing.
    EXPECT_LT(sixteen, four * 1.8);
}

TEST(Scalability, DaxVmScalesAndBeatsRead)
{
    AccessOptions dax;
    dax.interface = Interface::DaxVm;
    dax.ephemeral = true;
    dax.asyncUnmap = true;
    AccessOptions read;
    read.interface = Interface::Read;
    AccessOptions mm;
    mm.interface = Interface::Mmap;
    const double dax16 = apacheThroughput(16, dax);
    const double read16 = apacheThroughput(16, read);
    const double mm16 = apacheThroughput(16, mm);
    EXPECT_GT(dax16, read16);       // paper: +30% at 16 cores
    EXPECT_GT(dax16, mm16 * 2.0);   // paper: ~4x
}

TEST(Scalability, EphemeralBeatsFileTablesAlone)
{
    // The ephemeral allocator's reader-only semaphore usage shows up
    // where m(un)map dominates the request: a pure open-map-scan-close
    // sweep of small files on many cores (paper Fig. 1b).
    auto sweepRps = [](bool ephemeral) {
        sys::SystemConfig config = bigConfig();
        sys::System system(config);
        auto paths = makeFileSet(system, "/files/", 2048, 32 * 1024);
        auto as = system.newProcess();
        std::vector<Filesweep *> sweeps;
        for (unsigned t = 0; t < 16; t++) {
            Filesweep::Config fc;
            fc.paths = sliceForThread(paths, t, 16);
            fc.access.interface = Interface::DaxVm;
            fc.access.ephemeral = ephemeral;
            auto sweep = std::make_unique<Filesweep>(system, *as, fc);
            sweeps.push_back(sweep.get());
            system.engine().addThread(std::move(sweep),
                                      static_cast<int>(t));
        }
        const sim::Time makespan = system.engine().run();
        return 2048.0 / (static_cast<double>(makespan) / 1e9);
    };
    const double tablesOnly = sweepRps(false);
    const double ephemeral = sweepRps(true);
    EXPECT_GT(ephemeral, tablesOnly * 1.15);
}

TEST(Determinism, IdenticalRunsProduceIdenticalMakespans)
{
    AccessOptions dax;
    dax.interface = Interface::DaxVm;
    dax.ephemeral = true;
    const double a = apacheThroughput(4, dax, 500);
    const double b = apacheThroughput(4, dax, 500);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(SystemConfig, SimThreadsAboveOneRejected)
{
    // The engine is sequential: 0 and 1 are the only accepted values.
    sys::SystemConfig config;
    config.cores = 2;
    config.pmemBytes = 64ULL << 20;
    config.pmemTableBytes = 32ULL << 20;
    config.dramBytes = 32ULL << 20;
    for (const unsigned threads : {0u, 1u}) {
        config.simThreads = threads;
        EXPECT_NO_THROW(sys::System system(config)) << threads;
    }
    config.simThreads = 2;
    EXPECT_THROW(sys::System system(config), std::invalid_argument);
}

TEST(Fragmentation, AgedImageHurtsMmapNotDaxVm)
{
    auto sweepTime = [](bool aged, Interface iface) {
        sys::SystemConfig config = bigConfig();
        config.cores = 1;
        sys::System system(config);
        if (aged) {
            fs::AgingConfig agingConfig;
            agingConfig.churnFactor = 3.0;
            system.age(agingConfig);
        }
        auto as = system.newProcess();
        Filesweep::Config fc;
        fc.paths = makeFileSet(system, "/sweep/", 8, 16ULL << 20);
        fc.access.interface = iface;
        if (iface == Interface::DaxVm) {
            fc.access.ephemeral = true;
            fc.access.asyncUnmap = true;
        }
        Filesweep sweep(system, *as, fc);
        sim::Cpu cpu(nullptr, 0, 0);
        while (sweep.step(cpu)) {
        }
        return cpu.now();
    };
    const auto mmFresh = sweepTime(false, Interface::Mmap);
    const auto mmAged = sweepTime(true, Interface::Mmap);
    const auto daxFresh = sweepTime(false, Interface::DaxVm);
    const auto daxAged = sweepTime(true, Interface::DaxVm);
    // Aging costs default mmap dearly (4 KB faults instead of 2 MB);
    // DaxVM is nearly insensitive (paper Fig. 4).
    EXPECT_GT(static_cast<double>(mmAged),
              1.15 * static_cast<double>(mmFresh));
    EXPECT_LT(static_cast<double>(daxAged),
              1.10 * static_cast<double>(daxFresh));
}

TEST(CrashConsistency, RemountKeepsDataAndPersistentTables)
{
    sys::SystemConfig config = bigConfig();
    config.cores = 2;
    sys::System system(config);
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = system.fs().create(cpu, "/durable");
    std::vector<std::uint8_t> data(1ULL << 20);
    for (std::size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<std::uint8_t>(i * 13);
    system.fs().write(cpu, ino, 0, data.data(), data.size());
    system.fs().fsync(cpu, ino);

    system.remount();

    // Data intact through a fresh DaxVM mapping without rebuilding
    // tables (persistent file tables survived the "reboot").
    auto as = system.newProcess();
    const std::uint64_t va = system.dax()->mmap(
        cpu, *as, ino, 0, data.size(), false, 0);
    ASSERT_NE(va, 0u);
    std::vector<std::uint8_t> out(data.size());
    as->memRead(cpu, va, out.size(), mem::Pattern::Seq, out.data());
    EXPECT_EQ(out, data);
}

TEST(Ycsb, DaxVmBeatsMmapOnAgedImage)
{
    auto runLoad = [](const AccessOptions &access) {
        sys::SystemConfig config = bigConfig();
        config.cores = 2;
        sys::System system(config);
        fs::AgingConfig agingConfig;
        agingConfig.churnFactor = 3.0;
        system.age(agingConfig);
        auto as = system.newProcess();
        KvStore::Config kvConfig;
        kvConfig.memtableRecords = 4096;
        kvConfig.access = access;
        KvStore kv(system, *as, kvConfig);
        YcsbRunner::Config load;
        load.kv = &kv;
        load.mix = YcsbMix::loadA();
        load.records = 0;
        load.ops = 9000;
        sim::Cpu cpu(nullptr, 0, 0);
        YcsbRunner runner(load);
        while (runner.step(cpu)) {
        }
        return cpu.now();
    };
    AccessOptions mm;
    mm.interface = Interface::Mmap;
    mm.mapSync = true;
    AccessOptions dax;
    dax.interface = Interface::DaxVm;
    dax.nosync = true;
    const auto tMmap = runLoad(mm);
    const auto tDax = runLoad(dax);
    // Paper Fig. 9c: ~2.3-2.95x on Load A over aged ext4.
    EXPECT_GT(static_cast<double>(tMmap),
              1.5 * static_cast<double>(tDax));
}

TEST(Coherence, MsyncInOneProcessReprotectsAll)
{
    // Two processes map the same file writable; a sync from either
    // restarts dirty tracking in both (shootdowns included).
    sys::SystemConfig config = bigConfig();
    config.cores = 2;
    sys::System system(config);
    const fs::Ino ino = system.makeFile("/shared", 8 * 4096);
    auto a = system.newProcess();
    auto b = system.newProcess();
    sim::Cpu ca(nullptr, 0, 0), cb(nullptr, 1, 1);
    const std::uint64_t vaA = a->mmap(ca, ino, 0, 8 * 4096, true, 0);
    const std::uint64_t vaB = b->mmap(cb, ino, 0, 8 * 4096, true, 0);
    a->memWrite(ca, vaA, 4096, mem::Pattern::Rand,
                mem::WriteMode::Cached);
    b->memWrite(cb, vaB + 4096, 4096, mem::Pattern::Rand,
                mem::WriteMode::Cached);
    ASSERT_EQ(system.vmm().dirtyPages(ino), 2u);
    // Sync from A flushes both dirty pages and re-protects B too.
    a->msync(ca, vaA, 8 * 4096);
    EXPECT_EQ(system.vmm().dirtyPages(ino), 0u);
    const auto wp = system.metrics().counterValue("vm.wp_faults");
    b->memWrite(cb, vaB + 4096, 8, mem::Pattern::Rand);
    EXPECT_EQ(system.metrics().counterValue("vm.wp_faults"), wp + 1);
}

TEST(HostFootprint, SparseDeviceReclaimsZeroedPages)
{
    // Functional guard for the sparse byte store: deleting a file and
    // pre-zeroing its blocks returns the host pages.
    sys::SystemConfig config = bigConfig();
    config.cores = 2;
    sys::System system(config);
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = system.fs().create(cpu, "/big");
    std::vector<std::uint8_t> junk(4 << 20, 0xEE);
    system.fs().write(cpu, ino, 0, junk.data(), junk.size());
    const auto populated = system.pmem().sparsePages();
    EXPECT_GE(populated, (4ULL << 20) / 4096);
    system.fs().unlink(cpu, "/big");
    system.prezeroDaemon()->drainUntimed();
    EXPECT_LT(system.pmem().sparsePages(),
              populated - (4ULL << 20) / 4096 + 64);
}

TEST(Coherence, PudAttachmentDirtyGranularity)
{
    // Files above 1 GB attach at PUD level: a tracked write dirties
    // the whole 1 GB attachment ("2 MB or coarser", Section IV-D).
    sys::SystemConfig config = bigConfig();
    config.pmemBytes = 3ULL << 30;
    config.cores = 2;
    sys::System system(config);
    const fs::Ino ino =
        system.makeFile("/huge", (1ULL << 30) + (8ULL << 20));
    auto as = system.newProcess();
    sim::Cpu cpu(nullptr, 0, 0);
    const std::uint64_t va = system.dax()->mmap(
        cpu, *as, ino, 0, (1ULL << 30) + (8ULL << 20), true, 0);
    ASSERT_NE(va, 0u);
    as->memWrite(cpu, va, 4096, mem::Pattern::Rand);
    EXPECT_EQ(system.metrics().counterValue("vm.daxvm_wp_faults"), 1u);
    EXPECT_EQ(system.vmm().dirtyPages(ino), (1ULL << 30) / 4096);
}
