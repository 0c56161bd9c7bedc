/**
 * @file
 * daxsim - command-line driver for ad-hoc experiments.
 *
 * Runs one of the built-in workloads on a freshly constructed system
 * with the interface, thread count, sizes and image condition given on
 * the command line, and prints throughput plus the relevant subsystem
 * statistics. Meant for quick what-if runs without writing a bench:
 *
 *   daxsim --workload sweep  --interface daxvm --threads 8
 *   daxsim --workload apache --interface mmap  --threads 16 --aged 0
 *   daxsim --workload ycsb   --interface daxvm --ops 50000
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "workloads/apache.h"
#include "workloads/filesweep.h"
#include "workloads/kvstore.h"
#include "workloads/repetitive.h"
#include "workloads/textsearch.h"
#include "workloads/ycsb.h"

using namespace dax;
using namespace dax::wl;

namespace {

struct Options
{
    std::string workload = "sweep";
    std::string interface = "daxvm";
    unsigned threads = 4;
    std::uint64_t fileBytes = 32 * 1024;
    std::uint64_t files = 2048;
    std::uint64_t ops = 20000;
    std::uint64_t pmemGb = 2;
    bool aged = true;
    double churn = 3.0;
    std::string faults;
    std::string jsonPath;
    std::string tracePath;
    std::string foldedPath;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --workload sweep|apache|repetitive|search|ycsb\n"
        "  --interface read|mmap|populate|daxvm|daxvm-sync\n"
        "  --threads N          simulated cores/workers (default 4)\n"
        "  --file-bytes N       per-file size for sweep/apache\n"
        "  --files N            file count for sweep\n"
        "  --ops N              operations for repetitive/ycsb\n"
        "  --pmem-gb N          PMem size (default 2)\n"
        "  --aged 0|1           age the image first (default 1)\n"
        "  --churn X            aging churn factor (default 3.0)\n"
        "  --faults SPEC        crash/media fault injection, e.g.\n"
        "                       'media=ue:1e-5,policy:remap-zero;"
        "crash=kind:journal-commit:3'\n"
        "                       (grammar: docs/robustness.md; the "
        "DAXVM_FAULTS\n"
        "                       environment variable is the fallback)\n"
        "  --json PATH          write a BenchResult JSON "
        "(schema: docs/metrics.md)\n"
        "  --trace PATH         write a Chrome trace_event span trace "
        "(docs/tracing.md)\n"
        "  --trace-folded PATH  write folded stacks (flamegraph "
        "input)\n",
        argv0);
}

AccessOptions
parseInterface(const std::string &name)
{
    AccessOptions a;
    if (name == "read") {
        a.interface = Interface::Read;
    } else if (name == "mmap") {
        a.interface = Interface::Mmap;
    } else if (name == "populate") {
        a.interface = Interface::MmapPopulate;
    } else if (name == "daxvm") {
        a.interface = Interface::DaxVm;
        a.ephemeral = true;
        a.asyncUnmap = true;
        a.nosync = true;
    } else if (name == "daxvm-sync") {
        a.interface = Interface::DaxVm;
    } else {
        throw std::invalid_argument("unknown interface: " + name);
    }
    return a;
}

void
printStats(sys::System &system)
{
    // One rolled-up snapshot covers every subsystem (TLB, fs, vm,
    // daxvm, devices).
    std::printf("-- stats --\n%s",
                system.snapshotMetrics().toString().c_str());
}

int
runSweep(sys::System &system, const Options &opt,
         const AccessOptions &access)
{
    auto paths =
        makeFileSet(system, "/sweep/", opt.files, opt.fileBytes);
    auto as = system.newProcess();
    std::vector<Filesweep *> sweeps;
    for (unsigned t = 0; t < opt.threads; t++) {
        Filesweep::Config config;
        config.paths = sliceForThread(paths, t, opt.threads);
        config.access = access;
        auto task = std::make_unique<Filesweep>(system, *as, config);
        sweeps.push_back(task.get());
        system.engine().addThread(std::move(task), static_cast<int>(t),
                                  system.quiesceTime());
    }
    const sim::Time makespan = system.engine().run();
    std::printf("sweep: %zu files in %.2f ms -> %.1f Kfiles/s\n",
                paths.size(), static_cast<double>(makespan) / 1e6,
                static_cast<double>(paths.size())
                    / (static_cast<double>(makespan) / 1e9) / 1e3);
    return 0;
}

int
runApache(sys::System &system, const Options &opt,
          const AccessOptions &access)
{
    auto pages = makeWebPages(system, "/www/", 64, opt.fileBytes);
    auto as = system.newProcess();
    for (unsigned t = 0; t < opt.threads; t++) {
        ApacheWorker::Config wc;
        wc.pages = pages;
        wc.pageBytes = opt.fileBytes;
        wc.requests = opt.ops / opt.threads;
        wc.access = access;
        wc.seed = t + 1;
        system.engine().addThread(
            std::make_unique<ApacheWorker>(system, *as, wc),
            static_cast<int>(t), system.quiesceTime());
    }
    const sim::Time makespan = system.engine().run();
    std::printf("apache: %llu requests in %.2f ms -> %.1f Kreq/s\n",
                (unsigned long long)opt.ops,
                static_cast<double>(makespan) / 1e6,
                static_cast<double>(opt.ops)
                    / (static_cast<double>(makespan) / 1e9) / 1e3);
    return 0;
}

int
runRepetitive(sys::System &system, const Options &opt,
              const AccessOptions &access)
{
    const std::uint64_t fileBytes = 256ULL << 20;
    const fs::Ino ino = system.makeFile("/db", fileBytes);
    auto as = system.newProcess();
    Repetitive::Config config;
    config.ino = ino;
    config.fileBytes = fileBytes;
    config.opBytes = 4096;
    config.randomOrder = true;
    config.ops = opt.ops;
    config.monitorPollOps = 8192;
    config.access = access;
    system.engine().addThread(
        std::make_unique<Repetitive>(system, *as, config), 0,
        system.quiesceTime());
    const sim::Time makespan = system.engine().run();
    std::printf("repetitive: %llu 4K rand reads in %.2f ms -> "
                "%.1f Kops/s\n",
                (unsigned long long)opt.ops,
                static_cast<double>(makespan) / 1e6,
                static_cast<double>(opt.ops)
                    / (static_cast<double>(makespan) / 1e9) / 1e3);
    return 0;
}

int
runSearch(sys::System &system, const Options &opt,
          const AccessOptions &access)
{
    auto corpus = makeSourceTreeCorpus(system, "/src/", opt.files, 7,
                                       512ULL << 20);
    auto as = system.newProcess();
    for (unsigned t = 0; t < opt.threads; t++) {
        Filesweep::Config config;
        config.paths = sliceForThread(corpus, t, opt.threads);
        config.access = access;
        config.computeNsPerByte = system.cm().searchNsPerByte;
        system.engine().addThread(
            std::make_unique<Filesweep>(system, *as, config),
            static_cast<int>(t), system.quiesceTime());
    }
    const sim::Time makespan = system.engine().run();
    std::printf("search: %zu files in %.2f ms -> %.1f Kfiles/s\n",
                corpus.size(), static_cast<double>(makespan) / 1e6,
                static_cast<double>(corpus.size())
                    / (static_cast<double>(makespan) / 1e9) / 1e3);
    return 0;
}

int
runYcsb(sys::System &system, const Options &opt,
        const AccessOptions &accessIn)
{
    AccessOptions access = accessIn;
    if (access.interface == Interface::Mmap
        && system.fs().personality() == fs::Personality::Ext4Dax) {
        access.mapSync = true; // user-space durability needs it
    }
    auto as = system.newProcess();
    KvStore::Config kc;
    kc.memtableRecords = 4096;
    kc.access = access;
    KvStore kv(system, *as, kc);
    YcsbRunner::Config load;
    load.kv = &kv;
    load.mix = YcsbMix::loadA();
    load.records = 0;
    load.ops = opt.ops;
    system.engine().addThread(std::make_unique<YcsbRunner>(load), 0,
                              system.quiesceTime());
    const sim::Time makespan = system.engine().run();
    std::printf("ycsb load: %llu inserts in %.2f ms -> %.1f Kops/s "
                "(flushes=%llu compactions=%llu)\n",
                (unsigned long long)opt.ops,
                static_cast<double>(makespan) / 1e6,
                static_cast<double>(opt.ops)
                    / (static_cast<double>(makespan) / 1e9) / 1e3,
                (unsigned long long)kv.flushes(),
                (unsigned long long)kv.compactions());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--interface")
            opt.interface = value();
        else if (arg == "--threads")
            opt.threads = static_cast<unsigned>(std::stoul(value()));
        else if (arg == "--file-bytes")
            opt.fileBytes = std::stoull(value());
        else if (arg == "--files")
            opt.files = std::stoull(value());
        else if (arg == "--ops")
            opt.ops = std::stoull(value());
        else if (arg == "--pmem-gb")
            opt.pmemGb = std::stoull(value());
        else if (arg == "--aged")
            opt.aged = std::stoul(value()) != 0;
        else if (arg == "--churn")
            opt.churn = std::stod(value());
        else if (arg == "--faults")
            opt.faults = value();
        else if (arg == "--json")
            opt.jsonPath = value();
        else if (arg == "--trace")
            opt.tracePath = value();
        else if (arg == "--trace-folded")
            opt.foldedPath = value();
        else {
            usage(argv[0]);
            return arg == "--help" ? 0 : 2;
        }
    }

    if (opt.faults.empty()) {
        if (const char *env = std::getenv("DAXVM_FAULTS"))
            opt.faults = env;
    }
    // Declared before the System so the plan outlives it (the System
    // holds a raw pointer until destruction).
    sim::FaultSpec faults;
    if (!opt.faults.empty()) {
        try {
            faults = sim::parseFaultSpec(opt.faults);
        } catch (const std::invalid_argument &e) {
            std::fprintf(stderr, "daxsim: --faults: %s\n", e.what());
            return 2;
        }
    }

    // Start span recording before the System exists so its setup (and
    // pid registration) is covered.
    bench::result().tracePath = opt.tracePath;
    bench::result().foldedPath = opt.foldedPath;
    if (!opt.tracePath.empty() || !opt.foldedPath.empty())
        sim::Trace::get().spans().enableAll();

    sys::SystemConfig config;
    config.cores = std::max(opt.threads, 1u);
    config.pmemBytes = opt.pmemGb << 30;
    config.pmemTableBytes =
        std::max<std::uint64_t>(config.pmemBytes / 16, 128ULL << 20);
    config.dramBytes = 1ULL << 30;
    if (faults.policy == "remap-zero")
        config.mediaPolicy = fs::MediaPolicy::RemapZero;
    else if (faults.policy == "remap-restore")
        config.mediaPolicy = fs::MediaPolicy::RemapRestore;
    else if (faults.policy == "fail-fast")
        config.mediaPolicy = fs::MediaPolicy::FailFast;
    sys::System system(config);

    if (opt.aged) {
        fs::AgingConfig aging;
        aging.churnFactor = opt.churn;
        const auto report = system.age(aging);
        std::printf("# %s\n", report.toString().c_str());
    }

    // Arm injection only after image prep: aging is deterministic
    // setup, not the run under test, and a crash there would escape
    // the workload's recovery path below.
    if (!opt.faults.empty())
        system.setFaultPlan(&faults.plan);

    const AccessOptions access = parseInterface(opt.interface);
    int rc = 2;
    try {
        if (opt.workload == "sweep")
            rc = runSweep(system, opt, access);
        else if (opt.workload == "apache")
            rc = runApache(system, opt, access);
        else if (opt.workload == "repetitive")
            rc = runRepetitive(system, opt, access);
        else if (opt.workload == "search")
            rc = runSearch(system, opt, access);
        else if (opt.workload == "ycsb")
            rc = runYcsb(system, opt, access);
        else
            usage(argv[0]);
    } catch (const sim::CrashException &e) {
        // An injected crash fired mid-workload: power-fail, recover,
        // fsck-repair, then fall through to the stats so the run is
        // still inspectable. Timing is meaningless; skip throughput.
        std::printf("crash: injected at %s event #%llu (t=%.3f ms)\n",
                    sim::faultEventName(e.event()),
                    (unsigned long long)e.index(),
                    static_cast<double>(e.at()) / 1e6);
        const sys::CrashReport cr = system.crash();
        system.recover();
        const std::uint64_t punched = system.fs().fsckRepair();
        std::printf("recovered: %llu dirty line(s) lost, "
                    "%llu block(s) fsck-punched\n",
                    (unsigned long long)cr.dirtyLinesLost,
                    (unsigned long long)punched);
        rc = 0;
    } catch (const vm::SigBusException &e) {
        std::fprintf(stderr,
                     "daxsim: SIGBUS va=0x%llx pa=0x%llx "
                     "(uncorrectable media error, fail-fast policy)\n",
                     (unsigned long long)e.va(),
                     (unsigned long long)e.paddr());
        return 1;
    } catch (const fs::IoError &e) {
        std::fprintf(stderr,
                     "daxsim: EIO ino=%llu file_block=%llu "
                     "(uncorrectable media error, fail-fast policy)\n",
                     (unsigned long long)e.ino(),
                     (unsigned long long)e.fileBlock());
        return 1;
    }
    if (rc != 0)
        return rc;
    printStats(system);
    bench::result().name = "daxsim_" + opt.workload;
    bench::result().jsonPath = opt.jsonPath;
    bench::record(system);
    return bench::finish();
}
