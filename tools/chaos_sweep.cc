/**
 * @file
 * Chaos soak harness: randomized media faults + crashes under real
 * workloads, with the invariant oracle armed.
 *
 * Sweeps a matrix of (fs personality x workload x access interface x
 * degradation policy), each cell in two phases:
 *
 *  1. a clean soak: background UEs, wear-out and torn-store poisoning
 *     armed, no crash - every machine check must be repaired or
 *     reported under the active policy while the oracle watches;
 *  2. a crash soak: the same run with a seeded random crash point
 *     layered on top, followed by crash()/recover()/fsckRepair().
 *
 * After every phase the harness scans every file byte-by-byte: a byte
 * must read back as its deterministic fill pattern or as zero (holes,
 * remap-zero frames, punched bad blocks) - anything else is a silent
 * corruption. Scan-time EIO under fail-fast counts as *reported*, not
 * silent. Acceptance is zero oracle violations and zero silently
 * corrupt bytes across the whole matrix; the exit status is the
 * combined failure count, clamped.
 *
 * Span tracing (--trace) attributes every MCE to its repair path:
 * vm "mce" -> fs "mce_remap" -> daxvm "mce_remap_fixup" spans nest in
 * virtual time (docs/tracing.md, docs/robustness.md).
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/check.h"
#include "sim/cli.h"
#include "sim/fault.h"
#include "sim/rng.h"
#include "sim/trace.h"
#include "sys/system.h"
#include "workloads/filesweep.h"
#include "workloads/repetitive.h"
#include "workloads/textsearch.h"

using namespace dax;

namespace {

struct ChaosConfig
{
    std::uint64_t seed = 1;
    std::uint64_t rounds = 1;
    unsigned files = 24;
    /** Above volatileTableMax so DaxVM tables are persistent. */
    std::uint64_t fileBytes = 128ULL << 10;
    std::uint64_t ops = 2000;
    unsigned threads = 2;
    std::vector<fs::Personality> personalities;
    std::vector<std::string> workloads; // "sweep", "repetitive"
    std::vector<std::string> policies;
    int checkLevel = 1;
    bool verbose = false;
};

/** One matrix cell instance (a cell runs once per round per phase). */
struct Scenario
{
    fs::Personality personality = fs::Personality::Ext4Dax;
    std::string workload;
    std::string interface; // "read", "mmap" or "daxvm"
    std::string policy;
    std::uint64_t round = 0;
    bool crash = false;
    /** Boundary-event count of the matching clean phase (crash only). */
    std::uint64_t totalEvents = 0;
};

/** Everything one phase produced, for the final accounting. */
struct RunResult
{
    std::string label;
    bool crashed = false;
    std::string crashPoint;
    std::uint64_t mceRaised = 0;
    std::uint64_t mceRepaired = 0;
    std::uint64_t mceFailed = 0;
    std::uint64_t mceSigbus = 0;
    std::uint64_t eioCaught = 0;    ///< IoError deliveries observed
    std::uint64_t sigbusCaught = 0; ///< SigBus deliveries observed
    std::uint64_t corruptBytes = 0; ///< neither pattern nor zero
    std::uint64_t punched = 0;      ///< file blocks fsck-punched
    std::size_t oracleViolations = 0;
    /** Boundary events seen (clean phases seed the crash phases). */
    std::uint64_t eventsSeen = 0;
};

const char *
personalityLabel(fs::Personality p)
{
    return p == fs::Personality::Ext4Dax ? "ext4-dax" : "nova";
}

fs::MediaPolicy
policyFromName(const std::string &name)
{
    if (name == "remap-zero")
        return fs::MediaPolicy::RemapZero;
    if (name == "remap-restore")
        return fs::MediaPolicy::RemapRestore;
    return fs::MediaPolicy::FailFast;
}

wl::AccessOptions
accessFor(const std::string &interface)
{
    wl::AccessOptions a;
    if (interface == "mmap") {
        a.interface = wl::Interface::Mmap;
    } else if (interface == "daxvm") {
        a.interface = wl::Interface::DaxVm;
        a.ephemeral = true;
        a.asyncUnmap = true;
        a.nosync = true;
    } else {
        a.interface = wl::Interface::Read;
    }
    return a;
}

std::string
scenarioLabel(const Scenario &sc)
{
    return std::string(personalityLabel(sc.personality)) + " "
           + sc.workload + "/" + sc.interface + " " + sc.policy + " r"
           + std::to_string(sc.round)
           + (sc.crash ? " crash" : " clean");
}

/**
 * Build the fault spec through the same grammar the CLI uses, so the
 * soak exercises parseFaultSpec as well as the injection itself. The
 * media mix varies by round: background UEs always, wear-out on odd
 * rounds, torn-store poisoning always. The media seed is shared by a
 * cell's clean and crash phases so the crash phase replays the same
 * event stream up to its crash point.
 */
std::string
faultSpecFor(const Scenario &sc, const ChaosConfig &cfg)
{
    const std::uint64_t mediaSeed =
        cfg.seed * 1000003 + sc.round * 8191;
    char buf[64];
    std::string spec = "media=seed:" + std::to_string(mediaSeed);
    std::snprintf(buf, sizeof(buf), ",ue:%g",
                  sc.round % 3 == 2 ? 1e-3 : 3e-4);
    spec += buf;
    if (sc.round % 2 == 1)
        spec += ",wear:32";
    spec += ",torn,policy:" + sc.policy;
    if (sc.crash && sc.totalEvents > 0) {
        spec += ";crash=random:" + std::to_string(mediaSeed ^ 0x5bd1)
                + ":" + std::to_string(sc.totalEvents);
    }
    return spec;
}

/**
 * Background mutator: slot overwrites, appends, fsyncs and file churn
 * against dedicated scratch files (the pattern-verified files stay
 * read-only). This is what generates persistence-boundary events -
 * durable stores (wear + torn-store candidates), journal/NOVA
 * commits, table updates, prezero releases - so crash injection has
 * places to fire in otherwise read-only soaks.
 */
class ChurnTask : public sim::Task
{
  public:
    ChurnTask(sys::System &system, std::vector<fs::Ino> inos,
              std::uint64_t fileBytes, std::uint64_t ops,
              std::uint64_t seed)
        : system_(system), inos_(std::move(inos)), rng_(seed),
          ops_(ops), sizes_(inos_.size(), fileBytes)
    {}

    bool
    step(sim::Cpu &cpu) override
    {
        for (unsigned i = 0; i < 4 && done_ < ops_; i++, done_++)
            oneOp(cpu);
        return done_ < ops_;
    }

    std::string name() const override { return "chaos-churn"; }

  private:
    void
    oneOp(sim::Cpu &cpu)
    {
        const std::uint64_t pick = rng_.below(100);
        const auto f = static_cast<std::size_t>(
            rng_.below(inos_.size()));
        if (pick < 60) {
            // 64B-aligned durable slot overwrite in the first block.
            const std::uint64_t v = rng_.next() | 1;
            system_.fs().write(cpu, inos_[f], rng_.below(64) * 64, &v,
                               sizeof(v));
        } else if (pick < 80) {
            std::vector<std::uint8_t> block(
                fs::kBlockSize, static_cast<std::uint8_t>(rng_.next()));
            system_.fs().write(cpu, inos_[f], sizes_[f], block.data(),
                               block.size());
            system_.fs().fsync(cpu, inos_[f]);
            sizes_[f] += block.size();
        } else if (pick < 90) {
            system_.fs().fsync(cpu, inos_[f]);
        } else {
            const std::string tmp =
                "/chaos/tmp" + std::to_string(done_);
            const fs::Ino ino = system_.fs().create(cpu, tmp);
            std::vector<std::uint8_t> block(
                fs::kBlockSize, static_cast<std::uint8_t>(rng_.next()));
            system_.fs().write(cpu, ino, 0, block.data(), block.size());
            system_.fs().fsync(cpu, ino);
            system_.fs().unlink(cpu, tmp);
        }
    }

    sys::System &system_;
    std::vector<fs::Ino> inos_;
    sim::Rng rng_;
    std::uint64_t ops_ = 0;
    std::uint64_t done_ = 0;
    std::vector<std::uint64_t> sizes_;
};

/**
 * Post-soak integrity scan: every byte of every setup file must read
 * back as its fill pattern or as zero. EIO is a *reported* failure
 * (fail-fast poison the scan itself discovered); only a wrong nonzero
 * byte is silent corruption.
 */
void
scanFiles(sys::System &system, const std::vector<fs::Ino> &inos,
          std::uint64_t fileBytes, RunResult &res)
{
    sim::Cpu cpu(nullptr, 0, 0);
    std::vector<std::uint8_t> buf(fs::kBlockSize);
    for (const fs::Ino ino : inos) {
        for (std::uint64_t off = 0; off < fileBytes;
             off += fs::kBlockSize) {
            try {
                system.fs().read(cpu, ino, off, buf.data(), buf.size());
            } catch (const fs::IoError &) {
                res.eioCaught++;
                continue;
            }
            for (std::uint64_t i = 0; i < buf.size(); i++) {
                if (buf[i] != 0
                    && buf[i] != sys::System::patternByte(ino, off + i))
                    res.corruptBytes++;
            }
        }
    }
}

RunResult
runScenario(const Scenario &sc, const ChaosConfig &cfg)
{
    RunResult res;
    res.label = scenarioLabel(sc);

    sys::SystemConfig scfg;
    scfg.cores = std::max(cfg.threads, 2u);
    scfg.pmemBytes = 256ULL << 20;
    scfg.pmemTableBytes = 32ULL << 20;
    scfg.dramBytes = 64ULL << 20;
    scfg.personality = sc.personality;
    scfg.mediaPolicy = policyFromName(sc.policy);
    scfg.checkLevel = cfg.checkLevel;
    sys::System system(scfg);
    // Soak mode: collect every violation instead of aborting at the
    // first, so one bad cell cannot mask the rest of the matrix.
    if (system.oracle() != nullptr)
        system.oracle()->setFailFast(false);

    std::vector<std::string> paths;
    std::vector<fs::Ino> inos;
    for (unsigned f = 0; f < cfg.files; f++) {
        paths.push_back("/chaos/f" + std::to_string(f));
        inos.push_back(
            system.makeFile(paths.back(), cfg.fileBytes, cfg.fileBytes));
    }
    // Scratch files the churn task mutates; excluded from the pattern
    // scan because their content is legitimately overwritten.
    std::vector<fs::Ino> scratch;
    for (unsigned f = 0; f < 4; f++) {
        scratch.push_back(system.makeFile(
            "/chaos/s" + std::to_string(f), cfg.fileBytes));
    }

    // Install faults only after setup so poison decisions and crash
    // indices cover exactly the workload (same idiom as crash_sweep).
    sim::FaultSpec faults = sim::parseFaultSpec(faultSpecFor(sc, cfg));
    system.setFaultPlan(&faults.plan);

    const wl::AccessOptions access = accessFor(sc.interface);
    auto as = system.newProcess();
    if (sc.workload == "repetitive") {
        for (unsigned t = 0; t < cfg.threads; t++) {
            wl::Repetitive::Config rc;
            rc.ino = inos[t % inos.size()];
            rc.fileBytes = cfg.fileBytes;
            rc.opBytes = 4096;
            rc.randomOrder = true;
            rc.ops = cfg.ops / cfg.threads;
            rc.access = access;
            rc.seed = cfg.seed + sc.round * 131 + t;
            system.engine().addThread(
                std::make_unique<wl::Repetitive>(system, *as, rc),
                static_cast<int>(t), system.quiesceTime());
        }
    } else {
        for (unsigned t = 0; t < cfg.threads; t++) {
            wl::Filesweep::Config fc;
            fc.paths = wl::sliceForThread(paths, t, cfg.threads);
            fc.access = access;
            auto task = std::make_unique<wl::Filesweep>(system, *as, fc);
            system.engine().addThread(std::move(task),
                                      static_cast<int>(t),
                                      system.quiesceTime());
        }
    }
    system.engine().addThread(
        std::make_unique<ChurnTask>(system, scratch, cfg.fileBytes,
                                    cfg.ops / 4,
                                    cfg.seed + sc.round * 977 + 13),
        static_cast<int>(cfg.threads % scfg.cores),
        system.quiesceTime());

    try {
        system.engine().run();
    } catch (const sim::CrashException &e) {
        res.crashed = true;
        res.crashPoint = std::string(sim::faultEventName(e.event())) + "@"
                         + std::to_string(e.index());
    } catch (const vm::SigBusException &) {
        // Fail-fast delivery to a mapped access: the "process" died,
        // the machine did not. The soak carries on to the scan.
        res.sigbusCaught++;
    } catch (const fs::IoError &) {
        res.eioCaught++;
    }
    res.eventsSeen = faults.plan.eventsSeen();

    // The scan and teardown sweep run with no live processes: on a
    // crash the processes died with the machine anyway.
    as.reset();
    if (res.crashed) {
        system.crash();
        system.recover();
        res.punched = system.fs().fsckRepair();
    } else if (sc.policy == "fail-fast") {
        // Repair recorded bad blocks before the scan, as an admin
        // would: punched blocks become holes reading zero.
        res.punched = system.fs().fsckRepair();
    }

    scanFiles(system, inos, cfg.fileBytes, res);

    if (system.oracle() != nullptr) {
        system.oracle()->runAll(sim::CheckEvent::Teardown,
                                system.engine().maxThreadClock());
        res.oracleViolations = system.oracle()->violations().size();
        if (res.oracleViolations > 0)
            std::fprintf(stderr, "%s",
                         system.oracle()->reportText().c_str());
    }
    res.mceRaised = system.pmem().mceRaised();
    res.mceRepaired = system.fs().mceRepaired();
    res.mceFailed = system.fs().mceFailed();
    res.mceSigbus = system.vmm().mceSigbus();
    system.setFaultPlan(nullptr);
    return res;
}

void
printResult(const RunResult &r)
{
    std::printf("[%s]%s mce raised=%llu repaired=%llu failed=%llu "
                "sigbus=%llu | delivered eio=%llu sigbus=%llu | "
                "punched=%llu | oracle=%zu | corrupt=%llu\n",
                r.label.c_str(),
                r.crashed ? (" " + r.crashPoint).c_str() : "",
                (unsigned long long)r.mceRaised,
                (unsigned long long)r.mceRepaired,
                (unsigned long long)r.mceFailed,
                (unsigned long long)r.mceSigbus,
                (unsigned long long)r.eioCaught,
                (unsigned long long)r.sigbusCaught,
                (unsigned long long)r.punched, r.oracleViolations,
                (unsigned long long)r.corruptBytes);
}

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char c : arg) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    ChaosConfig cfg;
    cfg.personalities = {fs::Personality::Ext4Dax,
                         fs::Personality::Nova};
    cfg.workloads = {"sweep", "repetitive"};
    cfg.policies = {"fail-fast", "remap-zero", "remap-restore"};
    if (const char *env = std::getenv("DAXVM_CHECK"))
        cfg.checkLevel = std::max(1, std::atoi(env));
    std::string tracePath;

    auto usage = [&](const char *why, const std::string &what) {
        std::fprintf(stderr, "chaos_sweep: %s '%s'\n", why, what.c_str());
        std::fprintf(
            stderr,
            "usage: chaos_sweep [--seed N] [--rounds N] [--files N]\n"
            "                   [--file-bytes N] [--ops N] [--threads N]\n"
            "                   [--fs ext4|nova|both]\n"
            "                   [--workloads sweep,repetitive]\n"
            "                   [--policies fail-fast,remap-zero,"
            "remap-restore]\n"
            "                   [--check N] [--trace PATH] [--verbose]\n"
            "Soaks the media-error path (docs/robustness.md): "
            "randomized UE/wear/torn\n"
            "poison plus crash injection under the invariant oracle. "
            "Exit status is the\n"
            "total failure count (oracle violations + silently corrupt "
            "bytes).\n");
        return 2;
    };
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            return ++i < argc ? argv[i] : "";
        };
        bool ok = true;
        if (arg == "--seed")
            ok = sim::parseNumber(value(), cfg.seed);
        else if (arg == "--rounds")
            ok = sim::parseNumber(value(), cfg.rounds);
        else if (arg == "--files")
            ok = sim::parseNumber(value(), cfg.files);
        else if (arg == "--file-bytes")
            ok = sim::parseNumber(value(), cfg.fileBytes);
        else if (arg == "--ops")
            ok = sim::parseNumber(value(), cfg.ops);
        else if (arg == "--threads")
            ok = sim::parseNumber(value(), cfg.threads);
        else if (arg == "--check") {
            unsigned level = 0;
            ok = sim::parseNumber(value(), level);
            cfg.checkLevel = static_cast<int>(level);
        } else if (arg == "--trace")
            tracePath = value();
        else if (arg == "--verbose")
            cfg.verbose = true;
        else if (arg == "--fs") {
            const std::string v = value();
            if (v == "ext4")
                cfg.personalities = {fs::Personality::Ext4Dax};
            else if (v == "nova")
                cfg.personalities = {fs::Personality::Nova};
            else if (v == "both")
                cfg.personalities = {fs::Personality::Ext4Dax,
                                     fs::Personality::Nova};
            else
                return usage("unknown filesystem", v);
        } else if (arg == "--workloads") {
            cfg.workloads = splitList(value());
        } else if (arg == "--policies") {
            cfg.policies = splitList(value());
        } else {
            return usage("unknown option", arg);
        }
        if (!ok)
            return usage("missing or bad value for", arg);
    }

    if (!tracePath.empty())
        sim::Trace::get().spans().enableAll();

    // Access interface rotates with the policy index so every policy
    // is eventually soaked through syscalls, POSIX mmap and DaxVM.
    const char *interfaces[] = {"read", "mmap", "daxvm"};

    std::vector<RunResult> results;
    std::uint64_t cell = 0;
    for (std::uint64_t round = 0; round < cfg.rounds; round++) {
        for (const fs::Personality pers : cfg.personalities) {
            for (const std::string &workload : cfg.workloads) {
                for (const std::string &policy : cfg.policies) {
                    Scenario sc;
                    sc.personality = pers;
                    sc.workload = workload;
                    sc.interface =
                        interfaces[(cell + round) % 3];
                    sc.policy = policy;
                    sc.round = round;
                    cell++;

                    sc.crash = false;
                    RunResult clean = runScenario(sc, cfg);
                    printResult(clean);

                    sc.crash = true;
                    sc.totalEvents = clean.eventsSeen;
                    RunResult crashed = runScenario(sc, cfg);
                    printResult(crashed);

                    results.push_back(std::move(clean));
                    results.push_back(std::move(crashed));
                }
            }
        }
    }

    std::uint64_t raised = 0, repaired = 0, failed = 0;
    std::uint64_t corrupt = 0;
    std::size_t violations = 0;
    for (const RunResult &r : results) {
        raised += r.mceRaised;
        repaired += r.mceRepaired;
        failed += r.mceFailed;
        corrupt += r.corruptBytes;
        violations += r.oracleViolations;
    }
    std::printf("chaos_sweep: %zu scenario(s): mce raised=%llu "
                "repaired=%llu failed=%llu | %zu oracle violation(s), "
                "%llu silently corrupt byte(s)\n",
                results.size(), (unsigned long long)raised,
                (unsigned long long)repaired,
                (unsigned long long)failed, violations,
                (unsigned long long)corrupt);

    if (!tracePath.empty()) {
        std::FILE *f = std::fopen(tracePath.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", tracePath.c_str());
            return 1;
        }
        sim::Trace::get().spans().writeChromeTrace(f);
        std::fclose(f);
    }

    const std::uint64_t failures =
        violations + std::min<std::uint64_t>(corrupt, 50);
    return static_cast<int>(std::min<std::uint64_t>(failures, 100));
}
