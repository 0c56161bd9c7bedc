/**
 * @file
 * Exhaustive crash-injection sweep.
 *
 * Runs a deterministic YCSB-style workload (Zipf-selected slots,
 * ntstore in-place updates, cached writes + fsync, appends, file
 * churn with asynchronous pre-zeroing) against a fresh System, first
 * in a counting pass that tallies every persistence-boundary event,
 * then once per event index with a FaultPlan armed to crash there.
 * After every crash the System is recovered and checked against a
 * durability oracle:
 *
 *  - completed ntstore writes are durable exactly as written;
 *  - cached (mmap-style) writes are volatile until an fsync returns;
 *  - appends are visible only once their metadata committed;
 *  - the op in flight at the crash may land old or new, never garbage;
 *  - fsck() is clean, the zeroed pool re-verifies, DaxVM table images
 *    are sealed.
 *
 * Failures are aggregated per scenario (personality, crash point,
 * boundary event) and summarized at the end; the sweep never stops at
 * the first failing scenario. Exit status is the total violation
 * count, clamped to the valid exit-code range.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/cli.h"
#include "sim/fault.h"
#include "sim/rng.h"
#include "sys/system.h"

using namespace dax;

namespace {

struct SweepConfig
{
    std::uint64_t seed = 42;
    std::uint64_t ops = 60;
    unsigned files = 3;
    /**
     * Above volatileTableMax, so DaxVM tables are persistent, and two
     * blocks short of a 2 MB chunk: a file's third append allocates
     * the table's PTE page for chunk 1, a persistence boundary inside
     * the table-update window.
     */
    std::uint64_t fileBytes = (2ULL << 20) - 2 * fs::kBlockSize;
    unsigned slotsPerFile = 64;
    bool verbose = false;
};

using Key = std::pair<unsigned, unsigned>; // (file, slot)

/** One failing scenario, for the end-of-run summary and exit code. */
struct ScenarioFailure
{
    std::string personality;
    std::string scenario;   ///< "baseline" or "crash@K"
    std::string faultPoint; ///< boundary event name ("-" for baseline)
    int violations = 0;
};

/** The durability oracle: what must be true after crash + recovery. */
struct Oracle
{
    enum class Op { None, NtWrite, CachedWrite, Fsync, Append, Churn };

    /** Durable value per slot (all slots start zero). */
    std::map<Key, std::uint64_t> committed;
    /** Values written cached and not yet flushed by an fsync. */
    std::map<Key, std::uint64_t> cachedPending;
    /** Durable (committed) size per file. */
    std::vector<std::uint64_t> committedSize;
    /** Pattern byte of each committed appended block, per file. */
    std::vector<std::vector<std::uint8_t>> appended;

    // The op in flight when the crash hit. Its effects may have
    // landed or not - both are legal, garbage is not.
    Op inflight = Op::None;
    unsigned opFile = 0;
    unsigned opSlot = 0;
    std::uint64_t opValue = 0;
    std::uint64_t opNewSize = 0;
    std::uint8_t opPattern = 0;
    /**
     * Keys an in-flight fsync was about to flush. Non-empty only when
     * the crash interrupted an fsync (explicit or inside an append):
     * each such slot may independently hold its cached or its old
     * durable value.
     */
    std::map<Key, std::uint64_t> opFlushing;
};

class Harness
{
  public:
    Harness(const SweepConfig &cfg, fs::Personality personality)
        : cfg_(cfg)
    {
        sys::SystemConfig sc;
        sc.cores = 2;
        sc.pmemBytes = 64ULL << 20;
        sc.pmemTableBytes = 16ULL << 20;
        sc.dramBytes = 32ULL << 20;
        sc.personality = personality;
        system_ = std::make_unique<sys::System>(sc);

        oracle_.committedSize.assign(cfg_.files, cfg_.fileBytes);
        oracle_.appended.assign(cfg_.files, {});
        for (unsigned f = 0; f < cfg_.files; f++)
            inos_.push_back(system_->makeFile(path(f), cfg_.fileBytes));
    }

    ~Harness()
    {
        if (system_ != nullptr)
            system_->setFaultPlan(nullptr);
    }

    sys::System &system() { return *system_; }

    /**
     * Run the deterministic op sequence; throws sim::CrashException
     * when @p plan fires. The plan is installed here, after setup, so
     * event indices cover exactly the workload.
     */
    void
    run(sim::FaultPlan &plan)
    {
        system_->setFaultPlan(&plan);
        sim::Rng rng(cfg_.seed);
        sim::Zipf zipf(cfg_.files * cfg_.slotsPerFile);
        sim::Cpu cpu(nullptr, 0, 0);
        for (std::uint64_t i = 0; i < cfg_.ops; i++) {
            const std::uint64_t pick = rng.below(100);
            const std::uint64_t z = zipf.next(rng);
            const auto f = static_cast<unsigned>(z / cfg_.slotsPerFile);
            const auto s = static_cast<unsigned>(z % cfg_.slotsPerFile);
            const std::uint64_t v = rng.next() | 1; // never zero
            if (pick < 40)
                ntWrite(cpu, f, s, v);
            else if (pick < 60)
                cachedWrite(f, s, v);
            else if (pick < 75)
                fsyncFile(cpu, f);
            else if (pick < 90)
                append(cpu, f, static_cast<std::uint8_t>(v));
            else
                churn(cpu, static_cast<std::uint8_t>(v),
                      rng.below(2) == 0);
            oracle_.inflight = Oracle::Op::None;
        }
    }

    /** Check every invariant after crash()+recover(). */
    std::vector<std::string>
    verify()
    {
        std::vector<std::string> out;
        for (const auto &p : system_->fs().fsck())
            out.push_back("fsck: " + p);
        if (system_->pmem().volatileLines() != 0)
            out.push_back("volatile lines survived the crash");

        sim::Cpu cpu(nullptr, 0, 0);
        for (unsigned f = 0; f < cfg_.files; f++) {
            auto ino = system_->fs().lookupPath(path(f));
            if (!ino) {
                out.push_back(path(f) + " vanished");
                continue;
            }
            verifyFile(out, cpu, f, *ino);
            verifyTable(out, f, *ino);
        }

        // Durably the temp file never exists (churn commits creation,
        // then erases it before returning); mid-churn either is legal.
        if (system_->fs().lookupPath("/kv/tmp").has_value()
            && oracle_.inflight != Oracle::Op::Churn)
            out.push_back("/kv/tmp survived although durably deleted");

        // Zeroed-pool invariant: everything the pool claims is zeroed
        // must actually read zero from the durable medium.
        for (const auto &e : system_->fs().allocator().zeroedExtents()) {
            if (!system_->pmem().isZero(
                    system_->fs().blockAddr(e.block), e.bytes()))
                out.push_back("zeroed pool holds a non-zero extent");
        }
        return out;
    }

  private:
    std::string
    path(unsigned f) const
    {
        return "/kv/file" + std::to_string(f);
    }

    std::uint64_t
    slotOff(unsigned s) const
    {
        // 64-byte-aligned slots in the file's first block: a slot
        // never straddles a cache line, so in-flight = old-or-new.
        return static_cast<std::uint64_t>(s) * 64;
    }

    void
    ntWrite(sim::Cpu &cpu, unsigned f, unsigned s, std::uint64_t v)
    {
        oracle_.inflight = Oracle::Op::NtWrite;
        oracle_.opFile = f;
        oracle_.opSlot = s;
        oracle_.opValue = v;
        system_->fs().write(cpu, inos_[f], slotOff(s), &v, sizeof(v));
        // Synchronously persistent - and it invalidates any cached
        // (volatile) line content over the same bytes.
        oracle_.committed[{f, s}] = v;
        oracle_.cachedPending.erase({f, s});
    }

    void
    cachedWrite(unsigned f, unsigned s, std::uint64_t v)
    {
        // An mmap-style store: lands in the CPU cache, reaches the
        // medium only when flushed. Not a persistence boundary.
        oracle_.inflight = Oracle::Op::CachedWrite;
        const fs::Inode &node = system_->fs().inode(inos_[f]);
        const auto run = node.find(slotOff(s) / fs::kBlockSize);
        const std::uint64_t pa =
            system_->fs().blockAddr(run->physBlock)
            + slotOff(s) % fs::kBlockSize;
        system_->pmem().store(pa, &v, sizeof(v), mem::WriteMode::Cached);
        oracle_.cachedPending[{f, s}] = v;
    }

    /**
     * fsync @p f and promote its pending cached writes to committed.
     * On a crash inside the fsync, opFlushing records which slots may
     * legally hold either value.
     */
    void
    doFsync(sim::Cpu &cpu, unsigned f)
    {
        oracle_.opFlushing.clear();
        for (const auto &[key, v] : oracle_.cachedPending) {
            if (key.first == f)
                oracle_.opFlushing.emplace(key, v);
        }
        system_->fs().fsync(cpu, inos_[f]);
        for (const auto &[key, v] : oracle_.opFlushing) {
            oracle_.committed[key] = v;
            oracle_.cachedPending.erase(key);
        }
        oracle_.opFlushing.clear();
    }

    void
    fsyncFile(sim::Cpu &cpu, unsigned f)
    {
        oracle_.inflight = Oracle::Op::Fsync;
        oracle_.opFile = f;
        doFsync(cpu, f);
    }

    void
    append(sim::Cpu &cpu, unsigned f, std::uint8_t pattern)
    {
        oracle_.inflight = Oracle::Op::Append;
        oracle_.opFile = f;
        oracle_.opPattern = pattern;
        const std::uint64_t off = oracle_.committedSize[f];
        oracle_.opNewSize = off + fs::kBlockSize;
        std::vector<std::uint8_t> block(fs::kBlockSize, pattern);
        system_->fs().write(cpu, inos_[f], off, block.data(),
                            block.size());
        doFsync(cpu, f);
        oracle_.committedSize[f] = oracle_.opNewSize;
        oracle_.appended[f].push_back(pattern);
    }

    void
    churn(sim::Cpu &cpu, std::uint8_t pattern, bool drain)
    {
        oracle_.inflight = Oracle::Op::Churn;
        const fs::Ino tmp = system_->fs().create(cpu, "/kv/tmp");
        system_->fs().fallocate(cpu, tmp, 0, 16 * fs::kBlockSize);
        std::vector<std::uint8_t> block(fs::kBlockSize, pattern);
        system_->fs().write(cpu, tmp, 0, block.data(), block.size());
        system_->fs().fsync(cpu, tmp);
        system_->fs().unlink(cpu, "/kv/tmp");
        // The freed blocks sit in the prezero daemon's pending lists;
        // draining zeroes them (firing PrezeroRelease boundaries) and
        // releases them to the zeroed pool.
        if (drain && system_->prezeroDaemon() != nullptr)
            system_->prezeroDaemon()->drainUntimed();
    }

    void
    verifyFile(std::vector<std::string> &out, sim::Cpu &cpu, unsigned f,
               fs::Ino ino)
    {
        const fs::Inode &node = system_->fs().inode(ino);

        // Size: the committed size, or the in-flight append's new size.
        const bool appendInFlight =
            oracle_.inflight == Oracle::Op::Append && oracle_.opFile == f;
        if (node.size != oracle_.committedSize[f]
            && !(appendInFlight && node.size == oracle_.opNewSize)) {
            out.push_back(path(f) + ": size " + std::to_string(node.size)
                          + " not durable size "
                          + std::to_string(oracle_.committedSize[f]));
            return;
        }
        const bool appendLanded =
            appendInFlight && node.size == oracle_.opNewSize;

        // Slot values: exactly the committed value, except slots the
        // in-flight op touched (old-or-new, never garbage).
        for (unsigned s = 0; s < cfg_.slotsPerFile; s++) {
            std::uint64_t got = 0;
            system_->fs().read(cpu, ino, slotOff(s), &got, sizeof(got));
            const Key key{f, s};
            auto it = oracle_.committed.find(key);
            const std::uint64_t old =
                it == oracle_.committed.end() ? 0 : it->second;
            bool ok = got == old;
            if (!ok && oracle_.inflight == Oracle::Op::NtWrite
                && oracle_.opFile == f && oracle_.opSlot == s)
                ok = got == oracle_.opValue;
            if (!ok && oracle_.opFlushing.count(key) != 0)
                ok = got == oracle_.opFlushing.at(key);
            if (!ok) {
                out.push_back(path(f) + " slot " + std::to_string(s)
                              + ": read " + std::to_string(got)
                              + ", durable " + std::to_string(old));
            }
        }

        // Committed appended blocks must carry their pattern byte:
        // data-before-metadata order means a committed size implies
        // valid contents.
        const std::uint64_t base = cfg_.fileBytes / fs::kBlockSize;
        for (std::size_t b = 0; b < oracle_.appended[f].size(); b++) {
            std::uint8_t got = 0;
            system_->fs().read(cpu, ino,
                               (base + b) * fs::kBlockSize + 17, &got, 1);
            if (got != oracle_.appended[f][b]) {
                out.push_back(path(f) + " appended block "
                              + std::to_string(b) + ": pattern mismatch");
            }
        }
        if (appendLanded) {
            std::uint8_t got = 0;
            system_->fs().read(
                cpu, ino,
                (base + oracle_.appended[f].size()) * fs::kBlockSize + 17,
                &got, 1);
            if (got != oracle_.opPattern) {
                out.push_back(path(f)
                              + ": in-flight append landed with garbage");
            }
        }
    }

    void
    verifyTable(std::vector<std::string> &out, unsigned f, fs::Ino ino)
    {
        auto *ftm = system_->fileTables();
        if (ftm == nullptr)
            return;
        const daxvm::PersistentImage *img = ftm->imageOf(ino);
        if (img != nullptr && img->midUpdate)
            out.push_back(path(f) + ": table image torn after recovery");
        // Attaching must always be possible post-recovery.
        if (ftm->tables(nullptr, ino).table == nullptr)
            out.push_back(path(f) + ": no file table after recovery");
    }

    SweepConfig cfg_;
    std::unique_ptr<sys::System> system_;
    std::vector<fs::Ino> inos_;
    Oracle oracle_;
};

/**
 * One full sweep over every event index for one fs personality.
 * Every failing scenario is appended to @p failures; the sweep keeps
 * going so one bad crash point cannot mask the rest of the matrix.
 * Returns what table recovery did, summed over the crash points.
 */
daxvm::TableRecovery
sweep(const SweepConfig &cfg, fs::Personality personality,
      std::vector<ScenarioFailure> &failures)
{
    const char *label =
        personality == fs::Personality::Ext4Dax ? "ext4-dax" : "nova";

    // Counting pass: observe every boundary event, never crash. Take
    // the total before crash/recover - recovery re-seals table images
    // and would count extra events.
    sim::FaultPlan counter;
    std::uint64_t total = 0;
    {
        Harness h(cfg, personality);
        h.run(counter);
        total = counter.eventsSeen();
        // Even the clean run must survive a crash at the very end.
        h.system().crash();
        h.system().recover();
        const auto v = h.verify();
        for (const auto &viol : v)
            std::fprintf(stderr, "[%s baseline] %s\n", label,
                         viol.c_str());
        if (!v.empty()) {
            failures.push_back({label, "baseline", "-",
                                static_cast<int>(v.size())});
        }
    }
    std::printf(
        "[%s] %llu persistence-boundary events "
        "(%llu store, %llu flush, %llu commit, %llu table, %llu prezero)\n",
        label, (unsigned long long)total,
        (unsigned long long)counter.eventsSeen(
            sim::FaultEvent::DurableStore),
        (unsigned long long)counter.eventsSeen(sim::FaultEvent::Flush),
        (unsigned long long)(counter.eventsSeen(
                                 sim::FaultEvent::JournalCommit)
                             + counter.eventsSeen(
                                 sim::FaultEvent::NovaCommit)),
        (unsigned long long)counter.eventsSeen(
            sim::FaultEvent::TableUpdate),
        (unsigned long long)counter.eventsSeen(
            sim::FaultEvent::PrezeroRelease));

    int violations = 0;
    daxvm::TableRecovery tables;
    for (std::uint64_t k = 0; k < total; k++) {
        Harness h(cfg, personality);
        sim::FaultPlan plan = sim::FaultPlan::atIndex(k);
        const std::string scenario = "crash@" + std::to_string(k);
        bool crashed = false;
        sim::FaultEvent ev = sim::FaultEvent::DurableStore;
        try {
            h.run(plan);
        } catch (const sim::CrashException &e) {
            crashed = true;
            ev = e.event();
        }
        if (!crashed) {
            std::fprintf(stderr,
                         "[%s] event %llu never fired (run drift?)\n",
                         label, (unsigned long long)k);
            failures.push_back({label, scenario, "never-fired", 1});
            violations++;
            continue;
        }
        h.system().crash();
        const auto rec = h.system().recover();
        tables.validated += rec.tables.validated;
        tables.rebuilt += rec.tables.rebuilt;
        tables.dropped += rec.tables.dropped;
        const auto v = h.verify();
        for (const auto &viol : v) {
            std::fprintf(stderr, "[%s] crash@%llu (%s): %s\n", label,
                         (unsigned long long)k, sim::faultEventName(ev),
                         viol.c_str());
        }
        if (!v.empty()) {
            failures.push_back({label, scenario, sim::faultEventName(ev),
                                static_cast<int>(v.size())});
        }
        violations += static_cast<int>(v.size());
        if (cfg.verbose && v.empty()) {
            std::printf("[%s] crash@%llu (%s): ok\n", label,
                        (unsigned long long)k, sim::faultEventName(ev));
        }
    }
    std::printf("[%s] swept %llu crash points: %d violation(s)\n", label,
                (unsigned long long)total, violations);
    return tables;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepConfig cfg;
    std::string fsArg = "both";
    auto usage = [&](const char *why, const std::string &what) {
        std::fprintf(stderr, "crash_sweep: %s '%s'\n", why, what.c_str());
        std::fprintf(stderr,
                     "usage: crash_sweep [--seed N] [--ops N] [--files N] "
                     "[--fs ext4|nova|both] [--verbose]\n");
        return 2;
    };
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            return ++i < argc ? argv[i] : "";
        };
        bool ok = true;
        if (arg == "--seed") {
            ok = sim::parseNumber(value(), cfg.seed);
        } else if (arg == "--ops") {
            ok = sim::parseNumber(value(), cfg.ops);
        } else if (arg == "--files") {
            ok = sim::parseNumber(value(), cfg.files);
        } else if (arg == "--fs") {
            fsArg = value();
            if (fsArg != "ext4" && fsArg != "nova" && fsArg != "both")
                return usage("unknown filesystem", fsArg);
        } else if (arg == "--verbose") {
            cfg.verbose = true;
        } else {
            return usage("unknown option", arg);
        }
        if (!ok)
            return usage("missing or bad value for", arg);
    }

    std::vector<ScenarioFailure> failures;
    std::vector<std::pair<const char *, daxvm::TableRecovery>> tables;
    if (fsArg == "ext4" || fsArg == "both") {
        tables.emplace_back(
            "ext4-dax", sweep(cfg, fs::Personality::Ext4Dax, failures));
    }
    if (fsArg == "nova" || fsArg == "both") {
        tables.emplace_back(
            "nova", sweep(cfg, fs::Personality::Nova, failures));
    }
    for (const auto &[label, t] : tables) {
        std::printf("[%s] table recovery over all crash points: "
                    "%llu validated, %llu rebuilt, %llu dropped\n",
                    label, (unsigned long long)t.validated,
                    (unsigned long long)t.rebuilt,
                    (unsigned long long)t.dropped);
    }

    int total = 0;
    if (!failures.empty()) {
        std::fprintf(stderr, "crash_sweep: failing scenarios:\n");
        for (const auto &f : failures) {
            std::fprintf(stderr, "  [%s] %-12s %-14s %d violation(s)\n",
                         f.personality.c_str(), f.scenario.c_str(),
                         f.faultPoint.c_str(), f.violations);
            total += f.violations;
        }
    }
    std::printf("crash_sweep: %d violation(s) across %zu failing "
                "scenario(s)\n",
                total, failures.size());
    // The count is the exit status so CI surfaces severity, clamped
    // below the shell-reserved range (126+).
    return std::min(total, 100);
}
