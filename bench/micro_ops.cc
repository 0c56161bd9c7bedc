/**
 * @file
 * google-benchmark suite measuring the real (host wall-clock) cost of
 * the simulator's hot primitives: engine steps, TLB lookups, page
 * walks, file-table attach/detach, fault handling, extent allocation.
 * This guards the simulator's own performance, not simulated time.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "bench/common.h"
#include "daxvm/api.h"
#include "sim/rng.h"
#include "sys/system.h"
#include "workloads/filesweep.h"

using namespace dax;

namespace {

sys::SystemConfig
microConfig()
{
    sys::SystemConfig config;
    config.cores = 4;
    config.pmemBytes = 512ULL << 20;
    config.pmemTableBytes = 64ULL << 20;
    config.dramBytes = 256ULL << 20;
    return config;
}

void
BM_TlbLookupHit(benchmark::State &state)
{
    arch::Tlb tlb;
    arch::WalkResult w;
    w.present = true;
    w.paddr = 0x1000;
    w.pageShift = 12;
    tlb.insert(0x1000, 1, w);
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.lookup(0x1000, 1));
}
BENCHMARK(BM_TlbLookupHit);

void
BM_PageTableWalk(benchmark::State &state)
{
    sim::CostModel cm;
    mem::Device dram(mem::Kind::Dram, 64ULL << 20, cm,
                     mem::Backing::Sparse);
    mem::FrameAllocator frames(dram, 0, 64ULL << 20);
    arch::PageTable pt(frames);
    for (std::uint64_t i = 0; i < 512; i++)
        pt.map(i * 4096, i * 4096, arch::kPteLevel, arch::pte::kWrite);
    std::uint64_t va = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pt.lookup(va));
        va = (va + 4096) % (512 * 4096);
    }
}
BENCHMARK(BM_PageTableWalk);

void
BM_MmuTranslate(benchmark::State &state)
{
    sim::CostModel cm;
    mem::Device dram(mem::Kind::Dram, 64ULL << 20, cm,
                     mem::Backing::Sparse);
    mem::FrameAllocator frames(dram, 0, 64ULL << 20);
    arch::PageTable pt(frames);
    for (std::uint64_t i = 0; i < 4096; i++)
        pt.map(i * 4096, i * 4096, arch::kPteLevel, arch::pte::kWrite);
    arch::Mmu mmu(cm);
    arch::MmuPerf perf;
    sim::Cpu cpu(nullptr, 0, 0);
    std::uint64_t va = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mmu.translate(cpu, pt, va, false, 1, perf));
        va = (va + 4096) % (4096 * 4096);
    }
}
BENCHMARK(BM_MmuTranslate);

/**
 * Same access loop with the host walk cache disabled: every TLB miss
 * takes the full radix walk. The BM_MmuTranslate/BM_MmuTranslateNoCache
 * ratio is the "walk_loop" speedup gated by scripts/bench_diff.py perf.
 */
void
BM_MmuTranslateNoCache(benchmark::State &state)
{
    sim::CostModel cm;
    mem::Device dram(mem::Kind::Dram, 64ULL << 20, cm,
                     mem::Backing::Sparse);
    mem::FrameAllocator frames(dram, 0, 64ULL << 20);
    arch::PageTable pt(frames);
    for (std::uint64_t i = 0; i < 4096; i++)
        pt.map(i * 4096, i * 4096, arch::kPteLevel, arch::pte::kWrite);
    arch::Mmu mmu(cm, /*hostFastPaths=*/false);
    arch::MmuPerf perf;
    sim::Cpu cpu(nullptr, 0, 0);
    std::uint64_t va = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mmu.translate(cpu, pt, va, false, 1, perf));
        va = (va + 4096) % (4096 * 4096);
    }
}
BENCHMARK(BM_MmuTranslateNoCache);

/** Dirty lines scattered per iteration before each flushRange. */
constexpr std::uint64_t kFlushLines = 256;

/**
 * Dirty-line persistence loop on the real Device: scattered cached
 * stores into the volatile overlay, then one ranged clwb+sfence.
 */
void
BM_DeviceFlushLoop(benchmark::State &state)
{
    sim::CostModel cm;
    mem::Device pmem(mem::Kind::Pmem, 16ULL << 20, cm,
                     mem::Backing::Sparse);
    std::array<std::uint8_t, mem::kCacheLine> payload;
    payload.fill(0xa5);
    for (auto _ : state) {
        for (std::uint64_t l = 0; l < kFlushLines; l++)
            pmem.store(l * mem::kCacheLine, payload.data(),
                       payload.size(), mem::WriteMode::Cached);
        benchmark::DoNotOptimize(
            pmem.flushRange(0, kFlushLines * mem::kCacheLine));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kFlushLines);
}
BENCHMARK(BM_DeviceFlushLoop);

/**
 * Reference overlay shaped like the pre-optimization Device: node-
 * based unordered_maps for the dirty-line overlay AND the sparse page
 * store, a per-call line list, and byte-at-a-time write-back where
 * every dirty byte probes the page table separately. Kept here (not
 * in src/) purely as the "flush_loop" speedup baseline.
 */
struct RefOverlay
{
    struct Line
    {
        std::array<std::uint8_t, mem::kCacheLine> data;
        std::uint64_t mask = 0;
    };

    void
    storeCached(std::uint64_t addr, const void *src, std::uint64_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(src);
        while (n > 0) {
            const std::uint64_t line = addr / mem::kCacheLine;
            const std::uint64_t off = addr % mem::kCacheLine;
            const std::uint64_t chunk =
                n < mem::kCacheLine - off ? n : mem::kCacheLine - off;
            Line &dl = dirty[line];
            std::memcpy(dl.data.data() + off, p, chunk);
            for (std::uint64_t i = 0; i < chunk; i++)
                dl.mask |= 1ULL << (off + i);
            addr += chunk;
            p += chunk;
            n -= chunk;
        }
    }

    std::uint8_t *
    pageForWrite(std::uint64_t addr)
    {
        auto &slot = pages[addr / mem::kPageSize];
        if (!slot) {
            slot = std::make_unique<std::uint8_t[]>(mem::kPageSize);
            std::memset(slot.get(), 0, mem::kPageSize);
        }
        return slot.get();
    }

    std::uint64_t
    flushRange(std::uint64_t addr, std::uint64_t n)
    {
        const std::uint64_t first = addr / mem::kCacheLine;
        const std::uint64_t last = (addr + n - 1) / mem::kCacheLine;
        std::vector<std::uint64_t> lines;
        for (std::uint64_t l = first; l <= last; l++)
            if (dirty.find(l) != dirty.end())
                lines.push_back(l);
        for (const std::uint64_t l : lines) {
            const Line &dl = dirty[l];
            for (unsigned i = 0; i < mem::kCacheLine; i++) {
                if ((dl.mask & (1ULL << i)) == 0)
                    continue;
                const std::uint64_t a = l * mem::kCacheLine + i;
                pageForWrite(a)[a % mem::kPageSize] = dl.data[i];
            }
            dirty.erase(l);
        }
        return lines.size();
    }

    std::unordered_map<std::uint64_t, Line> dirty;
    std::unordered_map<std::uint64_t, std::unique_ptr<std::uint8_t[]>>
        pages;
};

/** Same loop as BM_DeviceFlushLoop against the reference overlay. */
void
BM_DeviceFlushLoopRef(benchmark::State &state)
{
    RefOverlay ref;
    std::array<std::uint8_t, mem::kCacheLine> payload;
    payload.fill(0xa5);
    for (auto _ : state) {
        for (std::uint64_t l = 0; l < kFlushLines; l++)
            ref.storeCached(l * mem::kCacheLine, payload.data(),
                            payload.size());
        benchmark::DoNotOptimize(
            ref.flushRange(0, kFlushLines * mem::kCacheLine));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kFlushLines);
}
BENCHMARK(BM_DeviceFlushLoopRef);

/** Aged-allocator image: 512 MB of 4 KB blocks, heavily fragmented. */
constexpr std::uint64_t kAgedBlocks = 1ULL << 17;

/**
 * Steady-state alloc/free churn on an aged image. Both policies replay
 * the *same* logical op sequence: fill to ~85% with small variable
 * allocations, churn free/alloc pairs until free space is shredded
 * into thousands of extents, then measure one free + one goal-directed
 * alloc per iteration. The first-fit policy pays an O(free-extents)
 * scan per alloc here; the segregated policy stays O(1). Both are
 * informational absolute timings: first-fit is a production policy,
 * not a reference, so their ratio is not gated.
 */
void
runBlockAllocAged(benchmark::State &state, fs::AllocPolicy policy)
{
    fs::BlockAllocator alloc(kAgedBlocks, 0, policy);
    std::vector<std::vector<fs::Extent>> held;
    sim::Rng rng(1234);

    auto allocOne = [&]() {
        const std::uint64_t count = 1 + rng.below(64);
        const std::uint64_t goal = rng.below(kAgedBlocks);
        auto e = alloc.alloc(count, goal);
        if (!e.empty())
            held.push_back(std::move(e));
        return !held.empty();
    };
    // Fill to ~85% utilization, then shred free space with churn.
    while (alloc.freeBlocks() > kAgedBlocks * 15 / 100) {
        if (!allocOne())
            break;
    }
    for (int i = 0; i < 12000; i++) {
        const std::uint64_t idx = rng.below(held.size());
        for (const auto &e : held[idx])
            alloc.free(e);
        held[idx] = held.back();
        held.pop_back();
        allocOne();
    }

    sim::Rng loop(999);
    for (auto _ : state) {
        const std::uint64_t idx = loop.below(held.size());
        for (const auto &e : held[idx])
            alloc.free(e);
        auto repl = alloc.alloc(1 + loop.below(64),
                                loop.below(kAgedBlocks));
        held[idx] = std::move(repl); // empty only on ENOSPC
        benchmark::DoNotOptimize(alloc.freeBlocks());
    }
    state.counters["free_extents"] =
        static_cast<double>(alloc.freeExtents());
}

void
BM_BlockAllocAged(benchmark::State &state)
{
    runBlockAllocAged(state, fs::AllocPolicy::Segregated);
}
BENCHMARK(BM_BlockAllocAged);

void
BM_BlockAllocAgedRef(benchmark::State &state)
{
    runBlockAllocAged(state, fs::AllocPolicy::FirstFit);
}
BENCHMARK(BM_BlockAllocAgedRef);

/** Frame-churn region: 1 GB (262144 frames, 512 chunks of 2 MB). */
constexpr std::uint64_t kFrameRegion = 1ULL << 30;

/**
 * Reference frame allocator implementing the *same* chunk-preserving
 * policy as mem::FramePolicy::Buddy (lowest partial 2 MB chunk first,
 * then lowest fully-free chunk, lowest frame within the chunk) the
 * naive way: a byte-per-frame allocated array and linear scans over
 * chunks and frames instead of the word-scanned bitmaps. Placement is
 * bit-identical to Buddy; only the lookup machinery differs. Kept
 * here (not in src/) purely as the "frame_churn" speedup baseline.
 */
struct RefFrameAlloc
{
    static constexpr std::uint64_t kChunk =
        mem::kHugePageSize / mem::kPageSize;

    RefFrameAlloc(mem::Device &dev, std::uint64_t size)
        : dev_(dev), totalFrames_(size / mem::kPageSize),
          allocated_(totalFrames_, 0),
          used_((totalFrames_ + kChunk - 1) / kChunk, 0)
    {
    }

    std::uint64_t
    chunkSize(std::uint64_t c) const
    {
        return std::min(kChunk, totalFrames_ - c * kChunk);
    }

    mem::Paddr
    alloc()
    {
        std::uint64_t chunk = used_.size();
        for (std::uint64_t c = 0; c < used_.size(); c++) {
            if (used_[c] > 0 && used_[c] < chunkSize(c)) {
                chunk = c;
                break;
            }
        }
        if (chunk == used_.size()) {
            for (std::uint64_t c = 0; c < used_.size(); c++) {
                if (used_[c] == 0) {
                    chunk = c;
                    break;
                }
            }
        }
        if (chunk == used_.size())
            throw std::bad_alloc();
        for (std::uint64_t f = chunk * kChunk;
             f < chunk * kChunk + chunkSize(chunk); f++) {
            if (allocated_[f] == 0) {
                allocated_[f] = 1;
                used_[chunk]++;
                dev_.zero(f * mem::kPageSize, mem::kPageSize);
                return f * mem::kPageSize;
            }
        }
        throw std::bad_alloc(); // unreachable: chunk was not full
    }

    void
    free(mem::Paddr frame)
    {
        const std::uint64_t f = frame / mem::kPageSize;
        allocated_[f] = 0;
        used_[f / kChunk]--;
    }

    mem::Device &dev_;
    std::uint64_t totalFrames_;
    std::vector<std::uint8_t> allocated_;
    std::vector<std::uint32_t> used_;
};

/**
 * Metadata frame churn at 50% occupancy: free a random held frame,
 * allocate a replacement. The fast side is the Buddy policy (two
 * word-scans over chunk bitmaps); the reference runs the identical
 * placement policy with linear scans. Both zero the frame through the
 * same Device, so the ratio isolates the allocator structure.
 */
template <typename Alloc>
void
runFrameChurn(benchmark::State &state, Alloc &alloc)
{
    const std::uint64_t totalFrames = kFrameRegion / mem::kPageSize;
    std::vector<mem::Paddr> held;
    held.reserve(totalFrames / 2);
    for (std::uint64_t i = 0; i < totalFrames / 2; i++)
        held.push_back(alloc.alloc());
    sim::Rng rng(77);
    for (auto _ : state) {
        const std::uint64_t idx = rng.below(held.size());
        alloc.free(held[idx]);
        held[idx] = alloc.alloc();
        benchmark::DoNotOptimize(held[idx]);
    }
}

void
BM_FrameAllocChurn(benchmark::State &state)
{
    sim::CostModel cm;
    mem::Device dram(mem::Kind::Dram, kFrameRegion, cm,
                     mem::Backing::Sparse);
    mem::FrameAllocator frames(dram, 0, kFrameRegion,
                               mem::FramePolicy::Buddy);
    runFrameChurn(state, frames);
}
BENCHMARK(BM_FrameAllocChurn);

void
BM_FrameAllocChurnRef(benchmark::State &state)
{
    sim::CostModel cm;
    mem::Device dram(mem::Kind::Dram, kFrameRegion, cm,
                     mem::Backing::Sparse);
    RefFrameAlloc frames(dram, kFrameRegion);
    runFrameChurn(state, frames);
}
BENCHMARK(BM_FrameAllocChurnRef);

void
BM_DaxVmMmapMunmap(benchmark::State &state)
{
    sys::System system(microConfig());
    const fs::Ino ino = system.makeFile("/f", 32 * 1024);
    auto as = system.newProcess();
    sim::Cpu cpu(nullptr, 0, 0);
    for (auto _ : state) {
        const std::uint64_t va = system.dax()->mmap(
            cpu, *as, ino, 0, 32 * 1024, false, vm::kMapEphemeral);
        system.dax()->munmap(cpu, *as, va);
    }
}
BENCHMARK(BM_DaxVmMmapMunmap);

void
BM_PosixFaultPath(benchmark::State &state)
{
    sys::System system(microConfig());
    const fs::Ino ino = system.makeFile("/f", 256ULL << 20);
    auto as = system.newProcess();
    sim::Cpu cpu(nullptr, 0, 0);
    const std::uint64_t va =
        as->mmap(cpu, ino, 0, 256ULL << 20, false, 0);
    std::uint64_t off = 0;
    for (auto _ : state) {
        as->memRead(cpu, va + off, 8, mem::Pattern::Rand);
        off = (off + 4096) % (256ULL << 20);
    }
}
BENCHMARK(BM_PosixFaultPath);

void
BM_FsAppendBlock(benchmark::State &state)
{
    sys::System system(microConfig());
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = system.fs().create(cpu, "/grow");
    std::uint64_t off = 0;
    for (auto _ : state) {
        system.fs().write(cpu, ino, off, nullptr, 4096);
        off += 4096;
        if (off >= (128ULL << 20)) {
            state.PauseTiming();
            system.fs().ftruncate(cpu, ino, 0);
            off = 0;
            state.ResumeTiming();
        }
    }
}
BENCHMARK(BM_FsAppendBlock);

void
BM_EngineRun16Threads(benchmark::State &state)
{
    // Host cost of one full engine run: 16 threads x 1000 quanta.
    for (auto _ : state) {
        sim::Engine engine(16);
        for (int t = 0; t < 16; t++) {
            int steps = 0;
            engine.addThread(std::make_unique<sim::FnTask>(
                [steps](sim::Cpu &cpu) mutable {
                    cpu.advance(100);
                    return ++steps < 1000;
                }));
        }
        benchmark::DoNotOptimize(engine.run());
    }
    state.SetItemsProcessed(state.iterations() * 16000);
}
BENCHMARK(BM_EngineRun16Threads);

/** Workload shape of BM_EngineRunParallel (and its perf-JSON rows). */
constexpr int kParallelWorkers = 16;
constexpr int kParallelQuanta = 20000;

/**
 * Host cost of the sharded parallel engine (docs/engine.md): 16
 * workers, each its own isolation domain so the shard assignment can
 * spread them across simThreads = Arg host threads. Quanta lengths
 * vary per worker so the shards do not run in lockstep, and the
 * lookahead is large relative to the quanta so epoch barriers stay
 * off the critical path. Arg=1 is the sequential reference loop; the
 * BM_EngineRunParallel/1-over-/N wall-clock ratio is the
 * "parallel_scaling" series gated by scripts/bench_diff.py perf.
 */
void
BM_EngineRunParallel(benchmark::State &state)
{
    const auto simThreads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        sim::Engine engine(kParallelWorkers);
        engine.setParallelism(simThreads, /*lookaheadNs=*/1 << 20);
        for (int t = 0; t < kParallelWorkers; t++) {
            int steps = 0;
            const sim::Time quantum = 90 + 5 * (t % 5);
            engine.addThread(std::make_unique<sim::FnTask>(
                                 [steps, quantum](sim::Cpu &cpu) mutable {
                                     cpu.advance(quantum);
                                     return ++steps < kParallelQuanta;
                                 }),
                             -1, 0, /*domain=*/t + 1);
        }
        benchmark::DoNotOptimize(engine.run());
    }
    state.SetItemsProcessed(state.iterations() * kParallelWorkers
                            * kParallelQuanta);
}
BENCHMARK(BM_EngineRunParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/**
 * Console reporter that also captures per-benchmark adjusted real time
 * so the run can be serialized as a BenchResult like the figure
 * benches (one figure, one "real_ns" series). Host wall-clock numbers
 * are inherently noisy, so the figure goes in the result's "host"
 * section, which tools/check_sweep and scripts/bench_diff.py ignore.
 */
class CaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const auto &run : reports) {
            if (run.error_occurred)
                continue;
            fig_.xs.push_back(run.benchmark_name());
            fig_.series[0].values.push_back(run.GetAdjustedRealTime());
        }
        benchmark::ConsoleReporter::ReportRuns(reports);
    }

    bench::FigureData
    takeFigure()
    {
        return std::move(fig_);
    }

  private:
    bench::FigureData fig_{"micro_ops: host cost of simulator primitives",
                           "benchmark",
                           {},
                           {bench::Series{"real_ns", {}}}};
};

/** Adjusted real ns of benchmark @p name in the captured figure. */
double
nsOf(const bench::FigureData &fig, const std::string &name)
{
    for (std::size_t i = 0; i < fig.xs.size(); i++)
        if (fig.xs[i] == name && i < fig.series[0].values.size())
            return fig.series[0].values[i];
    return 0.0;
}

/**
 * Serialize the host-perf baseline (schema daxvm-bench-perf-v1):
 * per-primitive ns, the machine-independent fast/reference speedup
 * ratios CI gates on, and the engine's simulated-events-per-second.
 * See docs/performance.md for the schema and gating policy.
 */
bool
writePerfJson(const std::string &path, const bench::FigureData &fig)
{
    sim::Json root = sim::Json::object();
    root["schema"] = sim::Json("daxvm-bench-perf-v1");
    root["bench"] = sim::Json("micro_ops");

    sim::Json prim = sim::Json::object();
    for (std::size_t i = 0; i < fig.xs.size(); i++)
        if (i < fig.series[0].values.size())
            prim[fig.xs[i]] = sim::Json(fig.series[0].values[i]);
    root["primitives_ns"] = std::move(prim);

    sim::Json speedups = sim::Json::object();
    auto pair = [&](const char *key, const char *fast, const char *ref,
                    double minRatio) {
        const double fastNs = nsOf(fig, fast);
        const double refNs = nsOf(fig, ref);
        sim::Json s = sim::Json::object();
        s["fast_ns"] = sim::Json(fastNs);
        s["ref_ns"] = sim::Json(refNs);
        s["ratio"] = sim::Json(fastNs > 0 ? refNs / fastNs : 0.0);
        s["min_ratio"] = sim::Json(minRatio);
        speedups[key] = std::move(s);
    };
    pair("walk_loop", "BM_MmuTranslate", "BM_MmuTranslateNoCache", 1.5);
    pair("flush_loop", "BM_DeviceFlushLoop", "BM_DeviceFlushLoopRef",
         1.5);
    // Frame churn gates the Buddy word-scans against the same policy
    // run with naive linear scans.
    pair("frame_churn", "BM_FrameAllocChurn", "BM_FrameAllocChurnRef", 1.5);
    root["speedups"] = std::move(speedups);

    // One BM_EngineRun16Threads iteration is 16 threads x 1000 quanta.
    const double engineNs = nsOf(fig, "BM_EngineRun16Threads");
    root["events_per_sec"] =
        sim::Json(engineNs > 0 ? 16000.0 * 1e9 / engineNs : 0.0);

    // Sharded parallel engine scaling (docs/engine.md). Wall-clock
    // speedup is bounded by the host's core count, so the gate is
    // machine-adaptive: the acceptance floor (>= 2.5x at 8 sim
    // threads) applies on hosts with >= 8 CPUs; smaller hosts get
    // floors matched to their effective parallelism, and a 1-CPU host
    // only asserts that the sharded scheduler does not regress the
    // sequential loop badly (its per-epoch min-scan covers one shard's
    // members instead of every thread, which is usually a wash or a
    // small win even without host parallelism).
    const unsigned hostCpus =
        std::max(1u, std::thread::hardware_concurrency());
    const auto minRatioFor = [hostCpus](unsigned n) {
        const unsigned effective = std::min(n, hostCpus);
        if (effective >= 8)
            return 2.5;
        if (effective >= 4)
            return 1.8;
        if (effective >= 2)
            return 1.2;
        return 0.85;
    };
    const double seqNs = nsOf(fig, "BM_EngineRunParallel/1");
    const double itemsPerIter =
        static_cast<double>(kParallelWorkers) * kParallelQuanta;
    sim::Json scaling = sim::Json::object();
    scaling["host_cpus"] =
        sim::Json(static_cast<std::uint64_t>(hostCpus));
    for (const unsigned n : {1u, 2u, 4u, 8u}) {
        const double ns =
            nsOf(fig, "BM_EngineRunParallel/" + std::to_string(n));
        sim::Json s = sim::Json::object();
        s["ns"] = sim::Json(ns);
        s["events_per_sec"] =
            sim::Json(ns > 0 ? itemsPerIter * 1e9 / ns : 0.0);
        s["ratio"] = sim::Json(seqNs > 0 && ns > 0 ? seqNs / ns : 0.0);
        s["min_ratio"] = sim::Json(minRatioFor(n));
        scaling["threads_" + std::to_string(n)] = std::move(s);
    }
    root["parallel_scaling"] = std::move(scaling);

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    const std::string text = root.dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel our shared flags off before google-benchmark parses the
    // rest of the command line.
    std::vector<char *> args;
    std::string jsonPath;
    std::string perfPath;
    std::string tracePath;
    std::string foldedPath;
    for (int i = 0; i < argc; i++) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
        else if (std::strcmp(argv[i], "--perf-json") == 0 && i + 1 < argc)
            perfPath = argv[++i];
        else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
            tracePath = argv[++i];
        else if (std::strcmp(argv[i], "--trace-folded") == 0
                 && i + 1 < argc)
            foldedPath = argv[++i];
        else
            args.push_back(argv[i]);
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;

    bench::result().name = "micro_ops";
    bench::result().jsonPath = jsonPath;
    bench::result().tracePath = tracePath;
    bench::result().foldedPath = foldedPath;
    if (!tracePath.empty() || !foldedPath.empty())
        sim::Trace::get().spans().enableAll();

    CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    // Wall-clock rows go in the "host" section; the deterministic
    // "figures" section stays empty so the run can join the
    // determinism sweep.
    bench::FigureData fig = reporter.takeFigure();
    if (!perfPath.empty() && !writePerfJson(perfPath, fig))
        return 1;
    bench::result().hostFigures.push_back(std::move(fig));
    return bench::finish();
}
