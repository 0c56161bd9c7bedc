/**
 * @file
 * google-benchmark suite measuring the real (host wall-clock) cost of
 * the simulator's hot primitives: engine steps, TLB lookups, page
 * walks, file-table attach/detach, fault handling, extent allocation.
 * The rows are informational absolute timings; the performance gate is
 * benchmark/compare.py against BENCHMARK.json (docs/performance.md).
 */
#include <benchmark/benchmark.h>

#include <array>
#include <cstring>

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
        // The full four-level walk; lookup() would start at the leaf
        // table the walk cache holds.
        benchmark::DoNotOptimize(pt.walkFromRoot(va));
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

/** Aged-allocator image: 512 MB of 4 KB blocks, heavily fragmented. */
constexpr std::uint64_t kAgedBlocks = 1ULL << 17;

/**
 * Steady-state alloc/free churn on an aged image: fill to ~85% with
 * small variable allocations, churn free/alloc pairs until free space
 * is shredded into thousands of extents, then measure one free + one
 * goal-directed first-fit alloc per iteration.
 */
void
BM_BlockAllocAged(benchmark::State &state)
{
    fs::BlockAllocator alloc(kAgedBlocks, 0);
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
BENCHMARK(BM_BlockAllocAged);

/** Frame-churn region: 1 GB (262144 frames). */
constexpr std::uint64_t kFrameRegion = 1ULL << 30;

/**
 * Metadata frame churn at 50% occupancy: free a random held frame,
 * allocate a replacement (the LIFO free list hands it straight back),
 * which zeroes it through the Device.
 */
void
BM_FrameAllocChurn(benchmark::State &state)
{
    sim::CostModel cm;
    mem::Device dram(mem::Kind::Dram, kFrameRegion, cm,
                     mem::Backing::Sparse);
    mem::FrameAllocator frames(dram, 0, kFrameRegion);
    const std::uint64_t totalFrames = kFrameRegion / mem::kPageSize;
    std::vector<mem::Paddr> held;
    held.reserve(totalFrames / 2);
    for (std::uint64_t i = 0; i < totalFrames / 2; i++)
        held.push_back(frames.alloc());
    sim::Rng rng(77);
    for (auto _ : state) {
        const std::uint64_t idx = rng.below(held.size());
        frames.free(held[idx]);
        held[idx] = frames.alloc();
        benchmark::DoNotOptimize(held[idx]);
    }
}
BENCHMARK(BM_FrameAllocChurn);

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

/**
 * Console reporter that also captures per-benchmark adjusted real time
 * so the run can be serialized as a BenchResult like the figure
 * benches (one figure, one "real_ns" series). Host wall-clock numbers
 * are inherently noisy, so the figure goes in the result's "host"
 * section, which tools/check_sweep ignores: the rows are informational
 * timings, not a gate.
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

} // namespace

int
main(int argc, char **argv)
{
    // Peel our shared flags off before google-benchmark parses the
    // rest of the command line.
    std::vector<char *> args;
    std::string jsonPath;
    std::string tracePath;
    std::string foldedPath;
    for (int i = 0; i < argc; i++) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
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
    bench::result().hostFigures.push_back(reporter.takeFigure());
    return bench::finish();
}
