/**
 * @file
 * Paper Figures 1c and 5: repetitive 1 KB / 4 KB reads and overwrites
 * over one large mapped file on an aged image (database pattern).
 *
 * Paper shape (relative to read/write syscalls): for 1 KB, all mmap
 * variants win, DaxVM up to 3.9x syscalls and 1.9x default mmap; for
 * 4 KB, default mmap can lose to syscalls sequentially while DaxVM
 * stays 1.3-2.7x ahead. The DaxVM monitor migrates PMem-resident file
 * tables to DRAM under the random patterns (~10% gain).
 */
#include "bench/common.h"
#include "workloads/repetitive.h"

using namespace dax;
using namespace dax::bench;
using namespace dax::wl;

namespace {

struct Variant
{
    std::string name;
    AccessOptions access;
    std::uint64_t writesPerSync = 0; ///< 0 = user-space durability
    bool monitor = true;
};

double
opsPerSec(sys::System &system, fs::Ino ino, std::uint64_t fileBytes,
          std::uint32_t opBytes, bool write, bool random,
          const Variant &variant, std::uint64_t ops)
{
    auto as = system.newProcess();
    Repetitive::Config config;
    config.ino = ino;
    config.fileBytes = fileBytes;
    config.opBytes = opBytes;
    config.write = write;
    config.randomOrder = random;
    config.ops = ops;
    config.writesPerSync = variant.writesPerSync;
    config.monitorPollOps = variant.monitor ? 8192 : 0;
    config.access = variant.access;
    std::vector<std::unique_ptr<sim::Task>> tasks;
    tasks.push_back(
        std::make_unique<Repetitive>(system, *as, config));
    const sim::Time elapsed = runWorkers(system, std::move(tasks));
    return static_cast<double>(ops)
         / (static_cast<double>(elapsed) / 1e9);
}

} // namespace

int
main(int argc, char **argv)
{
    init(argc, argv, "fig5_repetitive");
    note("Fig 1c / Fig 5: repetitive access over one large "
         "file (aged ext4-DAX, 1 thread)");
    note("paper: 100GB file, ~100M ops; scaled: 512MB file, "
         "200K ops per pattern");

    sys::System system(benchConfig(2ULL << 30, 4));
    ageImage(system);
    const std::uint64_t fileBytes = 512ULL << 20;
    const fs::Ino ino = system.makeFile("/db", fileBytes);
    const std::uint64_t ops = 200000;

    std::vector<Variant> variants;
    {
        Variant v;
        v.name = "syscall";
        v.access.interface = Interface::Read;
        variants.push_back(v);
        v.name = "mmap";
        v.access.interface = Interface::Mmap;
        variants.push_back(v);
        v.name = "populate";
        v.access.interface = Interface::MmapPopulate;
        variants.push_back(v);
        v.name = "daxvm";
        v.access.interface = Interface::DaxVm;
        variants.push_back(v);
        v.name = "daxvm-nosync";
        v.access.nosync = true;
        variants.push_back(v);
    }

    for (const std::uint32_t opBytes : {1024u, 4096u}) {
        std::vector<std::string> xs = {"seq-read", "rand-read",
                                       "seq-write", "rand-write"};
        std::vector<Series> series;
        std::vector<double> base(4, 0.0);
        for (std::size_t v = 0; v < variants.size(); v++) {
            Series s;
            s.name = variants[v].name;
            int x = 0;
            for (const bool write : {false, true}) {
                for (const bool random : {false, true}) {
                    const double rate =
                        opsPerSec(system, ino, fileBytes, opBytes,
                                  write, random, variants[v], ops);
                    if (v == 0)
                        base[static_cast<unsigned>(x)] = rate;
                    s.values.push_back(
                        rate / base[static_cast<unsigned>(x)]);
                    x++;
                }
            }
            // Reorder: we iterated write-major; xs is read-first.
            series.push_back(std::move(s));
        }
        printFigure("Fig 5: " + std::to_string(opBytes / 1024)
                        + "KB ops, throughput relative to syscalls",
                    "pattern", xs, series, "%12.3f");
    }

    std::printf("\n# monitor migrations: %llu (table->DRAM under random "
                "access)\n",
                (unsigned long long)system.metrics().counterValue(
                    "daxvm.monitor_migrations"));
    record(system);
    return finish();
}
