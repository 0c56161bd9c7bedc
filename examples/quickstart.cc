/**
 * @file
 * Quickstart: build a simulated machine, create a file on the
 * ext4-DAX image, map it three ways (read syscalls, POSIX DAX mmap,
 * daxvm_mmap) and compare what each costs in simulated time.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */
#include <cstdio>
#include <vector>

#include "sys/system.h"
#include "vm/file_io.h"

using namespace dax;

int
main()
{
    // 1. A simulated machine: 16 cores, 2 GB PMem (ext4-DAX), DaxVM
    //    enabled with the pre-zero daemon.
    sys::SystemConfig config;
    config.cores = 16;
    config.pmemBytes = 2ULL << 30;
    sys::System system(config);

    // 2. A 1 MB file with a deterministic pattern (setup helpers are
    //    untimed; the timed API lives on FileSystem/AddressSpace).
    const fs::Ino ino = system.makeFile("/hello", 1 << 20, 1 << 20);

    // 3. A simulated process.
    auto process = system.newProcess();
    sim::Cpu cpu(nullptr, /*threadId=*/0, /*coreId=*/0);

    // --- read(2) into a buffer --------------------------------------
    std::vector<std::uint8_t> buf(1 << 20);
    sim::Time t0 = cpu.now();
    system.fs().read(cpu, ino, 0, buf.data(), buf.size());
    std::printf("read():      %6.1f us (data copied to DRAM)\n",
                static_cast<double>(cpu.now() - t0) / 1e3);

    // --- default DAX mmap (demand faults) ----------------------------
    t0 = cpu.now();
    const std::uint64_t mva =
        process->mmap(cpu, ino, 0, 1 << 20, /*write=*/false, 0);
    process->memRead(cpu, mva, 1 << 20, mem::Pattern::Seq);
    process->munmap(cpu, mva, 1 << 20);
    std::printf("mmap():      %6.1f us (%llu page faults)\n",
                static_cast<double>(cpu.now() - t0) / 1e3,
                (unsigned long long)system.metrics().counterValue(
                    "vm.faults"));

    // --- daxvm_mmap: O(1) attach of pre-populated file tables --------
    t0 = cpu.now();
    const std::uint64_t dva = system.dax()->mmap(
        cpu, *process, ino, 0, 1 << 20, /*write=*/false,
        vm::kMapEphemeral | vm::kMapUnmapAsync);
    process->memRead(cpu, dva, 1 << 20, mem::Pattern::Seq);
    system.dax()->munmap(cpu, *process, dva);
    std::printf("daxvm_mmap(): %5.1f us (no faults, deferred unmap)\n",
                static_cast<double>(cpu.now() - t0) / 1e3);

    // 4. Verify the bytes really came from the same storage.
    std::uint8_t byte = 0;
    const std::uint64_t again = system.dax()->mmap(
        cpu, *process, ino, 0, 4096, false, vm::kMapEphemeral);
    process->memRead(cpu, again + 123, 1, mem::Pattern::Rand, &byte);
    std::printf("byte check: mapped[123]=%u, pattern=%u\n", byte,
                sys::System::patternByte(ino, 123));
    system.dax()->munmap(cpu, *process, again);
    return 0;
}
