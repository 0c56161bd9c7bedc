/**
 * @file
 * ApacheWorker implementation.
 */
#include "workloads/apache.h"

namespace dax::wl {

void
apacheServeRequest(sim::Cpu &cpu, sys::System &system,
                   vm::AddressSpace &as, fs::Ino ino,
                   std::uint64_t bytes, const AccessOptions &access)
{
    const sim::CostModel &cm = system.cm();

    // Request parsing / response generation compute.
    cpu.advance(cm.httpRequestOverhead);

    // Apache opens the page per request; the inode cache keeps this a
    // warm open in steady state.
    const fs::Inode &node = system.fs().inode(ino);
    cpu.advance(cm.openBase);
    (void)node;

    if (access.interface == Interface::Read) {
        // Copy 1: PMem -> private buffer (kernel read path).
        system.fs().read(cpu, ino, 0, nullptr, bytes);
        // Copy 2: buffer (cache-hot) -> socket buffers.
        cpu.advance(cm.socketSyscall);
        system.dram().write(cpu, 0, bytes, mem::WriteMode::Cached,
                            mem::Pattern::Seq, cm.kernelCopyFactor);
    } else {
        const std::uint64_t va = mapFile(cpu, system, as, ino, 0,
                                         bytes, false, access);
        if (va == 0)
            throw std::runtime_error("apache: map failed");
        // Single copy: PMem mapping -> socket buffers, performed by
        // the kernel through the user mapping (write(2)).
        cpu.advance(cm.socketSyscall);
        as.memRead(cpu, va, bytes, mem::Pattern::Seq, nullptr,
                   /*kernelCopy=*/true);
        unmapFile(cpu, system, as, va, bytes, access);
    }
    cpu.advance(cm.closeBase);
}

void
ApacheWorker::serveOne(sim::Cpu &cpu)
{
    const fs::Ino ino =
        config_.pages[rng_.below(config_.pages.size())];
    apacheServeRequest(cpu, system_, as_, ino, config_.pageBytes,
                       config_.access);
}

bool
ApacheWorker::step(sim::Cpu &cpu)
{
    quantumStart(cpu, system_, config_.access);
    for (std::uint64_t i = 0; i < config_.requestsPerQuantum
                              && requestsDone_ < config_.requests;
         i++) {
        serveOne(cpu);
        requestsDone_++;
    }
    return requestsDone_ < config_.requests;
}

std::vector<fs::Ino>
makeWebPages(sys::System &system, const std::string &prefix,
             std::uint64_t count, std::uint64_t bytes)
{
    std::vector<fs::Ino> pages;
    pages.reserve(count);
    for (std::uint64_t i = 0; i < count; i++) {
        pages.push_back(
            system.makeFile(prefix + std::to_string(i), bytes));
    }
    return pages;
}

} // namespace dax::wl
