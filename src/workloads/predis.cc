/**
 * @file
 * P-Redis request model and PRedisServer implementation.
 */
#include "workloads/predis.h"

#include <stdexcept>

namespace dax::wl {

PRedisMaps
predisBoot(sim::Cpu &cpu, sys::System &system, vm::AddressSpace &as,
           fs::Ino store, std::uint64_t storeBytes, fs::Ino index,
           std::uint64_t indexBytes, const AccessOptions &access)
{
    PRedisMaps maps;
    maps.storeBytes = storeBytes;
    maps.indexBytes = indexBytes;
    maps.storeVa = mapFile(cpu, system, as, store, 0, storeBytes,
                           /*write=*/true, access);
    maps.indexVa = mapFile(cpu, system, as, index, 0, indexBytes,
                           /*write=*/true, access);
    if (maps.storeVa == 0 || maps.indexVa == 0)
        throw std::runtime_error("predis: map failed");
    return maps;
}

void
predisGet(sim::Cpu &cpu, vm::AddressSpace &as, const PRedisMaps &maps,
          std::uint64_t valueBytes, sim::Rng &rng)
{
    const std::uint64_t v = rng.below(maps.storeBytes / valueBytes);
    const std::uint64_t slot =
        (v * 0x9e3779b97f4a7c15ULL) % (maps.indexBytes / 64);
    as.memRead(cpu, maps.indexVa + slot * 64, 64, mem::Pattern::Rand);
    as.memRead(cpu, maps.storeVa + v * valueBytes, valueBytes,
               mem::Pattern::Rand);
}

bool
PRedisServer::step(sim::Cpu &cpu)
{
    quantumStart(cpu, system_, config_.access);

    if (maps_.storeVa == 0) {
        const sim::Time bootStart = cpu.now();
        maps_ = predisBoot(cpu, system_, as_, config_.store,
                           config_.storeBytes, config_.index,
                           config_.indexBytes, config_.access);
        bootLatency_ = cpu.now() - bootStart;
        timeline_.emplace_back(cpu.now(), 0);
        return true;
    }

    for (std::uint64_t i = 0;
         i < config_.opsPerQuantum && opsDone_ < config_.ops; i++) {
        predisGet(cpu, as_, maps_, config_.valueBytes, rng_);
        opsDone_++;
        if (opsDone_ % config_.sampleOps == 0) {
            timeline_.emplace_back(cpu.now(), opsDone_);
            // The MMU monitor migrates PMem-resident file tables to
            // DRAM when random-access walks dominate (Table III).
            if (config_.access.interface == Interface::DaxVm)
                system_.dax()->pollMonitor(cpu, as_, config_.store);
        }
    }
    return opsDone_ < config_.ops;
}

} // namespace dax::wl
