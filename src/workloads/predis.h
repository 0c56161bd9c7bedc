/**
 * @file
 * P-Redis boot/serving model (paper Figure 9b): a PMem-resident
 * key-value cache is memory-mapped at server start and gets served
 * with random GET operations. With default mmap the warm-up period is
 * dominated by demand faults; MAP_POPULATE stalls startup; DaxVM's
 * O(1) mmap reaches full throughput instantly.
 *
 * The task records a throughput timeline (operations completed at
 * virtual timestamps) that the bench turns into Figure 9b's series.
 */
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "workloads/common.h"

namespace dax::wl {

/** Where a booted P-Redis server has its cache and index mapped. */
struct PRedisMaps
{
    std::uint64_t storeVa = 0;
    std::uint64_t storeBytes = 0;
    std::uint64_t indexVa = 0;
    std::uint64_t indexBytes = 0;
};

/**
 * Server boot: map the persistent cache and index read-write. Throws
 * std::runtime_error when either map fails. The boot and predisGet()
 * are the request model that the closed-loop PRedisServer and the
 * open-loop P-Redis tenant (workloads/tenant.h) share.
 */
PRedisMaps predisBoot(sim::Cpu &cpu, sys::System &system,
                      vm::AddressSpace &as, fs::Ino store,
                      std::uint64_t storeBytes, fs::Ino index,
                      std::uint64_t indexBytes,
                      const AccessOptions &access);

/**
 * One GET of a value drawn from @p rng: a hash-table probe in the
 * index, then the value read.
 */
void predisGet(sim::Cpu &cpu, vm::AddressSpace &as, const PRedisMaps &maps,
               std::uint64_t valueBytes, sim::Rng &rng);

class PRedisServer : public sim::Task
{
  public:
    struct Config
    {
        fs::Ino store = 0;        ///< key-value cache file
        fs::Ino index = 0;        ///< hash-table index file
        std::uint64_t storeBytes = 0;
        std::uint64_t indexBytes = 0;
        std::uint64_t valueBytes = 16 * 1024;
        std::uint64_t ops = 100000;
        std::uint64_t opsPerQuantum = 16;
        /** Record a timeline sample every N ops. */
        std::uint64_t sampleOps = 4096;
        AccessOptions access;
        std::uint64_t seed = 5;
    };

    PRedisServer(sys::System &system, vm::AddressSpace &as,
                 Config config)
        : system_(system), as_(as), config_(config), rng_(config.seed)
    {}

    bool step(sim::Cpu &cpu) override;
    std::string name() const override { return "predis"; }

    std::uint64_t opsDone() const { return opsDone_; }
    sim::Time bootLatency() const { return bootLatency_; }

    /** (virtual time, total ops completed) samples. */
    const std::vector<std::pair<sim::Time, std::uint64_t>> &
    timeline() const
    {
        return timeline_;
    }

  private:
    sys::System &system_;
    vm::AddressSpace &as_;
    Config config_;
    sim::Rng rng_;
    PRedisMaps maps_;
    sim::Time bootLatency_ = 0;
    std::uint64_t opsDone_ = 0;
    std::vector<std::pair<sim::Time, std::uint64_t>> timeline_;
};

} // namespace dax::wl
