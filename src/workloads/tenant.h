/**
 * @file
 * Multi-tenant open-loop mix: Apache, P-Redis and YCSB tenants
 * sharing one device and file system (docs/workloads.md).
 *
 * A Tenant packages one application model behind the OpenLoopService
 * hook: its own simulated process (address space), its files, its
 * arrival process, its server pool and its "openloop.<name>.*"
 * instruments. All tenants of a mix live on one sys::System, so they
 * contend for the real PMem bandwidth, file-system locks, journal and
 * TLB-shootdown machinery — the cross-tenant interference is the
 * point of the fig10 study.
 *
 * Per-tenant randomness: the mix derives tenant streams from one
 * master Rng with longJump() (2^192 apart); each tenant's arrival
 * clients sit 2^128 apart within that via jump() (see openloop.h),
 * and the serve-side stream uses the first jump stream beyond the
 * clients.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workloads/kvstore.h"
#include "workloads/openloop.h"
#include "workloads/predis.h"
#include "workloads/ycsb.h"

namespace dax::wl {

enum class TenantKind
{
    Apache, ///< static pages: open + transfer + close per request
    PRedis, ///< mapped KV cache: index probe + value read per GET
    Ycsb,   ///< LSM KvStore ops per the configured mix
};

const char *tenantKindName(TenantKind kind);

struct TenantSpec
{
    std::string name = "tenant";
    TenantKind kind = TenantKind::Apache;
    ArrivalConfig arrival;
    /** Server pool size (engine threads). */
    unsigned servers = 4;
    /** Tail-latency SLO on arrival-to-completion latency. */
    sim::Time sloNs = 2000000;
    /** Exact number of requests the tenant drives. */
    std::uint64_t requests = 100000;
    AccessOptions access;

    // Apache ------------------------------------------------------------
    std::uint64_t pageCount = 64;
    std::uint64_t pageBytes = 4096;

    // P-Redis -----------------------------------------------------------
    std::uint64_t storeBytes = 64ULL << 20;
    std::uint64_t indexBytes = 8ULL << 20;
    std::uint64_t valueBytes = 4096;

    // YCSB --------------------------------------------------------------
    YcsbMix mix = YcsbMix::runB();
    std::uint64_t records = 20000;
    unsigned scanLength = 16;
};

class Tenant : public OpenLoopService
{
  public:
    /**
     * Creates the tenant's process and files (untimed setup).
     * @p stream is the tenant's master random stream — derive it from
     * the mix seed with Rng::longJump, never `seed + i`.
     */
    Tenant(sys::System &system, TenantSpec spec, sim::Rng stream);
    ~Tenant() override;

    /**
     * Phase-1 task generating the arrival schedule. Add it to the
     * engine and run() it to completion before makeServers().
     */
    std::unique_ptr<sim::Task> makeGenTask();

    /**
     * Phase-1 warm-up task: preloads the YCSB record space. Null for
     * tenants without a warm-up phase.
     */
    std::unique_ptr<sim::Task> makePreloadTask();

    /** Phase-2 server pool. */
    std::vector<std::unique_ptr<sim::Task>> makeServers();

    /** Anchor the schedule's t=0 at virtual time @p base. */
    void beginService(sim::Time base) { queue_.base = base; }

    // OpenLoopService -----------------------------------------------------
    void serve(sim::Cpu &cpu, const Arrival &arrival) override;
    const AccessOptions &access() const override
    {
        return spec_.access;
    }

    const TenantSpec &spec() const { return spec_; }
    const OpenLoopQueue &queue() const { return queue_; }
    const OpenLoopStats &stats() const { return stats_; }

    /** Requests per second actually completed (0 before service). */
    double achievedRate() const;

  private:
    void serveApache(sim::Cpu &cpu);
    void servePRedis(sim::Cpu &cpu);
    void serveYcsb(sim::Cpu &cpu);

    sys::System &system_;
    TenantSpec spec_;
    std::unique_ptr<vm::AddressSpace> as_;
    sim::Rng stream_;
    sim::Rng serveRng_;
    OpenLoopQueue queue_;
    OpenLoopStats stats_;

    // Apache
    std::vector<fs::Ino> pages_;

    // P-Redis (booted lazily on first serve)
    fs::Ino store_ = 0;
    fs::Ino index_ = 0;
    PRedisMaps predis_;

    // YCSB
    std::unique_ptr<KvStore> kv_;
    std::unique_ptr<sim::Zipf> zipf_;
    std::uint64_t nextInsert_ = 0;
};

} // namespace dax::wl
