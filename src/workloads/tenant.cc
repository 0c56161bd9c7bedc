/**
 * @file
 * Tenant implementation (see tenant.h).
 */
#include "workloads/tenant.h"

#include <stdexcept>

#include "sys/system.h"
#include "workloads/apache.h"

namespace dax::wl {

const char *
tenantKindName(TenantKind kind)
{
    switch (kind) {
      case TenantKind::Apache:
        return "apache";
      case TenantKind::PRedis:
        return "predis";
      case TenantKind::Ycsb:
        return "ycsb";
    }
    return "?";
}

Tenant::Tenant(sys::System &system, TenantSpec spec, sim::Rng stream)
    : system_(system), spec_(std::move(spec)), as_(system.newProcess()),
      stream_(stream),
      serveRng_(stream.stream(spec_.arrival.clients + 1)),
      stats_(OpenLoopStats::make(
          sim::MetricsScope(system.metrics(), "openloop")
              .scope(spec_.name),
          spec_.sloNs))
{
    const std::string root = "/" + spec_.name + "/";
    switch (spec_.kind) {
      case TenantKind::Apache:
        pages_ = makeWebPages(system_, root + "page", spec_.pageCount,
                              spec_.pageBytes);
        break;
      case TenantKind::PRedis:
        store_ = system_.makeFile(root + "store", spec_.storeBytes);
        index_ = system_.makeFile(root + "index", spec_.indexBytes);
        break;
      case TenantKind::Ycsb: {
        KvStore::Config kv;
        kv.dir = root;
        kv.access = spec_.access;
        kv_ = std::make_unique<KvStore>(system_, *as_, kv);
        zipf_ = std::make_unique<sim::Zipf>(
            spec_.records > 0 ? spec_.records : 1);
        break;
      }
    }
}

Tenant::~Tenant() = default;

std::unique_ptr<sim::Task>
Tenant::makeGenTask()
{
    return std::make_unique<ArrivalGenTask>(
        spec_.arrival, stream_, spec_.requests, &queue_.schedule,
        "gen:" + spec_.name);
}

std::unique_ptr<sim::Task>
Tenant::makePreloadTask()
{
    if (spec_.kind != TenantKind::Ycsb)
        return nullptr;
    // Load phase: fill the record space so run-phase gets hit. Runs
    // in the generation run, concurrently (in virtual time) with the
    // per-tenant schedule synthesis.
    return std::make_unique<sim::FnTask>(
        [this](sim::Cpu &cpu) {
            const std::uint64_t batch = 256;
            for (std::uint64_t i = 0;
                 i < batch && nextInsert_ < spec_.records; i++)
                kv_->put(cpu, nextInsert_++);
            return nextInsert_ < spec_.records;
        },
        "load:" + spec_.name);
}

std::vector<std::unique_ptr<sim::Task>>
Tenant::makeServers()
{
    std::vector<std::unique_ptr<sim::Task>> servers;
    servers.reserve(spec_.servers);
    for (unsigned s = 0; s < spec_.servers; s++) {
        servers.push_back(std::make_unique<OpenLoopServer>(
            system_, *this, queue_, stats_, spec_.name,
            spec_.name + ":" + std::to_string(s)));
    }
    return servers;
}

void
Tenant::serve(sim::Cpu &cpu, const Arrival &arrival)
{
    (void)arrival;
    switch (spec_.kind) {
      case TenantKind::Apache:
        serveApache(cpu);
        break;
      case TenantKind::PRedis:
        servePRedis(cpu);
        break;
      case TenantKind::Ycsb:
        serveYcsb(cpu);
        break;
    }
}

void
Tenant::serveApache(sim::Cpu &cpu)
{
    const fs::Ino ino = pages_[serveRng_.below(pages_.size())];
    apacheServeRequest(cpu, system_, *as_, ino, spec_.pageBytes,
                       spec_.access);
}

void
Tenant::servePRedis(sim::Cpu &cpu)
{
    if (predis_.storeVa == 0) {
        // Server boot on the first request: the first request's
        // latency carries the boot cost, as a real restart would.
        predis_ = predisBoot(cpu, system_, *as_, store_, spec_.storeBytes,
                             index_, spec_.indexBytes, spec_.access);
    }
    predisGet(cpu, *as_, predis_, spec_.valueBytes, serveRng_);
}

void
Tenant::serveYcsb(sim::Cpu &cpu)
{
    if (nextInsert_ < spec_.records)
        throw std::logic_error("tenant: ycsb served before preload");
    ycsbOp(cpu, *kv_, spec_.mix, spec_.records, spec_.scanLength,
           serveRng_, *zipf_, nextInsert_);
}

double
Tenant::achievedRate() const
{
    if (queue_.lastDone <= queue_.base || queue_.next == 0)
        return 0.0;
    return static_cast<double>(queue_.next) * 1e9
         / static_cast<double>(queue_.lastDone - queue_.base);
}

} // namespace dax::wl
