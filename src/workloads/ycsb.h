/**
 * @file
 * YCSB workload driver over the KvStore (paper Figure 9c).
 *
 * Standard mixes: A 50r/50u, B 95r/5u, C 100r, D 95r(latest)/5i,
 * E 95scan/5i, plus the Load phases (pure inserts) of A and E.
 */
#pragma once

#include <cstdint>
#include <string>

#include "sim/rng.h"
#include "workloads/kvstore.h"

namespace dax::wl {

struct YcsbMix
{
    double read = 0.0;
    double update = 0.0;
    double insert = 0.0;
    double scan = 0.0;
    bool readLatest = false;
    std::string name;

    static YcsbMix loadA() { return {0, 0, 1.0, 0, false, "Load A"}; }
    static YcsbMix runA() { return {0.5, 0.5, 0, 0, false, "Run A"}; }
    static YcsbMix runB() { return {0.95, 0.05, 0, 0, false, "Run B"}; }
    static YcsbMix runC() { return {1.0, 0, 0, 0, false, "Run C"}; }
    static YcsbMix runD() { return {0.95, 0, 0.05, 0, true, "Run D"}; }
    static YcsbMix loadE() { return {0, 0, 1.0, 0, false, "Load E"}; }
    static YcsbMix runE() { return {0, 0, 0.05, 0.95, false, "Run E"}; }
};

/**
 * One operation drawn from @p mix: an insert of key @p nextInsert
 * (which advances the cursor), or an update, scan or read of a
 * Zipf-drawn key, read-latest skewed towards the keys inserted past
 * the @p records preloaded ones. YcsbRunner and the open-loop YCSB
 * tenant (workloads/tenant.h) both serve through it, so they draw
 * from @p rng and @p zipf in the same order.
 */
void ycsbOp(sim::Cpu &cpu, KvStore &kv, const YcsbMix &mix,
            std::uint64_t records, unsigned scanLength, sim::Rng &rng,
            sim::Zipf &zipf, std::uint64_t &nextInsert);

class YcsbRunner : public sim::Task
{
  public:
    struct Config
    {
        KvStore *kv = nullptr;
        YcsbMix mix;
        /** Key space already loaded (inserts extend it). */
        std::uint64_t records = 100000;
        std::uint64_t ops = 100000;
        std::uint64_t opsPerQuantum = 64;
        unsigned scanLength = 16;
        std::uint64_t seed = 11;
    };

    explicit YcsbRunner(Config config)
        : config_(config), rng_(config.seed),
          zipf_(config.records > 0 ? config.records : 1)
    {}

    bool step(sim::Cpu &cpu) override;
    std::string name() const override { return "ycsb"; }

    std::uint64_t opsDone() const { return opsDone_; }

  private:
    Config config_;
    sim::Rng rng_;
    sim::Zipf zipf_;
    std::uint64_t nextInsert_ = 0;
    std::uint64_t opsDone_ = 0;
};

} // namespace dax::wl
