/**
 * @file
 * YCSB operation model and YcsbRunner implementation.
 */
#include "workloads/ycsb.h"

namespace dax::wl {

void
ycsbOp(sim::Cpu &cpu, KvStore &kv, const YcsbMix &mix,
       std::uint64_t records, unsigned scanLength, sim::Rng &rng,
       sim::Zipf &zipf, std::uint64_t &nextInsert)
{
    const double u = rng.uniform();
    if (u < mix.insert) {
        kv.put(cpu, nextInsert++);
    } else if (u < mix.insert + mix.update) {
        kv.put(cpu, zipf.next(rng));
    } else if (u < mix.insert + mix.update + mix.scan) {
        kv.scan(cpu, zipf.next(rng), scanLength);
    } else {
        std::uint64_t key;
        if (mix.readLatest && nextInsert > records) {
            // Skew towards recently inserted keys.
            const std::uint64_t back =
                zipf.next(rng) % (nextInsert - records + 1);
            key = nextInsert - 1 - back;
        } else {
            key = zipf.next(rng);
        }
        kv.get(cpu, key);
    }
}

bool
YcsbRunner::step(sim::Cpu &cpu)
{
    if (nextInsert_ == 0)
        nextInsert_ = config_.records;

    for (std::uint64_t i = 0;
         i < config_.opsPerQuantum && opsDone_ < config_.ops; i++) {
        ycsbOp(cpu, *config_.kv, config_.mix, config_.records,
               config_.scanLength, rng_, zipf_, nextInsert_);
        opsDone_++;
    }
    return opsDone_ < config_.ops;
}

} // namespace dax::wl
