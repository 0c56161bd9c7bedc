/**
 * @file
 * KvStore implementation.
 */
#include "workloads/kvstore.h"

#include <algorithm>

namespace dax::wl {

namespace {

/** Memtable insert/probe compute (skiplist-ish). */
constexpr sim::Time kMemtableOp = 250;
/** Per-SSTable index/bloom probe. */
constexpr sim::Time kIndexProbe = 220;

} // namespace

KvStore::KvStore(sys::System &system, vm::AddressSpace &as, Config config)
    : system_(system), as_(as), config_(std::move(config))
{
    sim::Cpu setup(nullptr, 0, 0);
    openWal(setup);
}

KvStore::~KvStore() = default;

std::uint64_t
KvStore::mapKvFile(sim::Cpu &cpu, fs::Ino ino, std::uint64_t bytes)
{
    const std::uint64_t va = mapFile(cpu, system_, as_, ino, 0, bytes,
                                     /*write=*/true, config_.access);
    if (va == 0)
        throw std::runtime_error("kvstore: map failed");
    return va;
}

void
KvStore::openWal(sim::Cpu &cpu)
{
    const std::uint64_t bytes =
        config_.memtableRecords * config_.recordBytes;
    if (!recycledWal_.empty()) {
        // Recycle the previous log file in place (no allocation, no
        // zeroing - the RocksDB log_recycling optimization).
        walPath_ = recycledWal_;
        recycledWal_.clear();
        walIno_ = *system_.fs().lookupPath(walPath_);
    } else {
        walPath_ = config_.dir + "wal" + std::to_string(serial_++);
        walIno_ = system_.fs().create(cpu, walPath_);
        if (!system_.fs().fallocate(cpu, walIno_, 0, bytes))
            throw std::runtime_error("kvstore: WAL out of space");
    }
    walVa_ = mapKvFile(cpu, walIno_, bytes);
    walOff_ = 0;
}

void
KvStore::put(sim::Cpu &cpu, std::uint64_t key)
{
    puts_++;
    // WAL append with non-temporal stores (user-space durability).
    as_.memWrite(cpu, walVa_ + walOff_, config_.recordBytes,
                 mem::Pattern::Seq, mem::WriteMode::NtStore);
    walOff_ += config_.recordBytes;
    cpu.advance(kMemtableOp);
    memtable_.insert(key);
    if (walOff_ >= config_.memtableRecords * config_.recordBytes)
        flushMemtable(cpu);
}

void
KvStore::flushMemtable(sim::Cpu &cpu)
{
    flushes_++;
    const std::uint64_t records = memtable_.size();
    const std::uint64_t bytes =
        std::max<std::uint64_t>(records, 1) * config_.recordBytes;

    Sst sst;
    sst.path = config_.dir + "sst" + std::to_string(serial_++);
    sst.ino = system_.fs().create(cpu, sst.path);
    if (!system_.fs().fallocate(cpu, sst.ino, 0, bytes)) {
        // Unlike a compaction, a flush cannot back off: the memtable
        // is full. Leave no empty SST behind for the caller to find.
        system_.fs().unlink(cpu, sst.path);
        flushes_--;
        throw std::runtime_error("kvstore: SST out of space");
    }
    sst.va = mapKvFile(cpu, sst.ino, bytes);
    // Sequential write-out of the sorted memtable.
    as_.memWrite(cpu, sst.va, bytes, mem::Pattern::Seq,
                 mem::WriteMode::NtStore);
    sst.keys.assign(memtable_.begin(), memtable_.end());
    ssts_.push_back(std::move(sst));
    memtable_.clear();

    // Retire the WAL: unmap and keep the file for recycling.
    unmapFile(cpu, system_, as_, walVa_,
              config_.memtableRecords * config_.recordBytes,
              config_.access);
    recycledWal_ = walPath_;
    openWal(cpu);
    maybeCompact(cpu);
}

void
KvStore::maybeCompact(sim::Cpu &cpu)
{
    if (ssts_.size() <= config_.compactionTrigger)
        return;
    compactions_++;
    const std::size_t width =
        std::min(config_.compactionWidth, ssts_.size());

    // Merge the oldest `width` tables into one.
    std::set<std::uint64_t> merged;
    std::uint64_t inputBytes = 0;
    for (std::size_t i = 0; i < width; i++) {
        Sst &sst = ssts_[i];
        const std::uint64_t bytes =
            std::max<std::uint64_t>(sst.keys.size(), 1)
            * config_.recordBytes;
        as_.memRead(cpu, sst.va, bytes, mem::Pattern::Seq);
        merged.insert(sst.keys.begin(), sst.keys.end());
        inputBytes += bytes;
    }
    const std::uint64_t outBytes =
        std::max<std::uint64_t>(merged.size(), 1)
        * config_.recordBytes;

    Sst out;
    out.path = config_.dir + "sst" + std::to_string(serial_++);
    out.ino = system_.fs().create(cpu, out.path);
    if (!system_.fs().fallocate(cpu, out.ino, 0, outBytes)) {
        // Transient ENOSPC (e.g. freed blocks still queued at the
        // pre-zero daemon): back off and retry at a later flush, as
        // RocksDB's compaction scheduler would.
        system_.fs().unlink(cpu, out.path);
        compactions_--;
        return;
    }
    out.va = mapKvFile(cpu, out.ino, outBytes);
    as_.memWrite(cpu, out.va, outBytes, mem::Pattern::Seq,
                 mem::WriteMode::NtStore);
    out.keys.assign(merged.begin(), merged.end());

    // Drop the inputs (unmap + unlink -> pre-zero daemon feed).
    for (std::size_t i = 0; i < width; i++) {
        Sst &sst = ssts_.front();
        const std::uint64_t bytes =
            std::max<std::uint64_t>(sst.keys.size(), 1)
            * config_.recordBytes;
        unmapFile(cpu, system_, as_, sst.va, bytes, config_.access);
        system_.fs().unlink(cpu, sst.path);
        ssts_.pop_front();
    }
    // The merged output becomes the oldest level.
    ssts_.push_front(std::move(out));
}

bool
KvStore::get(sim::Cpu &cpu, std::uint64_t key)
{
    gets_++;
    cpu.advance(kMemtableOp);
    if (memtable_.count(key) != 0)
        return true;
    // Newest-first SSTable probe.
    for (auto it = ssts_.rbegin(); it != ssts_.rend(); ++it) {
        cpu.advance(kIndexProbe);
        const auto &keys = it->keys;
        const auto pos =
            std::lower_bound(keys.begin(), keys.end(), key);
        if (pos != keys.end() && *pos == key) {
            const std::uint64_t idx = static_cast<std::uint64_t>(
                pos - keys.begin());
            as_.memRead(cpu, it->va + idx * config_.recordBytes,
                        config_.recordBytes, mem::Pattern::Rand);
            return true;
        }
    }
    return false;
}

void
KvStore::scan(sim::Cpu &cpu, std::uint64_t key, unsigned count)
{
    // Iterate `count` records across the newest table holding the
    // range (simplified merged iterator).
    cpu.advance(kMemtableOp);
    for (auto it = ssts_.rbegin(); it != ssts_.rend(); ++it) {
        cpu.advance(kIndexProbe);
        const auto &keys = it->keys;
        auto pos = std::lower_bound(keys.begin(), keys.end(), key);
        if (pos == keys.end())
            continue;
        std::uint64_t idx =
            static_cast<std::uint64_t>(pos - keys.begin());
        const std::uint64_t n =
            std::min<std::uint64_t>(count, keys.size() - idx);
        if (n == 0)
            continue;
        as_.memRead(cpu, it->va + idx * config_.recordBytes,
                    n * config_.recordBytes, mem::Pattern::Rand);
        return;
    }
}

} // namespace dax::wl
