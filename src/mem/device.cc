/**
 * @file
 * Device implementation.
 */
#include "mem/device.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace dax::mem {

namespace {

const char *
kindName(Kind k)
{
    return k == Kind::Dram ? "dram" : "pmem";
}

/** splitmix64 finalizer: the per-line decision hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Deterministic uniform in [0, 1) for (seed, line, stream). */
double
hashU01(std::uint64_t seed, std::uint64_t line, std::uint64_t stream)
{
    const std::uint64_t h = mix64(seed ^ mix64(line + stream));
    return static_cast<double>(h >> 11)
         * (1.0 / 9007199254740992.0); // 2^-53
}

} // namespace

Device::Device(Kind kind, std::uint64_t capacity, const sim::CostModel &cm)
    : kind_(kind), capacity_(capacity), cm_(cm),
      readRes_(std::string(kindName(kind)) + ".read",
               kind == Kind::Dram ? cm.dramDeviceBw : cm.pmemDeviceReadBw),
      writeRes_(std::string(kindName(kind)) + ".write",
                kind == Kind::Dram ? cm.dramDeviceBw
                                   : cm.pmemDeviceWriteBw)
{
    if (capacity % kPageSize != 0)
        throw std::invalid_argument("device capacity not page aligned");
    // Pre-size the hot overlays from capacity. The bounds are small on
    // purpose: the tables only ever grow (amortized, and never in a
    // flushRange inner loop - the scratch vector below decouples the
    // write-back from the table), so a compact initial footprint keeps
    // the common few-hundred-line working set cache-resident instead of
    // scattering it across a capacity-sized table.
    sparse_.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(capacity_ / kPageSize, 1ULL << 10)));
    dirtyLines_.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(capacity_ / kCacheLine, 1ULL << 9)));
}

const std::uint8_t *
Device::sparsePage(Paddr addr) const
{
    const auto *slot = sparse_.find(addr / kPageSize);
    return slot == nullptr ? nullptr : slot->get();
}

std::uint8_t *
Device::sparsePageForWrite(Paddr addr)
{
    auto &slot = sparse_[addr / kPageSize];
    if (!slot) {
        slot = std::make_unique<std::uint8_t[]>(kPageSize);
        std::memset(slot.get(), 0, kPageSize);
    }
    return slot.get();
}

void
Device::checkRange(Paddr addr, std::uint64_t bytes) const
{
    if (addr > capacity_ || bytes > capacity_ - addr)
        throw std::out_of_range("device access out of range");
}

sim::Time
Device::read(sim::Cpu &cpu, Paddr addr, std::uint64_t bytes, Pattern pattern,
             double copyFactor)
{
    checkRange(addr, bytes);
    poisonCheck(addr, bytes);
    const sim::Bw bw = (kind_ == Kind::Dram ? cm_.dramReadBwCore
                                            : cm_.pmemReadBwCore)
                     * copyFactor;
    sim::Time elapsed = 0;
    if (pattern == Pattern::Rand) {
        // Latency-dominated: one uncached line fetch up front, the rest
        // streams behind it.
        elapsed += loadLatency();
        cpu.advance(loadLatency());
    }
    elapsed += readRes_.transfer(cpu, bytes, bw);
    return elapsed;
}

sim::Time
Device::write(sim::Cpu &cpu, Paddr addr, std::uint64_t bytes, WriteMode mode,
              Pattern pattern, double copyFactor)
{
    checkRange(addr, bytes);
    sim::Time elapsed = 0;
    switch (mode) {
      case WriteMode::Cached: {
        // Stores land in the cache; the medium sees traffic only on
        // eviction, which we fold into a generous cache bandwidth.
        const sim::Time dur =
            sim::CostModel::xfer(bytes, cm_.dramWriteBwCore * copyFactor);
        cpu.advance(dur);
        elapsed = dur;
        break;
      }
      case WriteMode::NtStore: {
        const sim::Bw bw = (kind_ == Kind::Dram ? cm_.dramWriteBwCore
                                                : cm_.pmemNtStoreBwCore)
                         * copyFactor;
        if (pattern == Pattern::Rand) {
            elapsed += loadLatency();
            cpu.advance(loadLatency());
        }
        elapsed += writeRes_.transfer(cpu, bytes, bw);
        break;
      }
      case WriteMode::CachedFlush: {
        const sim::Bw bw = (kind_ == Kind::Dram ? cm_.dramWriteBwCore
                                                : cm_.pmemClwbBwCore)
                         * copyFactor;
        elapsed += writeRes_.transfer(cpu, bytes, bw);
        break;
      }
    }
    return elapsed;
}

sim::Time
Device::occupyWrite(sim::Time at, std::uint64_t bytes)
{
    return writeRes_.occupy(at, bytes);
}

sim::Time
Device::loadLatency() const
{
    return kind_ == Kind::Dram ? cm_.dramLoadLat : cm_.pmemLoadLat;
}

void
Device::fireEvent(sim::FaultEvent ev, std::uint64_t bytes)
{
    // Only PMem persistence boundaries are interesting, and word-sized
    // durable stores (atomic PTE updates) are covered at the
    // file-table layer instead - see setFaultPlan().
    if (plan_ == nullptr || kind_ != Kind::Pmem || bytes < kCacheLine)
        return;
    plan_->onEvent(ev, /*now=*/0);
}

void
Device::setMedia(const sim::MediaSpec *spec)
{
    if (spec == nullptr) {
        mediaEnabled_ = false;
        media_ = sim::MediaSpec{};
        poisoned_.clear();
        healed_.clear();
        wear_.clear();
        tornPending_ = false;
        return;
    }
    media_ = *spec;
    mediaEnabled_ = true;
}

void
Device::poisonLine(Paddr addr)
{
    checkRange(addr, 1);
    const std::uint64_t line = addr / kCacheLine;
    poisoned_[line] = 1;
    healed_.erase(line);
    // Explicit poison must be observable even without a full media
    // model installed (unit tests, torn-store capture).
    mediaEnabled_ = true;
}

void
Device::clearPoison(Paddr addr, std::uint64_t bytes)
{
    checkRange(addr, bytes);
    if (!mediaEnabled_ || bytes == 0)
        return;
    const std::uint64_t first = addr / kCacheLine;
    const std::uint64_t last = (addr + bytes - 1) / kCacheLine;
    for (std::uint64_t l = first; l <= last; l++) {
        poisoned_.erase(l);
        healed_[l] = 1;
        wear_.erase(l);
    }
}

bool
Device::poisonedLine(std::uint64_t line) const
{
    if (poisoned_.contains(line))
        return true;
    if (healed_.contains(line))
        return false;
    const Paddr addr = line * kCacheLine;
    if (addr < media_.base || addr >= media_.limit)
        return false;
    if (media_.backgroundRate > 0
        && hashU01(media_.seed, line, /*stream=*/0x0b5e)
               < media_.backgroundRate)
        return true;
    if (media_.wearScale > 0) {
        if (const std::uint64_t *count = wear_.find(line)) {
            // Inverse-CDF Weibull draw: this line's durable-write
            // budget, fixed for the run by the seed.
            const double u =
                hashU01(media_.seed, line, /*stream=*/0x3ea7);
            const double budget =
                media_.wearScale
                * std::pow(-std::log1p(-u), 1.0 / media_.wearShape);
            if (static_cast<double>(*count) >= budget)
                return true;
        }
    }
    return false;
}

bool
Device::isPoisoned(Paddr addr, std::uint64_t bytes) const
{
    checkRange(addr, bytes);
    if (!mediaEnabled_ || bytes == 0)
        return false;
    const std::uint64_t first = addr / kCacheLine;
    const std::uint64_t last = (addr + bytes - 1) / kCacheLine;
    for (std::uint64_t l = first; l <= last; l++) {
        if (poisonedLine(l))
            return true;
    }
    return false;
}

void
Device::poisonCheck(Paddr addr, std::uint64_t bytes) const
{
    if (!mediaEnabled_ || bytes == 0)
        return;
    const std::uint64_t first = addr / kCacheLine;
    const std::uint64_t last = (addr + bytes - 1) / kCacheLine;
    for (std::uint64_t l = first; l <= last; l++) {
        if (poisonedLine(l)) {
            mceRaised_++;
            throw MachineCheckException(l * kCacheLine);
        }
    }
}

void
Device::noteWear(Paddr addr, std::uint64_t bytes)
{
    if (!mediaEnabled_ || media_.wearScale <= 0 || bytes == 0)
        return;
    const std::uint64_t first = addr / kCacheLine;
    const std::uint64_t last = (addr + bytes - 1) / kCacheLine;
    for (std::uint64_t l = first; l <= last; l++)
        wear_[l]++;
}

void
Device::fetch(Paddr addr, void *dst, std::uint64_t bytes) const
{
    checkRange(addr, bytes);
    poisonCheck(addr, bytes);
    fetchRaw(addr, dst, bytes);
}

void
Device::fetchRaw(Paddr addr, void *dst, std::uint64_t bytes) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    std::uint64_t done = 0;
    while (done < bytes) {
        const Paddr a = addr + done;
        const std::uint64_t inPage = a % kPageSize;
        const std::uint64_t chunk =
            std::min(bytes - done, kPageSize - inPage);
        if (const std::uint8_t *page = sparsePage(a))
            std::memcpy(out + done, page + inPage, chunk);
        else
            std::memset(out + done, 0, chunk);
        done += chunk;
    }
    // CPU loads are coherent with the cache: overlay dirty lines.
    if (!dirtyLines_.empty())
        mergeVolatile(addr, dst, bytes);
}

void
Device::storeDurable(Paddr addr, const void *src, std::uint64_t bytes)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    std::uint64_t done = 0;
    while (done < bytes) {
        const Paddr a = addr + done;
        const std::uint64_t inPage = a % kPageSize;
        const std::uint64_t chunk =
            std::min(bytes - done, kPageSize - inPage);
        std::memcpy(sparsePageForWrite(a) + inPage, in + done, chunk);
        done += chunk;
    }
}

void
Device::storeVolatile(Paddr addr, const void *src, std::uint64_t bytes)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    std::uint64_t done = 0;
    while (done < bytes) {
        const Paddr a = addr + done;
        const std::uint64_t inLine = a % kCacheLine;
        const std::uint64_t chunk =
            std::min(bytes - done, kCacheLine - inLine);
        DirtyLine &dl = dirtyLines_[a / kCacheLine];
        std::memcpy(dl.data.data() + inLine, in + done, chunk);
        for (std::uint64_t i = 0; i < chunk; i++)
            dl.mask |= 1ULL << (inLine + i);
        done += chunk;
    }
}

void
Device::invalidateVolatile(Paddr addr, std::uint64_t bytes)
{
    if (dirtyLines_.empty())
        return;
    std::uint64_t done = 0;
    while (done < bytes) {
        const Paddr a = addr + done;
        const std::uint64_t inLine = a % kCacheLine;
        const std::uint64_t chunk =
            std::min(bytes - done, kCacheLine - inLine);
        if (DirtyLine *dl = dirtyLines_.find(a / kCacheLine)) {
            for (std::uint64_t i = 0; i < chunk; i++)
                dl->mask &= ~(1ULL << (inLine + i));
            if (dl->mask == 0)
                dirtyLines_.erase(a / kCacheLine);
        }
        done += chunk;
    }
}

void
Device::mergeVolatile(Paddr addr, void *dst, std::uint64_t bytes) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    std::uint64_t done = 0;
    while (done < bytes) {
        const Paddr a = addr + done;
        const std::uint64_t inLine = a % kCacheLine;
        const std::uint64_t chunk =
            std::min(bytes - done, kCacheLine - inLine);
        if (const DirtyLine *dl = dirtyLines_.find(a / kCacheLine)) {
            for (std::uint64_t i = 0; i < chunk; i++) {
                if (dl->mask & (1ULL << (inLine + i)))
                    out[done + i] = dl->data[inLine + i];
            }
        }
        done += chunk;
    }
}

void
Device::beginDurable(Paddr addr, std::uint64_t bytes)
{
    // A crash fired from this boundary interrupts the store mid-line:
    // remember the line so crash() can poison the torn ECC word.
    // Completing the store (or any later durable store) clears the
    // candidate.
    if (mediaEnabled_ && media_.poisonTornStore && kind_ == Kind::Pmem) {
        tornLine_ = addr / kCacheLine;
        tornPending_ = true;
        fireEvent(sim::FaultEvent::DurableStore, bytes);
        tornPending_ = false;
    } else {
        fireEvent(sim::FaultEvent::DurableStore, bytes);
    }
    noteWear(addr, bytes);
}

void
Device::store(Paddr addr, const void *src, std::uint64_t bytes,
              WriteMode mode)
{
    checkRange(addr, bytes);
    // Only PMem has persistence semantics worth modeling: DRAM content
    // is volatile regardless, so its cached stores land directly.
    if (mode == WriteMode::Cached && kind_ == Kind::Pmem) {
        storeVolatile(addr, src, bytes);
        return;
    }
    beginDurable(addr, bytes);
    storeDurable(addr, src, bytes);
    // ntstore invalidates the cached lines; clwb writes them back -
    // either way the covered bytes stop being volatile.
    invalidateVolatile(addr, bytes);
}

void
Device::zero(Paddr addr, std::uint64_t bytes)
{
    checkRange(addr, bytes);
    beginDurable(addr, bytes);
    std::uint64_t done = 0;
    while (done < bytes) {
        const Paddr a = addr + done;
        const std::uint64_t inPage = a % kPageSize;
        const std::uint64_t chunk =
            std::min(bytes - done, kPageSize - inPage);
        if (inPage == 0 && chunk == kPageSize) {
            sparse_.erase(a / kPageSize); // whole page back to zero
        } else if (sparsePage(a) != nullptr) {
            std::memset(sparsePageForWrite(a) + inPage, 0, chunk);
        }
        done += chunk;
    }
    invalidateVolatile(addr, bytes);
}

void
Device::writeBackLine(std::uint64_t line, const DirtyLine &dl)
{
    // Write maximal runs of dirty bytes in one durable store each: a
    // fully dirty line (the common case) is a single 64 B copy instead
    // of 64 per-byte page-table probes. Lines are line-aligned, so a
    // run never crosses a sparse-page boundary.
    const Paddr base = line * kCacheLine;
    noteWear(base, kCacheLine);
    std::uint64_t i = 0;
    while (i < kCacheLine) {
        if ((dl.mask & (1ULL << i)) == 0) {
            i++;
            continue;
        }
        std::uint64_t end = i + 1;
        while (end < kCacheLine && (dl.mask & (1ULL << end)) != 0)
            end++;
        storeDurable(base + i, &dl.data[i], end - i);
        i = end;
    }
}

std::uint64_t
Device::flushRange(Paddr addr, std::uint64_t bytes)
{
    checkRange(addr, bytes);
    if (dirtyLines_.empty() || bytes == 0)
        return 0;
    const std::uint64_t firstLine = addr / kCacheLine;
    const std::uint64_t lastLine = (addr + bytes - 1) / kCacheLine;
    // Collect first so the fault point fires before any write-back:
    // a crash at this flush loses the whole range. Copying the lines
    // out here also makes this the only probe of the table per line
    // (the erase below is the second and last).
    flushScratch_.clear();
    if (lastLine - firstLine + 1 < dirtyLines_.size()) {
        for (std::uint64_t l = firstLine; l <= lastLine; l++) {
            if (const DirtyLine *dl = dirtyLines_.find(l))
                flushScratch_.emplace_back(l, *dl);
        }
    } else {
        dirtyLines_.forEach([&](std::uint64_t l, const DirtyLine &dl) {
            if (l >= firstLine && l <= lastLine)
                flushScratch_.emplace_back(l, dl);
        });
    }
    if (flushScratch_.empty())
        return 0;
    fireEvent(sim::FaultEvent::Flush, kCacheLine * flushScratch_.size());
    for (const auto &[l, dl] : flushScratch_) {
        writeBackLine(l, dl);
        dirtyLines_.erase(l);
    }
    flushedLines_.add(flushScratch_.size());
    return flushScratch_.size();
}

std::uint64_t
Device::drain()
{
    if (dirtyLines_.empty())
        return 0;
    fireEvent(sim::FaultEvent::Drain,
              kCacheLine * dirtyLines_.size());
    const std::uint64_t n = dirtyLines_.size();
    // writeBackLine only touches the sparse page store, so iterating
    // the dirty table while writing back is safe; slot-index order
    // keeps the sweep deterministic.
    dirtyLines_.forEach([this](std::uint64_t line, const DirtyLine &dl) {
        writeBackLine(line, dl);
    });
    dirtyLines_.clear();
    flushedLines_.add(n);
    return n;
}

std::uint64_t
Device::crash()
{
    const std::uint64_t lost = dirtyLines_.size();
    dirtyLines_.clear();
    crashedLines_.add(lost);
    // The power cut interrupted a durable store mid-line: its ECC word
    // never completed, so the line reads back poisoned.
    if (tornPending_) {
        tornPending_ = false;
        if (mediaEnabled_ && media_.poisonTornStore) {
            poisoned_[tornLine_] = 1;
            healed_.erase(tornLine_);
        }
    }
    return lost;
}

std::uint64_t
Device::loadWord(Paddr addr) const
{
    std::uint64_t v = 0;
    fetch(addr, &v, sizeof(v));
    return v;
}

void
Device::storeWord(Paddr addr, std::uint64_t value)
{
    store(addr, &value, sizeof(value));
}

bool
Device::isZero(Paddr addr, std::uint64_t bytes) const
{
    checkRange(addr, bytes);
    if (!dirtyLines_.empty() && bytes > 0) {
        // Cached dirty bytes shadow the durable store; when any line
        // overlaps the range, scan through the merged view.
        const std::uint64_t firstLine = addr / kCacheLine;
        const std::uint64_t lastLine = (addr + bytes - 1) / kCacheLine;
        for (std::uint64_t l = firstLine; l <= lastLine; l++) {
            if (!dirtyLines_.contains(l))
                continue;
            std::array<std::uint8_t, kPageSize> buf;
            std::uint64_t done = 0;
            while (done < bytes) {
                const std::uint64_t chunk =
                    std::min<std::uint64_t>(bytes - done, buf.size());
                fetchRaw(addr + done, buf.data(), chunk);
                for (std::uint64_t i = 0; i < chunk; i++) {
                    if (buf[i] != 0)
                        return false;
                }
                done += chunk;
            }
            return true;
        }
    }
    std::uint64_t done = 0;
    while (done < bytes) {
        const Paddr a = addr + done;
        const std::uint64_t inPage = a % kPageSize;
        const std::uint64_t chunk =
            std::min(bytes - done, kPageSize - inPage);
        if (const std::uint8_t *page = sparsePage(a)) {
            for (std::uint64_t i = 0; i < chunk; i++) {
                if (page[inPage + i] != 0)
                    return false;
            }
        }
        done += chunk;
    }
    return true;
}

void
Device::bindMetrics(sim::MetricsRegistry &registry,
                    const std::string &prefix)
{
    sim::MetricsScope scope(registry, prefix);
    flushedLines_ = scope.counter("flushed_lines");
    crashedLines_ = scope.counter("crashed_lines");
    // Channel/footprint state is tracked by the Resource servers and
    // the byte store; sample it at snapshot time instead of mirroring
    // every transfer into a second set of counters.
    auto readBytes = scope.gauge("read_bytes");
    auto readTransfers = scope.gauge("read_transfers");
    auto writeBytes = scope.gauge("write_bytes");
    auto writeTransfers = scope.gauge("write_transfers");
    auto volatileLines = scope.gauge("volatile_lines");
    auto sparsePages = scope.gauge("sparse_pages");
    registry.addCollector([this, readBytes, readTransfers, writeBytes,
                           writeTransfers, volatileLines,
                           sparsePages]() mutable {
        readBytes.set(static_cast<double>(readRes_.bytesTransferred()));
        readTransfers.set(static_cast<double>(readRes_.transfers()));
        writeBytes.set(static_cast<double>(writeRes_.bytesTransferred()));
        writeTransfers.set(static_cast<double>(writeRes_.transfers()));
        volatileLines.set(static_cast<double>(this->volatileLines()));
        sparsePages.set(static_cast<double>(this->sparsePages()));
    });
}

} // namespace dax::mem
