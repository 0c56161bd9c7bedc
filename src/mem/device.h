/**
 * @file
 * Memory device models: DRAM and PMem (Intel Optane DCPMM, AppDirect).
 *
 * A Device is both *functional* (a byte-backed physical address space,
 * so file data, page tables and zeroing are real and testable) and
 * *timed* (reads/writes charge latency and occupy shared bandwidth
 * channels, so saturation across cores emerges).
 *
 * The byte store is sparse: a 4 KB host page materializes on first
 * write (untouched bytes read zero) and a whole-page zero() frees it,
 * which keeps multi-GB simulated devices cheap.
 *
 * PMem asymmetries that the paper's results depend on are first class:
 * read bandwidth >> write bandwidth, ntstore ~2x the effective
 * bandwidth of store+clwb, and load latency ~3.5x DRAM.
 *
 * Persistence domains are *functional*, not timing-only: a Cached
 * store lands in a volatile cache-line overlay that crash() discards;
 * NtStore/CachedFlush stores (and flushRange()/drain()) move bytes to
 * the durable byte store. Reads see the overlay (caches are coherent
 * with the CPU), so only a power failure exposes the difference -
 * which is exactly what the crash-sweep harness verifies.
 */
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/flat_hash.h"
#include "sim/metrics.h"
#include "sim/resource.h"
#include "sim/time.h"

namespace dax::mem {

/** Physical address within a device. */
using Paddr = std::uint64_t;

inline constexpr std::uint64_t kPageSize = 4096;
inline constexpr std::uint64_t kHugePageSize = 2 * 1024 * 1024;
inline constexpr std::uint64_t kCacheLine = 64;

enum class Kind { Dram, Pmem };

/**
 * Raised synchronously by a data read that touches a poisoned cache
 * line: the load never returns data, it traps. Delivery (SIGBUS to the
 * faulting simulated thread, EIO from fs-mediated paths, repair under
 * a remap policy) is layered above the device.
 */
class MachineCheckException : public std::exception
{
  public:
    explicit MachineCheckException(Paddr addr) : addr_(addr) {}

    const char *what() const noexcept override
    {
        return "machine check: load from poisoned line";
    }

    /** Line-aligned physical address of the poisoned line. */
    Paddr addr() const { return addr_; }

  private:
    Paddr addr_;
};

/** Access pattern hint for the timing model. */
enum class Pattern { Seq, Rand };

/** How a write reaches the medium. */
enum class WriteMode
{
    /** Regular stores landing in the CPU cache (no persistence). */
    Cached,
    /** Non-temporal streaming stores (bypass cache, persistent). */
    NtStore,
    /** Regular stores followed by clwb+sfence (persistent). */
    CachedFlush,
};

class Device
{
  public:
    /**
     * @param kind DRAM or PMem timing personality
     * @param capacity size in bytes (must be page aligned)
     * @param cm cost model (must outlive the device)
     */
    Device(Kind kind, std::uint64_t capacity, const sim::CostModel &cm);

    Kind kind() const { return kind_; }
    std::uint64_t capacity() const { return capacity_; }

    // ------------------------------------------------------------------
    // Timed data-path operations
    // ------------------------------------------------------------------

    /**
     * Timed read of @p bytes at @p addr; @return elapsed time.
     * @param copyFactor scales the per-core copy bandwidth: 1.0 for a
     *        user copy, CostModel::kernelCopyFactor for a kernel copy,
     *        which cannot use AVX-512 (paper Section III-C)
     */
    sim::Time read(sim::Cpu &cpu, Paddr addr, std::uint64_t bytes,
                   Pattern pattern, double copyFactor = 1.0);

    /**
     * Timed write; @return elapsed time. A Rand pattern adds one load
     * latency up front to NtStore writes only.
     * @param copyFactor as for read()
     */
    sim::Time write(sim::Cpu &cpu, Paddr addr, std::uint64_t bytes,
                    WriteMode mode, Pattern pattern,
                    double copyFactor = 1.0);

    /** Background-daemon write occupying device bandwidth only. */
    sim::Time occupyWrite(sim::Time at, std::uint64_t bytes);

    /** One 64 B load latency (page walker leaf fetches etc.). */
    sim::Time loadLatency() const;

    // ------------------------------------------------------------------
    // Functional byte store
    // ------------------------------------------------------------------

    /** Copy bytes out of the device (no timing; sees cached lines). */
    void fetch(Paddr addr, void *dst, std::uint64_t bytes) const;

    /**
     * Copy bytes into the device (no timing; pair with write()).
     * @p mode decides the persistence domain: Cached stores stay in
     * the volatile line overlay until flushed; NtStore/CachedFlush
     * stores are durable when the call returns.
     */
    void store(Paddr addr, const void *src, std::uint64_t bytes,
               WriteMode mode = WriteMode::NtStore);

    /**
     * Zero a range durably (no timing; pair with write()/
     * occupyWrite()). Also invalidates cached lines in the range.
     */
    void zero(Paddr addr, std::uint64_t bytes);

    /** Read a 64-bit word (page-table entries). */
    std::uint64_t loadWord(Paddr addr) const;

    /** Write a 64-bit word (page-table entries). */
    void storeWord(Paddr addr, std::uint64_t value);

    /** True when the whole range is zero (security invariant tests). */
    bool isZero(Paddr addr, std::uint64_t bytes) const;

    // ------------------------------------------------------------------
    // Persistence domain (power-fail semantics)
    // ------------------------------------------------------------------

    /**
     * clwb+sfence the cache lines overlapping [addr, addr+bytes):
     * every dirty line intersecting the range becomes durable.
     * @return number of dirty lines written back.
     */
    std::uint64_t flushRange(Paddr addr, std::uint64_t bytes);

    /**
     * Global drain (sfence of everything outstanding): all dirty
     * lines become durable. @return lines written back.
     */
    std::uint64_t drain();

    /**
     * Power failure: discard every volatile (dirty-but-unflushed)
     * line. Durable bytes are untouched. @return lines lost.
     */
    std::uint64_t crash();

    /** Dirty-but-unflushed cache lines currently held. */
    std::uint64_t volatileLines() const { return dirtyLines_.size(); }

    /**
     * Install a fault plan observing this device's persistence
     * boundaries (nullptr to remove). Only PMem devices fire events;
     * DRAM has no persistence to lose. Word-sized durable stores
     * (page-table entries) do not fire - their persistence boundaries
     * are modeled at the file-table layer (FaultEvent::TableUpdate).
     */
    void setFaultPlan(sim::FaultPlan *plan) { plan_ = plan; }

    // ------------------------------------------------------------------
    // Media errors (poisoned lines, machine checks)
    // ------------------------------------------------------------------

    /**
     * Install a media degradation model (nullptr disables). The spec
     * is copied; lazy per-line decisions (background UEs, Weibull wear
     * budgets) are derived deterministically from its seed. While a
     * model is installed, every data read (fetch/loadWord and the
     * timed read paths) of a poisoned line throws
     * MachineCheckException. isZero() deliberately does not raise - it
     * models a device-side scrub query, not a CPU load.
     */
    void setMedia(const sim::MediaSpec *spec);

    /** Explicitly poison the line containing @p addr (tests, torn
     *  stores). */
    void poisonLine(Paddr addr);

    /** Heal every line in [addr, addr+bytes): explicit poison is
     *  dropped and lazy decisions are permanently overridden. */
    void clearPoison(Paddr addr, std::uint64_t bytes);

    /** True when any line in the range is (or lazily decides to be)
     *  poisoned. Never throws on poison. */
    bool isPoisoned(Paddr addr, std::uint64_t bytes) const;

    /** Machine checks raised by reads so far (plain counter; kept out
     *  of the metrics registry so disabled runs stay byte-identical). */
    std::uint64_t mceRaised() const { return mceRaised_; }

    // Channel statistics ------------------------------------------------
    const sim::Resource &readChannel() const { return readRes_; }
    const sim::Resource &writeChannel() const { return writeRes_; }

    /** Host pages materialized by the sparse store (footprint). */
    std::uint64_t sparsePages() const { return sparse_.size(); }

    /**
     * Publish this device's accounting under @p prefix (e.g.
     * "mem.pmem") in @p registry: persistence-event counters update on
     * the hot path, channel/occupancy gauges are sampled by a
     * registered collector at snapshot time. The device must outlive
     * any snapshot taken from @p registry.
     */
    void bindMetrics(sim::MetricsRegistry &registry,
                     const std::string &prefix);

  private:
    /** One dirty cache line; @p mask has bit i set when byte i is
     *  cached-dirty (unmasked bytes read from the durable store). */
    struct DirtyLine
    {
        std::array<std::uint8_t, kCacheLine> data;
        std::uint64_t mask = 0;
    };

    void checkRange(Paddr addr, std::uint64_t bytes) const;
    /** Sparse page for @p addr; nullptr when never written. */
    const std::uint8_t *sparsePage(Paddr addr) const;
    /** Sparse page for @p addr, materializing it. */
    std::uint8_t *sparsePageForWrite(Paddr addr);

    /**
     * Persistence boundary of a durable store or zero: fire the
     * DurableStore fault event (capturing the torn-line candidate) and
     * count the wear.
     */
    void beginDurable(Paddr addr, std::uint64_t bytes);
    /** Durable byte store write (no persistence bookkeeping). */
    void storeDurable(Paddr addr, const void *src, std::uint64_t bytes);
    /** Record a Cached store in the volatile overlay. */
    void storeVolatile(Paddr addr, const void *src, std::uint64_t bytes);
    /** Drop overlay bytes in range (nt-store/zero invalidation). */
    void invalidateVolatile(Paddr addr, std::uint64_t bytes);
    /** Overlay any dirty bytes in range onto @p dst. */
    void mergeVolatile(Paddr addr, void *dst, std::uint64_t bytes) const;
    /** Write one dirty line's masked bytes to the durable store. */
    void writeBackLine(std::uint64_t line, const DirtyLine &dl);
    void fireEvent(sim::FaultEvent ev, std::uint64_t bytes);
    /** fetch() without the poison check (isZero's scrub view). */
    void fetchRaw(Paddr addr, void *dst, std::uint64_t bytes) const;
    /** True when line index @p line is poisoned under the media model. */
    bool poisonedLine(std::uint64_t line) const;
    /** Throw MachineCheckException when the range hits poison. */
    void poisonCheck(Paddr addr, std::uint64_t bytes) const;
    /** Count durable writes per line for the wear model. */
    void noteWear(Paddr addr, std::uint64_t bytes);

    Kind kind_;
    std::uint64_t capacity_;
    const sim::CostModel &cm_;
    /** Page index -> 4 KB host page, open-addressed (hot on every
     *  functional access; flat so a probe is one cache line). */
    sim::FlatHash64<std::unique_ptr<std::uint8_t[]>> sparse_;
    /** Volatile overlay: cache-line index -> dirty line. */
    sim::FlatHash64<DirtyLine> dirtyLines_;
    /** Reused flush scratch so flushRange never allocates per call. */
    std::vector<std::pair<std::uint64_t, DirtyLine>> flushScratch_;
    sim::FaultPlan *plan_ = nullptr;
    // Media-error state. All containers are keyed by cache-line index.
    bool mediaEnabled_ = false;
    sim::MediaSpec media_;
    /** Explicitly poisoned lines (torn stores, tests, chaos). */
    sim::FlatHash64<char> poisoned_;
    /** Healed lines: override the lazy seed-derived decisions. */
    sim::FlatHash64<char> healed_;
    /** Durable-write counts (only maintained when wearScale > 0). */
    sim::FlatHash64<std::uint64_t> wear_;
    /** Line of the durable store in flight (torn-store candidate). */
    std::uint64_t tornLine_ = 0;
    bool tornPending_ = false;
    mutable std::uint64_t mceRaised_ = 0;
    sim::Resource readRes_;
    sim::Resource writeRes_;
    /** Persistence-domain instruments (unbound until bindMetrics). */
    sim::Counter flushedLines_;
    sim::Counter crashedLines_;
};

} // namespace dax::mem
