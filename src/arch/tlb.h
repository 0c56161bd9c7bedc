/**
 * @file
 * Per-core TLB and page-walker timing model.
 *
 * The TLB is split per page size like Cascade Lake: a set-associative
 * 4 KB array and a small fully-associative array for 2 MB/1 GB entries.
 * The walker charges upper-level paging-structure-cache time plus a
 * leaf PTE fetch whose cost depends on where the leaf table lives
 * (DRAM vs PMem) and whether the PTE's cache line was just fetched by a
 * neighbouring walk (8 PTEs share a 64 B line, so sequential access
 * misses the line only once in eight walks). Calibrated to paper
 * Table II.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "arch/page_table.h"
#include "arch/perf.h"
#include "sim/cost_model.h"
#include "sim/engine.h"

namespace dax::arch {

/** Address-space id (one per simulated process). */
using Asid = std::uint32_t;

struct TlbEntry
{
    bool valid = false;
    Asid asid = 0;
    std::uint64_t vbase = 0;   // virtual base of the page
    std::uint64_t pbase = 0;   // physical base (device-tagged via dram)
    unsigned pageShift = 12;
    bool writable = false;
    bool dram = false;
    std::uint64_t lru = 0;

    bool operator==(const TlbEntry &) const = default;
};

class Tlb
{
  public:
    /** Cascade Lake-like geometry: 1536-entry 4-way 4K, 32-entry huge. */
    Tlb(unsigned smallEntries = 1536, unsigned smallWays = 4,
        unsigned hugeEntries = 32);

    /** Probe for @p va in @p asid; nullptr on miss. */
    const TlbEntry *lookup(std::uint64_t va, Asid asid);

    /** Fill from a completed walk. */
    void insert(std::uint64_t va, Asid asid, const WalkResult &walk);

    /** INVLPG: drop any entry covering @p va for @p asid. */
    void invalidatePage(std::uint64_t va, Asid asid);

    /** Full flush (optionally only one address space). */
    void flush();
    void flushAsid(Asid asid);

    std::uint64_t invalidations() const { return invalidations_; }

    /**
     * Raw entry arrays for invariant checkers. Unlike lookup() these
     * never touch LRU state, so scanning them cannot perturb the
     * simulated replacement behaviour.
     */
    const std::vector<TlbEntry> &smallEntries() const { return small_; }
    const std::vector<TlbEntry> &hugeEntries() const { return huge_; }

    /**
     * Indices into smallEntries() that may hold a valid entry, each at
     * most once; every valid small entry is listed. For tests.
     */
    const std::vector<unsigned> &liveSmallSlots() const { return live_; }

  private:
    TlbEntry *probeSmall(std::uint64_t va, Asid asid);
    TlbEntry *probeHuge(std::uint64_t va, Asid asid);

    unsigned smallSets_;
    unsigned smallWays_;
    std::vector<TlbEntry> small_; // sets x ways
    std::vector<TlbEntry> huge_;  // fully associative
    /**
     * Small slots that may be valid (live_) and whether each slot is
     * listed (listed_), so flushes visit live entries instead of the
     * whole array. Host-side only: kept out of TlbEntry so the raw
     * arrays stay exactly what the model computes.
     */
    std::vector<unsigned> live_;
    std::vector<bool> listed_;
    /**
     * Valid entries in huge_, so probes skip the scan when there are
     * none (most INVLPGs on 4 KB workloads). Host-side only.
     */
    unsigned hugeValid_ = 0;
    std::uint64_t lruTick_ = 1;
    std::uint64_t invalidations_ = 0;
};

/**
 * Per-core MMU: TLB + walker timing. Translation is functional (via
 * PageTable::lookup) and charges walk time to the calling Cpu and the
 * supplied per-process perf counters.
 */
class Mmu
{
  public:
    explicit Mmu(const sim::CostModel &cm) : cm_(cm) {}

    enum class Outcome
    {
        Ok,          ///< translation found, permissions satisfied
        NotPresent,  ///< no mapping: page fault
        ProtFault,   ///< present but write to read-only: permission fault
    };

    struct Result
    {
        Outcome outcome = Outcome::NotPresent;
        std::uint64_t paddr = 0;
        bool dram = false;
        unsigned pageShift = 12;
    };

    /**
     * Translate @p va for @p write access, charging TLB-miss/walk costs
     * to @p cpu and @p perf.
     */
    Result translate(sim::Cpu &cpu, const PageTable &pt, std::uint64_t va,
                     bool write, Asid asid, MmuPerf &perf);

    Tlb &tlb() { return tlb_; }

  private:
    const sim::CostModel &cm_;
    Tlb tlb_;
    std::uint64_t lastLeafLine_ = ~0ULL;
};

} // namespace dax::arch
