/**
 * @file
 * TLB and walker implementation.
 */
#include "arch/tlb.h"

namespace dax::arch {

Tlb::Tlb(unsigned smallEntries, unsigned smallWays, unsigned hugeEntries)
    : smallSets_(smallEntries / smallWays), smallWays_(smallWays),
      small_(smallEntries), huge_(hugeEntries), listed_(smallEntries)
{
}

TlbEntry *
Tlb::probeSmall(std::uint64_t va, Asid asid)
{
    const std::uint64_t vpn = va >> 12;
    const unsigned set = static_cast<unsigned>(vpn % smallSets_);
    for (unsigned w = 0; w < smallWays_; w++) {
        TlbEntry &e = small_[set * smallWays_ + w];
        if (e.valid && e.asid == asid && e.pageShift == 12
            && e.vbase == (va & ~0xfffULL)) {
            return &e;
        }
    }
    return nullptr;
}

TlbEntry *
Tlb::probeHuge(std::uint64_t va, Asid asid)
{
    if (hugeValid_ == 0)
        return nullptr;
    for (auto &e : huge_) {
        if (!e.valid || e.asid != asid)
            continue;
        const std::uint64_t mask = (1ULL << e.pageShift) - 1;
        if (e.vbase == (va & ~mask))
            return &e;
    }
    return nullptr;
}

const TlbEntry *
Tlb::lookup(std::uint64_t va, Asid asid)
{
    TlbEntry *e = probeSmall(va, asid);
    if (e == nullptr)
        e = probeHuge(va, asid);
    if (e != nullptr)
        e->lru = lruTick_++;
    return e;
}

void
Tlb::insert(std::uint64_t va, Asid asid, const WalkResult &walk)
{
    // A fill replaces any existing entry for the page: hardware TLBs
    // never hold duplicate translations (a duplicate would survive a
    // later INVLPG of its twin).
    if (TlbEntry *e = probeSmall(va, asid))
        e->valid = false;
    if (TlbEntry *e = probeHuge(va, asid)) {
        e->valid = false;
        hugeValid_--;
    }

    const std::uint64_t mask = (1ULL << walk.pageShift) - 1;
    TlbEntry entry;
    entry.valid = true;
    entry.asid = asid;
    entry.vbase = va & ~mask;
    entry.pbase = walk.paddr & ~mask;
    entry.pageShift = walk.pageShift;
    entry.writable = walk.writable;
    entry.dram = walk.dram;
    entry.lru = lruTick_++;

    if (walk.pageShift == 12) {
        const std::uint64_t vpn = va >> 12;
        const unsigned set = static_cast<unsigned>(vpn % smallSets_);
        TlbEntry *victim = &small_[set * smallWays_];
        for (unsigned w = 0; w < smallWays_; w++) {
            TlbEntry &e = small_[set * smallWays_ + w];
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.lru < victim->lru)
                victim = &e;
        }
        *victim = entry;
        const auto slot = static_cast<unsigned>(victim - small_.data());
        if (!listed_[slot]) {
            listed_[slot] = true;
            live_.push_back(slot);
        }
    } else {
        TlbEntry *victim = &huge_[0];
        for (auto &e : huge_) {
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.lru < victim->lru)
                victim = &e;
        }
        if (!victim->valid)
            hugeValid_++;
        *victim = entry;
    }
}

void
Tlb::invalidatePage(std::uint64_t va, Asid asid)
{
    if (TlbEntry *e = probeSmall(va, asid)) {
        e->valid = false;
        invalidations_++;
    }
    if (TlbEntry *e = probeHuge(va, asid)) {
        e->valid = false;
        hugeValid_--;
        invalidations_++;
    }
}

void
Tlb::flush()
{
    for (const unsigned slot : live_) {
        small_[slot].valid = false;
        listed_[slot] = false;
    }
    live_.clear();
    for (auto &e : huge_)
        e.valid = false;
    hugeValid_ = 0;
    invalidations_++;
}

void
Tlb::flushAsid(Asid asid)
{
    // Unlisted slots are invalid already, so only listed ones can
    // match; compact away every slot that is invalid afterwards.
    std::size_t kept = 0;
    for (const unsigned slot : live_) {
        TlbEntry &e = small_[slot];
        if (e.asid == asid)
            e.valid = false;
        if (e.valid)
            live_[kept++] = slot;
        else
            listed_[slot] = false;
    }
    live_.resize(kept);
    for (auto &e : huge_) {
        if (hugeValid_ == 0)
            break;
        if (e.valid && e.asid == asid) {
            e.valid = false;
            hugeValid_--;
        }
    }
    invalidations_++;
}

Mmu::Result
Mmu::translate(sim::Cpu &cpu, const PageTable &pt, std::uint64_t va,
               bool write, Asid asid, MmuPerf &perf)
{
    Result res;
    if (const TlbEntry *e = tlb_.lookup(va, asid)) {
        perf.tlbHits++;
        if (write && !e->writable) {
            res.outcome = Outcome::ProtFault;
            return res;
        }
        const std::uint64_t mask = (1ULL << e->pageShift) - 1;
        res.outcome = Outcome::Ok;
        res.paddr = e->pbase + (va & mask);
        res.dram = e->dram;
        res.pageShift = e->pageShift;
        cpu.advance(cm_.tlbLookup);
        return res;
    }

    // Miss: hardware page walk (on the host, the table's walk cache
    // may start it at the leaf table; the WalkResult is the same).
    perf.tlbMisses++;
    const WalkResult walk = pt.lookup(va);
    sim::Time cost = cm_.walkUpperLevels;
    if (walk.levelsTouched > 0 || !walk.present) {
        const std::uint64_t line = walk.leafPteAddr / mem::kCacheLine;
        if (walk.present && line == lastLeafLine_) {
            // Leaf PTE line still cached from the neighbouring walk.
        } else if (walk.present) {
            cost += walk.leafInDram ? cm_.walkLeafDram : cm_.walkLeafPmem;
            lastLeafLine_ = line;
        } else {
            // Walk aborted early; charge a DRAM-ish partial walk.
            cost += cm_.walkLeafDram;
        }
    }
    cpu.advance(cost);
    perf.walkNs += cost;

    if (!walk.present) {
        res.outcome = Outcome::NotPresent;
        return res;
    }
    if (write && !walk.writable) {
        res.outcome = Outcome::ProtFault;
        return res;
    }
    tlb_.insert(va, asid, walk);
    res.outcome = Outcome::Ok;
    res.paddr = walk.paddr;
    res.dram = walk.dram;
    res.pageShift = static_cast<unsigned>(walk.pageShift);
    return res;
}

} // namespace dax::arch
