/**
 * @file
 * TLB coherence checker: every cached translation in every per-core
 * TLB must match the live page table of its address space, with stale
 * entries tolerated only inside LATR's documented lazy window.
 *
 * Entries whose asid belongs to no live address space are skipped:
 * destroyed processes do not flush TLBs (asids are never reused), so
 * such residue is harmless by construction - the asid can never be
 * loaded into CR3 again.
 */
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "check/check.h"
#include "sys/system.h"

namespace dax::check {

namespace {

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

class TlbChecker final : public Checker
{
  public:
    const char *name() const override { return "tlb"; }

    bool
    appliesTo(sim::CheckEvent event) const override
    {
        switch (event) {
        case sim::CheckEvent::Quantum:
        case sim::CheckEvent::ShootdownDone:
        case sim::CheckEvent::LazyShootdown:
        case sim::CheckEvent::LatrDrain:
        case sim::CheckEvent::Munmap:
        case sim::CheckEvent::Recover:
            return true;
        case sim::CheckEvent::JournalCommit:
        case sim::CheckEvent::Teardown:
            return false;
        }
        return false;
    }

    void
    run(Oracle &oracle, sim::CheckEvent event) override
    {
        (void)event;
        sys::System &sys = oracle.system();
        // Index once per sweep: scanning all spaces per TLB entry is
        // quadratic on multi-process benches.
        std::map<arch::Asid, vm::AddressSpace *> spaces;
        for (vm::AddressSpace *as : sys.vmm().spaces())
            spaces[as->asid()] = as;
        const unsigned cores = sys.config().cores;
        for (unsigned c = 0; c < cores; c++) {
            const arch::Tlb &tlb =
                sys.hub().mmu(static_cast<int>(c)).tlb();
            checkArray(oracle, sys, spaces, static_cast<int>(c),
                       tlb.smallEntries());
            checkArray(oracle, sys, spaces, static_cast<int>(c),
                       tlb.hugeEntries());
        }
    }

  private:

    void
    checkArray(Oracle &oracle, sys::System &sys,
               const std::map<arch::Asid, vm::AddressSpace *> &spaces,
               int core, const std::vector<arch::TlbEntry> &entries)
    {
        for (const arch::TlbEntry &e : entries) {
            if (!e.valid)
                continue;
            const auto sit = spaces.find(e.asid);
            if (sit == spaces.end())
                continue; // dead address space: unreachable residue
            vm::AddressSpace *as = sit->second;
            // Uncached walk: never trust the walk cache this polices.
            const arch::WalkResult walk =
                as->pageTable().walkFromRoot(e.vbase);
            const std::uint64_t mask = (1ULL << e.pageShift) - 1;
            const bool matches = walk.present
                              && walk.pageShift == e.pageShift
                              && (walk.paddr & ~mask) == e.pbase;
            if (!matches) {
                if (sys.latr().pendingCovers(core, e.asid, e.vbase))
                    continue; // inside LATR's lazy window
                oracle.report(
                    "tlb", "tlb.stale-entry",
                    "core " + std::to_string(core) + " caches va="
                        + hex(e.vbase) + " -> pa=" + hex(e.pbase)
                        + " shift=" + std::to_string(e.pageShift)
                        + " asid=" + std::to_string(e.asid)
                        + " but the page table has "
                        + (walk.present
                               ? "pa=" + hex(walk.paddr) + " shift="
                                     + std::to_string(walk.pageShift)
                               : std::string("no translation")));
                continue;
            }
            // A read-only cached copy of a now-writable page is fine
            // (the write fault upgrades it); the reverse is not.
            if (e.writable && !walk.writable) {
                if (sys.latr().pendingCovers(core, e.asid, e.vbase))
                    continue;
                oracle.report(
                    "tlb", "tlb.stale-writable",
                    "core " + std::to_string(core)
                        + " caches writable va=" + hex(e.vbase)
                        + " asid=" + std::to_string(e.asid)
                        + " but the page table entry is read-only");
            }
        }
    }
};

} // namespace

std::unique_ptr<Checker>
makeTlbChecker()
{
    return std::make_unique<TlbChecker>();
}

} // namespace dax::check
