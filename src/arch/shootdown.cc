/**
 * @file
 * ShootdownHub implementation.
 */
#include "arch/shootdown.h"

#include <algorithm>
#include <stdexcept>

#include "sim/trace.h"

namespace dax::arch {

ShootdownHub::ShootdownHub(const sim::CostModel &cm, unsigned nCores,
                           sim::MetricsRegistry *metrics)
    : cm_(cm), nCores_(nCores), mmus_(nCores, nullptr),
      pendingDisruption_(nCores, 0), pendingFlowIds_(nCores),
      ownedMetrics_(metrics != nullptr
                        ? nullptr
                        : std::make_unique<sim::MetricsRegistry>(nCores)),
      metrics_(metrics != nullptr ? metrics : ownedMetrics_.get())
{
    if (nCores > 64)
        throw std::invalid_argument("CoreMask supports at most 64 cores");
    sim::MetricsScope scope(*metrics_, "tlb");
    ipis_ = scope.counter("ipis");
    ipiTargets_ = scope.counter("ipi_targets");
    invlpg_ = scope.counter("invlpg");
    fullFlushes_ = scope.counter("full_flushes");
    disruptionNs_ = scope.counter("disruption_ns");
    shootdownNs_ = scope.histogram("shootdown_ns");
}

void
ShootdownHub::registerMmu(int core, Mmu *mmu)
{
    mmus_.at(static_cast<unsigned>(core)) = mmu;
}

unsigned
ShootdownHub::remoteCount(CoreMask targets, int self) const
{
    unsigned count = 0;
    for (unsigned c = 0; c < nCores_; c++) {
        if ((targets & coreBit(static_cast<int>(c))) != 0
            && static_cast<int>(c) != self) {
            count++;
        }
    }
    return count;
}

void
ShootdownHub::disturbRemotes(sim::Cpu &cpu, CoreMask targets, int self)
{
    sim::SpanRecorder &rec = sim::Trace::get().spans();
    const bool flows = rec.enabled(sim::TraceCat::Shootdown);
    for (unsigned c = 0; c < nCores_; c++) {
        if ((targets & coreBit(static_cast<int>(c))) != 0
            && static_cast<int>(c) != self) {
            pendingDisruption_[c] += cm_.ipiRemoteDisruption;
            // One causal arrow per victim: it lands inside the
            // victim's ipi_disruption span at its next quantum start
            // (drainDisruption), attributing the stall to this
            // initiator. Ids come from the initiator's own track, so
            // they are deterministic.
            if (flows) {
                pendingFlowIds_[c].push_back(rec.flowStart(
                    sim::TraceCat::Shootdown, sim::spanTrackOf(cpu),
                    self, cpu.now(), "ipi"));
            }
        }
    }
}

void
ShootdownHub::shootdownPages(sim::Cpu &cpu, CoreMask targets, Asid asid,
                             const std::vector<std::uint64_t> &pages,
                             std::uint64_t totalPages)
{
    const int self = cpu.coreId();
    const sim::Time begin = cpu.now();
    DAX_SPAN(sim::TraceCat::Shootdown, cpu, "shootdown");
    // Escalate on the real unmap size: a truncated/coarsened page list
    // (one entry per DaxVM granule) must not dodge the full flush, or
    // the INVLPG loop below leaves the untruncated pages stale in the
    // initiator's own TLB (and every remote one).
    const std::uint64_t effective =
        std::max<std::uint64_t>(pages.size(), totalPages);
    const bool fullFlush = effective > cm_.tlbFlushThreshold;

    // Local invalidation.
    Mmu *local = mmus_.at(static_cast<unsigned>(self));
    if (fullFlush) {
        local->tlb().flushAsid(asid);
        cpu.advance(cm_.fullFlushLocal);
        fullFlushes_.addAt(self);
    } else {
        for (const auto va : pages) {
            local->tlb().invalidatePage(va, asid);
            cpu.advance(cm_.invlpg);
        }
        invlpg_.addAt(self, pages.size());
    }

    // Remote shootdown: one IPI broadcast regardless of page count
    // (Linux batches the list into a single flush request).
    const unsigned remotes = remoteCount(targets, self);
    if (remotes > 0) {
        cpu.advance(cm_.shootdownInitiator(remotes));
        ipis_.addAt(self);
        ipiTargets_.addAt(self, remotes);
        DAX_TRACE(sim::TraceCat::Shootdown, cpu,
                  "%s pages=%zu remotes=%u",
                  fullFlush ? "full-flush" : "invlpg-batch",
                  pages.size(), remotes);
        for (unsigned c = 0; c < nCores_; c++) {
            if ((targets & coreBit(static_cast<int>(c))) == 0
                || static_cast<int>(c) == self) {
                continue;
            }
            Mmu *m = mmus_[c];
            if (fullFlush) {
                m->tlb().flushAsid(asid);
            } else {
                for (const auto va : pages)
                    m->tlb().invalidatePage(va, asid);
            }
        }
        disturbRemotes(cpu, targets, self);
    }
    shootdownNs_.recordAt(self, cpu.now() - begin);
    if (checkHook_ != nullptr)
        checkHook_->onCheck(sim::CheckEvent::ShootdownDone, cpu.now());
}

void
ShootdownHub::shootdownFull(sim::Cpu &cpu, CoreMask targets, Asid asid)
{
    const int self = cpu.coreId();
    const sim::Time begin = cpu.now();
    DAX_SPAN(sim::TraceCat::Shootdown, cpu, "shootdown_full");
    mmus_.at(static_cast<unsigned>(self))->tlb().flushAsid(asid);
    cpu.advance(cm_.fullFlushLocal);
    fullFlushes_.addAt(self);

    const unsigned remotes = remoteCount(targets, self);
    if (remotes > 0) {
        cpu.advance(cm_.shootdownInitiator(remotes));
        ipis_.addAt(self);
        ipiTargets_.addAt(self, remotes);
        for (unsigned c = 0; c < nCores_; c++) {
            if ((targets & coreBit(static_cast<int>(c))) != 0
                && static_cast<int>(c) != self) {
                mmus_[c]->tlb().flushAsid(asid);
            }
        }
        disturbRemotes(cpu, targets, self);
    }
    shootdownNs_.recordAt(self, cpu.now() - begin);
    if (checkHook_ != nullptr)
        checkHook_->onCheck(sim::CheckEvent::ShootdownDone, cpu.now());
}

void
ShootdownHub::drainDisruption(sim::Cpu &cpu)
{
    auto &pending = pendingDisruption_.at(
        static_cast<unsigned>(cpu.coreId()));
    if (pending > 0) {
        DAX_SPAN(sim::TraceCat::Shootdown, cpu, "ipi_disruption");
        auto &flows =
            pendingFlowIds_[static_cast<unsigned>(cpu.coreId())];
        if (!flows.empty()) {
            sim::SpanRecorder &rec = sim::Trace::get().spans();
            if (rec.enabled(sim::TraceCat::Shootdown)) {
                // Arrows land before the advance: inside the span,
                // at its begin timestamp.
                for (const std::uint64_t id : flows)
                    rec.flowEnd(sim::TraceCat::Shootdown,
                                sim::spanTrackOf(cpu), cpu.coreId(),
                                cpu.now(), "ipi", id);
            }
            flows.clear();
        }
        cpu.advance(pending);
        disruptionNs_.addAt(cpu.coreId(),
                            static_cast<std::uint64_t>(pending));
        pending = 0;
    }
}

} // namespace dax::arch
