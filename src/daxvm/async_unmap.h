/**
 * @file
 * DaxVM asynchronous unmap bookkeeping (paper Section IV-C).
 *
 * munmap with MAP_UNMAP_ASYNC only records the VMA as a "zombie"; page
 * table teardown and the TLB flush are deferred until the batched
 * zombie page count crosses a threshold, at which point the request
 * that crossed it tears everything down and issues a single full
 * remote TLB flush.
 */
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/engine.h"
#include "vm/address_space.h"

namespace dax::daxvm {

class AsyncUnmapper
{
  public:
    explicit AsyncUnmapper(unsigned batchPages)
        : batchPages_(batchPages)
    {}

    /** Record @p vma (already marked zombie) for deferred teardown. */
    void
    add(vm::AddressSpace &as, const vm::Vma &vma)
    {
        auto &state = perAs_[as.asid()];
        state.vmaStarts.push_back(vma.start);
        state.pages += vma.usedPages != 0
                           ? vma.usedPages
                           : vma.length() / mem::kPageSize;
    }

    /** True when @p as crossed the batch threshold. */
    bool
    needsFlush(vm::AddressSpace &as) const
    {
        auto it = perAs_.find(as.asid());
        return it != perAs_.end() && it->second.pages >= batchPages_;
    }

    /** Take (and clear) the zombie list of @p as. */
    std::vector<std::uint64_t>
    take(vm::AddressSpace &as)
    {
        auto it = perAs_.find(as.asid());
        if (it == perAs_.end())
            return {};
        auto starts = std::move(it->second.vmaStarts);
        perAs_.erase(it);
        return starts;
    }

    /** Zombie pages currently deferred for @p as. */
    std::uint64_t
    pendingPages(vm::AddressSpace &as) const
    {
        auto it = perAs_.find(as.asid());
        return it == perAs_.end() ? 0 : it->second.pages;
    }

    unsigned batchPages() const { return batchPages_; }
    void setBatchPages(unsigned pages) { batchPages_ = pages; }

  private:
    struct State
    {
        std::vector<std::uint64_t> vmaStarts;
        std::uint64_t pages = 0;
    };

    unsigned batchPages_;
    /**
     * Keyed by ASID, which is never reused, not by the AddressSpace's
     * address, which the heap reuses: a process that exits with
     * zombies below the threshold leaves its entry behind, and no later
     * process may inherit it.
     */
    std::map<arch::Asid, State> perAs_;
};

} // namespace dax::daxvm
