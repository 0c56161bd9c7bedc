/**
 * @file
 * The DaxVM interface: daxvm_mmap / daxvm_munmap (paper Section IV-F).
 *
 * daxvm_mmap attaches pre-populated file tables at PMD (2 MB) or PUD
 * (1 GB) granularity - an O(1)-per-granule operation independent of
 * faulting - silently rounding offset/length to the attachment span.
 * Flags:
 *   kMapEphemeral   - allocate from the ephemeral heap (reader-locked)
 *   kMapUnmapAsync  - defer and batch unmaps (zombie VMAs)
 *   kMapNoMsync     - drop all kernel dirty tracking; msync = no-op
 *
 * The facade also hosts the MMU monitor (paper Table III) that
 * migrates PMem-resident file tables to DRAM when page walks hurt.
 */
#pragma once

#include <cstdint>

#include "daxvm/async_unmap.h"
#include "daxvm/file_table.h"
#include "sim/metrics.h"
#include "vm/address_space.h"
#include "vm/manager.h"

namespace dax::daxvm {

class DaxVm
{
  public:
    DaxVm(vm::VmManager &vmm, FileTableManager &tables);
    ~DaxVm();

    /**
     * Map @p len bytes of @p ino at @p off.
     * @return user-visible address of the requested offset (0 on
     *         failure). More of the file may be silently mapped.
     */
    std::uint64_t mmap(sim::Cpu &cpu, vm::AddressSpace &as, fs::Ino ino,
                       std::uint64_t off, std::uint64_t len, bool write,
                       unsigned flags);

    /**
     * Unmap the DaxVM mapping containing @p va. With kMapUnmapAsync
     * the teardown is deferred and batched.
     */
    bool munmap(sim::Cpu &cpu, vm::AddressSpace &as, std::uint64_t va);

    /** Tear down all deferred (zombie) mappings of @p as now. */
    void flushZombies(sim::Cpu &cpu, vm::AddressSpace &as);

    /**
     * Force synchronous unmapping of every DaxVM mapping of @p ino
     * (storage reclamation race, Section IV-C). Installed as the
     * FileTableManager force-unmap callback.
     */
    void forceUnmapFile(sim::Cpu &cpu, fs::Ino ino);

    /**
     * Media-repair fixup for every DaxVM mapping of @p ino covering
     * the remapped @p fileBlock: swap stale process-private huge
     * copies for the demoted shared PTE node and shoot down TLBs
     * caching the retired block's translation. Installed as the
     * FileTableManager remap-fixup callback.
     */
    void remapFixupFile(sim::Cpu &cpu, fs::Ino ino,
                        std::uint64_t fileBlock);

    /**
     * Point every live attachment of @p ino at the node for the same
     * granule in the inode's active table (InodeTables::active()).
     * The caller guarantees that the active table translates exactly
     * as the attached one did, so no TLB is flushed. Serves
     * DRAM-mirror migration and, as the FileTableManager re-attach
     * callback, a volatile table rebuilt in PMem.
     */
    void reattachFile(sim::Cpu &cpu, fs::Ino ino);

    /**
     * MMU monitor poll (Table III): evaluates the per-process walk
     * counters and migrates @p ino's tables to DRAM when the rule
     * fires. @return true when a migration happened.
     */
    bool pollMonitor(sim::Cpu &cpu, vm::AddressSpace &as, fs::Ino ino);

    /** Batched-unmap threshold control (ablation: 33 vs 512). */
    void setAsyncBatchPages(unsigned pages)
    {
        unmapper_.setBatchPages(pages);
    }

    AsyncUnmapper &unmapper() { return unmapper_; }
    FileTableManager &tables() { return tables_; }

  private:
    /** Attachment span/level for a file of @p bytes. */
    static int levelFor(std::uint64_t bytes);

    /** Attach the rounded range of @p vma from @p table. */
    void attachRange(sim::Cpu &cpu, vm::AddressSpace &as, vm::Vma &vma,
                     FileTable &table, bool writable);

    /** Detach @p vma's attachments (no TLB flush). */
    std::uint64_t detachRange(sim::Cpu &cpu, vm::AddressSpace &as,
                              vm::Vma &vma);

    /**
     * Remove @p vma from its containers and reverse mapping; detach
     * its attachments.
     * @return 4 KB pages whose translations went away.
     */
    std::uint64_t reap(sim::Cpu &cpu, vm::AddressSpace &as, vm::Vma &vma);

    vm::VmManager &vmm_;
    FileTableManager &tables_;
    AsyncUnmapper unmapper_;
    /** Typed hot-path instruments (see sim/metrics.h). */
    struct
    {
        sim::Counter mmap;
        sim::Counter mmapEphemeral;
        sim::Counter munmapDeferred;
        sim::Counter munmapSync;
        sim::Counter zombieFlushes;
        sim::Counter zombiePagesFlushed;
        sim::Counter forcedUnmaps;
        sim::Counter monitorMigrations;
    } counters_;

    /** Monitor state: last counter snapshot per address space. */
    struct MonitorSnap
    {
        std::uint64_t tlbMisses = 0;
        sim::Time walkNs = 0;
        sim::Time execNs = 0;
    };
    /**
     * Keyed by ASID, which is never reused, not by the AddressSpace's
     * address, which the heap reuses: no process may start from a
     * dead one's snapshot.
     */
    std::map<arch::Asid, MonitorSnap> monitor_;
};

} // namespace dax::daxvm
