/**
 * @file
 * DaxVm facade implementation.
 */
#include "daxvm/api.h"

#include <algorithm>

#include "arch/pte.h"
#include "daxvm/ephemeral.h"
#include "sim/trace.h"

namespace dax::daxvm {

namespace {

void
forceUnmapTrampoline(void *ctx, sim::Cpu &cpu, fs::Ino ino)
{
    static_cast<DaxVm *>(ctx)->forceUnmapFile(cpu, ino);
}

void
remapFixupTrampoline(void *ctx, sim::Cpu &cpu, fs::Ino ino,
                     std::uint64_t fileBlock)
{
    static_cast<DaxVm *>(ctx)->remapFixupFile(cpu, ino, fileBlock);
}

} // namespace

DaxVm::DaxVm(vm::VmManager &vmm, FileTableManager &tables)
    : vmm_(vmm), tables_(tables),
      unmapper_(vmm.cm().asyncUnmapBatchPages)
{
    tables_.setForceUnmap(&forceUnmapTrampoline, this);
    tables_.setRemapFixup(&remapFixupTrampoline, this);
    sim::MetricsScope scope(vmm_.metricsRegistry(), "daxvm");
    counters_.mmap = scope.counter("mmap");
    counters_.mmapEphemeral = scope.counter("mmap_ephemeral");
    counters_.munmapDeferred = scope.counter("munmap_deferred");
    counters_.munmapSync = scope.counter("munmap_sync");
    counters_.zombieFlushes = scope.counter("zombie_flushes");
    counters_.zombiePagesFlushed = scope.counter("zombie_pages_flushed");
    counters_.forcedUnmaps = scope.counter("forced_unmaps");
    counters_.monitorMigrations = scope.counter("monitor_migrations");
}

DaxVm::~DaxVm()
{
    tables_.setForceUnmap(nullptr, nullptr);
    tables_.setRemapFixup(nullptr, nullptr);
}

int
DaxVm::levelFor(std::uint64_t bytes)
{
    return bytes > (1ULL << 30) ? arch::kPudLevel : arch::kPmdLevel;
}

void
DaxVm::attachRange(sim::Cpu &cpu, vm::AddressSpace &as, vm::Vma &vma,
                   FileTable &table, bool writable)
{
    DAX_SPAN(sim::TraceCat::Daxvm, cpu, "attach");
    const sim::CostModel &cm = vmm_.cm();
    const std::uint64_t span = arch::levelSpan(vma.attachLevel);
    arch::PageTable &pt = as.pageTable();

    for (std::uint64_t va = vma.start; va < vma.end; va += span) {
        const std::uint64_t fileOff = vma.fileOffsetOf(va);
        unsigned newPages = 0;
        if (vma.attachLevel == arch::kPudLevel) {
            arch::Node *pmd = table.pmdNode(fileOff >> 30);
            if (pmd == nullptr)
                continue; // nothing allocated in this 1 GB chunk
            newPages = pt.attach(va, arch::kPudLevel, pmd, writable);
        } else {
            const std::uint64_t chunk =
                fileOff / mem::kHugePageSize;
            if (arch::Node *pte = table.pteNode(chunk)) {
                newPages =
                    pt.attach(va, arch::kPmdLevel, pte, writable);
            } else if (const arch::Pte huge = table.hugeEntry(chunk)) {
                // 2 MB-contiguous chunk: install the huge entry in the
                // process's private PMD (still one slot write).
                arch::Pte flags = 0;
                if (writable)
                    flags |= arch::pte::kWrite;
                newPages = pt.map(va, arch::pte::addr(huge),
                                  arch::kPmdLevel, flags);
            } else {
                continue; // hole
            }
        }
        cpu.advance(cm.tableAttach + cm.ptPageAlloc * newPages);
    }
}

std::uint64_t
DaxVm::detachRange(sim::Cpu &cpu, vm::AddressSpace &as, vm::Vma &vma)
{
    DAX_SPAN(sim::TraceCat::Daxvm, cpu, "detach");
    const sim::CostModel &cm = vmm_.cm();
    const std::uint64_t span = arch::levelSpan(vma.attachLevel);
    arch::PageTable &pt = as.pageTable();
    std::uint64_t pages = 0;

    for (std::uint64_t va = vma.start; va < vma.end; va += span) {
        if (pt.detach(va, vma.attachLevel) != nullptr) {
            cpu.advance(cm.pteClear);
            pages += span / mem::kPageSize;
        } else if (pt.clear(va, vma.attachLevel) != 0) {
            // Huge entry installed directly in the private tree.
            cpu.advance(cm.pteClear);
            pages += span / mem::kPageSize;
        }
    }
    return pages;
}

std::uint64_t
DaxVm::mmap(sim::Cpu &cpu, vm::AddressSpace &as, fs::Ino ino,
            std::uint64_t off, std::uint64_t len, bool write,
            unsigned flags)
{
    DAX_SPAN(sim::TraceCat::Daxvm, cpu, "daxvm_mmap");
    const sim::CostModel &cm = vmm_.cm();
    cpu.advance(cm.syscall);
    as.noteCore(cpu.coreId());
    if (len == 0 || !vmm_.fs().exists(ino))
        return 0;

    fs::Inode &node = vmm_.fs().inode(ino);
    const std::uint64_t allocBytes =
        node.allocatedBlocks() * fs::kBlockSize;
    if (allocBytes == 0 || off >= allocBytes)
        return 0;

    const int level = levelFor(allocBytes);
    const std::uint64_t span = arch::levelSpan(level);
    const std::uint64_t roundOff = off / span * span;
    std::uint64_t roundEnd =
        (std::min(off + len, allocBytes) + span - 1) / span * span;
    const std::uint64_t capEnd =
        (allocBytes + span - 1) / span * span;
    roundEnd = std::min(roundEnd, capEnd);
    const std::uint64_t mapLen = roundEnd - roundOff;

    InodeTables &it = tables_.tables(&cpu, ino);
    FileTable *table = it.active();

    // Dirty tracking lives at the attachment level: tracked mappings
    // start write-protected; nosync mappings get full rights upfront.
    const bool tracked = write && (flags & vm::kMapNoMsync) == 0;
    const bool attachWritable = write && !tracked;

    vm::Vma proto;
    proto.ino = ino;
    proto.fileOff = roundOff;
    proto.usedPages =
        (std::min(off + len, allocBytes) - roundOff + mem::kPageSize - 1)
        / mem::kPageSize;
    proto.writable = write;
    proto.flags = flags;
    proto.daxvm = true;
    proto.attachLevel = level;

    vm::Vma *vma = nullptr;
    if ((flags & vm::kMapEphemeral) != 0) {
        sim::ScopedReadLock guard(as.mmapSem(), cpu);
        const std::uint64_t va =
            EphemeralAllocator::alloc(cpu, as, mapLen, span, cm);
        proto.start = va;
        proto.end = va + mapLen;
        vma = &EphemeralAllocator::insert(cpu, as, proto, cm);
        attachRange(cpu, as, *vma, *table, attachWritable);
        counters_.mmapEphemeral.addAt(cpu.coreId());
    } else {
        sim::ScopedWriteLock guard(as.mmapSem(), cpu);
        cpu.advance(cm.vmaAlloc);
        const std::uint64_t va = as.allocVaBump(mapLen, span);
        proto.start = va;
        proto.end = va + mapLen;
        vma = &as.insertVma(proto);
        attachRange(cpu, as, *vma, *table, attachWritable);
        counters_.mmap.addAt(cpu.coreId());
    }
    vmm_.registerMapping(ino, &as, vma->start);
    DAX_TRACE(sim::TraceCat::Daxvm, cpu,
              "daxvm_mmap ino=%llu level=%d granules=%llu va=0x%llx%s",
              (unsigned long long)ino, level,
              (unsigned long long)(mapLen / span),
              (unsigned long long)vma->start,
              (flags & vm::kMapEphemeral) != 0 ? " (ephemeral)" : "");
    return vma->start + (off - roundOff);
}

std::uint64_t
DaxVm::reap(sim::Cpu &cpu, vm::AddressSpace &as, vm::Vma &vma)
{
    const sim::CostModel &cm = vmm_.cm();
    const std::uint64_t start = vma.start;
    const fs::Ino ino = vma.ino;
    const bool ephemeral = vma.ephemeral;

    std::uint64_t pages = detachRange(cpu, as, vma);
    if (ephemeral) {
        EphemeralAllocator::remove(cpu, as, start, cm);
    } else {
        cpu.advance(cm.vmaFree);
        as.eraseVma(start);
    }
    vmm_.unregisterMapping(ino, &as, start);
    return pages;
}

bool
DaxVm::munmap(sim::Cpu &cpu, vm::AddressSpace &as, std::uint64_t va)
{
    DAX_SPAN(sim::TraceCat::Daxvm, cpu, "daxvm_munmap");
    const sim::CostModel &cm = vmm_.cm();
    cpu.advance(cm.syscall);
    vm::Vma *vma = as.findVma(va);
    if (vma == nullptr || !vma->daxvm || vma->zombie)
        return false;

    if ((vma->flags & vm::kMapUnmapAsync) != 0) {
        // Defer: record the zombie; teardown happens in batch.
        vma->zombie = true;
        cpu.advance(cm.ephemeralListOp);
        unmapper_.add(as, *vma);
        counters_.munmapDeferred.addAt(cpu.coreId());
        if (unmapper_.needsFlush(as))
            flushZombies(cpu, as);
        return true;
    }

    // Synchronous path: TLB coherence covers the pages that could
    // actually be cached (the used file content), Linux-style.
    const std::uint64_t first = vma->start;
    const std::uint64_t used = vma->usedPages != 0
                                   ? vma->usedPages
                                   : vma->length() / mem::kPageSize;
    std::uint64_t pages = 0;
    if (vma->ephemeral) {
        sim::ScopedReadLock guard(as.mmapSem(), cpu);
        pages = reap(cpu, as, *vma);
    } else {
        sim::ScopedWriteLock guard(as.mmapSem(), cpu);
        pages = reap(cpu, as, *vma);
    }
    if (pages > 0) {
        if (used <= cm.tlbFlushThreshold) {
            std::vector<std::uint64_t> list;
            for (std::uint64_t p = 0; p < used; p++)
                list.push_back(first + p * mem::kPageSize);
            vmm_.hub().shootdownPages(cpu, as.cpuMask(), as.asid(),
                                      list);
        } else {
            vmm_.hub().shootdownFull(cpu, as.cpuMask(), as.asid());
        }
    }
    counters_.munmapSync.addAt(cpu.coreId());
    if (vmm_.checkHook() != nullptr)
        vmm_.checkHook()->onCheck(sim::CheckEvent::Munmap, cpu.now());
    return true;
}

void
DaxVm::flushZombies(sim::Cpu &cpu, vm::AddressSpace &as)
{
    auto starts = unmapper_.take(as);
    if (starts.empty())
        return;
    DAX_SPAN(sim::TraceCat::Daxvm, cpu, "zombie_flush");
    // Ephemeral zombies only need the semaphore as reader; a batch
    // containing tree VMAs must take it as writer.
    bool anyTree = false;
    for (const auto start : starts) {
        vm::Vma *vma = as.findVma(start);
        if (vma != nullptr && vma->zombie && !vma->ephemeral)
            anyTree = true;
    }
    std::uint64_t pages = 0;
    auto reapAll = [&]() {
        for (const auto start : starts) {
            vm::Vma *vma = as.findVma(start);
            if (vma == nullptr || !vma->zombie)
                continue;
            pages += reap(cpu, as, *vma);
        }
    };
    if (anyTree) {
        sim::ScopedWriteLock guard(as.mmapSem(), cpu);
        reapAll();
    } else {
        sim::ScopedReadLock guard(as.mmapSem(), cpu);
        reapAll();
    }
    if (pages > 0) {
        // One full flush replaces per-unmap IPIs (Section IV-C).
        vmm_.hub().shootdownFull(cpu, as.cpuMask(), as.asid());
    }
    DAX_TRACE(sim::TraceCat::Daxvm, cpu,
              "zombie flush: %zu mappings, %llu pages", starts.size(),
              (unsigned long long)pages);
    counters_.zombieFlushes.addAt(cpu.coreId());
    counters_.zombiePagesFlushed.addAt(cpu.coreId(), pages);
}

void
DaxVm::forceUnmapFile(sim::Cpu &cpu, fs::Ino ino)
{
    DAX_SPAN(sim::TraceCat::Daxvm, cpu, "force_unmap");
    // Copy: reap mutates the registry.
    const auto refs = vmm_.mappingsOf(ino);
    for (const auto &ref : refs) {
        vm::Vma *vma = ref.as->findVma(ref.vmaStart);
        if (vma == nullptr || !vma->daxvm)
            continue;
        vm::AddressSpace &as = *ref.as;
        const std::uint64_t pages = reap(cpu, as, *vma);
        if (pages > 0)
            vmm_.hub().shootdownFull(cpu, as.cpuMask(), as.asid());
        counters_.forcedUnmaps.addAt(cpu.coreId());
    }
}

void
DaxVm::remapFixupFile(sim::Cpu &cpu, fs::Ino ino, std::uint64_t fileBlock)
{
    DAX_SPAN(sim::TraceCat::Daxvm, cpu, "mce_remap_fixup");
    InodeTables &it = tables_.tables(&cpu, ino);
    FileTable *table = it.active();
    const std::uint64_t fileByte = fileBlock * fs::kBlockSize;
    const auto refs = vmm_.mappingsOf(ino);
    for (const auto &ref : refs) {
        vm::Vma *vma = ref.as->findVma(ref.vmaStart);
        if (vma == nullptr || !vma->daxvm)
            continue;
        if (fileByte < vma->fileOff
            || fileByte >= vma->fileOff + vma->length())
            continue;
        vm::AddressSpace &as = *ref.as;
        arch::PageTable &pt = as.pageTable();
        const std::uint64_t va =
            vma->start + (fileByte - vma->fileOff);
        const std::uint64_t attachSpan =
            arch::levelSpan(vma->attachLevel);
        const std::uint64_t attachBase =
            va / attachSpan * attachSpan;
        if (pt.attachedNode(attachBase, vma->attachLevel) == nullptr) {
            // Not served by the shared table: the process carries a
            // private copy still translating to the retired block -
            // a huge PMD entry installed at attach time, or a
            // demand-filled page in a former hole.
            const arch::WalkResult walk = pt.lookup(va);
            if (walk.present && walk.pageShift == 21
                && vma->attachLevel == arch::kPmdLevel) {
                const std::uint64_t base = va / mem::kHugePageSize
                                           * mem::kHugePageSize;
                const bool writable = walk.writable;
                pt.clear(base, arch::kPmdLevel);
                const std::uint64_t chunk =
                    vma->fileOffsetOf(base) / mem::kHugePageSize;
                if (arch::Node *node = table->pteNode(chunk)) {
                    // Chunk demoted: swap in the shared PTE node.
                    pt.attach(base, arch::kPmdLevel, node, writable);
                    cpu.advance(vmm_.cm().tableAttach);
                } else if (const arch::Pte huge =
                               table->hugeEntry(chunk)) {
                    pt.map(base, arch::pte::addr(huge),
                           arch::kPmdLevel,
                           writable ? arch::pte::kWrite : 0);
                }
            } else if (walk.present && walk.pageShift == 12) {
                pt.clear(va / mem::kPageSize * mem::kPageSize,
                         arch::kPteLevel);
            }
        }
        // The repair changed physical translations: every cached copy
        // in this process's TLBs is stale (memory_failure()-style
        // heavyweight flush).
        vmm_.hub().shootdownFull(cpu, as.cpuMask(), as.asid());
    }
}

bool
DaxVm::pollMonitor(sim::Cpu &cpu, vm::AddressSpace &as, fs::Ino ino)
{
    const sim::CostModel &cm = vmm_.cm();
    auto &snap = monitor_[&as];
    const arch::MmuPerf &perf = as.perf();
    const std::uint64_t misses = perf.tlbMisses - snap.tlbMisses;
    const sim::Time walkNs = perf.walkNs - snap.walkNs;
    const sim::Time execNs = as.execNs() - snap.execNs;
    snap.tlbMisses = perf.tlbMisses;
    snap.walkNs = perf.walkNs;
    snap.execNs = as.execNs();
    if (misses == 0 || execNs == 0)
        return false;

    const double avgWalkCycles =
        sim::nsToCycles(walkNs) / static_cast<double>(misses);
    const double overhead = static_cast<double>(walkNs)
                          / static_cast<double>(execNs);
    if (avgWalkCycles <= cm.monitorWalkCycleThreshold
        || overhead <= cm.monitorMmuOverheadThreshold) {
        return false;
    }
    tables_.migrateToDram(cpu, ino);
    remapToMirror(cpu, ino);
    counters_.monitorMigrations.addAt(cpu.coreId());
    return true;
}

void
DaxVm::remapToMirror(sim::Cpu &cpu, fs::Ino ino)
{
    InodeTables &it = tables_.tables(&cpu, ino);
    if (!it.useMirror || it.dramMirror == nullptr)
        return;
    const auto refs = vmm_.mappingsOf(ino);
    for (const auto &ref : refs) {
        vm::Vma *vma = ref.as->findVma(ref.vmaStart);
        if (vma == nullptr || !vma->daxvm)
            continue;
        // Swap attachments in place: identical translations, so no
        // TLB invalidation is needed - only walkers notice.
        const std::uint64_t span = arch::levelSpan(vma->attachLevel);
        arch::PageTable &pt = ref.as->pageTable();
        for (std::uint64_t va = vma->start; va < vma->end; va += span) {
            const std::uint64_t fileOff = vma->fileOffsetOf(va);
            const arch::WalkResult walk = pt.lookup(va);
            const bool writable = walk.present && walk.writable;
            if (pt.detach(va, vma->attachLevel) == nullptr)
                continue;
            arch::Node *node =
                vma->attachLevel == arch::kPudLevel
                    ? it.dramMirror->pmdNode(fileOff >> 30)
                    : it.dramMirror->pteNode(fileOff
                                             / mem::kHugePageSize);
            if (node != nullptr) {
                pt.attach(va, vma->attachLevel, node, writable);
                cpu.advance(vmm_.cm().tableAttach);
            }
        }
    }
}

} // namespace dax::daxvm
