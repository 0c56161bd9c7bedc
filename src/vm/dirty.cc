/**
 * @file
 * VmManager: reverse mappings, kernel dirty tracking, sync, and
 * storage-reclamation safety hooks.
 */
#include "vm/manager.h"

#include <algorithm>

#include "arch/pte.h"
#include "sim/trace.h"
#include "vm/address_space.h"

namespace dax::vm {

const std::vector<VmManager::MappingRef> VmManager::kNoMappings;
const DirtySet VmManager::kNoDirty;

VmManager::VmManager(const sim::CostModel &cm, arch::ShootdownHub &hub,
                     fs::FileSystem &fs, mem::FrameAllocator &dramMeta,
                     mem::Device &dram, sim::MetricsRegistry *metrics)
    : cm_(cm), hub_(hub), fs_(fs), dramMeta_(dramMeta), dram_(dram),
      ownedMetrics_(metrics != nullptr
                        ? nullptr
                        : std::make_unique<sim::MetricsRegistry>()),
      metrics_(metrics != nullptr ? metrics : ownedMetrics_.get())
{
    fs_.addHooks(this);

    sim::MetricsScope scope(*metrics_, "vm");
    counters_.mmap = scope.counter("mmap");
    counters_.munmap = scope.counter("munmap");
    counters_.mprotect = scope.counter("mprotect");
    counters_.forks = scope.counter("forks");
    counters_.mremap = scope.counter("mremap");
    counters_.mremapMoves = scope.counter("mremap_moves");
    counters_.msyncNoop = scope.counter("msync_noop");
    counters_.dirtyTags = scope.counter("dirty_tags");
    counters_.syncWholeFile = scope.counter("sync_whole_file");
    counters_.syncFlushedPages = scope.counter("sync_flushed_pages");
    counters_.syncs = scope.counter("syncs");
    counters_.truncateZaps = scope.counter("truncate_zaps");
    counters_.majorFaults = scope.counter("major_faults");
    counters_.faults = scope.counter("faults");
    counters_.daxvmWpFaults = scope.counter("daxvm_wp_faults");
    counters_.wpFaults = scope.counter("wp_faults");
    counters_.populates = scope.counter("populates");
    counters_.faultNs = scope.histogram("fault_ns");

    // mmap_sem contention and MMU perf are per-process; the gauges
    // publish the sum over live address spaces plus everything
    // deposited by already-destroyed ones (unregisterSpace).
    auto rdAcq = metrics_->gauge("vm.mmap_sem.read_acquisitions");
    auto rdWait = metrics_->gauge("vm.mmap_sem.read_wait_ns");
    auto rdHeld = metrics_->gauge("vm.mmap_sem.read_held_ns");
    auto wrAcq = metrics_->gauge("vm.mmap_sem.write_acquisitions");
    auto wrWait = metrics_->gauge("vm.mmap_sem.write_wait_ns");
    auto wrHeld = metrics_->gauge("vm.mmap_sem.write_held_ns");
    auto tlbHits = metrics_->gauge("arch.mmu.tlb_hits");
    auto tlbMisses = metrics_->gauge("arch.mmu.tlb_misses");
    auto walkNs = metrics_->gauge("arch.mmu.walk_ns");
    auto execNs = metrics_->gauge("arch.mmu.exec_ns");
    metrics_->addCollector([this, rdAcq, rdWait, rdHeld, wrAcq, wrWait,
                            wrHeld, tlbHits, tlbMisses, walkNs,
                            execNs]() mutable {
        sim::LockStats rd = retiredSemRead_;
        sim::LockStats wr = retiredSemWrite_;
        arch::MmuPerf perf = retiredPerf_;
        sim::Time exec = retiredExecNs_;
        for (AddressSpace *as : spaces_) {
            const sim::LockStats &r = as->mmapSem().readStats();
            const sim::LockStats &w = as->mmapSem().writeStats();
            rd.acquisitions += r.acquisitions;
            rd.waitNs += r.waitNs;
            rd.heldNs += r.heldNs;
            wr.acquisitions += w.acquisitions;
            wr.waitNs += w.waitNs;
            wr.heldNs += w.heldNs;
            perf += as->perf();
            exec += as->execNs();
        }
        rdAcq.set(static_cast<double>(rd.acquisitions));
        rdWait.set(static_cast<double>(rd.waitNs));
        rdHeld.set(static_cast<double>(rd.heldNs));
        wrAcq.set(static_cast<double>(wr.acquisitions));
        wrWait.set(static_cast<double>(wr.waitNs));
        wrHeld.set(static_cast<double>(wr.heldNs));
        tlbHits.set(static_cast<double>(perf.tlbHits));
        tlbMisses.set(static_cast<double>(perf.tlbMisses));
        walkNs.set(static_cast<double>(perf.walkNs));
        execNs.set(static_cast<double>(exec));
    });
}

VmManager::~VmManager()
{
    fs_.removeHooks(this);
}

void
VmManager::unregisterSpace(AddressSpace *as)
{
    if (spaces_.erase(as) == 0)
        return;
    const sim::LockStats &r = as->mmapSem().readStats();
    const sim::LockStats &w = as->mmapSem().writeStats();
    retiredSemRead_.acquisitions += r.acquisitions;
    retiredSemRead_.waitNs += r.waitNs;
    retiredSemRead_.heldNs += r.heldNs;
    retiredSemWrite_.acquisitions += w.acquisitions;
    retiredSemWrite_.waitNs += w.waitNs;
    retiredSemWrite_.heldNs += w.heldNs;
    retiredPerf_ += as->perf();
    retiredExecNs_ += as->execNs();
}

void
dirtySetInsert(DirtySet &set, std::uint64_t start, std::uint64_t count)
{
    if (count == 0)
        return;
    std::uint64_t end = start + count;

    // Merge with any overlapping/adjacent predecessor.
    auto it = set.upper_bound(start);
    if (it != set.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second >= start) {
            start = prev->first;
            end = std::max(end, prev->first + prev->second);
            it = set.erase(prev);
        }
    }
    // Swallow successors.
    while (it != set.end() && it->first <= end) {
        end = std::max(end, it->first + it->second);
        it = set.erase(it);
    }
    set.emplace(start, end - start);
}

void
VmManager::registerMapping(fs::Ino ino, AddressSpace *as,
                           std::uint64_t vmaStart)
{
    inodeVm(ino).mappings.push_back({as, vmaStart});
}

void
VmManager::unregisterMapping(fs::Ino ino, AddressSpace *as,
                             std::uint64_t vmaStart)
{
    auto it = inodeVm_.find(ino);
    if (it == inodeVm_.end())
        return;
    auto &mappings = it->second.mappings;
    mappings.erase(
        std::remove_if(mappings.begin(), mappings.end(),
                       [&](const MappingRef &r) {
                           return r.as == as && r.vmaStart == vmaStart;
                       }),
        mappings.end());
}

const std::vector<VmManager::MappingRef> &
VmManager::mappingsOf(fs::Ino ino) const
{
    auto it = inodeVm_.find(ino);
    return it == inodeVm_.end() ? kNoMappings : it->second.mappings;
}

void
VmManager::markDirty(sim::Cpu &cpu, fs::Ino ino, std::uint64_t startPage,
                     std::uint64_t count)
{
    cpu.advance(cm_.dirtyTag);
    dirtySetInsert(inodeVm(ino).dirty, startPage, count);
    counters_.dirtyTags.addAt(cpu.coreId());
}

const DirtySet &
VmManager::dirtyOf(fs::Ino ino) const
{
    auto it = inodeVm_.find(ino);
    return it == inodeVm_.end() ? kNoDirty : it->second.dirty;
}

std::uint64_t
VmManager::dirtyPages(fs::Ino ino) const
{
    std::uint64_t total = 0;
    for (const auto &[start, count] : dirtyOf(ino)) {
        (void)start;
        total += count;
    }
    return total;
}

void
VmManager::syncFile(sim::Cpu &cpu, fs::Ino ino, std::uint64_t off,
                    std::uint64_t len)
{
    DAX_SPAN(sim::TraceCat::Mmap, cpu, "sync_file");
    fs::Inode &node = fs_.inode(ino);
    auto &iv = inodeVm(ino);

    // POSIX/DaxVM coexistence (paper Section IV-D): when a nosync
    // DaxVM mapping of the same file exists, its writes are invisible
    // to dirty tracking, so the POSIX syncer must flush the whole file.
    bool flushWhole = false;
    for (const auto &ref : iv.mappings) {
        if (Vma *vma = ref.as->findVma(ref.vmaStart)) {
            if (vma->daxvm && (vma->flags & kMapNoMsync) != 0)
                flushWhole = true;
        }
    }

    std::uint64_t firstPage = off / fs::kBlockSize;
    std::uint64_t endPage =
        (off + len + fs::kBlockSize - 1) / fs::kBlockSize;
    if (flushWhole) {
        firstPage = 0;
        endPage = node.sizeBlocks();
        // Flush the entire file's cache lines, not just tagged pages.
        for (const auto &[fb, extent] : node.extents) {
            (void)fb;
            fs_.device().write(cpu, fs_.blockAddr(extent.block),
                               extent.bytes(), mem::WriteMode::CachedFlush,
                               mem::Pattern::Seq);
            // Functional write-back: dirty lines become durable.
            fs_.device().flushRange(fs_.blockAddr(extent.block),
                                    extent.bytes());
        }
        counters_.syncWholeFile.addAt(cpu.coreId());
    }

    // Flush dirty intervals in range and collect pages to re-protect.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> flushed;
    for (auto it = iv.dirty.begin(); it != iv.dirty.end();) {
        const std::uint64_t start = it->first;
        const std::uint64_t count = it->second;
        if (start >= endPage || start + count <= firstPage) {
            ++it;
            continue;
        }
        const std::uint64_t s = std::max(start, firstPage);
        const std::uint64_t e = std::min(start + count, endPage);
        if (!flushWhole) {
            // clwb each dirty page's lines, walking file extents.
            std::uint64_t page = s;
            while (page < e) {
                const auto run = node.find(page);
                if (!run)
                    break;
                const std::uint64_t pages =
                    std::min(e - page, run->count);
                fs_.device().write(cpu,
                                   fs_.blockAddr(run->physBlock),
                                   pages * fs::kBlockSize,
                                   mem::WriteMode::CachedFlush,
                                   mem::Pattern::Seq);
                // Functional write-back: dirty lines become durable.
                fs_.device().flushRange(fs_.blockAddr(run->physBlock),
                                        pages * fs::kBlockSize);
                page += pages;
            }
        }
        flushed.emplace_back(s, e - s);
        // Trim the interval out of the dirty set.
        it = iv.dirty.erase(it);
        if (start < s)
            iv.dirty.emplace(start, s - start);
        if (start + count > e)
            iv.dirty.emplace(e, start + count - e);
        counters_.syncFlushedPages.addAt(cpu.coreId(), e - s);
    }

    // Write-protect flushed pages in every mapping process to restart
    // dirty tracking, with shootdowns (paper Section III-A4).
    for (const auto &ref : iv.mappings) {
        AddressSpace *as = ref.as;
        Vma *vma = as->findVma(ref.vmaStart);
        if (vma == nullptr)
            continue;
        if (vma->daxvm) {
            if ((vma->flags & kMapNoMsync) != 0)
                continue; // untracked by design
            // DaxVM re-protects at the attachment level (2 MB or
            // coarser), never inside the shared file tables.
            const std::uint64_t span =
                arch::levelSpan(vma->attachLevel);
            std::vector<std::uint64_t> bases;
            for (const auto &[s, cnt] : flushed) {
                const std::uint64_t loByte = s * fs::kBlockSize;
                const std::uint64_t hiByte = (s + cnt) * fs::kBlockSize;
                for (std::uint64_t va = vma->start; va < vma->end;
                     va += span) {
                    const std::uint64_t fo = vma->fileOffsetOf(va);
                    if (fo + span <= loByte || fo >= hiByte)
                        continue;
                    if (as->pageTable().setAttachmentWritable(
                            va, vma->attachLevel, false)
                        || as->pageTable().setFlags(va, vma->attachLevel,
                                                    0,
                                                    arch::pte::kWrite)) {
                        cpu.advance(cm_.wrProtect);
                        bases.push_back(va);
                    }
                }
            }
            if (!bases.empty()) {
                hub_.shootdownFull(cpu, as->cpuMask(), as->asid());
            }
            continue;
        }
        std::vector<std::uint64_t> protPages;
        for (const auto &[s, cnt] : flushed) {
            std::uint64_t p = s;
            while (p < s + cnt) {
                const std::uint64_t fileByte = p * fs::kBlockSize;
                if (fileByte < vma->fileOff
                    || fileByte >= vma->fileOff + vma->length()) {
                    p++;
                    continue;
                }
                const std::uint64_t va =
                    vma->start + (fileByte - vma->fileOff);
                const arch::WalkResult walk =
                    as->pageTable().lookup(va);
                if (!walk.present) {
                    p++;
                    continue;
                }
                // Re-protect at the granularity the page is mapped
                // with (one PMD write for a 2 MB page).
                const std::uint64_t span = 1ULL << walk.pageShift;
                const std::uint64_t base = va / span * span;
                const int level = walk.pageShift == 21
                                      ? arch::kPmdLevel
                                  : walk.pageShift == 30
                                      ? arch::kPudLevel
                                      : arch::kPteLevel;
                if (as->pageTable().setFlags(base, level, 0,
                                             arch::pte::kWrite)) {
                    cpu.advance(cm_.wrProtect);
                    protPages.push_back(base);
                }
                const std::uint64_t nextByte =
                    vma->fileOffsetOf(base) + span;
                p = (nextByte + fs::kBlockSize - 1) / fs::kBlockSize;
            }
        }
        if (!protPages.empty()) {
            hub_.shootdownPages(cpu, as->cpuMask(), as->asid(),
                                protPages);
        }
    }

    fs_.journal().commit(cpu, ino);
    counters_.syncs.addAt(cpu.coreId());
}

void
VmManager::onBlocksAllocated(sim::Cpu &cpu, fs::Inode &inode,
                             std::uint64_t fileBlock,
                             const fs::Extent &extent)
{
    (void)cpu;
    (void)inode;
    (void)fileBlock;
    (void)extent;
}

void
VmManager::onBlocksFreeing(sim::Cpu &cpu, fs::Inode &inode,
                           std::uint64_t fileBlock,
                           const fs::Extent &extent)
{
    // Synchronously unmap reclaimed pages from every POSIX mapping
    // (DaxVM detachment is handled by the DaxVM hook).
    auto it = inodeVm_.find(inode.ino);
    if (it == inodeVm_.end())
        return;
    const std::uint64_t byteStart = fileBlock * fs::kBlockSize;
    const std::uint64_t byteEnd = byteStart + extent.bytes();
    for (const auto &ref : it->second.mappings) {
        AddressSpace *as = ref.as;
        Vma *vma = as->findVma(ref.vmaStart);
        if (vma == nullptr || vma->daxvm)
            continue;
        const std::uint64_t vmaFileEnd = vma->fileOff + vma->length();
        if (byteEnd <= vma->fileOff || byteStart >= vmaFileEnd)
            continue;
        const std::uint64_t s =
            vma->start + (std::max(byteStart, vma->fileOff)
                          - vma->fileOff);
        const std::uint64_t e =
            vma->start + (std::min(byteEnd, vmaFileEnd) - vma->fileOff);
        std::vector<std::uint64_t> pages;
        const std::uint64_t zapped = as->zapRange(cpu, *vma, s, e, pages);
        if (zapped > 0) {
            hub_.shootdownPages(cpu, as->cpuMask(), as->asid(), pages,
                                zapped);
        }
        counters_.truncateZaps.addAt(cpu.coreId(), zapped);
    }
}

void
VmManager::onInodeEvict(fs::Inode &inode)
{
    // Mappings outlive the inode cache: keep the entry while it still
    // records a mapping or a dirty tag.
    auto it = inodeVm_.find(inode.ino);
    if (it != inodeVm_.end() && it->second.mappings.empty()
        && it->second.dirty.empty())
        inodeVm_.erase(it);
}

} // namespace dax::vm
