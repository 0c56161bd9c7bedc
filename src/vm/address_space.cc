/**
 * @file
 * AddressSpace: POSIX mapping paths (mmap/munmap/mprotect/msync).
 * Fault handling lives in fault.cc, memory access in access.cc.
 */
#include "vm/address_space.h"

#include <algorithm>
#include <stdexcept>

#include "arch/pte.h"
#include "sim/trace.h"

namespace dax::vm {

namespace {

/** Base of the regular mmap area. */
constexpr std::uint64_t kMmapBase = 0x100000000ULL; // 4 GB
/** Base of the DaxVM ephemeral heap. */
constexpr std::uint64_t kEphemeralBase = 0x600000000000ULL;
/** Growth granule of the ephemeral heap (paper: 1 GB regions). */
constexpr std::uint64_t kEphemeralChunk = 1ULL << 30;

} // namespace

AddressSpace::AddressSpace(VmManager &vmm)
    : vmm_(vmm), asid_(vmm.nextAsid()),
      pt_(vmm.dramMeta(), vmm.hostFastPaths()),
      mmapSem_("mmap_sem", vmm.cm().rwsemWriterAtomics,
               vmm.cm().rwsemReaderAtomics),
      fastPaths_(vmm.hostFastPaths()), vaBump_(kMmapBase)
{
    vmm_.registerSpace(this);
}

AddressSpace::~AddressSpace()
{
    for (auto &[start, vma] : vmas_)
        vmm_.unregisterMapping(vma.ino, this, start);
    for (auto &[start, vma] : ephemeral_.vmas)
        vmm_.unregisterMapping(vma.ino, this, start);
    vmm_.unregisterSpace(this);
}

std::uint64_t
AddressSpace::allocVaBump(std::uint64_t len, std::uint64_t align)
{
    if (align == 0)
        align = mem::kPageSize;
    std::uint64_t va = (vaBump_ + align - 1) / align * align;
    vaBump_ = va + len;
    return va;
}

AddressSpace::EphemeralRegion &
AddressSpace::ephemeralRegion()
{
    if (ephemeral_.base == 0) {
        ephemeral_.base = kEphemeralBase;
        ephemeral_.size = kEphemeralChunk;
    }
    return ephemeral_;
}

Vma &
AddressSpace::insertVma(const Vma &vma)
{
    auto [it, inserted] = vmas_.emplace(vma.start, vma);
    if (!inserted)
        throw std::logic_error("overlapping VMA insert");
    vmaGen_++;
    return it->second;
}

Vma *
AddressSpace::findVma(std::uint64_t va)
{
    // Ephemeral heap first: cheap range check, then its own map.
    if (ephemeral_.base != 0 && va >= ephemeral_.base
        && va < ephemeral_.base + ephemeral_.size) {
        auto it = ephemeral_.vmas.upper_bound(va);
        if (it != ephemeral_.vmas.begin()) {
            --it;
            if (it->second.contains(va))
                return &it->second;
        }
        return nullptr;
    }
    // Last-hit cache (Linux vmacache): page-local access streams hit
    // the same VMA almost every time; the generation check keeps a
    // pointer from surviving any tree mutation.
    if (fastPaths_ && vmaCache_ != nullptr && vmaCacheGen_ == vmaGen_
        && vmaCache_->contains(va)) {
        vmaCacheHits_++;
        return vmaCache_;
    }
    auto it = vmas_.upper_bound(va);
    if (it != vmas_.begin()) {
        --it;
        if (it->second.contains(va)) {
            vmaCache_ = &it->second;
            vmaCacheGen_ = vmaGen_;
            return &it->second;
        }
    }
    return nullptr;
}

bool
AddressSpace::eraseVma(std::uint64_t start)
{
    vmaGen_++;
    return vmas_.erase(start) != 0;
}

std::uint64_t
AddressSpace::mmap(sim::Cpu &cpu, fs::Ino ino, std::uint64_t off,
                   std::uint64_t len, bool write, unsigned flags)
{
    if (len == 0 || off % mem::kPageSize != 0)
        return 0;
    if (!vmm_.fs().exists(ino))
        return 0;
    DAX_SPAN(sim::TraceCat::Mmap, cpu, "mmap");
    cpu.advance(vmm_.cm().syscall);
    noteCore(cpu.coreId());
    len = (len + mem::kPageSize - 1) / mem::kPageSize * mem::kPageSize;

    std::uint64_t va = 0;
    {
        sim::ScopedWriteLock guard(mmapSem_, cpu);
        cpu.advance(vmm_.cm().vmaAlloc);
        // Align so huge-page-aligned file chunks stay huge-mappable.
        const std::uint64_t align =
            off % mem::kHugePageSize == 0 && len >= mem::kHugePageSize
                ? mem::kHugePageSize
                : mem::kPageSize;
        va = allocVaBump(len, align);
        Vma vma;
        vma.start = va;
        vma.end = va + len;
        vma.ino = ino;
        vma.fileOff = off;
        vma.writable = write;
        vma.flags = flags;
        insertVma(vma);
        vmm_.registerMapping(ino, this, va);
    }

    if ((flags & kMapPopulate) != 0) {
        // mm_populate(): retake the semaphore as reader and install
        // all translations without per-page traps.
        sim::ScopedReadLock guard(mmapSem_, cpu);
        Vma *vma = findVma(va);
        populateRange(cpu, *vma, 0, len, /*forWrite=*/false);
    }
    vmm_.counters().mmap.addAt(cpu.coreId());
    DAX_TRACE(sim::TraceCat::Mmap, cpu,
              "mmap ino=%llu off=0x%llx len=0x%llx -> va=0x%llx",
              (unsigned long long)ino, (unsigned long long)off,
              (unsigned long long)len, (unsigned long long)va);
    return va;
}

std::uint64_t
AddressSpace::zapRange(sim::Cpu &cpu, Vma &vma, std::uint64_t start,
                       std::uint64_t end, std::vector<std::uint64_t> &pages)
{
    const unsigned keep = vmm_.cm().tlbFlushThreshold + 1;
    std::uint64_t zapped = 0;
    std::uint64_t va = start;
    while (va < end) {
        const arch::WalkResult walk = pt_.lookup(va);
        if (!walk.present) {
            // Skip to the next page boundary (sparsely populated).
            va = (va / mem::kPageSize + 1) * mem::kPageSize;
            continue;
        }
        if (vma.daxvm && vma.attachLevel >= 0) {
            // DaxVM mappings detach whole file-table nodes: one
            // interior-slot clear covers the entire attachment span.
            const std::uint64_t aspan =
                arch::levelSpan(vma.attachLevel);
            const std::uint64_t abase = va / aspan * aspan;
            pt_.detach(abase, vma.attachLevel);
            cpu.advance(vmm_.cm().pteClear);
            zapped += aspan / mem::kPageSize;
            if (pages.size() < keep)
                pages.push_back(abase);
            va = abase + aspan;
            continue;
        }
        const std::uint64_t span = 1ULL << walk.pageShift;
        const std::uint64_t base = va / span * span;
        int level = arch::kPteLevel;
        if (walk.pageShift == 21)
            level = arch::kPmdLevel;
        else if (walk.pageShift == 30)
            level = arch::kPudLevel;
        pt_.clear(base, level);
        cpu.advance(vmm_.cm().pteClear);
        zapped += span / mem::kPageSize;
        if (pages.size() < keep)
            pages.push_back(base);
        va = base + span;
    }
    return zapped;
}

bool
AddressSpace::munmap(sim::Cpu &cpu, std::uint64_t va, std::uint64_t len)
{
    DAX_SPAN(sim::TraceCat::Mmap, cpu, "munmap");
    cpu.advance(vmm_.cm().syscall);
    noteCore(cpu.coreId());
    const std::uint64_t end = va + len;

    sim::ScopedWriteLock guard(mmapSem_, cpu);
    // Collect overlapping VMAs: VMAs never overlap, so only the one
    // starting at or before va can reach into the range from below.
    std::vector<std::uint64_t> starts;
    auto it = vmas_.upper_bound(va);
    if (it != vmas_.begin())
        --it;
    for (; it != vmas_.end() && it->second.start < end; ++it) {
        if (it->second.end > va)
            starts.push_back(it->first);
    }
    if (starts.empty())
        return false;

    for (const auto s : starts) {
        Vma &vma = vmas_.at(s);
        const std::uint64_t zs = std::max(va, vma.start);
        const std::uint64_t ze = std::min(end, vma.end);

        std::vector<std::uint64_t> pages;
        const std::uint64_t zapped = zapRange(cpu, vma, zs, ze, pages);
        if (zapped > 0) {
            // Linux flushes the TLB before dropping mmap_sem
            // (tlb_finish_mmu inside the unmap path). zapRange may
            // coarsen/truncate the list, so pass the real page count.
            vmm_.hub().shootdownPages(cpu, cpuMask_, asid_, pages,
                                      zapped);
        }

        if (zs == vma.start && ze == vma.end) {
            cpu.advance(vmm_.cm().vmaFree);
            vmm_.unregisterMapping(vma.ino, this, vma.start);
            eraseVma(s);
        } else if (zs == vma.start) {
            // Trim the front: re-key.
            cpu.advance(vmm_.cm().vmaSplit);
            Vma rest = vma;
            vmm_.unregisterMapping(vma.ino, this, vma.start);
            eraseVma(s);
            rest.fileOff += ze - rest.start;
            rest.start = ze;
            insertVma(rest);
            vmm_.registerMapping(rest.ino, this, rest.start);
        } else if (ze == vma.end) {
            cpu.advance(vmm_.cm().vmaSplit);
            vma.end = zs;
        } else {
            // Hole in the middle: split into two.
            cpu.advance(vmm_.cm().vmaSplit);
            Vma tail = vma;
            tail.fileOff += ze - vma.start;
            tail.start = ze;
            vma.end = zs;
            insertVma(tail);
            vmm_.registerMapping(tail.ino, this, tail.start);
        }
    }
    vmm_.counters().munmap.addAt(cpu.coreId());
    DAX_TRACE(sim::TraceCat::Mmap, cpu, "munmap va=0x%llx len=0x%llx",
              (unsigned long long)va, (unsigned long long)len);
    if (vmm_.checkHook() != nullptr)
        vmm_.checkHook()->onCheck(sim::CheckEvent::Munmap, cpu.now());
    return true;
}

bool
AddressSpace::mprotect(sim::Cpu &cpu, std::uint64_t va, std::uint64_t len,
                       bool write)
{
    DAX_SPAN(sim::TraceCat::Mmap, cpu, "mprotect");
    cpu.advance(vmm_.cm().syscall);
    const std::uint64_t end = va + len;

    // Ephemeral mappings support no memory operations (Section IV-F).
    if (ephemeral_.base != 0 && va >= ephemeral_.base
        && va < ephemeral_.base + ephemeral_.size) {
        return false;
    }

    sim::ScopedWriteLock guard(mmapSem_, cpu);
    Vma *vma = findVma(va);
    if (vma == nullptr || end > vma->end)
        return false;
    if (vma->daxvm && (vma->start != va || vma->end != end)) {
        // DaxVM allows protection changes only on entire mappings.
        return false;
    }

    // Split so the protection change applies exactly to [va, end).
    if (vma->start < va) {
        cpu.advance(vmm_.cm().vmaSplit);
        Vma tail = *vma;
        tail.fileOff += va - vma->start;
        tail.start = va;
        vma->end = va;
        Vma &inserted = insertVma(tail);
        vmm_.registerMapping(inserted.ino, this, inserted.start);
        vma = &inserted;
    }
    if (vma->end > end) {
        cpu.advance(vmm_.cm().vmaSplit);
        Vma tail = *vma;
        tail.fileOff += end - vma->start;
        tail.start = end;
        vma->end = end;
        Vma &inserted = insertVma(tail);
        vmm_.registerMapping(inserted.ino, this, inserted.start);
    }
    vma->writable = write;

    // Downgrades must clear PTE write bits + flush TLBs.
    if (!write) {
        std::vector<std::uint64_t> pages;
        std::uint64_t downgraded = 0;
        std::uint64_t cur = vma->start;
        while (cur < vma->end) {
            const arch::WalkResult walk = pt_.lookup(cur);
            if (!walk.present) {
                cur = (cur / mem::kPageSize + 1) * mem::kPageSize;
                continue;
            }
            const std::uint64_t span = 1ULL << walk.pageShift;
            const std::uint64_t base = cur / span * span;
            int level = walk.pageShift == 21   ? arch::kPmdLevel
                        : walk.pageShift == 30 ? arch::kPudLevel
                                               : arch::kPteLevel;
            pt_.setFlags(base, level, 0, arch::pte::kWrite);
            cpu.advance(vmm_.cm().wrProtect);
            downgraded += span / mem::kPageSize;
            if (pages.size() <= vmm_.cm().tlbFlushThreshold)
                pages.push_back(base);
            cur = base + span;
        }
        vmm_.hub().shootdownPages(cpu, cpuMask_, asid_, pages,
                                  downgraded);
    }
    vmm_.counters().mprotect.addAt(cpu.coreId());
    return true;
}

std::unique_ptr<AddressSpace>
AddressSpace::fork(sim::Cpu &cpu)
{
    DAX_SPAN(sim::TraceCat::Mmap, cpu, "fork");
    cpu.advance(vmm_.cm().syscall);
    auto child = std::make_unique<AddressSpace>(vmm_);
    child->vaBump_ = vaBump_;
    child->noteCore(cpu.coreId());

    sim::ScopedWriteLock guard(mmapSem_, cpu);
    for (const auto &[start, vma] : vmas_) {
        Vma copy = vma;
        copy.zombie = false;
        child->insertVma(copy);
        vmm_.registerMapping(copy.ino, child.get(), copy.start);
        cpu.advance(vmm_.cm().vmaAlloc);

        if (vma.daxvm && vma.attachLevel >= 0) {
            // Re-attach the shared file-table nodes: one slot write
            // per granule, preserving the parent's current
            // permissions (dirty tracking keeps working).
            const std::uint64_t span =
                arch::levelSpan(vma.attachLevel);
            for (std::uint64_t va = vma.start; va < vma.end;
                 va += span) {
                if (arch::Node *node =
                        pt_.attachedNode(va, vma.attachLevel)) {
                    const arch::WalkResult walk = pt_.lookup(va);
                    const unsigned newPages = child->pt_.attach(
                        va, vma.attachLevel, node,
                        walk.present && walk.writable);
                    cpu.advance(vmm_.cm().tableAttach
                                + vmm_.cm().ptPageAlloc * newPages);
                    continue;
                }
                // Huge chunk installed directly in the private tree:
                // copy the entry.
                const arch::WalkResult walk = pt_.lookup(va);
                if (walk.present
                    && walk.pageShift
                           == arch::levelShift(vma.attachLevel)) {
                    child->pt_.map(va, walk.paddr & ~(span - 1),
                                   vma.attachLevel,
                                   walk.writable ? arch::pte::kWrite
                                                 : 0);
                    cpu.advance(vmm_.cm().pmdSet);
                }
            }
            continue;
        }

        // POSIX shared file mapping: copy present translations.
        std::uint64_t va = vma.start;
        while (va < vma.end) {
            const arch::WalkResult walk = pt_.lookup(va);
            if (!walk.present) {
                va = (va / mem::kPageSize + 1) * mem::kPageSize;
                continue;
            }
            const std::uint64_t span = 1ULL << walk.pageShift;
            const std::uint64_t base = va / span * span;
            const int level = walk.pageShift == 21 ? arch::kPmdLevel
                              : walk.pageShift == 30
                                  ? arch::kPudLevel
                                  : arch::kPteLevel;
            const arch::Pte e =
                walk.writable ? arch::pte::kWrite : 0;
            const unsigned newPages = child->pt_.map(
                base, walk.paddr & ~(span - 1), level,
                e | (walk.dram ? arch::pte::kSoftDram : 0));
            cpu.advance(vmm_.cm().pteSet
                        + vmm_.cm().ptPageAlloc * newPages);
            va = base + span;
        }
    }
    vmm_.counters().forks.addAt(cpu.coreId());
    return child;
}

std::uint64_t
AddressSpace::mremap(sim::Cpu &cpu, std::uint64_t oldVa,
                     std::uint64_t oldLen, std::uint64_t newLen)
{
    DAX_SPAN(sim::TraceCat::Mmap, cpu, "mremap");
    cpu.advance(vmm_.cm().syscall);
    newLen = (newLen + mem::kPageSize - 1) / mem::kPageSize
           * mem::kPageSize;

    // Ephemeral mappings support no memory operations.
    if (ephemeral_.base != 0 && oldVa >= ephemeral_.base
        && oldVa < ephemeral_.base + ephemeral_.size) {
        return 0;
    }

    sim::ScopedWriteLock guard(mmapSem_, cpu);
    Vma *vma = findVma(oldVa);
    if (vma == nullptr || newLen == 0)
        return 0;
    // DaxVM (and this simulator's POSIX path) resize whole mappings.
    if (vma->start != oldVa || vma->length() != oldLen)
        return 0;

    if (newLen <= vma->length()) {
        // Shrink in place: zap the tail.
        const std::uint64_t zs = vma->start + newLen;
        std::vector<std::uint64_t> pages;
        const std::uint64_t zapped =
            zapRange(cpu, *vma, zs, vma->end, pages);
        if (zapped > 0)
            vmm_.hub().shootdownPages(cpu, cpuMask_, asid_, pages,
                                      zapped);
        cpu.advance(vmm_.cm().vmaSplit);
        vma->end = zs;
        vmm_.counters().mremap.addAt(cpu.coreId());
        return vma->start;
    }

    // Grow: in place when the bump allocator has not placed anything
    // after this VMA, otherwise move.
    auto next = vmas_.upper_bound(vma->start);
    const bool inPlace =
        next == vmas_.end() || next->second.start >= vma->start + newLen;
    if (inPlace) {
        cpu.advance(vmm_.cm().vmaSplit);
        vma->end = vma->start + newLen;
        // Reserve the grown range from the bump allocator so no later
        // mapping lands inside it.
        if (vma->end > vaBump_)
            vaBump_ = vma->end;
        vmm_.counters().mremap.addAt(cpu.coreId());
        return vma->start;
    }

    // DaxVM attachments are not transplanted; a user would remap the
    // file instead (the attach is O(1) anyway).
    if (vma->daxvm)
        return 0;

    // Move: allocate a new range and transplant translations (Linux
    // moves page-table entries rather than refaulting).
    cpu.advance(vmm_.cm().vmaAlloc);
    const std::uint64_t newStart = allocVaBump(newLen, mem::kPageSize);
    std::uint64_t moved = 0;
    std::vector<std::uint64_t> pages;
    std::uint64_t cur = vma->start;
    while (cur < vma->end) {
        const arch::WalkResult walk = pt_.lookup(cur);
        if (!walk.present) {
            cur = (cur / mem::kPageSize + 1) * mem::kPageSize;
            continue;
        }
        const std::uint64_t span = 1ULL << walk.pageShift;
        const std::uint64_t base = cur / span * span;
        const int level = walk.pageShift == 21   ? arch::kPmdLevel
                          : walk.pageShift == 30 ? arch::kPudLevel
                                                 : arch::kPteLevel;
        const arch::Pte old = pt_.clear(base, level);
        pt_.map(newStart + (base - vma->start), arch::pte::addr(old),
                level,
                old
                    & (arch::pte::kWrite | arch::pte::kSoftDirtyTracked));
        cpu.advance(vmm_.cm().pteClear + vmm_.cm().pteSet);
        moved += span / mem::kPageSize;
        if (pages.size() <= vmm_.cm().tlbFlushThreshold)
            pages.push_back(base);
        cur = base + span;
    }
    if (moved > 0)
        vmm_.hub().shootdownPages(cpu, cpuMask_, asid_, pages, moved);

    Vma rest = *vma;
    vmm_.unregisterMapping(vma->ino, this, vma->start);
    eraseVma(vma->start);
    rest.start = newStart;
    rest.end = newStart + newLen;
    insertVma(rest);
    vmm_.registerMapping(rest.ino, this, newStart);
    cpu.advance(vmm_.cm().vmaFree);
    vmm_.counters().mremapMoves.addAt(cpu.coreId());
    return newStart;
}

bool
AddressSpace::msync(sim::Cpu &cpu, std::uint64_t va, std::uint64_t len)
{
    DAX_SPAN(sim::TraceCat::Mmap, cpu, "msync");
    cpu.advance(vmm_.cm().syscall);
    Vma *vma = findVma(va);
    if (vma == nullptr)
        return false;
    if (vma->daxvm && (vma->flags & kMapNoMsync) != 0) {
        // nosync mode: msync is a documented no-op (Section IV-D).
        vmm_.counters().msyncNoop.addAt(cpu.coreId());
        return true;
    }
    const std::uint64_t end = std::min(va + len, vma->end);
    sim::ScopedReadLock guard(mmapSem_, cpu);
    vmm_.syncFile(cpu, vma->ino, vma->fileOffsetOf(va), end - va);
    return true;
}

} // namespace dax::vm
