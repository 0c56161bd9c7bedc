/**
 * @file
 * FileTable and FileTableManager implementation.
 */
#include "daxvm/file_table.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "arch/pte.h"

namespace dax::daxvm {

namespace {

constexpr std::uint64_t kChunksPerGig =
    (1ULL << 30) / mem::kHugePageSize; // 512

/** Max-permission file-table leaf flags (paper: perms pre-set). */
constexpr arch::Pte kLeafFlags =
    arch::pte::kPresent | arch::pte::kWrite | arch::pte::kUser;

} // namespace

FileTable::FileTable(mem::FrameAllocator &frames, bool persistent,
                     const sim::CostModel &cm)
    : frames_(frames), persistent_(persistent), cm_(cm)
{
}

FileTable::~FileTable()
{
    for (auto &[chunk, state] : chunks_) {
        (void)chunk;
        if (state.pte != nullptr)
            freeNode(state.pte);
    }
    for (auto &[gchunk, pmd] : pmds_) {
        (void)gchunk;
        freeNode(pmd);
    }
}

arch::Node *
FileTable::newNode(bool leaf)
{
    // Allocate the frame first: zeroing it is a persistence boundary
    // that may throw a planned CrashException, and the node must not
    // leak when it does.
    const auto frame = frames_.alloc();
    auto node = std::make_unique<arch::Node>();
    node->dev = &frames_.device();
    node->frames = &frames_;
    node->frame = frame;
    node->shared = true; // never freed by a process tree
    if (leaf)
        node->child.fill(nullptr);
    nodes_++;
    return node.release();
}

void
FileTable::freeNode(arch::Node *node)
{
    frames_.free(node->frame);
    nodes_--;
    delete node;
}

void
FileTable::chargePersist(sim::Cpu *cpu, std::uint64_t entries)
{
    if (!persistent_ || cpu == nullptr || entries == 0)
        return;
    // PTE flushes are batched at cache-line granularity: 8 entries
    // per clwb+fence (paper Section IV-A1).
    const std::uint64_t lines = (entries + 7) / 8;
    cpu->advance(cm_.tablePersistLine * lines);
}

FileTable::Chunk &
FileTable::ensurePte(sim::Cpu *cpu, std::uint64_t chunk)
{
    Chunk &state = chunks_[chunk];
    if (state.pte == nullptr) {
        state.pte = newNode(/*leaf=*/true);
        state.huge = 0;
        if (cpu != nullptr)
            cpu->advance(cm_.ptPageAlloc);
        chargePersist(cpu, 1);
        syncPmdEntry(chunk);
    }
    return state;
}

void
FileTable::syncPmdEntry(std::uint64_t chunk)
{
    auto it = pmds_.find(chunk / kChunksPerGig);
    if (it == pmds_.end())
        return;
    arch::Node *pmd = it->second;
    const auto idx = static_cast<unsigned>(chunk % kChunksPerGig);
    auto cit = chunks_.find(chunk);
    if (cit == chunks_.end()) {
        pmd->child[idx] = nullptr;
        pmd->setEntry(idx, 0);
    } else if (cit->second.pte != nullptr) {
        pmd->child[idx] = cit->second.pte;
        pmd->setEntry(idx,
                      arch::pte::make(cit->second.pte->frame,
                                      kLeafFlags));
    } else {
        pmd->child[idx] = nullptr;
        pmd->setEntry(idx, cit->second.huge);
    }
}

void
FileTable::populate(sim::Cpu *cpu, std::uint64_t fileBlock,
                    const fs::Extent &extent,
                    std::uint64_t blockAddrBase)
{
    std::uint64_t fb = fileBlock;
    std::uint64_t pb = extent.block;
    std::uint64_t left = extent.count;

    while (left > 0) {
        const std::uint64_t chunk = fb / fs::kBlocksPerHuge;
        const std::uint64_t inChunk = fb % fs::kBlocksPerHuge;
        const std::uint64_t chunkLeft = fs::kBlocksPerHuge - inChunk;
        const std::uint64_t n = left < chunkLeft ? left : chunkLeft;

        const std::uint64_t pa = blockAddrBase + pb * fs::kBlockSize;
        auto existing = chunks_.find(chunk);
        if (inChunk == 0 && n == fs::kBlocksPerHuge
            && pb % fs::kBlocksPerHuge == 0
            && (existing == chunks_.end()
                || existing->second.pte == nullptr)) {
            // Whole aligned 2 MB chunk: one huge entry, no PTE page.
            chunks_[chunk].huge =
                arch::pte::make(pa, kLeafFlags | arch::pte::kHuge);
            chargePersist(cpu, 1);
        } else {
            Chunk &state = ensurePte(cpu, chunk);
            for (std::uint64_t i = 0; i < n; i++) {
                const auto idx = static_cast<unsigned>(inChunk + i);
                state.pte->setEntry(
                    idx, arch::pte::make(pa + i * fs::kBlockSize,
                                         kLeafFlags));
                state.present.set(idx);
            }
            chargePersist(cpu, n);
        }
        syncPmdEntry(chunk);
        fb += n;
        pb += n;
        left -= n;
    }
}

void
FileTable::clearRange(sim::Cpu *cpu, std::uint64_t fileBlock,
                      std::uint64_t count)
{
    std::uint64_t fb = fileBlock;
    std::uint64_t left = count;
    while (left > 0) {
        const std::uint64_t chunk = fb / fs::kBlocksPerHuge;
        const std::uint64_t inChunk = fb % fs::kBlocksPerHuge;
        const std::uint64_t chunkLeft = fs::kBlocksPerHuge - inChunk;
        const std::uint64_t n = left < chunkLeft ? left : chunkLeft;

        auto it = chunks_.find(chunk);
        if (it != chunks_.end()) {
            Chunk &state = it->second;
            if (state.pte != nullptr) {
                for (std::uint64_t i = 0; i < n; i++) {
                    const auto idx = static_cast<unsigned>(inChunk + i);
                    state.pte->setEntry(idx, 0);
                    state.present.reset(idx);
                }
                chargePersist(cpu, n);
                // Release the PTE page once its last entry clears.
                if (state.present.none()) {
                    freeNode(state.pte);
                    chunks_.erase(it);
                }
            } else if (state.huge != 0) {
                state.huge = 0;
                chunks_.erase(it);
                chargePersist(cpu, 1);
            }
            syncPmdEntry(chunk);
        }
        fb += n;
        left -= n;
    }
}

arch::Node *
FileTable::pteNode(std::uint64_t chunk) const
{
    auto it = chunks_.find(chunk);
    return it == chunks_.end() ? nullptr : it->second.pte;
}

arch::Node *
FileTable::pmdNode(std::uint64_t gchunk) const
{
    // Materialize the PMD-level node on first use (>1 GB files that
    // attach at PUD level); tables stay bottom-up fragments otherwise.
    auto it = pmds_.find(gchunk);
    if (it != pmds_.end())
        return it->second;
    auto *self = const_cast<FileTable *>(this);
    const std::uint64_t lo = gchunk * kChunksPerGig;
    auto cit = chunks_.lower_bound(lo);
    if (cit == chunks_.end() || cit->first >= lo + kChunksPerGig)
        return nullptr; // nothing mapped in this 1 GB chunk
    arch::Node *pmd = self->newNode(/*leaf=*/false);
    self->pmds_.emplace(gchunk, pmd);
    for (; cit != chunks_.end() && cit->first < lo + kChunksPerGig;
         ++cit) {
        self->syncPmdEntry(cit->first);
    }
    return pmd;
}

arch::Pte
FileTable::hugeEntry(std::uint64_t chunk) const
{
    auto it = chunks_.find(chunk);
    return it == chunks_.end() ? 0 : it->second.huge;
}

// ---------------------------------------------------------------------
// FileTableManager
// ---------------------------------------------------------------------

FileTableManager::FileTableManager(fs::FileSystem &fs,
                                   mem::FrameAllocator &dramFrames,
                                   mem::FrameAllocator &pmemFrames,
                                   const sim::CostModel &cm)
    : fs_(fs), dramFrames_(dramFrames), pmemFrames_(pmemFrames), cm_(cm)
{
    fs_.addHooks(this);
    sim::MetricsScope scope(fs_.metricsRegistry(), "daxvm");
    tableRebuilds_ = scope.counter("table_rebuilds");
    tableMigrations_ = scope.counter("table_migrations");
    tablePopulates_ = scope.counter("table_populates");
}

FileTableManager::~FileTableManager()
{
    fs_.removeHooks(this);
}

bool
FileTableManager::persistentPolicy(const fs::Inode &inode) const
{
    return inode.allocatedBlocks() * fs::kBlockSize
        > cm_.volatileTableMax;
}

void
FileTableManager::buildFromExtents(sim::Cpu *cpu, fs::Inode &inode,
                                   InodeTables &tables)
{
    const bool persistent = persistentPolicy(inode);
    auto &frames = persistent ? pmemFrames_ : dramFrames_;
    tables.table =
        std::make_unique<FileTable>(frames, persistent, cm_);
    for (const auto &[fb, extent] : inode.extents) {
        tables.table->populate(cpu, fb, extent,
                               fs_.blockAddr(0));
    }
    // First persistent build seals a fresh durable image; an existing
    // image means this is a re-instantiation of a surviving table.
    if (persistent && images_.count(inode.ino) == 0)
        updateImage(inode, true);
}

std::uint64_t
FileTableManager::imageChecksum(const PersistentImage &img)
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a offset basis
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    mix(img.generation);
    for (const auto &[fb, e] : img.extents) {
        mix(fb);
        mix(e.block);
        mix(e.count);
    }
    return h;
}

void
FileTableManager::beginUpdate(const fs::Inode &inode)
{
    auto it = images_.find(inode.ino);
    if (it != images_.end())
        it->second.midUpdate = true;
}

void
FileTableManager::updateImage(const fs::Inode &inode, bool persistent)
{
    if (!persistent) {
        images_.erase(inode.ino);
        return;
    }
    PersistentImage &img = images_[inode.ino];
    // The update window opens before any table line reaches the
    // medium (the hooks' beginUpdate(); a fresh image had nothing to
    // tear before this point): a crash inside it leaves the image
    // torn (midUpdate set, content stale) and attach-time validation
    // falls back to a rebuild from the extent tree.
    img.midUpdate = true;
    if (plan_ != nullptr)
        plan_->onEvent(sim::FaultEvent::TableUpdate, /*now=*/0);
    img.generation++;
    img.sealed = false;
    img.midUpdate = false;
}

void
FileTableManager::seal(fs::Ino ino, PersistentImage &img) const
{
    // A torn image is rebuilt whatever it holds.
    if (img.sealed || img.midUpdate)
        return;
    if (fs_.exists(ino)) {
        const auto &extents = fs_.inode(ino).extents;
        img.extents.assign(extents.begin(), extents.end());
    } else {
        // Unlinked: the last update saw freeAll() empty the map.
        img.extents.clear();
    }
    img.checksum = imageChecksum(img);
    img.sealed = true;
}

void
FileTableManager::sealImages()
{
    for (auto &[ino, img] : images_)
        seal(ino, img);
}

TableRecovery
FileTableManager::recoverAll()
{
    TableRecovery report;
    std::vector<fs::Ino> inos;
    inos.reserve(images_.size());
    for (const auto &[ino, img] : images_) {
        (void)img;
        inos.push_back(ino);
    }
    for (const fs::Ino ino : inos) {
        if (!fs_.exists(ino)) {
            // Uncommitted creation or unlinked file: its table frames
            // are already gone, drop the stale image.
            images_.erase(ino);
            report.dropped++;
            continue;
        }
        PersistentImage &img = images_[ino];
        fs::Inode &node = fs_.inode(ino);

        // Validate: sealed (not mid-update), checksum over generation
        // + layout intact, and the layout matches the committed
        // extent tree the journal recovered.
        bool valid = !img.midUpdate && img.sealed
                     && imageChecksum(img) == img.checksum
                     && img.extents.size() == node.extents.size();
        if (valid) {
            auto it = node.extents.begin();
            for (const auto &[fb, e] : img.extents) {
                if (it->first != fb || it->second.block != e.block
                    || it->second.count != e.count) {
                    valid = false;
                    break;
                }
                ++it;
            }
        }

        auto fresh = std::make_unique<InodeTables>();
        buildFromExtents(nullptr, node, *fresh);
        const bool persistent = fresh->table->persistent();
        node.priv = std::move(fresh);
        if (valid && persistent) {
            report.validated++;
        } else {
            // Torn/stale image (or the file shrank below the
            // volatile-table policy): rebuild and re-seal.
            report.rebuilt++;
            tableRebuilds_.add();
            updateImage(node, persistent);
        }
    }
    return report;
}

void
FileTableManager::populateAllBut(sim::Cpu &cpu, const fs::Inode &inode,
                                 FileTable &table, std::uint64_t fileBlock,
                                 std::uint64_t count)
{
    const std::uint64_t addedEnd = fileBlock + count;
    for (const auto &[fb, e] : inode.extents) {
        const std::uint64_t end = fb + e.count;
        if (fb < fileBlock) {
            const std::uint64_t n = std::min(end, fileBlock) - fb;
            table.populate(&cpu, fb, {e.block, n}, fs_.blockAddr(0));
        }
        if (end > addedEnd) {
            const std::uint64_t s = std::max(fb, addedEnd);
            table.populate(&cpu, s, {e.block + (s - fb), end - s},
                           fs_.blockAddr(0));
        }
    }
}

InodeTables &
FileTableManager::tables(sim::Cpu *cpu, fs::Ino ino)
{
    fs::Inode &node = fs_.inode(ino);
    auto *existing = dynamic_cast<InodeTables *>(node.priv.get());
    if (existing == nullptr) {
        auto fresh = std::make_unique<InodeTables>();
        existing = fresh.get();
        node.priv = std::move(fresh);
    }
    if (existing->table == nullptr)
        buildFromExtents(cpu, node, *existing);
    return *existing;
}

void
FileTableManager::onColdOpen(sim::Cpu &cpu, fs::Ino ino)
{
    fs::Inode &node = fs_.inode(ino);
    auto *t = dynamic_cast<InodeTables *>(node.priv.get());
    if (t != nullptr && t->table != nullptr)
        return; // persistent tables survived; nothing to rebuild
    tables(&cpu, ino);
}

void
FileTableManager::migrateToDram(sim::Cpu &cpu, fs::Ino ino)
{
    fs::Inode &node = fs_.inode(ino);
    InodeTables &t = tables(&cpu, ino);
    if (t.useMirror || !t.table->persistent())
        return;
    t.dramMirror =
        std::make_unique<FileTable>(dramFrames_, /*persistent=*/false,
                                    cm_);
    for (const auto &[fb, extent] : node.extents)
        t.dramMirror->populate(nullptr, fb, extent, fs_.blockAddr(0));
    // Charge the copy: table bytes written to DRAM.
    cpu.advance(sim::CostModel::xfer(t.table->bytes(),
                                     cm_.dramWriteBwCore));
    t.useMirror = true;
    tableMigrations_.addAt(cpu.coreId());
}

void
FileTableManager::onBlocksAllocated(sim::Cpu &cpu, fs::Inode &inode,
                                    std::uint64_t fileBlock,
                                    const fs::Extent &extent)
{
    auto *t = dynamic_cast<InodeTables *>(inode.priv.get());
    if (t == nullptr || t->table == nullptr) {
        // Untimed setup allocations (aging, corpus construction) do
        // not eagerly build tables; they are constructed lazily on
        // first open/mmap via tables(). A negative thread id marks
        // the setup scratch Cpu.
        if (cpu.threadId() < 0)
            return;
    }
    if (t == nullptr) {
        auto fresh = std::make_unique<InodeTables>();
        t = fresh.get();
        inode.priv = std::move(fresh);
    }
    // Populating below may allocate (and durably zero) table frames.
    beginUpdate(inode);
    const bool wantPersistent = persistentPolicy(inode);
    // A replaced table is freed only after its attachments moved.
    std::unique_ptr<FileTable> retired;
    if (t->table == nullptr) {
        // A first table, or one rebuilt after eviction dropped a
        // volatile table: it maps the blocks allocated before too.
        auto &frames = wantPersistent ? pmemFrames_ : dramFrames_;
        t->table = std::make_unique<FileTable>(frames, wantPersistent,
                                               cm_);
        populateAllBut(cpu, inode, *t->table, fileBlock, extent.count);
    } else if (wantPersistent && !t->table->persistent()) {
        // The file outgrew the volatile policy: persist the table
        // (rebuild in PMem frames, charged as flushed writes).
        auto persisted = std::make_unique<FileTable>(
            pmemFrames_, /*persistent=*/true, cm_);
        populateAllBut(cpu, inode, *persisted, fileBlock, extent.count);
        retired = std::exchange(t->table, std::move(persisted));
        if (reattach_ != nullptr)
            reattach_(reattachCtx_, cpu, inode.ino);
    }
    t->table->populate(&cpu, fileBlock, extent, fs_.blockAddr(0));
    if (t->useMirror && t->dramMirror != nullptr)
        t->dramMirror->populate(nullptr, fileBlock, extent,
                                fs_.blockAddr(0));
    updateImage(inode, t->table->persistent());
    tablePopulates_.addAt(cpu.coreId());
}

void
FileTableManager::onBlocksFreeing(sim::Cpu &cpu, fs::Inode &inode,
                                  std::uint64_t fileBlock,
                                  const fs::Extent &extent)
{
    auto *t = dynamic_cast<InodeTables *>(inode.priv.get());
    const bool hasTable = t != nullptr && t->table != nullptr;
    if (hasTable)
        beginUpdate(inode);

    // Storage reclamation: force synchronous unmapping of DaxVM
    // mappings of this file before the blocks can be reused
    // (paper Section IV-C, file system races).
    if (forceUnmap_ != nullptr)
        forceUnmap_(forceUnmapCtx_, cpu, inode.ino);

    if (!hasTable)
        return;
    t->table->clearRange(&cpu, fileBlock, extent.count);
    if (t->dramMirror != nullptr)
        t->dramMirror->clearRange(nullptr, fileBlock, extent.count);
    updateImage(inode, t->table->persistent());
}

void
FileTableManager::onBlocksRemapped(sim::Cpu &cpu, fs::Inode &inode,
                                   std::uint64_t fileBlock,
                                   const fs::Extent &oldExtent,
                                   const fs::Extent &newExtent)
{
    (void)oldExtent;
    auto *t = dynamic_cast<InodeTables *>(inode.priv.get());
    if (t == nullptr || t->table == nullptr)
        return; // no table yet: nothing attaches the retired block
    beginUpdate(inode);
    // O(1) repair: swap the translation in the shared table instead
    // of force-unmapping the whole file. The extent tree already
    // carries the replacement when this hook fires. A huge-mapped
    // chunk lost its physical contiguity, so it demotes to a PTE
    // node rebuilt from the tree.
    const std::uint64_t chunk = fileBlock / fs::kBlocksPerHuge;
    const std::uint64_t lo = chunk * fs::kBlocksPerHuge;
    const std::uint64_t hi = lo + fs::kBlocksPerHuge;
    auto repoint = [&](FileTable *table, sim::Cpu *tcpu) {
        if (table == nullptr)
            return;
        if (table->hugeEntry(chunk) != 0) {
            table->clearRange(tcpu, lo, fs::kBlocksPerHuge);
            for (const auto &[fb, e] : inode.extents) {
                if (fb + e.count <= lo || fb >= hi)
                    continue;
                const std::uint64_t s = fb > lo ? fb : lo;
                const std::uint64_t end =
                    fb + e.count < hi ? fb + e.count : hi;
                table->populate(tcpu, s,
                                fs::Extent{e.block + (s - fb), end - s},
                                fs_.blockAddr(0));
            }
        } else {
            // Overwrite the entries in place: clearing them first could
            // empty, and free, a PTE page a process is attached to.
            table->populate(tcpu, fileBlock, newExtent,
                            fs_.blockAddr(0));
        }
    };
    repoint(t->table.get(), &cpu);
    repoint(t->dramMirror.get(), nullptr);
    updateImage(inode, t->table->persistent());
    tablePopulates_.addAt(cpu.coreId());
    // The swap changed physical translations under live mappings:
    // the facade must fix private copies and flush stale TLB entries
    // (unlike mirror migration, which keeps translations identical).
    if (remapFixup_ != nullptr)
        remapFixup_(remapFixupCtx_, cpu, inode.ino, fileBlock);
}

void
FileTableManager::onInodeEvict(fs::Inode &inode)
{
    auto *t = dynamic_cast<InodeTables *>(inode.priv.get());
    if (t == nullptr)
        return;
    // Volatile tables die with the cached inode; persistent tables
    // (and their DRAM mirrors, which can be rebuilt) survive only as
    // the persistent part.
    t->dramMirror.reset();
    t->useMirror = false;
    if (t->table != nullptr && !t->table->persistent())
        t->table.reset();
}

} // namespace dax::daxvm
