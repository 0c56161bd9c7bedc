/**
 * @file
 * Unit tests for the DaxVM subsystem: file tables (placement,
 * persistence, maintenance), O(1) mmap semantics, per-process
 * permissions, ephemeral heap, asynchronous unmap (incl. the truncate
 * race), nosync mode, pre-zeroing, and the MMU monitor.
 */
#include <gtest/gtest.h>

#include <vector>

#include "daxvm/api.h"
#include "daxvm/file_table.h"
#include "daxvm/prezero.h"
#include "sim/rng.h"
#include "sys/system.h"

using namespace dax;
using namespace dax::daxvm;

namespace {

sys::SystemConfig
daxConfig()
{
    sys::SystemConfig config;
    config.cores = 4;
    config.pmemBytes = 512ULL << 20;
    config.pmemTableBytes = 64ULL << 20;
    config.dramBytes = 256ULL << 20;
    config.daxvm = true;
    config.prezero = true;
    return config;
}

struct Fixture
{
    Fixture() : system(daxConfig()), as(system.newProcess()) {}

    sys::System system;
    std::unique_ptr<vm::AddressSpace> as;
    sim::Cpu cpu{nullptr, 0, 0};
    DaxVm &dax() { return *system.dax(); }
};

} // namespace

// ---------------------------------------------------------------------
// File tables
// ---------------------------------------------------------------------

TEST(FileTables, SmallFilesGetVolatileTables)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/small", 16 * 1024);
    auto &tables = f.system.fileTables()->tables(&f.cpu, ino);
    ASSERT_NE(tables.table, nullptr);
    EXPECT_FALSE(tables.table->persistent());
}

TEST(FileTables, LargeFilesGetPersistentTables)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/large", 1ULL << 20);
    auto &tables = f.system.fileTables()->tables(&f.cpu, ino);
    EXPECT_TRUE(tables.table->persistent());
}

TEST(FileTables, GrowthAcrossThresholdPersists)
{
    Fixture f;
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = f.system.fs().create(cpu, "/grow");
    f.system.fs().fallocate(cpu, ino, 0, 16 * 1024);
    EXPECT_FALSE(
        f.system.fileTables()->tables(&cpu, ino).table->persistent());
    f.system.fs().fallocate(cpu, ino, 0, 256 * 1024);
    EXPECT_TRUE(
        f.system.fileTables()->tables(&cpu, ino).table->persistent());
}

TEST(FileTables, TranslationsMatchExtents)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/t", 256 * 1024);
    auto &tables = f.system.fileTables()->tables(&f.cpu, ino);
    const fs::Inode &node = f.system.fs().inode(ino);
    arch::Node *pte = tables.table->pteNode(0);
    ASSERT_NE(pte, nullptr);
    for (unsigned i = 0; i < 64; i++) {
        const auto run = node.find(i);
        ASSERT_TRUE(run.has_value());
        EXPECT_EQ(arch::pte::addr(pte->entry(i)),
                  f.system.fs().blockAddr(run->physBlock));
    }
}

TEST(FileTables, ContiguousAlignedChunksBecomeHugeEntries)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/huge", 4ULL << 20);
    auto &tables = f.system.fileTables()->tables(&f.cpu, ino);
    EXPECT_NE(tables.table->hugeEntry(0), 0u);
    EXPECT_NE(tables.table->hugeEntry(1), 0u);
    EXPECT_EQ(tables.table->pteNode(0), nullptr);
}

TEST(FileTables, PersistentTablesLiveInPmemFrames)
{
    Fixture f;
    const auto before = f.system.fileTables()->pmemTableBytes();
    // 1 MB: above the volatile threshold but not 2 MB-huge-mappable,
    // so a real PTE page is needed - allocated from PMem frames.
    f.system.makeFile("/big", 1ULL << 20);
    sim::Cpu cpu(nullptr, 0, 0);
    f.system.fileTables()->tables(&cpu,
                                  *f.system.fs().lookupPath("/big"));
    EXPECT_GT(f.system.fileTables()->pmemTableBytes(), before);
}

TEST(FileTables, HugeMappedFilesNeedNoTablePages)
{
    // A fully 2 MB-contiguous file is represented by huge entries
    // alone: zero PTE pages (bottom-up fragments, Section IV-A1).
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/aligned", 2ULL << 20);
    auto &tables = f.system.fileTables()->tables(&f.cpu, ino);
    EXPECT_EQ(tables.table->nodeCount(), 0u);
    EXPECT_NE(tables.table->hugeEntry(0), 0u);
}

TEST(FileTables, StorageOverheadRoughlyQuarterPercent)
{
    // Paper Section V-B: ~4 KB of table per 2 MB of data (0.2%), plus
    // interior nodes.
    Fixture f;
    const std::uint64_t bytes = 64ULL << 20;
    const fs::Ino ino = f.system.makeFile("/acct", bytes);
    auto &tables = f.system.fileTables()->tables(&f.cpu, ino);
    const double overhead = static_cast<double>(tables.table->bytes())
                          / static_cast<double>(bytes);
    EXPECT_LT(overhead, 0.005);
}

TEST(FileTables, TruncateClearsEntries)
{
    Fixture f;
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = f.system.fs().create(cpu, "/t");
    f.system.fs().fallocate(cpu, ino, 0, 256 * 1024);
    auto &tables = f.system.fileTables()->tables(&cpu, ino);
    arch::Node *pte = tables.table->pteNode(0);
    ASSERT_NE(pte, nullptr);
    ASSERT_TRUE(arch::pte::present(pte->entry(10)));
    f.system.fs().ftruncate(cpu, ino, 4096);
    EXPECT_FALSE(arch::pte::present(pte->entry(10)));
    EXPECT_TRUE(arch::pte::present(pte->entry(0)));
}

TEST(FileTables, VolatileTablesDieOnEvictionPersistentSurvive)
{
    Fixture f;
    const fs::Ino small = f.system.makeFile("/small", 8 * 1024);
    const fs::Ino large = f.system.makeFile("/large", 1ULL << 20);
    sim::Cpu cpu(nullptr, 0, 0);
    // Route through the VFS so the inodes are cached (volatile table
    // lifetime == inode-cache residency).
    f.system.open(cpu, "/small");
    f.system.open(cpu, "/large");
    f.system.vfs().close(cpu, small);
    f.system.vfs().close(cpu, large);
    f.system.remount();
    auto *ps = dynamic_cast<InodeTables *>(
        f.system.fs().inode(small).priv.get());
    auto *pl = dynamic_cast<InodeTables *>(
        f.system.fs().inode(large).priv.get());
    ASSERT_NE(ps, nullptr);
    ASSERT_NE(pl, nullptr);
    EXPECT_EQ(ps->table, nullptr);      // volatile: destroyed
    ASSERT_NE(pl->table, nullptr);      // persistent: survived
    EXPECT_TRUE(pl->table->persistent());
}

TEST(FileTables, ColdOpenRebuildsVolatileTables)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/small", 8 * 1024);
    sim::Cpu cpu(nullptr, 0, 0);
    auto r1 = f.system.open(cpu, "/small");
    ASSERT_TRUE(r1.has_value());
    f.system.vfs().close(cpu, ino);
    f.system.remount();
    auto r2 = f.system.open(cpu, "/small");
    ASSERT_TRUE(r2->cold);
    auto *p = dynamic_cast<InodeTables *>(
        f.system.fs().inode(ino).priv.get());
    ASSERT_NE(p, nullptr);
    ASSERT_NE(p->table, nullptr);
    EXPECT_NE(p->table->pteNode(0), nullptr);
    f.system.vfs().close(cpu, ino);
}

TEST(FileTables, PersistentUpdateChargesFlushes)
{
    Fixture f;
    sim::Cpu volat(nullptr, 0, 0), persist(nullptr, 0, 0);
    const fs::Ino a = f.system.fs().create(volat, "/v");
    f.system.fs().fallocate(volat, a, 0, 16 * 1024); // volatile table
    const fs::Ino b = f.system.fs().create(persist, "/p");
    f.system.fs().fallocate(persist, b, 0, 16 * 1024);
    f.system.fs().fallocate(persist, b, 16 * 1024, 256 * 1024);
    // Not a precise comparison, just: the persistent path (more data
    // plus clwb charging) must cost more than the volatile path.
    EXPECT_GT(persist.now(), volat.now());
}

TEST(FileTables, PersistingAMergedTailPopulatesEachBlockOnce)
{
    // A file with a volatile table grows past the policy threshold,
    // and extendTo has merged the new blocks into the tail extent
    // when the hook fires. The persistent rebuild must charge what
    // one build from the final extent map charges.
    Fixture f;
    sim::Cpu cpu(nullptr, 0, 0);
    fs::FileSystem &fs = f.system.fs();
    const fs::Ino ino = fs.create(cpu, "/grow");
    fs.fallocate(cpu, ino, 0, 32 * 1024); // 8 blocks: volatile table
    fs::Inode &node = fs.inode(ino);
    ASSERT_EQ(node.extents.size(), 1u);
    fs::Extent &tail = node.extents.begin()->second;

    // Grow by 8 contiguous blocks as extendTo does: merge, then hook.
    const std::vector<fs::Extent> got =
        fs.allocator().alloc(8, tail.endBlock());
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(got[0].block, tail.endBlock());
    tail.count += got[0].count;
    node.allocatedCount += got[0].count;
    sim::Cpu rebuild(nullptr, 0, 0);
    f.system.fileTables()->onBlocksAllocated(rebuild, node, 8, got[0]);
    auto &tables = f.system.fileTables()->tables(&cpu, ino);
    ASSERT_TRUE(tables.table->persistent());

    // One build from the final extent map, on a fresh clock.
    tables.table.reset();
    sim::Cpu single(nullptr, 0, 0);
    f.system.fileTables()->tables(&single, ino);
    EXPECT_EQ(rebuild.now(), single.now());
}

TEST(FileTables, GrowingAnEvictedVolatileTableKeepsItsOlderBlocks)
{
    // remount() drops a small file's volatile table. The next timed
    // allocation builds a new one, which must map the blocks allocated
    // before as well as the added one.
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/small", 16 * 1024);
    sim::Cpu cpu(nullptr, 0, 0);
    ASSERT_TRUE(f.system.open(cpu, "/small").has_value());
    f.system.vfs().close(cpu, ino);
    f.system.remount();
    ASSERT_TRUE(f.system.fs().fallocate(cpu, ino, 16 * 1024, 4 * 1024));

    const fs::Inode &node = f.system.fs().inode(ino);
    auto &tables = f.system.fileTables()->tables(&cpu, ino);
    ASSERT_FALSE(tables.table->persistent());
    const arch::Node *pte = tables.table->pteNode(0);
    ASSERT_NE(pte, nullptr);
    for (unsigned i = 0; i < 5; i++) {
        SCOPED_TRACE("entry " + std::to_string(i));
        const auto run = node.find(i);
        ASSERT_TRUE(run.has_value());
        ASSERT_TRUE(arch::pte::present(pte->entry(i)));
        EXPECT_EQ(arch::pte::addr(pte->entry(i)),
                  f.system.fs().blockAddr(run->physBlock));
    }
    EXPECT_FALSE(arch::pte::present(pte->entry(5)));
}

TEST(FileTables, EmptinessMatchesFullScan)
{
    // clearRange() frees a PTE page when the table's host-side record
    // says the page is empty. After every seeded populate, clearRange
    // and in-place remap, a reference that scans all 512 entries of
    // every page must agree on which chunks hold a page, and the
    // table's node count and frame use must match it.
    sim::CostModel cm;
    mem::Device dram(mem::Kind::Dram, 16ULL << 20, cm);
    mem::FrameAllocator frames(dram, 0, 16ULL << 20);
    constexpr std::uint64_t kChunks = 3;
    constexpr std::uint64_t kBlocks = kChunks * fs::kBlocksPerHuge;
    constexpr std::uint64_t kNone = ~0ULL;
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        sim::Rng rng(seed);
        FileTable table(frames, /*persistent=*/false, cm);
        // Physical block each file block translates to, or kNone.
        std::vector<std::uint64_t> ref(kBlocks, kNone);
        std::uint64_t remaps = 0;
        std::uint64_t pageFrees = 0;
        for (int step = 0; step < 3000; step++) {
            const auto op = rng.below(3);
            // A few dozen blocks at each end of a chunk, so pages fill
            // and empty often; runs from the top end cross into the
            // next chunk. No run spans a whole chunk, so no chunk
            // becomes a huge entry.
            const std::uint64_t fb =
                rng.below(kChunks) * fs::kBlocksPerHuge
                + (rng.below(2) == 0 ? rng.below(24)
                                     : fs::kBlocksPerHuge - 12
                                           + rng.below(12));
            const std::uint64_t n = std::min<std::uint64_t>(
                1 + rng.below(op == 1 ? 32 : 8), kBlocks - fb);
            const std::uint64_t phys = 1 + rng.below(1ULL << 20);
            const std::uint64_t pagesBefore = table.nodeCount();
            if (op == 0) {
                table.populate(nullptr, fb, {phys, n}, 0);
                for (std::uint64_t i = 0; i < n; i++)
                    ref[fb + i] = phys + i;
            } else if (op == 1) {
                table.clearRange(nullptr, fb, n);
                for (std::uint64_t i = 0; i < n; i++)
                    ref[fb + i] = kNone;
                pageFrees += pagesBefore - table.nodeCount();
            } else if (ref[fb] != kNone) {
                // Media repair: one present entry swapped in place.
                table.populate(nullptr, fb, {phys, 1}, 0);
                ref[fb] = phys;
                remaps++;
            }

            std::uint64_t pages = 0;
            for (std::uint64_t c = 0; c < kChunks; c++) {
                bool any = false;
                for (std::uint64_t i = 0; i < fs::kBlocksPerHuge; i++)
                    any = any || ref[c * fs::kBlocksPerHuge + i] != kNone;
                const arch::Node *page = table.pteNode(c);
                ASSERT_EQ(page != nullptr, any)
                    << "seed " << seed << " step " << step << " chunk "
                    << c;
                if (page == nullptr)
                    continue;
                pages++;
                for (unsigned i = 0; i < arch::kEntriesPerNode; i++) {
                    const std::uint64_t want =
                        ref[c * fs::kBlocksPerHuge + i];
                    const arch::Pte e = page->entry(i);
                    ASSERT_EQ(arch::pte::present(e), want != kNone)
                        << "seed " << seed << " step " << step;
                    if (want != kNone) {
                        ASSERT_EQ(arch::pte::addr(e),
                                  want * fs::kBlockSize);
                    }
                }
            }
            ASSERT_EQ(table.nodeCount(), pages) << "step " << step;
            ASSERT_EQ(frames.allocated(), pages) << "step " << step;
        }
        EXPECT_GT(remaps, 100u);
        EXPECT_GT(pageFrees, 10u);
    }
}

// ---------------------------------------------------------------------
// Attached nodes outlive their attachments. Each test reads through a
// mapping after an event that used to free the file-table node the
// process tree points at (a heap-use-after-free under ASan).
// ---------------------------------------------------------------------

namespace {

/** Read @p len bytes of @p ino at @p va and check its fill pattern. */
void
expectPattern(vm::AddressSpace &as, sim::Cpu &cpu, std::uint64_t va,
              fs::Ino ino, std::uint64_t len)
{
    std::vector<std::uint8_t> buf(len);
    as.memRead(cpu, va, len, mem::Pattern::Seq, buf.data());
    for (std::uint64_t i = 0; i < len; i += 511)
        ASSERT_EQ(buf[i], sys::System::patternByte(ino, i)) << i;
}

} // namespace

TEST(TableLifetime, LiveMappingKeepsTheInodeCached)
{
    // As in Linux, where the mapping's file reference pins the inode:
    // neither remount() nor dropCaches() may evict a mapped inode and
    // take its volatile table with it.
    Fixture f;
    constexpr std::uint64_t kLen = 16 * 1024;
    const fs::Ino ino = f.system.makeFile("/small", kLen, kLen);
    ASSERT_TRUE(f.system.open(f.cpu, "/small").has_value());
    const std::uint64_t va =
        f.dax().mmap(f.cpu, *f.as, ino, 0, kLen, false, 0);
    ASSERT_NE(va, 0u);
    f.system.vfs().close(f.cpu, ino);

    f.system.remount();
    EXPECT_TRUE(f.system.vfs().isCached(ino));
    expectPattern(*f.as, f.cpu, va, ino, kLen);
    f.system.vfs().dropCaches();
    EXPECT_TRUE(f.system.vfs().isCached(ino));
    expectPattern(*f.as, f.cpu, va, ino, kLen);

    // Unmapped, the inode goes and its volatile table with it.
    ASSERT_TRUE(f.dax().munmap(f.cpu, *f.as, va));
    f.system.remount();
    EXPECT_FALSE(f.system.vfs().isCached(ino));
    auto *t = dynamic_cast<InodeTables *>(
        f.system.fs().inode(ino).priv.get());
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->table, nullptr);
}

TEST(TableLifetime, LruEvictionSkipsMappedInodes)
{
    sys::SystemConfig config = daxConfig();
    config.inodeCacheCapacity = 1;
    sys::System system(config);
    auto as = system.newProcess();
    sim::Cpu cpu(nullptr, 0, 0);
    constexpr std::uint64_t kLen = 16 * 1024;
    const fs::Ino a = system.makeFile("/a", kLen, kLen);
    const fs::Ino b = system.makeFile("/b", kLen, kLen);
    ASSERT_TRUE(system.open(cpu, "/a").has_value());
    const std::uint64_t va =
        system.dax()->mmap(cpu, *as, a, 0, kLen, false, 0);
    ASSERT_NE(va, 0u);
    system.vfs().close(cpu, a);

    // Opening /b overflows the cache; /a is unpinned but mapped.
    ASSERT_TRUE(system.open(cpu, "/b").has_value());
    EXPECT_TRUE(system.vfs().isCached(a));
    expectPattern(*as, cpu, va, a, kLen);
    system.vfs().close(cpu, b);

    // Unmapped, /a is the LRU victim of the next cold open.
    ASSERT_TRUE(system.dax()->munmap(cpu, *as, va));
    system.makeFile("/c", kLen);
    ASSERT_TRUE(system.open(cpu, "/c").has_value());
    EXPECT_FALSE(system.vfs().isCached(a));
}

TEST(TableLifetime, GrowingAMappedFileRepointsItsAttachment)
{
    // Past the volatile limit the table is rebuilt in PMem; the
    // process must be re-pointed at the new PTE page before the DRAM
    // one is freed.
    Fixture f;
    sim::Cpu cpu(nullptr, 0, 0);
    fs::FileSystem &fs = f.system.fs();
    const fs::Ino ino = fs.create(cpu, "/grow");
    ASSERT_TRUE(fs.fallocate(cpu, ino, 0, 16 * 1024));
    const std::uint64_t va =
        f.dax().mmap(cpu, *f.as, ino, 0, 16 * 1024, false, 0);
    ASSERT_NE(va, 0u);
    f.as->memRead(cpu, va, 16 * 1024, mem::Pattern::Seq);
    ASSERT_FALSE(
        f.system.fileTables()->tables(&cpu, ino).table->persistent());

    constexpr std::uint64_t kGrown = 16 * 1024 + 256 * 1024;
    ASSERT_TRUE(fs.fallocate(cpu, ino, 16 * 1024, 256 * 1024));
    auto &tables = f.system.fileTables()->tables(&cpu, ino);
    ASSERT_TRUE(tables.table->persistent());
    arch::PageTable &pt = f.as->pageTable();
    EXPECT_EQ(pt.attachedNode(va, arch::kPmdLevel),
              tables.table->pteNode(0));
    for (std::uint64_t off = 0; off < kGrown; off += mem::kPageSize) {
        const arch::WalkResult walk = pt.lookup(va + off);
        ASSERT_TRUE(walk.present) << off;
        EXPECT_EQ(walk.paddr,
                  fs.blockAddr(
                      fs.inode(ino).find(off / fs::kBlockSize)->physBlock))
            << off;
        EXPECT_FALSE(walk.leafInDram) << off;
    }
    // The process reads what it mapped through the MMU, then unmaps.
    f.as->memRead(cpu, va, 16 * 1024, mem::Pattern::Seq);
    ASSERT_TRUE(f.dax().munmap(cpu, *f.as, va));
}

TEST(TableLifetime, RepairingTheOnlyEntryOfAnAttachedPageKeepsThePage)
{
    // A 4 KB file's PTE page holds one entry. Repairing its block
    // swaps that entry in place; clearing it first would empty, and
    // free, the page the process is attached to.
    sys::SystemConfig config = daxConfig();
    config.mediaPolicy = fs::MediaPolicy::RemapZero;
    sys::System system(config);
    auto as = system.newProcess();
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = system.makeFile("/one", 4096, 4096);
    const std::uint64_t va =
        system.dax()->mmap(cpu, *as, ino, 0, 4096, false, 0);
    ASSERT_NE(va, 0u);
    auto &tables = system.fileTables()->tables(&cpu, ino);
    arch::Node *page = tables.table->pteNode(0);
    ASSERT_NE(page, nullptr);
    arch::PageTable &pt = as->pageTable();
    ASSERT_EQ(pt.attachedNode(va, arch::kPmdLevel), page);
    as->memRead(cpu, va, 64, mem::Pattern::Seq);

    fs::FileSystem &fs = system.fs();
    const std::uint64_t oldPa = fs.blockAddr(fs.inode(ino).find(0)->physBlock);
    system.pmem().poisonLine(oldPa);
    std::uint8_t got = 0xff;
    as->memRead(cpu, va, 1, mem::Pattern::Rand, &got);
    EXPECT_EQ(got, 0u);
    EXPECT_EQ(fs.mceRepaired(), 1u);

    const std::uint64_t newPa =
        fs.blockAddr(fs.inode(ino).find(0)->physBlock);
    EXPECT_NE(newPa, oldPa);
    EXPECT_EQ(tables.table->pteNode(0), page);
    EXPECT_EQ(pt.attachedNode(va, arch::kPmdLevel), page);
    const arch::WalkResult walk = pt.lookup(va);
    ASSERT_TRUE(walk.present);
    EXPECT_EQ(walk.paddr, newPa);
    EXPECT_EQ(walk, pt.walkFromRoot(va));
}

// ---------------------------------------------------------------------
// daxvm_mmap semantics
// ---------------------------------------------------------------------

TEST(DaxMmap, ReadsCorrectBytes)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/d", 64 * 1024, 64 * 1024);
    const std::uint64_t va =
        f.dax().mmap(f.cpu, *f.as, ino, 0, 64 * 1024, false, 0);
    ASSERT_NE(va, 0u);
    std::vector<std::uint8_t> buf(64 * 1024);
    f.as->memRead(f.cpu, va, buf.size(), mem::Pattern::Seq, buf.data());
    for (std::uint64_t i = 0; i < buf.size(); i += 777)
        ASSERT_EQ(buf[i], sys::System::patternByte(ino, i));
}

TEST(DaxMmap, NoFaultsEver)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/d", 256 * 1024);
    const std::uint64_t va =
        f.dax().mmap(f.cpu, *f.as, ino, 0, 256 * 1024, false, 0);
    f.as->memRead(f.cpu, va, 256 * 1024, mem::Pattern::Seq);
    EXPECT_EQ(f.system.metrics().counterValue("vm.faults"), 0u);
}

TEST(DaxMmap, AttachmentCostIndependentOfFileSize)
{
    // The O(1) property (paper Fig. 1a): daxvm_mmap cost scales with
    // attached granules, not pages, and beats populate by far.
    Fixture f;
    const fs::Ino small = f.system.makeFile("/s", 2ULL << 20);
    const fs::Ino large = f.system.makeFile("/l", 64ULL << 20);
    sim::Cpu c1(nullptr, 0, 0), c2(nullptr, 0, 0);
    f.dax().mmap(c1, *f.as, small, 0, 2ULL << 20, false, 0);
    f.dax().mmap(c2, *f.as, large, 0, 64ULL << 20, false, 0);
    EXPECT_LT(c2.now(), c1.now() * 40);
    // Even on a fresh (fully huge-mapped) image daxvm_mmap beats
    // populate; the gap explodes on fragmented images (see the
    // integration tests).
    auto as2 = f.system.newProcess();
    sim::Cpu c3(nullptr, 0, 0);
    as2->mmap(c3, large, 0, 64ULL << 20, false, vm::kMapPopulate);
    EXPECT_LT(c2.now(), c3.now());
}

TEST(DaxMmap, BeatsPopulateBy10xOnFragmentedFiles)
{
    // Force a 4 KB-fragmented file: an aged image leaves no aligned
    // 2 MB runs, so populate installs thousands of PTEs while DaxVM
    // attaches a handful of shared nodes.
    sys::SystemConfig config = daxConfig();
    sys::System system(config);
    fs::AgingConfig aging;
    aging.churnFactor = 1.5;
    system.age(aging);
    const fs::Ino ino = system.makeFile("/frag", 32ULL << 20);
    auto as1 = system.newProcess();
    auto as2 = system.newProcess();
    sim::Cpu c1(nullptr, 0, 0), c2(nullptr, 0, 0);
    ASSERT_NE(system.dax()->mmap(c1, *as1, ino, 0, 32ULL << 20, false,
                                 0),
              0u);
    ASSERT_NE(as2->mmap(c2, ino, 0, 32ULL << 20, false,
                        vm::kMapPopulate),
              0u);
    EXPECT_LT(c1.now() * 10, c2.now());
}

TEST(DaxMmap, RoundsToAttachmentSpan)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/d", 8ULL << 20, 0);
    // Request 4 KB at offset 3 MB: rounded to the containing 2 MB.
    const std::uint64_t va =
        f.dax().mmap(f.cpu, *f.as, ino, 3ULL << 20, 4096, false, 0);
    ASSERT_NE(va, 0u);
    EXPECT_EQ(va % mem::kHugePageSize, 1ULL << 20);
    // The silently mapped surrounding bytes are accessible.
    f.as->memRead(f.cpu, va - (1ULL << 20), 8, mem::Pattern::Rand);
    f.as->memRead(f.cpu, va + 4096, 8, mem::Pattern::Rand);
}

TEST(DaxMmap, FilesOver1GBAttachAtPud)
{
    sys::SystemConfig config = daxConfig();
    config.pmemBytes = 3ULL << 30;
    sys::System big(config);
    auto as = big.newProcess();
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = big.makeFile("/1g+", (1ULL << 30) + (4 << 20));
    const std::uint64_t va =
        big.dax()->mmap(cpu, *as, ino, 0, (1ULL << 30) + (4 << 20),
                        false, 0);
    ASSERT_NE(va, 0u);
    vm::Vma *vma = as->findVma(va);
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->attachLevel, arch::kPudLevel);
    as->memRead(cpu, va + (1ULL << 30), 8, mem::Pattern::Rand);
}

TEST(DaxMmap, PerProcessPermissionsOnSharedTables)
{
    Fixture f;
    auto writerAs = f.system.newProcess();
    auto readerAs = f.system.newProcess();
    const fs::Ino ino = f.system.makeFile("/sh", 2ULL << 20);
    sim::Cpu c1(nullptr, 0, 0), c2(nullptr, 1, 1);
    const std::uint64_t wva = f.dax().mmap(
        c1, *writerAs, ino, 0, 2ULL << 20, true, vm::kMapNoMsync);
    const std::uint64_t rva =
        f.dax().mmap(c2, *readerAs, ino, 0, 2ULL << 20, false, 0);
    const std::uint64_t magic = 0xfeedfacecafebeefULL;
    writerAs->memWrite(c1, wva, 8, mem::Pattern::Rand,
                       mem::WriteMode::NtStore, &magic);
    std::uint64_t got = 0;
    readerAs->memRead(c2, rva, 8, mem::Pattern::Rand, &got);
    EXPECT_EQ(got, magic);
    // The read-only process cannot write through the shared tables.
    EXPECT_THROW(readerAs->memWrite(c2, rva, 8, mem::Pattern::Rand),
                 std::runtime_error);
}

TEST(DaxMmap, MprotectPartialFailsFullWorks)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/d", 4ULL << 20);
    const std::uint64_t va = f.dax().mmap(
        f.cpu, *f.as, ino, 0, 4ULL << 20, true, vm::kMapNoMsync);
    EXPECT_FALSE(f.as->mprotect(f.cpu, va, 2ULL << 20, false));
    vm::Vma *vma = f.as->findVma(va);
    ASSERT_NE(vma, nullptr);
    EXPECT_TRUE(
        f.as->mprotect(f.cpu, vma->start, vma->length(), false));
}

TEST(DaxMmap, MapOfMissingFileFails)
{
    Fixture f;
    EXPECT_EQ(f.dax().mmap(f.cpu, *f.as, 9999, 0, 4096, false, 0), 0u);
    const fs::Ino empty = f.system.fs().create(f.cpu, "/empty");
    EXPECT_EQ(f.dax().mmap(f.cpu, *f.as, empty, 0, 4096, false, 0), 0u);
}

// ---------------------------------------------------------------------
// Ephemeral heap
// ---------------------------------------------------------------------

TEST(Ephemeral, MapAccessUnmapWorks)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/e", 32 * 1024, 32 * 1024);
    const std::uint64_t va = f.dax().mmap(
        f.cpu, *f.as, ino, 0, 32 * 1024, false, vm::kMapEphemeral);
    ASSERT_NE(va, 0u);
    std::uint8_t b = 0;
    f.as->memRead(f.cpu, va + 100, 1, mem::Pattern::Rand, &b);
    EXPECT_EQ(b, sys::System::patternByte(ino, 100));
    EXPECT_TRUE(f.dax().munmap(f.cpu, *f.as, va));
}

TEST(Ephemeral, MprotectRejected)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/e", 32 * 1024);
    const std::uint64_t va = f.dax().mmap(
        f.cpu, *f.as, ino, 0, 32 * 1024, false, vm::kMapEphemeral);
    EXPECT_FALSE(f.as->mprotect(f.cpu, va, 32 * 1024, true));
}

TEST(Ephemeral, MmapSemTakenOnlyAsReader)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/e", 32 * 1024);
    const auto writesBefore = f.as->mmapSem().writeStats().acquisitions;
    for (int i = 0; i < 10; i++) {
        const std::uint64_t va = f.dax().mmap(
            f.cpu, *f.as, ino, 0, 32 * 1024, false, vm::kMapEphemeral);
        f.dax().munmap(f.cpu, *f.as, va);
    }
    EXPECT_EQ(f.as->mmapSem().writeStats().acquisitions, writesBefore);
    EXPECT_GT(f.as->mmapSem().readStats().acquisitions, 0u);
}

TEST(Ephemeral, HeapAddressesRecycleWhenEmpty)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/e", 32 * 1024);
    const std::uint64_t va1 = f.dax().mmap(
        f.cpu, *f.as, ino, 0, 32 * 1024, false, vm::kMapEphemeral);
    ASSERT_TRUE(f.dax().munmap(f.cpu, *f.as, va1));
    const std::uint64_t va2 = f.dax().mmap(
        f.cpu, *f.as, ino, 0, 32 * 1024, false, vm::kMapEphemeral);
    EXPECT_EQ(va1, va2); // bump pointer reset after last unmap
    f.dax().munmap(f.cpu, *f.as, va2);
}

TEST(Ephemeral, ManyConcurrentMappingsCoexist)
{
    Fixture f;
    std::vector<std::uint64_t> vas;
    for (int i = 0; i < 64; i++) {
        const auto path = "/e" + std::to_string(i);
        const fs::Ino ino = f.system.makeFile(path, 8 * 1024, 128);
        vas.push_back(f.dax().mmap(f.cpu, *f.as, ino, 0, 8 * 1024,
                                   false, vm::kMapEphemeral));
    }
    for (std::size_t i = 0; i < vas.size(); i++) {
        std::uint8_t b = 0;
        f.as->memRead(f.cpu, vas[i] + 7, 1, mem::Pattern::Rand, &b);
        const fs::Ino ino =
            *f.system.fs().lookupPath("/e" + std::to_string(i));
        ASSERT_EQ(b, sys::System::patternByte(ino, 7));
    }
    for (const auto va : vas)
        ASSERT_TRUE(f.dax().munmap(f.cpu, *f.as, va));
}

// ---------------------------------------------------------------------
// Asynchronous unmap
// ---------------------------------------------------------------------

TEST(AsyncUnmap, AccessWindowStaysOpenUntilBatchFlush)
{
    Fixture f;
    f.dax().setAsyncBatchPages(100000); // don't auto-flush
    const fs::Ino ino = f.system.makeFile("/a", 32 * 1024, 1024);
    const std::uint64_t va = f.dax().mmap(
        f.cpu, *f.as, ino, 0, 32 * 1024, false,
        vm::kMapEphemeral | vm::kMapUnmapAsync);
    ASSERT_TRUE(f.dax().munmap(f.cpu, *f.as, va));
    // Paper Section IV-G: accesses in the window still succeed.
    std::uint8_t b = 0;
    f.as->memRead(f.cpu, va, 1, mem::Pattern::Rand, &b);
    EXPECT_EQ(b, sys::System::patternByte(ino, 0));
    // After the forced flush the translation is gone.
    f.dax().flushZombies(f.cpu, *f.as);
    EXPECT_THROW(f.as->memRead(f.cpu, va, 1, mem::Pattern::Rand),
                 std::runtime_error);
}

TEST(AsyncUnmap, BatchThresholdTriggersSingleFullFlush)
{
    Fixture f;
    // Zombie accounting counts *used* pages (a 4 KB file contributes
    // one page even though a 2 MB granule is attached).
    f.dax().setAsyncBatchPages(4);
    const auto flushesBefore =
        f.system.metrics().counterValue("tlb.full_flushes");
    const fs::Ino ino = f.system.makeFile("/a", 4096);
    for (int i = 0; i < 4; i++) {
        const std::uint64_t va = f.dax().mmap(
            f.cpu, *f.as, ino, 0, 4096, false,
            vm::kMapEphemeral | vm::kMapUnmapAsync);
        f.dax().munmap(f.cpu, *f.as, va);
    }
    EXPECT_GT(f.system.metrics().counterValue("tlb.full_flushes"),
              flushesBefore);
    EXPECT_EQ(f.dax().unmapper().pendingPages(*f.as), 0u);
}

TEST(AsyncUnmap, LargerBatchDefersLonger)
{
    Fixture f;
    f.dax().setAsyncBatchPages(8);
    const fs::Ino ino = f.system.makeFile("/a", 4096);
    std::uint64_t lastVa = 0;
    for (int i = 0; i < 7; i++) {
        lastVa = f.dax().mmap(f.cpu, *f.as, ino, 0, 4096, false,
                              vm::kMapEphemeral | vm::kMapUnmapAsync);
        f.dax().munmap(f.cpu, *f.as, lastVa);
    }
    EXPECT_EQ(f.dax().unmapper().pendingPages(*f.as), 7u);
    // The eighth crosses the batch and flushes everything.
    lastVa = f.dax().mmap(f.cpu, *f.as, ino, 0, 4096, false,
                          vm::kMapEphemeral | vm::kMapUnmapAsync);
    f.dax().munmap(f.cpu, *f.as, lastVa);
    EXPECT_EQ(f.dax().unmapper().pendingPages(*f.as), 0u);
}

TEST(AsyncUnmap, ExitedProcessLeavesNoZombiesToTheNext)
{
    // A process that exits below the batch threshold takes its zombie
    // list with it. Were the state keyed by the AddressSpace's heap
    // address, the next process the allocator placed there would
    // inherit the list and flush early, and simulated output would
    // depend on host allocation.
    Fixture f;
    f.dax().setAsyncBatchPages(8);
    const fs::Ino ino = f.system.makeFile("/a", 4096);
    for (int i = 0; i < 3; i++) {
        auto doomed = f.system.newProcess();
        const std::uint64_t va = f.dax().mmap(
            f.cpu, *doomed, ino, 0, 4096, false,
            vm::kMapEphemeral | vm::kMapUnmapAsync);
        f.dax().munmap(f.cpu, *doomed, va);
        ASSERT_EQ(f.dax().unmapper().pendingPages(*doomed), 1u);
    }
    auto next = f.system.newProcess();
    EXPECT_EQ(f.dax().unmapper().pendingPages(*next), 0u);
    for (int i = 0; i < 7; i++) {
        const std::uint64_t va = f.dax().mmap(
            f.cpu, *next, ino, 0, 4096, false,
            vm::kMapEphemeral | vm::kMapUnmapAsync);
        f.dax().munmap(f.cpu, *next, va);
    }
    EXPECT_EQ(f.dax().unmapper().pendingPages(*next), 7u);
}

TEST(AsyncUnmap, TruncateForcesSynchronousUnmap)
{
    // Paper Section IV-C: storage reclamation forces zombie teardown
    // so no stale mapping can reach recycled blocks.
    Fixture f;
    f.dax().setAsyncBatchPages(100000);
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = f.system.makeFile("/a", 32 * 1024, 32);
    const std::uint64_t va = f.dax().mmap(
        cpu, *f.as, ino, 0, 32 * 1024, false,
        vm::kMapEphemeral | vm::kMapUnmapAsync);
    f.dax().munmap(cpu, *f.as, va); // zombie window open
    f.system.fs().ftruncate(cpu, ino, 0); // reclaims the blocks
    EXPECT_THROW(f.as->memRead(cpu, va, 1, mem::Pattern::Rand),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// nosync mode
// ---------------------------------------------------------------------

TEST(NoSync, NoDirtyTrackingNoFaults)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/n", 2ULL << 20);
    const std::uint64_t va = f.dax().mmap(
        f.cpu, *f.as, ino, 0, 2ULL << 20, true, vm::kMapNoMsync);
    f.as->memWrite(f.cpu, va, 1ULL << 20, mem::Pattern::Seq);
    EXPECT_EQ(f.system.metrics().counterValue("vm.faults"), 0u);
    EXPECT_EQ(f.system.vmm().dirtyPages(ino), 0u);
    // msync is a no-op.
    EXPECT_TRUE(f.as->msync(f.cpu, va, 2ULL << 20));
    EXPECT_EQ(f.system.metrics().counterValue("vm.msync_noop"), 1u);
}

TEST(NoSync, TrackedDaxvmMappingFaultsAt2M)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/t", 4ULL << 20);
    const std::uint64_t va =
        f.dax().mmap(f.cpu, *f.as, ino, 0, 4ULL << 20, true, 0);
    f.as->memWrite(f.cpu, va, 4ULL << 20, mem::Pattern::Seq);
    // 4 MB written: exactly two 2 MB-granularity permission faults.
    EXPECT_EQ(f.system.metrics().counterValue("vm.daxvm_wp_faults"), 2u);
    EXPECT_EQ(f.system.vmm().dirtyPages(ino), 1024u);
}

TEST(NoSync, PosixMsyncFlushesWholeFileWhenCoexisting)
{
    // Paper Section IV-D: the POSIX process pays for the nosync
    // process's invisible writes by flushing the entire file.
    Fixture f;
    auto posixAs = f.system.newProcess();
    const fs::Ino ino = f.system.makeFile("/mix", 4ULL << 20);
    sim::Cpu c1(nullptr, 0, 0), c2(nullptr, 1, 1);
    f.dax().mmap(c1, *f.as, ino, 0, 4ULL << 20, true, vm::kMapNoMsync);
    const std::uint64_t pva =
        posixAs->mmap(c2, ino, 0, 4ULL << 20, true, 0);
    posixAs->memWrite(c2, pva, 4096, mem::Pattern::Rand,
                      mem::WriteMode::Cached);
    posixAs->msync(c2, pva, 4096);
    EXPECT_EQ(f.system.metrics().counterValue("vm.sync_whole_file"), 1u);
}

// ---------------------------------------------------------------------
// Pre-zeroing
// ---------------------------------------------------------------------

TEST(Prezero, FreedBlocksDivertedZeroedAndReused)
{
    Fixture f;
    sim::Cpu cpu(nullptr, 0, 0);
    // Write junk, delete the file: blocks go to the daemon.
    const fs::Ino tmp = f.system.fs().create(cpu, "/junk");
    std::vector<std::uint8_t> junk(64 * 1024, 0xCD);
    f.system.fs().write(cpu, tmp, 0, junk.data(), junk.size());
    f.system.fs().unlink(cpu, "/junk");
    EXPECT_GT(f.system.prezeroDaemon()->pendingBlocks(), 0u);
    f.system.prezeroDaemon()->drainUntimed();
    EXPECT_EQ(f.system.prezeroDaemon()->pendingBlocks(), 0u);
    EXPECT_GT(f.system.fs().allocator().zeroedBlocks(), 0u);
    // A subsequent fallocate consumes pre-zeroed blocks for free.
    const fs::Ino sec = f.system.fs().create(cpu, "/sec");
    const auto zeroCharged =
        f.system.metrics().counterValue("fs.zeroed_blocks");
    ASSERT_TRUE(f.system.fs().fallocate(cpu, sec, 0, 64 * 1024));
    EXPECT_EQ(f.system.metrics().counterValue("fs.zeroed_blocks"),
              zeroCharged);
    EXPECT_GT(f.system.metrics().counterValue("fs.prezeroed_blocks"), 0u);
    // Security: the recycled blocks read zero through a mapping.
    const std::uint64_t va =
        f.dax().mmap(cpu, *f.as, sec, 0, 64 * 1024, false, 0);
    std::vector<std::uint8_t> out(64 * 1024, 0xFF);
    f.as->memRead(cpu, va, out.size(), mem::Pattern::Seq, out.data());
    for (const auto b : out)
        ASSERT_EQ(b, 0);
}

TEST(Prezero, DaemonRunsOnEngineWhenWoken)
{
    Fixture f;
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino tmp = f.system.fs().create(cpu, "/junk");
    f.system.fs().write(cpu, tmp, 0, nullptr, 8 << 20);
    // Drive the free from an engine thread so the daemon wakes and a
    // second thread keeps the engine alive while it drains.
    auto &system = f.system;
    system.engine().addThread(std::make_unique<sim::FnTask>(
        [&](sim::Cpu &c) {
            system.fs().unlink(c, "/junk");
            return false;
        }));
    int spins = 0;
    system.engine().addThread(std::make_unique<sim::FnTask>(
        [&](sim::Cpu &c) {
            c.advance(1000000); // 1 ms quanta
            return ++spins < 50;
        }));
    system.engine().run();
    EXPECT_EQ(system.prezeroDaemon()->pendingBlocks(), 0u);
    EXPECT_EQ(system.prezeroDaemon()->zeroedBlocks(),
              (8ULL << 20) / 4096);
}

TEST(Prezero, DisabledSinkFallsThroughToFreeMap)
{
    Fixture f;
    f.system.prezeroDaemon()->setEnabled(false);
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino tmp = f.system.fs().create(cpu, "/junk");
    f.system.fs().write(cpu, tmp, 0, nullptr, 1 << 20);
    const auto freeBefore = f.system.fs().allocator().freeBlocks();
    f.system.fs().unlink(cpu, "/junk");
    EXPECT_EQ(f.system.fs().allocator().freeBlocks(),
              freeBefore + (1 << 20) / 4096);
    EXPECT_EQ(f.system.prezeroDaemon()->pendingBlocks(), 0u);
}

// ---------------------------------------------------------------------
// MMU monitor
// ---------------------------------------------------------------------

TEST(Monitor, RuleFiresOnFragmentedFileAndMigrationHelps)
{
    // Build a deliberately fragmented (4 KB-mapped) file on an aged
    // image so random-access walks hit PMem-resident PTE leaves.
    sys::SystemConfig config = daxConfig();
    sys::System system(config);
    fs::AgingConfig aging;
    aging.churnFactor = 1.5;
    system.age(aging);
    auto as = system.newProcess();
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = system.makeFile("/frag", 32ULL << 20);
    const std::uint64_t va =
        system.dax()->mmap(cpu, *as, ino, 0, 32ULL << 20, false, 0);
    ASSERT_NE(va, 0u);
    sim::Rng rng(19);
    for (int i = 0; i < 30000; i++) {
        const std::uint64_t off = rng.below((32ULL << 20) - 64);
        as->memRead(cpu, va + off, 8, mem::Pattern::Rand);
    }
    const double avgWalk = as->perf().avgWalkCycles();
    if (avgWalk > config.cm.monitorWalkCycleThreshold) {
        EXPECT_TRUE(system.dax()->pollMonitor(cpu, *as, ino));
        auto &tables = system.fileTables()->tables(&cpu, ino);
        EXPECT_TRUE(tables.useMirror);
        // After migration, fresh walks are DRAM-priced.
        as->perf().reset();
        for (int i = 0; i < 30000; i++) {
            const std::uint64_t off = rng.below((32ULL << 20) - 64);
            as->memRead(cpu, va + off, 8, mem::Pattern::Rand);
        }
        EXPECT_LT(as->perf().avgWalkCycles(), avgWalk * 0.7);
    } else {
        GTEST_SKIP() << "image not fragmented enough to trip the rule";
    }
}

TEST(Monitor, ExitedProcessLeavesNoSnapshotToTheNext)
{
    // The monitor keeps one counter snapshot per process. Were it
    // keyed by the AddressSpace's heap address, the next process the
    // allocator placed there would start from a dead one's snapshot:
    // its unsigned deltas would wrap, and simulated output would
    // depend on host allocation.
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/small", 16 * 1024);
    for (int i = 0; i < 3; i++) {
        auto doomed = f.system.newProcess();
        // A million cheap walks: the poll stays quiet and records them.
        doomed->perf().tlbMisses = 1000000;
        doomed->perf().walkNs = 1000000;
        doomed->chargeExec(1000000000);
        ASSERT_FALSE(f.dax().pollMonitor(f.cpu, *doomed, ino));
    }
    // 100 walks of 1 us over 200 us of execution trip the rule.
    auto next = f.system.newProcess();
    next->perf().tlbMisses = 100;
    next->perf().walkNs = 100000;
    next->chargeExec(200000);
    EXPECT_TRUE(f.dax().pollMonitor(f.cpu, *next, ino));
}

TEST(Monitor, NoMigrationForDramTables)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/small", 16 * 1024);
    const std::uint64_t va = f.dax().mmap(f.cpu, *f.as, ino, 0,
                                          16 * 1024, false, 0);
    f.as->memRead(f.cpu, va, 16 * 1024, mem::Pattern::Seq);
    EXPECT_FALSE(f.dax().pollMonitor(f.cpu, *f.as, ino));
}
