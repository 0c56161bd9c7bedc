/**
 * @file
 * Crash-injection and recovery tests: device persistence domains,
 * journal replay, allocator rebuild, DaxVM table image validation,
 * prezero re-verification, and end-to-end System crash/recover.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "fs/block_alloc.h"
#include "fs/file_system.h"
#include "mem/device.h"
#include "sim/fault.h"
#include "sim/rng.h"
#include "sys/system.h"

using namespace dax;

namespace {

sys::SystemConfig
smallConfig(fs::Personality personality)
{
    sys::SystemConfig sc;
    sc.cores = 2;
    sc.pmemBytes = 64ULL << 20;
    sc.pmemTableBytes = 16ULL << 20;
    sc.dramBytes = 32ULL << 20;
    sc.personality = personality;
    return sc;
}

} // namespace

// ---------------------------------------------------------------------
// Device persistence domains
// ---------------------------------------------------------------------

TEST(DevicePersistence, CachedWriteIsVolatileUntilCrash)
{
    sim::CostModel cm;
    mem::Device dev(mem::Kind::Pmem, 1 << 20, cm, mem::Backing::Sparse);
    const std::uint64_t v = 0xdeadbeefcafef00dULL;
    dev.store(4096, &v, sizeof(v), mem::WriteMode::Cached);
    EXPECT_EQ(dev.volatileLines(), 1u);

    // Coherent loads see the cached line...
    std::uint64_t got = 0;
    dev.fetch(4096, &got, sizeof(got));
    EXPECT_EQ(got, v);

    // ...but a power failure discards it.
    EXPECT_EQ(dev.crash(), 1u);
    dev.fetch(4096, &got, sizeof(got));
    EXPECT_EQ(got, 0u);
}

TEST(DevicePersistence, FlushRangeMakesDurable)
{
    sim::CostModel cm;
    mem::Device dev(mem::Kind::Pmem, 1 << 20, cm, mem::Backing::Sparse);
    const std::uint64_t v = 42;
    dev.store(4096, &v, sizeof(v), mem::WriteMode::Cached);
    EXPECT_EQ(dev.flushRange(4096, 64), 1u);
    EXPECT_EQ(dev.volatileLines(), 0u);
    EXPECT_EQ(dev.crash(), 0u);
    std::uint64_t got = 0;
    dev.fetch(4096, &got, sizeof(got));
    EXPECT_EQ(got, v);
}

TEST(DevicePersistence, DrainMakesEverythingDurable)
{
    sim::CostModel cm;
    mem::Device dev(mem::Kind::Pmem, 1 << 20, cm, mem::Backing::Sparse);
    for (std::uint64_t i = 0; i < 5; i++) {
        const std::uint64_t v = i + 1;
        dev.store(i * 4096, &v, sizeof(v), mem::WriteMode::Cached);
    }
    EXPECT_EQ(dev.volatileLines(), 5u);
    EXPECT_EQ(dev.drain(), 5u);
    dev.crash();
    for (std::uint64_t i = 0; i < 5; i++) {
        std::uint64_t got = 0;
        dev.fetch(i * 4096, &got, sizeof(got));
        EXPECT_EQ(got, i + 1);
    }
}

TEST(DevicePersistence, NtStoreInvalidatesCachedLine)
{
    sim::CostModel cm;
    mem::Device dev(mem::Kind::Pmem, 1 << 20, cm, mem::Backing::Sparse);
    const std::uint64_t cached = 1, durable = 2;
    dev.store(0, &cached, sizeof(cached), mem::WriteMode::Cached);
    dev.store(0, &durable, sizeof(durable), mem::WriteMode::NtStore);
    // The ntstore invalidated the covered cached bytes: no stale
    // write-back can clobber it later.
    EXPECT_EQ(dev.volatileLines(), 0u);
    dev.crash();
    std::uint64_t got = 0;
    dev.fetch(0, &got, sizeof(got));
    EXPECT_EQ(got, durable);
}

TEST(DevicePersistence, PartialLineFlushKeepsOtherLines)
{
    sim::CostModel cm;
    mem::Device dev(mem::Kind::Pmem, 1 << 20, cm, mem::Backing::Sparse);
    const std::uint64_t a = 7, b = 9;
    dev.store(0, &a, sizeof(a), mem::WriteMode::Cached);
    dev.store(256, &b, sizeof(b), mem::WriteMode::Cached);
    EXPECT_EQ(dev.flushRange(0, 64), 1u); // only the first line
    EXPECT_EQ(dev.volatileLines(), 1u);
    dev.crash();
    std::uint64_t got = 0;
    dev.fetch(0, &got, sizeof(got));
    EXPECT_EQ(got, a);
    dev.fetch(256, &got, sizeof(got));
    EXPECT_EQ(got, 0u); // unflushed line lost
}

// ---------------------------------------------------------------------
// Allocator rebuild
// ---------------------------------------------------------------------

TEST(AllocatorRecovery, RebuildFromCommittedExtents)
{
    fs::BlockAllocator alloc(1024, 0);
    auto a = alloc.alloc(100, 0);
    auto b = alloc.alloc(50, 0);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    // Only `a` was committed; the rebuild must free b's blocks.
    EXPECT_EQ(alloc.rebuildFrom({a[0]}), 0u);
    EXPECT_EQ(alloc.freeBlocks(), 1024u - 100u);
    EXPECT_TRUE(alloc.check().empty());
}

TEST(AllocatorRecovery, RebuildCountsConflicts)
{
    fs::BlockAllocator alloc(1024, 0);
    // Two committed extents claiming overlapping blocks: a corrupt
    // image. The rebuild keeps them allocated once and reports the
    // doubly-claimed count.
    const fs::Extent x{0, 100};
    const fs::Extent y{50, 100};
    EXPECT_EQ(alloc.rebuildFrom({x, y}), 50u);
    EXPECT_EQ(alloc.freeBlocks(), 1024u - 150u);
    EXPECT_TRUE(alloc.check().empty());
}

TEST(AllocatorRecovery, PromoteZeroedRequiresFreeRange)
{
    fs::BlockAllocator alloc(1024, 0);
    auto a = alloc.alloc(100, 0);
    EXPECT_FALSE(alloc.promoteZeroed(a[0])); // allocated, not free
    alloc.free(a[0]);
    EXPECT_TRUE(alloc.promoteZeroed({a[0].block, 10}));
    EXPECT_EQ(alloc.zeroedBlocks(), 10u);
    EXPECT_FALSE(alloc.promoteZeroed({a[0].block, 10})); // now pooled
    EXPECT_TRUE(alloc.check().empty());
}

// ---------------------------------------------------------------------
// Journal replay (FileSystem::recover)
// ---------------------------------------------------------------------

namespace {

struct FsFixture
{
    explicit FsFixture(fs::Personality personality)
        : pmem(mem::Kind::Pmem, 64ULL << 20, cm, mem::Backing::Sparse),
          fs(personality, pmem, 0, 64ULL << 20, cm)
    {}

    void
    crashRecover()
    {
        pmem.crash();
        report = fs.recover();
    }

    sim::CostModel cm;
    mem::Device pmem;
    fs::FileSystem fs;
    fs::RecoveryReport report;
    sim::Cpu cpu{nullptr, 0, 0};
};

} // namespace

class JournalReplay : public ::testing::TestWithParam<fs::Personality>
{};

TEST_P(JournalReplay, CommittedSurvivesUncommittedRollsBack)
{
    FsFixture fx(GetParam());
    const fs::Ino a = fx.fs.create(fx.cpu, "/a");
    std::vector<std::uint8_t> block(fs::kBlockSize, 0x5a);
    fx.fs.write(fx.cpu, a, 0, block.data(), block.size());
    fx.fs.fsync(fx.cpu, a);

    // Dirty-but-uncommitted: a second file and an extension of /a.
    const fs::Ino b = fx.fs.create(fx.cpu, "/b");
    fx.fs.write(fx.cpu, b, 0, block.data(), block.size());
    fx.fs.write(fx.cpu, a, fs::kBlockSize, block.data(), block.size());

    fx.crashRecover();

    ASSERT_TRUE(fx.fs.lookupPath("/a").has_value());
    EXPECT_FALSE(fx.fs.lookupPath("/b").has_value());
    EXPECT_EQ(fx.fs.inode(a).size, fs::kBlockSize); // extension rolled back
    EXPECT_GE(fx.report.rolledBack, 1u);
    EXPECT_EQ(fx.report.conflictBlocks, 0u);

    // Committed data really is on the medium.
    std::uint8_t got = 0;
    fx.fs.read(fx.cpu, a, 100, &got, 1);
    EXPECT_EQ(got, 0x5a);
    EXPECT_TRUE(fx.fs.fsck().empty());
}

TEST_P(JournalReplay, CommitEraseMakesUnlinkDurable)
{
    FsFixture fx(GetParam());
    const fs::Ino a = fx.fs.create(fx.cpu, "/a");
    fx.fs.fallocate(fx.cpu, a, 0, 4 * fs::kBlockSize);
    fx.fs.fsync(fx.cpu, a);
    fx.fs.unlink(fx.cpu, "/a");

    fx.crashRecover();

    EXPECT_FALSE(fx.fs.lookupPath("/a").has_value());
    // The freed blocks are free again, not leaked.
    EXPECT_EQ(fx.fs.allocator().freeBlocks()
                  + fx.fs.allocator().zeroedBlocks()
                  + fx.fs.allocator().divertedBlocks(),
              fx.fs.allocator().totalBlocks());
    EXPECT_TRUE(fx.fs.fsck().empty());
}

TEST_P(JournalReplay, ShrinkingTruncateDoesNotDoubleClaim)
{
    FsFixture fx(GetParam());
    const fs::Ino a = fx.fs.create(fx.cpu, "/a");
    fx.fs.fallocate(fx.cpu, a, 0, 8 * fs::kBlockSize);
    fx.fs.fsync(fx.cpu, a);
    // Shrink commits synchronously; the freed blocks may be handed to
    // another committed file before the next global sync.
    fx.fs.ftruncate(fx.cpu, a, fs::kBlockSize);
    const fs::Ino b = fx.fs.create(fx.cpu, "/b");
    fx.fs.fallocate(fx.cpu, b, 0, 6 * fs::kBlockSize);
    fx.fs.fsync(fx.cpu, b);

    fx.crashRecover();

    EXPECT_EQ(fx.report.conflictBlocks, 0u);
    EXPECT_TRUE(fx.fs.fsck().empty());
    ASSERT_TRUE(fx.fs.lookupPath("/a").has_value());
    ASSERT_TRUE(fx.fs.lookupPath("/b").has_value());
    EXPECT_EQ(fx.fs.inode(a).size, fs::kBlockSize);
}

INSTANTIATE_TEST_SUITE_P(Personalities, JournalReplay,
                         ::testing::Values(fs::Personality::Ext4Dax,
                                           fs::Personality::Nova),
                         [](const auto &info) {
                             return info.param == fs::Personality::Ext4Dax
                                        ? "Ext4Dax"
                                        : "Nova";
                         });

// ---------------------------------------------------------------------
// End-to-end System crash/recover
// ---------------------------------------------------------------------

class SystemCrash : public ::testing::TestWithParam<fs::Personality>
{};

TEST_P(SystemCrash, DurableWritesSurviveRecovery)
{
    sys::System system(smallConfig(GetParam()));
    const fs::Ino ino = system.makeFile("/f", 256 << 10, 4096);

    sim::Cpu cpu(nullptr, 0, 0);
    const std::uint64_t v = 0x1122334455667788ULL;
    system.fs().write(cpu, ino, 64, &v, sizeof(v)); // ntstore, durable

    const auto crash = system.crash();
    EXPECT_EQ(crash.dirtyLinesLost, 0u);
    const auto rec = system.recover();
    EXPECT_GE(rec.fs.inodesRestored, 1u);
    EXPECT_EQ(rec.fs.conflictBlocks, 0u);

    std::uint64_t got = 0;
    system.fs().read(cpu, ino, 64, &got, sizeof(got));
    EXPECT_EQ(got, v);
    // The untouched setup pattern is intact too.
    std::uint8_t pat = 0;
    system.fs().read(cpu, ino, 200, &pat, 1);
    EXPECT_EQ(pat, sys::System::patternByte(ino, 200));
    EXPECT_TRUE(system.fs().fsck().empty());
}

TEST_P(SystemCrash, MissingFlushIsDetectedAsLostData)
{
    // The acceptance scenario: a cached (mmap-style) write with no
    // fsync/msync before the crash MUST be detected as lost.
    sys::System system(smallConfig(GetParam()));
    const fs::Ino ino = system.makeFile("/f", 256 << 10);

    sim::Cpu cpu(nullptr, 0, 0);
    const auto run = system.fs().inode(ino).find(0);
    const std::uint64_t pa = system.fs().blockAddr(run->physBlock);
    const std::uint64_t v = 0xabcdabcdabcdabcdULL;
    system.pmem().store(pa + 128, &v, sizeof(v), mem::WriteMode::Cached);

    // Pre-crash, coherent reads see the new value (the bug hides).
    std::uint64_t got = 0;
    system.fs().read(cpu, ino, 128, &got, sizeof(got));
    EXPECT_EQ(got, v);

    const auto crash = system.crash();
    EXPECT_GE(crash.dirtyLinesLost, 1u); // the missing flush, detected
    system.recover();

    system.fs().read(cpu, ino, 128, &got, sizeof(got));
    EXPECT_EQ(got, 0u); // the write is gone
}

TEST_P(SystemCrash, FsyncMakesCachedWritesDurable)
{
    sys::System system(smallConfig(GetParam()));
    const fs::Ino ino = system.makeFile("/f", 256 << 10);

    sim::Cpu cpu(nullptr, 0, 0);
    const auto run = system.fs().inode(ino).find(0);
    const std::uint64_t pa = system.fs().blockAddr(run->physBlock);
    const std::uint64_t v = 0xfeedfacefeedfaceULL;
    system.pmem().store(pa + 128, &v, sizeof(v), mem::WriteMode::Cached);
    system.fs().fsync(cpu, ino); // flushes the file's dirty lines

    const auto crash = system.crash();
    EXPECT_EQ(crash.dirtyLinesLost, 0u);
    system.recover();

    std::uint64_t got = 0;
    system.fs().read(cpu, ino, 128, &got, sizeof(got));
    EXPECT_EQ(got, v);
}

INSTANTIATE_TEST_SUITE_P(Personalities, SystemCrash,
                         ::testing::Values(fs::Personality::Ext4Dax,
                                           fs::Personality::Nova),
                         [](const auto &info) {
                             return info.param == fs::Personality::Ext4Dax
                                        ? "Ext4Dax"
                                        : "Nova";
                         });

// ---------------------------------------------------------------------
// DaxVM persistent table images
// ---------------------------------------------------------------------

TEST(TableRecovery, ValidImageIsValidatedNotRebuilt)
{
    sys::System system(smallConfig(fs::Personality::Ext4Dax));
    const fs::Ino ino = system.makeFile("/f", 256 << 10); // persistent
    ASSERT_NE(system.fileTables(), nullptr);
    const auto *img = system.fileTables()->imageOf(ino);
    ASSERT_NE(img, nullptr);
    EXPECT_FALSE(img->midUpdate);

    system.crash();
    const auto rec = system.recover();
    EXPECT_GE(rec.tables.validated, 1u);
    EXPECT_EQ(rec.tables.rebuilt, 0u);
}

TEST(TableRecovery, TornImageFallsBackToRebuild)
{
    sys::System system(smallConfig(fs::Personality::Ext4Dax));
    const fs::Ino ino = system.makeFile("/f", 256 << 10);

    // Crash inside the next table-update window: the image is left
    // mid-update (torn) and must be rejected on attach.
    sim::FaultPlan plan =
        sim::FaultPlan::atKind(sim::FaultEvent::TableUpdate, 0);
    system.setFaultPlan(&plan);
    sim::Cpu cpu(nullptr, 0, 0);
    std::vector<std::uint8_t> block(fs::kBlockSize, 0x33);
    bool crashed = false;
    try {
        // Extending write: allocation triggers a table update.
        system.fs().write(cpu, ino, 256 << 10, block.data(),
                          block.size());
    } catch (const sim::CrashException &e) {
        crashed = true;
        EXPECT_EQ(e.event(), sim::FaultEvent::TableUpdate);
    }
    ASSERT_TRUE(crashed);
    const auto *img = system.fileTables()->imageOf(ino);
    ASSERT_NE(img, nullptr);
    EXPECT_TRUE(img->midUpdate); // torn at the crash point

    system.crash();
    const auto rec = system.recover();
    EXPECT_GE(rec.tables.rebuilt, 1u);

    // Post-recovery the image is sealed again and attach works.
    img = system.fileTables()->imageOf(ino);
    ASSERT_NE(img, nullptr);
    EXPECT_FALSE(img->midUpdate);
    EXPECT_NE(system.fileTables()->tables(nullptr, ino).table, nullptr);
    EXPECT_TRUE(system.fs().fsck().empty());
    system.setFaultPlan(nullptr);
}

TEST(TableRecovery, DroppedWithItsInode)
{
    sys::System system(smallConfig(fs::Personality::Ext4Dax));
    system.makeFile("/f", 256 << 10);
    sim::Cpu cpu(nullptr, 0, 0);
    system.fs().unlink(cpu, "/f");

    system.crash();
    const auto rec = system.recover();
    EXPECT_GE(rec.tables.dropped, 1u);
    EXPECT_FALSE(system.fs().lookupPath("/f").has_value());
}

// ---------------------------------------------------------------------
// Table-update windows and lazily sealed images
// ---------------------------------------------------------------------

namespace {

/**
 * Records an inode's extent map on every table hook. Registered after
 * the FileTableManager, it sees the layout that hook's update left:
 * the one an eagerly re-sealed image would hold.
 */
class LayoutRecorder : public fs::FsHooks
{
  public:
    using Layout = std::vector<std::pair<std::uint64_t, fs::Extent>>;

    void
    onBlocksAllocated(sim::Cpu &, fs::Inode &inode, std::uint64_t,
                      const fs::Extent &) override
    {
        record(inode);
    }
    void
    onBlocksFreeing(sim::Cpu &, fs::Inode &inode, std::uint64_t,
                    const fs::Extent &) override
    {
        record(inode);
    }
    void
    onBlocksRemapped(sim::Cpu &, fs::Inode &inode, std::uint64_t,
                     const fs::Extent &, const fs::Extent &) override
    {
        record(inode);
    }
    void onInodeEvict(fs::Inode &) override {}

    /** Last recorded layout per inode. */
    std::map<fs::Ino, Layout> last;

  private:
    void
    record(const fs::Inode &inode)
    {
        last[inode.ino].assign(inode.extents.begin(), inode.extents.end());
    }
};

/**
 * Seeded persistent-table churn: appends across 2 MB chunk
 * boundaries, a multi-extent fallocate on a fragmented image,
 * truncates and an unlink.
 */
struct ImageChurn
{
    explicit ImageChurn(fs::Personality personality)
        : system(smallConfig(personality))
    {
        system.fs().addHooks(&layouts);
        a = system.makeFile("/a", (2ULL << 20) - 2 * fs::kBlockSize);
        b = system.makeFile("/b", (4ULL << 20) - 3 * fs::kBlockSize);
        // Leave 8-block holes between small survivors.
        sim::Cpu cpu(nullptr, 0, 0);
        for (int i = 0; i < 16; i++)
            system.makeFile("/s" + std::to_string(i), 8 * fs::kBlockSize);
        for (int i = 1; i < 16; i += 2)
            system.fs().unlink(cpu, "/s" + std::to_string(i));
        system.prezeroDaemon()->drainUntimed();
    }

    ~ImageChurn()
    {
        system.setFaultPlan(nullptr);
        system.fs().removeHooks(&layouts);
    }

    /** Throws sim::CrashException when @p plan fires. */
    void
    run(sim::FaultPlan &plan, std::uint64_t seed)
    {
        system.setFaultPlan(&plan);
        sim::Rng rng(seed);
        sim::Cpu cpu(nullptr, 0, 0);
        std::vector<std::uint8_t> buf(4 * fs::kBlockSize, 0x5c);
        for (int i = 0; i < 6; i++) {
            const fs::Ino ino = rng.below(2) == 0 ? a : b;
            const std::uint64_t off = system.fs().inode(ino).size;
            const std::uint64_t len = (1 + rng.below(4)) * fs::kBlockSize;
            if (off >> 21 != (off + len - 1) >> 21)
                chunkCrossings++;
            system.fs().write(cpu, ino, off, buf.data(), len);
            if (rng.below(2) == 0)
                system.fs().fsync(cpu, ino);
        }
        const fs::Ino c = system.fs().create(cpu, "/c");
        system.fs().fallocate(cpu, c, 0, 64 * fs::kBlockSize);
        fallocExtents = system.fs().inode(c).extents.size();
        system.fs().fsync(cpu, c);
        system.fs().ftruncate(cpu, b, (1 + rng.below(2)) << 20);
        system.fs().ftruncate(cpu, c,
                              (8 + rng.below(40)) * fs::kBlockSize);
        system.fs().unlink(cpu, "/a");
    }

    sys::System system;
    LayoutRecorder layouts;
    fs::Ino a = 0;
    fs::Ino b = 0;
    std::uint64_t chunkCrossings = 0;
    std::size_t fallocExtents = 0;
};

} // namespace

class TableImage : public ::testing::TestWithParam<fs::Personality>
{};

TEST_P(TableImage, CrashAtTablePageZeroingTearsTheImage)
{
    // Appending one block at 2 MB gives the file's table a PTE page
    // for chunk 1, and zeroing that page is a durable store. The
    // update window must already be open there, so the image is torn
    // and recovery rebuilds it instead of validating the old layout.
    // Crash at the first durable store after the extent map grew past
    // 512 blocks (ext4-DAX zeroes the new data block before that).
    for (std::uint64_t n = 0; n < 8; n++) {
        sys::System system(smallConfig(GetParam()));
        const fs::Ino ino = system.makeFile("/f", 2ULL << 20);
        sim::FaultPlan plan =
            sim::FaultPlan::atKind(sim::FaultEvent::DurableStore, n);
        system.setFaultPlan(&plan);
        sim::Cpu cpu(nullptr, 0, 0);
        std::vector<std::uint8_t> block(fs::kBlockSize, 0x42);
        try {
            system.fs().write(cpu, ino, 2ULL << 20, block.data(),
                              block.size());
        } catch (const sim::CrashException &) {
        }
        system.setFaultPlan(nullptr);
        ASSERT_TRUE(plan.fired()) << "no durable store after the append";
        if (system.fs().inode(ino).allocatedBlocks() <= 512)
            continue;

        const auto *img = system.fileTables()->imageOf(ino);
        ASSERT_NE(img, nullptr);
        EXPECT_TRUE(img->midUpdate);

        system.crash();
        const auto rec = system.recover();
        EXPECT_EQ(rec.tables.validated, 0u);
        EXPECT_EQ(rec.tables.rebuilt, 1u);
        EXPECT_EQ(rec.tables.dropped, 0u);
        // The uncommitted append rolled back; the rebuilt table maps
        // the recovered 2 MB and nothing of chunk 1.
        EXPECT_EQ(system.fs().inode(ino).allocatedBlocks(), 512u);
        const daxvm::FileTable &table =
            *system.fileTables()->tables(nullptr, ino).table;
        EXPECT_EQ(table.pteNode(1), nullptr);
        EXPECT_EQ(table.hugeEntry(1), 0u);
        EXPECT_TRUE(system.fs().fsck().empty());
        return;
    }
    FAIL() << "the append made no durable store inside its table update";
}

TEST_P(TableImage, SealedImageIsLastCompletedLayoutAtEveryCrashPoint)
{
    // Images are sealed at crash time from the live extent maps. That
    // equals sealing at every update only if no persistence boundary
    // fires between an extent-map change and the table hook opening
    // its window. Check it at every crash point of a seeded churn.
    constexpr std::uint64_t kSeed = 4242;
    std::uint64_t compared = 0;
    auto check = [&](ImageChurn &churn, const std::string &where) {
        churn.system.crash();
        auto *ftm = churn.system.fileTables();
        for (const auto &[ino, layout] : churn.layouts.last) {
            const daxvm::PersistentImage *img = ftm->imageOf(ino);
            if (img == nullptr || img->midUpdate)
                continue; // no image, or torn: rebuilt on recovery
            compared++;
            EXPECT_TRUE(img->extents == layout)
                << where << ": ino " << ino << " sealed "
                << img->extents.size() << " extents, last update saw "
                << layout.size();
            EXPECT_EQ(img->checksum,
                      daxvm::FileTableManager::imageChecksum(*img))
                << where << ": ino " << ino;
        }
        churn.system.recover();
        EXPECT_TRUE(churn.system.fs().fsck().empty()) << where;
    };

    sim::FaultPlan counter;
    std::uint64_t total = 0;
    {
        ImageChurn churn(GetParam());
        churn.run(counter, kSeed);
        total = counter.eventsSeen();
        EXPECT_GT(churn.chunkCrossings, 0u);
        EXPECT_GT(churn.fallocExtents, 1u);
        check(churn, "end of run");
    }
    ASSERT_GT(total, 0u);
    for (std::uint64_t k = 0; k < total; k++) {
        ImageChurn churn(GetParam());
        sim::FaultPlan plan = sim::FaultPlan::atIndex(k);
        EXPECT_THROW(churn.run(plan, kSeed), sim::CrashException)
            << "crash@" << k;
        check(churn, "crash@" + std::to_string(k));
    }
    EXPECT_GT(compared, total);
}

INSTANTIATE_TEST_SUITE_P(Personalities, TableImage,
                         ::testing::Values(fs::Personality::Ext4Dax,
                                           fs::Personality::Nova),
                         [](const auto &info) {
                             return info.param == fs::Personality::Ext4Dax
                                        ? "Ext4Dax"
                                        : "Nova";
                         });

// ---------------------------------------------------------------------
// Prezero pool re-verification
// ---------------------------------------------------------------------

TEST(PrezeroRecovery, PendingListsAreVolatile)
{
    sys::System system(smallConfig(fs::Personality::Ext4Dax));
    system.makeFile("/f", 1 << 20);
    sim::Cpu cpu(nullptr, 0, 0);
    system.fs().unlink(cpu, "/f"); // frees divert to the daemon

    ASSERT_NE(system.prezeroDaemon(), nullptr);
    EXPECT_GT(system.prezeroDaemon()->pendingBlocks(), 0u);

    const auto crash = system.crash();
    EXPECT_GT(crash.prezeroPendingLost, 0u);
    const auto rec = system.recover();
    EXPECT_EQ(rec.fs.conflictBlocks, 0u);
    // In-flight blocks are plain free again after the rebuild.
    EXPECT_EQ(system.fs().allocator().divertedBlocks(), 0u);
    EXPECT_TRUE(system.fs().fsck().empty());
}

TEST(PrezeroRecovery, ZeroedPoolReverifiedOnRecovery)
{
    sys::System system(smallConfig(fs::Personality::Ext4Dax));
    system.makeFile("/f", 1 << 20);
    sim::Cpu cpu(nullptr, 0, 0);
    system.fs().unlink(cpu, "/f");
    system.prezeroDaemon()->drainUntimed();

    auto zeroed = system.fs().allocator().zeroedExtents();
    ASSERT_FALSE(zeroed.empty());
    const std::uint64_t poolBlocks =
        system.fs().allocator().zeroedBlocks();

    // Corrupt one pooled extent on the durable medium (models a stray
    // durable write the pool never learned about).
    const fs::Extent victim = zeroed.front();
    const std::uint64_t junk = 0x6666666666666666ULL;
    system.pmem().store(system.fs().blockAddr(victim.block) + 8, &junk,
                        sizeof(junk), mem::WriteMode::NtStore);

    system.crash();
    const auto rec = system.recover();
    // The corrupted extent is demoted to plain free; intact ones are
    // readmitted.
    EXPECT_GE(rec.zeroedDemoted, victim.count);
    EXPECT_EQ(rec.zeroedReadmitted + rec.zeroedDemoted, poolBlocks);

    // The invariant holds again: everything pooled really is zero.
    for (const auto &e : system.fs().allocator().zeroedExtents()) {
        EXPECT_TRUE(system.pmem().isZero(system.fs().blockAddr(e.block),
                                         e.bytes()));
    }
    EXPECT_TRUE(system.fs().fsck().empty());
}

// ---------------------------------------------------------------------
// FaultPlan behaviour
// ---------------------------------------------------------------------

TEST(FaultPlan, CountingPlanNeverFires)
{
    sim::FaultPlan plan;
    EXPECT_FALSE(plan.armed());
    for (int i = 0; i < 100; i++)
        plan.onEvent(sim::FaultEvent::DurableStore, i);
    EXPECT_EQ(plan.eventsSeen(), 100u);
    EXPECT_FALSE(plan.fired());
}

TEST(FaultPlan, IndexPlanFiresExactlyOnce)
{
    sim::FaultPlan plan = sim::FaultPlan::atIndex(3);
    EXPECT_TRUE(plan.armed());
    for (int i = 0; i < 3; i++)
        plan.onEvent(sim::FaultEvent::Flush, 0);
    EXPECT_THROW(plan.onEvent(sim::FaultEvent::JournalCommit, 0),
                 sim::CrashException);
    EXPECT_TRUE(plan.fired());
    // A fired plan is inert: recovery-path events must not re-crash.
    plan.onEvent(sim::FaultEvent::TableUpdate, 0);
    plan.onEvent(sim::FaultEvent::JournalCommit, 0);
}

TEST(FaultPlan, KindPlanCountsOnlyItsKind)
{
    sim::FaultPlan plan =
        sim::FaultPlan::atKind(sim::FaultEvent::JournalCommit, 1);
    plan.onEvent(sim::FaultEvent::DurableStore, 0);
    plan.onEvent(sim::FaultEvent::JournalCommit, 0); // 0th commit
    plan.onEvent(sim::FaultEvent::Flush, 0);
    EXPECT_THROW(plan.onEvent(sim::FaultEvent::JournalCommit, 0),
                 sim::CrashException);
}

// ---------------------------------------------------------------------
// ext4 jbd2 group commit (fsync forces the whole running transaction)
// ---------------------------------------------------------------------

TEST(GroupCommit, FsyncOfCleanInodeCommitsOtherDirtyMetadata)
{
    // jbd2 has one running transaction shared by all dirty inodes:
    // fsync(b) must force it out even when b itself is clean and the
    // transaction only carries /a's metadata.
    sys::System system(smallConfig(fs::Personality::Ext4Dax));
    const fs::Ino a = system.makeFile("/a", 4096);
    const fs::Ino b = system.makeFile("/b", 4096);

    sim::Cpu cpu(nullptr, 0, 0);
    std::vector<std::uint8_t> block(fs::kBlockSize, 0x5a);
    system.fs().write(cpu, a, 4096, block.data(), block.size());
    ASSERT_TRUE(system.fs().journal().isDirty(a));
    ASSERT_FALSE(system.fs().journal().isDirty(b));

    system.fs().fsync(cpu, b); // b is clean; the transaction is not
    EXPECT_FALSE(system.fs().journal().isDirty(a));

    system.crash();
    system.recover();
    // /a's extension rode the transaction fsync(b) forced out.
    EXPECT_EQ(system.fs().inode(a).size, 8192u);
    std::uint8_t got = 0;
    system.fs().read(cpu, a, 4096, &got, 1);
    EXPECT_EQ(got, 0x5a);
    EXPECT_TRUE(system.fs().fsck().empty());
}

TEST(GroupCommit, CrashDuringForcedCommitRollsBackWholeBatch)
{
    sys::System system(smallConfig(fs::Personality::Ext4Dax));
    const fs::Ino a = system.makeFile("/a", 4096);
    const fs::Ino b = system.makeFile("/b", 4096);

    sim::Cpu cpu(nullptr, 0, 0);
    std::vector<std::uint8_t> block(fs::kBlockSize, 0x77);
    system.fs().write(cpu, a, 4096, block.data(), block.size());
    system.fs().write(cpu, b, 4096, block.data(), block.size());

    // Crash inside the very transaction fsync(b) forces: neither
    // inode's new metadata may survive (the batch is atomic).
    sim::FaultPlan plan =
        sim::FaultPlan::atKind(sim::FaultEvent::JournalCommit, 0);
    system.setFaultPlan(&plan);
    bool crashed = false;
    try {
        system.fs().fsync(cpu, b);
    } catch (const sim::CrashException &e) {
        crashed = true;
        EXPECT_EQ(e.event(), sim::FaultEvent::JournalCommit);
    }
    ASSERT_TRUE(crashed);
    system.setFaultPlan(nullptr);

    system.crash();
    system.recover();
    EXPECT_EQ(system.fs().inode(a).size, 4096u);
    EXPECT_EQ(system.fs().inode(b).size, 4096u);
    EXPECT_TRUE(system.fs().fsck().empty());
}

TEST(GroupCommit, NovaCommitsStayPerInode)
{
    // NOVA logs are independent: fsync(b) must NOT commit /a.
    sys::System system(smallConfig(fs::Personality::Nova));
    const fs::Ino a = system.makeFile("/a", 4096);
    const fs::Ino b = system.makeFile("/b", 4096);

    sim::Cpu cpu(nullptr, 0, 0);
    std::vector<std::uint8_t> block(fs::kBlockSize, 0x11);
    system.fs().write(cpu, a, 4096, block.data(), block.size());
    system.fs().write(cpu, b, 4096, block.data(), block.size());

    system.fs().fsync(cpu, b);
    EXPECT_TRUE(system.fs().journal().isDirty(a));
    EXPECT_FALSE(system.fs().journal().isDirty(b));

    system.crash();
    system.recover();
    EXPECT_EQ(system.fs().inode(a).size, 4096u); // rolled back
    EXPECT_EQ(system.fs().inode(b).size, 8192u); // committed
}

// ---------------------------------------------------------------------
// Double faults: power fails again inside recovery itself (mid
// journal replay on ext4, mid log scan on NOVA)
// ---------------------------------------------------------------------

class DoubleFault : public ::testing::TestWithParam<fs::Personality>
{};

TEST_P(DoubleFault, CrashDuringReplayLeavesRecoveryRerunnable)
{
    sys::System system(smallConfig(GetParam()));
    const fs::Ino a = system.makeFile("/a", 64 << 10, 64 << 10);
    const fs::Ino b = system.makeFile("/b", 64 << 10, 64 << 10);
    const fs::Ino c = system.makeFile("/c", 64 << 10, 64 << 10);

    // Uncommitted work every recovery attempt must roll back.
    sim::Cpu cpu(nullptr, 0, 0);
    std::vector<std::uint8_t> block(fs::kBlockSize, 0x5a);
    system.fs().write(cpu, a, 64 << 10, block.data(), block.size());

    system.crash();

    // Second fault: power fails again while the second inode is being
    // restored.
    sim::FaultPlan plan =
        sim::FaultPlan::atKind(sim::FaultEvent::RecoveryReplay, 1);
    system.setFaultPlan(&plan);
    bool doubleFaulted = false;
    try {
        system.recover();
    } catch (const sim::CrashException &e) {
        doubleFaulted = true;
        EXPECT_EQ(e.event(), sim::FaultEvent::RecoveryReplay);
    }
    ASSERT_TRUE(doubleFaulted);

    // The machine reboots and recovery re-runs from the same durable
    // image; the fired plan is inert.
    system.crash();
    const auto rec = system.recover();
    system.setFaultPlan(nullptr);
    EXPECT_EQ(rec.fs.inodesRestored, 3u);
    EXPECT_EQ(rec.fs.conflictBlocks, 0u);
    EXPECT_TRUE(system.fs().fsck().empty());

    // Committed contents are intact, and the uncommitted extension
    // stayed rolled back (not resurrected by the partial replay).
    for (fs::Ino ino : {a, b, c}) {
        EXPECT_EQ(system.fs().inode(ino).size, 64u << 10);
        std::uint8_t got = 0;
        system.fs().read(cpu, ino, 100, &got, 1);
        EXPECT_EQ(got, sys::System::patternByte(ino, 100));
    }
}

TEST_P(DoubleFault, ReplayCrashAtEveryIndexIsIdempotent)
{
    sys::System system(smallConfig(GetParam()));
    std::vector<fs::Ino> inos;
    for (int i = 0; i < 4; i++)
        inos.push_back(system.makeFile("/f" + std::to_string(i),
                                       32 << 10, 32 << 10));

    system.crash();
    // Fail recovery at every possible replay position in turn; each
    // attempt starts over from the same durable image.
    for (std::uint64_t n = 0; n < inos.size(); n++) {
        sim::FaultPlan plan =
            sim::FaultPlan::atKind(sim::FaultEvent::RecoveryReplay, n);
        system.setFaultPlan(&plan);
        EXPECT_THROW(system.recover(), sim::CrashException);
        system.crash();
    }
    system.setFaultPlan(nullptr);

    const auto rec = system.recover();
    EXPECT_EQ(rec.fs.inodesRestored, inos.size());
    EXPECT_EQ(rec.fs.conflictBlocks, 0u);
    EXPECT_TRUE(system.fs().fsck().empty());
    sim::Cpu cpu(nullptr, 0, 0);
    for (fs::Ino ino : inos) {
        std::uint8_t got = 0;
        system.fs().read(cpu, ino, 12345, &got, 1);
        EXPECT_EQ(got, sys::System::patternByte(ino, 12345));
    }
}

TEST_P(DoubleFault, RecoveryAfterRecoveryIsIdempotent)
{
    // Even without a mid-replay crash, running crash/recover twice in
    // a row must converge to the same state as running it once.
    sys::System system(smallConfig(GetParam()));
    const fs::Ino ino = system.makeFile("/f", 64 << 10, 64 << 10);

    system.crash();
    const auto first = system.recover();
    system.crash();
    const auto second = system.recover();

    EXPECT_EQ(first.fs.inodesRestored, second.fs.inodesRestored);
    EXPECT_EQ(second.fs.conflictBlocks, 0u);
    EXPECT_TRUE(system.fs().fsck().empty());
    sim::Cpu cpu(nullptr, 0, 0);
    std::uint8_t got = 0;
    system.fs().read(cpu, ino, 4000, &got, 1);
    EXPECT_EQ(got, sys::System::patternByte(ino, 4000));
}

TEST_P(DoubleFault, BadBlockListSurvivesCrashDuringReplay)
{
    sys::System system(smallConfig(GetParam())); // fail-fast policy
    const fs::Ino ino = system.makeFile("/f", 64 << 10);

    // An uncorrectable media error on the file's first block: the
    // fail-fast read reports EIO and durably records the bad block.
    sim::Cpu cpu(nullptr, 0, 0);
    const auto run = system.fs().inode(ino).find(0);
    ASSERT_TRUE(run.has_value());
    system.pmem().poisonLine(system.fs().blockAddr(run->physBlock));
    std::uint8_t got = 0;
    EXPECT_THROW(system.fs().read(cpu, ino, 0, &got, 1), fs::IoError);
    EXPECT_FALSE(system.fs().inode(ino).badBlocks.empty());

    system.crash();
    sim::FaultPlan plan =
        sim::FaultPlan::atKind(sim::FaultEvent::RecoveryReplay, 0);
    system.setFaultPlan(&plan);
    EXPECT_THROW(system.recover(), sim::CrashException);
    system.crash();
    system.recover();
    system.setFaultPlan(nullptr);

    // The bad-block record survived both crashes: the block still
    // reports EIO rather than serving stale or zero data...
    EXPECT_FALSE(system.fs().inode(ino).badBlocks.empty());
    EXPECT_THROW(system.fs().read(cpu, ino, 0, &got, 1), fs::IoError);

    // ...until fsck punches it into a hole, after which it reads as
    // zeros and the image is clean.
    EXPECT_GE(system.fs().fsckRepair(), 1u);
    system.fs().read(cpu, ino, 0, &got, 1);
    EXPECT_EQ(got, 0u);
    EXPECT_TRUE(system.fs().fsck().empty());
}

INSTANTIATE_TEST_SUITE_P(Personalities, DoubleFault,
                         ::testing::Values(fs::Personality::Ext4Dax,
                                           fs::Personality::Nova),
                         [](const auto &info) {
                             return info.param == fs::Personality::Ext4Dax
                                        ? "Ext4Dax"
                                        : "Nova";
                         });

// ---------------------------------------------------------------------
// Fault-spec parsing (--faults / DAXVM_FAULTS)
// ---------------------------------------------------------------------

TEST(FaultSpec, SmokeSpecParsesToItsFields)
{
    // The media + crash spec the CI smoke run passes to daxsim.
    sim::FaultSpec spec = sim::parseFaultSpec(
        "media=seed:5,ue:1e-4,policy:remap-zero;"
        "crash=kind:journal-commit:2");
    EXPECT_EQ(spec.policy, "remap-zero");
    const sim::MediaSpec *media = spec.plan.media();
    ASSERT_NE(media, nullptr);
    EXPECT_EQ(media->seed, 5u);
    EXPECT_EQ(media->backgroundRate, 1e-4);
    EXPECT_EQ(media->wearScale, 0.0);
    EXPECT_FALSE(media->poisonTornStore);

    // Armed at the third journal commit (0-based index 2), and only
    // there: other kinds never fire it.
    ASSERT_TRUE(spec.plan.armed());
    spec.plan.onEvent(sim::FaultEvent::DurableStore, 0);
    spec.plan.onEvent(sim::FaultEvent::JournalCommit, 0);
    spec.plan.onEvent(sim::FaultEvent::JournalCommit, 0);
    EXPECT_FALSE(spec.plan.fired());
    EXPECT_THROW(spec.plan.onEvent(sim::FaultEvent::JournalCommit, 0),
                 sim::CrashException);
}

TEST(FaultSpec, NegativeIndexIsRejectedNotWrapped)
{
    EXPECT_THROW(sim::parseFaultSpec("crash=index:-1"),
                 std::invalid_argument);
    EXPECT_THROW(sim::parseFaultSpec("crash=kind:flush:+3"),
                 std::invalid_argument);
}

TEST(FaultSpec, NonFiniteRatesAreRejected)
{
    EXPECT_THROW(sim::parseFaultSpec("media=seed:5,ue:nan"),
                 std::invalid_argument);
    EXPECT_THROW(sim::parseFaultSpec("media=seed:5,ue:inf"),
                 std::invalid_argument);
}

TEST(FaultSpec, ErrorMessagesNameTheProblem)
{
    const auto message = [](const std::string &spec) {
        try {
            sim::parseFaultSpec(spec);
        } catch (const std::invalid_argument &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    EXPECT_EQ(message("crash=index:x1"),
              "fault spec: bad number in 'index:x1'");
    EXPECT_EQ(message("crash=index:99999999999999999999"),
              "fault spec: number out of range in "
              "'index:99999999999999999999'");
    EXPECT_EQ(message("media=ue:0.5x"),
              "fault spec: bad real number in 'ue:0.5x'");
    EXPECT_EQ(message("media=wear:1e999"),
              "fault spec: real number out of range in 'wear:1e999'");
}
