/**
 * @file
 * Unit tests for the file-system layer: extent allocator, journal,
 * ext4-DAX vs NOVA personalities, VFS inode cache, aging.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fs/aging.h"
#include "fs/block_alloc.h"
#include "fs/file_system.h"
#include "fs/path_index.h"
#include "fs/vfs.h"
#include "mem/device.h"
#include "sim/rng.h"

using namespace dax;
using namespace dax::fs;

namespace {

struct Fixture
{
    explicit Fixture(Personality personality = Personality::Ext4Dax,
                     std::uint64_t bytes = 256ULL << 20)
        : pmem(mem::Kind::Pmem, bytes, cm),
          fs(personality, pmem, 0, bytes, cm)
    {}

    sim::CostModel cm;
    mem::Device pmem;
    FileSystem fs;
    sim::Cpu cpu{nullptr, 0, 0};
};

/** Records the inode number of every onInodeEvict call. */
struct EvictRecorder : FsHooks
{
    void onBlocksAllocated(sim::Cpu &, Inode &, std::uint64_t,
                           const Extent &) override
    {}
    void onBlocksFreeing(sim::Cpu &, Inode &, std::uint64_t,
                         const Extent &) override
    {}
    void onInodeEvict(Inode &inode) override { evicted.push_back(inode.ino); }

    std::vector<Ino> evicted;
};

} // namespace

// ---------------------------------------------------------------------
// BlockAllocator
// ---------------------------------------------------------------------

TEST(BlockAllocator, ContiguousWhenFresh)
{
    BlockAllocator alloc(1024, 0);
    auto got = alloc.alloc(100, 0);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].count, 100u);
    EXPECT_EQ(alloc.freeBlocks(), 924u);
}

TEST(BlockAllocator, FreeCoalesces)
{
    BlockAllocator alloc(1024, 0);
    auto a = alloc.alloc(100, 0);
    auto b = alloc.alloc(100, 0);
    alloc.free(a[0]);
    alloc.free(b[0]);
    EXPECT_EQ(alloc.freeExtents(), 1u);
    EXPECT_EQ(alloc.freeBlocks(), 1024u);
    EXPECT_EQ(alloc.largestFreeExtent(), 1024u);
}

TEST(BlockAllocator, FragmentationForcesMultipleExtents)
{
    BlockAllocator alloc(1000, 0);
    // Carve ten 100-block extents, free every other one.
    std::vector<Extent> held;
    for (int i = 0; i < 10; i++)
        held.push_back(alloc.alloc(100, 0)[0]);
    for (int i = 0; i < 10; i += 2)
        alloc.free(held[static_cast<unsigned>(i)]);
    auto got = alloc.alloc(250, 0);
    std::uint64_t total = 0;
    for (const auto &e : got)
        total += e.count;
    EXPECT_EQ(total, 250u);
    EXPECT_GE(got.size(), 3u); // had to gather fragments
}

TEST(BlockAllocator, EnospcReturnsEmptyAndRollsBack)
{
    BlockAllocator alloc(100, 0);
    const auto before = alloc.freeBlocks();
    auto got = alloc.alloc(101, 0);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(alloc.freeBlocks(), before);
}

TEST(BlockAllocator, DoubleFreeThrows)
{
    BlockAllocator alloc(100, 0);
    auto got = alloc.alloc(10, 0);
    alloc.free(got[0]);
    EXPECT_THROW(alloc.free(got[0]), std::logic_error);
}

TEST(BlockAllocator, HugeAlignedPreferenceAlignsLargeFiles)
{
    BlockAllocator alloc(4096, 0);
    alloc.alloc(3, 0); // misalign the frontier
    auto got = alloc.alloc(1024, 0, nullptr, /*preferHugeAligned=*/true);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].block % kBlocksPerHuge, 0u);
}

TEST(BlockAllocator, ZeroedPoolPreferred)
{
    BlockAllocator alloc(1024, 0);
    auto got = alloc.alloc(64, 0);
    alloc.free(got[0]); // no sink: back to the free map
    // Simulate the daemon: move 64 blocks to the zeroed pool.
    auto raw = alloc.alloc(64, 0);
    alloc.freeZeroed(raw[0]);
    std::vector<bool> zeroed;
    auto z = alloc.alloc(32, 0, &zeroed);
    ASSERT_EQ(z.size(), 1u);
    ASSERT_EQ(zeroed.size(), 1u);
    EXPECT_TRUE(zeroed[0]);
    EXPECT_EQ(alloc.zeroedBlocks(), 32u);
}

TEST(BlockAllocator, HugeAlignedFreeFractionDegrades)
{
    BlockAllocator alloc(8192, 0);
    EXPECT_NEAR(alloc.hugeAlignedFreeFraction(), 1.0, 0.15);
    // Punch small holes everywhere.
    std::vector<Extent> held;
    for (int i = 0; i < 50; i++)
        held.push_back(alloc.alloc(130, 0)[0]);
    for (std::size_t i = 0; i < held.size(); i += 2)
        alloc.free(held[i]);
    EXPECT_LT(alloc.hugeAlignedFreeFraction(), 0.9);
}

// ---------------------------------------------------------------------
// FileSystem
// ---------------------------------------------------------------------

TEST(FileSystem, CreateLookupUnlink)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/a");
    EXPECT_EQ(f.fs.lookupPath("/a"), std::optional<Ino>(ino));
    EXPECT_TRUE(f.fs.unlink(f.cpu, "/a"));
    EXPECT_FALSE(f.fs.lookupPath("/a").has_value());
    EXPECT_FALSE(f.fs.unlink(f.cpu, "/a"));
}

TEST(FileSystem, DuplicateCreateThrows)
{
    Fixture f;
    f.fs.create(f.cpu, "/a");
    EXPECT_THROW(f.fs.create(f.cpu, "/a"), std::invalid_argument);
}

TEST(FileSystem, WriteReadRoundTrip)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/data");
    std::vector<std::uint8_t> in(10000);
    for (std::size_t i = 0; i < in.size(); i++)
        in[i] = static_cast<std::uint8_t>(i * 7);
    EXPECT_EQ(f.fs.write(f.cpu, ino, 0, in.data(), in.size()),
              in.size());
    EXPECT_EQ(f.fs.inode(ino).size, in.size());
    std::vector<std::uint8_t> out(in.size());
    EXPECT_EQ(f.fs.read(f.cpu, ino, 0, out.data(), out.size()),
              out.size());
    EXPECT_EQ(in, out);
}

TEST(FileSystem, WriteAtOffsetExtends)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/data");
    f.fs.fallocate(f.cpu, ino, 0, 8192);
    const char msg[] = "hello";
    f.fs.write(f.cpu, ino, 8000, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    f.fs.read(f.cpu, ino, 8000, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST(FileSystem, ReadBeyondEofTruncated)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/data");
    f.fs.write(f.cpu, ino, 0, nullptr, 1000);
    std::uint8_t buf[2000];
    EXPECT_EQ(f.fs.read(f.cpu, ino, 500, buf, 2000), 500u);
    EXPECT_EQ(f.fs.read(f.cpu, ino, 1000, buf, 10), 0u);
}

TEST(FileSystem, FallocateZeroesRecycledBlocks)
{
    Fixture f;
    // Dirty some blocks then free them (simulating a deleted file).
    const Ino other = f.fs.create(f.cpu, "/tmp");
    std::vector<std::uint8_t> junk(16384, 0xAB);
    f.fs.write(f.cpu, other, 0, junk.data(), junk.size());
    f.fs.unlink(f.cpu, "/tmp");
    // Now fallocate over the recycled blocks: must read back zero.
    const Ino ino = f.fs.create(f.cpu, "/sec");
    ASSERT_TRUE(f.fs.fallocate(f.cpu, ino, 0, 16384));
    const Inode &node = f.fs.inode(ino);
    for (const auto &[fb, e] : node.extents) {
        (void)fb;
        EXPECT_TRUE(f.pmem.isZero(f.fs.blockAddr(e.block), e.bytes()));
    }
}

TEST(FileSystem, Ext4ZeroesOnWriteSyscallNovaDoesNot)
{
    Fixture ext4(Personality::Ext4Dax);
    Fixture nova(Personality::Nova);
    const Ino a = ext4.fs.create(ext4.cpu, "/f");
    const Ino b = nova.fs.create(nova.cpu, "/f");
    ext4.fs.write(ext4.cpu, a, 0, nullptr, 1 << 20);
    nova.fs.write(nova.cpu, b, 0, nullptr, 1 << 20);
    EXPECT_GT(ext4.fs.metricsRegistry().counterValue("fs.zeroed_blocks"), 0u);
    EXPECT_EQ(nova.fs.metricsRegistry().counterValue("fs.zeroed_blocks"), 0u);
}

TEST(FileSystem, TruncateFreesBlocks)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/t");
    f.fs.fallocate(f.cpu, ino, 0, 1 << 20);
    const auto freeBefore = f.fs.allocator().freeBlocks();
    f.fs.ftruncate(f.cpu, ino, 4096);
    EXPECT_EQ(f.fs.allocator().freeBlocks(),
              freeBefore + (1 << 20) / kBlockSize - 1);
    EXPECT_EQ(f.fs.inode(ino).size, 4096u);
    EXPECT_EQ(f.fs.inode(ino).allocatedBlocks(), 1u);
}

TEST(FileSystem, JournalCommitOnFsync)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/j");
    f.fs.fallocate(f.cpu, ino, 0, 4096);
    EXPECT_TRUE(f.fs.journal().isDirty(ino));
    f.fs.fsync(f.cpu, ino);
    EXPECT_FALSE(f.fs.journal().isDirty(ino));
    const auto commits = f.fs.journal().commits();
    f.fs.fsync(f.cpu, ino); // clean: no extra commit
    EXPECT_EQ(f.fs.journal().commits(), commits);
}

TEST(FileSystem, NovaCommitCheaperThanExt4)
{
    Fixture ext4(Personality::Ext4Dax);
    Fixture nova(Personality::Nova);
    const Ino a = ext4.fs.create(ext4.cpu, "/f");
    const Ino b = nova.fs.create(nova.cpu, "/f");
    sim::Cpu c1(nullptr, 0, 0), c2(nullptr, 0, 0);
    ext4.fs.journal().commit(c1, a);
    nova.fs.journal().commit(c2, b);
    EXPECT_GT(c1.now(), c2.now() * 5);
}

TEST(FileSystem, ExtentMergingKeepsTreeSmall)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/seq");
    // Sequential appends on a fresh image: extents merge into one.
    for (int i = 0; i < 16; i++)
        f.fs.write(f.cpu, ino, static_cast<std::uint64_t>(i) * 4096,
                   nullptr, 4096);
    EXPECT_EQ(f.fs.inode(ino).extents.size(), 1u);
}

TEST(FileSystem, ListByPrefix)
{
    Fixture f;
    f.fs.create(f.cpu, "/web/a");
    f.fs.create(f.cpu, "/web/b");
    f.fs.create(f.cpu, "/other/c");
    EXPECT_EQ(f.fs.list("/web/").size(), 2u);
    EXPECT_EQ(f.fs.list("/").size(), 3u);
    EXPECT_TRUE(f.fs.list("/nope/").empty());
}

TEST(FileSystem, InodeFindResolvesRuns)
{
    Fixture f;
    const Ino ino = f.fs.create(f.cpu, "/r");
    f.fs.fallocate(f.cpu, ino, 0, 64 * 4096);
    const Inode &node = f.fs.inode(ino);
    const auto run = node.find(10);
    ASSERT_TRUE(run.has_value());
    EXPECT_GE(run->count, 1u);
    EXPECT_FALSE(node.find(64).has_value());
}

// ---------------------------------------------------------------------
// VFS
// ---------------------------------------------------------------------

TEST(Vfs, ColdThenWarmOpen)
{
    Fixture f;
    Vfs vfs(f.fs, f.cm, 16);
    f.fs.create(f.cpu, "/x");
    auto first = vfs.open(f.cpu, "/x");
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(first->cold);
    vfs.close(f.cpu, first->ino);
    auto second = vfs.open(f.cpu, "/x");
    EXPECT_FALSE(second->cold);
    vfs.close(f.cpu, second->ino);
    EXPECT_EQ(vfs.coldOpens(), 1u);
    EXPECT_EQ(vfs.warmOpens(), 1u);
}

TEST(Vfs, ColdOpenCostsMore)
{
    Fixture f;
    Vfs vfs(f.fs, f.cm, 16);
    f.fs.create(f.cpu, "/x");
    sim::Cpu cold(nullptr, 0, 0), warm(nullptr, 0, 0);
    vfs.open(cold, "/x");
    vfs.close(cold, *f.fs.lookupPath("/x"));
    vfs.open(warm, "/x");
    EXPECT_GT(cold.now(), warm.now());
}

TEST(Vfs, CapacityEvictsLruUnpinned)
{
    Fixture f;
    Vfs vfs(f.fs, f.cm, 2);
    for (const char *p : {"/a", "/b", "/c"})
        f.fs.create(f.cpu, p);
    auto a = vfs.open(f.cpu, "/a");
    vfs.close(f.cpu, a->ino);
    auto b = vfs.open(f.cpu, "/b");
    vfs.close(f.cpu, b->ino);
    auto c = vfs.open(f.cpu, "/c"); // evicts /a (LRU)
    vfs.close(f.cpu, c->ino);
    EXPECT_FALSE(vfs.isCached(a->ino));
    EXPECT_TRUE(vfs.isCached(b->ino));
    EXPECT_TRUE(vfs.isCached(c->ino));
}

TEST(Vfs, PinnedInodesNotEvicted)
{
    Fixture f;
    Vfs vfs(f.fs, f.cm, 1);
    f.fs.create(f.cpu, "/a");
    f.fs.create(f.cpu, "/b");
    auto a = vfs.open(f.cpu, "/a"); // pinned (not closed)
    auto b = vfs.open(f.cpu, "/b");
    EXPECT_TRUE(vfs.isCached(a->ino));
    vfs.close(f.cpu, a->ino);
    vfs.close(f.cpu, b->ino);
}

TEST(Vfs, OpenMissingReturnsNullopt)
{
    Fixture f;
    Vfs vfs(f.fs, f.cm, 4);
    EXPECT_FALSE(vfs.open(f.cpu, "/missing").has_value());
}

TEST(Vfs, DropCachesEvictsEverythingUnpinned)
{
    Fixture f;
    Vfs vfs(f.fs, f.cm, 0);
    f.fs.create(f.cpu, "/a");
    auto a = vfs.open(f.cpu, "/a");
    vfs.close(f.cpu, a->ino);
    EXPECT_EQ(vfs.cachedCount(), 1u);
    vfs.dropCaches();
    EXPECT_EQ(vfs.cachedCount(), 0u);
}

TEST(Vfs, UnlinkedInodeLeavesTheCache)
{
    // dropCaches() (System::remount) after open, close and unlink.
    {
        Fixture f;
        EvictRecorder hooks;
        f.fs.addHooks(&hooks);
        Vfs vfs(f.fs, f.cm, 0);
        f.fs.create(f.cpu, "/a");
        const auto a = vfs.open(f.cpu, "/a");
        vfs.close(f.cpu, a->ino);
        ASSERT_TRUE(f.fs.unlink(f.cpu, "/a"));
        EXPECT_EQ(hooks.evicted, std::vector<Ino>{a->ino});
        EXPECT_NO_THROW(vfs.dropCaches());
        EXPECT_FALSE(vfs.isCached(a->ino));
        EXPECT_EQ(vfs.cachedCount(), 0u);
        // Unlink already notified the hooks; the cache sends nothing.
        EXPECT_EQ(hooks.evicted, std::vector<Ino>{a->ino});
    }
    // LRU eviction when a later open fills the cache.
    {
        Fixture f;
        EvictRecorder hooks;
        f.fs.addHooks(&hooks);
        Vfs vfs(f.fs, f.cm, 1);
        f.fs.create(f.cpu, "/b");
        const auto b = vfs.open(f.cpu, "/b");
        vfs.close(f.cpu, b->ino);
        ASSERT_TRUE(f.fs.unlink(f.cpu, "/b"));
        f.fs.create(f.cpu, "/c");
        std::optional<Vfs::OpenResult> c;
        EXPECT_NO_THROW(c = vfs.open(f.cpu, "/c"));
        ASSERT_TRUE(c.has_value());
        EXPECT_TRUE(c->cold);
        EXPECT_FALSE(vfs.isCached(b->ino));
        EXPECT_TRUE(vfs.isCached(c->ino));
        EXPECT_EQ(vfs.cachedCount(), 1u);
        EXPECT_EQ(hooks.evicted, std::vector<Ino>{b->ino});
        vfs.close(f.cpu, c->ino);
    }
}

// ---------------------------------------------------------------------
// Inode table and name index
// ---------------------------------------------------------------------

/**
 * Seeded namespace churn (create, unlink, fsync, lookup, list, crash +
 * recover) applied to a FileSystem and to ordered reference maps.
 * After every operation the file system must agree with the maps, list
 * sorted paths, walk its table in ascending inode number and pass
 * fsck; recovery must evict the lost inodes in ascending number.
 */
TEST(InodeTable, RandomOpsMatchOrderedReference)
{
    for (const Personality personality :
         {Personality::Ext4Dax, Personality::Nova}) {
        SCOPED_TRACE(personality == Personality::Ext4Dax ? "ext4" : "nova");
        Fixture f(personality);
        EvictRecorder hooks;
        f.fs.addHooks(&hooks);
        sim::Rng rng(20);

        std::map<Ino, std::string> byIno;
        std::map<std::string, Ino> byPath;
        std::map<Ino, std::string> committed;
        // Created since their last commit. An ext4 fsync commits the
        // whole running transaction; a NOVA fsync only its own inode.
        std::set<Ino> dirty;
        const auto fsync = [&](Ino ino) {
            f.fs.fsync(f.cpu, ino);
            for (const Ino d : dirty) {
                if (personality == Personality::Ext4Dax || d == ino)
                    committed[d] = byIno.at(d);
            }
            if (personality == Personality::Ext4Dax)
                dirty.clear();
            else
                dirty.erase(ino);
        };
        Ino lastIssued = 0;
        int recoveries = 0;
        const auto randomPath = [&] {
            return "/d" + std::to_string(rng.below(3)) + "/f"
                   + std::to_string(rng.below(64));
        };
        const std::vector<std::string> prefixes = {
            "", "/", "/d0/", "/d1/f1", "/d2/f63", "/none/"};

        for (int op = 0; op < 20000; op++) {
            SCOPED_TRACE("op " + std::to_string(op));
            const std::uint64_t kind = rng.below(100);
            if (kind < 35) {
                const std::string path = randomPath();
                if (byPath.count(path) != 0) {
                    EXPECT_THROW(f.fs.create(f.cpu, path),
                                 std::invalid_argument);
                } else {
                    const Ino ino = f.fs.create(f.cpu, path);
                    ASSERT_GT(ino, lastIssued); // ascending, never reused
                    lastIssued = ino;
                    byIno[ino] = path;
                    byPath[path] = ino;
                    dirty.insert(ino);
                    if (rng.below(2) == 0) {
                        ASSERT_TRUE(f.fs.fallocate(
                            f.cpu, ino, 0, (1 + rng.below(3)) * kBlockSize));
                    }
                    if (rng.below(2) == 0)
                        fsync(ino);
                }
            } else if (kind < 60) {
                const std::string path = randomPath();
                const auto it = byPath.find(path);
                ASSERT_EQ(f.fs.unlink(f.cpu, path), it != byPath.end());
                if (it != byPath.end()) {
                    const Ino ino = it->second;
                    EXPECT_THROW(f.fs.inode(ino), std::invalid_argument);
                    byIno.erase(ino);
                    committed.erase(ino);
                    dirty.erase(ino);
                    byPath.erase(it);
                }
            } else if (kind < 70) {
                if (!byIno.empty()) {
                    auto it = byIno.begin();
                    std::advance(it, rng.below(byIno.size()));
                    fsync(it->first);
                }
            } else if (kind < 85) {
                const std::string path = randomPath();
                const auto it = byPath.find(path);
                const std::optional<Ino> want =
                    it == byPath.end() ? std::nullopt
                                       : std::optional<Ino>(it->second);
                ASSERT_EQ(f.fs.lookupPath(path), want);
            } else if (kind < 99) {
                const std::string &prefix = prefixes[rng.below(
                    prefixes.size())];
                std::vector<std::string> want;
                for (auto it = byPath.lower_bound(prefix);
                     it != byPath.end()
                     && it->first.compare(0, prefix.size(), prefix) == 0;
                     ++it)
                    want.push_back(it->first);
                ASSERT_EQ(f.fs.list(prefix), want);
            } else {
                // Crash + recover: exactly the committed inodes
                // survive, and every live one is evicted first, in
                // ascending inode number.
                std::vector<Ino> live;
                for (const auto &[ino, path] : byIno) {
                    (void)path;
                    live.push_back(ino);
                }
                hooks.evicted.clear();
                f.pmem.crash();
                const RecoveryReport report = f.fs.recover();
                recoveries++;
                ASSERT_EQ(hooks.evicted, live);
                EXPECT_EQ(report.inodesRestored, committed.size());
                EXPECT_EQ(report.conflictBlocks, 0u);
                byIno = committed;
                dirty.clear();
                byPath.clear();
                for (const auto &[ino, path] : byIno)
                    byPath[path] = ino;
            }

            // The file system agrees with the reference.
            for (const auto &[ino, path] : byIno) {
                ASSERT_TRUE(f.fs.exists(ino));
                ASSERT_EQ(f.fs.inode(ino).path, path);
                ASSERT_EQ(f.fs.lookupPath(path), std::optional<Ino>(ino));
            }
            std::vector<std::string> paths;
            for (const auto &[path, ino] : byPath) {
                (void)ino;
                paths.push_back(path);
            }
            ASSERT_EQ(f.fs.list("/"), paths);
            // The table holds exactly the live inodes, in ascending
            // inode number.
            std::vector<Ino> walked;
            for (const auto &node : f.fs.inodeTable()) {
                if (node != nullptr)
                    walked.push_back(node->ino);
            }
            std::vector<Ino> want;
            for (const auto &[ino, path] : byIno) {
                (void)path;
                want.push_back(ino);
            }
            ASSERT_EQ(walked, want);
            ASSERT_FALSE(f.fs.exists(0));
            ASSERT_FALSE(f.fs.exists(lastIssued + 1));
            const auto problems = f.fs.fsck();
            ASSERT_TRUE(problems.empty()) << problems.front();
        }
        // The sequence reached every branch, including recovery.
        EXPECT_GT(lastIssued, 1000u);
        EXPECT_GT(recoveries, 100);
        EXPECT_FALSE(byIno.empty());
    }
}

namespace {

/** Every path hashes alike: one probe run holds the whole index. */
struct SameHash
{
    std::size_t operator()(std::string_view) const { return SIZE_MAX; }
};

/**
 * Four hashes whose home slots are the table's last four at every
 * size, so each probe run of more than four entries wraps past the
 * last slot.
 */
struct TopHash
{
    std::size_t
    operator()(std::string_view path) const
    {
        return SIZE_MAX - std::hash<std::string_view>{}(path) % 4;
    }
};

/**
 * Seeded inserts, duplicate inserts, erases, finds and rebuilds (clear
 * and re-insert in ascending inode number, as FileSystem::recover()
 * does) against an ordered map. The population climbs to @p cap, which
 * crosses several doublings, then drains and climbs again.
 */
template <class Hash>
void
checkPathIndexAgainstMap(std::uint64_t seed, std::size_t cap, int ops)
{
    std::vector<std::unique_ptr<Inode>> inodes(1);
    PathIndex<Hash> index(inodes);
    std::map<std::string, Ino> ref;
    sim::Rng rng(seed);
    std::set<std::size_t> capacities;
    int midChainErases = 0;
    const auto randomPath = [&] {
        return "/p" + std::to_string(rng.below(4 * cap));
    };
    const auto checkAll = [&] {
        ASSERT_EQ(index.size(), ref.size());
        ASSERT_LE(2 * index.size(), index.capacity());
        for (const auto &[path, ino] : ref)
            ASSERT_EQ(index.find(path), std::optional<Ino>(ino)) << path;
        std::vector<Ino> seen;
        index.forEach([&](Ino ino) { seen.push_back(ino); });
        std::sort(seen.begin(), seen.end());
        std::vector<Ino> want;
        for (const auto &[path, ino] : ref)
            want.push_back(ino);
        std::sort(want.begin(), want.end());
        ASSERT_EQ(seen, want);
    };

    bool filling = true;
    for (int op = 0; op < ops; op++) {
        SCOPED_TRACE("op " + std::to_string(op));
        if (ref.size() >= cap)
            filling = false;
        else if (ref.empty())
            filling = true;
        const std::uint64_t dice = rng.below(100);
        const std::string path = randomPath();
        const auto it = ref.find(path);
        if (dice < (filling ? 70u : 30u)) {
            const Ino ino = inodes.size();
            ASSERT_EQ(index.insert(path, ino), it == ref.end());
            if (it == ref.end()) {
                auto node = std::make_unique<Inode>();
                node->ino = ino;
                node->path = path;
                inodes.push_back(std::move(node));
                ref.emplace(path, ino);
            }
        } else if (dice < 95 && !ref.empty()) {
            // Erase a live entry, most of them not the newest, so the
            // hole opens inside a probe run that must shift back.
            auto victim = ref.begin();
            std::advance(victim, rng.below(ref.size()));
            midChainErases += victim->second + 1 != inodes.size();
            ASSERT_TRUE(index.erase(victim->first, victim->second));
            ASSERT_FALSE(index.erase(victim->first, victim->second));
            inodes[victim->second].reset();
            ref.erase(victim);
            ASSERT_NO_FATAL_FAILURE(checkAll());
        } else if (dice < 98) {
            ASSERT_EQ(index.find(path),
                      it == ref.end() ? std::nullopt
                                      : std::optional<Ino>(it->second));
        } else {
            const std::size_t before = index.capacity();
            index.clear();
            ASSERT_EQ(index.size(), 0u);
            for (const auto &node : inodes) {
                if (node != nullptr) {
                    ASSERT_TRUE(index.insert(node->path, node->ino));
                }
            }
            ASSERT_EQ(index.capacity(), before);
        }
        capacities.insert(index.capacity());
        if (ref.size() < 64 || op % 37 == 0) {
            ASSERT_NO_FATAL_FAILURE(checkAll());
        }
    }
    ASSERT_NO_FATAL_FAILURE(checkAll());
    // The trace grew the table several times and punched many holes
    // inside probe runs.
    EXPECT_GE(capacities.size(), 4u);
    EXPECT_GT(midChainErases, ops / 10);
}

} // namespace

TEST(PathIndex, RandomOpsMatchOrderedReference)
{
    checkPathIndexAgainstMap<std::hash<std::string_view>>(31, 600, 20000);
}

TEST(PathIndex, EqualHashesMatchOrderedReference)
{
    checkPathIndexAgainstMap<SameHash>(32, 150, 6000);
}

TEST(PathIndex, ProbeRunsWrappingPastTheLastSlotMatchOrderedReference)
{
    checkPathIndexAgainstMap<TopHash>(33, 150, 6000);
}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

/**
 * Seeded creates, growths, fsyncs, commitAlls, unlinks and crash +
 * recovery on both personalities, against a std::set<Ino> dirty set
 * and an ordered committed image. After every step the journal must
 * agree on isDirty() for every issued inode, dirtyCount(), commits(),
 * batchedInodes() and committedImage(), and each group commit must
 * snapshot its batch in ascending inode number.
 */
TEST(Journal, DirtySetMatchesOrderedReference)
{
    for (const Personality personality :
         {Personality::Ext4Dax, Personality::Nova}) {
        const bool ext4 = personality == Personality::Ext4Dax;
        SCOPED_TRACE(ext4 ? "ext4" : "nova");
        Fixture f(personality);
        Journal &journal = f.fs.journal();
        // Record the order in which commits snapshot inodes.
        std::vector<Ino> snapshots;
        journal.setResolver([&](Ino ino) -> const Inode * {
            snapshots.push_back(ino);
            return f.fs.exists(ino) ? &f.fs.inode(ino) : nullptr;
        });
        sim::Rng rng(ext4 ? 41 : 42);

        std::set<Ino> dirty;
        std::map<Ino, std::pair<std::string, std::uint64_t>> committed;
        std::map<Ino, std::string> live;
        std::uint64_t commits = 0;
        std::uint64_t batched = 0;
        Ino lastIssued = 0;
        std::uint64_t serial = 0;
        int groupCommits = 0;
        int recoveries = 0;

        // Snapshot @p batch (ascending) into the reference image.
        const auto commitRef = [&](const std::vector<Ino> &batch) {
            for (const Ino ino : batch) {
                const Inode &node = f.fs.inode(ino);
                committed[ino] = {node.path, node.allocatedCount};
            }
        };
        const auto randomLive = [&] {
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            return it->first;
        };

        for (int op = 0; op < 6000; op++) {
            SCOPED_TRACE("op " + std::to_string(op));
            snapshots.clear();
            std::vector<Ino> wantSnapshots;
            const std::uint64_t dice = rng.below(100);
            if (dice < 35 || live.empty()) {
                const std::string path = "/j" + std::to_string(serial++);
                const Ino ino = f.fs.create(f.cpu, path);
                lastIssued = ino;
                live[ino] = path;
                dirty.insert(ino);
            } else if (dice < 50) {
                // Growth re-dirties an inode, committed or not.
                const Ino ino = randomLive();
                const std::uint64_t size = f.fs.inode(ino).size;
                ASSERT_TRUE(f.fs.fallocate(f.cpu, ino, size, kBlockSize));
                dirty.insert(ino);
            } else if (dice < 70) {
                // fsync: ext4 forces the whole running transaction out,
                // NOVA appends this inode's log entry only.
                const Ino ino = randomLive();
                f.fs.fsync(f.cpu, ino);
                if (ext4 && !dirty.empty()) {
                    wantSnapshots.assign(dirty.begin(), dirty.end());
                    commits++;
                    if (dirty.size() > 1) {
                        batched += dirty.size();
                        groupCommits++;
                    }
                    dirty.clear();
                } else if (!ext4 && dirty.erase(ino) != 0) {
                    wantSnapshots = {ino};
                    commits++;
                }
                commitRef(wantSnapshots);
            } else if (dice < 75) {
                journal.commitAll(f.cpu);
                wantSnapshots.assign(dirty.begin(), dirty.end());
                if (!dirty.empty()) {
                    commits += ext4 ? 1 : dirty.size();
                    batched += ext4 ? dirty.size() : 0;
                    groupCommits++;
                }
                commitRef(wantSnapshots);
                dirty.clear();
            } else if (dice < 97) {
                const Ino ino = randomLive();
                ASSERT_TRUE(f.fs.unlink(f.cpu, live[ino]));
                commits++;
                committed.erase(ino);
                dirty.erase(ino);
                live.erase(ino);
            } else {
                f.pmem.crash();
                const RecoveryReport report = f.fs.recover();
                ASSERT_EQ(report.rolledBack, dirty.size());
                ASSERT_EQ(report.inodesRestored, committed.size());
                dirty.clear();
                live.clear();
                for (const auto &[ino, rec] : committed)
                    live[ino] = rec.first;
                recoveries++;
            }

            ASSERT_EQ(snapshots, wantSnapshots);
            ASSERT_EQ(journal.dirtyCount(), dirty.size());
            for (Ino ino = 0; ino <= lastIssued + 64; ino++) {
                ASSERT_EQ(journal.isDirty(ino), dirty.count(ino) != 0)
                    << "ino " << ino;
            }
            ASSERT_EQ(journal.commits(), commits);
            ASSERT_EQ(journal.batchedInodes(), batched);
            const auto &image = journal.committedImage();
            ASSERT_EQ(image.size(), committed.size());
            for (const auto &[ino, rec] : committed) {
                const auto it = image.find(ino);
                ASSERT_NE(it, image.end()) << "ino " << ino;
                ASSERT_EQ(it->second.path, rec.first);
                ASSERT_EQ(it->second.allocatedCount, rec.second);
            }
        }
        // The trace spans many bitmap words and reached every branch.
        EXPECT_GT(lastIssued, 1000u);
        EXPECT_GT(groupCommits, 50);
        EXPECT_GT(recoveries, 50);
    }
}

// ---------------------------------------------------------------------
// Aging
// ---------------------------------------------------------------------

TEST(Aging, AgrawalSizesInRange)
{
    sim::Rng rng(5);
    for (int i = 0; i < 10000; i++) {
        const auto s = drawAgrawalSize(rng);
        ASSERT_GE(s, 1024u);
        ASSERT_LE(s, 64ULL << 20);
    }
}

TEST(Aging, FragmentsTheImage)
{
    Fixture f(Personality::Ext4Dax, 512ULL << 20);
    AgingConfig config;
    config.churnFactor = 4.0;
    const AgingReport report = ageFileSystem(f.fs, config);
    EXPECT_GT(report.filesCreated, 100u);
    EXPECT_GT(report.filesDeleted, 50u);
    EXPECT_NEAR(report.utilization, 0.70, 0.12);
    EXPECT_GT(report.freeExtents, 10u);
    // Aged images lose most aligned-2MB free space.
    EXPECT_LT(report.hugeAlignedFreeFraction, 0.9);
}

TEST(Aging, DeterministicForSeed)
{
    Fixture a(Personality::Ext4Dax, 256ULL << 20);
    Fixture b(Personality::Ext4Dax, 256ULL << 20);
    AgingConfig config;
    config.churnFactor = 2.0;
    const auto ra = ageFileSystem(a.fs, config);
    const auto rb = ageFileSystem(b.fs, config);
    EXPECT_EQ(ra.filesCreated, rb.filesCreated);
    EXPECT_EQ(ra.freeExtents, rb.freeExtents);
}

TEST(Aging, ChurnProfileChangesTheSizeDistribution)
{
    sim::Rng rng(5);
    AgingConfig big;
    big.sizeMedianLog2 = 20.0; // 1 MB median
    big.sizeMinLog2 = 14.0;
    big.sizeSigmaLog2 = 1.0;
    std::uint64_t bigTotal = 0;
    std::uint64_t defTotal = 0;
    for (int i = 0; i < 1000; i++) {
        bigTotal += drawAgrawalSize(rng, big);
        defTotal += drawAgrawalSize(rng);
        ASSERT_GE(drawAgrawalSize(rng, big), 1ULL << 14);
    }
    EXPECT_GT(bigTotal, 10 * defTotal);
}

namespace {

/**
 * FNV-1a over an image: every live inode's number, path and extents
 * in ascending inode number, then the free map.
 */
std::uint64_t
imageChecksum(FileSystem &fs)
{
    std::uint64_t h = 14695981039346656037ULL;
    const auto byte = [&](unsigned char b) {
        h ^= b;
        h *= 1099511628211ULL;
    };
    const auto word = [&](std::uint64_t v) {
        for (int i = 0; i < 8; i++)
            byte(static_cast<unsigned char>(v >> (8 * i)));
    };
    for (const auto &node : fs.inodeTable()) {
        if (node == nullptr)
            continue;
        word(node->ino);
        word(node->path.size());
        for (const char c : node->path)
            byte(static_cast<unsigned char>(c));
        for (const auto &[fileBlock, e] : node->extents) {
            word(fileBlock);
            word(e.block);
            word(e.count);
        }
    }
    for (const auto &[start, len] : fs.allocator().freeMap()) {
        word(start);
        word(len);
    }
    return h;
}

} // namespace

TEST(Aging, PinnedSeedProfileIsBitStable)
{
    // Frozen residue of one churn profile: any change to the size
    // draw, watermark arithmetic, or first-fit placement shows up here
    // as a changed count or checksum. Values harvested before the
    // first-fit skip hints, which must not move a block.
    AgingConfig config;
    config.seed = 7;
    config.churnFactor = 2.0;
    config.sizeMedianLog2 = 13.0;
    config.sizeSigmaLog2 = 2.0;
    config.highWaterDelta = 0.10;
    config.lowWaterDelta = 0.10;

    sim::CostModel cm;
    mem::Device pmem(mem::Kind::Pmem, 256ULL << 20, cm);
    FileSystem fs(Personality::Ext4Dax, pmem, 0, 256ULL << 20, cm);
    const AgingReport r = ageFileSystem(fs, config);
    EXPECT_EQ(r.filesCreated, 24688u);
    EXPECT_EQ(r.filesDeleted, 17045u);
    EXPECT_EQ(r.freeExtents, 1187u);
    // The whole aged image, so a placement change fails here and not
    // only in a bench diff.
    EXPECT_EQ(imageChecksum(fs), 0xa72057e8b8cd3597ULL);
}

TEST(FileSystem, WriteAndFallocateEnospc)
{
    // Tiny image: writes past capacity fail cleanly.
    Fixture f(Personality::Ext4Dax, 1ULL << 20); // 256 blocks
    const Ino ino = f.fs.create(f.cpu, "/big");
    EXPECT_EQ(f.fs.write(f.cpu, ino, 0, nullptr, 2ULL << 20), 0u);
    EXPECT_FALSE(f.fs.fallocate(f.cpu, ino, 0, 2ULL << 20));
    // The file is untouched and smaller requests still succeed.
    EXPECT_EQ(f.fs.inode(ino).size, 0u);
    EXPECT_TRUE(f.fs.fallocate(f.cpu, ino, 0, 64 * 1024));
}

TEST(FileSystem, NovaMapSyncCommitIsCheapEnoughToIgnore)
{
    // The NOVA personality's commit must be under 1 us so MAP_SYNC
    // faults stay cheap (paper Section V-C2).
    Fixture nova(Personality::Nova);
    const Ino ino = nova.fs.create(nova.cpu, "/f");
    nova.fs.fallocate(nova.cpu, ino, 0, 4096);
    sim::Cpu cpu(nullptr, 0, 0);
    nova.fs.journal().commit(cpu, ino);
    EXPECT_LT(cpu.now(), 1000u);
}
