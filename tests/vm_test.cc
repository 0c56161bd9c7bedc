/**
 * @file
 * Unit tests for the VM layer: POSIX mmap/munmap/mprotect/msync,
 * demand faults, dirty tracking, MAP_SYNC/MAP_POPULATE, TLB coherence
 * on unmap, truncate safety.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sys/system.h"
#include "vm/file_io.h"

using namespace dax;
using namespace dax::vm;

namespace {

sys::SystemConfig
smallConfig()
{
    sys::SystemConfig config;
    config.cores = 4;
    config.pmemBytes = 512ULL << 20;
    config.pmemTableBytes = 64ULL << 20;
    config.dramBytes = 256ULL << 20;
    config.daxvm = false; // pure Linux-default behaviour
    return config;
}

struct Fixture
{
    Fixture() : system(smallConfig()), as(system.newProcess()) {}

    sys::System system;
    std::unique_ptr<AddressSpace> as;
    sim::Cpu cpu{nullptr, 0, 0};
};

} // namespace

TEST(Mmap, MapsAndReadsFileData)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 64 * 1024, 64 * 1024);
    const std::uint64_t va =
        f.as->mmap(f.cpu, ino, 0, 64 * 1024, false, 0);
    ASSERT_NE(va, 0u);
    std::vector<std::uint8_t> buf(64 * 1024);
    f.as->memRead(f.cpu, va, buf.size(), mem::Pattern::Seq, buf.data());
    for (std::uint64_t i = 0; i < buf.size(); i += 1111)
        ASSERT_EQ(buf[i], sys::System::patternByte(ino, i));
}

TEST(Mmap, LazyFaultingCountsOnePerPage)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 16 * 4096);
    const std::uint64_t va = f.as->mmap(f.cpu, ino, 0, 16 * 4096,
                                        false, 0);
    f.as->memRead(f.cpu, va, 16 * 4096, mem::Pattern::Seq);
    EXPECT_EQ(f.system.metrics().counterValue("vm.faults"), 16u);
    // Second scan: no more faults.
    f.as->memRead(f.cpu, va, 16 * 4096, mem::Pattern::Seq);
    EXPECT_EQ(f.system.metrics().counterValue("vm.faults"), 16u);
}

TEST(Mmap, PopulateAvoidsLaterFaults)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 16 * 4096);
    const std::uint64_t va =
        f.as->mmap(f.cpu, ino, 0, 16 * 4096, false, kMapPopulate);
    f.as->memRead(f.cpu, va, 16 * 4096, mem::Pattern::Seq);
    EXPECT_EQ(f.system.metrics().counterValue("vm.faults"), 0u);
}

TEST(Mmap, HugePageUsedWhenAligned)
{
    Fixture f;
    // Fresh image, 4 MB file: allocator aligns it; expect 2 MB faults.
    const fs::Ino ino = f.system.makeFile("/huge", 4ULL << 20);
    const std::uint64_t va =
        f.as->mmap(f.cpu, ino, 0, 4ULL << 20, false, 0);
    f.as->memRead(f.cpu, va, 4ULL << 20, mem::Pattern::Seq);
    EXPECT_EQ(f.system.metrics().counterValue("vm.faults"), 2u);
}

TEST(Mmap, OffsetMappingReadsRightBytes)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 64 * 1024, 64 * 1024);
    const std::uint64_t off = 24 * 1024;
    const std::uint64_t va = f.as->mmap(f.cpu, ino, off, 4096, false, 0);
    std::uint8_t b = 0;
    f.as->memRead(f.cpu, va + 5, 1, mem::Pattern::Rand, &b);
    EXPECT_EQ(b, sys::System::patternByte(ino, off + 5));
}

TEST(Mmap, FailsOnMissingInode)
{
    Fixture f;
    EXPECT_EQ(f.as->mmap(f.cpu, 9999, 0, 4096, false, 0), 0u);
}

TEST(Munmap, AccessAfterUnmapFaultsToSigsegv)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 4096);
    const std::uint64_t va = f.as->mmap(f.cpu, ino, 0, 4096, false, 0);
    f.as->memRead(f.cpu, va, 8, mem::Pattern::Rand);
    ASSERT_TRUE(f.as->munmap(f.cpu, va, 4096));
    EXPECT_THROW(f.as->memRead(f.cpu, va, 8, mem::Pattern::Rand),
                 std::runtime_error);
}

TEST(Munmap, NoStaleTlbTranslationSurvives)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 4096);
    const std::uint64_t va = f.as->mmap(f.cpu, ino, 0, 4096, false, 0);
    f.as->memRead(f.cpu, va, 8, mem::Pattern::Rand); // cache in TLB
    f.as->munmap(f.cpu, va, 4096);
    auto &mmu = f.system.hub().mmu(0);
    EXPECT_EQ(mmu.tlb().lookup(va, f.as->asid()), nullptr);
}

TEST(Munmap, PartialSplitsVma)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 16 * 4096, 16 * 4096);
    const std::uint64_t va =
        f.as->mmap(f.cpu, ino, 0, 16 * 4096, false, 0);
    // Punch a hole in the middle.
    ASSERT_TRUE(f.as->munmap(f.cpu, va + 4 * 4096, 4 * 4096));
    EXPECT_EQ(f.as->vmas().size(), 2u);
    // Outside the hole still works and reads correct data.
    std::uint8_t b = 0;
    f.as->memRead(f.cpu, va + 9 * 4096, 1, mem::Pattern::Rand, &b);
    EXPECT_EQ(b, sys::System::patternByte(ino, 9 * 4096));
    EXPECT_THROW(f.as->memRead(f.cpu, va + 5 * 4096, 1,
                               mem::Pattern::Rand),
                 std::runtime_error);
}

TEST(Munmap, MiddleRangeAcrossManyVmas)
{
    Fixture f;
    constexpr std::uint64_t kLen = 4 * 4096;
    const fs::Ino ino = f.system.makeFile("/f", 12 * kLen, 12 * kLen);
    std::vector<std::uint64_t> vas;
    for (std::uint64_t i = 0; i < 12; i++) {
        vas.push_back(f.as->mmap(f.cpu, ino, i * kLen, kLen, false, 0));
        ASSERT_EQ(vas[i], vas[0] + i * kLen); // back to back
        f.as->memRead(f.cpu, vas[i], kLen, mem::Pattern::Seq);
    }
    // From the middle of VMA 2 (which starts before va) to the middle
    // of VMA 9.
    const std::uint64_t va = vas[2] + 2 * 4096;
    const std::uint64_t end = vas[9] + 2 * 4096;
    ASSERT_TRUE(f.as->munmap(f.cpu, va, end - va));

    struct Span
    {
        std::uint64_t start, end, fileOff;
        bool operator==(const Span &) const = default;
    };
    auto spans = [&]() {
        std::vector<Span> out;
        for (const auto &[start, vma] : f.as->vmas())
            out.push_back({start, vma.end, vma.fileOff});
        return out;
    };
    std::vector<Span> want = {
        {vas[0], vas[0] + kLen, 0},
        {vas[1], vas[1] + kLen, kLen},
        {vas[2], va, 2 * kLen},
        {end, vas[9] + kLen, 9 * kLen + 2 * 4096},
        {vas[10], vas[10] + kLen, 10 * kLen},
        {vas[11], vas[11] + kLen, 11 * kLen},
    };
    EXPECT_EQ(spans(), want);
    for (const Span &s : want) {
        std::uint8_t b = 0;
        f.as->memRead(f.cpu, s.start, 1, mem::Pattern::Rand, &b);
        EXPECT_EQ(b, sys::System::patternByte(ino, s.fileOff));
    }
    EXPECT_THROW(f.as->memRead(f.cpu, va, 1, mem::Pattern::Rand),
                 std::runtime_error);
    EXPECT_THROW(f.as->memRead(f.cpu, end - 1, 1, mem::Pattern::Rand),
                 std::runtime_error);

    // Starting inside the hole: the VMA before va ends short of it and
    // must be left alone; only the trimmed VMA 9 is cut again.
    ASSERT_TRUE(f.as->munmap(f.cpu, vas[5], end + 4096 - vas[5]));
    want[3] = {end + 4096, vas[9] + kLen, 9 * kLen + 3 * 4096};
    EXPECT_EQ(spans(), want);
}

TEST(ReverseMap, EntryLastsOnlyWhileItRecordsAMapping)
{
    Fixture f;
    sim::Cpu cpu(nullptr, 0, 0);
    const std::uint64_t len = 4 * 4096;
    for (int i = 0; i < 100; i++) {
        const std::string path = "/t" + std::to_string(i);
        const fs::Ino ino = f.system.makeFile(path, len);
        const std::uint64_t va = f.as->mmap(cpu, ino, 0, len, false, 0);
        f.as->memRead(cpu, va, len, mem::Pattern::Seq);
        ASSERT_TRUE(f.as->munmap(cpu, va, len));
        ASSERT_TRUE(f.system.fs().unlink(cpu, path));
    }
    EXPECT_TRUE(f.system.vmm().mappedInodes().empty());

    // A live mapping keeps its inode cached (the mapping's file
    // reference, as in Linux), and the entry survives dropCaches().
    const fs::Ino ino = f.system.makeFile("/live", len);
    const auto opened = f.system.vfs().open(cpu, "/live");
    ASSERT_TRUE(opened.has_value());
    const std::uint64_t va = f.as->mmap(cpu, ino, 0, len, false, 0);
    f.system.vfs().close(cpu, ino);
    f.system.vfs().dropCaches();
    EXPECT_TRUE(f.system.vfs().isCached(ino));
    EXPECT_EQ(f.system.vmm().mappedInodes(), std::vector<fs::Ino>{ino});
    ASSERT_EQ(f.system.vmm().mappingsOf(ino).size(), 1u);
    EXPECT_EQ(f.system.vmm().mappingsOf(ino)[0].vmaStart, va);
    ASSERT_TRUE(f.as->munmap(cpu, va, len));
    ASSERT_TRUE(f.system.fs().unlink(cpu, "/live"));
    EXPECT_TRUE(f.system.vmm().mappedInodes().empty());
}

TEST(Munmap, ReturnsFalseWhenNothingMapped)
{
    Fixture f;
    EXPECT_FALSE(f.as->munmap(f.cpu, 0x12340000, 4096));
}

TEST(DirtyTracking, FirstWriteTakesPermissionFault)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 8 * 4096);
    const std::uint64_t va =
        f.as->mmap(f.cpu, ino, 0, 8 * 4096, true, 0);
    f.as->memRead(f.cpu, va, 8 * 4096, mem::Pattern::Seq);
    const auto faultsAfterRead = f.system.metrics().counterValue("vm.faults");
    f.as->memWrite(f.cpu, va, 8 * 4096, mem::Pattern::Seq);
    // One write-protect fault per page on top of the read faults.
    EXPECT_EQ(f.system.metrics().counterValue("vm.wp_faults"), 8u);
    EXPECT_EQ(f.system.metrics().counterValue("vm.faults"),
              faultsAfterRead + 8);
    EXPECT_EQ(f.system.vmm().dirtyPages(ino), 8u);
}

TEST(DirtyTracking, MsyncFlushesAndRestartsTracking)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 8 * 4096);
    const std::uint64_t va =
        f.as->mmap(f.cpu, ino, 0, 8 * 4096, true, 0);
    f.as->memWrite(f.cpu, va, 8 * 4096, mem::Pattern::Seq,
                   mem::WriteMode::Cached);
    ASSERT_EQ(f.system.vmm().dirtyPages(ino), 8u);
    ASSERT_TRUE(f.as->msync(f.cpu, va, 8 * 4096));
    EXPECT_EQ(f.system.vmm().dirtyPages(ino), 0u);
    // Writing again re-faults (tracking restarted).
    const auto wp = f.system.metrics().counterValue("vm.wp_faults");
    f.as->memWrite(f.cpu, va, 4096, mem::Pattern::Seq);
    EXPECT_EQ(f.system.metrics().counterValue("vm.wp_faults"), wp + 1);
    EXPECT_EQ(f.system.vmm().dirtyPages(ino), 1u);
}

TEST(DirtyTracking, SyncEvery10WritesCausesManyMoreFaults)
{
    // Paper Section III-A4: one msync every 10 random 1 KB writes on a
    // mapped file causes ~2.8x more faults than no sync.
    auto run = [](bool sync) {
        Fixture f;
        const fs::Ino ino = f.system.makeFile("/f", 4ULL << 20);
        const std::uint64_t va =
            f.as->mmap(f.cpu, ino, 0, 4ULL << 20, true, 0);
        sim::Rng rng(3);
        for (int i = 0; i < 500; i++) {
            const std::uint64_t off =
                rng.below((4ULL << 20) - 1024);
            f.as->memWrite(f.cpu, va + off, 1024, mem::Pattern::Rand,
                           mem::WriteMode::Cached);
            if (sync && i % 10 == 9)
                f.as->msync(f.cpu, va, 4ULL << 20);
        }
        return f.system.metrics().counterValue("vm.faults");
    };
    const auto without = run(false);
    const auto with = run(true);
    EXPECT_GT(static_cast<double>(with),
              1.8 * static_cast<double>(without));
}

TEST(MapSync, FirstWritableFaultCommitsJournal)
{
    Fixture f;
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = f.system.fs().create(cpu, "/f");
    f.system.fs().fallocate(cpu, ino, 0, 4096); // dirty metadata
    ASSERT_TRUE(f.system.fs().journal().isDirty(ino));
    const std::uint64_t va =
        f.as->mmap(cpu, ino, 0, 4096, true, kMapSync);
    const auto commitsBefore = f.system.fs().journal().commits();
    f.as->memWrite(cpu, va, 8, mem::Pattern::Rand);
    EXPECT_EQ(f.system.fs().journal().commits(), commitsBefore + 1);
    EXPECT_FALSE(f.system.fs().journal().isDirty(ino));
}

TEST(Mprotect, DowngradeCausesWriteFault)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 4 * 4096);
    const std::uint64_t va =
        f.as->mmap(f.cpu, ino, 0, 4 * 4096, true, 0);
    f.as->memWrite(f.cpu, va, 4 * 4096, mem::Pattern::Seq);
    ASSERT_TRUE(f.as->mprotect(f.cpu, va, 4 * 4096, false));
    // Write to a read-only VMA: SIGSEGV.
    EXPECT_THROW(f.as->memWrite(f.cpu, va, 8, mem::Pattern::Rand),
                 std::runtime_error);
    // Reads still fine.
    f.as->memRead(f.cpu, va, 8, mem::Pattern::Rand);
}

TEST(Mprotect, PartialRangeSplits)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 8 * 4096);
    const std::uint64_t va =
        f.as->mmap(f.cpu, ino, 0, 8 * 4096, true, 0);
    ASSERT_TRUE(f.as->mprotect(f.cpu, va + 2 * 4096, 2 * 4096, false));
    EXPECT_EQ(f.as->vmas().size(), 3u);
    f.as->memWrite(f.cpu, va, 8, mem::Pattern::Rand); // still writable
    EXPECT_THROW(f.as->memWrite(f.cpu, va + 2 * 4096, 8,
                                mem::Pattern::Rand),
                 std::runtime_error);
}

TEST(Truncate, ZapsMappingsSynchronously)
{
    Fixture f;
    sim::Cpu cpu(nullptr, 0, 0);
    const fs::Ino ino = f.system.makeFile("/f", 16 * 4096);
    const std::uint64_t va =
        f.as->mmap(cpu, ino, 0, 16 * 4096, false, 0);
    f.as->memRead(cpu, va, 16 * 4096, mem::Pattern::Seq);
    f.system.fs().ftruncate(cpu, ino, 4 * 4096);
    // Pages beyond the new EOF are gone; access beyond EOF now fails.
    EXPECT_THROW(f.as->memRead(cpu, va + 8 * 4096, 8,
                               mem::Pattern::Rand),
                 std::runtime_error);
    // Pages before the truncation point still work.
    f.as->memRead(cpu, va, 8, mem::Pattern::Rand);
}

TEST(Access, WriteReadRoundTripThroughMapping)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 64 * 1024);
    const std::uint64_t va =
        f.as->mmap(f.cpu, ino, 0, 64 * 1024, true, 0);
    std::vector<std::uint8_t> in(5000, 0x5A);
    f.as->memWrite(f.cpu, va + 100, in.size(), mem::Pattern::Seq,
                   mem::WriteMode::NtStore, in.data());
    // Visible through the syscall path too (same storage).
    std::vector<std::uint8_t> out(in.size());
    f.system.fs().read(f.cpu, ino, 100, out.data(), out.size());
    EXPECT_EQ(in, out);
}

TEST(Access, SharedMappingsSeeEachOthersWrites)
{
    Fixture f;
    auto as2 = f.system.newProcess();
    const fs::Ino ino = f.system.makeFile("/shared", 4096);
    sim::Cpu cpu1(nullptr, 0, 0), cpu2(nullptr, 1, 1);
    const std::uint64_t va1 = f.as->mmap(cpu1, ino, 0, 4096, true, 0);
    const std::uint64_t va2 = as2->mmap(cpu2, ino, 0, 4096, false, 0);
    const std::uint64_t magic = 0x1122334455667788ULL;
    f.as->memWrite(cpu1, va1, 8, mem::Pattern::Rand,
                   mem::WriteMode::NtStore, &magic);
    std::uint64_t got = 0;
    as2->memRead(cpu2, va2, 8, mem::Pattern::Rand, &got);
    EXPECT_EQ(got, magic);
}

TEST(Access, RandomPatternCostsMoreThanSequential)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 1ULL << 20);
    const std::uint64_t va =
        f.as->mmap(f.cpu, ino, 0, 1ULL << 20, false, kMapPopulate);
    sim::Cpu seqCpu(nullptr, 0, 0), randCpu(nullptr, 0, 0);
    f.as->memRead(seqCpu, va, 4096, mem::Pattern::Seq);
    f.as->memRead(randCpu, va + 512 * 1024, 4096, mem::Pattern::Rand);
    EXPECT_GT(randCpu.now(), seqCpu.now());
}

TEST(FileIo, ReadAndProcessChargesBothPhases)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 1 << 20);
    sim::Cpu onlyRead(nullptr, 0, 0), readProcess(nullptr, 0, 0);
    f.system.fs().read(onlyRead, ino, 0, nullptr, 1 << 20);
    vm::readAndProcess(readProcess, f.system.fs(), f.system.cm(), ino,
                       0, 1 << 20);
    EXPECT_GT(readProcess.now(), onlyRead.now());
}

TEST(MmapSem, WritersObservedUnderContention)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 4096);
    const std::uint64_t va = f.as->mmap(f.cpu, ino, 0, 4096, false, 0);
    f.as->munmap(f.cpu, va, 4096);
    EXPECT_GE(f.as->mmapSem().writeStats().acquisitions, 2u);
}

TEST(Mremap, ShrinkGrowAndMove)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 32 * 4096, 32 * 4096);
    const std::uint64_t va =
        f.as->mmap(f.cpu, ino, 0, 16 * 4096, false, 0);
    f.as->memRead(f.cpu, va, 16 * 4096, mem::Pattern::Seq);

    // Shrink: tail must become inaccessible.
    ASSERT_EQ(f.as->mremap(f.cpu, va, 16 * 4096, 8 * 4096), va);
    EXPECT_THROW(f.as->memRead(f.cpu, va + 12 * 4096, 8,
                               mem::Pattern::Rand),
                 std::runtime_error);

    // Grow in place (nothing mapped after it in the bump space).
    ASSERT_EQ(f.as->mremap(f.cpu, va, 8 * 4096, 24 * 4096), va);
    std::uint8_t b = 0;
    f.as->memRead(f.cpu, va + 20 * 4096, 1, mem::Pattern::Rand, &b);
    EXPECT_EQ(b, sys::System::patternByte(ino, 20 * 4096));

    // Force a move by mapping something right after, then growing.
    const fs::Ino other = f.system.makeFile("/g", 4096);
    f.as->mmap(f.cpu, other, 0, 4096, false, 0);
    const std::uint64_t moved =
        f.as->mremap(f.cpu, va, 24 * 4096, 32 * 4096);
    ASSERT_NE(moved, 0u);
    ASSERT_NE(moved, va);
    // Translations moved with the mapping; data still correct.
    f.as->memRead(f.cpu, moved + 20 * 4096, 1, mem::Pattern::Rand, &b);
    EXPECT_EQ(b, sys::System::patternByte(ino, 20 * 4096));
    // Old address dead.
    EXPECT_THROW(f.as->memRead(f.cpu, va, 8, mem::Pattern::Rand),
                 std::runtime_error);
}

TEST(Mremap, PartialAndUnknownRejected)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 8 * 4096);
    const std::uint64_t va =
        f.as->mmap(f.cpu, ino, 0, 8 * 4096, false, 0);
    EXPECT_EQ(f.as->mremap(f.cpu, va, 4 * 4096, 8 * 4096), 0u);
    EXPECT_EQ(f.as->mremap(f.cpu, 0xdead0000, 4096, 8192), 0u);
}

TEST(Latr, LazyUnmapKeepsRemoteStaleUntilDrain)
{
    Fixture f;
    const fs::Ino ino = f.system.makeFile("/f", 4 * 4096);
    sim::Cpu cpu0(nullptr, 0, 0), cpu1(nullptr, 1, 1);
    const std::uint64_t va = f.as->mmap(cpu0, ino, 0, 4 * 4096, false, 0);
    // Touch from both cores so both TLBs cache translations.
    f.as->memRead(cpu0, va, 4 * 4096, mem::Pattern::Seq);
    f.as->memRead(cpu1, va, 4 * 4096, mem::Pattern::Seq);
    ASSERT_TRUE(f.system.latr().munmapLazy(cpu0, *f.as, va));
    // No IPI was sent; core 1's TLB still holds the translation.
    EXPECT_EQ(f.system.metrics().counterValue("tlb.ipis"), 0u);
    EXPECT_NE(f.system.hub().mmu(1).tlb().lookup(va, f.as->asid()),
              nullptr);
    // The drain at core 1's next scheduling boundary clears it.
    f.system.latr().drain(cpu1);
    EXPECT_EQ(f.system.hub().mmu(1).tlb().lookup(va, f.as->asid()),
              nullptr);
    EXPECT_GT(f.system.latr().lazyInvalidations(), 0u);
}
