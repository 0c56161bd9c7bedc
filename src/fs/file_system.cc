/**
 * @file
 * FileSystem implementation.
 */
#include "fs/file_system.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "sim/fault.h"
#include "sim/trace.h"

namespace dax::fs {

FileSystem::FileSystem(Personality personality, mem::Device &pmem,
                       std::uint64_t dataBase, std::uint64_t dataBytes,
                       const sim::CostModel &cm,
                       sim::MetricsRegistry *metrics,
                       AllocPolicy allocPolicy)
    : pmem_(pmem), cm_(cm),
      ownedMetrics_(metrics != nullptr
                        ? nullptr
                        : std::make_unique<sim::MetricsRegistry>()),
      metrics_(metrics != nullptr ? metrics : ownedMetrics_.get()),
      alloc_(dataBytes / kBlockSize, dataBase, allocPolicy),
      journal_(personality, cm)
{
    if (dataBase % kBlockSize != 0 || dataBytes % kBlockSize != 0)
        throw std::invalid_argument("fs region not block aligned");
    // Commit snapshots capture the live inode through this resolver
    // (keeps Journal independent of the inode table's representation).
    journal_.setResolver([this](Ino ino) -> const Inode * {
        auto it = inodes_.find(ino);
        return it == inodes_.end() ? nullptr : it->second.get();
    });

    sim::MetricsScope scope(*metrics_, "fs");
    counters_.creates = scope.counter("creates");
    counters_.unlinks = scope.counter("unlinks");
    counters_.prezeroedBlocks = scope.counter("prezeroed_blocks");
    counters_.zeroedBlocks = scope.counter("zeroed_blocks");
    counters_.blockAllocs = scope.counter("block_allocs");
    counters_.blocksFreed = scope.counter("blocks_freed");
    counters_.writeBytes = scope.counter("write_bytes");
    counters_.readBytes = scope.counter("read_bytes");
    counters_.fallocates = scope.counter("fallocates");
    counters_.truncates = scope.counter("truncates");
    counters_.fsyncFlushedLines = scope.counter("fsync_flushed_lines");
    counters_.fsyncs = scope.counter("fsyncs");
    counters_.recoveries = scope.counter("recoveries");
    journal_.bindMetrics(*metrics_);

    // Journal and allocator state is sampled at snapshot time; both
    // members outlive the registry reference held by this collector.
    auto commits = metrics_->gauge("fs.journal.commits");
    auto batched = metrics_->gauge("fs.journal.batched_inodes");
    auto jbd2Wait = metrics_->gauge("fs.journal.jbd2_wait_ns");
    auto jbd2Held = metrics_->gauge("fs.journal.jbd2_held_ns");
    auto jbd2Acqs = metrics_->gauge("fs.journal.jbd2_acquisitions");
    auto freeBlocks = metrics_->gauge("fs.alloc.free_blocks");
    auto zeroedPool = metrics_->gauge("fs.alloc.zeroed_blocks");
    auto diverted = metrics_->gauge("fs.alloc.diverted_blocks");
    auto total = metrics_->gauge("fs.alloc.total_blocks");
    metrics_->addCollector([this, commits, batched, jbd2Wait, jbd2Held,
                            jbd2Acqs, freeBlocks, zeroedPool, diverted,
                            total]() mutable {
        commits.set(static_cast<double>(journal_.commits()));
        batched.set(static_cast<double>(journal_.batchedInodes()));
        const sim::LockStats &jl = journal_.lock().stats();
        jbd2Wait.set(static_cast<double>(jl.waitNs));
        jbd2Held.set(static_cast<double>(jl.heldNs));
        jbd2Acqs.set(static_cast<double>(jl.acquisitions));
        freeBlocks.set(static_cast<double>(alloc_.freeBlocks()));
        zeroedPool.set(static_cast<double>(alloc_.zeroedBlocks()));
        diverted.set(static_cast<double>(alloc_.divertedBlocks()));
        total.set(static_cast<double>(alloc_.totalBlocks()));
    });
}

Ino
FileSystem::create(sim::Cpu &cpu, const std::string &path)
{
    if (names_.count(path) != 0)
        throw std::invalid_argument("create: path exists: " + path);
    cpu.advance(cm_.openBase);
    const Ino ino = nextIno_++;
    auto node = std::make_unique<Inode>();
    node->ino = ino;
    node->path = path;
    inodes_.emplace(ino, std::move(node));
    names_.emplace(path, ino);
    journal_.markDirty(ino);
    counters_.creates.addAt(cpu.coreId());
    return ino;
}

bool
FileSystem::unlink(sim::Cpu &cpu, const std::string &path)
{
    auto it = names_.find(path);
    if (it == names_.end())
        return false;
    const Ino ino = it->second;
    Inode &node = inode(ino);
    cpu.advance(cm_.openBase);
    freeAll(cpu, node, 0);
    // Unlink commits synchronously: the durable image must stop
    // claiming the freed blocks before anyone else can commit them.
    journal_.commitErase(cpu, ino);
    for (auto *h : hooks_)
        h->onInodeEvict(node);
    names_.erase(it);
    inodes_.erase(ino);
    counters_.unlinks.addAt(cpu.coreId());
    return true;
}

std::optional<Ino>
FileSystem::lookupPath(const std::string &path) const
{
    auto it = names_.find(path);
    if (it == names_.end())
        return std::nullopt;
    return it->second;
}

std::vector<std::string>
FileSystem::list(const std::string &prefix) const
{
    std::vector<std::string> out;
    for (auto it = names_.lower_bound(prefix); it != names_.end(); ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        out.push_back(it->first);
    }
    return out;
}

Inode &
FileSystem::inode(Ino ino)
{
    auto it = inodes_.find(ino);
    if (it == inodes_.end())
        throw std::invalid_argument("no such inode");
    return *it->second;
}

const Inode &
FileSystem::inode(Ino ino) const
{
    auto it = inodes_.find(ino);
    if (it == inodes_.end())
        throw std::invalid_argument("no such inode");
    return *it->second;
}

void
FileSystem::chargeExtentLookup(sim::Cpu &cpu, const Inode &node) const
{
    // Extent-tree depth grows with fragmentation: one lookup step per
    // ~340 extents per node level in ext4; model as log-ish steps.
    std::size_t extents = node.extents.size();
    unsigned steps = 1;
    while (extents > 340) {
        extents /= 340;
        steps++;
    }
    cpu.advance(cm_.extentLookup * steps);
}

void
FileSystem::zeroExtents(sim::Cpu &cpu, const std::vector<Extent> &extents,
                        const std::vector<bool> &alreadyZeroed)
{
    DAX_SPAN(sim::TraceCat::Fs, cpu, "zero");
    for (std::size_t i = 0; i < extents.size(); i++) {
        if (i < alreadyZeroed.size() && alreadyZeroed[i]) {
            counters_.prezeroedBlocks.addAt(cpu.coreId(),
                                            extents[i].count);
            continue; // pre-zeroed by the DaxVM daemon
        }
        const Extent &e = extents[i];
        pmem_.zero(alloc_.blockAddr(e.block), e.bytes());
        pmem_.writeKernel(cpu, alloc_.blockAddr(e.block), e.bytes(),
                          mem::WriteMode::NtStore, mem::Pattern::Seq);
        counters_.zeroedBlocks.addAt(cpu.coreId(), e.count);
    }
}

bool
FileSystem::extendTo(sim::Cpu &cpu, Inode &node, std::uint64_t newBlocks,
                     ZeroPolicy zeroPolicy, bool markUnwritten)
{
    const std::uint64_t have = node.allocatedBlocks();
    if (newBlocks <= have)
        return true;
    const std::uint64_t need = newBlocks - have;

    // Goal-directed: continue after the file's last extent.
    std::uint64_t goal = 0;
    if (!node.extents.empty())
        goal = std::prev(node.extents.end())->second.endBlock();

    std::vector<bool> zeroed;
    std::vector<Extent> got;
    {
        DAX_SPAN(sim::TraceCat::Fs, cpu, "block_alloc");
        got = alloc_.alloc(need, goal, &zeroed,
                           /*preferHugeAligned=*/need >= kBlocksPerHuge);
        if (got.empty())
            return false; // ENOSPC
        cpu.advance(cm_.blockAllocOp * got.size());
        counters_.blockAllocs.addAt(cpu.coreId(), got.size());
    }

    if (zeroPolicy == ZeroPolicy::Synchronous)
        zeroExtents(cpu, got, zeroed);

    if (markUnwritten)
        intervalInsert(node.unwritten, have, need);

    // Append extents to the tree, merging physically contiguous runs.
    std::uint64_t fileBlock = have;
    for (const auto &e : got) {
        bool merged = false;
        if (!node.extents.empty()) {
            auto last = std::prev(node.extents.end());
            if (last->second.endBlock() == e.block
                && last->first + last->second.count == fileBlock) {
                last->second.count += e.count;
                merged = true;
            }
        }
        if (!merged)
            node.extents.emplace(fileBlock, e);
        node.allocatedCount += e.count;
        for (auto *h : hooks_)
            h->onBlocksAllocated(cpu, node, fileBlock, e);
        fileBlock += e.count;
    }
    journal_.markDirty(node.ino);
    return true;
}

void
FileSystem::freeAll(sim::Cpu &cpu, Inode &node, std::uint64_t fromBlock)
{
    // Collect extents at/after fromBlock, splitting the boundary one.
    std::vector<std::pair<std::uint64_t, Extent>> toFree;
    for (auto it = node.extents.begin(); it != node.extents.end();) {
        const std::uint64_t start = it->first;
        Extent &e = it->second;
        if (start + e.count <= fromBlock) {
            ++it;
            continue;
        }
        if (start < fromBlock) {
            const std::uint64_t keep = fromBlock - start;
            Extent tail{e.block + keep, e.count - keep};
            e.count = keep;
            toFree.emplace_back(fromBlock, tail);
            ++it;
        } else {
            toFree.emplace_back(start, e);
            it = node.extents.erase(it);
        }
    }
    intervalErase(node.unwritten, fromBlock,
                  ~0ULL - fromBlock); // drop unwritten state beyond
    for (auto &[fileBlock, e] : toFree) {
        DAX_SPAN(sim::TraceCat::Fs, cpu, "block_free");
        for (auto *h : hooks_)
            h->onBlocksFreeing(cpu, node, fileBlock, e);
        cpu.advance(cm_.blockAllocOp);
        node.allocatedCount -= e.count;
        alloc_.free(e, cpu.coreId(), cpu.now());
        counters_.blocksFreed.addAt(cpu.coreId(), e.count);
    }
}

std::uint64_t
FileSystem::write(sim::Cpu &cpu, Ino ino, std::uint64_t off, const void *src,
                  std::uint64_t len)
{
    Inode &node = inode(ino);
    cpu.advance(cm_.syscall);
    if (len == 0)
        return 0;

    const std::uint64_t end = off + len;
    const std::uint64_t endBlocks = (end + kBlockSize - 1) / kBlockSize;
    if (endBlocks > node.allocatedBlocks()) {
        // Append path. ext4-DAX conservatively zeroes new blocks even
        // here; NOVA skips it because ntstores overwrite them anyway.
        const ZeroPolicy policy =
            journal_.personality() == Personality::Ext4Dax
                ? ZeroPolicy::Synchronous
                : ZeroPolicy::None;
        if (!extendTo(cpu, node, endBlocks, policy,
                      /*markUnwritten=*/false)) {
            return 0; // ENOSPC
        }
    }

    // Writes convert any unwritten blocks they cover (metadata
    // change, committed lazily unless fsync'ed).
    {
        const std::uint64_t firstBlock = off / kBlockSize;
        const std::uint64_t lastBlock = (end - 1) / kBlockSize;
        if (intervalErase(node.unwritten, firstBlock,
                          lastBlock - firstBlock + 1)
            > 0) {
            journal_.markDirty(ino);
        }
    }

    // Copy user data into PMem with non-temporal stores (kernel copy).
    std::uint64_t done = 0;
    while (done < len) {
        const std::uint64_t fileBlock = (off + done) / kBlockSize;
        const std::uint64_t inBlock = (off + done) % kBlockSize;
        // DAX writes go straight at media: a block on the badblock
        // list fails with EIO until fsck repair punches it out.
        if (intervalOverlaps(node.badBlocks, fileBlock, 1))
            throw IoError(ino, fileBlock);
        const auto run = node.find(fileBlock);
        if (!run)
            throw std::logic_error("write: unmapped file block");
        chargeExtentLookup(cpu, node);
        const std::uint64_t runBytes = run->count * kBlockSize - inBlock;
        const std::uint64_t chunk = std::min(len - done, runBytes);
        const std::uint64_t pa =
            alloc_.blockAddr(run->physBlock) + inBlock;
        if (src != nullptr) {
            pmem_.store(pa, static_cast<const std::uint8_t *>(src) + done,
                        chunk);
        }
        pmem_.writeKernel(cpu, pa, chunk, mem::WriteMode::NtStore,
                          chunk >= kBlockSize ? mem::Pattern::Seq
                                              : mem::Pattern::Rand);
        done += chunk;
    }
    if (end > node.size) {
        node.size = end;
        journal_.markDirty(ino);
    }
    counters_.writeBytes.addAt(cpu.coreId(), len);
    return len;
}

std::uint64_t
FileSystem::read(sim::Cpu &cpu, Ino ino, std::uint64_t off, void *dst,
                 std::uint64_t len, bool seq)
{
    Inode &node = inode(ino);
    cpu.advance(cm_.syscall);
    if (off >= node.size)
        return 0;
    len = std::min(len, node.size - off);

    std::uint64_t done = 0;
    unsigned mceRetries = 0;
    while (done < len) {
        const std::uint64_t fileBlock = (off + done) / kBlockSize;
        const std::uint64_t inBlock = (off + done) % kBlockSize;
        // Consult the badblock list before touching media, like
        // dax_direct_access() failing over known bad ranges.
        if (intervalOverlaps(node.badBlocks, fileBlock, 1))
            throw IoError(ino, fileBlock);
        const auto run = node.find(fileBlock);
        chargeExtentLookup(cpu, node);
        if (!run) {
            // Hole (sparse grow, or fsck repair punched a bad block
            // out): reads as zeros without touching the device.
            const std::uint64_t chunk =
                std::min(len - done, kBlockSize - inBlock);
            if (dst != nullptr) {
                std::memset(static_cast<std::uint8_t *>(dst) + done, 0,
                            chunk);
            }
            done += chunk;
            continue;
        }
        const std::uint64_t runBytes = run->count * kBlockSize - inBlock;
        const std::uint64_t chunk = std::min(len - done, runBytes);
        const std::uint64_t pa =
            alloc_.blockAddr(run->physBlock) + inBlock;
        try {
            if (dst != nullptr) {
                pmem_.fetch(pa, static_cast<std::uint8_t *>(dst) + done,
                            chunk);
            }
            pmem_.readKernel(cpu, pa, chunk,
                             seq ? mem::Pattern::Seq : mem::Pattern::Rand);
        } catch (const mem::MachineCheckException &mc) {
            // Synchronous machine check: the kernel read path eats the
            // #MC and either repairs (remap policies; the loop retries
            // this chunk against the new block) or fails with EIO.
            cpu.advance(cm_.mceHandle);
            const std::uint64_t badFile =
                fileBlock
                + ((mc.addr() - alloc_.blockAddr(run->physBlock))
                   / kBlockSize);
            if (!handlePoison(cpu, mc.addr()) || ++mceRetries > 8)
                throw IoError(ino, badFile);
            continue;
        }
        done += chunk;
    }
    counters_.readBytes.addAt(cpu.coreId(), len);
    return len;
}

bool
FileSystem::fallocate(sim::Cpu &cpu, Ino ino, std::uint64_t off,
                      std::uint64_t len)
{
    Inode &node = inode(ino);
    cpu.advance(cm_.syscall);
    const std::uint64_t endBlocks =
        (off + len + kBlockSize - 1) / kBlockSize;
    // The secure-mmap path: blocks must be zeroed before user-space may
    // map them, on both personalities (paper Section III-B); the new
    // extents are "unwritten" until first write converts them.
    if (!extendTo(cpu, node, endBlocks, ZeroPolicy::Synchronous,
                  /*markUnwritten=*/true)) {
        return false;
    }
    if (off + len > node.size) {
        node.size = off + len;
        journal_.markDirty(ino);
    }
    counters_.fallocates.addAt(cpu.coreId());
    return true;
}

void
FileSystem::ftruncate(sim::Cpu &cpu, Ino ino, std::uint64_t newSize)
{
    Inode &node = inode(ino);
    cpu.advance(cm_.syscall);
    const std::uint64_t newBlocks =
        (newSize + kBlockSize - 1) / kBlockSize;
    const bool shrunk = newBlocks < node.allocatedBlocks();
    if (shrunk)
        freeAll(cpu, node, newBlocks);
    node.size = newSize;
    journal_.markDirty(ino);
    // A freeing truncate commits synchronously (like unlink) so the
    // durable image never doubly claims the released blocks.
    if (shrunk)
        journal_.commit(cpu, ino);
    counters_.truncates.addAt(cpu.coreId());
}

void
FileSystem::fsync(sim::Cpu &cpu, Ino ino)
{
    Inode &node = inode(ino);
    cpu.advance(cm_.syscall);
    // Write back dirty cache lines over the file's blocks (data that
    // arrived through Cached stores, e.g. a non-MAP_SYNC mapping).
    std::uint64_t lines = 0;
    for (const auto &[fileBlock, e] : node.extents) {
        (void)fileBlock;
        lines += pmem_.flushRange(alloc_.blockAddr(e.block), e.bytes());
    }
    if (lines > 0) {
        cpu.advance(cm_.clwbLine * lines);
        counters_.fsyncFlushedLines.addAt(cpu.coreId(), lines);
    }
    journal_.commit(cpu, ino);
    counters_.fsyncs.addAt(cpu.coreId());
}

bool
FileSystem::fallocateSetup(Ino ino, std::uint64_t len)
{
    Inode &node = inode(ino);
    sim::Cpu scratch(nullptr, -1, 0);
    const std::uint64_t endBlocks = (len + kBlockSize - 1) / kBlockSize;
    if (!extendTo(scratch, node, endBlocks, ZeroPolicy::None,
                  /*markUnwritten=*/false)) {
        return false;
    }
    if (len > node.size)
        node.size = len;
    return true;
}

void
FileSystem::notifyEvict(Inode &inode)
{
    for (auto *h : hooks_)
        h->onInodeEvict(inode);
}

void
FileSystem::removeHooks(FsHooks *hooks)
{
    hooks_.erase(std::remove(hooks_.begin(), hooks_.end(), hooks),
                 hooks_.end());
}

RecoveryReport
FileSystem::recover()
{
    RecoveryReport report;
    report.rolledBack = journal_.dirtyCount();

    // Everything in memory is gone; per-inode private state (DaxVM
    // tables) is destroyed with the inodes.
    for (auto &[ino, node] : inodes_) {
        (void)ino;
        notifyEvict(*node);
    }
    names_.clear();
    inodes_.clear();
    journal_.clearDirty();

    // Replay the durable image: each committed record becomes a live
    // inode again.
    std::vector<Extent> allocated;
    Ino maxIno = 0;
    for (const auto &[ino, rec] : journal_.committedImage()) {
        // Double-fault injection point: a crash while this inode is
        // being restored (mid-journal-replay / mid-log-scan) must
        // leave recovery re-runnable from scratch.
        if (auto *plan = journal_.faultPlan())
            plan->onEvent(sim::FaultEvent::RecoveryReplay, 0);
        auto node = std::make_unique<Inode>();
        node->ino = ino;
        node->path = rec.path;
        node->size = rec.size;
        node->extents = rec.extents;
        node->unwritten = rec.unwritten;
        node->badBlocks = rec.badBlocks;
        node->allocatedCount = rec.allocatedCount;
        for (const auto &[fileBlock, e] : rec.extents) {
            (void)fileBlock;
            allocated.push_back(e);
        }
        names_.emplace(rec.path, ino);
        inodes_.emplace(ino, std::move(node));
        maxIno = std::max(maxIno, ino);
        report.inodesRestored++;
    }
    if (maxIno >= nextIno_)
        nextIno_ = maxIno + 1;

    // The allocator's free map is derived state: rebuild it so exactly
    // the committed extents are in use. Blocks that were in flight to
    // the (volatile) prezero daemon come back as plain free blocks.
    report.conflictBlocks = alloc_.rebuildFrom(allocated);
    // Media-retired blocks are durable: carve them back out of the
    // free map so they can never be reallocated.
    alloc_.rebuildRetired(journal_.retiredImage());
    counters_.recoveries.add();
    return report;
}

std::vector<std::string>
FileSystem::fsck() const
{
    std::vector<std::string> problems = alloc_.check();

    // Namespace <-> inode table.
    for (const auto &[path, ino] : names_) {
        auto it = inodes_.find(ino);
        if (it == inodes_.end())
            problems.push_back("name '" + path + "' -> missing inode "
                               + std::to_string(ino));
        else if (it->second->path != path)
            problems.push_back("name '" + path + "' -> inode "
                               + std::to_string(ino)
                               + " with path '" + it->second->path + "'");
    }
    for (const auto &[ino, node] : inodes_) {
        if (names_.count(node->path) == 0
            || names_.at(node->path) != ino) {
            problems.push_back("inode " + std::to_string(ino)
                               + " not reachable via its path");
        }
    }

    // Per-inode extent trees + global double-claim detection.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> claims;
    for (const auto &[ino, node] : inodes_) {
        const std::string tag = "inode " + std::to_string(ino);
        std::uint64_t counted = 0;
        std::uint64_t prevEnd = 0;
        bool first = true;
        for (const auto &[fileBlock, e] : node->extents) {
            if (e.count == 0)
                problems.push_back(tag + ": empty extent");
            if (!first && fileBlock < prevEnd)
                problems.push_back(tag + ": overlapping file blocks at "
                                   + std::to_string(fileBlock));
            if (e.endBlock() > alloc_.totalBlocks())
                problems.push_back(tag + ": extent past device end");
            claims.emplace_back(e.block, e.count);
            counted += e.count;
            prevEnd = fileBlock + e.count;
            first = false;
        }
        if (counted != node->allocatedCount)
            problems.push_back(tag + ": allocatedCount "
                               + std::to_string(node->allocatedCount)
                               + " != extent sum "
                               + std::to_string(counted));
    }
    // Media-retired blocks are claims too: an inode extent (or pool
    // entry, checked by alloc_.check()) overlapping the retired set
    // is corruption.
    for (const Extent &e : alloc_.retiredExtents())
        claims.emplace_back(e.block, e.count);
    std::sort(claims.begin(), claims.end());
    for (std::size_t i = 1; i < claims.size(); i++) {
        if (claims[i - 1].first + claims[i - 1].second > claims[i].first)
            problems.push_back("physical block "
                               + std::to_string(claims[i].first)
                               + " claimed twice");
    }

    // Every claimed block must be absent from the allocator's pools;
    // the sums must account for the whole device (claims include the
    // retired set appended above).
    std::uint64_t claimed = 0;
    for (const auto &[start, len] : claims) {
        (void)start;
        claimed += len;
    }
    const std::uint64_t accounted = claimed + alloc_.freeBlocks()
                                    + alloc_.zeroedBlocks()
                                    + alloc_.divertedBlocks();
    if (accounted != alloc_.totalBlocks())
        problems.push_back("block accounting: " + std::to_string(accounted)
                           + " != device "
                           + std::to_string(alloc_.totalBlocks()));
    return problems;
}

// ---------------------------------------------------------------------
// Media errors
// ---------------------------------------------------------------------

std::optional<std::pair<Ino, std::uint64_t>>
FileSystem::resolveBlock(std::uint64_t block) const
{
    // Machine checks are rare: a linear reverse lookup is fine here
    // and keeps the write/alloc fast paths free of reverse-map upkeep.
    for (const auto &[ino, node] : inodes_) {
        for (const auto &[fileBlock, e] : node->extents) {
            if (block >= e.block && block < e.block + e.count)
                return std::make_pair(ino, fileBlock + (block - e.block));
        }
    }
    return std::nullopt;
}

std::optional<std::uint64_t>
FileSystem::punchBlock(Inode &node, std::uint64_t fileBlock)
{
    auto it = node.extents.upper_bound(fileBlock);
    if (it == node.extents.begin())
        return std::nullopt;
    --it;
    const std::uint64_t start = it->first;
    const Extent e = it->second;
    if (fileBlock >= start + e.count)
        return std::nullopt;
    const std::uint64_t off = fileBlock - start;
    node.extents.erase(it);
    if (off > 0)
        node.extents.emplace(start, Extent{e.block, off});
    if (off + 1 < e.count) {
        node.extents.emplace(fileBlock + 1,
                             Extent{e.block + off + 1, e.count - off - 1});
    }
    return e.block + off;
}

std::optional<std::uint64_t>
FileSystem::allocReplacement(sim::Cpu &cpu, Ino ino, std::uint64_t goal)
{
    for (unsigned attempt = 0; attempt < 4; attempt++) {
        // Clean-frame pool exhausted: ask the prezero daemon for a
        // bounded batch (with backoff) instead of draining everything
        // or silently eating a full synchronous zero every repair.
        if (alloc_.zeroedBlocks() == 0
            && alloc_.prezeroSink() != nullptr) {
            if (alloc_.prezeroSink()->drainBounded(&cpu, 64) > 0)
                cpu.advance(cm_.blockAllocOp << attempt);
        }
        std::vector<bool> zeroed;
        auto got = alloc_.alloc(1, goal, &zeroed, false);
        if (got.empty())
            return std::nullopt; // ENOSPC even after draining
        cpu.advance(cm_.blockAllocOp);
        counters_.blockAllocs.addAt(cpu.coreId(), got.size());
        const Extent cand = got[0];
        zeroExtents(cpu, got, zeroed);
        // Check the frame only after zeroing: the zeroing writes
        // themselves add wear, and a frame that crosses its wear
        // budget right here must not be handed back as "repaired".
        if (pmem_.isPoisoned(alloc_.blockAddr(cand.block), kBlockSize)) {
            // The replacement frame is itself bad (clustered wear):
            // retire it on the spot and pick another. The record
            // rides the repairing inode's commit.
            alloc_.retire(cand);
            journal_.recordRetired(ino, cand);
            journal_.markDirty(ino);
            continue;
        }
        return cand.block;
    }
    return std::nullopt;
}

void
FileSystem::recordBadBlock(sim::Cpu &cpu, Inode &node,
                           std::uint64_t fileBlock)
{
    if (intervalOverlaps(node.badBlocks, fileBlock, 1))
        return; // already recorded durably
    intervalInsert(node.badBlocks, fileBlock, 1);
    journal_.markDirty(node.ino);
    // Commit immediately: the badblock record must survive a crash
    // that follows the error report.
    journal_.commit(cpu, node.ino);
}

bool
FileSystem::handlePoison(sim::Cpu &cpu, std::uint64_t paddr)
{
    try {
        return handlePoisonImpl(cpu, paddr);
    } catch (const sim::CrashException &) {
        // The machine died inside the repair (planned crash at a
        // journal commit / zeroing boundary): account the delivery as
        // reported so mceRaised == mceRepaired + mceFailed stays
        // exact across the crash. A post-recovery retry of the access
        // raises and is handled afresh.
        mceFailed_++;
        throw;
    }
}

bool
FileSystem::handlePoisonImpl(sim::Cpu &cpu, std::uint64_t paddr)
{
    const std::uint64_t base = alloc_.blockAddr(0);
    std::optional<std::pair<Ino, std::uint64_t>> owner;
    std::uint64_t block = 0;
    if (paddr >= base) {
        block = (paddr - base) / kBlockSize;
        if (block < alloc_.totalBlocks())
            owner = resolveBlock(block);
    }
    if (!owner) {
        // Outside the data region or not file-owned (free-pool
        // poison surfaces once the block is allocated and read).
        mceFailed_++;
        return false;
    }
    Inode &node = inode(owner->first);
    const std::uint64_t fileBlock = owner->second;

    if (mediaPolicy_ == MediaPolicy::FailFast) {
        recordBadBlock(cpu, node, fileBlock);
        mceFailed_++;
        return false;
    }

    DAX_SPAN(sim::TraceCat::Fs, cpu, "mce_repair");
    const auto newBlock = allocReplacement(cpu, node.ino, block);
    if (!newBlock) {
        // No replacement frame: degrade to fail-fast reporting.
        recordBadBlock(cpu, node, fileBlock);
        mceFailed_++;
        return false;
    }

    const std::uint64_t oldPa = alloc_.blockAddr(block);
    const std::uint64_t newPa = alloc_.blockAddr(*newBlock);
    if (mediaPolicy_ == MediaPolicy::RemapRestore) {
        // Charge the block copy first, against the clean replacement
        // address: a timed read of the old block would re-raise the
        // machine check inside the handler (the cost is address-
        // independent), and charging before the copy's own stores add
        // wear keeps the charge itself from tripping a fresh poison.
        pmem_.readKernel(cpu, newPa, kBlockSize, mem::Pattern::Seq);
        pmem_.writeKernel(cpu, newPa, kBlockSize, mem::WriteMode::NtStore,
                          mem::Pattern::Seq);
        // Salvage the clean 64 B lines of the old block into the
        // replacement; only the poisoned lines themselves stay zero.
        std::uint8_t line[mem::kCacheLine];
        for (std::uint64_t o = 0; o < kBlockSize; o += mem::kCacheLine) {
            if (pmem_.isPoisoned(oldPa + o, mem::kCacheLine))
                continue;
            pmem_.fetch(oldPa + o, line, sizeof line);
            pmem_.store(newPa + o, line, sizeof line);
        }
    }

    // O(1) swap in the extent tree: same file offset, fresh block.
    punchBlock(node, fileBlock);
    node.extents.emplace(fileBlock, Extent{*newBlock, 1});
    for (auto *h : hooks_) {
        h->onBlocksRemapped(cpu, node, fileBlock, Extent{block, 1},
                            Extent{*newBlock, 1});
    }

    // Retire the bad block and commit: the durable image must swap
    // atomically from (old extent) to (new extent + retired record),
    // and a crash before the commit redoes the whole repair.
    alloc_.retire(Extent{block, 1});
    intervalErase(node.badBlocks, fileBlock, 1);
    journal_.markDirty(node.ino);
    journal_.recordRetired(node.ino, Extent{block, 1});
    journal_.commit(cpu, node.ino);
    mceRepaired_++;
    DAX_TRACE(sim::TraceCat::Fs, cpu, "mce_remap ino=%llu file_block=%llu",
              static_cast<unsigned long long>(node.ino),
              static_cast<unsigned long long>(fileBlock));
    return true;
}

std::uint64_t
FileSystem::fsckRepair()
{
    sim::Cpu scratch(nullptr, -1, 0);
    std::uint64_t punched = 0;
    for (auto &[ino, node] : inodes_) {
        if (node->badBlocks.empty())
            continue;
        while (!node->badBlocks.empty()) {
            const std::uint64_t fileBlock = node->badBlocks.begin()->first;
            const auto phys = punchBlock(*node, fileBlock);
            if (phys) {
                const Extent bad{*phys, 1};
                for (auto *h : hooks_)
                    h->onBlocksFreeing(scratch, *node, fileBlock, bad);
                node->allocatedCount -= 1;
                alloc_.retire(bad);
                journal_.recordRetired(ino, bad);
                punched++;
            }
            intervalErase(node->badBlocks, fileBlock, 1);
        }
        journal_.markDirty(ino);
        journal_.commit(scratch, ino);
    }
    return punched;
}

} // namespace dax::fs
