/**
 * @file
 * File-system checker: extent trees, allocator and journal agreement.
 *
 *  - Per-inode extent trees are disjoint in file-block space.
 *  - No physical block is claimed twice: across inodes, and never by
 *    both an inode and the allocator's free or zeroed pools.
 *  - The allocator's own counters/maps are internally consistent
 *    (BlockAllocator::check() surfaced as violations).
 *  - allocatedCount matches the extent tree and bounds the file size.
 *  - The journal's durable image would replay idempotently: committed
 *    records are themselves well-formed and claim each physical block
 *    at most once, so a second replay reproduces the same state.
 */
#include <algorithm>
#include <string>
#include <vector>

#include "check/check.h"
#include "sys/system.h"

namespace dax::check {

namespace {

/** One physical claim, for the cross-owner overlap sweep. */
struct Claim
{
    std::uint64_t start = 0; ///< first physical block
    std::uint64_t end = 0;   ///< one past the last physical block
    std::string owner;
};

void
sweepClaims(Oracle &oracle, std::vector<Claim> &claims,
            const char *invariant)
{
    std::sort(claims.begin(), claims.end(),
              [](const Claim &a, const Claim &b) {
                  return a.start < b.start;
              });
    // Track the farthest-reaching claim seen so far, not just the
    // previous one: a long extent can overlap several later ones.
    std::uint64_t maxEnd = 0;
    const std::string *maxOwner = nullptr;
    for (const Claim &cur : claims) {
        if (maxOwner != nullptr && cur.start < maxEnd) {
            oracle.report(
                "fs", invariant,
                "physical blocks [" + std::to_string(cur.start) + ", "
                    + std::to_string(std::min(maxEnd, cur.end))
                    + ") are claimed by both " + *maxOwner + " and "
                    + cur.owner);
        }
        if (cur.end > maxEnd) {
            maxEnd = cur.end;
            maxOwner = &cur.owner;
        }
    }
}

class FsChecker final : public Checker
{
  public:
    const char *name() const override { return "fs"; }

    bool
    appliesTo(sim::CheckEvent event) const override
    {
        switch (event) {
        case sim::CheckEvent::Quantum:
        case sim::CheckEvent::JournalCommit:
        case sim::CheckEvent::Recover:
        case sim::CheckEvent::Teardown:
            return true;
        default:
            return false;
        }
    }

    void
    run(Oracle &oracle, sim::CheckEvent event) override
    {
        (void)event;
        fs::FileSystem &fs = oracle.system().fs();

        std::vector<Claim> claims;
        for (const auto &node : fs.inodeTable()) {
            if (node != nullptr)
                checkInode(oracle, node->ino, *node, claims);
        }
        // Free and zeroed pools also count as owners: an extent still
        // referenced by an inode must not be handed out again.
        for (const auto &[start, len] : fs.allocator().freeMap()) {
            claims.push_back(
                {start, start + len, "the free pool"});
        }
        for (const fs::Extent &e : fs.allocator().zeroedExtents()) {
            claims.push_back(
                {e.block, e.block + e.count, "the zeroed pool"});
        }
        // Retired (poisoned) blocks are out of circulation: an inode
        // or pool still claiming one would re-expose the bad medium.
        for (const fs::Extent &e : fs.allocator().retiredExtents()) {
            claims.push_back(
                {e.block, e.block + e.count, "the retired pool"});
        }
        sweepClaims(oracle, claims, "fs.alloc.double-claim");

        for (const std::string &problem : fs.allocator().check()) {
            oracle.report("fs", "fs.alloc.check", problem);
        }

        checkJournalImage(oracle, fs);
        checkMceAccounting(oracle);
    }

  private:
    void
    checkInode(Oracle &oracle, fs::Ino ino, const fs::Inode &node,
               std::vector<Claim> &claims)
    {
        const std::string owner = "ino " + std::to_string(ino);
        std::uint64_t prevEnd = 0;
        std::uint64_t total = 0;
        bool first = true;
        for (const auto &[fileBlock, e] : node.extents) {
            if (!first && fileBlock < prevEnd) {
                oracle.report(
                    "fs", "fs.extents.overlap",
                    owner + " maps file block "
                        + std::to_string(fileBlock)
                        + " twice: previous extent runs to "
                        + std::to_string(prevEnd));
            }
            prevEnd = fileBlock + e.count;
            first = false;
            total += e.count;
            claims.push_back({e.block, e.block + e.count, owner});
        }
        if (total != node.allocatedCount) {
            oracle.report(
                "fs", "fs.inode.alloc-count",
                owner + " counts " + std::to_string(node.allocatedCount)
                    + " allocated blocks but its extent tree holds "
                    + std::to_string(total));
        }
        // Note: sizeBlocks() > allocatedCount is legal - files can be
        // sparse (ftruncate grow leaves holes), so size does not bound
        // allocation in either direction.
    }

    /**
     * Media-error delivery invariant: every machine check the device
     * raised was handled exactly once - repaired (remap policies) or
     * reported (EIO/SIGBUS after bad-block recording). A mismatch
     * means an access path masked poison (walk cache / TLB serving
     * stale data) or double-delivered one fault.
     */
    void
    checkMceAccounting(Oracle &oracle)
    {
        const std::uint64_t raised =
            oracle.system().pmem().mceRaised();
        const fs::FileSystem &fs = oracle.system().fs();
        const std::uint64_t handled =
            fs.mceRepaired() + fs.mceFailed();
        if (raised != handled) {
            oracle.report(
                "fs", "fs.mce.unaccounted",
                "device raised " + std::to_string(raised)
                    + " machine checks but the handler repaired "
                    + std::to_string(fs.mceRepaired())
                    + " and failed " + std::to_string(fs.mceFailed())
                    + " (every poisoned access must be repaired or "
                      "reported, never silently satisfied)");
        }
    }

    /**
     * Replay idempotency proxy: recover() rebuilds the world from the
     * committed image, so the image itself must be conflict-free -
     * well-formed per record, and no physical block claimed by two
     * records. Then replaying twice converges to the same state.
     */
    void
    checkJournalImage(Oracle &oracle, fs::FileSystem &fs)
    {
        std::vector<Claim> claims;
        for (const auto &[ino, rec] : fs.journal().committedImage()) {
            const std::string owner =
                "committed ino " + std::to_string(ino);
            std::uint64_t prevEnd = 0;
            std::uint64_t total = 0;
            bool first = true;
            for (const auto &[fileBlock, e] : rec.extents) {
                if (!first && fileBlock < prevEnd) {
                    oracle.report(
                        "fs", "fs.journal.replay",
                        owner + " would replay file block "
                            + std::to_string(fileBlock) + " twice");
                }
                prevEnd = fileBlock + e.count;
                first = false;
                total += e.count;
                claims.push_back(
                    {e.block, e.block + e.count, owner});
            }
            if (total != rec.allocatedCount) {
                oracle.report(
                    "fs", "fs.journal.replay",
                    owner + " records " + std::to_string(rec.allocatedCount)
                        + " allocated blocks but its committed extents "
                          "hold "
                        + std::to_string(total));
            }
        }
        sweepClaims(oracle, claims, "fs.journal.replay");
    }
};

} // namespace

std::unique_ptr<Checker>
makeFsChecker()
{
    return std::make_unique<FsChecker>();
}

} // namespace dax::check
