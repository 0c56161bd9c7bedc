/**
 * @file
 * VM checker: every present PTE must lie inside a VMA with compatible
 * permissions, the reverse-mapping registry and the VMA trees must
 * agree bidirectionally (frame refcounts = mapping counts), page-table
 * node accounting must match a recount, and at teardown nothing may
 * leak.
 */
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "arch/pte.h"
#include "check/check.h"
#include "sys/system.h"

namespace dax::check {

namespace {

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
roundUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) / align * align;
}

class VmChecker final : public Checker
{
  public:
    const char *name() const override { return "vm"; }

    bool
    appliesTo(sim::CheckEvent event) const override
    {
        switch (event) {
        case sim::CheckEvent::Quantum:
        case sim::CheckEvent::Munmap:
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
        sys::System &sys = oracle.system();
        vm::VmManager &vmm = sys.vmm();

        if (event == sim::CheckEvent::Teardown) {
            leakSweep(oracle, vmm);
            return;
        }
        for (vm::AddressSpace *as : vmm.spaces())
            checkSpace(oracle, *as);
        checkReverseMap(oracle, vmm);
    }

  private:
    // --------------------------------------------------------------
    // Page-table walk vs VMA trees
    // --------------------------------------------------------------

    /**
     * The address range a VMA's translations may legitimately cover.
     * DaxVM attachments are node-granular: the last granule of an
     * attachment can carry translations past vma.end (the tail of the
     * shared file table), which is harmless because the VMA bounds all
     * accesses.
     */
    static std::uint64_t
    coverEnd(const vm::Vma &vma)
    {
        if (vma.daxvm && vma.attachLevel >= 0) {
            return vma.start
                 + roundUp(vma.length(),
                           arch::levelSpan(vma.attachLevel));
        }
        return vma.end;
    }

    /** Find a VMA overlapping [va, va+span) in either tree. */
    static const vm::Vma *
    vmaCovering(const vm::AddressSpace &as, std::uint64_t va,
                std::uint64_t span)
    {
        const auto probe =
            [va, span](const std::map<std::uint64_t, vm::Vma> &tree)
            -> const vm::Vma * {
            auto it = tree.upper_bound(va + span - 1);
            if (it == tree.begin())
                return nullptr;
            --it;
            const vm::Vma &vma = it->second;
            if (va + span > vma.start && va < coverEnd(vma))
                return &vma;
            return nullptr;
        };
        if (const vm::Vma *vma = probe(as.vmas()))
            return vma;
        return probe(as.ephemeral().vmas);
    }

    void
    checkSpace(Oracle &oracle, vm::AddressSpace &as)
    {
        const arch::PageTable &pt =
            static_cast<const vm::AddressSpace &>(as).pageTable();
        walkNode(oracle, as, pt.root(), arch::kPgdLevel, 0,
                 /*writableSoFar=*/true);

        const std::uint64_t counted =
            countOwned(pt.root(), arch::kPgdLevel);
        if (counted != pt.ownedNodes()) {
            oracle.report(
                "vm", "vm.table.node-count",
                "asid " + std::to_string(as.asid()) + " owns "
                    + std::to_string(pt.ownedNodes())
                    + " table pages by counter but "
                    + std::to_string(counted) + " by recount");
        }
    }

    void
    walkNode(Oracle &oracle, vm::AddressSpace &as,
             const arch::Node *node, int level, std::uint64_t vaBase,
             bool writableSoFar)
    {
        for (unsigned idx = 0; idx < arch::kEntriesPerNode; idx++) {
            const arch::Pte e = node->entry(idx);
            if (!arch::pte::present(e))
                continue;
            const std::uint64_t va =
                vaBase + idx * arch::levelSpan(level);
            const bool w = writableSoFar && arch::pte::writable(e);
            const bool leaf =
                level == arch::kPteLevel || arch::pte::huge(e);
            if (!leaf) {
                const arch::Node *child = node->child[idx];
                if (child == nullptr) {
                    oracle.report(
                        "vm", "vm.table.mirror-missing",
                        "asid " + std::to_string(as.asid())
                            + " has a present level-"
                            + std::to_string(level)
                            + " entry at va=" + hex(va)
                            + " with no mirrored child node");
                    continue;
                }
                walkNode(oracle, as, child, level - 1, va, w);
                continue;
            }
            checkLeaf(oracle, as, va, arch::levelSpan(level), w);
        }
    }

    void
    checkLeaf(Oracle &oracle, vm::AddressSpace &as, std::uint64_t va,
              std::uint64_t span, bool writable)
    {
        const vm::Vma *vma = vmaCovering(as, va, span);
        if (vma == nullptr) {
            oracle.report(
                "vm", "vm.pte.orphan",
                "asid " + std::to_string(as.asid())
                    + " has a present translation at va=" + hex(va)
                    + " span=" + hex(span) + " outside every VMA");
            return;
        }
        if (writable && !vma->writable && !vma->zombie) {
            oracle.report(
                "vm", "vm.pte.writable-beyond-vma",
                "asid " + std::to_string(as.asid())
                    + " maps va=" + hex(va)
                    + " writable inside the read-only VMA at "
                    + hex(vma->start));
        }
    }

    /** Count owned (non-shared) table pages, root included. */
    static std::uint64_t
    countOwned(const arch::Node *node, int level)
    {
        if (node == nullptr || node->shared)
            return 0;
        std::uint64_t count = 1;
        if (level > arch::kPteLevel) {
            for (unsigned i = 0; i < arch::kEntriesPerNode; i++)
                count += countOwned(node->child[i], level - 1);
        }
        return count;
    }

    // --------------------------------------------------------------
    // Reverse mapping (i_mmap) vs the VMA trees
    // --------------------------------------------------------------

    void
    checkReverseMap(Oracle &oracle, vm::VmManager &vmm)
    {
        // Mapping counts per inode derived from the VMA trees.
        std::map<fs::Ino, std::uint64_t> fromVmas;
        for (vm::AddressSpace *as : vmm.spaces()) {
            for (const auto &[start, vma] : as->vmas())
                fromVmas[vma.ino]++;
            for (const auto &[start, vma] : as->ephemeral().vmas)
                fromVmas[vma.ino]++;
        }

        // Inodes with registered state plus inodes some VMA maps: the
        // manager drops an empty entry when its inode is evicted, so a
        // mapped inode without one is a refcount mismatch too.
        std::vector<fs::Ino> inos = vmm.mappedInodes();
        for (const auto &[ino, count] : fromVmas) {
            (void)count;
            inos.push_back(ino);
        }
        std::sort(inos.begin(), inos.end());
        inos.erase(std::unique(inos.begin(), inos.end()), inos.end());
        for (const fs::Ino ino : inos) {
            const auto &refs = vmm.mappingsOf(ino);
            for (const auto &ref : refs) {
                if (vmm.spaces().count(ref.as) == 0) {
                    oracle.report(
                        "vm", "vm.rmap.dangling-space",
                        "ino " + std::to_string(ino)
                            + " is registered against a destroyed "
                              "address space");
                    continue;
                }
                const vm::Vma *vma =
                    lookupVma(*ref.as, ref.vmaStart);
                if (vma == nullptr || vma->ino != ino) {
                    oracle.report(
                        "vm", "vm.rmap.stale-ref",
                        "ino " + std::to_string(ino)
                            + " registration points at vma start "
                            + hex(ref.vmaStart)
                            + (vma == nullptr
                                   ? " which does not exist"
                                   : " which maps ino "
                                         + std::to_string(vma->ino)));
                }
            }
            const std::uint64_t expected =
                fromVmas.count(ino) != 0 ? fromVmas[ino] : 0;
            if (refs.size() != expected) {
                oracle.report(
                    "vm", "vm.rmap.refcount",
                    "ino " + std::to_string(ino) + " has "
                        + std::to_string(refs.size())
                        + " registered mappings but "
                        + std::to_string(expected)
                        + " VMAs reference it");
            }
        }
    }

    static const vm::Vma *
    lookupVma(const vm::AddressSpace &as, std::uint64_t start)
    {
        auto it = as.vmas().find(start);
        if (it != as.vmas().end())
            return &it->second;
        auto eit = as.ephemeral().vmas.find(start);
        if (eit != as.ephemeral().vmas.end())
            return &eit->second;
        return nullptr;
    }

    // --------------------------------------------------------------
    // Teardown leak sweep
    // --------------------------------------------------------------

    void
    leakSweep(Oracle &oracle, vm::VmManager &vmm)
    {
        if (!vmm.spaces().empty()) {
            oracle.report(
                "vm", "vm.leak.space",
                std::to_string(vmm.spaces().size())
                    + " address space(s) still registered at system "
                      "teardown");
        }
        for (const fs::Ino ino : vmm.mappedInodes()) {
            if (!vmm.mappingsOf(ino).empty()) {
                oracle.report(
                    "vm", "vm.leak.mapping",
                    "ino " + std::to_string(ino) + " still has "
                        + std::to_string(vmm.mappingsOf(ino).size())
                        + " registered mapping(s) at teardown");
            }
        }
    }
};

} // namespace

std::unique_ptr<Checker>
makeVmChecker()
{
    return std::make_unique<VmChecker>();
}

} // namespace dax::check
