/**
 * @file
 * PageTable implementation.
 */
#include "arch/page_table.h"

#include <cassert>
#include <stdexcept>

namespace dax::arch {

PageTable::PageTable(mem::FrameAllocator &meta, bool walkCache)
    : meta_(meta), cacheOn_(walkCache)
{
    root_ = newNode(/*leaf=*/false);
}

PageTable::~PageTable()
{
    freeTree(root_, kPgdLevel);
}

Node *
PageTable::newNode(bool leaf)
{
    auto *node = new Node();
    node->dev = &meta_.device();
    node->frames = &meta_;
    node->frame = meta_.alloc();
    node->shared = false;
    if (leaf)
        node->child.fill(nullptr);
    ownedNodes_++;
    return node;
}

void
PageTable::freeTree(Node *node, int level)
{
    if (node == nullptr || node->shared)
        return; // attached file-table fragments belong to their owner
    if (level > kPteLevel) {
        for (unsigned i = 0; i < kEntriesPerNode; i++)
            freeTree(node->child[i], level - 1);
    }
    node->frames->free(node->frame);
    ownedNodes_--;
    delete node;
}

Node *
PageTable::walkTo(std::uint64_t va, int level, bool create,
                  unsigned *newPages)
{
    const bool cached = cacheOn_ && level == kPteLevel;
    if (cached) {
        if (const auto *e = walkCache_.find(va, structureGen_))
            return e->pteNode;
    }
    Node *node = root_;
    // Whether lookup() would reach this leaf table through private
    // interior nodes and present entries, and their writability: what
    // the cache records. The leaf table itself may be shared (see
    // WalkCache).
    bool cacheable = true;
    bool writable = true;
    for (int l = kPgdLevel; l > level; l--) {
        cacheable = cacheable && !node->shared;
        const unsigned idx = levelIndex(va, l);
        Node *next = node->child[idx];
        if (next == nullptr) {
            if (!create)
                return nullptr;
            next = newNode(/*leaf=*/(l - 1) == kPteLevel);
            node->child[idx] = next;
            node->setEntry(idx, pte::make(next->frame,
                                          pte::kPresent | pte::kWrite
                                              | pte::kUser));
            if (newPages != nullptr)
                (*newPages)++;
        } else {
            const Pte e = node->entry(idx);
            if (pte::huge(e))
                throw std::logic_error("walk through huge mapping");
            cacheable = cacheable && pte::present(e);
            writable = writable && pte::writable(e);
        }
        node = next;
    }
    if (cached && cacheable)
        walkCache_.fill(va, structureGen_, node, writable);
    return node;
}

unsigned
PageTable::map(std::uint64_t va, std::uint64_t pa, int level, Pte flags)
{
    if (va % levelSpan(level) != 0)
        throw std::invalid_argument("map: va not aligned to level span");
    unsigned newPages = 0;
    Node *node = walkTo(va, level, /*create=*/true, &newPages);
    const unsigned idx = levelIndex(va, level);
    Pte e = pte::make(pa, flags | pte::kPresent | pte::kUser);
    if (level > kPteLevel) {
        e |= pte::kHuge;
        // A huge leaf can shadow a PTE subtree the walk cache captured.
        structureGen_++;
    }
    node->setEntry(idx, e);
    return newPages;
}

Pte
PageTable::clear(std::uint64_t va, int level)
{
    Node *node = walkTo(va, level, /*create=*/false, nullptr);
    if (node == nullptr)
        return 0;
    const unsigned idx = levelIndex(va, level);
    const Pte old = node->entry(idx);
    node->setEntry(idx, 0);
    if (level > kPteLevel)
        structureGen_++;
    return old;
}

bool
PageTable::setFlags(std::uint64_t va, int level, Pte set, Pte clearMask)
{
    Node *node = walkTo(va, level, /*create=*/false, nullptr);
    if (node == nullptr)
        return false;
    const unsigned idx = levelIndex(va, level);
    Pte e = node->entry(idx);
    if (!pte::present(e))
        return false;
    e = (e & ~clearMask) | set;
    node->setEntry(idx, e);
    if (level > kPteLevel)
        structureGen_++;
    return true;
}

WalkResult
PageTable::lookup(std::uint64_t va) const
{
    if (!cacheOn_)
        return walkFromRoot(va);
    if (const auto *e = walkCache_.find(va, structureGen_))
        return walkDown(va, e->pteNode, kPteLevel, e->upperWritable,
                        /*fillCache=*/false);
    return walkDown(va, root_, kPgdLevel, true, /*fillCache=*/true);
}

WalkResult
PageTable::walkFromRoot(std::uint64_t va) const
{
    return walkDown(va, root_, kPgdLevel, true, /*fillCache=*/false);
}

WalkResult
PageTable::walkDown(std::uint64_t va, Node *node, int level,
                    bool writable, bool fillCache) const
{
    WalkResult res;
    res.levelsTouched = kPgdLevel - level;
    // Whether every interior node passed is process-owned (a walk that
    // starts at a cached leaf table had its interior checked when the
    // cache captured it). The leaf table itself may be shared.
    bool privatePath = true;
    for (int l = level; l >= kPteLevel; l--) {
        res.levelsTouched++;
        const unsigned idx = levelIndex(va, l);
        const Pte e = node->entry(idx);
        if (l == kPteLevel && privatePath) {
            // The walk cache may capture this path (upperWritable
            // excludes the leaf entry, which cached walks re-read).
            res.pteNode = node;
            res.upperWritable = writable;
            if (fillCache)
                walkCache_.fill(va, structureGen_, node, writable);
        }
        if (!pte::present(e))
            return res;
        writable = writable && pte::writable(e);
        const bool leafHere =
            l == kPteLevel || (l > kPteLevel && pte::huge(e));
        if (leafHere) {
            res.present = true;
            res.pageShift = levelShift(l);
            const std::uint64_t offset = va & (levelSpan(l) - 1);
            res.paddr = pte::addr(e) + offset;
            res.dram = pte::inDram(e);
            res.leafInDram = node->dev->kind() == mem::Kind::Dram;
            res.leafPteAddr = node->frame + idx * sizeof(Pte);
            res.writable = writable;
            return res;
        }
        privatePath = privatePath && !node->shared;
        node = node->child[idx];
        if (node == nullptr)
            return res; // present interior entry without mirror: corrupt
    }
    return res;
}

unsigned
PageTable::attach(std::uint64_t va, int level, Node *foreign, bool writable)
{
    if (level != kPmdLevel && level != kPudLevel)
        throw std::invalid_argument("attach only at PMD or PUD level");
    if (va % levelSpan(level) != 0)
        throw std::invalid_argument("attach: va not aligned");
    unsigned newPages = 0;
    Node *node = walkTo(va, level, /*create=*/true, &newPages);
    const unsigned idx = levelIndex(va, level);
    if (node->child[idx] != nullptr)
        throw std::logic_error("attach over existing subtree");
    node->child[idx] = foreign;
    Pte e = pte::make(foreign->frame,
                      pte::kPresent | pte::kUser | pte::kSoftAttached);
    if (writable)
        e |= pte::kWrite;
    node->setEntry(idx, e);
    structureGen_++;
    return newPages;
}

Node *
PageTable::detach(std::uint64_t va, int level)
{
    Node *node = walkTo(va, level, /*create=*/false, nullptr);
    if (node == nullptr)
        return nullptr;
    const unsigned idx = levelIndex(va, level);
    const Pte e = node->entry(idx);
    if (!pte::attached(e))
        return nullptr;
    Node *foreign = node->child[idx];
    node->child[idx] = nullptr;
    node->setEntry(idx, 0);
    structureGen_++;
    return foreign;
}

Node *
PageTable::attachedNode(std::uint64_t va, int level)
{
    Node *node = walkTo(va, level, /*create=*/false, nullptr);
    if (node == nullptr)
        return nullptr;
    const unsigned idx = levelIndex(va, level);
    return pte::attached(node->entry(idx)) ? node->child[idx] : nullptr;
}

bool
PageTable::setAttachmentWritable(std::uint64_t va, int level, bool writable)
{
    Node *node = walkTo(va, level, /*create=*/false, nullptr);
    if (node == nullptr)
        return false;
    const unsigned idx = levelIndex(va, level);
    Pte e = node->entry(idx);
    if (!pte::attached(e))
        return false;
    e = writable ? (e | pte::kWrite) : (e & ~pte::kWrite);
    node->setEntry(idx, e);
    structureGen_++;
    return true;
}

} // namespace dax::arch
