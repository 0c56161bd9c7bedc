/**
 * @file
 * Vfs implementation.
 */
#include "fs/vfs.h"

namespace dax::fs {

Vfs::Vfs(FileSystem &fs, const sim::CostModel &cm, std::size_t capacity)
    : fs_(fs), cm_(cm), capacity_(capacity)
{
}

std::optional<Vfs::OpenResult>
Vfs::open(sim::Cpu &cpu, const std::string &path)
{
    const auto ino = fs_.lookupPath(path);
    cpu.advance(cm_.openBase);
    if (!ino)
        return std::nullopt;

    OpenResult res;
    res.ino = *ino;
    auto it = cache_.find(*ino);
    if (it != cache_.end()) {
        // Warm: refresh LRU position (the node moves; nothing allocates).
        lru_.splice(lru_.begin(), lru_, it->second);
        warmOpens_++;
    } else {
        cpu.advance(cm_.coldOpenExtra);
        lru_.push_front(*ino);
        cache_.emplace(*ino, lru_.begin());
        coldOpens_++;
        res.cold = true;
        evictIfNeeded();
    }
    fs_.inode(*ino).pins++;
    return res;
}

void
Vfs::close(sim::Cpu &cpu, Ino ino)
{
    cpu.advance(cm_.closeBase);
    Inode &node = fs_.inode(ino);
    if (node.pins == 0)
        throw std::logic_error("close without open");
    node.pins--;
}

void
Vfs::evictIfNeeded()
{
    if (capacity_ == 0)
        return;
    while (cache_.size() > capacity_) {
        // Evict the least recently used unpinned inode.
        bool evicted = false;
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            // An unlinked inode has already notified the hooks.
            if (fs_.exists(*it)) {
                Inode &node = fs_.inode(*it);
                if (node.pins > 0 || fs_.inodeHeld(node))
                    continue;
                fs_.notifyEvict(node);
            }
            cache_.erase(*it);
            lru_.erase(std::next(it).base());
            evicted = true;
            break;
        }
        if (!evicted)
            break; // everything pinned; allow temporary overflow
    }
}

void
Vfs::dropCaches()
{
    for (auto it = lru_.begin(); it != lru_.end();) {
        // An unlinked inode has already notified the hooks.
        if (fs_.exists(*it)) {
            Inode &node = fs_.inode(*it);
            if (node.pins > 0 || fs_.inodeHeld(node)) {
                ++it;
                continue;
            }
            fs_.notifyEvict(node);
        }
        cache_.erase(*it);
        it = lru_.erase(it);
    }
}

} // namespace dax::fs
