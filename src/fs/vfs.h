/**
 * @file
 * VFS layer: path open/close with an LRU inode cache.
 *
 * The inode cache matters to DaxVM: volatile file tables live exactly
 * as long as the inode is cached (paper Section IV-A1) - a cold open
 * both pays coldOpenExtra and reconstructs volatile tables (charged by
 * the DaxVM hook), and eviction destroys them via
 * FileSystem::notifyEvict().
 */
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "fs/file_system.h"

namespace dax::fs {

class Vfs
{
  public:
    /**
     * @param capacity maximum cached inodes (0 = unlimited)
     */
    Vfs(FileSystem &fs, const sim::CostModel &cm, std::size_t capacity);

    struct OpenResult
    {
        Ino ino = 0;
        bool cold = false;
    };

    /** Open @p path; nullopt when it does not exist. Pins the inode. */
    std::optional<OpenResult> open(sim::Cpu &cpu, const std::string &path);

    /**
     * Close (unpin); inode stays cached until evicted. LRU eviction,
     * like dropCaches(), skips pinned inodes and inodes a hook holds.
     */
    void close(sim::Cpu &cpu, Ino ino);

    bool isCached(Ino ino) const { return cache_.count(ino) != 0; }
    std::size_t cachedCount() const { return cache_.size(); }
    std::uint64_t coldOpens() const { return coldOpens_; }
    std::uint64_t warmOpens() const { return warmOpens_; }

    /**
     * Drop every unpinned inode that no hook holds (a mapped inode
     * stays; see FsHooks::holdsInode()), e.g. memory-pressure
     * simulation. Entries of unlinked inodes go too, without an evict
     * notification: unlink already sent one.
     */
    void dropCaches();

    /**
     * Crash: the cache is volatile DRAM state - forget it without
     * evict notifications (the inodes themselves are being rebuilt).
     */
    void reset()
    {
        lru_.clear();
        cache_.clear();
    }

    FileSystem &fs() { return fs_; }

  private:
    void evictIfNeeded();

    FileSystem &fs_;
    const sim::CostModel &cm_;
    std::size_t capacity_;
    /** LRU order: front = most recent. */
    std::list<Ino> lru_;
    std::unordered_map<Ino, std::list<Ino>::iterator> cache_;
    std::uint64_t coldOpens_ = 0;
    std::uint64_t warmOpens_ = 0;
};

} // namespace dax::fs
