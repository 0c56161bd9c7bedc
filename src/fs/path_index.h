/**
 * @file
 * The file system's name index: a flat, open-addressed table of
 * (path hash, inode number) slots.
 *
 * A slot stores no path. A probe that meets the path's hash confirms
 * the hit against the inode's own path in the inode table, so equal
 * hashes are harmless. Linear probing over a power-of-two table that
 * doubles before it is half full keeps a create, an unlink or a lookup
 * to one short run of adjacent slots, and backshift deletion keeps
 * every run free of tombstones.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "fs/inode.h"

namespace dax::fs {

/**
 * @tparam Hash maps a path to a size_t; tests substitute one that
 *         collides on purpose.
 */
template <class Hash = std::hash<std::string_view>>
class PathIndex
{
  public:
    /** Index paths of @p inodes, the table indexed by inode number. */
    explicit PathIndex(const std::vector<std::unique_ptr<Inode>> &inodes)
        : inodes_(inodes)
    {}
    PathIndex(const PathIndex &) = delete;
    PathIndex &operator=(const PathIndex &) = delete;

    /** Inode whose path is @p path, if indexed. */
    std::optional<Ino>
    find(std::string_view path) const
    {
        if (slots_.empty())
            return std::nullopt;
        const std::size_t hash = Hash{}(path);
        for (std::size_t i = hash & mask(); slots_[i].ino != 0; i = next(i)) {
            if (slots_[i].hash == hash && inodes_[slots_[i].ino]->path == path)
                return slots_[i].ino;
        }
        return std::nullopt;
    }

    /**
     * Index @p path as inode @p ino, unless @p path is indexed already.
     * @p ino need not be in the inode table yet. @return whether added.
     */
    bool
    insert(std::string_view path, Ino ino)
    {
        if ((size_ + 1) * 2 > slots_.size())
            grow();
        const std::size_t hash = Hash{}(path);
        std::size_t i = hash & mask();
        for (; slots_[i].ino != 0; i = next(i)) {
            if (slots_[i].hash == hash && inodes_[slots_[i].ino]->path == path)
                return false;
        }
        slots_[i] = {hash, ino};
        size_++;
        return true;
    }

    /**
     * Remove inode @p ino, indexed under @p path, shifting the rest of
     * its probe run back over the hole. @return false if not indexed.
     */
    bool
    erase(std::string_view path, Ino ino)
    {
        if (slots_.empty())
            return false;
        std::size_t hole = Hash{}(path) & mask();
        for (; slots_[hole].ino != ino; hole = next(hole)) {
            if (slots_[hole].ino == 0)
                return false;
        }
        for (std::size_t i = next(hole); slots_[i].ino != 0; i = next(i)) {
            // The entry may fill the hole unless its home lies
            // (cyclically) after the hole, between the hole and i.
            const std::size_t home = slots_[i].hash & mask();
            if (((i - home) & mask()) >= ((i - hole) & mask())) {
                slots_[hole] = slots_[i];
                hole = i;
            }
        }
        slots_[hole] = {};
        size_--;
        return true;
    }

    /** Drop every entry (the table keeps its size). */
    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), Slot{});
        size_ = 0;
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

    /** Call @p fn(ino) for every entry, in slot order. */
    template <class Fn>
    void
    forEach(Fn fn) const
    {
        for (const Slot &s : slots_) {
            if (s.ino != 0)
                fn(s.ino);
        }
    }

  private:
    /** Inode number 0 is never issued, so it marks an empty slot. */
    struct Slot
    {
        std::size_t hash = 0;
        Ino ino = 0;
    };

    std::size_t mask() const { return slots_.size() - 1; }
    std::size_t next(std::size_t i) const { return (i + 1) & mask(); }

    void
    grow()
    {
        std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
        old.swap(slots_);
        for (const Slot &s : old) {
            if (s.ino == 0)
                continue;
            std::size_t i = s.hash & mask();
            while (slots_[i].ino != 0)
                i = next(i);
            slots_[i] = s;
        }
    }

    const std::vector<std::unique_ptr<Inode>> &inodes_;
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace dax::fs
