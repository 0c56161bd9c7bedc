/**
 * @file
 * Open-addressed hash table for dense 64-bit keys (page/line indices).
 *
 * The simulator's hottest overlays (mem::Device's sparse page store
 * and volatile dirty-line set) are keyed by small integer indices and
 * hit on almost every simulated memory access. std::unordered_map pays
 * a heap node plus a pointer chase per entry there; this table keeps
 * keys and values in two parallel flat arrays with linear probing, a
 * multiplicative (Fibonacci) hash and backshift deletion, so it never
 * accumulates tombstones and lookups stay one cache line deep at
 * typical load factors.
 *
 * Iteration (forEach) visits live slots in ascending slot-index order,
 * which depends only on the inserted key set and the (deterministic)
 * growth history -- never on host pointers -- so drain/crash sweeps
 * that walk the table stay bit-reproducible across runs.
 *
 * The all-ones key is reserved as the empty marker; device indices
 * derived from capacity can never reach it.
 */
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dax::sim {

template <typename V>
class FlatHash64
{
  public:
    static constexpr std::uint64_t kEmptyKey = ~0ULL;

    FlatHash64() = default;

    /** Size the table for @p expected entries without rehashing. */
    void
    reserve(std::size_t expected)
    {
        std::size_t cap = 16;
        while (cap * 7 < expected * 10) // keep load factor under 0.7
            cap *= 2;
        if (cap > keys_.size())
            rehash(cap);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    V *
    find(std::uint64_t key)
    {
        if (size_ == 0)
            return nullptr;
        const std::size_t idx = probe(key);
        return keys_[idx] == key ? &vals_[idx] : nullptr;
    }

    const V *
    find(std::uint64_t key) const
    {
        if (size_ == 0)
            return nullptr;
        const std::size_t idx = probe(key);
        return keys_[idx] == key ? &vals_[idx] : nullptr;
    }

    bool contains(std::uint64_t key) const { return find(key) != nullptr; }

    /** Value for @p key, default-constructing it on first use. */
    V &
    operator[](std::uint64_t key)
    {
        assert(key != kEmptyKey);
        if (keys_.empty() || (size_ + 1) * 10 > keys_.size() * 7)
            rehash(keys_.empty() ? 16 : keys_.size() * 2);
        const std::size_t idx = probe(key);
        if (keys_[idx] != key) {
            keys_[idx] = key;
            vals_[idx] = V{};
            size_++;
        }
        return vals_[idx];
    }

    /**
     * Remove @p key. Backshift deletion: subsequent probe-chain
     * entries slide up into the hole, so no tombstones are left to
     * rot the table. @return true when the key was present.
     */
    bool
    erase(std::uint64_t key)
    {
        if (size_ == 0)
            return false;
        std::size_t hole = probe(key);
        if (keys_[hole] != key)
            return false;
        const std::size_t mask = keys_.size() - 1;
        std::size_t next = (hole + 1) & mask;
        while (keys_[next] != kEmptyKey) {
            const std::size_t home = slotOf(keys_[next], mask);
            // Shift only entries whose probe chain spans the hole.
            if (((next - home) & mask) >= ((next - hole) & mask)) {
                keys_[hole] = keys_[next];
                vals_[hole] = std::move(vals_[next]);
                hole = next;
            }
            next = (next + 1) & mask;
        }
        keys_[hole] = kEmptyKey;
        vals_[hole] = V{}; // release held resources eagerly
        size_--;
        return true;
    }

    void
    clear()
    {
        std::fill(keys_.begin(), keys_.end(), kEmptyKey);
        for (auto &v : vals_)
            v = V{};
        size_ = 0;
    }

    /** Visit (key, value) pairs in ascending slot-index order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < keys_.size(); i++) {
            if (keys_[i] != kEmptyKey)
                fn(keys_[i], vals_[i]);
        }
    }

  private:
    static std::size_t
    slotOf(std::uint64_t key, std::size_t mask)
    {
        return static_cast<std::size_t>(key * 0x9E3779B97F4A7C15ULL >> 32)
             & mask;
    }

    /** First slot holding @p key, or the empty slot ending its chain. */
    std::size_t
    probe(std::uint64_t key) const
    {
        const std::size_t mask = keys_.size() - 1;
        std::size_t idx = slotOf(key, mask);
        while (keys_[idx] != key && keys_[idx] != kEmptyKey)
            idx = (idx + 1) & mask;
        return idx;
    }

    void
    rehash(std::size_t newCap)
    {
        if (newCap < keys_.size())
            return;
        std::vector<std::uint64_t> oldKeys = std::move(keys_);
        std::vector<V> oldVals = std::move(vals_);
        keys_.assign(newCap, kEmptyKey);
        vals_.clear();
        vals_.resize(newCap);
        const std::size_t mask = newCap - 1;
        for (std::size_t i = 0; i < oldKeys.size(); i++) {
            if (oldKeys[i] == kEmptyKey)
                continue;
            std::size_t idx = slotOf(oldKeys[i], mask);
            while (keys_[idx] != kEmptyKey)
                idx = (idx + 1) & mask;
            keys_[idx] = oldKeys[i];
            vals_[idx] = std::move(oldVals[i]);
        }
    }

    std::vector<std::uint64_t> keys_;
    std::vector<V> vals_;
    std::size_t size_ = 0;
};

} // namespace dax::sim
