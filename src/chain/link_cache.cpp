#include "chain/link_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

namespace anchor::chain {

namespace {

// Slots a key may occupy, starting at its home slot. Bounds every probe.
constexpr std::size_t kWindow = 8;
// A shard's first array. Until a shard reaches kWindow slots its window is
// the whole array, so it doubles only when every slot is taken: a service
// that sees few links pays for about as many slots as it holds.
constexpr std::size_t kFirstSlots = 2;

std::uint64_t first_word(const Sha256::Digest& digest) {
  std::uint64_t word = 0;
  std::memcpy(&word, digest.data(), sizeof word);
  return word;
}

}  // namespace

struct LinkCache::Shard {
  std::mutex mu;
  std::vector<Key> slots;  // empty until the first insert
  std::uint64_t evictions = 0;
};

LinkCache::LinkCache(std::size_t capacity, std::size_t shards,
                     metrics::Counter& hit_series,
                     metrics::Counter& miss_series)
    : shard_count_(std::max<std::size_t>(shards, 1)),
      hit_series_(hit_series),
      miss_series_(miss_series) {
  shards_ = std::make_unique<Shard[]>(shard_count_);
  max_slots_ =
      std::bit_floor(std::max<std::size_t>(capacity / shard_count_, 1));
}

LinkCache::~LinkCache() = default;

// A fingerprint is a SHA-256 output, already uniform: one word of each
// digest, the issuer's multiplied so the pair does not cancel, is a full
// mix. The shard takes the high half, the slot the low bits.
std::uint64_t LinkCache::hash(const Key& key) {
  return first_word(key.child) ^
         (first_word(key.issuer) * 0x9e3779b97f4a7c15ULL);
}

bool LinkCache::empty(const Key& key) { return key.child == Sha256::Digest{}; }

bool LinkCache::place(std::vector<Key>& slots, const Key& key,
                      std::uint64_t h) {
  const std::size_t n = slots.size();
  for (std::size_t i = 0; i < std::min(kWindow, n); ++i) {
    Key& slot = slots[(h + i) & (n - 1)];
    if (slot == key) return true;
    if (empty(slot)) {
      slot = key;
      return true;
    }
  }
  return false;
}

LinkCache::Shard& LinkCache::shard_for(std::uint64_t h) const {
  return shards_[(h >> 32) % shard_count_];
}

bool LinkCache::contains(const Sha256::Digest& child,
                         const Sha256::Digest& issuer) {
  const Key key{child, issuer};
  const std::uint64_t h = hash(key);
  Shard& shard = shard_for(h);
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const std::size_t n = shard.slots.size();
    for (std::size_t i = 0; i < std::min(kWindow, n); ++i) {
      const Key& slot = shard.slots[(h + i) & (n - 1)];
      // Emptiness first: an all-zero query must not match an empty slot.
      if (empty(slot)) break;
      if (slot == key) {
        found = true;
        break;
      }
    }
  }
  (found ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  (found ? hit_series_ : miss_series_).add();
  return found;
}

void LinkCache::insert(const Sha256::Digest& child,
                       const Sha256::Digest& issuer) {
  const Key key{child, issuer};
  // The empty-slot marker is never stored; such a link (an all-zero child
  // digest) is simply checked every time.
  if (empty(key)) return;
  const std::uint64_t h = hash(key);
  Shard& shard = shard_for(h);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.slots.empty()) {
    shard.slots.resize(std::min(kFirstSlots, max_slots_));
  }
  while (!place(shard.slots, key, h)) {
    const std::size_t n = shard.slots.size();
    if (n >= max_slots_) {
      // At its share of capacity with the window full: overwrite in place.
      // The home slot stays occupied, so keys placed past it stay
      // reachable.
      shard.slots[h & (n - 1)] = key;
      ++shard.evictions;
      return;
    }
    // Double the array and place every key again. A key whose new window
    // is already full (rare) is dropped; its next check re-inserts it.
    std::vector<Key> old = std::exchange(shard.slots, std::vector<Key>(2 * n));
    for (const Key& moved : old) {
      if (!empty(moved)) place(shard.slots, moved, hash(moved));
    }
  }
}

template <typename Field>
std::uint64_t LinkCache::sum(Field field) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += field(shards_[i]);
  }
  return total;
}

std::size_t LinkCache::size() const {
  return sum([](const Shard& shard) {
    return static_cast<std::uint64_t>(std::ranges::count_if(
        shard.slots, [](const Key& key) { return !empty(key); }));
  });
}

std::size_t LinkCache::slots() const {
  return sum([](const Shard& shard) { return shard.slots.size(); });
}

std::uint64_t LinkCache::evictions() const {
  return sum([](const Shard& shard) { return shard.evictions; });
}

}  // namespace anchor::chain
