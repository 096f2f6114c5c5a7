// Verified-signature link cache for VerifyService: remembers each
// (child, issuer) certificate pair whose signature check passed, so a
// repeat chain skips the signature math and nothing else. The key is the
// pair of Certificate::fingerprint()s — SHA-256 over each certificate's
// whole DER — kept as the full 64 bytes, so it names the signed bytes and
// the signature (child DER) and the verifying key (issuer DER) exactly. A
// cross-signed CA therefore gets one entry per issuing certificate. For a
// fixed SignatureScheme the answer is a pure function of those bytes, so
// an entry never goes stale: the cache is keyed on no store epoch and
// survives every mutation and snapshot swap (DESIGN.md, "Why link caching
// is sound"). Only passes are ever inserted.
//
// Layout: the key space hashes to one of N mutex-striped shards; each
// shard is one flat open-addressed array of keys, with no per-entry node.
// A key lives in the first empty slot of a short window starting at its
// home slot, and slots are never emptied again (only overwritten), so a
// lookup stops at the first empty slot it meets. A shard allocates a
// two-slot array on first insert, doubles it only when an insert finds its
// window full (for an array no longer than a window, the window is the
// whole array), and stops growing at its share of the capacity; from then
// on an insert into a full window overwrites the key at its home slot.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/metrics.hpp"
#include "util/sha256.hpp"

namespace anchor::chain {

class LinkCache {
 public:
  // `capacity` is the total entry bound, divided evenly across `shards`
  // (clamped to >= 1) and rounded down to a power of two per shard, at
  // least one slot. Every lookup also bumps `hit_series` or `miss_series`.
  LinkCache(std::size_t capacity, std::size_t shards,
            metrics::Counter& hit_series, metrics::Counter& miss_series);
  ~LinkCache();

  LinkCache(const LinkCache&) = delete;
  LinkCache& operator=(const LinkCache&) = delete;

  // True when the signature of `child` under `issuer` is remembered as
  // verified. Counts one hit or one miss.
  bool contains(const Sha256::Digest& child, const Sha256::Digest& issuer);

  // Remembers a link whose signature verified. Call only after a pass.
  void insert(const Sha256::Digest& child, const Sha256::Digest& issuer);

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  // Keys held, all shards.
  std::size_t size() const;
  // Array slots allocated, all shards (what the cache costs in memory is
  // this times sizeof(Key)).
  std::size_t slots() const;
  // Keys overwritten in place by a full shard.
  std::uint64_t evictions() const;

 private:
  struct Key {
    Sha256::Digest child{};
    Sha256::Digest issuer{};
    bool operator==(const Key&) const = default;
  };
  struct Shard;

  static std::uint64_t hash(const Key& key);
  // All-zero: the empty-slot marker.
  static bool empty(const Key& key);
  // Puts `key` (hashing to `h`) in the first empty slot of its window, or
  // finds it already there; false when the window is full of other keys.
  static bool place(std::vector<Key>& slots, const Key& key, std::uint64_t h);
  Shard& shard_for(std::uint64_t h) const;
  // Sums `field(shard)` over all shards, each under its lock.
  template <typename Field>
  std::uint64_t sum(Field field) const;

  std::unique_ptr<Shard[]> shards_;
  std::size_t shard_count_ = 1;
  std::size_t max_slots_ = 0;  // per shard, a power of two
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  metrics::Counter& hit_series_;
  metrics::Counter& miss_series_;
};

}  // namespace anchor::chain
