// Parsed-certificate cache for the DER-boundary entry points
// (VerifyService::validate, evaluate_gccs; anchord requests). It is keyed
// on the request DER itself: a cheap non-cryptographic hash of the bytes
// picks the slot, and a hit is confirmed by comparing the bytes with the
// cached certificate's own DER. SHA-256 therefore runs once per distinct
// encoding, inside Certificate::parse, and never on a lookup.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

#include "util/bytes.hpp"
#include "util/sharded_cache.hpp"
#include "x509/certificate.hpp"

namespace anchor::chain {

// The lookup hash: not collision-resistant, and it need not be — the byte
// compare decides every hit.
struct DerHash {
  std::size_t operator()(BytesView der) const noexcept {
    return std::hash<std::string_view>{}(std::string_view(
        reinterpret_cast<const char*>(der.data()), der.size()));
  }
};

// `Hash` maps DER bytes to a slot key; tests substitute a colliding one.
template <typename Hash = DerHash>
class CertCache {
 public:
  CertCache(std::size_t capacity, std::size_t shards)
      : lru_(capacity, shards) {}

  // The cached certificate whose DER equals `der` byte for byte, or null.
  // Two encodings that share a slot key are told apart here, so a hash
  // collision costs a miss (counted) and never returns the wrong
  // certificate.
  x509::CertPtr find(BytesView der) {
    x509::CertPtr cert = peek(der);
    (cert != nullptr ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    return cert;
  }

  // find() without the hit/miss accounting, for a caller that decides
  // afterwards whether the lookups count (see count_hits).
  x509::CertPtr peek(BytesView der) {
    x509::CertPtr cert;
    if (lru_.get(Hash{}(der), cert) &&
        std::ranges::equal(BytesView(cert->der()), der)) {
      return cert;
    }
    return nullptr;
  }

  // Books `n` peek() hits as if each had been a find().
  void count_hits(std::uint64_t n) {
    hits_.fetch_add(n, std::memory_order_relaxed);
  }

  // Caches `cert` under its own DER, displacing whatever held the slot.
  void insert(x509::CertPtr cert) {
    const std::size_t key = Hash{}(BytesView(cert->der()));
    lru_.put(key, std::move(cert));
  }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const { return lru_.evictions(); }

 private:
  ShardedLruCache<std::size_t, x509::CertPtr> lru_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace anchor::chain
