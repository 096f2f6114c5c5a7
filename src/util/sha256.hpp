// FIPS 180-4 SHA-256, implemented from scratch so the library has no
// external crypto dependency. Used for GCC-to-root binding (the paper
// attaches each General Certificate Constraint to a root by SHA-256 hash),
// for certificate fingerprints, and as the core of SimSig tags.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>

#include "util/bytes.hpp"

namespace anchor {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();

  // Streaming interface: update() any number of times, then finish().
  void update(BytesView data);
  Digest finish();

  // One-shot convenience.
  static Digest hash(BytesView data);
  static Bytes hash_bytes(BytesView data);
  static std::string hash_hex(BytesView data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

// The one text-to-identity parser: a digest's canonical form is exactly 64
// lowercase hex characters (what to_hex emits). Wrong length, odd length,
// uppercase and any other non-hex character are rejected, so every text
// input that names a certificate by hash — store text, snapshots, RSF
// deltas, Chrome Root Store textprotos, CLI arguments — round-trips to the
// same bytes it was read from.
std::optional<Sha256::Digest> digest_from_hex(std::string_view hex);

// Hash functor for digest-keyed maps. A SHA-256 output is already uniform,
// so its first word is as good a bucket index as any mix of it.
struct DigestHash {
  std::size_t operator()(const Sha256::Digest& digest) const noexcept {
    std::size_t h = 0;
    std::memcpy(&h, digest.data(), sizeof h);
    return h;
  }
};

}  // namespace anchor
