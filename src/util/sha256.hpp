// FIPS 180-4 SHA-256, implemented from scratch so the library has no
// external crypto dependency. Used for GCC-to-root binding (the paper
// attaches each General Certificate Constraint to a root by SHA-256 hash),
// for certificate fingerprints, and as the core of SimSig tags. Blocks are
// compressed by a SHA-NI kernel where the CPU has one and by a portable
// scalar kernel elsewhere (util/sha256_kernels.hpp); both give the same
// digests.
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
  // Compresses `count` consecutive 64-byte blocks into `state`.
  using Kernel = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                          std::size_t count);

  // Hashes with the kernel chosen for this CPU.
  Sha256();
  // Hashes with the given kernel, one of util/sha256_kernels.hpp; for
  // tests and benchmarks that compare kernels.
  explicit Sha256(Kernel kernel);

  // Streaming interface: update() any number of times, then finish().
  void update(BytesView data);
  Digest finish();

  // One-shot convenience.
  static Digest hash(BytesView data);
  static Bytes hash_bytes(BytesView data);
  static std::string hash_hex(BytesView data);

 private:
  Kernel kernel_;
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
