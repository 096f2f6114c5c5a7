// Differential against the host libcrypto's SHA256(). Built only where
// CMake finds OpenSSL, and linked into the sha test binary alone: the
// library itself never depends on it.
#include <openssl/sha.h>

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "util/sha256_kernels.hpp"

namespace anchor {
namespace {

Sha256::Digest libcrypto_sha256(BytesView data) {
  Sha256::Digest out;
  SHA256(data.data(), data.size(), out.data());
  return out;
}

Sha256::Digest hash_with(Sha256::Kernel kernel, BytesView data) {
  Sha256 h(kernel);
  h.update(data);
  return h.finish();
}

TEST(Sha256Libcrypto, MatchesOnRandomLengthsUpTo8KiB) {
  Rng rng(8192);
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes data = rng.random_bytes(rng.uniform(8193));
    const Sha256::Digest expected = libcrypto_sha256(data);
    EXPECT_EQ(Sha256::hash(data), expected) << "length " << data.size();
    EXPECT_EQ(hash_with(&sha256_kernels::scalar, data), expected)
        << "scalar, length " << data.size();
#if defined(__x86_64__)
    if (sha256_kernels::cpu_has_sha_ni()) {
      EXPECT_EQ(hash_with(&sha256_kernels::sha_ni, data), expected)
          << "sha_ni, length " << data.size();
    }
#endif
  }
}

TEST(Sha256Libcrypto, MatchesOnEveryLengthUpTo256) {
  Rng rng(256);
  const Bytes data = rng.random_bytes(256);
  for (std::size_t length = 0; length <= data.size(); ++length) {
    const BytesView input(data.data(), length);
    EXPECT_EQ(Sha256::hash(input), libcrypto_sha256(input))
        << "length " << length;
  }
}

}  // namespace
}  // namespace anchor
