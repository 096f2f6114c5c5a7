// Kernel differential: the SHA-NI block kernel against the scalar one,
// which stays the oracle. Skipped where the CPU has no SHA extensions.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "util/sha256_kernels.hpp"

namespace anchor {
namespace {

Sha256::Digest hash_with(Sha256::Kernel kernel, BytesView data) {
  Sha256 h(kernel);
  h.update(data);
  return h.finish();
}

class ShaNiKernel : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(__x86_64__)
    if (sha256_kernels::cpu_has_sha_ni()) {
      sha_ni_ = &sha256_kernels::sha_ni;
      return;
    }
#endif
    GTEST_SKIP() << "this CPU has no SHA-NI";
  }

  Sha256::Kernel sha_ni_ = nullptr;
  const Sha256::Kernel scalar_ = &sha256_kernels::scalar;
};

TEST_F(ShaNiKernel, IsTheDefaultWhereAvailable) {
  EXPECT_EQ(sha256_kernels::active(), sha_ni_);
}

TEST_F(ShaNiKernel, MatchesScalarOnEveryLengthUpTo256) {
  Rng rng(256);
  const Bytes data = rng.random_bytes(256);
  for (std::size_t length = 0; length <= data.size(); ++length) {
    const BytesView input(data.data(), length);
    EXPECT_EQ(hash_with(sha_ni_, input), hash_with(scalar_, input))
        << "length " << length;
  }
}

TEST_F(ShaNiKernel, MatchesScalarOnRandomLengthsUpTo8KiB) {
  Rng rng(8192);
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes data = rng.random_bytes(rng.uniform(8193));
    EXPECT_EQ(hash_with(sha_ni_, data), hash_with(scalar_, data))
        << "length " << data.size();
  }
}

// Random split points cover a partial buffer before, between and after
// whole-block runs, which is where update() hands blocks to the kernel.
TEST_F(ShaNiKernel, MatchesScalarAtRandomStreamingSplits) {
  Rng rng(4096);
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes data = rng.random_bytes(rng.uniform(4097));
    std::vector<std::size_t> cuts = {0};
    while (cuts.back() < data.size()) {
      cuts.push_back(std::min(data.size(), cuts.back() + rng.uniform(200)));
    }
    Sha256 fast(sha_ni_);
    Sha256 slow(scalar_);
    for (std::size_t i = 1; i < cuts.size(); ++i) {
      const BytesView piece(data.data() + cuts[i - 1], cuts[i] - cuts[i - 1]);
      fast.update(piece);
      slow.update(piece);
    }
    const Sha256::Digest digest = fast.finish();
    EXPECT_EQ(digest, slow.finish()) << "length " << data.size();
    EXPECT_EQ(digest, hash_with(scalar_, data)) << "length " << data.size();
  }
}

// The kernels straight from an arbitrary chaining state, not only the
// initial one, over runs of one to eight blocks.
TEST_F(ShaNiKernel, MatchesScalarFromRandomStates) {
  Rng rng(64);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t fast[8];
    for (std::uint32_t& word : fast) {
      word = static_cast<std::uint32_t>(rng.next_u64());
    }
    std::uint32_t slow[8];
    std::copy(std::begin(fast), std::end(fast), std::begin(slow));
    const std::size_t blocks = 1 + rng.uniform(8);
    const Bytes data = rng.random_bytes(64 * blocks);
    sha_ni_(fast, data.data(), blocks);
    scalar_(slow, data.data(), blocks);
    EXPECT_TRUE(std::equal(std::begin(fast), std::end(fast), slow))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace anchor
