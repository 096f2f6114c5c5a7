#include "util/sha256.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/sha256_kernels.hpp"

namespace anchor {
namespace {

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256, EmptyInput) {
  EXPECT_EQ(Sha256::hash_hex(Bytes{}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::hash_hex(to_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::hash_hex(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Bytes input(1000000, 'a');
  EXPECT_EQ(Sha256::hash_hex(input),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Known answers around the padding edges: 55 bytes is the longest input
// that pads within its own block, 56-63 spill the length into a second
// block, 64 is block-aligned, and 111-128 repeat those edges one block
// on. The input is byte i = 31i + 7 (mod 256); the digests were computed
// with coreutils `sha256sum`. Each kernel is checked on its own.
Bytes kat_input(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(31 * i + 7);
  }
  return out;
}

std::vector<std::pair<const char*, Sha256::Kernel>> kernels_on_this_cpu() {
  std::vector<std::pair<const char*, Sha256::Kernel>> out = {
      {"scalar", &sha256_kernels::scalar}};
#if defined(__x86_64__)
  if (sha256_kernels::cpu_has_sha_ni()) {
    out.emplace_back("sha_ni", &sha256_kernels::sha_ni);
  }
#endif
  return out;
}

TEST(Sha256, ExactBlockBoundaries) {
  const std::pair<std::size_t, const char*> kAnswers[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {1, "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879"},
      {55, "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b"},
      {56, "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63"},
      {63, "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076"},
      {64, "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd"},
      {65, "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0"},
      {111, "dd1413178fb627f9abbc041ffe39c44aa7aaa0e2e6d2ca5c4528ac7073a2da45"},
      {112, "a65c92dac124062d0ab951a42773cb04fc98d1d4bf8897b176f8cff3509d379e"},
      {119, "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe"},
      {120, "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656"},
      {128, "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356"},
  };
  for (const auto& [name, kernel] : kernels_on_this_cpu()) {
    for (const auto& [length, expected] : kAnswers) {
      Sha256 h(kernel);
      h.update(kat_input(length));
      const Sha256::Digest digest = h.finish();
      EXPECT_EQ(to_hex(BytesView(digest)), expected)
          << name << " length " << length;
    }
  }
  for (const auto& [length, expected] : kAnswers) {
    EXPECT_EQ(Sha256::hash_hex(kat_input(length)), expected)
        << "default kernel, length " << length;
  }
}

// Property: streaming updates produce the same digest as one-shot hashing,
// for every split point of the input.
TEST(Sha256, StreamingEqualsOneShotAllSplits) {
  Rng rng(1234);
  Bytes data = rng.random_bytes(300);
  Sha256::Digest expected = Sha256::hash(data);
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.update(BytesView(data.data(), split));
    h.update(BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finish(), expected) << "split=" << split;
  }
}

TEST(Sha256, ManySmallUpdates) {
  Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  Sha256 h;
  for (std::uint8_t byte : data) h.update(BytesView(&byte, 1));
  EXPECT_EQ(h.finish(), Sha256::hash(data));
}

TEST(DigestFromHex, RoundTripsCanonicalHex) {
  const Sha256::Digest digest = Sha256::hash(to_bytes("abc"));
  const auto parsed = digest_from_hex(to_hex(BytesView(digest)));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, digest);
}

TEST(DigestFromHex, RejectsWrongLength) {
  const std::string hex = to_hex(BytesView(Sha256::hash(to_bytes("abc"))));
  EXPECT_FALSE(digest_from_hex("").has_value());
  EXPECT_FALSE(digest_from_hex(hex.substr(0, 62)).has_value());
  EXPECT_FALSE(digest_from_hex(hex + "00").has_value());
  EXPECT_FALSE(digest_from_hex(hex + hex).has_value());
}

TEST(DigestFromHex, RejectsOddLength) {
  const std::string hex = to_hex(BytesView(Sha256::hash(to_bytes("abc"))));
  EXPECT_FALSE(digest_from_hex(hex.substr(0, 63)).has_value());
  EXPECT_FALSE(digest_from_hex(hex + "0").has_value());
}

TEST(DigestFromHex, RejectsNonHex) {
  const std::string hex = to_hex(BytesView(Sha256::hash(to_bytes("abc"))));
  // Every position, with a character just outside each accepted range;
  // uppercase is rejected too, since it is not the canonical form.
  for (std::size_t i = 0; i < hex.size(); ++i) {
    for (char bad : {'g', 'G', 'A', 'F', '/', ':', '`', ' ', '\0', 'x'}) {
      std::string mutated = hex;
      mutated[i] = bad;
      EXPECT_FALSE(digest_from_hex(mutated).has_value())
          << "position " << i << " char " << static_cast<int>(bad);
    }
  }
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  Rng rng(99);
  Bytes a = rng.random_bytes(32);
  Bytes b = a;
  b[0] ^= 1;
  EXPECT_NE(Sha256::hash(a), Sha256::hash(b));
}

}  // namespace
}  // namespace anchor
