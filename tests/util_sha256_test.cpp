#include "util/sha256.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

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

TEST(Sha256, ExactBlockBoundaries) {
  // 55/56/64-byte inputs exercise the padding edge cases.
  EXPECT_EQ(Sha256::hash_hex(Bytes(55, 'x')),
            Sha256::hash_hex(Bytes(55, 'x')));
  Bytes b56(56, 0x41);
  Bytes b64(64, 0x41);
  EXPECT_NE(Sha256::hash_hex(b56), Sha256::hash_hex(b64));
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
