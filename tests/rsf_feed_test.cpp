#include "rsf/feed.hpp"

#include <gtest/gtest.h>

#include "util/time.hpp"
#include "x509/builder.hpp"

namespace anchor::rsf {
namespace {

using x509::CertificateBuilder;
using x509::CertPtr;
using x509::DistinguishedName;

CertPtr make_root(const std::string& name) {
  SimKeyPair key = SimSig::keygen(name);
  return CertificateBuilder()
      .serial(1)
      .subject(DistinguishedName::make(name, "Org"))
      .issuer(DistinguishedName::make(name, "Org"))
      .validity(0, unix_date(2040, 1, 1))
      .public_key(key.key_id)
      .ca(std::nullopt)
      .sign(key)
      .take();
}

rootstore::RootStore store_with(const std::vector<std::string>& names) {
  rootstore::RootStore store;
  for (const auto& name : names) (void)store.add_trusted(make_root(name));
  return store;
}

TEST(Feed, PublishAssignsSequenceAndChainsHashes) {
  SimSig registry;
  Feed feed("nss", registry);
  EXPECT_EQ(feed.publish(store_with({"A"}), 100, "first"), 1u);
  EXPECT_EQ(feed.publish(store_with({"A", "B"}), 200, "second"), 2u);
  EXPECT_EQ(feed.head_sequence(), 2u);

  const Snapshot* first = feed.at(1);
  const Snapshot* second = feed.at(2);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->prev_hash, "");
  EXPECT_EQ(second->prev_hash, first->payload_hash);
  EXPECT_EQ(first->published_at, 100);
  EXPECT_EQ(second->annotation, "second");
}

TEST(Feed, AtOutOfRangeReturnsNull) {
  SimSig registry;
  Feed feed("nss", registry);
  EXPECT_EQ(feed.at(0), nullptr);
  EXPECT_EQ(feed.at(1), nullptr);
  feed.publish(store_with({"A"}), 1, "");
  EXPECT_NE(feed.at(1), nullptr);
  EXPECT_EQ(feed.at(2), nullptr);
}

TEST(Feed, FetchSinceReturnsOnlyNewer) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A"}), 1, "");
  feed.publish(store_with({"B"}), 2, "");
  feed.publish(store_with({"C"}), 3, "");
  for (std::uint64_t after : {0ull, 1ull, 2ull}) {
    auto run = feed.fetch_since(after);
    ASSERT_EQ(run.size(), 3 - after) << "after=" << after;
    for (std::size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(run[i].sequence, after + 1 + i);
      EXPECT_EQ(run[i].payload_hash, feed.at(after + 1 + i)->payload_hash);
    }
  }
  // At and beyond the head, and on an empty feed: nothing.
  for (std::uint64_t after : {3ull, 4ull, ~0ull}) {
    EXPECT_TRUE(feed.fetch_since(after).empty()) << "after=" << after;
  }
  EXPECT_TRUE(Feed("empty", registry).fetch_since(0).empty());
}

TEST(Feed, VerifyRunAcceptsHonestFeed) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A"}), 1, "a");
  feed.publish(store_with({"B"}), 2, "b");
  auto run = feed.fetch_since(0);
  EXPECT_TRUE(Feed::verify_run(run, "", BytesView(feed.key_id()), registry).ok());
  // Resuming mid-feed with the right anchor also verifies.
  auto tail = feed.fetch_since(1);
  EXPECT_TRUE(Feed::verify_run(tail, feed.at(1)->payload_hash,
                               BytesView(feed.key_id()), registry)
                  .ok());
}

TEST(Feed, VerifyRunRejectsTamperedPayload) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A"}), 1, "a");
  feed.mutable_at(1)->payload += "trusted 0000\n";  // inject a root
  auto run = feed.fetch_since(0);
  Status s = Feed::verify_run(run, "", BytesView(feed.key_id()), registry);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("payload hash"), std::string::npos);
}

TEST(Feed, VerifyRunRejectsRecomputedHashWithoutResigning) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A"}), 1, "a");
  Snapshot* snap = feed.mutable_at(1);
  snap->payload += "x";
  snap->payload_hash = Sha256::hash_hex(BytesView(to_bytes(snap->payload)));
  auto run = feed.fetch_since(0);
  Status s = Feed::verify_run(run, "", BytesView(feed.key_id()), registry);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("signature"), std::string::npos);
}

TEST(Feed, VerifyRunRejectsBrokenChain) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A"}), 1, "a");
  feed.publish(store_with({"B"}), 2, "b");
  auto run = feed.fetch_since(0);
  run[1].prev_hash = std::string(64, '0');
  EXPECT_FALSE(Feed::verify_run(run, "", BytesView(feed.key_id()), registry).ok());
}

TEST(Feed, VerifyRunRejectsSequenceGap) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A"}), 1, "a");
  feed.publish(store_with({"B"}), 2, "b");
  feed.publish(store_with({"C"}), 3, "c");
  auto run = feed.fetch_since(0);
  run.erase(run.begin() + 1);  // drop snapshot 2
  EXPECT_FALSE(Feed::verify_run(run, "", BytesView(feed.key_id()), registry).ok());
}

TEST(Feed, VerifyRunRejectsWrongKey) {
  SimSig registry;
  Feed feed("nss", registry);
  Feed other("evil", registry);
  feed.publish(store_with({"A"}), 1, "a");
  auto run = feed.fetch_since(0);
  EXPECT_FALSE(
      Feed::verify_run(run, "", BytesView(other.key_id()), registry).ok());
}

TEST(Feed, PayloadDeserializesToEquivalentStore) {
  SimSig registry;
  Feed feed("nss", registry);
  rootstore::RootStore store = store_with({"A", "B"});
  store.distrust(*digest_from_hex(std::string(64, 'c')), "bad root");
  feed.publish(store, 1, "release");
  auto parsed = rootstore::RootStore::deserialize(feed.at(1)->payload);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().trusted_count(), 2u);
  EXPECT_EQ(parsed.value().distrusted_count(), 1u);
  EXPECT_EQ(parsed.value().content_hash_hex(), store.content_hash_hex());
}

}  // namespace
}  // namespace anchor::rsf
