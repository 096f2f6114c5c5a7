// The feed-fetch verb end to end: an RsfClient polling a remote publisher
// THROUGH anchord — WireFeedTransport carries FeedFetchQuery/FeedFetch over
// the framed wire protocol, and the client's Merkle verification runs
// unchanged on the decoded response. The daemon in the middle holds no
// trust: the poller derives the publisher's signing key from the feed name
// out of band and verifies every tree head, proof, and snapshot itself.
#include "anchord/feed_transport.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "anchord/client.hpp"
#include "anchord/server.hpp"
#include "ctlog/merkle.hpp"
#include "rsf/client.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"

namespace anchor::anchord {
namespace {

using x509::CertificateBuilder;
using x509::CertPtr;
using x509::DistinguishedName;

constexpr std::int64_t kNow = 1700000000;

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

rootstore::RootStore store_with(int count) {
  rootstore::RootStore store;
  for (int i = 0; i < count; ++i) {
    (void)store.add_trusted(make_root("Feed Root " + std::to_string(i)));
  }
  return store;
}

// A socketpair conduit; a failure to make one fails the test.
ConduitPair socket_pair() {
  auto pair = make_socketpair_conduit();
  if (!pair.ok()) throw std::runtime_error(pair.error());
  return std::move(pair).take();
}

// An anchord server whose feed-fetch verb serves `feed`, over a socketpair
// with the serve loop on its own thread.
struct FeedHarness {
  SimSig feed_sigs;
  rsf::Feed feed{"nss", feed_sigs};
  rootstore::RootStore empty_store;
  SimSig sigs;
  metrics::Registry registry;
  chain::VerifyService service{empty_store, sigs, {}, registry};
  VerbDispatcher::Backends backends;
  std::unique_ptr<AnchordServer> server;
  ConduitPair conduits = socket_pair();
  std::thread serve_thread;

  explicit FeedHarness(bool attach_feed = true) {
    backends.service = &service;
    backends.store = &empty_store;
    backends.registry = &registry;
    if (attach_feed) backends.feed_source = &feed;
    server = std::make_unique<AnchordServer>(backends, AnchordConfig{},
                                             registry);
    serve_thread = std::thread([this] { server->serve(*conduits.second); });
  }

  ~FeedHarness() {
    conduits.first->close();
    serve_thread.join();
  }

  Conduit& client_end() { return *conduits.first; }
};

TEST(FeedFetchWire, RsfClientAdoptsOverTheWire) {
  FeedHarness h;
  h.feed.publish(store_with(3), kNow, "r1");
  h.feed.publish(store_with(4), kNow + 10, "r2");

  AnchordClient client(h.client_end());
  WireFeedTransport wire(client, "nss");

  rsf::RsfClient poller(wire, 3600);
  EXPECT_EQ(poller.poll_now(kNow + 20), 2u);
  EXPECT_EQ(poller.last_applied_sequence(), 2u);
  EXPECT_EQ(poller.store().trusted_count(), 4u);
  EXPECT_EQ(poller.pinned_tree_root(), h.feed.tree_head().root_hash);
  EXPECT_EQ(poller.health(), rsf::ClientHealth::kHealthy);

  // No-change poll across the wire still settles on the tree head alone.
  EXPECT_EQ(poller.poll_now(kNow + 3620), 0u);
  EXPECT_EQ(poller.stats().verified_no_change, 1u);

  // A new publication reaches the poller on the next poll, proof-verified.
  h.feed.publish(store_with(5), kNow + 4000, "r3");
  EXPECT_EQ(poller.poll_now(kNow + 7220), 1u);
  EXPECT_EQ(poller.last_applied_sequence(), 3u);
  EXPECT_EQ(poller.stats().proof_failures, 0u);
}

TEST(FeedFetchWire, DeltaTransportShipsInlineDeltasOverTheWire) {
  FeedHarness h;
  h.feed.publish(store_with(3), kNow, "r1");
  h.feed.publish(store_with(4), kNow + 10, "r2");
  h.feed.publish(store_with(5), kNow + 20, "r3");

  AnchordClient client(h.client_end());
  WireFeedTransport wire(client, "nss");
  rsf::RsfClient poller(wire, 3600, rsf::MergePolicy::kPrimaryWins,
                        rsf::Transport::kDelta);
  EXPECT_EQ(poller.poll_now(kNow + 30), 3u);
  EXPECT_EQ(poller.last_applied_sequence(), 3u);
  EXPECT_EQ(poller.store().trusted_count(), 5u);
  // The deltas rode inside the feed-fetch response.
  EXPECT_EQ(poller.stats().deltas_applied, 3u);
  EXPECT_EQ(poller.stats().delta_fallbacks, 0u);
}

TEST(FeedFetchWire, HeadProbeOnTheWireTransport) {
  FeedHarness h;
  h.feed.publish(store_with(2), kNow, "r1");

  AnchordClient client(h.client_end());
  WireFeedTransport wire(client, "nss");
  rsf::FeedFetchQuery probe;
  probe.max_snapshots = 0;  // tree head only
  auto head = wire.feed_fetch(probe);
  ASSERT_TRUE(head.ok()) << head.error();
  EXPECT_EQ(head.value().sth, h.feed.tree_head());
  EXPECT_EQ(head.value().sth.tree_size, 1u);
  EXPECT_TRUE(head.value().snapshots.empty());
  EXPECT_TRUE(head.value().consistency.empty());
  EXPECT_TRUE(head.value().inclusion.empty());
  // The key id is derived from the publisher name out of band — it must
  // match what the feed itself advertises.
  EXPECT_EQ(wire.key_id(), h.feed.key_id());
}

TEST(FeedFetchWire, NoFeedAttachedIsUnavailableNotACrash) {
  FeedHarness h(/*attach_feed=*/false);
  AnchordClient client(h.client_end());
  WireFeedTransport wire(client, "nss");

  auto fetched = wire.feed_fetch(rsf::FeedFetchQuery{});
  ASSERT_FALSE(fetched.ok());
  EXPECT_NE(fetched.error().find("no feed attached"), std::string::npos);

  // A polling client classifies it as unreachable and stays on its last
  // good (empty) store.
  rsf::RsfClient poller(wire, 3600);
  EXPECT_EQ(poller.poll_now(kNow), 0u);
  EXPECT_EQ(poller.stats().transport_error(
                rsf::TransportErrorKind::kUnreachable),
            1u);
  EXPECT_EQ(poller.health(), rsf::ClientHealth::kDegraded);
}

TEST(FeedFetchWire, PaginatedWalkVerifiesEveryHop) {
  FeedHarness h;
  for (int i = 1; i <= 5; ++i) {
    h.feed.publish(store_with(i), kNow + i, "r" + std::to_string(i));
  }

  AnchordClient client(h.client_end());
  WireFeedTransport wire(client, "nss");

  // Walk the history two snapshots at a time, carrying the (size, root)
  // pin across hops exactly as a poller would.
  std::uint64_t pinned = 0;
  ctlog::Hash pinned_root = ctlog::empty_tree_hash();
  int hops = 0;
  while (pinned < 5 && hops < 5) {
    rsf::FeedFetchQuery query;
    query.from_size = pinned;
    query.max_snapshots = 2;
    auto page = wire.feed_fetch(query);
    ASSERT_TRUE(page.ok()) << page.error();
    const rsf::FeedFetch& ff = page.value();
    EXPECT_EQ(ff.sth.tree_size, std::min<std::uint64_t>(pinned + 2, 5));
    ASSERT_FALSE(ff.snapshots.empty());
    // Tree-head signature, consistency from the pin, head-leaf inclusion.
    EXPECT_TRUE(h.feed_sigs.verify(BytesView(wire.key_id()),
                                   BytesView(ff.sth.transcript()),
                                   BytesView(ff.sth.signature)));
    if (pinned == 0) {
      EXPECT_TRUE(ff.consistency.empty());
    } else {
      EXPECT_TRUE(ctlog::verify_consistency(pinned, ff.sth.tree_size,
                                            pinned_root, ff.sth.root_hash,
                                            ff.consistency));
    }
    EXPECT_TRUE(ctlog::verify_inclusion(
        ctlog::leaf_hash(BytesView(ff.snapshots.back().transcript())),
        ff.sth.tree_size - 1, ff.sth.tree_size, ff.inclusion,
        ff.sth.root_hash));
    pinned = ff.sth.tree_size;
    pinned_root = ff.sth.root_hash;
    ++hops;
  }
  EXPECT_EQ(pinned, 5u);
  EXPECT_EQ(hops, 3);  // 2 + 2 + 1
}

// Publisher and poller race on one daemon: Feed is internally synchronized
// and every adoption is proof-verified, so the poller must converge on the
// final head with zero proof failures. (This is the feed-label TSan test.)
TEST(FeedFetchWire, ConcurrentPublishAndPollConverges) {
  constexpr int kPublishes = 20;
  FeedHarness h;
  h.feed.publish(store_with(2), kNow, "seed");

  std::thread publisher([&h] {
    for (int i = 1; i <= kPublishes; ++i) {
      h.feed.publish(store_with(1 + (i % 3)), kNow + i, "pub");
    }
  });

  AnchordClient client(h.client_end());
  WireFeedTransport wire(client, "nss");
  rsf::RsfClient poller(wire, 1);
  std::int64_t t = kNow + 100;
  for (int i = 0; i < 200 && poller.last_applied_sequence() < kPublishes + 1;
       ++i) {
    poller.poll_now(t);
    t += 2;
  }
  publisher.join();
  // The publisher is done; at most one more poll reaches the final head.
  poller.poll_now(t);
  EXPECT_EQ(poller.last_applied_sequence(),
            static_cast<std::uint64_t>(kPublishes) + 1);
  EXPECT_EQ(poller.pinned_tree_root(), h.feed.tree_head().root_hash);
  EXPECT_EQ(poller.stats().proof_failures, 0u);
  EXPECT_EQ(poller.stats().verify_failures, 0u);
}

}  // namespace
}  // namespace anchor::anchord
