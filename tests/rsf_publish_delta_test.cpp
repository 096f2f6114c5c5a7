// Publish-time delta derivation, differentially: Feed::publish derives each
// snapshot's StoreDelta once, from a retained copy of the previously
// published store, and Feed::restore derives the same deltas from the
// run's payloads. Both must serve exactly what diffing the two
// deserialized payloads yields — the derivation feed_fetch used to run on
// every poll, kept here as the oracle — and a delta-mode poller, in
// process or over the anchord feed-fetch wire, must replay them into a
// replica whose serialization is the head payload, with no fallback.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>

#include "anchord/client.hpp"
#include "anchord/feed_transport.hpp"
#include "anchord/server.hpp"
#include "chain/service.hpp"
#include "revocation/crlite.hpp"
#include "rsf/client.hpp"
#include "rsf/delta.hpp"
#include "rsf/feed.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"

namespace anchor::rsf {
namespace {

using x509::CertificateBuilder;
using x509::CertPtr;
using x509::DistinguishedName;

constexpr std::int64_t kStart = 1700000000;

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

const std::vector<std::string> kSources = {
    "valid(Chain, \"TLS\") :- leaf(Chain, L), notBefore(L, NB), NB < 100.",
    "valid(Chain, _) :- leaf(Chain, L).",
};

// The derivation feed_fetch ran per poll before deltas were derived at
// publish: deserialize both payloads and diff them.
std::string oracle_delta(const Snapshot* previous, const Snapshot& current) {
  rootstore::RootStore from;
  if (previous != nullptr) {
    from = rootstore::RootStore::deserialize(previous->payload).take();
  }
  const rootstore::RootStore to =
      rootstore::RootStore::deserialize(current.payload).take();
  return StoreDelta::diff(from, to).serialize();
}

std::vector<std::string> served_deltas(const Feed& feed) {
  FeedFetchQuery query;
  query.want_deltas = true;
  auto fetched = feed.feed_fetch(query);
  if (!fetched) throw std::runtime_error(fetched.error());
  return fetched.value().deltas;
}

// A seeded stream of store mutations covering every StoreDelta operation.
class MutationStream {
 public:
  explicit MutationStream(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 10; ++i) {
      roots_.push_back(make_root("Stream Root " + std::to_string(i)));
    }
    for (std::uint64_t salt : {1u, 2u}) {
      revocation::CompressedRevocationSet::Builder builder;
      builder.add_revoked(*roots_[salt], *roots_[salt + 1]);
      filters_.push_back(
          std::make_shared<const revocation::CompressedRevocationSet>(
              builder.build(salt).take()));
    }
  }

  // Applies one to three random mutations to `store`.
  void mutate(rootstore::RootStore& store) {
    const std::size_t count = 1 + rng_.uniform(3);
    for (std::size_t i = 0; i < count; ++i) mutate_once(store);
  }

 private:
  void mutate_once(rootstore::RootStore& store) {
    const CertPtr& root = roots_[rng_.uniform(roots_.size())];
    const std::string name = "g" + std::to_string(rng_.uniform(3));
    switch (rng_.uniform(8)) {
      case 0:  // trust (refused, and so a no-op, while distrusted)
      case 1: {  // ...or change the metadata of a trusted root
        rootstore::RootMetadata metadata;
        if (rng_.chance(0.5)) {
          metadata.tls_distrust_after = kStart + rng_.uniform_range(0, 9);
        }
        metadata.ev_allowed = rng_.chance(0.3);
        if (rng_.chance(0.3)) metadata.justification = "bug " + name;
        (void)store.add_trusted(root, metadata);
        break;
      }
      case 2:
        store.distrust(root->fingerprint(),
                       rng_.chance(0.5) ? "incident" : "");
        break;
      case 3:
        store.forget(root->fingerprint());
        break;
      case 4:  // attach, or re-attach (possibly byte-identical)
      case 5:
        store.attach_gcc(
            core::Gcc::create(name, root->fingerprint(),
                              kSources[rng_.uniform(kSources.size())],
                              rng_.chance(0.5) ? "why" : "")
                .take());
        break;
      case 6:
        store.detach_gcc(root->fingerprint(), name);
        break;
      case 7: {  // swap, clear or re-set the CRLite filter
        const std::size_t pick = rng_.uniform(filters_.size() + 1);
        store.set_revocation_filter(pick < filters_.size() ? filters_[pick]
                                                           : nullptr);
        break;
      }
    }
  }

  Rng rng_;
  std::vector<CertPtr> roots_;
  std::vector<std::shared_ptr<const revocation::CompressedRevocationSet>>
      filters_;
};

// An anchord daemon whose feed-fetch verb serves `feed`, over a socketpair
// with the serve loop on its own thread.
struct WireHarness {
  rootstore::RootStore empty_store;
  SimSig sigs;
  metrics::Registry registry;
  chain::VerifyService service{empty_store, sigs, {}, registry};
  std::unique_ptr<anchord::AnchordServer> server;
  anchord::ConduitPair conduits;
  std::thread serve_thread;

  explicit WireHarness(const Feed& feed) {
    auto pair = anchord::make_socketpair_conduit();
    if (!pair.ok()) throw std::runtime_error(pair.error());
    conduits = std::move(pair).take();
    anchord::VerbDispatcher::Backends backends;
    backends.service = &service;
    backends.store = &empty_store;
    backends.registry = &registry;
    backends.feed_source = &feed;
    server = std::make_unique<anchord::AnchordServer>(
        backends, anchord::AnchordConfig{}, registry);
    serve_thread = std::thread([this] { server->serve(*conduits.second); });
  }

  ~WireHarness() {
    conduits.first->close();
    serve_thread.join();
  }
};

class PublishDelta : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PublishDelta, ServedDeltasMatchThePayloadDiffAndReplayExactly) {
  SimSig registry;
  Feed feed("stream", registry);
  MutationStream stream(GetParam());

  WireHarness harness(feed);
  anchord::AnchordClient wire_client(*harness.conduits.first);
  anchord::WireFeedTransport wire(wire_client, "stream");
  RsfClient direct_poller(feed, 3600, MergePolicy::kPrimaryWins,
                          Transport::kDelta);
  RsfClient wire_poller(wire, 3600, MergePolicy::kPrimaryWins,
                        Transport::kDelta);

  rootstore::RootStore store;
  constexpr std::uint64_t kPublications = 40;
  for (std::uint64_t step = 0; step < kPublications; ++step) {
    // Every fifth publication ships the store unchanged: an empty delta.
    if (step % 5 != 4) stream.mutate(store);
    const std::int64_t now = kStart + static_cast<std::int64_t>(step) * 3600;
    const std::uint64_t seq = feed.publish(store, now, "release");

    FeedFetchQuery query;
    query.from_size = seq - 1;
    query.want_deltas = true;
    auto fetched = feed.feed_fetch(query);
    ASSERT_TRUE(fetched.ok()) << fetched.error();
    ASSERT_EQ(fetched.value().deltas.size(), 1u);
    EXPECT_EQ(fetched.value().deltas[0],
              oracle_delta(feed.at(seq - 1), *feed.at(seq)))
        << "seed " << GetParam() << ", sequence " << seq;

    // Two of every three publications are polled at once; the third
    // leaves a two-delta run for the next poll to replay.
    if (step % 3 == 1) continue;
    const std::string& head = feed.at(seq)->payload;
    for (RsfClient* poller : {&direct_poller, &wire_poller}) {
      EXPECT_GE(poller->poll_now(now + 1), 1u);
      EXPECT_EQ(poller->last_applied_sequence(), seq);
      EXPECT_EQ(poller->stats().delta_fallbacks, 0u) << "sequence " << seq;
      EXPECT_EQ(poller->store().serialize(), head) << "sequence " << seq;
    }
  }
  EXPECT_EQ(direct_poller.stats().deltas_applied, kPublications);
  EXPECT_EQ(wire_poller.stats().deltas_applied, kPublications);

  // The whole history, and a feed restored from it, serve the same bytes.
  const std::vector<std::string> deltas = served_deltas(feed);
  ASSERT_EQ(deltas.size(), kPublications);
  for (std::uint64_t seq = 1; seq <= kPublications; ++seq) {
    EXPECT_EQ(deltas[seq - 1], oracle_delta(feed.at(seq - 1), *feed.at(seq)));
  }
  Feed restored("stream", registry);
  ASSERT_TRUE(restored.restore(feed.fetch_since(0)).ok());
  EXPECT_EQ(served_deltas(restored), deltas);
  EXPECT_EQ(restored.tree_head(), feed.tree_head());

  // A restored feed keeps deriving from the last payload it read.
  stream.mutate(store);
  feed.publish(store, kStart + 500000, "after restore");
  restored.publish(store, kStart + 500000, "after restore");
  EXPECT_EQ(served_deltas(restored), served_deltas(feed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PublishDelta, ::testing::Values(1u, 7u, 42u, 99u, 2024u));

// Re-trusting a distrusted root with add_trusted_unchecked (a derivative
// re-adding what its upstream removed) lifts the distrust. The store then
// survives its own serialization, and a delta-mode poller replays the
// change without falling back to the full snapshot.
TEST(PublishDeltaRetrust, ReTrustedRootIsTrustedInPayloadAndReplica) {
  SimSig registry;
  Feed feed("retrust", registry);
  RsfClient poller(feed, 3600, MergePolicy::kPrimaryWins, Transport::kDelta);
  const CertPtr root = make_root("Retrusted Root");
  const Sha256::Digest hash = root->fingerprint();

  rootstore::RootStore store;
  (void)store.add_trusted(make_root("Bystander Root"));
  store.distrust(hash, "incident");
  feed.publish(store, kStart, "distrust");
  EXPECT_GE(poller.poll_now(kStart + 1), 1u);
  EXPECT_EQ(poller.store().state_of(hash), rootstore::TrustState::kDistrusted);

  store.add_trusted_unchecked(root);
  ASSERT_EQ(store.state_of(hash), rootstore::TrustState::kTrusted);
  auto round_trip = rootstore::RootStore::deserialize(store.serialize());
  ASSERT_TRUE(round_trip.ok()) << round_trip.error();
  EXPECT_EQ(round_trip.value().state_of(hash), rootstore::TrustState::kTrusted);
  EXPECT_EQ(round_trip.value().serialize(), store.serialize());

  feed.publish(store, kStart + 3600, "re-trust");
  EXPECT_GE(poller.poll_now(kStart + 3601), 1u);
  EXPECT_EQ(poller.last_applied_sequence(), 2u);
  EXPECT_EQ(poller.stats().delta_fallbacks, 0u);
  EXPECT_EQ(poller.store().state_of(hash), rootstore::TrustState::kTrusted);
  EXPECT_EQ(poller.store().serialize(), feed.at(2)->payload);
}

// A signed payload that does not deserialize gets no delta, nor does its
// successor (there is no store to diff against); the feed serves the
// snapshots with the delta list cut short, and derives again after that.
TEST(PublishDeltaRestore, UnparsablePayloadCutsTheDeltaList) {
  SimSig registry;
  Feed feed("nss", registry);
  rootstore::RootStore store;
  (void)store.add_trusted(make_root("A"));
  feed.publish(store, 1, "r1");
  (void)store.add_trusted(make_root("B"));
  feed.publish(store, 2, "r2");
  (void)store.add_trusted(make_root("C"));
  feed.publish(store, 3, "r3");
  feed.publish(store, 4, "r4");

  std::vector<Snapshot> run = feed.fetch_since(0);
  Snapshot& garbage = run[1];
  garbage.payload = "not a serialized root store";
  garbage.payload_hash =
      Sha256::hash_hex(BytesView(to_bytes(garbage.payload)));
  garbage.signature = SimSig::sign(SimSig::keygen("rsf-feed-nss"),
                                   BytesView(garbage.transcript()));
  run[2].prev_hash = garbage.payload_hash;
  run[2].signature = SimSig::sign(SimSig::keygen("rsf-feed-nss"),
                                  BytesView(run[2].transcript()));
  Feed buggy("nss", registry);
  ASSERT_TRUE(buggy.restore(run).ok());

  EXPECT_EQ(served_deltas(buggy).size(), 1u);
  FeedFetchQuery from_three;
  from_three.from_size = 3;
  from_three.want_deltas = true;
  auto tail = buggy.feed_fetch(from_three);
  ASSERT_TRUE(tail.ok()) << tail.error();
  ASSERT_EQ(tail.value().deltas.size(), 1u);
  EXPECT_EQ(tail.value().deltas[0],
            oracle_delta(buggy.at(3), *buggy.at(4)));
}

}  // namespace
}  // namespace anchor::rsf
