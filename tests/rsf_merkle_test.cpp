// The Merkle-authenticated feed path (feed.hpp tree heads + the client's
// feed-fetch poll pipeline): signed tree heads per publication, proof
// verification before any adoption, rollback detection by pinned root
// rather than sequence number, and the E17 fleet-simulation fixture.
//
// A regression test rides along: FleetAdoptionIsDatedAtVerifyNotFetch —
// the simulator's adoption percentiles must move one-for-one with the
// client-side verify latency, which they cannot do if they are dated at
// fetch time.
#include <gtest/gtest.h>

#include <algorithm>

#include "ctlog/merkle.hpp"
#include "rsf/client.hpp"
#include "rsf/simulator.hpp"
#include "rsf/transport.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"

namespace anchor::rsf {
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

rootstore::RootStore store_with(int count, const std::string& prefix = "Root") {
  rootstore::RootStore store;
  for (int i = 0; i < count; ++i) {
    (void)store.add_trusted(make_root(prefix + " " + std::to_string(i)));
  }
  return store;
}

// Rewrites every query's snapshot budget, forcing the feed's pagination
// path: the client must converge over several proof-verified pages.
class PaginatingTransport : public FeedTransport {
 public:
  PaginatingTransport(const Feed& feed, std::uint32_t page)
      : direct_(feed), page_(page) {}

  const std::string& name() const override { return direct_.name(); }
  const Bytes& key_id() const override { return direct_.key_id(); }
  Result<FeedFetch> feed_fetch(const FeedFetchQuery& query) override {
    FeedFetchQuery clamped = query;
    clamped.max_snapshots = page_;
    return direct_.feed_fetch(clamped);
  }

 private:
  DirectTransport direct_;
  std::uint32_t page_;
};

// Serves one of two feeds, switchable mid-test: the split-view attack, where
// a second publisher holding the same key (same feed name) answers with a
// same-size but different history.
class SwitchableTransport : public FeedTransport {
 public:
  SwitchableTransport(const Feed& a, const Feed& b) : a_(a), b_(b) {}

  void serve_second(bool second) { second_ = second; }

  const std::string& name() const override { return current().name(); }
  const Bytes& key_id() const override { return current().key_id(); }
  Result<FeedFetch> feed_fetch(const FeedFetchQuery& query) override {
    return current().feed_fetch(query);
  }

 private:
  const Feed& current() const { return second_ ? b_ : a_; }
  const Feed& a_;
  const Feed& b_;
  bool second_ = false;
};

TEST(FeedTreeHead, SignsATreeHeadPerPublication) {
  SimSig registry;
  Feed feed("nss", registry);

  // The empty feed already commits to its (empty) history.
  SignedTreeHead empty_head = feed.tree_head();
  EXPECT_EQ(empty_head.tree_size, 0u);
  EXPECT_EQ(empty_head.root_hash, ctlog::empty_tree_hash());
  EXPECT_TRUE(registry.verify(BytesView(feed.key_id()),
                              BytesView(empty_head.transcript()),
                              BytesView(empty_head.signature)));

  for (int i = 1; i <= 3; ++i) {
    feed.publish(store_with(i), kNow + i, "r" + std::to_string(i));
  }

  // Every historic head is signed over the root an independent verifier
  // recomputes from the snapshot transcripts.
  ctlog::MerkleTree mirror;
  for (const Snapshot& snap : feed.fetch_since(0)) {
    mirror.append(BytesView(snap.transcript()));
  }
  for (std::uint64_t size = 1; size <= 3; ++size) {
    auto sth = feed.tree_head_at(size);
    ASSERT_TRUE(sth.has_value()) << size;
    EXPECT_EQ(sth->tree_size, size);
    EXPECT_EQ(sth->root_hash, mirror.root_at(size));
    EXPECT_TRUE(registry.verify(BytesView(feed.key_id()),
                                BytesView(sth->transcript()),
                                BytesView(sth->signature)));
  }
  EXPECT_EQ(feed.tree_head(), feed.tree_head_at(3));
  EXPECT_FALSE(feed.tree_head_at(4).has_value());
}

TEST(FeedTreeHead, FeedFetchServesHeadAloneAtOrBeyondFrom) {
  SimSig registry;
  Feed feed("nss", registry);
  for (int i = 1; i <= 3; ++i) feed.publish(store_with(i), kNow + i, "r");

  // A caught-up poller gets the tree head and nothing else.
  FeedFetchQuery query;
  query.from_size = 3;
  auto ff = feed.feed_fetch(query);
  ASSERT_TRUE(ff.ok());
  EXPECT_EQ(ff.value().sth.tree_size, 3u);
  EXPECT_TRUE(ff.value().consistency.empty());
  EXPECT_TRUE(ff.value().inclusion.empty());
  EXPECT_TRUE(ff.value().snapshots.empty());

  // A poller claiming MORE history than the feed has still gets the signed
  // head — the poller classifies the rollback itself, from the signature.
  query.from_size = 10;
  ff = feed.feed_fetch(query);
  ASSERT_TRUE(ff.ok());
  EXPECT_EQ(ff.value().sth.tree_size, 3u);
  EXPECT_TRUE(ff.value().snapshots.empty());

  // An explicit head probe (max_snapshots = 0) behind the head.
  query.from_size = 1;
  query.max_snapshots = 0;
  ff = feed.feed_fetch(query);
  ASSERT_TRUE(ff.ok());
  EXPECT_EQ(ff.value().sth.tree_size, 3u);
  EXPECT_TRUE(ff.value().snapshots.empty());

  // A historic to_size beyond the head is unanswerable.
  FeedFetchQuery future;
  future.to_size = 9;
  EXPECT_FALSE(feed.feed_fetch(future).ok());
}

TEST(FeedTreeHead, PaginationServesTheTreeHeadAtTheClampedSize) {
  SimSig registry;
  Feed feed("nss", registry);
  for (int i = 1; i <= 5; ++i) feed.publish(store_with(i), kNow + i, "r");

  // First page: proofs must be computed AT the clamped size, or the
  // poller could never verify them.
  FeedFetchQuery query;
  query.from_size = 0;
  query.max_snapshots = 2;
  auto page = feed.feed_fetch(query);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page.value().sth.tree_size, 2u);
  ASSERT_EQ(page.value().snapshots.size(), 2u);
  EXPECT_TRUE(page.value().consistency.empty());  // from_size == 0
  EXPECT_TRUE(ctlog::verify_inclusion(
      ctlog::leaf_hash(BytesView(page.value().snapshots.back().transcript())),
      1, 2, page.value().inclusion, page.value().sth.root_hash));

  // Second page: the consistency proof links the first page's head to the
  // new served head.
  query.from_size = 2;
  auto next = feed.feed_fetch(query);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value().sth.tree_size, 4u);
  EXPECT_TRUE(ctlog::verify_consistency(
      2, 4, page.value().sth.root_hash, next.value().sth.root_hash,
      next.value().consistency));

  // A byte budget too small for even one snapshot still makes progress by
  // exactly one.
  FeedFetchQuery tiny;
  tiny.from_size = 0;
  tiny.max_bytes = 1;
  auto trickle = feed.feed_fetch(tiny);
  ASSERT_TRUE(trickle.ok());
  EXPECT_EQ(trickle.value().sth.tree_size, 1u);
  EXPECT_EQ(trickle.value().snapshots.size(), 1u);
}

TEST(FeedTreeHead, RestoreRoundTripsEveryHistoricTreeHead) {
  SimSig registry;
  Feed original("debian", registry);
  for (int i = 1; i <= 4; ++i) {
    original.publish(store_with(i), kNow + i, "r" + std::to_string(i));
  }

  SimSig registry2;
  Feed restored("debian", registry2);
  ASSERT_TRUE(restored.restore(original.fetch_since(0)).ok());
  EXPECT_EQ(restored.head_sequence(), 4u);
  for (std::uint64_t size = 1; size <= 4; ++size) {
    // Byte-identical heads, signatures included: the key is deterministic
    // and the transcript covers exactly (size, time, root).
    EXPECT_EQ(restored.tree_head_at(size), original.tree_head_at(size))
        << size;
  }

  // Restore fails closed: non-empty feed, truncated-front run, tampered run.
  EXPECT_FALSE(restored.restore(original.fetch_since(0)).ok());
  Feed partial("debian", registry2);
  EXPECT_FALSE(partial.restore(original.fetch_since(2)).ok());
  std::vector<Snapshot> tampered = original.fetch_since(0);
  tampered[1].payload += "x";
  Feed poisoned("debian", registry2);
  EXPECT_FALSE(poisoned.restore(std::move(tampered)).ok());
  EXPECT_EQ(poisoned.head_sequence(), 0u);
}

TEST(RsfClientMerkle, AdoptsAndPinsTheSignedRoot) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with(3), kNow, "r1");
  feed.publish(store_with(4), kNow + 10, "r2");

  DirectTransport direct(feed);
  RsfClient client(direct, 3600);
  EXPECT_EQ(client.poll_now(kNow + 20), 2u);
  EXPECT_EQ(client.last_applied_sequence(), 2u);
  EXPECT_EQ(client.pinned_tree_root(), feed.tree_head().root_hash);
  EXPECT_EQ(client.store().trusted_count(), 4u);
  EXPECT_EQ(client.health(), ClientHealth::kHealthy);
  EXPECT_EQ(client.stats().proof_failures, 0u);

  // New publication: the next poll proves consistency from the pin and
  // advances it.
  feed.publish(store_with(5), kNow + 30, "r3");
  EXPECT_EQ(client.poll_now(kNow + 40), 1u);
  EXPECT_EQ(client.last_applied_sequence(), 3u);
  EXPECT_EQ(client.pinned_tree_root(), feed.tree_head().root_hash);
}

TEST(RsfClientMerkle, NoChangePollCostsTheTreeHeadAlone) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with(40), kNow, "big");

  DirectTransport direct(feed);
  RsfClient client(direct, 3600);
  ASSERT_EQ(client.poll_now(kNow + 10), 1u);

  // The acceptance criterion for the authenticated feed: a no-change poll
  // transfers the signed tree head and NOTHING else — O(1) bytes no matter
  // how large the store or how long the history.
  const std::uint64_t before = client.stats().bytes_fetched;
  EXPECT_EQ(client.poll_now(kNow + 3600), 0u);
  EXPECT_EQ(client.stats().bytes_fetched - before,
            feed.tree_head().wire_size());
  EXPECT_EQ(client.stats().verified_no_change, 1u);
  EXPECT_EQ(client.health(), ClientHealth::kHealthy);
}

TEST(RsfClientMerkle, ConvergesOverAPaginatingTransport) {
  SimSig registry;
  Feed feed("nss", registry);
  for (int i = 1; i <= 5; ++i) feed.publish(store_with(i), kNow + i, "r");

  PaginatingTransport paged(feed, /*page=*/1);
  RsfClient client(paged, 3600);
  std::int64_t t = kNow + 100;
  int polls = 0;
  while (client.last_applied_sequence() < 5 && polls < 10) {
    EXPECT_EQ(client.poll_now(t), 1u);  // one proof-verified page per poll
    t += 3600;
    ++polls;
  }
  EXPECT_EQ(polls, 5);
  EXPECT_EQ(client.last_applied_sequence(), 5u);
  EXPECT_EQ(client.pinned_tree_root(), feed.tree_head().root_hash);
  EXPECT_EQ(client.stats().proof_failures, 0u);
  EXPECT_EQ(client.stats().updates_applied, 5u);
}

TEST(RsfClientMerkle, CorruptProofsAreClassifiedAndNeverAdopted) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with(2), kNow, "r1");
  feed.publish(store_with(3), kNow + 10, "r2");

  DirectTransport direct(feed);
  FaultProfile profile;
  profile.corrupt_proof = 1.0;
  FaultyTransport faulty(direct, profile, /*seed=*/11);
  RsfClient client(faulty, 3600);

  // Every poll's proof is damaged: the client rejects before adopting
  // anything, counts the distinct kBadProof kind, and — after the
  // quarantine threshold — stops re-fetching the poisoned head.
  std::int64_t t = kNow + 100;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.poll_now(t), 0u);
    t += 3600;
  }
  EXPECT_EQ(client.stats().proof_failures, 3u);
  EXPECT_EQ(client.stats().transport_error(TransportErrorKind::kBadProof), 3u);
  EXPECT_EQ(client.stats().updates_applied, 0u);
  EXPECT_EQ(client.last_applied_sequence(), 0u);
  EXPECT_EQ(client.health(), ClientHealth::kDegraded);

  // Head 2 is quarantined now; even a clean poll skips it.
  faulty.set_profile(FaultProfile{});
  EXPECT_EQ(client.poll_now(t), 0u);
  EXPECT_EQ(client.stats().quarantine_skips, 1u);

  // A newer publication is a fresh head: the client adopts the full run
  // and the superseded quarantine entry is dropped.
  feed.publish(store_with(4), t, "r3");
  t += 3600;
  EXPECT_EQ(client.poll_now(t), 3u);
  EXPECT_EQ(client.last_applied_sequence(), 3u);
  EXPECT_EQ(client.stats().quarantine_size, 0u);
  EXPECT_EQ(client.health(), ClientHealth::kHealthy);
}

TEST(RsfClientMerkle, EqualSizeDifferentRootIsARollback) {
  // Two publishers with the same feed name hold the same (deterministic)
  // key but different histories: a split view. Sequence numbers cannot
  // tell them apart at equal size — the pinned root must.
  SimSig registry;
  Feed honest("twin", registry);
  honest.publish(store_with(2, "Honest"), kNow, "r1");
  honest.publish(store_with(3, "Honest"), kNow + 10, "r2");
  Feed forked("twin", registry);
  forked.publish(store_with(2, "Forked"), kNow, "r1");
  forked.publish(store_with(3, "Forked"), kNow + 10, "r2");
  ASSERT_NE(honest.tree_head().root_hash, forked.tree_head().root_hash);

  SwitchableTransport transport(honest, forked);
  RsfClient client(transport, 3600);
  ASSERT_EQ(client.poll_now(kNow + 20), 2u);
  const ctlog::Hash pinned = client.pinned_tree_root();

  transport.serve_second(true);
  EXPECT_EQ(client.poll_now(kNow + 3620), 0u);
  EXPECT_EQ(client.stats().transport_error(TransportErrorKind::kRollback), 1u);
  EXPECT_EQ(client.last_applied_sequence(), 2u);
  EXPECT_EQ(client.pinned_tree_root(), pinned);
  EXPECT_EQ(client.health(), ClientHealth::kDegraded);

  // Back on the honest view the pinned root matches again: a verified
  // no-change, which clears the suspicion.
  transport.serve_second(false);
  EXPECT_EQ(client.poll_now(kNow + 7220), 0u);
  EXPECT_EQ(client.stats().verified_no_change, 1u);
  EXPECT_EQ(client.health(), ClientHealth::kHealthy);
}

TEST(RsfClientMerkle, RootVerifiedNoChangeClearsRollbackSuspicion) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with(2), kNow, "r1");
  feed.publish(store_with(3), kNow + 10, "r2");

  DirectTransport direct(feed);
  FaultProfile profile;
  profile.rollback = 1.0;
  FaultyTransport faulty(direct, profile, /*seed=*/5);
  RsfClient client(faulty, 3600);
  ASSERT_EQ(client.poll_now(kNow + 20), 2u);

  // Every poll is rolled back to a head strictly below the pin.
  EXPECT_EQ(client.poll_now(kNow + 3620), 0u);
  EXPECT_GE(client.stats().transport_error(TransportErrorKind::kRollback), 1u);
  EXPECT_EQ(client.health(), ClientHealth::kDegraded);

  // On the merkle path an equal-size head is only trusted because its
  // root matches the pin — that IS our own verified history, so the
  // contact is healthy again even right after the rollback attempt.
  faulty.set_profile(FaultProfile{});
  EXPECT_EQ(client.poll_now(kNow + 7220), 0u);
  EXPECT_EQ(client.stats().verified_no_change, 1u);
  EXPECT_EQ(client.health(), ClientHealth::kHealthy);
}

// Satellite regression: the fleet simulator dates adoption at the fetch
// instant PLUS the client-side verify step. A two-client fixture makes the
// percentile arithmetic exact, and sweeping verify_latency pins that the
// percentiles move with it — dated at fetch time they would be invariant.
TEST(FleetSimulation, TwoClientFixturePinsAdoptionArithmetic) {
  FleetConfig config;
  config.seed = 7;
  config.num_clients = 2;
  config.poll_interval = 3600;
  config.poll_jitter = 0;  // poll phases are the only randomness left
  config.lead_time = 86400;
  config.verify_latency = 2;

  // Replay the simulator's per-client RNG derivation: client i's poll
  // phase is fork(i).uniform(interval). With zero jitter every poll lands
  // on phase + k*interval, so the first poll at or after the incident is
  // at phase + lead_time exactly.
  Rng fleet(config.seed);
  std::int64_t phase0 =
      static_cast<std::int64_t>(fleet.fork(0).uniform(3600));
  std::int64_t phase1 =
      static_cast<std::int64_t>(fleet.fork(1).uniform(3600));
  const std::int64_t slower = std::max(phase0, phase1);

  FleetReport report = run_fleet_simulation(config);
  EXPECT_EQ(report.clients, 2u);
  // 24 no-change polls per client over the one-day lead window.
  EXPECT_EQ(report.polls_no_change, 48u);
  EXPECT_EQ(report.bytes_no_change,
            48u * report.no_change_poll_bytes);
  EXPECT_EQ(report.bytes_emergency, 2u * report.emergency_poll_bytes);
  // Both poll-cost figures come from real feed_fetch responses; the
  // emergency poll carries proofs + a delta range and must dominate.
  EXPECT_GT(report.no_change_poll_bytes, 0u);
  EXPECT_GT(report.emergency_poll_bytes, report.no_change_poll_bytes);

  // Nearest-rank percentiles over two samples resolve to the later one.
  EXPECT_EQ(report.adoption_p50, slower + config.verify_latency);
  EXPECT_EQ(report.adoption_p99, slower + config.verify_latency);
  EXPECT_EQ(report.adoption_max, slower + config.verify_latency);
}

TEST(FleetSimulation, AdoptionIsDatedAtVerifyNotFetch) {
  FleetConfig config;
  config.seed = 7;
  config.num_clients = 2;
  config.poll_jitter = 0;

  config.verify_latency = 0;
  FleetReport fetch_dated = run_fleet_simulation(config);
  config.verify_latency = 30;
  FleetReport verify_dated = run_fleet_simulation(config);

  // Same schedules, same fetches — every adoption statistic must shift by
  // exactly the verify step. Fetch-dated percentiles would not move.
  EXPECT_EQ(verify_dated.adoption_p50, fetch_dated.adoption_p50 + 30);
  EXPECT_EQ(verify_dated.adoption_p99, fetch_dated.adoption_p99 + 30);
  EXPECT_EQ(verify_dated.adoption_max, fetch_dated.adoption_max + 30);
  EXPECT_EQ(verify_dated.bytes_no_change, fetch_dated.bytes_no_change);
}

TEST(FleetSimulation, NoChangePollBytesAreFlatAcrossFleetAndHistory) {
  // O(1) acceptance pin at the simulator level: the per-poll no-change
  // cost is the signed tree head, independent of fleet size.
  FleetConfig small;
  small.num_clients = 100;
  FleetConfig large;
  large.num_clients = 10000;
  FleetReport a = run_fleet_simulation(small);
  FleetReport b = run_fleet_simulation(large);
  EXPECT_EQ(a.no_change_poll_bytes, b.no_change_poll_bytes);
  EXPECT_GT(a.no_change_poll_bytes, 0u);
  // Egress scales linearly with the fleet; the per-poll figure does not.
  EXPECT_GT(b.bytes_no_change, a.bytes_no_change);
}

}  // namespace
}  // namespace anchor::rsf
