#include "rsf/client.hpp"

#include <gtest/gtest.h>

#include <set>

#include "rsf/transport.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"
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

const std::string kGcc =
    "valid(Chain, \"TLS\") :- leaf(Chain, L), notBefore(L, NB), NB < 100.";

TEST(RsfClient, AppliesSnapshotsOnPoll) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A"}), 100, "r1");
  RsfClient client(feed, 3600);
  EXPECT_EQ(client.poll_now(200), 1u);
  EXPECT_EQ(client.store().trusted_count(), 1u);
  EXPECT_EQ(client.last_applied_sequence(), 1u);
  EXPECT_EQ(client.last_update_time(), 200);
}

TEST(RsfClient, PollWithNothingNewIsNoOp) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A"}), 100, "r1");
  RsfClient client(feed, 3600);
  EXPECT_EQ(client.poll_now(200), 1u);
  EXPECT_EQ(client.poll_now(300), 0u);
  EXPECT_EQ(client.stats().polls, 2u);
  EXPECT_EQ(client.stats().updates_applied, 1u);
}

TEST(RsfClient, RunUntilFollowsPollSchedule) {
  SimSig registry;
  Feed feed("nss", registry);
  RsfClient client(feed, 3600);
  client.run_until(0);  // first poll at t=0, feed empty
  feed.publish(store_with({"A"}), 1000, "r1");
  // Next poll boundary is t=3600.
  client.run_until(3599);
  EXPECT_EQ(client.store().trusted_count(), 0u);
  client.run_until(3600);
  EXPECT_EQ(client.store().trusted_count(), 1u);
  EXPECT_EQ(client.last_update_time(), 3600);
}

TEST(RsfClient, CatchesUpAcrossMultipleSnapshots) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A"}), 1, "r1");
  feed.publish(store_with({"A", "B"}), 2, "r2");
  feed.publish(store_with({"A", "B", "C"}), 3, "r3");
  RsfClient client(feed, 3600);
  EXPECT_EQ(client.poll_now(10), 3u);
  EXPECT_EQ(client.store().trusted_count(), 3u);
  EXPECT_EQ(client.last_applied_sequence(), 3u);
}

TEST(RsfClient, FailsClosedOnTamperedFeed) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A"}), 1, "r1");
  RsfClient client(feed, 3600);
  EXPECT_EQ(client.poll_now(10), 1u);

  feed.publish(store_with({"A", "B"}), 2, "r2");
  feed.mutable_at(2)->payload += "garbage";
  EXPECT_EQ(client.poll_now(20), 0u);
  EXPECT_EQ(client.stats().verify_failures, 1u);
  // The last good store is retained.
  EXPECT_EQ(client.store().trusted_count(), 1u);
  EXPECT_EQ(client.last_applied_sequence(), 1u);
}

TEST(RsfClient, DistrustPropagatesOnNextPoll) {
  SimSig registry;
  Feed feed("nss", registry);
  rootstore::RootStore primary = store_with({"A", "B"});
  feed.publish(primary, 1, "r1");
  RsfClient client(feed, 3600);
  client.poll_now(10);
  const Sha256::Digest victim = primary.trusted()[0]->cert->fingerprint();
  primary.distrust(victim, "incident");
  feed.publish(primary, 2, "emergency");
  client.poll_now(20);
  EXPECT_EQ(client.store().state_of(victim),
            rootstore::TrustState::kDistrusted);
}

TEST(RsfClient, LocalStoreIsMergedOnEveryUpdate) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A"}), 1, "r1");

  CertPtr imported = make_root("Imported Corp Root");
  rootstore::RootStore local;
  (void)local.add_trusted(imported);

  RsfClient client(feed, 3600);
  client.set_local_store(local);
  client.poll_now(10);
  EXPECT_EQ(client.store().trusted_count(), 2u);
  EXPECT_EQ(client.store().state_of(imported->fingerprint()),
            rootstore::TrustState::kTrusted);

  // A second snapshot keeps the local augmentation.
  feed.publish(store_with({"A", "B"}), 2, "r2");
  client.poll_now(20);
  EXPECT_EQ(client.store().trusted_count(), 3u);
}

TEST(RsfClient, LocalReAddOfDistrustedRootCountsConflicts) {
  SimSig registry;
  Feed feed("nss", registry);
  CertPtr bad = make_root("Bad Root");
  rootstore::RootStore primary;
  primary.distrust(bad->fingerprint(), "incident");
  feed.publish(primary, 1, "r1");

  rootstore::RootStore local;
  (void)local.add_trusted(bad);
  RsfClient client(feed, 3600);
  client.set_local_store(local);
  client.poll_now(10);
  EXPECT_EQ(client.stats().merge_conflicts, 1u);
  // Primary wins by default.
  EXPECT_EQ(client.store().state_of(bad->fingerprint()),
            rootstore::TrustState::kDistrusted);
}

TEST(RsfClient, GccsArriveThroughTheFeed) {
  SimSig registry;
  Feed feed("nss", registry);
  CertPtr root = make_root("A");
  rootstore::RootStore primary;
  (void)primary.add_trusted(root);
  primary.attach_gcc(
      core::Gcc::create("c1", root->fingerprint_hex(), kGcc, "why").take());
  feed.publish(primary, 1, "with gcc");

  RsfClient client(feed, 3600);
  client.poll_now(10);
  EXPECT_EQ(client.store().gccs().total(), 1u);
  EXPECT_EQ(client.store().gccs().for_root(root->fingerprint())[0].name(),
            "c1");
}

TEST(ManualMirror, AdoptsHeadSnapshotOnSync) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A"}), 1, "r1");
  feed.publish(store_with({"A", "B"}), 2, "r2");
  ManualMirrorClient mirror(feed, /*strip_gccs=*/false);
  EXPECT_EQ(mirror.mirrored_sequence(), 0u);
  mirror.manual_sync(500);
  EXPECT_EQ(mirror.mirrored_sequence(), 2u);
  EXPECT_EQ(mirror.store().trusted_count(), 2u);
  EXPECT_EQ(mirror.last_sync_time(), 500);
}

TEST(ManualMirror, StripGccsModelsBareCollectionDerivative) {
  SimSig registry;
  Feed feed("nss", registry);
  CertPtr root = make_root("A");
  rootstore::RootStore primary;
  rootstore::RootMetadata metadata;
  metadata.tls_distrust_after = 123;
  (void)primary.add_trusted(root, metadata);
  primary.attach_gcc(
      core::Gcc::create("c1", root->fingerprint_hex(), kGcc).take());
  feed.publish(primary, 1, "release");

  ManualMirrorClient stripping(feed, /*strip_gccs=*/true);
  stripping.manual_sync(10);
  EXPECT_EQ(stripping.store().trusted_count(), 1u);
  EXPECT_EQ(stripping.store().gccs().total(), 0u);  // imprecision problem
  EXPECT_FALSE(stripping.store()
                   .find(root->fingerprint())
                   ->metadata.tls_distrust_after.has_value());

  ManualMirrorClient faithful(feed, /*strip_gccs=*/false);
  faithful.manual_sync(10);
  EXPECT_EQ(faithful.store().gccs().total(), 1u);
}

TEST(ManualMirror, SyncWithEmptyFeedIsHarmless) {
  SimSig registry;
  Feed feed("nss", registry);
  ManualMirrorClient mirror(feed, true);
  mirror.manual_sync(5);
  EXPECT_EQ(mirror.mirrored_sequence(), 0u);
  EXPECT_EQ(mirror.last_sync_time(), 5);
}

}  // namespace
}  // namespace anchor::rsf

namespace anchor::rsf {
namespace {

CertPtr make_root2(const std::string& name) {
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

TEST(RsfClientDelta, DeltaTransportTracksFullTransport) {
  SimSig registry;
  Feed feed("nss", registry);
  rootstore::RootStore primary;
  std::vector<CertPtr> roots;
  for (int i = 0; i < 20; ++i) {
    roots.push_back(make_root2("DT Root " + std::to_string(i)));
    (void)primary.add_trusted(roots.back());
  }
  feed.publish(primary, 100, "baseline");

  RsfClient full(feed, 3600, MergePolicy::kPrimaryWins,
                 Transport::kFullSnapshot);
  RsfClient delta(feed, 3600, MergePolicy::kPrimaryWins, Transport::kDelta);
  full.poll_now(200);
  delta.poll_now(200);
  EXPECT_EQ(full.store().serialize(), delta.store().serialize());

  // A sequence of evolutions; the delta client must stay byte-identical.
  primary.distrust(roots[3]->fingerprint(), "incident A");
  feed.publish(primary, 300, "r2");
  primary.attach_gcc(core::Gcc::create("g", roots[5]->fingerprint_hex(),
                                          "valid(C, _) :- leaf(C, L).")
                            .take());
  feed.publish(primary, 400, "r3");
  primary.forget(roots[3]->fingerprint());
  feed.publish(primary, 500, "r4");

  full.poll_now(600);
  delta.poll_now(600);
  EXPECT_EQ(full.store().serialize(), delta.store().serialize());
  EXPECT_EQ(delta.stats().deltas_applied, 4u);  // bootstrap + 3 updates
  EXPECT_EQ(delta.stats().delta_fallbacks, 0u);
  EXPECT_EQ(delta.last_applied_sequence(), full.last_applied_sequence());
}

TEST(RsfClientDelta, DeltaTransportSavesBandwidthOnSmallChanges) {
  SimSig registry;
  Feed feed("nss", registry);
  rootstore::RootStore primary;
  std::vector<CertPtr> roots;
  for (int i = 0; i < 60; ++i) {
    roots.push_back(make_root2("BW Root " + std::to_string(i)));
    (void)primary.add_trusted(roots.back());
  }
  feed.publish(primary, 100, "baseline");

  RsfClient full(feed, 3600, MergePolicy::kPrimaryWins,
                 Transport::kFullSnapshot);
  RsfClient delta(feed, 3600, MergePolicy::kPrimaryWins, Transport::kDelta);
  full.poll_now(200);
  delta.poll_now(200);
  std::uint64_t full_baseline = full.stats().bytes_fetched;
  std::uint64_t delta_baseline = delta.stats().bytes_fetched;
  // Bootstrapping costs the same order either way.
  EXPECT_GT(delta_baseline, 0u);

  // Ten one-root emergency updates.
  for (int i = 0; i < 10; ++i) {
    primary.distrust(roots[static_cast<std::size_t>(i)]->fingerprint(),
                     "incident");
    feed.publish(primary, 300 + i, "emergency");
    full.poll_now(1000 + i);
    delta.poll_now(1000 + i);
  }
  EXPECT_EQ(full.store().serialize(), delta.store().serialize());
  std::uint64_t full_updates = full.stats().bytes_fetched - full_baseline;
  std::uint64_t delta_updates = delta.stats().bytes_fetched - delta_baseline;
  EXPECT_LT(delta_updates * 10, full_updates)
      << "delta transport should be >10x cheaper for one-root changes";
}

TEST(RsfClientDelta, FallsBackToSnapshotWhenReplicaDiverges) {
  SimSig registry;
  Feed feed("nss", registry);
  rootstore::RootStore primary;
  (void)primary.add_trusted(make_root2("FB Root"));
  feed.publish(primary, 100, "r1");

  RsfClient delta(feed, 3600, MergePolicy::kPrimaryWins, Transport::kDelta);
  delta.poll_now(200);
  ASSERT_EQ(delta.stats().delta_fallbacks, 0u);

  // Tamper with the feed's *payload* after signing? That breaks signature
  // verification, tested elsewhere. Here: corrupt delta replay by mutating
  // an intermediate snapshot the delta derivation reads, while keeping the
  // head intact — simplest equivalent: publish two rapid updates and
  // corrupt snapshot 2's payload such that the hash chain stays intact for
  // the client (it only anchors on payload_hash links). We simulate
  // divergence instead by tampering snapshot 2 entirely and expecting
  // fail-closed behaviour from the signature layer.
  (void)primary.add_trusted(make_root2("FB Root 2"));
  feed.publish(primary, 300, "r2");
  feed.mutable_at(2)->payload += "x";
  std::size_t applied = delta.poll_now(400);
  EXPECT_EQ(applied, 0u);
  EXPECT_EQ(delta.stats().verify_failures, 1u);
  EXPECT_EQ(delta.store().trusted_count(), 1u);  // last good state retained
}

// Snapshot adoption replaces the exposed store wholesale; the epoch must
// still only move forward, because chain::VerifyService keys its verdict
// cache on it (a backwards epoch could alias a stale cached verdict onto
// post-update store state).
TEST(RsfClient, StoreEpochNeverMovesBackwardAcrossPolls) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A", "B", "C"}), 100, "r1");
  RsfClient client(feed, 3600);
  EXPECT_EQ(client.poll_now(10), 1u);
  const std::uint64_t first = client.store().epoch();

  // The second release carries *fewer* mutations in its own history than
  // the replica has accumulated — exactly the case where naive adoption
  // would rewind the counter.
  feed.publish(store_with({"A"}), 200, "r2");
  EXPECT_EQ(client.poll_now(20), 1u);
  EXPECT_GT(client.store().epoch(), first);
}

TEST(ManualMirror, StoreEpochNeverMovesBackwardAcrossSyncs) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A", "B", "C"}), 1, "r1");
  ManualMirrorClient mirror(feed, /*strip_gccs=*/false);
  mirror.manual_sync(10);
  const std::uint64_t first = mirror.store().epoch();
  feed.publish(store_with({"A"}), 2, "r2");
  mirror.manual_sync(20);
  EXPECT_GT(mirror.store().epoch(), first);
}

// Regression: run_until used to loop once per missed poll interval, so a
// client woken after a long offline gap (a laptop resumed after vacation)
// replayed thousands of back-to-back polls against the feed. Post-fix it
// issues a single catch-up poll and re-anchors the schedule at `now`.
TEST(RsfClient, RunUntilIssuesOneCatchUpPollAfterOfflineGap) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A"}), 100, "r1");
  RsfClient client(feed, 3600);
  client.run_until(0);
  EXPECT_EQ(client.stats().polls, 1u);

  // Offline for 100 days (2400 missed hourly intervals).
  feed.publish(store_with({"A", "B"}), 50 * 86400, "r2");
  const std::int64_t wake = 100 * 86400;
  EXPECT_EQ(client.run_until(wake), 1u);
  EXPECT_EQ(client.stats().polls, 2u);  // pre-fix: ~2401
  EXPECT_EQ(client.last_applied_sequence(), 2u);
  // The schedule is re-anchored relative to the wake time, not to the
  // pre-gap grid.
  EXPECT_EQ(client.next_poll_time(), wake + 3600);
  EXPECT_EQ(client.run_until(wake + 3599), 0u);
  EXPECT_EQ(client.stats().polls, 2u);
}

// Serves one of two feeds published under the same key, switchable
// between polls.
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

// Regression: a payload that is correctly signed and hash-verified but does
// not deserialize (a publisher-side bug, not transport tamper) used to be
// counted as a verify_failure, poisoning the metric operators alarm on for
// integrity attacks. The two causes are now distinct counters with
// identical fail-closed handling.
TEST(RsfClient, SignedButUnparsablePayloadIsAParseFailureNotAVerifyFailure) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with({"A"}), 1, "r1");
  Feed buggy("nss", registry);
  SwitchableTransport transport(feed, buggy);
  RsfClient client(transport, 3600);
  EXPECT_EQ(client.poll_now(10), 1u);

  // The publisher ships garbage at sequence 2, but signs it properly:
  // recompute the payload hash and signature exactly as Feed::publish
  // would. Restored into a second feed under the same key, that history
  // has genuinely signed tree heads and proofs that extend the client's
  // pin, so the only thing wrong with snapshot 2 is that it does not parse.
  feed.publish(store_with({"A", "B"}), 2, "r2");
  std::vector<Snapshot> run = feed.fetch_since(0);
  Snapshot& garbage = run[1];
  garbage.payload = "not a serialized root store";
  garbage.payload_hash =
      Sha256::hash_hex(BytesView(to_bytes(garbage.payload)));
  garbage.signature = SimSig::sign(SimSig::keygen("rsf-feed-nss"),
                                   BytesView(garbage.transcript()));
  ASSERT_TRUE(buggy.restore(run).ok());
  transport.serve_second(true);

  EXPECT_EQ(client.poll_now(20), 0u);
  EXPECT_EQ(client.stats().parse_failures, 1u);
  EXPECT_EQ(client.stats().verify_failures, 0u);
  EXPECT_EQ(client.stats().proof_failures, 0u);
  // Fail-closed handling is identical to a verify failure: the last good
  // store is retained and the fetched bytes are accounted as discarded.
  EXPECT_EQ(client.store().trusted_count(), 1u);
  EXPECT_EQ(client.last_applied_sequence(), 1u);
  EXPECT_EQ(client.stats().bytes_discarded, garbage.payload.size());
  // And the converse stays true: transport tamper is a verify failure.
  transport.serve_second(false);
  feed.publish(store_with({"A", "B", "C"}), 3, "r3");
  feed.mutable_at(3)->payload += "garbage";
  EXPECT_EQ(client.poll_now(30), 0u);
  EXPECT_EQ(client.stats().verify_failures, 1u);
  EXPECT_EQ(client.stats().parse_failures, 1u);
}

// Property-style check: under arbitrary interleavings of publishes and
// injected transport faults, the exposed store is always some published
// primary snapshot merged with the local store — never a torn, partial, or
// rolled-back state — and the applied sequence is monotone.
TEST(RsfClientProperty, ExposedStoreIsAlwaysAVerifiedPrimaryMergedWithLocal) {
  for (std::uint64_t seed : {11u, 29u, 83u}) {
    SimSig registry;
    Feed feed("nss", registry);
    rootstore::RootStore primary =
        store_with({"P0 s" + std::to_string(seed), "P1", "P2"});

    CertPtr imported = make_root("Imported s" + std::to_string(seed));
    rootstore::RootStore local;
    (void)local.add_trusted(imported);

    DirectTransport direct(feed);
    FaultyTransport faulty(direct, FaultProfile::chaos(0.4), seed);
    RetryPolicy retry;
    retry.jitter_seed = seed;
    RsfClient client(faulty, 3600, MergePolicy::kPrimaryWins,
                     Transport::kFullSnapshot, retry);
    client.set_local_store(local);

    std::set<std::string> legitimate;
    legitimate.insert(rootstore::RootStore{}.serialize());
    auto publish = [&](std::int64_t at) {
      feed.publish(primary, at, "release");
      legitimate.insert(
          merge(primary, local, MergePolicy::kPrimaryWins).merged.serialize());
    };
    publish(0);

    Rng driver(seed * 0x9e3779b97f4a7c15ULL);
    std::uint64_t last_seq = 0;
    std::int64_t now = 0;
    for (int step = 0; step < 300; ++step) {
      now += 1800;
      if (driver.chance(0.08)) {
        if (driver.chance(0.5)) {
          (void)primary.add_trusted(make_root(
              "Prop Root s" + std::to_string(seed) + " " +
              std::to_string(step)));
        } else if (!primary.trusted().empty()) {
          primary.distrust(primary.trusted()[0]->cert->fingerprint(),
                           "prop incident");
        }
        publish(now);
      }
      client.run_until(now);
      ASSERT_EQ(legitimate.count(client.store().serialize()), 1u)
          << "seed " << seed << " step " << step
          << ": exposed store is not a published primary state";
      ASSERT_GE(client.last_applied_sequence(), last_seq)
          << "seed " << seed << " step " << step;
      last_seq = client.last_applied_sequence();
    }
    // The interleaving must actually have exercised both paths.
    EXPECT_GT(client.stats().updates_applied, 0u) << "seed " << seed;
    EXPECT_GT(faulty.injected_total(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace anchor::rsf
