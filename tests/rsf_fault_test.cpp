// Fault-tolerant RSF sync (tests for the FeedTransport/FaultyTransport
// layer and the client's retry/quarantine/health machinery).
//
// The two properties every test here circles around:
//   SAFETY   — no injected fault can ever make the client adopt a store
//              that is not a signature- and hash-chain-verified primary
//              snapshot (merged with the local store);
//   LIVENESS — once faults clear, the client converges to the primary's
//              head within bounded retries.
#include "rsf/transport.hpp"

#include <gtest/gtest.h>

#include <set>

#include "rsf/client.hpp"
#include "rsf/clock.hpp"
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

rootstore::RootStore store_with(int count) {
  rootstore::RootStore store;
  for (int i = 0; i < count; ++i) {
    (void)store.add_trusted(make_root("Fault Root " + std::to_string(i)));
  }
  return store;
}

// A transport whose faults are scripted, not random — for regression tests
// that need a specific failure at a specific sequence.
class ScriptedTransport : public FeedTransport {
 public:
  explicit ScriptedTransport(const Feed& feed) : direct_(feed) {}

  const std::string& name() const override { return direct_.name(); }
  const Bytes& key_id() const override { return direct_.key_id(); }
  Result<FeedFetch> feed_fetch(const FeedFetchQuery& query) override {
    auto fetched = direct_.feed_fetch(query);
    if (!fetched) return fetched;
    FeedFetch out = std::move(fetched).take();
    for (std::size_t i = 0; i < out.deltas.size(); ++i) {
      if (out.snapshots[i].sequence == corrupt_delta_at) {
        out.deltas[i] = "garbage delta";
      }
    }
    return out;
  }

  std::uint64_t corrupt_delta_at = 0;  // 0 = no corruption

 private:
  DirectTransport direct_;
};

// What RsfClient adds to bytes_fetched for a poll's tree head, proofs and
// snapshot headers, on top of the payload or delta bodies it consumes.
std::uint64_t auth_overhead(const FeedFetch& ff) {
  std::uint64_t bytes =
      ff.sth.wire_size() +
      (ff.consistency.size() + ff.inclusion.size()) * sizeof(ctlog::Hash);
  for (const Snapshot& snap : ff.snapshots) bytes += snap.wire_size(false);
  return bytes;
}

TEST(FaultyTransport, ZeroProfileIsTransparent) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with(3), 100, "r1");
  DirectTransport direct(feed);
  FaultyTransport faulty(direct, FaultProfile{}, /*seed=*/7);
  FeedFetchQuery query;
  query.want_deltas = true;
  auto fetched = faulty.feed_fetch(query);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value(), direct.feed_fetch(query).value());
  EXPECT_EQ(fetched.value().snapshots.size(), 1u);
  EXPECT_EQ(faulty.injected_total(), 0u);
  Status s = Feed::verify_run(fetched.value().snapshots, "",
                              BytesView(faulty.key_id()), registry);
  EXPECT_TRUE(s.ok());
}

TEST(FaultyTransport, InjectionIsDeterministicUnderSeed) {
  SimSig registry;
  Feed feed("nss", registry);
  rootstore::RootStore store = store_with(4);
  for (int i = 0; i < 6; ++i) feed.publish(store, 100 + i, "r");

  auto observe = [&](std::uint64_t seed) {
    DirectTransport direct(feed);
    FaultyTransport faulty(direct, FaultProfile::chaos(0.5), seed);
    FeedFetchQuery query;
    query.from_size = 2;
    query.want_deltas = true;
    std::vector<std::string> hashes;
    for (int i = 0; i < 16; ++i) {
      auto fetched = faulty.feed_fetch(query);
      if (!fetched) {
        hashes.push_back("<unreachable>");
        continue;
      }
      const FeedFetch& ff = fetched.value();
      std::string digest = std::to_string(ff.sth.tree_size) + "@";
      for (const Snapshot& snap : ff.snapshots) {
        digest += std::to_string(snap.sequence) + ":" +
                  Sha256::hash_hex(BytesView(to_bytes(snap.payload))) + ";";
        digest += to_hex(BytesView(snap.signature)).substr(0, 8) + "|";
      }
      for (const std::string& delta : ff.deltas) {
        digest += Sha256::hash_hex(BytesView(to_bytes(delta))) + "|";
      }
      for (const ctlog::Hash& node : ff.consistency) {
        digest += to_hex(BytesView(node.data(), node.size())) + "|";
      }
      for (const ctlog::Hash& node : ff.inclusion) {
        digest += to_hex(BytesView(node.data(), node.size())) + "|";
      }
      hashes.push_back(digest);
    }
    return hashes;
  };
  EXPECT_EQ(observe(42), observe(42));
  EXPECT_NE(observe(42), observe(43));
}

TEST(FaultyTransport, CorruptionIsDetectedByVerifyRun) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with(3), 100, "r1");
  feed.publish(store_with(4), 200, "r2");
  DirectTransport direct(feed);
  FaultyTransport faulty(direct, FaultProfile::corruption(1.0), /*seed=*/3);
  FeedFetchQuery query;
  query.want_deltas = true;
  auto fetched = faulty.feed_fetch(query);
  ASSERT_TRUE(fetched.ok());
  Feed::RunFault fault = Feed::RunFault::kNone;
  Status s = Feed::verify_run(fetched.value().snapshots, "",
                              BytesView(faulty.key_id()), registry, &fault);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(fault, Feed::RunFault::kNone);
  EXPECT_EQ(faulty.injected(TransportErrorKind::kCorruptDelta), 1u);
  // The underlying feed is untouched: a clean fetch still verifies.
  auto clean = direct.feed_fetch(query);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(Feed::verify_run(clean.value().snapshots, "",
                               BytesView(direct.key_id()), registry)
                  .ok());
  EXPECT_NE(clean.value().deltas, fetched.value().deltas);
}

// --- client behaviour under faults -----------------------------------------

TEST(RsfFault, UnreachableFeedBacksOffExponentially) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with(2), 0, "r1");

  DirectTransport direct(feed);
  FaultyTransport faulty(direct, FaultProfile::loss(1.0), /*seed=*/1);
  RetryPolicy retry;
  retry.base_backoff = 60;
  retry.max_backoff = 3600;
  retry.jitter = 0.0;           // exact schedule for the assertion
  retry.stale_after = 12 * 3600;
  RsfClient client(faulty, 3600, MergePolicy::kPrimaryWins,
                   Transport::kFullSnapshot, retry);

  // Drive one simulated day at minute granularity. With backoff 60, 120,
  // 240, ... capped at 3600, the client issues O(log) polls early and then
  // one per hour — far fewer than the 1440 a fixed-minute retry would.
  SimClock clock(0);
  while (clock.now() < 86400) {
    client.run_until(clock.now());
    clock.advance(60);
  }
  EXPECT_GT(client.stats().polls, 5u);
  EXPECT_LT(client.stats().polls, 40u);
  EXPECT_EQ(client.stats().retries, client.stats().polls);
  EXPECT_EQ(client.stats().transport_error(TransportErrorKind::kUnreachable),
            client.stats().polls);
  EXPECT_EQ(client.last_applied_sequence(), 0u);
  EXPECT_EQ(client.health(), ClientHealth::kStale);  // > 12h with no contact
  EXPECT_GE(client.stats().seconds_stale, 86400 - 2 * 3600);

  // Feed recovers: the next poll adopts the head and health snaps back.
  faulty.set_profile(FaultProfile{});
  clock.advance(3600);
  client.run_until(clock.now());
  EXPECT_EQ(client.last_applied_sequence(), 1u);
  EXPECT_EQ(client.health(), ClientHealth::kHealthy);
  EXPECT_EQ(client.stats().seconds_stale, 0);
}

TEST(RsfFault, PoisonedHeadIsQuarantinedNotRefetchedForever) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with(2), 0, "r1");
  RetryPolicy retry;
  retry.quarantine_threshold = 3;
  retry.quarantine_duration = 48 * 3600;  // outlasts the observed day
  retry.stale_after = 7 * 86400;          // keep health on the degraded axis
  RsfClient client(feed, 3600, MergePolicy::kPrimaryWins,
                   Transport::kFullSnapshot, retry);
  EXPECT_EQ(client.poll_now(0), 1u);

  // Snapshot 2 is poisoned in the feed itself — every fetch of it fails
  // verification, no matter how many times the client retries.
  feed.publish(store_with(3), 100, "r2");
  feed.mutable_at(2)->payload += "tamper";

  SimClock clock(3600);
  for (int hour = 0; hour < 24; ++hour) {
    client.run_until(clock.now());
    clock.advance(3600);
  }
  // Exactly `threshold` verification attempts, then quarantine skips.
  EXPECT_EQ(client.stats().verify_failures, 3u);
  EXPECT_GT(client.stats().quarantine_skips, 0u);
  EXPECT_EQ(client.stats().quarantine_size, 1u);
  EXPECT_EQ(client.health(), ClientHealth::kDegraded);
  // Still serving the last good store.
  EXPECT_EQ(client.last_applied_sequence(), 1u);
  EXPECT_EQ(client.store().trusted_count(), 2u);

  // The publisher ships a clean successor; the client must advance to it
  // even though the poisoned sequence is still quarantined. (The repaired
  // run re-fetches snapshot 2, whose tampered payload now fails again —
  // so repair the feed entry, as a publisher re-issuing the snapshot.)
  feed.mutable_at(2)->payload = feed.mutable_at(2)->payload.substr(
      0, feed.mutable_at(2)->payload.size() - 6);
  feed.publish(store_with(4), 200, "r3");
  client.poll_now(clock.now());
  EXPECT_EQ(client.last_applied_sequence(), 3u);
  EXPECT_EQ(client.store().trusted_count(), 4u);
  EXPECT_EQ(client.health(), ClientHealth::kHealthy);
}

TEST(RsfFault, QuarantineIsBounded) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with(1), 0, "r1");
  RetryPolicy retry;
  retry.quarantine_threshold = 1;   // quarantine on first failure
  retry.quarantine_capacity = 4;
  retry.quarantine_duration = 1000L * 86400;  // effectively forever
  RsfClient client(feed, 3600, MergePolicy::kPrimaryWins,
                   Transport::kFullSnapshot, retry);
  EXPECT_EQ(client.poll_now(0), 1u);

  // A stream of poisoned heads: each gets quarantined, the table must not
  // grow past its capacity.
  SimClock clock(3600);
  for (int i = 0; i < 10; ++i) {
    feed.publish(store_with(2 + i), clock.now(), "r");
    feed.mutable_at(feed.head_sequence())->payload += "tamper";
    client.poll_now(clock.now());       // fails, quarantines
    client.poll_now(clock.now() + 60);  // skips
    clock.advance(3600);
  }
  EXPECT_LE(client.stats().quarantine_size, 4u);
  EXPECT_GT(client.stats().quarantine_skips, 0u);
  EXPECT_EQ(client.last_applied_sequence(), 1u);
}

TEST(RsfFault, RollbackReplayIsNeverAdopted) {
  SimSig registry;
  Feed feed("nss", registry);
  feed.publish(store_with(1), 0, "r1");
  feed.publish(store_with(2), 100, "r2");
  feed.publish(store_with(3), 200, "r3");

  DirectTransport direct(feed);
  FaultyTransport faulty(direct, FaultProfile{}, /*seed=*/9);
  RsfClient client(faulty, 3600);
  EXPECT_EQ(client.poll_now(300), 3u);
  const std::uint64_t adopted = client.last_applied_sequence();

  // From here on, every fetch is a stale replay of an older feed state.
  FaultProfile rollback;
  rollback.rollback = 1.0;
  faulty.set_profile(rollback);
  feed.publish(store_with(4), 400, "r4");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(client.poll_now(500 + i * 3600), 0u);
  }
  EXPECT_GE(client.stats().transport_error(TransportErrorKind::kRollback), 5u);
  EXPECT_EQ(client.last_applied_sequence(), adopted);
  EXPECT_EQ(client.store().trusted_count(), 3u);

  faulty.set_profile(FaultProfile{});
  EXPECT_EQ(client.poll_now(50000), 1u);
  EXPECT_EQ(client.last_applied_sequence(), 4u);
}

// The acceptance test: a 30% all-kinds fault rate while the primary keeps
// releasing; the client must (a) never expose anything but a verified
// primary snapshot merged with its local store, (b) keep
// last_applied_sequence monotonic, and (c) converge to the primary head
// within bounded retries once faults stop.
TEST(RsfFault, ConvergesAfterChaosAndNeverServesUnverifiedState) {
  SimSig registry;
  Feed feed("nss", registry);
  rootstore::RootStore primary = store_with(4);

  CertPtr imported = make_root("Locally Imported Root");
  rootstore::RootStore local;
  (void)local.add_trusted(imported);

  DirectTransport direct(feed);
  FaultyTransport faulty(direct, FaultProfile::chaos(0.3), /*seed=*/2024);
  RetryPolicy retry;
  retry.base_backoff = 300;
  retry.quarantine_duration = 4 * 3600;
  RsfClient client(faulty, 3600, MergePolicy::kPrimaryWins,
                   Transport::kFullSnapshot, retry);
  client.set_local_store(local);

  // Every store the client may legitimately expose: a published primary
  // snapshot merged with the local store (plus the pre-first-poll empty
  // store).
  std::set<std::string> legitimate;
  legitimate.insert(rootstore::RootStore{}.serialize());
  auto publish = [&](std::int64_t at, const std::string& note) {
    feed.publish(primary, at, note);
    legitimate.insert(
        merge(primary, local, MergePolicy::kPrimaryWins).merged.serialize());
  };

  publish(0, "baseline");
  SimClock clock(0);
  std::uint64_t last_seq = 0;
  int releases = 1;
  const std::int64_t chaos_end = 40 * 86400;
  while (clock.now() < chaos_end) {
    // A routine release roughly every 3 days; mutate the store so every
    // snapshot is distinguishable.
    if (clock.now() > 0 && clock.now() % (3 * 86400) == 0) {
      (void)primary.add_trusted(
          make_root("Release Root " + std::to_string(releases)));
      publish(clock.now(), "routine");
      ++releases;
    }
    client.run_until(clock.now());
    // SAFETY: the exposed store is always a verified published state.
    EXPECT_TRUE(legitimate.count(client.store().serialize()) == 1)
        << "client exposed a store that was never published at t="
        << clock.now();
    // Monotonic adoption.
    EXPECT_GE(client.last_applied_sequence(), last_seq);
    last_seq = client.last_applied_sequence();
    clock.advance(1800);
  }
  // The chaos phase must actually have exercised the failure paths.
  EXPECT_GT(faulty.injected_total(), 0u);
  EXPECT_GT(client.stats().retries, 0u);
  EXPECT_GT(client.stats().transport_errors_total(), 0u);

  // LIVENESS: faults stop; the client converges to the primary's head
  // within a bounded number of polls (quarantines expire inside the
  // window, backoff is capped at an hour).
  faulty.set_profile(FaultProfile{});
  const std::uint64_t polls_at_recovery = client.stats().polls;
  bool converged = false;
  for (int i = 0; i < 48 && !converged; ++i) {
    clock.advance(3600);
    client.run_until(clock.now());
    converged = client.last_applied_sequence() == feed.head_sequence();
  }
  EXPECT_TRUE(converged) << "client did not converge within 48h of recovery";
  EXPECT_LE(client.stats().polls - polls_at_recovery, 48u);
  EXPECT_EQ(client.store().serialize(),
            merge(primary, local, MergePolicy::kPrimaryWins)
                .merged.serialize());
  EXPECT_EQ(client.health(), ClientHealth::kHealthy);
}

// Delta transport under chaos: same safety property, and every fallback is
// accounted for without inflating deltas_applied.
TEST(RsfFault, DeltaTransportUnderChaosStaysConsistent) {
  SimSig registry;
  Feed feed("nss", registry);
  rootstore::RootStore primary = store_with(6);

  DirectTransport direct(feed);
  FaultyTransport faulty(direct, FaultProfile::chaos(0.25), /*seed=*/77);
  RsfClient client(faulty, 3600, MergePolicy::kPrimaryWins, Transport::kDelta);

  std::set<std::string> legitimate;
  legitimate.insert(rootstore::RootStore{}.serialize());
  feed.publish(primary, 0, "baseline");
  legitimate.insert(primary.serialize());

  SimClock clock(0);
  for (int step = 1; step <= 200; ++step) {
    if (step % 10 == 0) {
      primary.distrust(
          primary.trusted()[0]->cert->fingerprint(), "incident");
      (void)primary.add_trusted(make_root("Delta Root " +
                                          std::to_string(step)));
      feed.publish(primary, clock.now(), "update");
      legitimate.insert(primary.serialize());
    }
    client.run_until(clock.now());
    ASSERT_TRUE(legitimate.count(client.store().serialize()) == 1)
        << "delta client exposed an unpublished state at step " << step;
    clock.advance(1800);
  }
  faulty.set_profile(FaultProfile{});
  for (int i = 0; i < 24; ++i) {
    clock.advance(3600);
    client.run_until(clock.now());
  }
  EXPECT_EQ(client.last_applied_sequence(), feed.head_sequence());
  EXPECT_EQ(client.store().serialize(), primary.serialize());
}

// --- satellite regression: delta accounting --------------------------------

TEST(RsfFault, AbandonedDeltaReplayDoesNotInflateDeltasApplied) {
  SimSig registry;
  Feed feed("nss", registry);
  rootstore::RootStore primary = store_with(3);
  feed.publish(primary, 0, "r1");

  ScriptedTransport transport(feed);
  RsfClient client(transport, 3600, MergePolicy::kPrimaryWins,
                   Transport::kDelta);
  EXPECT_EQ(client.poll_now(100), 1u);
  EXPECT_EQ(client.stats().deltas_applied, 1u);  // bootstrap delta
  const std::uint64_t bytes_after_bootstrap = client.stats().bytes_fetched;

  // Two more releases; the delta for the *second* one is corrupted, so the
  // replay applies delta 2 and then aborts on delta 3 — the whole replica
  // is discarded and the run falls back to the full snapshot.
  (void)primary.add_trusted(make_root("Delta Reg Root A"));
  feed.publish(primary, 200, "r2");
  (void)primary.add_trusted(make_root("Delta Reg Root B"));
  feed.publish(primary, 300, "r3");
  transport.corrupt_delta_at = 3;
  FeedFetchQuery query;
  query.from_size = 1;
  query.want_deltas = true;
  const std::uint64_t overhead = auth_overhead(feed.feed_fetch(query).value());

  EXPECT_EQ(client.poll_now(400), 2u);
  EXPECT_EQ(client.stats().delta_fallbacks, 1u);
  // Only deltas that ended up in the adopted replica count — the replayed
  // delta 2 was discarded with the rest of the abandoned replica.
  EXPECT_EQ(client.stats().deltas_applied, 1u);
  // The discarded delta bytes are accounted: fetched (they crossed the
  // wire) and discarded (they bought nothing); the fallback snapshot bytes
  // and the poll's tree head, proofs and snapshot headers are fetched only.
  EXPECT_GT(client.stats().bytes_discarded, 0u);
  EXPECT_EQ(client.stats().bytes_fetched,
            bytes_after_bootstrap + overhead + client.stats().bytes_discarded +
                feed.at(3)->payload.size());
  // And the client still adopted the verified head via the snapshot.
  EXPECT_EQ(client.last_applied_sequence(), 3u);
  EXPECT_EQ(client.store().trusted_count(), 5u);

  // Once the transport heals, the next delta replay works and counts.
  transport.corrupt_delta_at = 0;
  (void)primary.add_trusted(make_root("Delta Reg Root C"));
  feed.publish(primary, 500, "r4");
  EXPECT_EQ(client.poll_now(600), 1u);
  EXPECT_EQ(client.stats().deltas_applied, 2u);
  EXPECT_EQ(client.stats().delta_fallbacks, 1u);
}

}  // namespace
}  // namespace anchor::rsf
