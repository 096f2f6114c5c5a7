#include "rsf/delta.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"
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

const std::string kGcc =
    "valid(Chain, \"TLS\") :- leaf(Chain, L), notBefore(L, NB), NB < 100.";

// Stores compare equal iff their canonical serializations match.
bool stores_equal(const rootstore::RootStore& a, const rootstore::RootStore& b) {
  return a.serialize() == b.serialize();
}

TEST(StoreDelta, DiffOfIdenticalStoresIsEmpty) {
  rootstore::RootStore store;
  (void)store.add_trusted(make_root("A"));
  StoreDelta delta = StoreDelta::diff(store, store);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.operations(), 0u);
}

TEST(StoreDelta, DiffDetectsAllChangeKinds) {
  CertPtr a = make_root("A");
  CertPtr b = make_root("B");
  CertPtr c = make_root("C");
  rootstore::RootStore from;
  (void)from.add_trusted(a);
  (void)from.add_trusted(b);
  from.attach_gcc(core::Gcc::create("old", a->fingerprint_hex(), kGcc).take());

  rootstore::RootStore to;
  rootstore::RootMetadata strict;
  strict.tls_distrust_after = 500;
  (void)to.add_trusted(a, strict);          // metadata change
  to.distrust(b->fingerprint(), "bad"); // trusted -> distrusted
  (void)to.add_trusted(c);                  // new root
  to.attach_gcc(core::Gcc::create("new", c->fingerprint_hex(), kGcc).take());
  // "old" gcc dropped

  StoreDelta delta = StoreDelta::diff(from, to);
  EXPECT_EQ(delta.add_trusted.size(), 2u);  // a (metadata) + c (new)
  EXPECT_EQ(delta.distrust.size(), 1u);
  EXPECT_TRUE(delta.forget.empty());
  EXPECT_EQ(delta.attach_gccs.size(), 1u);
  EXPECT_EQ(delta.detach_gccs.size(), 1u);
}

TEST(StoreDelta, ApplyReplaysDiff) {
  CertPtr a = make_root("A");
  CertPtr b = make_root("B");
  CertPtr c = make_root("C");
  rootstore::RootStore from;
  (void)from.add_trusted(a);
  (void)from.add_trusted(b);
  from.distrust(*digest_from_hex(std::string(64, 'd')), "old removal");
  from.attach_gcc(core::Gcc::create("g1", a->fingerprint_hex(), kGcc).take());

  rootstore::RootStore to;
  (void)to.add_trusted(a);
  to.distrust(b->fingerprint(), "incident");
  (void)to.add_trusted(c);
  // the old distrust entry is forgotten (expired housekeeping)
  to.attach_gcc(core::Gcc::create("g2", c->fingerprint_hex(), kGcc).take());

  StoreDelta delta = StoreDelta::diff(from, to);
  rootstore::RootStore replayed = from;
  delta.apply(replayed);
  EXPECT_TRUE(stores_equal(replayed, to))
      << "replayed:\n" << replayed.serialize() << "\nto:\n" << to.serialize();
}

TEST(StoreDelta, ApplyHandlesReTrustAfterDistrust) {
  CertPtr a = make_root("A");
  rootstore::RootStore from;
  from.distrust(a->fingerprint(), "temporary");
  rootstore::RootStore to;
  (void)to.add_trusted(a);  // the primary changed its mind
  StoreDelta delta = StoreDelta::diff(from, to);
  rootstore::RootStore replayed = from;
  delta.apply(replayed);
  EXPECT_TRUE(stores_equal(replayed, to));
  EXPECT_EQ(replayed.state_of(a->fingerprint()),
            rootstore::TrustState::kTrusted);
}

TEST(StoreDelta, SerializeRoundTrip) {
  CertPtr a = make_root("A");
  CertPtr b = make_root("B");
  StoreDelta delta;
  rootstore::RootMetadata metadata;
  metadata.ev_allowed = true;
  metadata.smime_distrust_after = 777;
  metadata.justification = "multi\nline";
  delta.add_trusted.push_back(StoreDelta::TrustChange{a, metadata});
  delta.distrust.emplace_back(b->fingerprint(), "why");
  delta.forget.push_back(*digest_from_hex(std::string(64, 'e')));
  delta.attach_gccs.push_back(
      core::Gcc::create("g", a->fingerprint_hex(), kGcc, "j").take());
  delta.detach_gccs.emplace_back(b->fingerprint(), "old name");

  auto parsed = StoreDelta::deserialize(delta.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().serialize(), delta.serialize());
  EXPECT_EQ(parsed.value().add_trusted[0].metadata, metadata);
  EXPECT_EQ(parsed.value().attach_gccs[0].name(), "g");
  EXPECT_EQ(parsed.value().detach_gccs[0].second, "old name");
}

TEST(StoreDelta, DeserializeRejectsMalformed) {
  EXPECT_FALSE(StoreDelta::deserialize("nope").ok());
  EXPECT_FALSE(
      StoreDelta::deserialize("anchor-store-delta/v1\nbogus x\n").ok());
  EXPECT_FALSE(
      StoreDelta::deserialize("anchor-store-delta/v1\ndistrust short\n").ok());
  // Hash lines go through the strict digest parser: 64 characters is not
  // enough, they must be lowercase hex.
  const std::string upper(64, 'A');
  const std::string non_hex(64, 'g');
  EXPECT_FALSE(StoreDelta::deserialize("anchor-store-delta/v1\ndistrust " +
                                       upper + "\n")
                   .ok());
  EXPECT_FALSE(
      StoreDelta::deserialize("anchor-store-delta/v1\nforget " + non_hex + "\n")
          .ok());
  EXPECT_FALSE(StoreDelta::deserialize("anchor-store-delta/v1\ndetach-gcc " +
                                       non_hex + " Zw==\n")
                   .ok());
  EXPECT_TRUE(StoreDelta::deserialize("anchor-store-delta/v1\nforget " +
                                      std::string(64, 'a') + "\n")
                  .ok());
  EXPECT_TRUE(StoreDelta::deserialize("anchor-store-delta/v1\n").ok());
}

// Property: for randomized store evolutions, apply(diff(a,b), a) == b.
class DeltaRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaRoundTrip, DiffApplyIsIdentity) {
  Rng rng(GetParam());
  // Build a pool of roots to draw from.
  std::vector<CertPtr> roots;
  for (int i = 0; i < 12; ++i) {
    roots.push_back(make_root("Pool Root " + std::to_string(i)));
  }

  rootstore::RootStore from;
  rootstore::RootStore to;
  for (const auto& root : roots) {
    // Independent random membership in each store.
    auto populate = [&](rootstore::RootStore& store) {
      double coin = rng.uniform01();
      if (coin < 0.4) {
        rootstore::RootMetadata metadata;
        metadata.ev_allowed = rng.chance(0.5);
        if (rng.chance(0.3)) {
          metadata.tls_distrust_after = rng.uniform_range(1, 1000000);
        }
        (void)store.add_trusted(root, metadata);
        if (rng.chance(0.4)) {
          store.attach_gcc(core::Gcc::create(
                                  "g" + std::to_string(rng.uniform(3)),
                                  root->fingerprint_hex(), kGcc)
                                  .take());
        }
      } else if (coin < 0.6) {
        store.distrust(root->fingerprint(),
                       "r" + std::to_string(rng.uniform(9)));
      }  // else: unknown
    };
    populate(from);
    populate(to);
  }

  StoreDelta delta = StoreDelta::diff(from, to);
  rootstore::RootStore replayed = from;
  delta.apply(replayed);
  EXPECT_TRUE(stores_equal(replayed, to))
      << "seed " << GetParam() << ": replay mismatch\nreplayed:\n"
      << replayed.serialize() << "\nexpected:\n" << to.serialize();

  // And the serialized delta replays identically too.
  auto parsed = StoreDelta::deserialize(delta.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  rootstore::RootStore replayed2 = from;
  parsed.value().apply(replayed2);
  EXPECT_TRUE(stores_equal(replayed2, to));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(StoreDelta, RedundantReplayLeavesEpochUnchanged) {
  // VerifyService's verdict cache keys on RootStore::epoch(). Replaying a
  // delta the store has already absorbed (a re-delivered feed message, an
  // at-least-once transport) is all byte-identical no-ops and must not move
  // the epoch — otherwise every redundant delivery flushes a warm cache.
  CertPtr a = make_root("A");
  CertPtr b = make_root("B");
  rootstore::RootStore from;
  (void)from.add_trusted(a);
  rootstore::RootStore to;
  rootstore::RootMetadata metadata;
  metadata.ev_allowed = true;
  (void)to.add_trusted(a, metadata);     // metadata change
  to.distrust(b->fingerprint(), "incident");

  StoreDelta delta = StoreDelta::diff(from, to);
  rootstore::RootStore replayed = from;
  delta.apply(replayed);
  ASSERT_TRUE(stores_equal(replayed, to));
  const std::uint64_t settled = replayed.epoch();

  delta.apply(replayed);  // second delivery of the same delta
  EXPECT_TRUE(stores_equal(replayed, to));
  EXPECT_EQ(replayed.epoch(), settled);
}

TEST(StoreDelta, BandwidthAdvantageOverFullSnapshot) {
  // A 140-root store with a one-root emergency change: the delta should be
  // at least an order of magnitude smaller than the full snapshot.
  rootstore::RootStore store;
  std::vector<CertPtr> roots;
  for (int i = 0; i < 140; ++i) {
    roots.push_back(make_root("BW Root " + std::to_string(i)));
    (void)store.add_trusted(roots.back());
  }
  rootstore::RootStore after = store;
  after.distrust(roots[7]->fingerprint(), "incident");

  StoreDelta delta = StoreDelta::diff(store, after);
  EXPECT_EQ(delta.operations(), 1u);
  std::size_t full_size = after.serialize().size();
  std::size_t delta_size = delta.serialize().size();
  EXPECT_LT(delta_size * 10, full_size);
}

}  // namespace
}  // namespace anchor::rsf
