#include "rootstore/store.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "util/rng.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"

namespace anchor::rootstore {
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

const std::string kValidGcc =
    "valid(Chain, \"TLS\") :- leaf(Chain, L), notBefore(L, NB), NB < 100.";

TEST(RootStore, TrustStates) {
  RootStore store;
  CertPtr a = make_root("A");
  CertPtr b = make_root("B");
  ASSERT_TRUE(store.add_trusted(a).ok());
  store.distrust(b->fingerprint(), "incident");

  EXPECT_EQ(store.state_of(a->fingerprint()), TrustState::kTrusted);
  EXPECT_EQ(store.state_of(b->fingerprint()), TrustState::kDistrusted);
  EXPECT_EQ(store.state_of(*digest_from_hex(std::string(64, '0'))),
            TrustState::kUnknown);
  EXPECT_EQ(store.trusted_count(), 1u);
  EXPECT_EQ(store.distrusted_count(), 1u);
}

TEST(RootStore, DistrustMovesOutOfTrustedSet) {
  RootStore store;
  CertPtr a = make_root("A");
  ASSERT_TRUE(store.add_trusted(a).ok());
  store.distrust(a->fingerprint(), "compromised");
  EXPECT_EQ(store.state_of(a->fingerprint()), TrustState::kDistrusted);
  EXPECT_EQ(store.trusted_count(), 0u);
  EXPECT_EQ(store.find(a->fingerprint()), nullptr);
}

TEST(RootStore, NegativeInclusionBlocksReTrust) {
  RootStore store;
  CertPtr a = make_root("A");
  store.distrust(a->fingerprint(), "removed by primary");
  Status s = store.add_trusted(a);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.error().find("distrusted"), std::string::npos);
  EXPECT_EQ(store.state_of(a->fingerprint()), TrustState::kDistrusted);
}

TEST(RootStore, UncheckedAddModelsNonCompliantDerivative) {
  RootStore store;
  CertPtr a = make_root("A");
  store.distrust(a->fingerprint(), "removed");
  store.add_trusted_unchecked(a);
  // Both sets now mention the root — the dangerous state merge flags.
  EXPECT_EQ(store.trusted_count(), 1u);
  EXPECT_EQ(store.distrusted_count(), 1u);
}

TEST(RootStore, ForgetReturnsToUnknown) {
  RootStore store;
  CertPtr a = make_root("A");
  ASSERT_TRUE(store.add_trusted(a).ok());
  EXPECT_TRUE(store.forget(a->fingerprint()));
  EXPECT_EQ(store.state_of(a->fingerprint()), TrustState::kUnknown);
  EXPECT_FALSE(store.forget(a->fingerprint()));
  // After forgetting, re-trust is allowed again.
  EXPECT_TRUE(store.add_trusted(a).ok());
}

TEST(RootStore, MetadataStoredAndUpdated) {
  RootStore store;
  CertPtr a = make_root("A");
  RootMetadata metadata;
  metadata.ev_allowed = true;
  metadata.tls_distrust_after = 12345;
  ASSERT_TRUE(store.add_trusted(a, metadata).ok());
  const RootEntry* entry = store.find(a->fingerprint());
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->metadata.ev_allowed);
  EXPECT_EQ(entry->metadata.tls_distrust_after, 12345);

  metadata.ev_allowed = false;
  ASSERT_TRUE(store.add_trusted(a, metadata).ok());  // update in place
  EXPECT_FALSE(store.find(a->fingerprint())->metadata.ev_allowed);
  EXPECT_EQ(store.trusted_count(), 1u);
}

TEST(RootStore, TrustedPreservesInsertionOrder) {
  RootStore store;
  CertPtr a = make_root("A");
  CertPtr b = make_root("B");
  CertPtr c = make_root("C");
  ASSERT_TRUE(store.add_trusted(a).ok());
  ASSERT_TRUE(store.add_trusted(b).ok());
  ASSERT_TRUE(store.add_trusted(c).ok());
  auto trusted = store.trusted();
  ASSERT_EQ(trusted.size(), 3u);
  EXPECT_EQ(trusted[0]->cert->subject().common_name(), "A");
  EXPECT_EQ(trusted[2]->cert->subject().common_name(), "C");
}

TEST(RootStore, SerializeDeserializeRoundTrip) {
  RootStore store;
  CertPtr a = make_root("A");
  CertPtr b = make_root("B");
  RootMetadata metadata;
  metadata.ev_allowed = true;
  metadata.tls_distrust_after = 1669784400;
  metadata.smime_distrust_after = 1669784401;
  metadata.justification = "TrustCor-style constraints\nwith a newline";
  ASSERT_TRUE(store.add_trusted(a, metadata).ok());
  ASSERT_TRUE(store.add_trusted(b).ok());
  store.distrust(*digest_from_hex(std::string(64, 'e')),
                 "WoSign-style removal");
  store.attach_gcc(
      core::Gcc::create("constraint-1", a->fingerprint_hex(), kValidGcc,
                        "justified")
          .take());

  std::string text = store.serialize();
  auto parsed = RootStore::deserialize(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const RootStore& copy = parsed.value();

  EXPECT_EQ(copy.trusted_count(), 2u);
  EXPECT_EQ(copy.distrusted_count(), 1u);
  const RootEntry* entry = copy.find(a->fingerprint());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->metadata, metadata);
  EXPECT_EQ(copy.gccs().total(), 1u);
  const auto& gccs = copy.gccs().for_root(a->fingerprint());
  ASSERT_EQ(gccs.size(), 1u);
  EXPECT_EQ(gccs[0].name(), "constraint-1");
  EXPECT_EQ(gccs[0].source(), kValidGcc);
  EXPECT_EQ(copy.distrusted().begin()->second, "WoSign-style removal");
}

TEST(RootStore, SerializationIsDeterministic) {
  auto build = [] {
    RootStore store;
    (void)store.add_trusted(make_root("A"));
    (void)store.add_trusted(make_root("B"));
    store.distrust(*digest_from_hex(std::string(64, 'd')), "x");
    return store;
  };
  EXPECT_EQ(build().serialize(), build().serialize());
  EXPECT_EQ(build().content_hash_hex(), build().content_hash_hex());
}

TEST(RootStore, ContentHashChangesWithContent) {
  RootStore store;
  (void)store.add_trusted(make_root("A"));
  std::string before = store.content_hash_hex();
  store.distrust(*digest_from_hex(std::string(64, 'f')), "y");
  EXPECT_NE(store.content_hash_hex(), before);
}

TEST(RootStore, DeserializeRejectsMissingHeader) {
  EXPECT_FALSE(RootStore::deserialize("not a store").ok());
  EXPECT_FALSE(RootStore::deserialize("").ok());
}

TEST(RootStore, DeserializeRejectsHashMismatch) {
  RootStore store;
  CertPtr a = make_root("A");
  ASSERT_TRUE(store.add_trusted(a).ok());
  std::string text = store.serialize();
  // Corrupt the recorded hash.
  std::size_t pos = text.find(a->fingerprint_hex());
  ASSERT_NE(pos, std::string::npos);
  text[pos] = text[pos] == '0' ? '1' : '0';
  EXPECT_FALSE(RootStore::deserialize(text).ok());
}

TEST(RootStore, DeserializeRejectsUnknownSection) {
  EXPECT_FALSE(
      RootStore::deserialize("anchor-root-store/v1\nbogus keyword\n").ok());
}

TEST(RootStore, DeserializeRejectsBadGccSource) {
  RootStore store;
  CertPtr a = make_root("A");
  ASSERT_TRUE(store.add_trusted(a).ok());
  store.attach_gcc(
      core::Gcc::create("g", a->fingerprint_hex(), kValidGcc).take());
  std::string text = store.serialize();
  // Swap the base64 source for garbage that decodes but does not parse.
  std::size_t pos = text.find("source-b64 ");
  ASSERT_NE(pos, std::string::npos);
  std::string corrupted = text.substr(0, pos) + "source-b64 bm90IGRhdGFsb2c=\n";
  EXPECT_FALSE(RootStore::deserialize(corrupted).ok());
}

TEST(RootStore, EmptyStoreRoundTrips) {
  RootStore store;
  auto parsed = RootStore::deserialize(store.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().trusted_count(), 0u);
  EXPECT_EQ(parsed.value().distrusted_count(), 0u);
}

// The epoch counter backs chain::VerifyService's verdict-cache coherence:
// every mutation that can change a verification outcome must advance it,
// and no-op calls must not have to (staleness is judged by inequality, so
// spurious bumps are safe but missed bumps are not).
TEST(RootStore, EpochAdvancesOnEveryMutation) {
  RootStore store;
  EXPECT_EQ(store.epoch(), 0u);
  CertPtr a = make_root("A");
  const Sha256::Digest hash = a->fingerprint();

  ASSERT_TRUE(store.add_trusted(a).ok());
  std::uint64_t last = store.epoch();
  EXPECT_GT(last, 0u);

  store.distrust(hash, "incident");
  EXPECT_GT(store.epoch(), last);
  last = store.epoch();

  EXPECT_TRUE(store.forget(hash));
  EXPECT_GT(store.epoch(), last);
  last = store.epoch();

  // No-op: the epoch may hold still.
  EXPECT_FALSE(store.forget(*digest_from_hex(std::string(64, 'f'))));
  EXPECT_GE(store.epoch(), last);
  last = store.epoch();

  store.add_trusted_unchecked(a);
  EXPECT_GT(store.epoch(), last);
  last = store.epoch();

  store.attach_gcc(core::Gcc::create("g", hash, kValidGcc).take());
  EXPECT_GT(store.epoch(), last);
  last = store.epoch();

  EXPECT_TRUE(store.detach_gcc(hash, "g"));
  EXPECT_GT(store.epoch(), last);
  last = store.epoch();

  EXPECT_FALSE(store.detach_gcc(hash, "g"));  // no-op
  EXPECT_GE(store.epoch(), last);
}

TEST(RootStore, ByteIdenticalMutationsKeepEpoch) {
  // The verdict cache (chain::VerifyService) keys on epoch(): a mutation
  // that changes nothing observable must not bump it, or redundant delta
  // replay flushes every cached verdict for free.
  RootStore store;
  CertPtr a = make_root("A");
  RootMetadata metadata;
  metadata.ev_allowed = true;
  ASSERT_TRUE(store.add_trusted(a, metadata).ok());
  store.distrust(*digest_from_hex(std::string(64, 'd')), "incident");
  const std::uint64_t settled = store.epoch();

  // Same cert, same metadata: no-ops on both entry points.
  ASSERT_TRUE(store.add_trusted(a, metadata).ok());
  EXPECT_EQ(store.epoch(), settled);
  store.add_trusted_unchecked(a, metadata);
  EXPECT_EQ(store.epoch(), settled);
  // Same hash, same justification: no-op distrust.
  store.distrust(*digest_from_hex(std::string(64, 'd')), "incident");
  EXPECT_EQ(store.epoch(), settled);

  // Observable changes still advance it.
  RootMetadata stricter = metadata;
  stricter.tls_distrust_after = 1000;
  store.add_trusted_unchecked(a, stricter);
  EXPECT_GT(store.epoch(), settled);
  const std::uint64_t after_metadata = store.epoch();
  store.distrust(*digest_from_hex(std::string(64, 'd')), "new justification");
  EXPECT_GT(store.epoch(), after_metadata);
}

TEST(RootStore, DistrustOfTrustedRootAlwaysAdvancesEpoch) {
  // Even when the distrust set already carries the hash with the same
  // justification, removing the root from the *trusted* set is an
  // observable change and must invalidate caches.
  RootStore store;
  CertPtr a = make_root("A");
  const Sha256::Digest hash = a->fingerprint();
  store.distrust(hash, "incident");
  store.add_trusted_unchecked(a);
  const std::uint64_t trusted_epoch = store.epoch();
  // The distrust entry already exists with this exact justification, but the
  // root is also trusted — the no-op shortcut must not fire while a trusted
  // entry is being removed.
  store.distrust(hash, "incident");
  EXPECT_EQ(store.state_of(hash), TrustState::kDistrusted);
  EXPECT_GT(store.epoch(), trusted_epoch);
}

TEST(RootStore, ByteIdenticalGccReattachLeavesEpochUnchanged) {
  // Regression: GCC attach used to bump a separate GccStore version
  // counter unconditionally, so re-attaching the exact constraint already
  // present (routine in RSF delta replay) flushed every cached verdict.
  RootStore store;
  CertPtr a = make_root("A");
  ASSERT_TRUE(store.add_trusted(a).ok());
  const Sha256::Digest hash = a->fingerprint();
  core::Gcc gcc = core::Gcc::create("g", hash, kValidGcc, "why").take();
  store.attach_gcc(gcc);
  const std::uint64_t settled = store.epoch();

  store.attach_gcc(gcc);  // byte-identical re-attach: a no-op
  EXPECT_EQ(store.epoch(), settled);
  EXPECT_EQ(store.gcc_count(), 1u);

  // Same name, different source: an observable replacement.
  store.attach_gcc(
      core::Gcc::create("g", hash, kValidGcc, "revised").take());
  EXPECT_GT(store.epoch(), settled);
  const std::uint64_t replaced = store.epoch();
  // Detaching something that is not attached is a no-op too.
  EXPECT_FALSE(store.detach_gcc(hash, "absent"));
  EXPECT_EQ(store.epoch(), replaced);
  EXPECT_TRUE(store.detach_gcc(hash, "g"));
  EXPECT_GT(store.epoch(), replaced);
}

TEST(RootStore, EpochNeverRepeatsAcrossMixedMutations) {
  // Regression for the epoch-aliasing bug: the epoch was once the *sum* of
  // a store counter and a GCC-layer counter, so interleaved root and GCC
  // mutations could revisit an earlier value and a verdict cached under
  // the first occurrence would be served after the second — against
  // different trust content. One strictly monotonic counter may never
  // repeat under any interleaving.
  RootStore store;
  CertPtr a = make_root("A");
  CertPtr b = make_root("B");
  ASSERT_TRUE(store.add_trusted(a).ok());
  const Sha256::Digest hash = a->fingerprint();
  std::uint64_t last = store.epoch();
  auto expect_advanced = [&](const char* what) {
    EXPECT_GT(store.epoch(), last) << "epoch repeated after " << what;
    last = store.epoch();
  };
  for (int round = 0; round < 5; ++round) {
    store.attach_gcc(
        core::Gcc::create("g" + std::to_string(round), hash, kValidGcc)
            .take());
    expect_advanced("attach");
    ASSERT_TRUE(store.add_trusted(b).ok());
    expect_advanced("add_trusted");
    EXPECT_TRUE(store.detach_gcc(hash, "g" + std::to_string(round)));
    expect_advanced("detach");
    store.forget(b->fingerprint());
    expect_advanced("forget");
  }
}

// The subject index must agree with a scan of trusted() — same entries, same
// (insertion) order — through every kind of mutation, and a copy taken
// mid-way must keep answering for its own content after the original moves
// on (copies share the immutable entries the index points at).
TEST(RootStore, SubjectIndexMatchesTrustedScanThroughMutations) {
  std::vector<CertPtr> roots;
  for (int i = 0; i < 9; ++i) {
    // Three subjects, three keys each: the re-keyed and cross-signed root
    // case, several anchors behind one issuer DN.
    SimKeyPair key = SimSig::keygen("Index Root key " + std::to_string(i));
    const DistinguishedName name =
        DistinguishedName::make("Index Root " + std::to_string(i % 3), "Org");
    roots.push_back(CertificateBuilder()
                        .serial(i + 1)
                        .subject(name)
                        .issuer(name)
                        .validity(0, unix_date(2040, 1, 1))
                        .public_key(key.key_id)
                        .ca(std::nullopt)
                        .sign(key)
                        .take());
  }
  const auto expect_index_matches_scan = [&](const RootStore& store,
                                             const std::string& context) {
    std::size_t indexed = 0;
    for (const CertPtr& probe : roots) {
      std::vector<const RootEntry*> scanned;
      for (const RootEntry* entry : store.trusted()) {
        if (entry->cert->subject() == probe->subject()) {
          scanned.push_back(entry);
        }
      }
      const auto served = store.trusted_by_subject(probe->subject());
      ASSERT_EQ(served.size(), scanned.size()) << context;
      for (std::size_t i = 0; i < scanned.size(); ++i) {
        EXPECT_EQ(served[i], scanned[i]) << context;
      }
      indexed += served.size();
    }
    EXPECT_EQ(indexed, 3 * store.trusted_count()) << context;
  };

  RootStore store;
  Rng rng(0x1dea5eedULL);
  std::optional<RootStore> copy;
  std::string copy_serialized;
  for (int step = 0; step < 300; ++step) {
    const CertPtr& root = roots[rng.uniform(roots.size())];
    const std::string context = "step " + std::to_string(step);
    switch (rng.uniform(4)) {
      case 0:
        (void)store.add_trusted(root);
        break;
      case 1: {  // metadata update: the entry is replaced in place
        RootMetadata metadata;
        metadata.ev_allowed = rng.chance(0.5);
        metadata.tls_distrust_after = static_cast<std::int64_t>(step);
        store.add_trusted_unchecked(root, metadata);
        break;
      }
      case 2:
        store.distrust(root->fingerprint(), "step");
        break;
      default:
        store.forget(root->fingerprint());
        break;
    }
    expect_index_matches_scan(store, context);
    if (step == 150) {
      copy = store;
      copy_serialized = store.serialize();
    }
  }
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->serialize(), copy_serialized);
  expect_index_matches_scan(*copy, "copy");
  EXPECT_TRUE(store.trusted_by_subject(
                       DistinguishedName::make("Nobody", "Org"))
                  .empty());
}

TEST(RootStore, AdvanceEpochPastForcesProgress) {
  RootStore store;
  const std::uint64_t start = store.epoch();
  store.advance_epoch_past(start + 41);
  EXPECT_GT(store.epoch(), start + 41);
  // Already past: no change required, and never a move backwards.
  const std::uint64_t current = store.epoch();
  store.advance_epoch_past(5);
  EXPECT_GE(store.epoch(), current);
}

}  // namespace
}  // namespace anchor::rootstore
