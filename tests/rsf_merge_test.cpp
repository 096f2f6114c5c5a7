#include "rsf/merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "chain/pool.hpp"
#include "chain/verifier.hpp"
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

TEST(Merge, CleanUnionOfDisjointStores) {
  rootstore::RootStore primary;
  (void)primary.add_trusted(make_root("P1"));
  (void)primary.add_trusted(make_root("P2"));
  rootstore::RootStore derivative;
  (void)derivative.add_trusted(make_root("LocalCorp Root"));

  MergeResult result = merge(primary, derivative);
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.merged.trusted_count(), 3u);
}

TEST(Merge, FlagsDistrustedReAdd) {
  // The Amazon Linux case: derivative re-adds roots NSS removed.
  CertPtr removed = make_root("Removed Root");
  rootstore::RootStore primary;
  primary.distrust(removed->fingerprint(), "compliance incident");
  rootstore::RootStore derivative;
  (void)derivative.add_trusted(removed);

  MergeResult result = merge(primary, derivative, MergePolicy::kPrimaryWins);
  ASSERT_EQ(result.conflicts.size(), 1u);
  EXPECT_EQ(result.conflicts[0].kind, ConflictKind::kDistrustedReAdded);
  EXPECT_EQ(result.conflicts[0].root_hash, removed->fingerprint_hex());
  // Primary wins: the root stays distrusted.
  EXPECT_EQ(result.merged.state_of(removed->fingerprint()),
            rootstore::TrustState::kDistrusted);
}

TEST(Merge, DerivativeWinsPolicyReAddsRoot) {
  CertPtr removed = make_root("Removed Root");
  rootstore::RootStore primary;
  primary.distrust(removed->fingerprint(), "incident");
  rootstore::RootStore derivative;
  (void)derivative.add_trusted(removed);

  MergeResult result = merge(primary, derivative, MergePolicy::kDerivativeWins);
  ASSERT_EQ(result.conflicts.size(), 1u);  // still flagged
  EXPECT_EQ(result.merged.state_of(removed->fingerprint()),
            rootstore::TrustState::kTrusted);
}

TEST(Merge, SixteenReAddedRootsProduceSixteenConflicts) {
  // Ma et al.: "Amazon Linux re-added 16 root certificates after they had
  // been explicitly removed by NSS."
  rootstore::RootStore primary;
  rootstore::RootStore derivative;
  for (int i = 0; i < 16; ++i) {
    CertPtr root = make_root("ReAdded " + std::to_string(i));
    primary.distrust(root->fingerprint(), "removed by NSS");
    (void)derivative.add_trusted(root);
  }
  MergeResult result = merge(primary, derivative);
  EXPECT_EQ(result.conflicts.size(), 16u);
  for (const auto& conflict : result.conflicts) {
    EXPECT_EQ(conflict.kind, ConflictKind::kDistrustedReAdded);
  }
}

TEST(Merge, MetadataMismatchFlagged) {
  CertPtr shared = make_root("Shared Root");
  rootstore::RootStore primary;
  rootstore::RootMetadata strict;
  strict.tls_distrust_after = 1000;
  (void)primary.add_trusted(shared, strict);
  rootstore::RootStore derivative;
  (void)derivative.add_trusted(shared, rootstore::RootMetadata{});

  MergeResult result = merge(primary, derivative, MergePolicy::kPrimaryWins);
  ASSERT_EQ(result.conflicts.size(), 1u);
  EXPECT_EQ(result.conflicts[0].kind, ConflictKind::kMetadataMismatch);
  // Primary metadata survives.
  EXPECT_EQ(result.merged.find(shared->fingerprint())
                ->metadata.tls_distrust_after,
            1000);
}

TEST(Merge, IdenticalMetadataIsNotAConflict) {
  CertPtr shared = make_root("Shared Root");
  rootstore::RootMetadata metadata;
  metadata.ev_allowed = true;
  rootstore::RootStore primary;
  (void)primary.add_trusted(shared, metadata);
  rootstore::RootStore derivative;
  (void)derivative.add_trusted(shared, metadata);
  EXPECT_TRUE(merge(primary, derivative).clean());
}

TEST(Merge, DerivativeLocalDistrustNarrowsTrust) {
  CertPtr root = make_root("Primary Root");
  rootstore::RootStore primary;
  (void)primary.add_trusted(root);
  rootstore::RootStore derivative;
  derivative.distrust(root->fingerprint(), "local policy");

  MergeResult result = merge(primary, derivative);
  EXPECT_EQ(result.merged.state_of(root->fingerprint()),
            rootstore::TrustState::kDistrusted);
  EXPECT_EQ(result.conflicts.size(), 1u);  // surfaced as divergence
}

TEST(Merge, GccsAreUnioned) {
  CertPtr a = make_root("A");
  CertPtr b = make_root("B");
  rootstore::RootStore primary;
  (void)primary.add_trusted(a);
  (void)primary.add_trusted(b);
  primary.attach_gcc(
      core::Gcc::create("primary-gcc", a->fingerprint_hex(), kGcc).take());
  rootstore::RootStore derivative;
  (void)derivative.add_trusted(a);
  derivative.attach_gcc(
      core::Gcc::create("local-gcc", b->fingerprint_hex(), kGcc).take());

  MergeResult result = merge(primary, derivative);
  EXPECT_EQ(result.merged.gccs().total(), 2u);
  EXPECT_EQ(result.merged.gccs().for_root(a->fingerprint()).size(), 1u);
  EXPECT_EQ(result.merged.gccs().for_root(b->fingerprint()).size(), 1u);
}

TEST(Merge, PrimaryGccWinsNameCollision) {
  CertPtr a = make_root("A");
  rootstore::RootStore primary;
  (void)primary.add_trusted(a);
  primary.attach_gcc(
      core::Gcc::create("shared-name", a->fingerprint_hex(), kGcc, "primary")
          .take());
  rootstore::RootStore derivative;
  derivative.attach_gcc(
      core::Gcc::create("shared-name", a->fingerprint_hex(), kGcc, "local")
          .take());

  MergeResult result = merge(primary, derivative);
  const auto& gccs = result.merged.gccs().for_root(a->fingerprint());
  ASSERT_EQ(gccs.size(), 1u);
  EXPECT_EQ(gccs[0].justification(), "primary");
}

TEST(Merge, BothDistrustSameRootKeepsPrimaryJustification) {
  // When primary and derivative agree a root is distrusted, the primary's
  // justification is the authoritative provenance (Bugzilla link, incident
  // id) and must survive the merge; it used to be silently overwritten by
  // the derivative's copy.
  CertPtr root = make_root("Twice Removed");
  const Sha256::Digest hash = root->fingerprint();
  rootstore::RootStore primary;
  primary.distrust(hash, "CVE-2023-0001 (NSS bug 1234567)");
  rootstore::RootStore derivative;
  derivative.distrust(hash, "synced from upstream");

  MergeResult result = merge(primary, derivative);
  EXPECT_TRUE(result.clean());  // agreement, not a conflict
  EXPECT_EQ(result.merged.distrusted().at(hash),
            "CVE-2023-0001 (NSS bug 1234567)");
}

TEST(Merge, DerivativeJustificationFillsUnexplainedPrimaryDistrust) {
  // The one both-distrust case where the derivative adds information: the
  // primary never said why.
  CertPtr root = make_root("Unexplained");
  const Sha256::Digest hash = root->fingerprint();
  rootstore::RootStore primary;
  primary.distrust(hash);
  rootstore::RootStore derivative;
  derivative.distrust(hash, "local audit finding");

  MergeResult result = merge(primary, derivative);
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.merged.distrusted().at(hash), "local audit finding");
}

TEST(Merge, LocalDistrustGetsDedicatedConflictKind) {
  // Derivative distrusting a primary-trusted root used to be reported as
  // kMetadataMismatch, making `anchorctl` merge reports indistinguishable
  // from a benign EV-bit skew. It has its own kind now.
  CertPtr root = make_root("Locally Removed");
  rootstore::RootStore primary;
  (void)primary.add_trusted(root);
  rootstore::RootStore derivative;
  derivative.distrust(root->fingerprint(), "local policy");

  MergeResult result = merge(primary, derivative);
  ASSERT_EQ(result.conflicts.size(), 1u);
  EXPECT_EQ(result.conflicts[0].kind, ConflictKind::kLocalDistrust);
  EXPECT_STREQ(to_string(result.conflicts[0].kind), "local-distrust");
  EXPECT_EQ(result.merged.state_of(root->fingerprint()),
            rootstore::TrustState::kDistrusted);
}

TEST(Merge, ConflictKindNamesAreDistinct) {
  EXPECT_STREQ(to_string(ConflictKind::kDistrustedReAdded),
               "distrusted-re-added");
  EXPECT_STREQ(to_string(ConflictKind::kMetadataMismatch),
               "metadata-mismatch");
  EXPECT_STREQ(to_string(ConflictKind::kLocalDistrust), "local-distrust");
}

TEST(Merge, GccUnionDedupesManyOverlappingNames) {
  // Exercises the per-root name-set dedup path (the old nested scan was
  // quadratic; see bench_rsf_merge's many-GCCs case for the perf side).
  CertPtr a = make_root("A");
  const Sha256::Digest hash = a->fingerprint();
  rootstore::RootStore primary;
  (void)primary.add_trusted(a);
  rootstore::RootStore derivative;
  constexpr int kCount = 64;
  for (int g = 0; g < kCount; ++g) {
    primary.attach_gcc(
        core::Gcc::create("constraint-" + std::to_string(g), hash, kGcc,
                          "primary")
            .take());
    // Even names collide (must dedup, primary copy wins), odd are local.
    const std::string name = g % 2 == 0 ? "constraint-" + std::to_string(g)
                                        : "local-" + std::to_string(g);
    derivative.attach_gcc(core::Gcc::create(name, hash, kGcc, "local").take());
  }

  MergeResult result = merge(primary, derivative);
  const auto& merged = result.merged.gccs().for_root(hash);
  EXPECT_EQ(merged.size(), static_cast<std::size_t>(kCount + kCount / 2));
  for (const core::Gcc& gcc : merged) {
    if (gcc.name().rfind("constraint-", 0) == 0) {
      EXPECT_EQ(gcc.justification(), "primary") << gcc.name();
    } else {
      EXPECT_EQ(gcc.justification(), "local") << gcc.name();
    }
  }
}

TEST(Merge, OutputInvariantUnderInsertionOrder) {
  // Property test for the canonical-serialization contract: two stores with
  // equal content merge to byte-identical serializations no matter the
  // order their entries were inserted in. Delta replay, feed content hashes
  // and merge reports all rely on this.
  constexpr int kRoots = 12;
  std::vector<CertPtr> roots;
  for (int i = 0; i < kRoots; ++i) {
    roots.push_back(make_root("Order Root " + std::to_string(i)));
  }

  // Deterministic permutation schedule (no RNG: rotations + a reversal give
  // distinct orders without extra machinery).
  auto build_pair = [&](int rotation, bool reversed) {
    std::vector<int> order;
    for (int i = 0; i < kRoots; ++i) order.push_back((i + rotation) % kRoots);
    if (reversed) std::reverse(order.begin(), order.end());

    rootstore::RootStore primary;
    rootstore::RootStore derivative;
    for (int index : order) {
      const CertPtr& root = roots[index];
      const Sha256::Digest hash = root->fingerprint();
      if (index % 3 == 0) {
        primary.distrust(hash, "incident " + std::to_string(index));
      } else {
        rootstore::RootMetadata metadata;
        metadata.ev_allowed = index % 2 == 0;
        (void)primary.add_trusted(root, metadata);
        primary.attach_gcc(
            core::Gcc::create("c-" + std::to_string(index), hash, kGcc).take());
      }
      if (index % 4 == 0) {
        derivative.add_trusted_unchecked(root);  // re-add / overlap mix
      } else if (index % 4 == 1) {
        derivative.distrust(hash, "local " + std::to_string(index));
      } else {
        derivative.attach_gcc(
            core::Gcc::create("d-" + std::to_string(index), hash, kGcc).take());
      }
    }
    return merge(primary, derivative);
  };

  const MergeResult reference = build_pair(0, false);
  const std::string canonical = reference.merged.serialize();
  ASSERT_FALSE(canonical.empty());
  for (int rotation : {1, 3, 7}) {
    for (bool reversed : {false, true}) {
      MergeResult permuted = build_pair(rotation, reversed);
      EXPECT_EQ(permuted.merged.serialize(), canonical)
          << "rotation=" << rotation << " reversed=" << reversed;
      EXPECT_EQ(permuted.conflicts.size(), reference.conflicts.size());
    }
  }
}

TEST(Merge, ThreeStoreFoldOrderIsVerdictInvariant) {
  // Property test over randomized three-primary topologies (the E15 census
  // shape): folding two derivatives into a primary with kPrimaryWins must
  // yield the same *verdict* for every chain regardless of fold order —
  //
  //     merge(merge(A, B), C)  ≡v  merge(merge(A, C), B)
  //
  // Conflict lists and justifications may differ between orders (they
  // record the path taken); trust decisions may not. Derivative metadata
  // and GCCs are deterministic per root, mirroring real derivatives that
  // sync from the same upstream — with *conflicting* derivative metadata
  // the fold is genuinely order-dependent, which is exactly why
  // kPrimaryWins pins the primary's copy whenever the primary carries the
  // root at all.
  constexpr int kRoots = 24;
  const std::string reject_late =
      "valid(Chain, \"TLS\") :- leaf(Chain, L), notBefore(L, NB), NB < 100.";

  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(0x3f01d + seed);

    // Shared PKI: every root signs one leaf; half the leaves are "late"
    // (notBefore 200) so attached GCCs change verdicts, not just shape.
    SimSig registry;
    std::vector<CertPtr> roots;
    std::vector<CertPtr> leaves;
    for (int i = 0; i < kRoots; ++i) {
      const std::string name = "Fold Root " + std::to_string(i);
      SimKeyPair key = SimSig::keygen(name);
      registry.register_key(key);
      roots.push_back(make_root(name));
      const std::int64_t not_before = rng.chance(0.5) ? 0 : 200;
      leaves.push_back(
          CertificateBuilder()
              .serial(100 + static_cast<std::uint64_t>(i))
              .subject(DistinguishedName::make("leaf" + std::to_string(i),
                                               "Org"))
              .issuer(DistinguishedName::make(name, "Org"))
              .validity(not_before, unix_date(2040, 1, 1))
              .public_key(SimSig::keygen("leaf" + std::to_string(i)).key_id)
              .dns_names({"host" + std::to_string(i) + ".test"})
              .sign(key)
              .take());
    }

    // Derivative metadata/GCC as deterministic functions of the root index.
    auto derivative_metadata = [](int i) {
      rootstore::RootMetadata metadata;
      metadata.ev_allowed = i % 2 == 0;
      return metadata;
    };

    rootstore::RootStore a, b, c;
    for (int i = 0; i < kRoots; ++i) {
      const Sha256::Digest& hash =
          roots[static_cast<std::size_t>(i)]->fingerprint();
      // Primary: trusts most roots, distrusts a few, skips a few.
      if (rng.chance(0.15)) {
        a.distrust(hash, "primary incident");
      } else if (!rng.chance(0.15)) {
        rootstore::RootMetadata metadata;
        metadata.ev_allowed = true;
        if (rng.chance(0.25)) metadata.tls_distrust_after = 150;
        (void)a.add_trusted(roots[static_cast<std::size_t>(i)], metadata);
        if (rng.chance(0.3)) {
          a.attach_gcc(
              core::Gcc::create("a-" + std::to_string(i), hash, reject_late)
                  .take());
        }
      }
      // Derivatives: independent carry/distrust decisions, shared metadata.
      for (auto* derivative : {&b, &c}) {
        if (rng.chance(0.2)) {
          derivative->distrust(hash, "derivative policy");
        } else if (rng.chance(0.75)) {
          derivative->add_trusted_unchecked(
              roots[static_cast<std::size_t>(i)], derivative_metadata(i));
          if (rng.chance(0.4)) {
            const char* prefix = derivative == &b ? "b-" : "c-";
            derivative->attach_gcc(
                core::Gcc::create(prefix + std::to_string(i), hash,
                                  reject_late)
                    .take());
          }
        }
      }
    }

    const rootstore::RootStore abc =
        merge(merge(a, b).merged, c).merged;
    const rootstore::RootStore acb =
        merge(merge(a, c).merged, b).merged;

    chain::ChainVerifier verify_abc(abc, registry);
    chain::ChainVerifier verify_acb(acb, registry);
    chain::CertificatePool empty_pool;
    for (int i = 0; i < kRoots; ++i) {
      chain::VerifyOptions options;
      options.time = 250;
      options.hostname = "host" + std::to_string(i) + ".test";
      const bool ok_abc =
          verify_abc
              .verify(leaves[static_cast<std::size_t>(i)], empty_pool, options)
              .ok;
      const bool ok_acb =
          verify_acb
              .verify(leaves[static_cast<std::size_t>(i)], empty_pool, options)
              .ok;
      EXPECT_EQ(ok_abc, ok_acb) << "seed=" << seed << " root=" << i;
    }
  }
}

TEST(Merge, EmptyStoresMergeToEmpty) {
  rootstore::RootStore primary;
  rootstore::RootStore derivative;
  MergeResult result = merge(primary, derivative);
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.merged.trusted_count(), 0u);
}

}  // namespace
}  // namespace anchor::rsf
