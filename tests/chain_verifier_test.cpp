#include "chain/verifier.hpp"

#include <gtest/gtest.h>

#include "util/time.hpp"
#include "x509/builder.hpp"
#include "x509/oids.hpp"

namespace anchor::chain {
namespace {

using x509::CertificateBuilder;
using x509::CertPtr;
using x509::DistinguishedName;

// A two-root PKI exercising every verifier code path:
//
//   Root A ── Int A ─┬─ leaves (A side)
//   Root B ── Int B ─┴─ cross-signed: Int B shares Int A's subject+key
//   Root A ── Constrained Int (permitted: example.com)
//   Root A ── PathLen0 Int ── Deep Int (never valid below PathLen0)
struct VerifierPki {
  SimSig sigs;
  std::uint64_t serial = 1;

  SimKeyPair root_a_key = SimSig::keygen("Root A");
  SimKeyPair root_b_key = SimSig::keygen("Root B");
  SimKeyPair int_key = SimSig::keygen("Shared Int");
  SimKeyPair constrained_key = SimSig::keygen("Constrained Int");
  SimKeyPair plen_key = SimSig::keygen("PathLen0 Int");
  SimKeyPair deep_key = SimSig::keygen("Deep Int");

  CertPtr root_a, root_b;
  CertPtr int_a, int_b;       // same subject/key, issued by A and B
  CertPtr constrained_int;
  CertPtr plen0_int, deep_int;

  rootstore::RootStore store;
  CertificatePool pool;

  static constexpr std::int64_t kNow = 1700000000;  // 2023-11-14

  VerifierPki() {
    auto ca = [&](const std::string& cn, const SimKeyPair& key,
                  const SimKeyPair& issuer_key, const DistinguishedName& issuer,
                  std::optional<int> plen,
                  std::optional<x509::NameConstraints> nc = std::nullopt) {
      CertificateBuilder builder;
      builder.serial(serial++)
          .subject(DistinguishedName::make(cn, "Test"))
          .issuer(issuer)
          .validity(kNow - 10 * 86400, kNow + 3650LL * 86400)
          .public_key(key.key_id)
          .ca(plen);
      if (nc) builder.name_constraints(*nc);
      return builder.sign(issuer_key).take();
    };

    root_a = ca("Root A", root_a_key, root_a_key,
                DistinguishedName::make("Root A", "Test"), std::nullopt);
    root_b = ca("Root B", root_b_key, root_b_key,
                DistinguishedName::make("Root B", "Test"), std::nullopt);
    int_a = ca("Shared Int", int_key, root_a_key, root_a->subject(), 0);
    int_b = ca("Shared Int", int_key, root_b_key, root_b->subject(), 0);
    x509::NameConstraints nc;
    nc.permitted_dns = {"example.com"};
    constrained_int = ca("Constrained Int", constrained_key, root_a_key,
                         root_a->subject(), 0, nc);
    plen0_int = ca("PathLen0 Int", plen_key, root_a_key, root_a->subject(), 0);
    deep_int = ca("Deep Int", deep_key, plen_key, plen0_int->subject(), 0);

    for (const auto& key : {root_a_key, root_b_key, int_key, constrained_key,
                            plen_key, deep_key}) {
      sigs.register_key(key);
    }
    rootstore::RootMetadata ev_ok;
    ev_ok.ev_allowed = true;
    (void)store.add_trusted(root_a, ev_ok);
    (void)store.add_trusted(root_b);
    pool.add(int_a);
    pool.add(int_b);
    pool.add(constrained_int);
    pool.add(plen0_int);
    pool.add(deep_int);
  }

  CertPtr leaf(const std::string& domain, const SimKeyPair& issuer_key,
               const DistinguishedName& issuer_dn, bool ev = false,
               std::int64_t not_before = kNow - 86400,
               int lifetime_days = 90, bool smime = false) {
    SimKeyPair key = SimSig::keygen("leaf" + std::to_string(serial));
    CertificateBuilder builder;
    builder.serial(serial++)
        .subject(DistinguishedName::make(domain))
        .issuer(issuer_dn)
        .validity(not_before, not_before + std::int64_t{lifetime_days} * 86400)
        .public_key(key.key_id)
        .dns_names({domain})
        .extended_key_usage({smime ? x509::oids::kp_email_protection()
                                   : x509::oids::kp_server_auth()});
    if (ev) builder.ev();
    return builder.sign(issuer_key).take();
  }

  VerifyOptions tls(const std::string& host) const {
    VerifyOptions options;
    options.time = kNow;
    options.hostname = host;
    return options;
  }
};

TEST(Verifier, AcceptsStraightforwardChain) {
  VerifierPki pki;
  ChainVerifier verifier(pki.store, pki.sigs);
  CertPtr leaf = pki.leaf("site.example.org", pki.int_key, pki.int_a->subject());
  VerifyResult result = verifier.verify(leaf, pki.pool, pki.tls("site.example.org"));
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.chain.size(), 3u);
  EXPECT_EQ(result.chain[0]->fingerprint(), leaf->fingerprint());
  // Root A is tried first (store insertion order): chain ends at A.
  EXPECT_EQ(result.chain[2]->subject().common_name(), "Root A");
}

TEST(Verifier, RejectsExpiredLeaf) {
  VerifierPki pki;
  ChainVerifier verifier(pki.store, pki.sigs);
  CertPtr leaf = pki.leaf("old.example.org", pki.int_key, pki.int_a->subject(),
                          false, VerifierPki::kNow - 400 * 86400, 90);
  VerifyResult result = verifier.verify(leaf, pki.pool, pki.tls("old.example.org"));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.kind, ErrorKind::kExpired);
}

TEST(Verifier, RejectsHostnameMismatch) {
  VerifierPki pki;
  ChainVerifier verifier(pki.store, pki.sigs);
  CertPtr leaf = pki.leaf("site.example.org", pki.int_key, pki.int_a->subject());
  VerifyResult result = verifier.verify(leaf, pki.pool, pki.tls("other.example.org"));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.kind, ErrorKind::kHostnameMismatch);
}

TEST(Verifier, RejectsWrongEkuForUsage) {
  VerifierPki pki;
  ChainVerifier verifier(pki.store, pki.sigs);
  CertPtr smime_leaf = pki.leaf("mail.example.org", pki.int_key,
                                pki.int_a->subject(), false,
                                VerifierPki::kNow - 86400, 90, /*smime=*/true);
  // S/MIME leaf presented for TLS fails; for S/MIME usage it passes.
  VerifyResult tls_result =
      verifier.verify(smime_leaf, pki.pool, pki.tls("mail.example.org"));
  EXPECT_FALSE(tls_result.ok);
  VerifyOptions smime_options;
  smime_options.time = VerifierPki::kNow;
  smime_options.usage = Usage::kSmime;
  VerifyResult smime_result = verifier.verify(smime_leaf, pki.pool, smime_options);
  EXPECT_TRUE(smime_result.ok) << smime_result.error;
}

TEST(Verifier, RejectsForgedSignature) {
  VerifierPki pki;
  ChainVerifier verifier(pki.store, pki.sigs);
  // Leaf claims Int as issuer but is signed by an unrelated key.
  SimKeyPair rogue = SimSig::keygen("rogue");
  pki.sigs.register_key(rogue);
  CertPtr forged = pki.leaf("victim.example.org", rogue, pki.int_a->subject());
  VerifyResult result = verifier.verify(forged, pki.pool, pki.tls("victim.example.org"));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.kind, ErrorKind::kBadSignature);
}

TEST(Verifier, SignatureCheckCanBeDisabled) {
  VerifierPki pki;
  ChainVerifier verifier(pki.store, pki.sigs);
  SimKeyPair rogue = SimSig::keygen("rogue2");
  pki.sigs.register_key(rogue);
  CertPtr forged = pki.leaf("victim.example.org", rogue, pki.int_a->subject());
  VerifyOptions options = pki.tls("victim.example.org");
  options.check_signatures = false;
  EXPECT_TRUE(verifier.verify(forged, pki.pool, options).ok);
}

TEST(Verifier, NoPathToTrustedRoot) {
  VerifierPki pki;
  ChainVerifier verifier(pki.store, pki.sigs);
  SimKeyPair orphan_key = SimSig::keygen("Orphan CA");
  pki.sigs.register_key(orphan_key);
  CertPtr leaf = pki.leaf("island.example.org", orphan_key,
                          DistinguishedName::make("Orphan CA", "Nowhere"));
  VerifyResult result = verifier.verify(leaf, pki.pool, pki.tls("island.example.org"));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.kind, ErrorKind::kNoPath);
}

TEST(Verifier, NameConstraintViolationRejected) {
  VerifierPki pki;
  ChainVerifier verifier(pki.store, pki.sigs);
  CertPtr inside = pki.leaf("shop.example.com", pki.constrained_key,
                            pki.constrained_int->subject());
  EXPECT_TRUE(verifier.verify(inside, pki.pool, pki.tls("shop.example.com")).ok);
  CertPtr outside = pki.leaf("shop.example.org", pki.constrained_key,
                             pki.constrained_int->subject());
  VerifyResult result =
      verifier.verify(outside, pki.pool, pki.tls("shop.example.org"));
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.rejected_paths.empty());
  EXPECT_EQ(result.rejected_paths[0].kind, ErrorKind::kConstraintViolation);
}

TEST(Verifier, PathLenConstraintRejectsDeepChain) {
  VerifierPki pki;
  ChainVerifier verifier(pki.store, pki.sigs);
  // leaf <- deep_int <- plen0_int <- root: plen0_int has pathLen 0 but one
  // intermediate (deep_int) sits below it.
  CertPtr leaf = pki.leaf("deep.example.org", pki.deep_key,
                          pki.deep_int->subject());
  VerifyResult result = verifier.verify(leaf, pki.pool, pki.tls("deep.example.org"));
  EXPECT_FALSE(result.ok);
}

TEST(Verifier, MaxDepthBoundsSearch) {
  VerifierPki pki;
  ChainVerifier verifier(pki.store, pki.sigs);
  CertPtr leaf = pki.leaf("site.example.org", pki.int_key, pki.int_a->subject());
  VerifyOptions options = pki.tls("site.example.org");
  options.max_depth = 2;  // leaf + root only; the 3-cert chain cannot form
  EXPECT_FALSE(verifier.verify(leaf, pki.pool, options).ok);
  options.max_depth = 3;
  EXPECT_TRUE(verifier.verify(leaf, pki.pool, options).ok);
}

TEST(Verifier, DateUsageCutoffFromMetadata) {
  VerifierPki pki;
  // Reconfigure root A with a TLS distrust-after cutoff (NSS-style).
  rootstore::RootMetadata metadata;
  metadata.tls_distrust_after = VerifierPki::kNow - 30 * 86400;
  (void)pki.store.add_trusted(pki.root_a, metadata);
  ChainVerifier verifier(pki.store, pki.sigs);

  // Leaf issued after the cutoff: path via A fails, falls through to B.
  CertPtr new_leaf = pki.leaf("site.example.org", pki.int_key,
                              pki.int_a->subject(), false,
                              VerifierPki::kNow - 86400);
  VerifyResult result =
      verifier.verify(new_leaf, pki.pool, pki.tls("site.example.org"));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.chain.back()->subject().common_name(), "Root B");
  // The A-path rejection is recorded.
  bool saw_cutoff = false;
  for (const auto& rejected : result.rejected_paths) {
    if (rejected.kind == ErrorKind::kUsageViolation) saw_cutoff = true;
  }
  EXPECT_TRUE(saw_cutoff);

  // Leaf issued before the cutoff still validates via A.
  CertPtr old_leaf = pki.leaf("old.example.org", pki.int_key,
                              pki.int_a->subject(), false,
                              VerifierPki::kNow - 60 * 86400);
  VerifyResult old_result =
      verifier.verify(old_leaf, pki.pool, pki.tls("old.example.org"));
  ASSERT_TRUE(old_result.ok);
  EXPECT_EQ(old_result.chain.back()->subject().common_name(), "Root A");
}

TEST(Verifier, EvRequiresLeafPolicyAndRootBit) {
  VerifierPki pki;
  ChainVerifier verifier(pki.store, pki.sigs);
  CertPtr ev_leaf =
      pki.leaf("ev.example.org", pki.int_key, pki.int_a->subject(), true);
  VerifyOptions options = pki.tls("ev.example.org");
  options.require_ev = true;
  // Root A allows EV: succeeds via A.
  VerifyResult result = verifier.verify(ev_leaf, pki.pool, options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.chain.back()->subject().common_name(), "Root A");
  // Non-EV leaf under require_ev fails outright.
  CertPtr plain = pki.leaf("plain.example.org", pki.int_key, pki.int_a->subject());
  options.hostname = "plain.example.org";
  EXPECT_FALSE(verifier.verify(plain, pki.pool, options).ok);
}

TEST(Verifier, GccRejectionTriggersContinuedBuilding) {
  VerifierPki pki;
  // Attach a deny-all GCC to root A; the verifier must fall through to B
  // (the paper's "reject or continue building" loop).
  pki.store.attach_gcc(
      core::Gcc::for_certificate(
          "deny-a", *pki.root_a,
          "valid(Chain, \"TLS\") :- leaf(Chain, L), ev(L).")
          .take());
  ChainVerifier verifier(pki.store, pki.sigs);
  CertPtr leaf = pki.leaf("site.example.org", pki.int_key, pki.int_a->subject());
  VerifyResult result = verifier.verify(leaf, pki.pool, pki.tls("site.example.org"));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.chain.back()->subject().common_name(), "Root B");
  bool saw_gcc_rejection = false;
  for (const auto& rejected : result.rejected_paths) {
    if (rejected.kind == ErrorKind::kGccDenied) saw_gcc_rejection = true;
  }
  EXPECT_TRUE(saw_gcc_rejection);
  EXPECT_EQ(result.gcc_verdict.gccs_evaluated, 1u);
}

TEST(Verifier, GccAllowPassesThrough) {
  VerifierPki pki;
  pki.store.attach_gcc(
      core::Gcc::for_certificate("allow-a", *pki.root_a,
                                 "valid(Chain, _) :- leaf(Chain, L).")
          .take());
  ChainVerifier verifier(pki.store, pki.sigs);
  CertPtr leaf = pki.leaf("site.example.org", pki.int_key, pki.int_a->subject());
  VerifyResult result = verifier.verify(leaf, pki.pool, pki.tls("site.example.org"));
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.chain.back()->subject().common_name(), "Root A");
}

TEST(Verifier, GccsCanBeDisabledForAblation) {
  VerifierPki pki;
  pki.store.attach_gcc(
      core::Gcc::for_certificate(
          "deny-a", *pki.root_a,
          "valid(Chain, \"TLS\") :- leaf(Chain, L), ev(L).")
          .take());
  ChainVerifier verifier(pki.store, pki.sigs);
  CertPtr leaf = pki.leaf("site.example.org", pki.int_key, pki.int_a->subject());
  VerifyOptions options = pki.tls("site.example.org");
  options.run_gccs = false;
  VerifyResult result = verifier.verify(leaf, pki.pool, options);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.chain.back()->subject().common_name(), "Root A");
  EXPECT_EQ(result.gcc_verdict.gccs_evaluated, 0u);
}

TEST(Verifier, CustomGccHookIsInvoked) {
  VerifierPki pki;
  pki.store.attach_gcc(
      core::Gcc::for_certificate("any", *pki.root_a,
                                 "valid(Chain, _) :- leaf(Chain, L).")
          .take());
  ChainVerifier verifier(pki.store, pki.sigs);
  int hook_calls = 0;
  verifier.set_gcc_hook([&hook_calls](const core::Chain&, std::string_view,
                                      std::span<const core::Gcc>,
                                      const core::FactSet*,
                                      core::GccVerdict&) {
    ++hook_calls;
    return false;  // veto everything
  });
  CertPtr leaf = pki.leaf("site.example.org", pki.int_key, pki.int_a->subject());
  VerifyResult result = verifier.verify(leaf, pki.pool, pki.tls("site.example.org"));
  // Root A vetoed by hook; root B has no GCCs, so the chain lands there.
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.chain.back()->subject().common_name(), "Root B");
  EXPECT_EQ(hook_calls, 1);
}

TEST(Verifier, DistrustedRootIsNeverUsed) {
  VerifierPki pki;
  pki.store.distrust(pki.root_a->fingerprint(), "incident");
  ChainVerifier verifier(pki.store, pki.sigs);
  CertPtr leaf = pki.leaf("site.example.org", pki.int_key, pki.int_a->subject());
  VerifyResult result = verifier.verify(leaf, pki.pool, pki.tls("site.example.org"));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.chain.back()->subject().common_name(), "Root B");
}

TEST(Verifier, PathsExploredIsReported) {
  VerifierPki pki;
  ChainVerifier verifier(pki.store, pki.sigs);
  CertPtr leaf = pki.leaf("site.example.org", pki.int_key, pki.int_a->subject());
  VerifyResult result = verifier.verify(leaf, pki.pool, pki.tls("site.example.org"));
  ASSERT_TRUE(result.ok);
  EXPECT_GE(result.paths_explored, 1u);
}

}  // namespace
}  // namespace anchor::chain
