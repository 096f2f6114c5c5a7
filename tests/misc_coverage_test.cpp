// Cross-cutting coverage for paths the module-focused suites leave thin:
// S/MIME metadata cutoffs in the verifier, Datalog value rendering,
// multi-root GCC interactions, and store/GCC interplay around distrust.
#include <gtest/gtest.h>

#include "chain/verifier.hpp"
#include "datalog/value.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"
#include "x509/oids.hpp"

namespace anchor {
namespace {

using x509::CertificateBuilder;
using x509::CertPtr;
using x509::DistinguishedName;

TEST(DatalogValue, RenderingQuotesNonAtoms) {
  using datalog::Value;
  EXPECT_EQ(Value(std::int64_t{42}).to_string(), "42");
  EXPECT_EQ(Value(std::int64_t{-7}).to_string(), "-7");
  EXPECT_EQ(Value("atom_ok").to_string(), "atom_ok");
  EXPECT_EQ(Value("Upper").to_string(), "\"Upper\"");      // not atom-shaped
  EXPECT_EQ(Value("has space").to_string(), "\"has space\"");
  EXPECT_EQ(Value("S/MIME").to_string(), "\"S/MIME\"");
  EXPECT_EQ(Value("say \"hi\"").to_string(), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(Value("").to_string(), "\"\"");
}

struct SmimePki {
  SimSig sigs;
  SimKeyPair root_key = SimSig::keygen("SM Root");
  SimKeyPair int_key = SimSig::keygen("SM Int");
  CertPtr root, intermediate;
  rootstore::RootStore store;
  static constexpr std::int64_t kNow = 1700000000;
  static constexpr std::int64_t kCutoff = kNow - 30 * 86400;

  SmimePki() {
    root = CertificateBuilder()
               .serial(1)
               .subject(DistinguishedName::make("SM Root", "T"))
               .issuer(DistinguishedName::make("SM Root", "T"))
               .validity(0, unix_date(2040, 1, 1))
               .public_key(root_key.key_id)
               .ca(std::nullopt)
               .sign(root_key)
               .take();
    intermediate = CertificateBuilder()
                       .serial(2)
                       .subject(DistinguishedName::make("SM Int", "T"))
                       .issuer(root->subject())
                       .validity(0, unix_date(2039, 1, 1))
                       .public_key(int_key.key_id)
                       .ca(0)
                       .sign(root_key)
                       .take();
    sigs.register_key(root_key);
    sigs.register_key(int_key);
    rootstore::RootMetadata metadata;
    metadata.smime_distrust_after = kCutoff;  // S/MIME-only cutoff
    (void)store.add_trusted(root, metadata);
  }

  CertPtr leaf(std::int64_t not_before) {
    SimKeyPair key = SimSig::keygen("smleaf" + std::to_string(not_before));
    return CertificateBuilder()
        .serial(5)
        .subject(DistinguishedName::make("mail.example.net"))
        .issuer(intermediate->subject())
        .validity(not_before, kNow + 90 * 86400)
        .public_key(key.key_id)
        .dns_names({"mail.example.net"})
        .extended_key_usage({x509::oids::kp_email_protection(),
                             x509::oids::kp_server_auth()})
        .sign(int_key)
        .take();
  }
};

TEST(VerifierMetadata, SmimeCutoffIsUsageSpecific) {
  SmimePki pki;
  chain::CertificatePool pool;
  pool.add(pki.intermediate);
  chain::ChainVerifier verifier(pki.store, pki.sigs);

  CertPtr new_leaf = pki.leaf(SmimePki::kCutoff + 86400);
  chain::VerifyOptions smime;
  smime.time = SmimePki::kNow;
  smime.usage = chain::Usage::kSmime;
  EXPECT_FALSE(verifier.verify(new_leaf, pool, smime).ok);

  // The same post-cutoff leaf is fine for TLS: the cutoff is per usage.
  chain::VerifyOptions tls;
  tls.time = SmimePki::kNow;
  tls.hostname = "mail.example.net";
  EXPECT_TRUE(verifier.verify(new_leaf, pool, tls).ok);

  // Pre-cutoff S/MIME still validates.
  CertPtr old_leaf = pki.leaf(SmimePki::kCutoff - 86400);
  EXPECT_TRUE(verifier.verify(old_leaf, pool, smime).ok);
}

TEST(VerifierMetadata, GccOnDistrustedRootNeverRuns) {
  // Distrust beats GCCs: once the root leaves the trusted set, its GCCs
  // are unreachable (no candidate path exists at all).
  SmimePki pki;
  pki.store.attach_gcc(
      core::Gcc::for_certificate("allow-everything", *pki.root,
                                 "valid(Chain, _) :- leaf(Chain, L).")
          .take());
  pki.store.distrust(pki.root->fingerprint(), "incident");
  chain::CertificatePool pool;
  pool.add(pki.intermediate);
  chain::ChainVerifier verifier(pki.store, pki.sigs);
  chain::VerifyOptions tls;
  tls.time = SmimePki::kNow;
  tls.hostname = "mail.example.net";
  chain::VerifyResult result =
      verifier.verify(pki.leaf(SmimePki::kNow - 86400), pool, tls);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.gcc_verdict.gccs_evaluated, 0u);
}

TEST(VerifierMetadata, MultipleGccsOnOneRootAllRun) {
  SmimePki pki;
  pki.store.attach_gcc(
      core::Gcc::for_certificate("c1", *pki.root,
                                 "valid(Chain, _) :- leaf(Chain, L).")
          .take());
  pki.store.attach_gcc(
      core::Gcc::for_certificate(
          "c2", *pki.root,
          "valid(Chain, _) :- leaf(Chain, L), \\+ev(L).")
          .take());
  chain::CertificatePool pool;
  pool.add(pki.intermediate);
  chain::ChainVerifier verifier(pki.store, pki.sigs);
  chain::VerifyOptions tls;
  tls.time = SmimePki::kNow;
  tls.hostname = "mail.example.net";
  chain::VerifyResult result =
      verifier.verify(pki.leaf(SmimePki::kNow - 86400), pool, tls);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.gcc_verdict.gccs_evaluated, 2u);
}

TEST(DatalogEngine, ArityOverloadingKeepsRelationsSeparate) {
  datalog::Engine engine;
  ASSERT_TRUE(engine.load(R"(
p(1).
p(1, 2).
unary(X) :- p(X).
binary(X, Y) :- p(X, Y).
)").ok());
  EXPECT_EQ(engine.query("unary(X)?").take().bindings.size(), 1u);
  EXPECT_EQ(engine.query("binary(X, Y)?").take().bindings.size(), 1u);
  EXPECT_FALSE(engine.query("p(2)?").take().holds());
  EXPECT_TRUE(engine.query("p(1, 2)?").take().holds());
}

TEST(DatalogEngine, DuplicateClausesAreIdempotent) {
  datalog::Engine engine;
  ASSERT_TRUE(engine.load("e(1). e(1). r(X) :- e(X). r(X) :- e(X).").ok());
  EXPECT_EQ(engine.query("r(X)?").take().bindings.size(), 1u);
}

TEST(CertificateBuilderEdge, LargeSerialRoundTrips) {
  SimKeyPair key = SimSig::keygen("big-serial");
  auto cert = CertificateBuilder()
                  .serial(0xffffffffffffffffULL)
                  .subject(DistinguishedName::make("X"))
                  .issuer(DistinguishedName::make("Y"))
                  .validity(0, 1000)
                  .public_key(key.key_id)
                  .sign(key);
  ASSERT_TRUE(cert.ok()) << cert.error();
  // Encoded as unsigned: 8 magnitude bytes survive the round trip.
  EXPECT_EQ(cert.value()->serial(), Bytes(8, 0xff));
}

TEST(RootStoreEdge, GccsSurviveDistrustAndForget) {
  // GCC attachments are independent of membership: a store keeps (and
  // serializes) constraints for roots it no longer trusts, which matters
  // when the root is later re-added by a delta.
  SmimePki pki;
  pki.store.attach_gcc(
      core::Gcc::for_certificate("sticky", *pki.root,
                                 "valid(Chain, _) :- leaf(Chain, L).")
          .take());
  pki.store.distrust(pki.root->fingerprint(), "x");
  EXPECT_EQ(pki.store.gccs().total(), 1u);
  auto round = rootstore::RootStore::deserialize(pki.store.serialize());
  ASSERT_TRUE(round.ok()) << round.error();
  EXPECT_EQ(round.value().gccs().total(), 1u);
  EXPECT_EQ(round.value().state_of(pki.root->fingerprint()),
            rootstore::TrustState::kDistrusted);
}

}  // namespace
}  // namespace anchor

namespace anchor {
namespace {

TEST(VerifierPaths, ServerSuppliedRootInPoolStillTerminatesAtAnchor) {
  // Servers often send the root along with the chain; the builder must
  // still terminate at the trust anchor (option 2 of the search) instead
  // of looping or failing.
  SmimePki pki;
  chain::CertificatePool pool;
  pool.add(pki.intermediate);
  pool.add(pki.root);  // the anchor itself rides along
  chain::ChainVerifier verifier(pki.store, pki.sigs);
  chain::VerifyOptions tls;
  tls.time = SmimePki::kNow;
  tls.hostname = "mail.example.net";
  chain::VerifyResult result =
      verifier.verify(pki.leaf(SmimePki::kNow - 86400), pool, tls);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.chain.back()->fingerprint(), pki.root->fingerprint());
}

}  // namespace
}  // namespace anchor

#include "incidents/incidents.hpp"

namespace anchor::datalog {
namespace {

TEST(ProgramPrinting, EveryShippedGccSourceRoundTripsThroughToString) {
  // For every GCC in every incident scenario: parse(source).to_string()
  // reparses to an identical AST — the pretty printer is a faithful
  // serialization of the dialect.
  for (const incidents::Incident& incident : incidents::all_incidents()) {
    for (const auto& root : incident.store.gccs().roots_sorted()) {
      for (const core::Gcc& gcc : incident.store.gccs().for_root(root)) {
        auto original = parse_program(gcc.source());
        ASSERT_TRUE(original.ok()) << incident.name << "/" << gcc.name();
        auto reparsed = parse_program(original.value().to_string());
        ASSERT_TRUE(reparsed.ok())
            << incident.name << "/" << gcc.name() << ": "
            << original.value().to_string();
        EXPECT_EQ(original.value().clauses, reparsed.value().clauses)
            << incident.name << "/" << gcc.name();
      }
    }
  }
}

}  // namespace
}  // namespace anchor::datalog
