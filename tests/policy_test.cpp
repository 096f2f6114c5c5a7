// Differential tests between the procedural ChainVerifier and the
// Hammurabi-style PolicyVerifier (the paper's §3.1 option 3): the two must
// agree on every scenario — tree-shaped and cross-signed alike, now that
// the policy's depth-indexed upOK relation is path-sensitive — including
// the cross-sign resurrection bane case.
#include "policy/policy.hpp"

#include <gtest/gtest.h>

#include "corpus/corpus.hpp"
#include "incidents/incidents.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"
#include "x509/oids.hpp"

namespace anchor::policy {
namespace {

using x509::CertificateBuilder;
using x509::CertPtr;
using x509::DistinguishedName;

struct PolicyPki {
  SimSig sigs;
  SimKeyPair root_key = SimSig::keygen("Pol Root");
  SimKeyPair int_key = SimSig::keygen("Pol Int");
  SimKeyPair nc_key = SimSig::keygen("Pol NC Int");
  SimKeyPair plen_key = SimSig::keygen("Pol PathLen Int");
  SimKeyPair deep_key = SimSig::keygen("Pol Deep Int");
  CertPtr root, intermediate, nc_int, plen_int, deep_int;
  rootstore::RootStore store;
  chain::CertificatePool pool;
  static constexpr std::int64_t kNow = 1700000000;

  PolicyPki() {
    root = CertificateBuilder()
               .serial(1)
               .subject(DistinguishedName::make("Pol Root", "T"))
               .issuer(DistinguishedName::make("Pol Root", "T"))
               .validity(0, unix_date(2040, 1, 1))
               .public_key(root_key.key_id)
               .ca(std::nullopt)
               .sign(root_key)
               .take();
    intermediate = CertificateBuilder()
                       .serial(2)
                       .subject(DistinguishedName::make("Pol Int", "T"))
                       .issuer(root->subject())
                       .validity(0, unix_date(2039, 1, 1))
                       .public_key(int_key.key_id)
                       .ca(std::nullopt)
                       .sign(root_key)
                       .take();
    x509::NameConstraints nc;
    nc.permitted_dns = {"example.com"};
    nc_int = CertificateBuilder()
                 .serial(3)
                 .subject(DistinguishedName::make("Pol NC Int", "T"))
                 .issuer(root->subject())
                 .validity(0, unix_date(2039, 1, 1))
                 .public_key(nc_key.key_id)
                 .ca(std::nullopt)
                 .name_constraints(nc)
                 .sign(root_key)
                 .take();
    plen_int = CertificateBuilder()
                   .serial(4)
                   .subject(DistinguishedName::make("Pol PathLen Int", "T"))
                   .issuer(root->subject())
                   .validity(0, unix_date(2039, 1, 1))
                   .public_key(plen_key.key_id)
                   .ca(0)
                   .sign(root_key)
                   .take();
    deep_int = CertificateBuilder()
                   .serial(5)
                   .subject(DistinguishedName::make("Pol Deep Int", "T"))
                   .issuer(plen_int->subject())
                   .validity(0, unix_date(2039, 1, 1))
                   .public_key(deep_key.key_id)
                   .ca(std::nullopt)
                   .sign(plen_key)
                   .take();
    for (const auto& key : {root_key, int_key, nc_key, plen_key, deep_key}) {
      sigs.register_key(key);
    }
    (void)store.add_trusted(root);
    pool.add(intermediate);
    pool.add(nc_int);
    pool.add(plen_int);
    pool.add(deep_int);
  }

  CertPtr leaf(const std::string& domain, const SimKeyPair& issuer_key,
               const CertPtr& issuer, std::int64_t not_before = kNow - 86400,
               bool smime = false, bool wildcard = false) {
    SimKeyPair key = SimSig::keygen("pleaf" + domain);
    std::vector<std::string> names{domain};
    if (wildcard) names.push_back("*." + domain);
    return CertificateBuilder()
        .serial(100)
        .subject(DistinguishedName::make(domain))
        .issuer(issuer->subject())
        .validity(not_before, not_before + 90 * 86400)
        .public_key(key.key_id)
        .dns_names(names)
        .extended_key_usage({smime ? x509::oids::kp_email_protection()
                                   : x509::oids::kp_server_auth()})
        .sign(issuer_key)
        .take();
  }

  chain::VerifyOptions tls(const std::string& host) const {
    chain::VerifyOptions options;
    options.time = kNow;
    options.hostname = host;
    return options;
  }
};

// Both verifiers, same scenario, same verdict.
void expect_agreement(const PolicyPki& pki, const CertPtr& leaf,
                      const chain::VerifyOptions& options, bool expected,
                      const char* label) {
  chain::ChainVerifier procedural(pki.store, pki.sigs);
  PolicyVerifier logical(pki.store, pki.sigs);
  bool proc = procedural.verify(leaf, pki.pool, options).ok;
  bool log = logical.verify(leaf, pki.pool, options).ok;
  EXPECT_EQ(proc, expected) << label << " (procedural)";
  EXPECT_EQ(log, expected) << label << " (datalog policy)";
}

TEST(PolicyVerifierTest, AcceptsValidChain) {
  PolicyPki pki;
  expect_agreement(pki, pki.leaf("ok.example.org", pki.int_key, pki.intermediate),
                   pki.tls("ok.example.org"), true, "valid chain");
}

TEST(PolicyVerifierTest, WildcardHostnameMatch) {
  PolicyPki pki;
  CertPtr leaf = pki.leaf("example.org", pki.int_key, pki.intermediate,
                          PolicyPki::kNow - 86400, false, /*wildcard=*/true);
  expect_agreement(pki, leaf, pki.tls("api.example.org"), true, "wildcard");
  expect_agreement(pki, leaf, pki.tls("a.b.example.org"), false,
                   "wildcard one label only");
}

TEST(PolicyVerifierTest, RejectsExpiredLeaf) {
  PolicyPki pki;
  CertPtr leaf = pki.leaf("old.example.org", pki.int_key, pki.intermediate,
                          PolicyPki::kNow - 400 * 86400);
  expect_agreement(pki, leaf, pki.tls("old.example.org"), false, "expired");
}

TEST(PolicyVerifierTest, RejectsHostnameMismatch) {
  PolicyPki pki;
  CertPtr leaf = pki.leaf("site.example.org", pki.int_key, pki.intermediate);
  expect_agreement(pki, leaf, pki.tls("other.example.org"), false,
                   "hostname mismatch");
}

TEST(PolicyVerifierTest, RejectsWrongEku) {
  PolicyPki pki;
  CertPtr smime = pki.leaf("mail.example.org", pki.int_key, pki.intermediate,
                           PolicyPki::kNow - 86400, /*smime=*/true);
  expect_agreement(pki, smime, pki.tls("mail.example.org"), false,
                   "S/MIME leaf for TLS");
  chain::VerifyOptions smime_options;
  smime_options.time = PolicyPki::kNow;
  smime_options.usage = chain::Usage::kSmime;
  expect_agreement(pki, smime, smime_options, true, "S/MIME leaf for S/MIME");
}

TEST(PolicyVerifierTest, RejectsForgedSignature) {
  PolicyPki pki;
  SimKeyPair rogue = SimSig::keygen("pol-rogue");
  pki.sigs.register_key(rogue);
  CertPtr forged = pki.leaf("victim.example.org", rogue, pki.intermediate);
  expect_agreement(pki, forged, pki.tls("victim.example.org"), false, "forged");
}

TEST(PolicyVerifierTest, EnforcesNameConstraints) {
  PolicyPki pki;
  CertPtr inside = pki.leaf("shop.example.com", pki.nc_key, pki.nc_int);
  expect_agreement(pki, inside, pki.tls("shop.example.com"), true,
                   "inside name constraint");
  CertPtr outside = pki.leaf("shop.example.net", pki.nc_key, pki.nc_int);
  expect_agreement(pki, outside, pki.tls("shop.example.net"), false,
                   "outside name constraint");
}

TEST(PolicyVerifierTest, EnforcesPathLen) {
  PolicyPki pki;
  CertPtr shallow = pki.leaf("s.example.org", pki.plen_key, pki.plen_int);
  expect_agreement(pki, shallow, pki.tls("s.example.org"), true,
                   "pathLen 0, direct leaf");
  CertPtr deep = pki.leaf("d.example.org", pki.deep_key, pki.deep_int);
  expect_agreement(pki, deep, pki.tls("d.example.org"), false,
                   "pathLen 0, one CA below");
}

TEST(PolicyVerifierTest, RejectsUntrustedRoot) {
  PolicyPki pki;
  rootstore::RootStore empty_store;
  PolicyVerifier logical(empty_store, pki.sigs);
  CertPtr leaf = pki.leaf("ok.example.org", pki.int_key, pki.intermediate);
  EXPECT_FALSE(logical.verify(leaf, pki.pool, pki.tls("ok.example.org")).ok);
}

TEST(PolicyVerifierTest, DistrustedRootIsNotAnAnchor) {
  PolicyPki pki;
  pki.store.distrust(pki.root->fingerprint(), "incident");
  PolicyVerifier logical(pki.store, pki.sigs);
  CertPtr leaf = pki.leaf("ok.example.org", pki.int_key, pki.intermediate);
  EXPECT_FALSE(logical.verify(leaf, pki.pool, pki.tls("ok.example.org")).ok);
}

TEST(PolicyVerifierTest, ReportsStatsAndFacts) {
  PolicyPki pki;
  PolicyVerifier logical(pki.store, pki.sigs);
  CertPtr leaf = pki.leaf("ok.example.org", pki.int_key, pki.intermediate);
  PolicyResult result = logical.verify(leaf, pki.pool, pki.tls("ok.example.org"));
  EXPECT_TRUE(result.ok);
  EXPECT_GT(result.facts, 20u);
  EXPECT_GT(result.stats.derived_tuples, 5u);
  EXPECT_EQ(result.leaf_id, leaf->fingerprint_hex());
}

TEST(PolicyVerifierTest, CustomPolicyReplacesDefault) {
  PolicyPki pki;
  // A paranoid policy: accept nothing.
  PolicyVerifier deny_all(pki.store, pki.sigs,
                          "accept(L) :- isLeaf(L), impossible(L).");
  CertPtr leaf = pki.leaf("ok.example.org", pki.int_key, pki.intermediate);
  EXPECT_FALSE(deny_all.verify(leaf, pki.pool, pki.tls("ok.example.org")).ok);
}

// Cross-signing agreement: the depth-indexed upOK relation checks every
// link at its actual depth, so the policy tries the clean path even though
// a constraint-violating CA is reachable via the cross-signed edge — the
// same accept-if-any-path semantics as the procedural graph search. (This
// was the documented divergence of the old set-based encoding, which
// condemned the leaf if ANY reachable CA violated a constraint.)
TEST(PolicyVerifierTest, CrossSigningAgreement) {
  PolicyPki pki;
  // Cross-sign "Pol Int" under the name-constrained intermediate: the leaf
  // now has two issuer certs for DN "Pol Int": one clean (under root), one
  // whose path crosses the NC intermediate.
  CertPtr cross = CertificateBuilder()
                      .serial(50)
                      .subject(DistinguishedName::make("Pol Int", "T"))
                      .issuer(pki.nc_int->subject())
                      .validity(0, unix_date(2039, 1, 1))
                      .public_key(pki.int_key.key_id)
                      .ca(std::nullopt)
                      .sign(pki.nc_key)
                      .take();
  pki.pool.add(cross);

  CertPtr leaf = pki.leaf("site.example.net", pki.int_key, pki.intermediate);
  chain::ChainVerifier procedural(pki.store, pki.sigs);
  PolicyVerifier logical(pki.store, pki.sigs);
  // Procedural: finds the clean path (leaf <- Pol Int <- Root) and accepts.
  EXPECT_TRUE(procedural.verify(leaf, pki.pool, pki.tls("site.example.net")).ok);
  // Datalog policy: the NC intermediate is reachable via the cross-signed
  // edge, but the clean path has no violating link at any depth -> accept,
  // agreeing with the procedural verifier.
  EXPECT_TRUE(logical.verify(leaf, pki.pool, pki.tls("site.example.net")).ok);
}

// The bane case, in the logic: a distrusted root with a live cross-sign
// from a trusted root must stay rejected by both verifiers — the
// distrustedCA facts poison every certificate of the logical CA.
TEST(PolicyVerifierTest, CrossSignResurrectionRejectedByBothVerifiers) {
  incidents::Incident incident = incidents::make_cross_sign();
  chain::ChainVerifier procedural(incident.store, incident.signatures);
  PolicyVerifier logical(incident.store, incident.signatures);
  for (const auto& test_case : incident.cases) {
    const bool proc =
        procedural.verify(test_case.leaf, incident.pool, test_case.options).ok;
    const bool log =
        logical.verify(test_case.leaf, incident.pool, test_case.options).ok;
    EXPECT_EQ(proc, test_case.expect_valid) << test_case.label;
    EXPECT_EQ(log, test_case.expect_valid) << test_case.label;
  }
}

// Sweep the shared corpus: on tree-shaped issuance both verifiers agree on
// every sampled leaf (accept and reject cases both occur in the sample).
TEST(PolicyVerifierTest, CorpusDifferentialAgreement) {
  corpus::CorpusConfig config;
  config.num_roots = 12;
  config.num_intermediates = 30;
  config.roots_with_path_len = 1;
  config.intermediates_with_path_len = 25;
  config.intermediates_with_name_constraints = 3;
  config.roots_with_constrained_chain = 2;
  config.leaves_per_intermediate_mean = 5.0;
  corpus::Corpus corpus = corpus::Corpus::generate(config);

  rootstore::RootStore store = corpus.make_root_store();
  chain::CertificatePool pool = corpus.intermediate_pool();
  chain::ChainVerifier procedural(store, corpus.signatures());
  PolicyVerifier logical(store, corpus.signatures());

  std::size_t checked = 0;
  std::size_t accepts = 0;
  for (std::size_t i = 0; i < corpus.leaves().size() && checked < 60; i += 3) {
    const auto& record = corpus.leaves()[i];
    chain::VerifyOptions options;
    // Half in-window, half at a time many leaves are expired.
    options.time = (checked % 2 == 0)
                       ? (record.cert->not_before() + record.cert->not_after()) / 2
                       : corpus.config().time_origin - 86400;
    options.usage = record.smime ? chain::Usage::kSmime : chain::Usage::kTls;
    if (!record.smime) options.hostname = record.domain;
    bool proc = procedural.verify(record.cert, pool, options).ok;
    bool log = logical.verify(record.cert, pool, options).ok;
    EXPECT_EQ(proc, log) << record.domain << " at t=" << options.time;
    accepts += proc;
    ++checked;
  }
  EXPECT_GT(checked, 40u);
  EXPECT_GT(accepts, 0u);
  EXPECT_LT(accepts, checked);  // both verdicts exercised
}

}  // namespace
}  // namespace anchor::policy
