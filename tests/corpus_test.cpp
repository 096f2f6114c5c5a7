#include "corpus/corpus.hpp"

#include <gtest/gtest.h>

#include "chain/verifier.hpp"
#include "corpus/census.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace anchor::corpus {
namespace {

// One shared corpus: generation is the expensive part, assertions are not.
const Corpus& shared_corpus() {
  static const Corpus corpus = [] {
    CorpusConfig config;
    config.leaves_per_intermediate_mean = 4.0;  // keep tests quick
    return Corpus::generate(config);
  }();
  return corpus;
}

TEST(Corpus, PopulationCountsMatchConfig) {
  const Corpus& corpus = shared_corpus();
  EXPECT_EQ(corpus.roots().size(), 140u);
  EXPECT_EQ(corpus.intermediates().size(), 776u);
  EXPECT_GT(corpus.leaves().size(), 1000u);
}

TEST(Corpus, CensusReproducesPaperNumbers) {
  // The §5.1 measurement, recomputed from the generated certificates.
  CensusReport report = run_census(shared_corpus());
  EXPECT_EQ(report.roots_total, 140u);
  EXPECT_EQ(report.roots_with_name_constraints, 0u);
  EXPECT_EQ(report.roots_with_path_len, 5u);
  EXPECT_EQ(report.intermediates_total, 776u);
  EXPECT_EQ(report.intermediates_with_path_len, 701u);
  EXPECT_EQ(report.intermediates_with_name_constraints, 31u);
  EXPECT_EQ(report.roots_with_constrained_chain, 6u);
}

TEST(Corpus, EveryIntermediateHasAValidParent) {
  const Corpus& corpus = shared_corpus();
  for (const CaProfile& intermediate : corpus.intermediates()) {
    ASSERT_GE(intermediate.parent_root, 0);
    ASSERT_LT(intermediate.parent_root,
              static_cast<int>(corpus.roots().size()));
    const CaProfile& parent =
        corpus.roots()[static_cast<std::size_t>(intermediate.parent_root)];
    EXPECT_EQ(intermediate.cert->issuer(), parent.cert->subject());
  }
}

TEST(Corpus, LeafChainsVerifyEndToEnd) {
  const Corpus& corpus = shared_corpus();
  rootstore::RootStore store = corpus.make_root_store();
  chain::CertificatePool pool = corpus.intermediate_pool();
  chain::ChainVerifier verifier(store, corpus.signatures());

  std::size_t checked = 0;
  for (std::size_t i = 0; i < corpus.leaves().size() && checked < 40; i += 97) {
    const LeafRecord& record = corpus.leaves()[i];
    if (record.smime) continue;
    chain::VerifyOptions options;
    options.time = (record.cert->not_before() + record.cert->not_after()) / 2;
    options.hostname = record.domain;
    chain::VerifyResult result =
        verifier.verify(record.cert, pool, options);
    EXPECT_TRUE(result.ok) << record.domain << ": " << result.error;
    ++checked;
  }
  EXPECT_GT(checked, 20u);
}

TEST(Corpus, ChainForLeafIsConsistent) {
  const Corpus& corpus = shared_corpus();
  core::Chain chain = corpus.chain_for_leaf(0);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0]->issuer(), chain[1]->subject());
  EXPECT_EQ(chain[1]->issuer(), chain[2]->subject());
  EXPECT_TRUE(chain[2]->is_self_issued());
}

TEST(Corpus, GenerationIsDeterministic) {
  CorpusConfig config;
  config.num_roots = 10;
  config.num_intermediates = 20;
  config.roots_with_path_len = 2;
  config.intermediates_with_path_len = 15;
  config.intermediates_with_name_constraints = 3;
  config.roots_with_constrained_chain = 2;
  Corpus a = Corpus::generate(config);
  Corpus b = Corpus::generate(config);
  ASSERT_EQ(a.leaves().size(), b.leaves().size());
  for (std::size_t i = 0; i < a.leaves().size(); i += 13) {
    EXPECT_EQ(a.leaves()[i].cert->fingerprint(),
              b.leaves()[i].cert->fingerprint());
  }
  // A different seed changes issuance (leaf domains come from the RNG);
  // root certificates themselves are name-derived and may coincide.
  config.seed = 99;
  Corpus c = Corpus::generate(config);
  bool all_same = a.leaves().size() == c.leaves().size();
  if (all_same) {
    for (std::size_t i = 0; i < a.leaves().size(); ++i) {
      if (a.leaves()[i].domain != c.leaves()[i].domain) {
        all_same = false;
        break;
      }
    }
  }
  EXPECT_FALSE(all_same);
}

TEST(Corpus, LeafDomainsStayWithinIssuerScope) {
  const Corpus& corpus = shared_corpus();
  for (std::size_t i = 0; i < corpus.leaves().size(); i += 31) {
    const LeafRecord& record = corpus.leaves()[i];
    const CaProfile& issuer = corpus.intermediates()[static_cast<std::size_t>(
        record.issuer_intermediate)];
    std::string tld = tld_of(record.domain);
    EXPECT_NE(std::find(issuer.tld_scope.begin(), issuer.tld_scope.end(), tld),
              issuer.tld_scope.end())
        << record.domain << " outside scope of its issuer";
  }
}

TEST(Corpus, SmimeAndEvFractionsAreRoughlyCalibrated) {
  const Corpus& corpus = shared_corpus();
  std::size_t smime = 0;
  std::size_t ev = 0;
  for (const LeafRecord& record : corpus.leaves()) {
    if (record.smime) ++smime;
    if (record.cert->is_ev()) ++ev;
  }
  double n = static_cast<double>(corpus.leaves().size());
  EXPECT_NEAR(smime / n, corpus.config().smime_fraction, 0.04);
  EXPECT_NEAR(ev / n, corpus.config().ev_fraction, 0.04);
}

TEST(Corpus, MisissuedLeafVerifiesButIsFraudulent) {
  Corpus corpus = shared_corpus();  // copy: misissue mutates serial state
  rootstore::RootStore store = corpus.make_root_store();
  chain::CertificatePool pool = corpus.intermediate_pool();
  chain::ChainVerifier verifier(store, corpus.signatures());

  std::int64_t now = corpus.config().validation_time();
  x509::CertPtr fraud = corpus.misissue(0, "login.bank.example", now - 86400);
  chain::VerifyOptions options;
  options.time = now;
  options.hostname = "login.bank.example";
  // Without constraints the fraudulent chain validates — the paper's threat.
  chain::VerifyResult result = verifier.verify(fraud, pool, options);
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(Corpus, TldUniverseIsStableAndSized) {
  auto u60 = Corpus::tld_universe(60);
  EXPECT_EQ(u60.size(), 60u);
  EXPECT_EQ(u60[0], "com");
  auto u80 = Corpus::tld_universe(80);
  EXPECT_EQ(u80.size(), 80u);
  EXPECT_EQ(u80[70], "tld70");
}

TEST(Corpus, RootStoreTrustsAllRoots) {
  const Corpus& corpus = shared_corpus();
  rootstore::RootStore store = corpus.make_root_store();
  EXPECT_EQ(store.trusted_count(), corpus.roots().size());
  for (const CaProfile& root : corpus.roots()) {
    EXPECT_EQ(store.state_of(root.cert->fingerprint()),
              rootstore::TrustState::kTrusted);
  }
}

}  // namespace
}  // namespace anchor::corpus
