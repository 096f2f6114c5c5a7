// End-to-end scenarios spanning the whole stack: corpus generation, GCC
// authoring, RSF distribution, client sync, and chain validation with the
// GCC hook. The centerpiece replays the paper's motivating story (§2.3):
// Mozilla ships partial Symantec distrust; Debian's bare-collection mirror
// must choose between breakage and exposure; an RSF+GCC derivative matches
// the primary exactly.
#include <gtest/gtest.h>

#include "chain/verifier.hpp"
#include "corpus/corpus.hpp"
#include "incidents/incidents.hpp"
#include "incidents/listings.hpp"
#include "rsf/client.hpp"
#include "util/time.hpp"

namespace anchor {
namespace {

TEST(Integration, SymantecStoryEndToEnd) {
  incidents::Incident symantec = incidents::make_symantec();

  // The primary publishes its store (root + Listing 2 GCC) over an RSF.
  SimSig registry;
  rsf::Feed feed("mozilla", registry);
  feed.publish(symantec.store, unix_date(2018, 5, 1), "Symantec distrust");

  // Derivative 1: RSF client — receives certificates AND the GCC.
  rsf::RsfClient modern(feed, 3600);
  modern.poll_now(unix_date(2018, 5, 2));
  ASSERT_EQ(modern.store().gccs().total(), 1u);

  // Derivative 2: bare-collection manual mirror — certificates only.
  rsf::ManualMirrorClient legacy(feed, /*strip_gccs=*/true);
  legacy.manual_sync(unix_date(2018, 5, 2));
  ASSERT_EQ(legacy.store().gccs().total(), 0u);

  chain::ChainVerifier primary_verifier(symantec.store, symantec.signatures);
  chain::ChainVerifier modern_verifier(modern.store(), symantec.signatures);
  chain::ChainVerifier legacy_verifier(legacy.store(), symantec.signatures);

  std::size_t divergences_modern = 0;
  std::size_t divergences_legacy = 0;
  for (const auto& test_case : symantec.cases) {
    bool primary = primary_verifier
                       .verify(test_case.leaf, symantec.pool, test_case.options)
                       .ok;
    bool modern_verdict =
        modern_verifier.verify(test_case.leaf, symantec.pool, test_case.options)
            .ok;
    bool legacy_verdict =
        legacy_verifier.verify(test_case.leaf, symantec.pool, test_case.options)
            .ok;
    EXPECT_EQ(primary, test_case.expect_valid) << test_case.label;
    if (modern_verdict != primary) ++divergences_modern;
    if (legacy_verdict != primary) ++divergences_legacy;
  }
  // The RSF+GCC derivative mirrors the primary exactly; the bare mirror
  // diverges (it accepts the post-cutoff chain the primary rejects).
  EXPECT_EQ(divergences_modern, 0u);
  EXPECT_GT(divergences_legacy, 0u);
}

TEST(Integration, DebianDilemmaQuantified) {
  // §2.3: removing the root breaks service (false rejections); keeping it
  // accepts fraud (false acceptances); a GCC does neither.
  incidents::Incident symantec = incidents::make_symantec();

  std::size_t should_accept = 0;
  std::size_t should_reject = 0;
  for (const auto& test_case : symantec.cases) {
    (test_case.expect_valid ? should_accept : should_reject)++;
  }
  ASSERT_GT(should_accept, 0u);
  ASSERT_GT(should_reject, 0u);

  // Option 1: full removal.
  rootstore::RootStore removal_store;  // empty: root removed
  chain::ChainVerifier removal(removal_store, symantec.signatures);
  std::size_t removal_false_rejects = 0;
  for (const auto& test_case : symantec.cases) {
    if (!test_case.expect_valid) continue;
    if (!removal.verify(test_case.leaf, symantec.pool, test_case.options).ok) {
      ++removal_false_rejects;
    }
  }
  EXPECT_EQ(removal_false_rejects, should_accept);  // total breakage

  // Option 2: full retention without GCCs.
  chain::ChainVerifier retention(symantec.store, symantec.signatures);
  std::size_t retention_false_accepts = 0;
  for (const auto& test_case : symantec.cases) {
    if (test_case.expect_valid) continue;
    chain::VerifyOptions no_gcc = test_case.options;
    no_gcc.run_gccs = false;
    if (retention.verify(test_case.leaf, symantec.pool, no_gcc).ok) {
      ++retention_false_accepts;
    }
  }
  EXPECT_GT(retention_false_accepts, 0u);

  // Option 3: GCC — zero divergence in both directions.
  std::size_t gcc_errors = 0;
  for (const auto& test_case : symantec.cases) {
    bool verdict =
        retention.verify(test_case.leaf, symantec.pool, test_case.options).ok;
    if (verdict != test_case.expect_valid) ++gcc_errors;
  }
  EXPECT_EQ(gcc_errors, 0u);
}

TEST(Integration, EmergencyDistrustViaFeedStopsMitm) {
  // A corpus CA is compromised; the primary distrusts it through the feed;
  // a polling derivative stops accepting the fraudulent chain within its
  // poll interval.
  corpus::CorpusConfig config;
  config.num_roots = 10;
  config.num_intermediates = 20;
  config.roots_with_path_len = 1;
  config.intermediates_with_path_len = 15;
  config.intermediates_with_name_constraints = 2;
  config.roots_with_constrained_chain = 1;
  config.leaves_per_intermediate_mean = 3.0;
  corpus::Corpus corpus = corpus::Corpus::generate(config);
  std::int64_t now = corpus.config().validation_time();

  rootstore::RootStore primary = corpus.make_root_store();
  SimSig registry;
  rsf::Feed feed("nss", registry);
  feed.publish(primary, now - 7200, "baseline");

  rsf::RsfClient derivative(feed, 3600);
  derivative.poll_now(now - 7000);

  x509::CertPtr fraud = corpus.misissue(0, "login.victim.example", now - 86400);
  chain::CertificatePool pool = corpus.intermediate_pool();
  chain::VerifyOptions options;
  options.time = now;
  options.hostname = "login.victim.example";

  chain::ChainVerifier before(derivative.store(), corpus.signatures());
  EXPECT_TRUE(before.verify(fraud, pool, options).ok);  // MITM works today

  // Incident response: distrust the compromised intermediate's root.
  const auto& intermediate = corpus.intermediates()[0];
  const Sha256::Digest& root_hash =
      corpus.roots()[static_cast<std::size_t>(intermediate.parent_root)]
          .cert->fingerprint();
  primary.distrust(root_hash, "key compromise");
  feed.publish(primary, now, "emergency");
  derivative.poll_now(now + 3600);

  chain::ChainVerifier after(derivative.store(), corpus.signatures());
  chain::VerifyResult result = after.verify(fraud, pool, options);
  // Either no path remains or all candidate paths are rejected.
  EXPECT_FALSE(result.ok);
}

TEST(Integration, PartialDistrustViaGccAvoidsCollateralDamage) {
  // Same incident, but the response is a GCC pinning the root to the
  // victim-free subset (pre-2016-style cutoff): legit old leaves survive,
  // the fraud (freshly issued) dies.
  corpus::CorpusConfig config;
  config.num_roots = 6;
  config.num_intermediates = 10;
  config.roots_with_path_len = 0;
  config.intermediates_with_path_len = 8;
  config.intermediates_with_name_constraints = 1;
  config.roots_with_constrained_chain = 1;
  config.leaves_per_intermediate_mean = 6.0;
  corpus::Corpus corpus = corpus::Corpus::generate(config);
  std::int64_t now = corpus.config().validation_time();

  const auto& intermediate = corpus.intermediates()[0];
  std::size_t root_index = static_cast<std::size_t>(intermediate.parent_root);
  const x509::Certificate& root = *corpus.roots()[root_index].cert;

  rootstore::RootStore store = corpus.make_root_store();
  std::string cutoff_gcc =
      "cutoff(" + std::to_string(now - 7 * 86400) + ").\n" +
      "valid(Chain, _) :- leaf(Chain, L), notBefore(L, NB), cutoff(T), NB < T.";
  store.attach_gcc(
      core::Gcc::for_certificate("incident-cutoff", root, cutoff_gcc).take());

  chain::ChainVerifier verifier(store, corpus.signatures());
  chain::CertificatePool pool = corpus.intermediate_pool();

  // Fraud issued yesterday: blocked by the cutoff.
  x509::CertPtr fraud = corpus.misissue(0, "mitm.victim.example", now - 86400);
  chain::VerifyOptions options;
  options.time = now;
  options.hostname = "mitm.victim.example";
  EXPECT_FALSE(verifier.verify(fraud, pool, options).ok);

  // Old legitimate leaves under the same root keep validating.
  std::size_t old_ok = 0;
  for (std::size_t i = 0; i < corpus.leaves().size(); ++i) {
    const auto& record = corpus.leaves()[i];
    const auto& issuer = corpus.intermediates()[static_cast<std::size_t>(
        record.issuer_intermediate)];
    if (static_cast<std::size_t>(issuer.parent_root) != root_index) continue;
    if (record.smime) continue;
    if (record.cert->not_before() >= now - 7 * 86400) continue;
    // The cutoff GCC keys on notBefore, not the validation instant, so
    // validate each old leaf inside its own validity window.
    chain::VerifyOptions leaf_options;
    leaf_options.time =
        (record.cert->not_before() + record.cert->not_after()) / 2;
    leaf_options.hostname = record.domain;
    if (verifier.verify(record.cert, pool, leaf_options).ok) ++old_ok;
  }
  EXPECT_GT(old_ok, 0u);
}

TEST(Integration, StoreSurvivesFeedRoundTripWithGccsIntact) {
  incidents::Incident turktrust = incidents::make_turktrust();
  SimSig registry;
  rsf::Feed feed("mozilla", registry);
  feed.publish(turktrust.store, 1000, "turktrust response");
  rsf::RsfClient client(feed, 3600);
  client.poll_now(2000);

  chain::ChainVerifier original(turktrust.store, turktrust.signatures);
  chain::ChainVerifier roundtripped(client.store(), turktrust.signatures);
  for (const auto& test_case : turktrust.cases) {
    EXPECT_EQ(
        original.verify(test_case.leaf, turktrust.pool, test_case.options).ok,
        roundtripped.verify(test_case.leaf, turktrust.pool, test_case.options)
            .ok)
        << test_case.label;
  }
}

}  // namespace
}  // namespace anchor
