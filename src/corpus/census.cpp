#include "corpus/census.hpp"

#include <cassert>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "chain/verifier.hpp"
#include "core/facts.hpp"
#include "rootstore/chromeproto.hpp"
#include "rsf/merge.hpp"

namespace anchor::corpus {

CensusReport run_census(const Corpus& corpus) {
  CensusReport report;
  report.roots_total = corpus.roots().size();
  report.intermediates_total = corpus.intermediates().size();

  for (const CaProfile& root : corpus.roots()) {
    if (root.cert->name_constraints() && !root.cert->name_constraints()->empty()) {
      ++report.roots_with_name_constraints;
    }
    if (root.cert->path_len().has_value()) ++report.roots_with_path_len;
  }

  std::unordered_set<int> constrained_chain_roots;
  for (const CaProfile& intermediate : corpus.intermediates()) {
    if (intermediate.cert->name_constraints() &&
        !intermediate.cert->name_constraints()->empty()) {
      ++report.intermediates_with_name_constraints;
      constrained_chain_roots.insert(intermediate.parent_root);
    }
    if (intermediate.cert->path_len().has_value()) {
      ++report.intermediates_with_path_len;
    }
  }
  report.roots_with_constrained_chain = constrained_chain_roots.size();
  return report;
}

namespace {

// The fixed validation context every census verdict runs under. Chrome-like
// constraint GCCs reference SCT timestamps, the client version, and the
// validation instant; the other two primaries ignore these facts.
rootstore::ChainContext census_context(const Corpus& corpus) {
  rootstore::ChainContext ctx;
  const std::int64_t now = corpus.config().validation_time();
  ctx.sct_timestamps = {now - 86400, now - 7200};
  ctx.client_version = rootstore::chromeproto::Version::parse("125.0.6368.2");
  ctx.validation_time = now;
  return ctx;
}

rootstore::RootStore make_mozilla_like(const Corpus& corpus) {
  // Trusts every corpus root, with NSS-style systematic metadata: a TLS
  // date-usage cutoff on a slice of roots, the EV bit on alternating
  // roots, plus a few explicit distrusts (negative inclusion).
  rootstore::RootStore store;
  // 45 days before the census instant: recently issued leaves under a
  // cutoff root are distrusted while older ones keep working — the NSS
  // partial-distrust pattern (§2.2).
  const std::int64_t cutoff = corpus.config().validation_time() - 45 * 86400;
  const auto& roots = corpus.roots();
  for (std::size_t i = 0; i < roots.size(); ++i) {
    rootstore::RootMetadata metadata;
    metadata.ev_allowed = (i % 2 == 0);
    metadata.justification = "mozilla-like census";
    if (i % 29 == 1) metadata.tls_distrust_after = cutoff;
    (void)store.add_trusted(roots[i].cert, std::move(metadata));
  }
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (i % 37 == 5) {
      store.distrust(roots[i].cert->fingerprint(), "census incident");
    }
  }
  return store;
}

// The chrome-like primary is deliberately NOT hand-assembled: we render a
// Chrome Root Store textproto and push it through the real ingestion
// pipeline (chromeproto::parse_store -> compile_store), so the census
// measures the store the compiler actually produces.
std::string render_chrome_textproto(const Corpus& corpus) {
  const std::int64_t now = corpus.config().validation_time();
  std::string text = "version_major: 1\n";
  const auto& roots = corpus.roots();
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (i % 23 == 3) continue;  // thinner root set than mozilla-like
    text += "trust_anchors {\n";
    text += "  sha256_hex: \"" + roots[i].cert->fingerprint_hex() + "\"\n";
    if (i % 13 == 0) {
      // An EV policy list that does NOT include the corpus EV marker:
      // EV leaves under these roots fail the ev-policy GCC.
      text += "  ev_policy_oids: \"1.3.6.1.4.1.11129.2.4.9\"\n";
    } else if (i % 2 == 0) {
      text += "  ev_policy_oids: \"2.23.140.1.1\"\n";
    }
    if (i % 5 == 0) {
      // Satisfiable SCT freshness bound (context SCTs predate it).
      text += "  constraints {\n";
      text += "    sct_not_after_sec: " + std::to_string(now + 86400) + "\n";
      text += "  }\n";
    }
    if (i % 7 == 0) {
      // Permit only the root's most popular TLD; leaves issued for the
      // rest of the root's scope fail unless another block passes.
      text += "  constraints {\n";
      text += "    permitted_dns_names: \"" + roots[i].tld_scope.front() +
              "\"\n";
      text += "  }\n";
    }
    if (i % 11 == 0) {
      // Version gate ahead of the census client (125.x): fails closed.
      text += "  constraints {\n";
      text += "    min_version: \"130\"\n";
      text += "  }\n";
    }
    text += "}\n";
  }
  return text;
}

rootstore::RootStore make_apple_like(const Corpus& corpus) {
  // A differently-thinned root set, uniform EV, its own distrusts, and
  // S/MIME date-usage cutoffs on a slice of roots.
  rootstore::RootStore store;
  const std::int64_t cutoff = corpus.config().validation_time() - 45 * 86400;
  const auto& roots = corpus.roots();
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (i % 19 == 2) continue;
    rootstore::RootMetadata metadata;
    metadata.ev_allowed = true;
    metadata.justification = "apple-like census";
    if (i % 17 == 4) metadata.smime_distrust_after = cutoff;
    (void)store.add_trusted(roots[i].cert, std::move(metadata));
  }
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (i % 43 == 11) {
      store.distrust(roots[i].cert->fingerprint(), "census incident");
    }
  }
  return store;
}

// Roots trusted by both stores whose attached GCC name sets differ.
std::size_t count_gcc_divergent_roots(const rootstore::RootStore& a,
                                      const rootstore::RootStore& b) {
  std::size_t divergent = 0;
  for (const rootstore::RootEntry* entry : a.trusted()) {
    const Sha256::Digest& hash = entry->cert->fingerprint();
    if (b.state_of(hash) != rootstore::TrustState::kTrusted) continue;
    std::unordered_set<std::string> names_a, names_b;
    for (const core::Gcc& gcc : a.gccs().for_root(hash)) {
      names_a.insert(gcc.name());
    }
    for (const core::Gcc& gcc : b.gccs().for_root(hash)) {
      names_b.insert(gcc.name());
    }
    if (names_a != names_b) ++divergent;
  }
  return divergent;
}

}  // namespace

PrimaryStores make_primary_stores(const Corpus& corpus) {
  PrimaryStores primaries;
  primaries.stores[0] = make_mozilla_like(corpus);
  primaries.stores[2] = make_apple_like(corpus);

  primaries.chrome_textproto = render_chrome_textproto(corpus);
  rootstore::chromeproto::ParseResult parsed =
      rootstore::chromeproto::parse_store(primaries.chrome_textproto);
  // The textproto is generated by this file; a parse failure is a bug
  // here, not a data problem.
  assert(parsed.ok());
  std::unordered_map<Sha256::Digest, x509::CertPtr, DigestHash> by_hash;
  for (const CaProfile& root : corpus.roots()) {
    by_hash.emplace(root.cert->fingerprint(), root.cert);
  }
  auto resolver = [&by_hash](const Sha256::Digest& sha256) -> x509::CertPtr {
    auto it = by_hash.find(sha256);
    return it == by_hash.end() ? nullptr : it->second;
  };
  primaries.chrome_compile =
      rootstore::compile_store(*parsed.store, resolver, primaries.stores[1])
          .take();
  const auto& roots = corpus.roots();
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (i % 41 == 7) {
      primaries.stores[1].distrust(roots[i].cert->fingerprint(),
                                   "census incident");
    }
  }
  return primaries;
}

DisparityReport run_disparity_census(const Corpus& corpus,
                                     const PrimaryStores& primaries) {
  DisparityReport report;
  report.pairs = {DisparityPair{.a = 0, .b = 1}, DisparityPair{.a = 0, .b = 2},
                  DisparityPair{.a = 1, .b = 2}};

  const chain::CertificatePool pool = corpus.intermediate_pool();
  std::array<std::optional<chain::ChainVerifier>, kPrimaryCount> verifiers;
  for (std::size_t s = 0; s < kPrimaryCount; ++s) {
    verifiers[s].emplace(primaries.stores[s], corpus.signatures());
  }
  const rootstore::ChainContext context = census_context(corpus);

  const std::int64_t now = corpus.config().validation_time();
  for (const LeafRecord& leaf : corpus.leaves()) {
    // A leaf outside its validity window is rejected as expired by every
    // store alike; verifying it would only dilute the rates.
    if (!leaf.cert->valid_at(now)) {
      ++report.skipped_not_valid;
      continue;
    }
    ++report.chains;
    const CaProfile& issuer =
        corpus.intermediates()[static_cast<std::size_t>(
            leaf.issuer_intermediate)];
    const Sha256::Digest& true_root =
        corpus.roots()[static_cast<std::size_t>(issuer.parent_root)]
            .cert->fingerprint();

    chain::VerifyOptions options;
    options.time = now;
    options.usage = leaf.smime ? chain::Usage::kSmime : chain::Usage::kTls;
    if (!leaf.smime) options.hostname = leaf.domain;
    const core::FactSet context_facts =
        context.to_facts("chain-" + leaf.cert->fingerprint_hex());
    options.gcc_context = &context_facts;

    std::array<bool, kPrimaryCount> verdict{};
    for (std::size_t s = 0; s < kPrimaryCount; ++s) {
      verdict[s] = verifiers[s]->verify(leaf.cert, pool, options).ok;
      if (verdict[s]) ++report.accepted[s];
    }

    for (DisparityPair& pair : report.pairs) {
      if (verdict[pair.a] == verdict[pair.b]) continue;
      ++pair.flips;
      const bool a_trusts = primaries.stores[pair.a].state_of(true_root) ==
                            rootstore::TrustState::kTrusted;
      const bool b_trusts = primaries.stores[pair.b].state_of(true_root) ==
                            rootstore::TrustState::kTrusted;
      if (a_trusts != b_trusts) {
        // The stores disagree about the root itself: a binary
        // trusted/untrusted bit expresses this disparity.
        ++pair.root_level;
      } else {
        // Both trust the root; the flip lives in GCCs or systematic
        // metadata — invisible to a binary trust bit.
        ++pair.constraint_level;
      }
    }
  }

  for (DisparityPair& pair : report.pairs) {
    pair.gcc_divergent_roots = count_gcc_divergent_roots(
        primaries.stores[pair.a], primaries.stores[pair.b]);
    rsf::MergeResult merged =
        rsf::merge(primaries.stores[pair.a], primaries.stores[pair.b]);
    pair.merge_conflicts = merged.conflicts.size();
    pair.merged_trusted = merged.merged.trusted_count();
    pair.merged_gccs = merged.merged.gccs().total();
    report.constraint_only_flips += pair.constraint_level;
  }
  return report;
}

}  // namespace anchor::corpus
