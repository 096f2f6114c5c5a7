// The graph-verifier property suite: seeded random cross-sign DAGs
// (corpus/crosssign.hpp) drive three pinned properties —
// (a) the verifier's path search reaches exactly the root-terminating
//     paths an exhaustive reference search over the raw certificate list
//     finds, each of them once;
// (b) verdicts are invariant to pool insertion order (accept-if-any-path
//     cannot depend on which cross-sign edge is tried first);
// (c) a StoreView-backed verifier and a heap-backed verifier produce
//     byte-identical verdicts (serialized-result comparison).
// Plus the executable bane case (incidents::make_cross_sign), the
// path-budget / accept-if-any semantics on a hand-built cross-sign, and the
// link-check budget on a cross-signed ladder with no root on top.
#include "chain/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "chain/verifier.hpp"
#include "core/gcc.hpp"
#include "corpus/crosssign.hpp"
#include "cross_sign_ladder.hpp"
#include "incidents/incidents.hpp"
#include "rootstore/snapshot/view.hpp"
#include "rootstore/snapshot/writer.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"
#include "x509/oids.hpp"

namespace anchor::chain {
namespace {

using corpus::CrossSignConfig;
using corpus::CrossSignDag;
using corpus::make_cross_sign_dag;
using x509::CertPtr;

VerifyOptions tls_options(const CrossSignDag& dag, std::size_t leaf_index) {
  VerifyOptions options;
  options.time = CrossSignConfig{}.validation_time();
  options.hostname = dag.leaf_domains[leaf_index];
  return options;
}

// Everything observable about a verdict, rendered deterministically — the
// "byte-identical" comparison the StoreReader contract pins.
std::string render(const VerifyResult& result) {
  std::string out = result.ok ? "ok" : "fail";
  out += "|kind=";
  out += to_string(result.kind);
  out += "|error=";
  out += result.error;
  out += "|chain=";
  for (const auto& cert : result.chain) {
    out += cert->fingerprint_hex();
    out += ",";
  }
  out += "|explored=";
  out += std::to_string(result.paths_explored);
  out += "|truncated=";
  out += result.truncated ? "1" : "0";
  for (const auto& rejected : result.rejected_paths) {
    out += "|rejected:";
    out += to_string(rejected.kind);
    out += ":";
    out += rejected.detail;
    out += ":";
    for (const auto& fp : rejected.fingerprints) {
      out += fp;
      out += ",";
    }
  }
  return out;
}

// Exhaustive reference path search, written against the *flat* certificate
// list (no graph nodes, no subject index): every simple leaf-first
// sequence over `universe` whose links match subject/issuer DNs, whose
// length is at most `max_depth`, and whose final certificate is a trusted
// root in `store`. This is what ChainVerifier::verify's search must reach
// exactly.
std::set<std::vector<std::string>> reference_paths(
    const CertPtr& leaf, const std::vector<CertPtr>& universe,
    const rootstore::StoreReader& store, std::size_t max_depth) {
  std::set<std::vector<std::string>> out;
  std::vector<CertPtr> path{leaf};
  std::set<std::string> visited{leaf->fingerprint_hex()};
  std::function<void()> dfs = [&]() {
    // By value: deeper push_back calls may reallocate `path`.
    const CertPtr current = path.back();
    if (path.size() >= 2 &&
        store.find(current->fingerprint()) != nullptr) {
      std::vector<std::string> fps;
      fps.reserve(path.size());
      for (const auto& cert : path) fps.push_back(cert->fingerprint_hex());
      out.insert(std::move(fps));
    }
    if (path.size() >= max_depth) return;
    for (const auto& candidate : universe) {
      if (!(candidate->subject() == current->issuer())) continue;
      const std::string fp = candidate->fingerprint_hex();
      if (visited.contains(fp)) continue;
      visited.insert(fp);
      path.push_back(candidate);
      dfs();
      path.pop_back();
      visited.erase(fp);
    }
  };
  dfs();
  return out;
}

std::vector<CrossSignConfig> property_configs() {
  std::vector<CrossSignConfig> configs;
  for (std::uint64_t seed : {1, 2, 3, 7, 11}) {
    CrossSignConfig config;
    config.seed = seed;
    config.num_roots = 3 + static_cast<int>(seed % 3);
    config.distrusted_roots = 1;
    config.num_cas = 4 + static_cast<int>(seed % 3);
    config.extra_cross_signs = 3 + static_cast<int>(seed % 4);
    config.num_leaves = 5;
    configs.push_back(config);
  }
  return configs;
}

TEST(CertificateGraph, CrossSignsCollapseIntoOneLogicalNode) {
  CrossSignConfig config;
  config.seed = 5;
  config.extra_cross_signs = 6;
  CrossSignDag dag = make_cross_sign_dag(config);

  // One node per logical CA (roots + subordinates), regardless of how many
  // cross-sign certificates each accumulated.
  EXPECT_EQ(dag.pool.node_count(),
            static_cast<std::size_t>(config.num_roots + config.num_cas));
  EXPECT_EQ(dag.pool.size(), dag.ca_certs.size());
  EXPECT_GT(dag.pool.size(), dag.pool.node_count())
      << "config should have produced at least one cross-sign";

  // A distrusted root and its cross-sign are members of the same node, and
  // that node reports as poisoned.
  const CertPtr& distrusted_root = dag.root_certs.back();
  ASSERT_EQ(dag.store.state_of(distrusted_root->fingerprint()),
            rootstore::TrustState::kDistrusted);
  const GraphNode* node = dag.pool.node_of(*distrusted_root);
  ASSERT_NE(node, nullptr);
  EXPECT_GE(node->certs.size(), 2u)
      << "the generator guarantees a bane cross-sign for distrusted roots";
  for (const auto& member : node->certs) {
    EXPECT_EQ(dag.pool.node_of(*member), node);
  }
  const CertPtr* poisoned = distrusted_member(*node, dag.store);
  ASSERT_NE(poisoned, nullptr);
  EXPECT_EQ((*poisoned)->fingerprint_hex(),
            distrusted_root->fingerprint_hex());
}

TEST(GraphProperty, EnumerationMatchesExhaustiveReference) {
  std::size_t multi_path_leaves = 0;
  for (const CrossSignConfig& config : property_configs()) {
    CrossSignDag dag = make_cross_sign_dag(config);
    // Every trusted root cuts off TLS trust before any leaf was issued, so
    // every path that reaches a root is rejected there and recorded: the
    // rejected paths are exactly the root-terminating paths the search
    // reached.
    rootstore::RootStore store = dag.store;
    for (const rootstore::RootEntry* entry : dag.store.trusted()) {
      rootstore::RootMetadata cutoff = entry->metadata;
      cutoff.tls_distrust_after = 1;
      ASSERT_TRUE(store.add_trusted(entry->cert, cutoff).ok());
    }
    ChainVerifier verifier(store, dag.signatures);
    for (std::size_t i = 0; i < dag.leaves.size(); ++i) {
      VerifyOptions options = tls_options(dag, i);
      options.graph_distrust = false;
      options.max_paths = 1024;
      const VerifyResult result = verifier.verify(dag.leaves[i], dag.pool,
                                                  options);
      ASSERT_FALSE(result.ok);
      ASSERT_FALSE(result.truncated) << "budget must not truncate";
      std::set<std::vector<std::string>> got;
      for (const RejectedPath& rejected : result.rejected_paths) {
        got.insert(rejected.fingerprints);
      }
      EXPECT_EQ(got.size(), result.rejected_paths.size())
          << "the search must try each candidate path once";
      auto expected = reference_paths(dag.leaves[i], dag.ca_certs, store, 8);
      EXPECT_EQ(got, expected)
          << "seed " << config.seed << " leaf " << dag.leaf_domains[i];
      if (expected.size() > 1) ++multi_path_leaves;
    }
  }
  // The property is vacuous on trees; the corpus must exercise real
  // cross-sign fan-out somewhere.
  EXPECT_GT(multi_path_leaves, 0u);
}

TEST(GraphProperty, VerdictInvariantToPoolInsertionOrder) {
  for (const CrossSignConfig& config : property_configs()) {
    CrossSignDag dag = make_cross_sign_dag(config);
    // Raise the budget far above anything the DAG can produce so verdicts
    // reflect the full path set in every ordering.
    for (std::size_t i = 0; i < dag.leaves.size(); ++i) {
      VerifyOptions options = tls_options(dag, i);
      options.max_paths = 10000;
      const VerifyResult baseline =
          ChainVerifier(dag.store, dag.signatures)
              .verify(dag.leaves[i], dag.pool, options);
      ASSERT_FALSE(baseline.truncated);

      std::vector<CertPtr> certs = dag.ca_certs;
      for (int permutation = 0; permutation < 4; ++permutation) {
        if (permutation == 3) {
          std::reverse(certs.begin(), certs.end());
        } else {
          std::rotate(certs.begin(), certs.begin() + permutation + 1,
                      certs.end());
        }
        CertificatePool reordered;
        reordered.add_all(certs);
        const VerifyResult got = ChainVerifier(dag.store, dag.signatures)
                                     .verify(dag.leaves[i], reordered, options);
        EXPECT_EQ(got.ok, baseline.ok)
            << "seed " << config.seed << " leaf " << dag.leaf_domains[i]
            << " permutation " << permutation;
        EXPECT_FALSE(got.truncated);
      }
    }
  }
}

TEST(GraphProperty, ViewBackedAndHeapBackedVerdictsAreByteIdentical) {
  for (const CrossSignConfig& config : property_configs()) {
    CrossSignDag dag = make_cross_sign_dag(config);
    Bytes image = rootstore::snapshot::write_snapshot(dag.store);
    auto opened = rootstore::snapshot::StoreView::from_bytes(std::move(image));
    ASSERT_TRUE(opened.ok()) << "seed " << config.seed;

    ChainVerifier heap_verifier(dag.store, dag.signatures);
    ChainVerifier view_verifier(*opened.view, dag.signatures);
    for (std::size_t i = 0; i < dag.leaves.size(); ++i) {
      const VerifyOptions options = tls_options(dag, i);
      EXPECT_EQ(render(heap_verifier.verify(dag.leaves[i], dag.pool, options)),
                render(view_verifier.verify(dag.leaves[i], dag.pool, options)))
          << "seed " << config.seed << " leaf " << dag.leaf_domains[i];
    }
  }
}

TEST(GraphDifferential, NonCrossSignedCorpusUnchangedByGraphSemantics) {
  // A pure tree (no cross-signs, nothing distrusted): the graph walk and
  // the pre-graph tree walk must agree on every observable byte — the
  // redesign's no-regression pin for the common case.
  CrossSignConfig config;
  config.seed = 21;
  config.num_roots = 3;
  config.distrusted_roots = 0;
  config.num_cas = 5;
  config.extra_cross_signs = 0;
  config.num_leaves = 6;
  CrossSignDag dag = make_cross_sign_dag(config);
  ASSERT_EQ(dag.pool.size(), dag.pool.node_count()) << "tree, by construction";

  ChainVerifier verifier(dag.store, dag.signatures);
  for (std::size_t i = 0; i < dag.leaves.size(); ++i) {
    VerifyOptions graph_options = tls_options(dag, i);
    graph_options.graph_distrust = true;
    VerifyOptions tree_options = tls_options(dag, i);
    tree_options.graph_distrust = false;
    const VerifyResult with_graph =
        verifier.verify(dag.leaves[i], dag.pool, graph_options);
    const VerifyResult without_graph =
        verifier.verify(dag.leaves[i], dag.pool, tree_options);
    EXPECT_TRUE(with_graph.ok) << dag.leaf_domains[i];
    EXPECT_EQ(render(with_graph), render(without_graph)) << dag.leaf_domains[i];
  }
}

TEST(GraphBaneCase, ResurrectionRejectedByGraphAcceptedByTreeWalk) {
  incidents::Incident incident = incidents::make_cross_sign();
  ChainVerifier verifier(incident.store, incident.signatures);
  bool saw_resurrection = false;
  for (const incidents::IncidentCase& tc : incident.cases) {
    VerifyOptions graph_options = tc.options;
    graph_options.graph_distrust = true;
    VerifyOptions tree_options = tc.options;
    tree_options.graph_distrust = false;
    const VerifyResult graph_verdict =
        verifier.verify(tc.leaf, incident.pool, graph_options);
    const VerifyResult tree_verdict =
        verifier.verify(tc.leaf, incident.pool, tree_options);

    EXPECT_EQ(graph_verdict.ok, tc.expect_valid) << tc.label;
    if (tc.expect_valid) {
      EXPECT_TRUE(tree_verdict.ok) << tc.label;
      continue;
    }
    saw_resurrection = true;
    // The disparity: the tree walk silently accepts the resurrected path.
    EXPECT_TRUE(tree_verdict.ok) << tc.label;
    // The graph rejection is structural, not a diagnostic substring: the
    // verdict kind is kDistrusted and a recorded rejected path carries it.
    EXPECT_EQ(graph_verdict.kind, ErrorKind::kDistrusted) << tc.label;
    bool recorded = false;
    for (const RejectedPath& rejected : graph_verdict.rejected_paths) {
      if (rejected.kind != ErrorKind::kDistrusted) continue;
      recorded = true;
      EXPECT_FALSE(rejected.fingerprints.empty());
      EXPECT_EQ(rejected.fingerprints.size(), rejected.subjects.size());
      // The legacy rendering shim still produces the human line.
      EXPECT_NE(to_string(rejected).find(" | "), std::string::npos);
    }
    EXPECT_TRUE(recorded) << tc.label;
  }
  EXPECT_TRUE(saw_resurrection);
}

// Hand-built two-edge cross-sign: CA X holds certificates from roots T1
// (whose metadata cuts off TLS trust) and T2 (clean). Pins the
// accept-if-any-path semantics, the structural RejectedPath record for the
// failed candidate, and the max_paths budget surfacing as `truncated`.
TEST(GraphSearch, AcceptIfAnyPathAndBudgetTruncation) {
  constexpr std::int64_t kNow = 1700000000;
  SimSig signatures;
  SimKeyPair t1_key = SimSig::keygen("Budget Root One");
  SimKeyPair t2_key = SimSig::keygen("Budget Root Two");
  SimKeyPair ca_key = SimSig::keygen("Budget CA");
  auto root_cert = [&](const std::string& name, const SimKeyPair& key) {
    return x509::CertificateBuilder()
        .serial(1)
        .subject(x509::DistinguishedName::make(name, "T"))
        .issuer(x509::DistinguishedName::make(name, "T"))
        .validity(0, unix_date(2040, 1, 1))
        .public_key(key.key_id)
        .ca(std::nullopt)
        .sign(key)
        .take();
  };
  CertPtr t1 = root_cert("Budget Root One", t1_key);
  CertPtr t2 = root_cert("Budget Root Two", t2_key);
  auto cross = [&](const CertPtr& issuer, const SimKeyPair& issuer_key,
                   std::uint64_t serial) {
    return x509::CertificateBuilder()
        .serial(serial)
        .subject(x509::DistinguishedName::make("Budget CA", "T"))
        .issuer(issuer->subject())
        .validity(0, unix_date(2039, 1, 1))
        .public_key(ca_key.key_id)
        .ca(std::nullopt)
        .sign(issuer_key)
        .take();
  };
  CertPtr via_t1 = cross(t1, t1_key, 2);
  CertPtr via_t2 = cross(t2, t2_key, 3);
  SimKeyPair leaf_key = SimSig::keygen("budget-leaf");
  CertPtr leaf = x509::CertificateBuilder()
                     .serial(4)
                     .subject(x509::DistinguishedName::make("pay.example.com"))
                     .issuer(via_t1->subject())
                     .validity(kNow - 86400, kNow + 86400)
                     .public_key(leaf_key.key_id)
                     .dns_names({"pay.example.com"})
                     .extended_key_usage({x509::oids::kp_server_auth()})
                     .sign(ca_key)
                     .take();
  signatures.register_key(t1_key);
  signatures.register_key(t2_key);
  signatures.register_key(ca_key);

  rootstore::RootStore store;
  rootstore::RootMetadata cutoff;
  cutoff.tls_distrust_after = 1;  // every modern leaf is past the cutoff
  (void)store.add_trusted(t1, cutoff);
  (void)store.add_trusted(t2);
  CertificatePool pool;
  pool.add(via_t1);
  pool.add(via_t2);

  VerifyOptions options;
  options.time = kNow;
  options.hostname = "pay.example.com";

  // Both certificates are edges of one logical CA node.
  EXPECT_EQ(pool.node_count(), 1u);
  ChainVerifier verifier(store, signatures);

  // Default budget: the T1 path is reached first, rejected at the root's
  // tls-distrust-after cutoff, recorded, and the search continues to the
  // accepting T2 path.
  VerifyResult accepted = verifier.verify(leaf, pool, options);
  ASSERT_TRUE(accepted.ok);
  EXPECT_EQ(accepted.kind, ErrorKind::kOk);
  ASSERT_EQ(accepted.chain.size(), 3u);
  EXPECT_EQ(accepted.chain.back()->fingerprint_hex(), t2->fingerprint_hex());
  EXPECT_EQ(accepted.paths_explored, 2u);
  EXPECT_FALSE(accepted.truncated);
  ASSERT_EQ(accepted.rejected_paths.size(), 1u);
  EXPECT_EQ(accepted.rejected_paths[0].kind, ErrorKind::kUsageViolation);
  EXPECT_EQ(accepted.rejected_paths[0].fingerprints.back(),
            t1->fingerprint_hex());

  // A budget of one candidate path stops the search after the rejected T1
  // path — and says so, instead of silently narrowing accept-if-any.
  options.max_paths = 1;
  VerifyResult truncated = verifier.verify(leaf, pool, options);
  EXPECT_FALSE(truncated.ok);
  EXPECT_TRUE(truncated.truncated);
  EXPECT_EQ(truncated.kind, ErrorKind::kUsageViolation);
  EXPECT_NE(truncated.error.find("path budget"), std::string::npos);
  EXPECT_EQ(truncated.paths_explored, 1u);
}

// Counts the signature checks that reach the scheme.
class CountingScheme final : public SignatureScheme {
 public:
  explicit CountingScheme(const SignatureScheme& inner) : inner_(inner) {}
  bool verify(BytesView key_id, BytesView message,
              BytesView signature) const override {
    ++calls;
    return inner_.verify(key_id, message, signature);
  }
  mutable std::size_t calls = 0;

 private:
  const SignatureScheme& inner_;
};

// Six CAs per level, seven levels, nothing trusted on top: some 600,000
// candidate links, none ending at a root, so the max_paths bound alone
// never fires. The link-check budget stops the search, fails closed and
// says so.
TEST(GraphSearch, CrossSignLadderStopsAtStepBudget) {
  SimSig signatures;
  CrossSignLadder ladder = make_cross_sign_ladder(signatures, 7, 6);
  CertificatePool pool;
  pool.add_all(ladder.cas);
  rootstore::RootStore store;
  CountingScheme counting(signatures);
  ChainVerifier verifier(store, counting);

  VerifyOptions options;
  options.time = CrossSignLadder::kNow;
  options.hostname = CrossSignLadder::kHost;
  const VerifyResult result = verifier.verify(ladder.leaf, pool, options);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.kind, ErrorKind::kBadSignature);
  EXPECT_NE(result.error.find("path budget"), std::string::npos);
  EXPECT_EQ(result.paths_explored, 0u);
  EXPECT_GT(counting.calls, 0u);
  EXPECT_LE(counting.calls, options.max_paths * options.max_depth);
}

// leaf <- I <- R with R trusted, denied by its GCC, and also in the pool:
// the search tries the one path leaf <- I <- R once, as an anchor, and
// does not try it again after extending through the pooled R.
TEST(GraphSearch, PooledRootIsTriedOnce) {
  constexpr std::int64_t kNow = 1700000000;
  SimSig signatures;
  SimKeyPair root_key = SimSig::keygen("Once Root");
  SimKeyPair int_key = SimSig::keygen("Once Int");
  SimKeyPair leaf_key = SimSig::keygen("once-leaf");
  signatures.register_key(root_key);
  signatures.register_key(int_key);
  CertPtr root = x509::CertificateBuilder()
                     .serial(1)
                     .subject(x509::DistinguishedName::make("Once Root", "T"))
                     .issuer(x509::DistinguishedName::make("Once Root", "T"))
                     .validity(0, unix_date(2040, 1, 1))
                     .public_key(root_key.key_id)
                     .ca(std::nullopt)
                     .sign(root_key)
                     .take();
  CertPtr intermediate =
      x509::CertificateBuilder()
          .serial(2)
          .subject(x509::DistinguishedName::make("Once Int", "T"))
          .issuer(root->subject())
          .validity(0, unix_date(2039, 1, 1))
          .public_key(int_key.key_id)
          .ca(0)
          .sign(root_key)
          .take();
  CertPtr leaf = x509::CertificateBuilder()
                     .serial(3)
                     .subject(x509::DistinguishedName::make("once.example.com"))
                     .issuer(intermediate->subject())
                     .validity(kNow - 86400, kNow + 86400)
                     .public_key(leaf_key.key_id)
                     .dns_names({"once.example.com"})
                     .extended_key_usage({x509::oids::kp_server_auth()})
                     .sign(int_key)
                     .take();

  rootstore::RootStore store;
  ASSERT_TRUE(store.add_trusted(root).ok());
  store.attach_gcc(core::Gcc::for_certificate(
                       "ev-only", *root,
                       "valid(Chain, _) :- leaf(Chain, L), ev(L).")
                       .take());
  CertificatePool pool;
  pool.add(intermediate);
  pool.add(root);

  VerifyOptions options;
  options.time = kNow;
  options.hostname = "once.example.com";
  const VerifyResult result =
      ChainVerifier(store, signatures).verify(leaf, pool, options);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.kind, ErrorKind::kGccDenied);
  EXPECT_EQ(result.paths_explored, 1u);
  EXPECT_EQ(result.gcc_verdict.gccs_evaluated, 1u);
  ASSERT_EQ(result.rejected_paths.size(), 1u);
  EXPECT_EQ(result.rejected_paths[0].fingerprints,
            (std::vector<std::string>{leaf->fingerprint_hex(),
                                      intermediate->fingerprint_hex(),
                                      root->fingerprint_hex()}));
}

}  // namespace
}  // namespace anchor::chain
