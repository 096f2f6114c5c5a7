// Experiment E15 — multi-primary disparity census. Three primaries
// (mozilla-like, chrome-like, apple-like) are modeled as distinct
// RootStores over the shared corpus; the chrome-like store is built
// end-to-end from a generated Chrome Root Store textproto through
// chromeproto::parse_store + compile_store, so its constraints arrive as
// real GCCs. Every corpus chain is verified under all three and every
// pairwise verdict flip is classified:
//
//   root-level       — the stores disagree about the root's trust bit;
//                      today's binary root stores can express this;
//   constraint-level — both stores trust the root and the flip lives in
//                      GCCs or systematic metadata (date-usage cutoffs,
//                      SCT/DNS/version constraints), which a binary
//                      trusted/untrusted bit cannot express (§4).
//
// The pairwise rsf::merge results show that GCC-carrying merges preserve
// exactly those constraint-level disparities (merged GCC counts,
// gcc-divergent roots) while a binary merge would flatten them.
// Appended below: the cross-sign resurrection census — the same corpus
// chains plus adversarial cross-sign DAGs verified under the tree-walk
// baseline (graph_distrust = false) and the graph search, counting leaves
// a distrusted-but-cross-signed CA would silently resurrect.
#include <cstdio>
#include <string>

#include "chain/verifier.hpp"
#include "corpus/census.hpp"
#include "corpus/corpus.hpp"
#include "corpus/crosssign.hpp"
#include "incidents/incidents.hpp"

namespace {

// Verifies every leaf of a cross-sign universe twice — graph semantics on
// and off — and tallies the verdict pairs.
struct ResurrectionCensus {
  std::size_t leaves = 0;
  std::size_t both_accept = 0;
  std::size_t both_reject = 0;
  std::size_t resurrected = 0;     // tree accepts, graph rejects (the bane)
  std::size_t graph_only = 0;      // graph accepts, tree rejects (must be 0)
};

void census_leaf(const anchor::chain::ChainVerifier& verifier,
                 const anchor::x509::CertPtr& leaf,
                 const anchor::chain::CertificatePool& pool,
                 anchor::chain::VerifyOptions options,
                 ResurrectionCensus& census) {
  options.graph_distrust = false;
  bool tree = verifier.verify(leaf, pool, options).ok;
  options.graph_distrust = true;
  bool graph = verifier.verify(leaf, pool, options).ok;
  ++census.leaves;
  if (tree && graph) ++census.both_accept;
  if (!tree && !graph) ++census.both_reject;
  if (tree && !graph) ++census.resurrected;
  if (!tree && graph) ++census.graph_only;
}

ResurrectionCensus run_resurrection_census() {
  ResurrectionCensus census;

  // Adversarial DAGs: several seeds, each guaranteeing at least one live
  // cross-sign into a distrusted root.
  for (std::uint64_t seed : {3, 9, 17, 29, 41}) {
    anchor::corpus::CrossSignConfig config;
    config.seed = seed;
    config.num_roots = 4 + static_cast<int>(seed % 3);
    config.distrusted_roots = 1 + static_cast<int>(seed % 2);
    config.num_cas = 6;
    config.extra_cross_signs = 5;
    config.num_leaves = 12;
    anchor::corpus::CrossSignDag dag =
        anchor::corpus::make_cross_sign_dag(config);
    anchor::chain::ChainVerifier verifier(dag.store, dag.signatures);
    for (std::size_t i = 0; i < dag.leaves.size(); ++i) {
      anchor::chain::VerifyOptions options;
      options.time = config.validation_time();
      options.hostname = dag.leaf_domains[i];
      options.max_paths = 4096;
      census_leaf(verifier, dag.leaves[i], dag.pool, options, census);
    }
  }

  // The executable incident: the 2021-style resurrection scenario.
  anchor::incidents::Incident incident = anchor::incidents::make_cross_sign();
  anchor::chain::ChainVerifier verifier(incident.store, incident.signatures);
  for (const auto& test_case : incident.cases) {
    census_leaf(verifier, test_case.leaf, incident.pool, test_case.options,
                census);
  }
  return census;
}

}  // namespace

int main() {
  anchor::corpus::CorpusConfig config;
  anchor::corpus::Corpus corpus = anchor::corpus::Corpus::generate(config);
  anchor::corpus::PrimaryStores primaries =
      anchor::corpus::make_primary_stores(corpus);
  anchor::corpus::DisparityReport report =
      anchor::corpus::run_disparity_census(corpus, primaries);

  std::printf("=== E15: multi-primary disparity census (paper §4) ===\n");
  std::printf("chains verified: %zu (valid at the census time; %zu expired "
              "or not yet valid leaves skipped)\n\n",
              report.chains, report.skipped_not_valid);

  std::printf("%-14s %10s %10s %10s %8s\n", "primary", "trusted", "gccs",
              "accepted", "rate");
  for (std::size_t s = 0; s < anchor::corpus::kPrimaryCount; ++s) {
    const auto& store = primaries.stores[s];
    std::printf("%-14s %10zu %10zu %10zu %7.1f%%\n",
                anchor::corpus::kPrimaryNames[s], store.trusted_count(),
                store.gccs().total(), report.accepted[s],
                100.0 * static_cast<double>(report.accepted[s]) /
                    static_cast<double>(report.chains));
  }
  std::printf("\nchrome-like ingestion: %zu anchors parsed, %zu blocks, "
              "%zu gccs, %zu clauses, %zu anchors resolved, %zu unresolved\n",
              primaries.chrome_compile.stats.anchors,
              primaries.chrome_compile.stats.blocks,
              primaries.chrome_compile.stats.gccs,
              primaries.chrome_compile.stats.clauses,
              primaries.chrome_compile.anchors_with_cert,
              primaries.chrome_compile.anchors_without_cert);

  std::printf("\n%-28s %7s %11s %12s %9s %10s %8s %8s\n", "pair", "flips",
              "root-level", "constr-level", "gcc-div", "conflicts", "trusted",
              "gccs");
  for (const anchor::corpus::DisparityPair& pair : report.pairs) {
    std::string label = std::string(anchor::corpus::kPrimaryNames[pair.a]) +
                        " vs " + anchor::corpus::kPrimaryNames[pair.b];
    std::printf("%-28s %7zu %11zu %12zu %9zu %10zu %8zu %8zu\n", label.c_str(),
                pair.flips, pair.root_level, pair.constraint_level,
                pair.gcc_divergent_roots, pair.merge_conflicts,
                pair.merged_trusted, pair.merged_gccs);
  }

  std::printf("\nconstraint-level flips across all pairs: %zu\n",
              report.constraint_only_flips);
  std::printf("these are the disparities a binary trust bit cannot express; "
              "GCC merging preserves them.\n");

  // Sanity gates: the census must actually produce disparities of both
  // classes, or the experiment is vacuous.
  bool ok = report.chains > 0 && report.constraint_only_flips > 0;
  std::size_t root_level_total = 0;
  for (const auto& pair : report.pairs) root_level_total += pair.root_level;
  ok = ok && root_level_total > 0;
  std::printf("\noverall: %s\n", ok ? "DISPARITIES OBSERVED (both classes)"
                                    : "VACUOUS CENSUS");

  ResurrectionCensus census = run_resurrection_census();
  std::printf("\n=== cross-sign resurrection census (graph vs tree walk) "
              "===\n");
  std::printf("leaves verified twice: %zu\n", census.leaves);
  std::printf("%-44s %8zu\n", "accepted by both semantics", census.both_accept);
  std::printf("%-44s %8zu\n", "rejected by both semantics", census.both_reject);
  std::printf("%-44s %8zu\n",
              "resurrected (tree accepts, graph rejects)", census.resurrected);
  std::printf("%-44s %8zu\n",
              "graph-only accepts (must be zero)", census.graph_only);

  // Gates: the graph is a strict tightening (never accepts what the tree
  // walk rejects), and the corpus exercises the bane shape at least once.
  bool graph_ok = census.graph_only == 0 && census.resurrected > 0 &&
                  census.both_accept > 0;
  std::printf("\ngraph-vs-tree shape: %s\n",
              graph_ok ? "HOLDS (strict tightening, bane paths caught)"
                       : "VIOLATED");
  return (ok && graph_ok) ? 0 : 1;
}
