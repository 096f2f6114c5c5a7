// Constraint census (experiment E5). Recomputes the paper's §5.1
// measurement *from the certificates themselves* — not from the generator
// config — so the corpus calibration is independently checkable:
//
//   "out of 140 root certificates, zero used name constraints and only
//    five used path-length constraints. Out of 776 intermediate CA
//    certificates, 701 used path-length constraints but only 31 used name
//    constraints. Only six (out of 140) roots were included in at least
//    one chain where an intermediate included a name constraint."
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "corpus/corpus.hpp"
#include "rootstore/constraint_compile.hpp"
#include "rootstore/store.hpp"

namespace anchor::corpus {

struct CensusReport {
  std::size_t roots_total = 0;
  std::size_t roots_with_name_constraints = 0;
  std::size_t roots_with_path_len = 0;
  std::size_t intermediates_total = 0;
  std::size_t intermediates_with_name_constraints = 0;
  std::size_t intermediates_with_path_len = 0;
  // Roots appearing in >= 1 chain whose intermediate is name-constrained.
  std::size_t roots_with_constrained_chain = 0;
};

CensusReport run_census(const Corpus& corpus);

// --- Multi-primary disparity census (experiment E15) -----------------------
//
// The paper's §4 motivation: different primaries (Mozilla, Chrome, Apple)
// make different trust decisions about the *same* roots, and a binary
// trusted/untrusted bit cannot express most of the differences. We model
// three primaries over the shared corpus root set:
//
//   * mozilla-like — trusts everything, NSS-style metadata (date-usage
//     cutoffs, selective EV), a few explicit distrusts;
//   * chrome-like  — built END-TO-END from a generated Chrome Root Store
//     textproto through chromeproto::parse_store + compile_store, so the
//     census exercises the real ingestion pipeline: a thinner root set
//     with SCT / DNS-permit / version / EV-policy constraints as GCCs;
//   * apple-like   — a differently-thinned root set, uniform EV, its own
//     distrusts and S/MIME cutoffs.

inline constexpr std::size_t kPrimaryCount = 3;
inline constexpr std::array<const char*, kPrimaryCount> kPrimaryNames = {
    "mozilla-like", "chrome-like", "apple-like"};

struct PrimaryStores {
  std::array<rootstore::RootStore, kPrimaryCount> stores;
  // The textproto the chrome-like store was compiled from, and the
  // compiler's report — kept so benches and tools can show provenance.
  std::string chrome_textproto;
  rootstore::StoreCompileResult chrome_compile;
};

PrimaryStores make_primary_stores(const Corpus& corpus);

// Verdict-flip census over one store pair.
struct DisparityPair {
  std::size_t a = 0, b = 0;          // indices into PrimaryStores::stores
  std::size_t flips = 0;             // chains where the verdicts differ
  // A flip where the two stores disagree about the chain's root trust bit
  // itself — expressible by today's binary root stores.
  std::size_t root_level = 0;
  // A flip where BOTH stores trust the root: the disagreement lives in
  // GCCs or systematic metadata, which a binary trust bit cannot express.
  std::size_t constraint_level = 0;
  // Static store shape: roots trusted by both sides whose attached GCC
  // sets differ by name — exactly the disparities GCC merging preserves.
  std::size_t gcc_divergent_roots = 0;
  // rsf::merge(a, b) outcome for the pair.
  std::size_t merge_conflicts = 0;
  std::size_t merged_trusted = 0;
  std::size_t merged_gccs = 0;
};

struct DisparityReport {
  std::size_t chains = 0;  // leaves verified: those valid at the census time
  std::size_t skipped_not_valid = 0;  // leaves expired (or not yet valid) then
  std::array<std::size_t, kPrimaryCount> accepted{};  // per store
  std::array<DisparityPair, 3> pairs;  // (0,1), (0,2), (1,2)
  // Sum of constraint_level over pairs: the disparity volume only a
  // GCC-carrying (RSF-merged) store can express.
  std::size_t constraint_only_flips = 0;
};

// Verifies every corpus leaf valid at CorpusConfig::validation_time() under
// each primary (with the Chrome context facts supplied, so constraint GCCs
// evaluate rather than failing closed on missing context) and classifies
// every pairwise verdict flip.
DisparityReport run_disparity_census(const Corpus& corpus,
                                     const PrimaryStores& primaries);

}  // namespace anchor::corpus
