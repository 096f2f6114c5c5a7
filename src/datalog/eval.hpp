// Evaluation vocabulary for stratified Datalog, shared by the compiled
// pipeline (datalog/compiled.hpp) and the interpreted test oracle it is
// pinned against. The default strategy is semi-naive (delta-driven); a
// naive recompute-everything strategy is kept for the ablation benchmark
// (DESIGN.md §7) and as a differential check: both strategies must produce
// identical models.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>

#include "datalog/ast.hpp"

namespace anchor::datalog {

enum class Strategy { kSemiNaive, kNaive };

// Resource guard. Pure stratified Datalog always terminates (the property
// the paper picks the language for), but our dialect adds arithmetic, and
// `p(Y) :- p(X), Y = X + 1.` derives forever. The guard turns runaway
// programs into a clean truncation: evaluation stops, `truncated` is set,
// and the executor treats the GCC as failed (fail closed).
struct EvalLimits {
  std::uint64_t max_derived_tuples = 1'000'000;
  std::uint64_t max_iterations = 100'000;
};

struct EvalStats {
  std::uint64_t iterations = 0;         // fixpoint rounds across all strata
  std::uint64_t rule_applications = 0;  // rule body evaluations
  std::uint64_t derived_tuples = 0;     // new tuples added to the model
  // Mixed-type ordered comparisons and arithmetic over non-integers: the
  // literal fails either way (a GCC comparing a string timestamp against an
  // int rejects the chain), but silently — this counter is the diagnostic.
  std::uint64_t type_errors = 0;
  // Head terms that were not ground at emit time (reachable only in the
  // interpreted oracle, through hand-built ASTs that put wildcards in a
  // rule head, which the safety check cannot see; CompiledProgram::compile
  // rejects such programs). The tuple is NOT emitted and `errored` is set.
  std::uint64_t unbound_head_terms = 0;
  bool truncated = false;               // an EvalLimits bound was hit
  bool errored = false;                 // fail-closed: model is incomplete

  // Folds another evaluation's counters into this one (verdict aggregation).
  void accumulate(const EvalStats& other) {
    iterations += other.iterations;
    rule_applications += other.rule_applications;
    derived_tuples += other.derived_tuples;
    type_errors += other.type_errors;
    unbound_head_terms += other.unbound_head_terms;
    truncated = truncated || other.truncated;
    errored = errored || other.errored;
  }
};

// Body-ordering analysis (CompiledProgram::compile, and the oracle's
// greedy ordering it mirrors): which variables a literal mentions, and
// whether it is executable once `bound` holds.
void collect_literal_vars(const Literal& lit,
                          std::unordered_set<std::string>& out);
bool literal_ready(const Literal& lit,
                   const std::unordered_set<std::string>& bound);

}  // namespace anchor::datalog
