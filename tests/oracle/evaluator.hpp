// The interpreted Datalog evaluator, kept as the test oracle the compiled
// pipeline (datalog/compiled.hpp) is pinned against: the parity suites,
// the policy parity pin and bench_gcc_eval's BM_Interpreted_* baselines
// link it; the library does not. It evaluates straight off the AST —
// string-keyed relations, a name-to-value environment per join — which is
// what makes it an independent check of the interned, slot-resolved form.
// Strategy structure, stats semantics and truncation points are the ones
// CompiledProgram::run mirrors.
#pragma once

#include <vector>

#include "datalog/ast.hpp"
#include "datalog/eval.hpp"
#include "datalog/stratify.hpp"
#include "oracle/database.hpp"
#include "util/result.hpp"

namespace anchor::datalog {

class Evaluator {
 public:
  // Validates stratification and safety; fails on violation. Unlike
  // CompiledProgram::compile it admits facts with non-constant arguments
  // and heads with unbound terms, and handles them at run time.
  static Result<Evaluator> create(const Program& program,
                                  Strategy strategy = Strategy::kSemiNaive,
                                  EvalLimits limits = {});

  // Computes the model: adds the program's facts and all derivable IDB
  // tuples into `db` (which may already hold EDB facts).
  EvalStats run(Database& db) const;

 private:
  // One body literal in execution order, with precomputed dispatch info.
  struct OrderedLiteral {
    Literal literal;
    bool recursive = false;  // positive atom whose predicate is in the same
                             // stratum as the rule head (semi-naive target)
  };

  struct CompiledRule {
    Atom head;
    std::vector<OrderedLiteral> body;  // reordered for executability
    int stratum = 0;
  };

  Evaluator() = default;

  Status compile(const Program& program);

  Strategy strategy_ = Strategy::kSemiNaive;
  EvalLimits limits_;
  Stratification strata_;
  std::vector<Clause> facts_;
  std::vector<CompiledRule> rules_;
};

}  // namespace anchor::datalog
