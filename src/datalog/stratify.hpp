// Stratification and safety analysis.
//
// The paper chooses *stratified* Datalog for GCCs precisely because its
// semantics are unambiguous and evaluation always terminates; this module is
// where those guarantees are enforced. A program that uses negation through
// recursion, or a rule whose head/negated/comparison variables cannot be
// grounded from positive body atoms (range restriction), is rejected at load
// time — before any certificate chain is evaluated against it.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/ast.hpp"
#include "util/result.hpp"

namespace anchor::datalog {

// The "predicate/arity" key strata are recorded under: p/1 and p/2 are
// distinct relations.
std::string relation_key(const std::string& predicate, std::size_t arity);

struct Stratification {
  // stratum per IDB predicate key ("pred/arity"); EDB-only predicates get 0.
  std::unordered_map<std::string, int> stratum_of;
  int num_strata = 1;

  int stratum(const std::string& key) const {
    auto it = stratum_of.find(key);
    return it == stratum_of.end() ? 0 : it->second;
  }
};

// Fails if negation occurs inside a recursive cycle.
Result<Stratification> stratify(const Program& program);

// Range restriction: every variable occurring in the head, in a negated
// atom, or in a comparison must be derivable from positive body atoms,
// possibly through `=` assignments. Returns a per-clause diagnostic on
// violation.
Status check_safety(const Program& program);

}  // namespace anchor::datalog
