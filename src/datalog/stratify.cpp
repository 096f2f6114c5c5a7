#include "datalog/stratify.hpp"

#include <unordered_set>

namespace anchor::datalog {

std::string relation_key(const std::string& predicate, std::size_t arity) {
  return predicate + "/" + std::to_string(arity);
}

Result<Stratification> stratify(const Program& program) {
  // Collect IDB predicates (those appearing in some rule head).
  std::unordered_set<std::string> idb;
  for (const auto& clause : program.clauses) {
    if (!clause.is_fact()) {
      idb.insert(relation_key(clause.head.predicate, clause.head.arity()));
    }
  }

  Stratification result;
  for (const auto& key : idb) result.stratum_of[key] = 0;

  // Iterative fixpoint: stratum(head) >= stratum(positive body pred),
  // stratum(head) >= stratum(negated body pred) + 1. If a stratum exceeds
  // the predicate count, negation occurs in a cycle.
  const int limit = static_cast<int>(idb.size()) + 1;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& clause : program.clauses) {
      if (clause.is_fact()) continue;
      std::string head_key =
          relation_key(clause.head.predicate, clause.head.arity());
      int& head_stratum = result.stratum_of[head_key];
      for (const auto& lit : clause.body) {
        if (lit.kind == Literal::Kind::kComparison) continue;
        std::string body_key =
            relation_key(lit.atom.predicate, lit.atom.arity());
        if (!idb.contains(body_key)) continue;  // EDB: stratum 0
        int body_stratum = result.stratum_of[body_key];
        int required = lit.kind == Literal::Kind::kNegatedAtom
                           ? body_stratum + 1
                           : body_stratum;
        if (required > head_stratum) {
          head_stratum = required;
          if (head_stratum > limit) {
            return err("datalog: program is not stratifiable (negation in a "
                       "recursive cycle through '" +
                       clause.head.predicate + "')");
          }
          changed = true;
        }
      }
    }
  }

  int max_stratum = 0;
  for (const auto& [key, s] : result.stratum_of) {
    if (s > max_stratum) max_stratum = s;
  }
  result.num_strata = max_stratum + 1;
  return result;
}

namespace {

void collect_vars(const Term& term, std::unordered_set<std::string>& out) {
  if (term.is_var()) out.insert(term.name);
}

void collect_expr_vars(const Expr& expr, std::unordered_set<std::string>& out) {
  collect_vars(expr.lhs, out);
  if (expr.op != ArithOp::kNone) collect_vars(expr.rhs, out);
}

bool expr_grounded(const Expr& expr,
                   const std::unordered_set<std::string>& bound) {
  std::unordered_set<std::string> vars;
  collect_expr_vars(expr, vars);
  for (const auto& v : vars) {
    if (!bound.contains(v)) return false;
  }
  return true;
}

}  // namespace

Status check_safety(const Program& program) {
  for (const auto& clause : program.clauses) {
    if (clause.is_fact()) {
      for (const auto& arg : clause.head.args) {
        if (arg.is_var()) {
          return err("datalog: fact '" + clause.head.to_string() +
                     "' contains a variable");
        }
      }
      continue;
    }

    // Simulate grounding: positive atoms bind their variables; an `=`
    // assignment binds its free side once the other side is ground. Iterate
    // to fixpoint, then demand everything needing ground status has it.
    std::unordered_set<std::string> bound;
    for (const auto& lit : clause.body) {
      if (lit.kind == Literal::Kind::kAtom) {
        for (const auto& arg : lit.atom.args) collect_vars(arg, bound);
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& lit : clause.body) {
        if (lit.kind != Literal::Kind::kComparison || lit.cmp != CmpOp::kEq) {
          continue;
        }
        // X = expr (or expr = X) binds X when the expression is ground.
        if (lit.left.op == ArithOp::kNone && lit.left.lhs.is_var() &&
            !bound.contains(lit.left.lhs.name) &&
            expr_grounded(lit.right, bound)) {
          bound.insert(lit.left.lhs.name);
          changed = true;
        }
        if (lit.right.op == ArithOp::kNone && lit.right.lhs.is_var() &&
            !bound.contains(lit.right.lhs.name) &&
            expr_grounded(lit.left, bound)) {
          bound.insert(lit.right.lhs.name);
          changed = true;
        }
      }
    }

    auto require = [&](const std::unordered_set<std::string>& vars,
                       const std::string& where) -> Status {
      for (const auto& v : vars) {
        if (!bound.contains(v)) {
          return err("datalog: unsafe clause '" + clause.to_string() +
                     "': variable " + v + " in " + where +
                     " is not bound by a positive body atom");
        }
      }
      return {};
    };

    std::unordered_set<std::string> head_vars;
    for (const auto& arg : clause.head.args) collect_vars(arg, head_vars);
    if (Status s = require(head_vars, "head"); !s) return s;

    for (const auto& lit : clause.body) {
      if (lit.kind == Literal::Kind::kNegatedAtom) {
        std::unordered_set<std::string> vars;
        for (const auto& arg : lit.atom.args) collect_vars(arg, vars);
        if (Status s = require(vars, "negated atom"); !s) return s;
      } else if (lit.kind == Literal::Kind::kComparison) {
        std::unordered_set<std::string> vars;
        collect_expr_vars(lit.left, vars);
        collect_expr_vars(lit.right, vars);
        if (Status s = require(vars, "comparison"); !s) return s;
      }
    }
  }
  return {};
}

}  // namespace anchor::datalog
