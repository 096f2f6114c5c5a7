#include "datalog/eval.hpp"

namespace anchor::datalog {

namespace {

void collect_term_vars(const Term& t, std::unordered_set<std::string>& out) {
  if (t.is_var()) out.insert(t.name);
}

}  // namespace

void collect_literal_vars(const Literal& lit,
                          std::unordered_set<std::string>& out) {
  if (lit.kind == Literal::Kind::kComparison) {
    collect_term_vars(lit.left.lhs, out);
    if (lit.left.op != ArithOp::kNone) collect_term_vars(lit.left.rhs, out);
    collect_term_vars(lit.right.lhs, out);
    if (lit.right.op != ArithOp::kNone) collect_term_vars(lit.right.rhs, out);
  } else {
    for (const auto& arg : lit.atom.args) collect_term_vars(arg, out);
  }
}

// Is this literal executable once `bound` holds? Greedy body ordering
// places the first remaining literal for which this is true.
bool literal_ready(const Literal& lit,
                   const std::unordered_set<std::string>& bound) {
  std::unordered_set<std::string> vars;
  collect_literal_vars(lit, vars);
  switch (lit.kind) {
    case Literal::Kind::kAtom:
      return true;  // positive atoms generate bindings
    case Literal::Kind::kNegatedAtom: {
      for (const auto& v : vars) {
        if (!bound.contains(v)) return false;
      }
      return true;
    }
    case Literal::Kind::kComparison: {
      // Fully ground comparisons are ready. An `=` with exactly one free
      // simple-variable side is an assignment and also ready.
      std::size_t free = 0;
      for (const auto& v : vars) {
        if (!bound.contains(v)) ++free;
      }
      if (free == 0) return true;
      if (lit.cmp != CmpOp::kEq || free != 1) return false;
      auto side_assignable = [&](const Expr& side, const Expr& other) {
        if (side.op != ArithOp::kNone || !side.lhs.is_var() ||
            bound.contains(side.lhs.name)) {
          return false;
        }
        std::unordered_set<std::string> other_vars;
        collect_term_vars(other.lhs, other_vars);
        if (other.op != ArithOp::kNone) collect_term_vars(other.rhs, other_vars);
        for (const auto& v : other_vars) {
          if (!bound.contains(v)) return false;
        }
        return true;
      };
      return side_assignable(lit.left, lit.right) ||
             side_assignable(lit.right, lit.left);
    }
  }
  return false;
}

}  // namespace anchor::datalog
