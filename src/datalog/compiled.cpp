#include "datalog/compiled.hpp"

#include <unordered_set>

#include "datalog/stratify.hpp"

namespace anchor::datalog {

namespace {

bool term_is_wildcard(const Term& t) { return t.is_wildcard(); }

// Wildcards in negated atoms and comparisons make the interpreter's
// `resolve` fail, pruning the branch on every binding; positive-atom
// wildcards just match anything.
bool literal_always_fails(const Literal& lit) {
  if (lit.kind == Literal::Kind::kComparison) {
    if (term_is_wildcard(lit.left.lhs)) return true;
    if (lit.left.op != ArithOp::kNone && term_is_wildcard(lit.left.rhs)) {
      return true;
    }
    if (term_is_wildcard(lit.right.lhs)) return true;
    if (lit.right.op != ArithOp::kNone && term_is_wildcard(lit.right.rhs)) {
      return true;
    }
    return false;
  }
  if (lit.kind == Literal::Kind::kNegatedAtom) {
    for (const Term& arg : lit.atom.args) {
      if (term_is_wildcard(arg)) return true;
    }
  }
  return false;
}

}  // namespace

Result<CompiledProgram> CompiledProgram::compile(const Program& program) {
  CompiledProgram cp;

  auto strata = stratify(program);
  if (!strata) return err(strata.error());
  const Stratification strat = std::move(strata).take();
  cp.num_strata_ = strat.num_strata;
  if (Status s = check_safety(program); !s) return err(s.error());

  auto relation_of = [&cp](const std::string& pred, std::size_t arity) -> int {
    const int known = cp.relation_index(pred, arity);
    if (known >= 0) return known;
    const int id = static_cast<int>(cp.relations_.size());
    cp.relations_.push_back({pred, static_cast<std::uint32_t>(arity)});
    cp.index_.emplace(RelationKey{pred, arity}, id);
    return id;
  };

  for (const Clause& clause : program.clauses) {
    if (clause.is_fact()) {
      CFact fact;
      fact.relation = relation_of(clause.head.predicate, clause.head.arity());
      fact.tuple.reserve(clause.head.args.size());
      for (const Term& arg : clause.head.args) {
        if (!arg.is_const()) {
          // The interpreter stores Value() for such terms; fail closed at
          // compile time instead of admitting a corrupt fact.
          return err("datalog: fact '" + clause.to_string() +
                     "' has a non-constant argument");
        }
        fact.tuple.push_back(cp.symbols_.intern(arg.constant));
      }
      cp.facts_.push_back(std::move(fact));
      continue;
    }

    CRule rule;
    rule.relation = relation_of(clause.head.predicate, clause.head.arity());
    rule.stratum =
        strat.stratum(relation_key(clause.head.predicate, clause.head.arity()));

    // Greedy executable ordering — identical to the oracle's
    // Evaluator::compile (it uses the same literal_ready), so compiled
    // execution visits literals in the interpreter's order and derives
    // identical models.
    std::vector<Literal> remaining = clause.body;
    std::vector<Literal> ordered;
    ordered.reserve(remaining.size());
    std::unordered_set<std::string> bound;
    while (!remaining.empty()) {
      bool placed = false;
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        if (!literal_ready(remaining[i], bound)) continue;
        collect_literal_vars(remaining[i], bound);
        ordered.push_back(std::move(remaining[i]));
        remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(i));
        placed = true;
        break;
      }
      if (!placed) {
        return err("datalog: cannot order body of '" + clause.to_string() +
                   "' for execution");
      }
    }

    // Slot resolution. Each variable gets one slot; its first occurrence in
    // the ordered body is the (single) binding site.
    std::unordered_map<std::string, std::uint32_t> slot_of;
    auto allocate = [&slot_of](const std::string& name) {
      auto it = slot_of.find(name);
      if (it != slot_of.end()) return it->second;
      const auto id = static_cast<std::uint32_t>(slot_of.size());
      slot_of.emplace(name, id);
      return id;
    };
    auto operand_of = [&](const Term& t) {
      COperand op;
      if (t.is_const()) {
        op.is_const = true;
        op.cval = cp.symbols_.intern(t.constant);
      } else {
        op.slot = slot_of.at(t.name);  // bound: literal_ready guarantees it
      }
      return op;
    };
    auto expr_of = [&](const Expr& e) {
      CExpr ce;
      ce.lhs = operand_of(e.lhs);
      ce.op = e.op;
      if (e.op != ArithOp::kNone) ce.rhs = operand_of(e.rhs);
      return ce;
    };

    for (const Literal& lit : ordered) {
      CLiteral out;
      switch (lit.kind) {
        case Literal::Kind::kAtom: {
          out.kind = CLiteral::Kind::kScan;
          out.relation = relation_of(lit.atom.predicate, lit.atom.arity());
          const std::string key =
              relation_key(lit.atom.predicate, lit.atom.arity());
          out.recursive = strat.stratum_of.contains(key) &&
                          strat.stratum(key) == rule.stratum;
          out.args.reserve(lit.atom.args.size());
          for (const Term& arg : lit.atom.args) {
            CTerm t;
            if (arg.is_const()) {
              t.kind = CTerm::Kind::kConst;
              t.cval = cp.symbols_.intern(arg.constant);
            } else if (arg.is_wildcard()) {
              t.kind = CTerm::Kind::kIgnore;
            } else if (auto it = slot_of.find(arg.name);
                       it != slot_of.end()) {
              t.kind = CTerm::Kind::kCheck;
              t.slot = it->second;
            } else {
              t.kind = CTerm::Kind::kBind;
              t.slot = allocate(arg.name);
            }
            out.args.push_back(t);
          }
          break;
        }
        case Literal::Kind::kNegatedAtom: {
          if (literal_always_fails(lit)) {
            out.kind = CLiteral::Kind::kAlwaysFail;
            break;
          }
          out.kind = CLiteral::Kind::kNegated;
          out.relation = relation_of(lit.atom.predicate, lit.atom.arity());
          out.args.reserve(lit.atom.args.size());
          for (const Term& arg : lit.atom.args) {
            CTerm t;
            if (arg.is_const()) {
              t.kind = CTerm::Kind::kConst;
              t.cval = cp.symbols_.intern(arg.constant);
            } else {
              t.kind = CTerm::Kind::kCheck;
              t.slot = slot_of.at(arg.name);  // ground: literal_ready
            }
            out.args.push_back(t);
          }
          break;
        }
        case Literal::Kind::kComparison: {
          if (literal_always_fails(lit)) {
            out.kind = CLiteral::Kind::kAlwaysFail;
            break;
          }
          std::unordered_set<std::string> vars;
          collect_literal_vars(lit, vars);
          bool any_free = false;
          for (const auto& v : vars) any_free |= !slot_of.contains(v);
          if (!any_free) {
            out.kind = CLiteral::Kind::kCompare;
            out.cmp = lit.cmp;
            out.left = expr_of(lit.left);
            out.right = expr_of(lit.right);
            break;
          }
          // Assignment form (literal_ready admits nothing else with free
          // variables): the unbound simple-variable side becomes the target.
          // The interpreter tries the left side first; match that.
          out.kind = CLiteral::Kind::kAssign;
          if (lit.left.op == ArithOp::kNone && lit.left.lhs.is_var() &&
              !slot_of.contains(lit.left.lhs.name)) {
            out.left = expr_of(lit.right);
            out.target = allocate(lit.left.lhs.name);
          } else {
            out.left = expr_of(lit.left);
            out.target = allocate(lit.right.lhs.name);
          }
          break;
        }
      }
      // Everything the ordering pass considered bound after this literal
      // needs a slot, even when the literal compiled to kAlwaysFail —
      // later literals were ordered (and are translated) under that
      // assumption. The slots are dead: execution never passes the failure.
      std::unordered_set<std::string> vars;
      collect_literal_vars(lit, vars);
      for (const auto& v : vars) allocate(v);
      rule.body.push_back(std::move(out));
    }

    rule.head.reserve(clause.head.args.size());
    for (const Term& arg : clause.head.args) {
      COperand h;
      if (arg.is_const()) {
        h.is_const = true;
        h.cval = cp.symbols_.intern(arg.constant);
      } else if (arg.is_var()) {
        auto it = slot_of.find(arg.name);
        if (it == slot_of.end()) {
          // The interpreter detects this at emit time (fail closed,
          // stats.errored); compiled programs refuse to build at all.
          return err("datalog: head variable '" + arg.name + "' in '" +
                     clause.to_string() + "' is never bound by the body");
        }
        h.slot = it->second;
      } else {
        return err("datalog: wildcard in head of '" + clause.to_string() +
                   "'");
      }
      rule.head.push_back(h);
    }
    rule.num_slots = static_cast<std::uint32_t>(slot_of.size());
    if (rule.num_slots > cp.max_slots_) cp.max_slots_ = rule.num_slots;
    cp.rules_.push_back(std::move(rule));
  }

  cp.stratum_rules_.assign(static_cast<std::size_t>(cp.num_strata_), {});
  for (std::size_t i = 0; i < cp.rules_.size(); ++i) {
    cp.stratum_rules_[static_cast<std::size_t>(cp.rules_[i].stratum)]
        .push_back(static_cast<std::uint32_t>(i));
  }
  return cp;
}

int CompiledProgram::relation_index(std::string_view predicate,
                                    std::size_t arity) const {
  auto it = index_.find(RelationName{predicate, arity});
  return it == index_.end() ? -1 : it->second;
}

// ---------------------------------------------------------------------------
// Execution.

namespace {

// Mirrors the interpreter's `compare` over interned values. Canonical
// interning makes same-type (in)equality a bit comparison; ordered string
// comparisons go through the overlay pools.
bool icompare(CmpOp op, IValue a, IValue b, const SymbolOverlay& overlay,
              EvalStats& stats) {
  if (a.is_symbol() != b.is_symbol()) {
    if (op != CmpOp::kEq && op != CmpOp::kNe) ++stats.type_errors;
    return op == CmpOp::kNe;
  }
  if (op == CmpOp::kEq) return a == b;
  if (op == CmpOp::kNe) return a != b;
  if (a.is_symbol()) {
    const auto ord = overlay.string_at(a.id()) <=> overlay.string_at(b.id());
    switch (op) {
      case CmpOp::kLt: return ord < 0;
      case CmpOp::kLe: return ord <= 0;
      case CmpOp::kGt: return ord > 0;
      case CmpOp::kGe: return ord >= 0;
      default: return false;
    }
  }
  const std::int64_t va = overlay.int_of(a);
  const std::int64_t vb = overlay.int_of(b);
  switch (op) {
    case CmpOp::kLt: return va < vb;
    case CmpOp::kLe: return va <= vb;
    case CmpOp::kGt: return va > vb;
    case CmpOp::kGe: return va >= vb;
    default: return false;
  }
}

}  // namespace

void CompiledProgram::emit_head(const CRule& rule, Session& s,
                                const EvalLimits& limits,
                                EvalStats& stats) const {
  s.tuple_scratch_.clear();
  for (const COperand& h : rule.head) {
    s.tuple_scratch_.push_back(h.is_const ? h.cval : s.slots_[h.slot]);
  }
  if (s.relations_[static_cast<std::size_t>(rule.relation)].insert(
          s.tuple_scratch_)) {
    ++stats.derived_tuples;
    if (stats.derived_tuples > limits.max_derived_tuples) {
      stats.truncated = true;
    }
  }
}

void CompiledProgram::join(const CRule& rule, std::size_t idx, Session& s,
                           int delta_literal, const EvalLimits& limits,
                           EvalStats& stats) const {
  if (stats.truncated) return;
  if (idx == rule.body.size()) {
    emit_head(rule, s, limits, stats);
    return;
  }
  const CLiteral& lit = rule.body[idx];
  switch (lit.kind) {
    case CLiteral::Kind::kScan: {
      const IRelation& rel =
          s.relations_[static_cast<std::size_t>(lit.relation)];
      auto match_tuple = [&](std::size_t t) {
        // The span is consumed before recursing: inserts during recursion
        // may reallocate the flat storage, so it must not be held across
        // the recursive call.
        std::span<const IValue> tuple = rel.tuple(t);
        for (std::size_t a = 0; a < lit.args.size(); ++a) {
          const CTerm& term = lit.args[a];
          switch (term.kind) {
            case CTerm::Kind::kConst:
              if (tuple[a] != term.cval) return;
              break;
            case CTerm::Kind::kCheck:
              if (tuple[a] != s.slots_[term.slot]) return;
              break;
            case CTerm::Kind::kBind:
              s.slots_[term.slot] = tuple[a];
              break;
            case CTerm::Kind::kIgnore:
              break;
          }
        }
        join(rule, idx + 1, s, delta_literal, limits, stats);
      };
      if (delta_literal == static_cast<int>(idx)) {
        // Semi-naive: this literal reads only the previous round's tuples.
        const auto [begin, end] =
            s.delta_[static_cast<std::size_t>(lit.relation)];
        for (std::size_t t = begin; t < end; ++t) {
          if (stats.truncated) return;
          match_tuple(t);
        }
        return;
      }
      // First-argument index: constants and already-bound variables key
      // directly into the bucket. The bucket vector object is stable under
      // map growth; the size is snapshotted so recursion-inserted tuples
      // are not scanned this pass (matching the interpreter's bucket copy).
      if (!lit.args.empty() && (lit.args[0].kind == CTerm::Kind::kConst ||
                                lit.args[0].kind == CTerm::Kind::kCheck)) {
        const IValue v0 = lit.args[0].kind == CTerm::Kind::kConst
                              ? lit.args[0].cval
                              : s.slots_[lit.args[0].slot];
        const std::vector<std::uint32_t>* bucket = rel.first_arg_matches(v0);
        if (bucket == nullptr) return;
        const std::size_t n = bucket->size();
        for (std::size_t i = 0; i < n; ++i) {
          if (stats.truncated) return;
          match_tuple((*bucket)[i]);
        }
        return;
      }
      const std::size_t end = rel.size();
      for (std::size_t t = 0; t < end; ++t) {
        if (stats.truncated) return;
        match_tuple(t);
      }
      return;
    }
    case CLiteral::Kind::kNegated: {
      s.tuple_scratch_.clear();
      for (const CTerm& term : lit.args) {
        s.tuple_scratch_.push_back(term.kind == CTerm::Kind::kConst
                                       ? term.cval
                                       : s.slots_[term.slot]);
      }
      if (s.relations_[static_cast<std::size_t>(lit.relation)].contains(
              s.tuple_scratch_)) {
        return;
      }
      join(rule, idx + 1, s, delta_literal, limits, stats);
      return;
    }
    case CLiteral::Kind::kCompare: {
      // Both sides are evaluated before deciding (the interpreter does the
      // same), so a type error on either side is always counted.
      bool ok_left = true;
      bool ok_right = true;
      auto eval_side = [&](const CExpr& e, bool& ok) {
        IValue a = e.lhs.is_const ? e.lhs.cval : s.slots_[e.lhs.slot];
        if (e.op == ArithOp::kNone) return a;
        IValue b = e.rhs.is_const ? e.rhs.cval : s.slots_[e.rhs.slot];
        if (!a.is_int() || !b.is_int()) {
          ++stats.type_errors;  // arithmetic is integer-only
          ok = false;
          return IValue();
        }
        const std::int64_t va = s.overlay_.int_of(a);
        const std::int64_t vb = s.overlay_.int_of(b);
        std::int64_t r = 0;
        switch (e.op) {
          case ArithOp::kAdd: r = va + vb; break;
          case ArithOp::kSub: r = va - vb; break;
          case ArithOp::kMul: r = va * vb; break;
          case ArithOp::kNone: break;
        }
        return s.overlay_.intern_int(r);
      };
      const IValue a = eval_side(lit.left, ok_left);
      const IValue b = eval_side(lit.right, ok_right);
      if (!ok_left || !ok_right) return;
      if (!icompare(lit.cmp, a, b, s.overlay_, stats)) return;
      join(rule, idx + 1, s, delta_literal, limits, stats);
      return;
    }
    case CLiteral::Kind::kAssign: {
      bool ok = true;
      IValue a = lit.left.lhs.is_const ? lit.left.lhs.cval
                                       : s.slots_[lit.left.lhs.slot];
      if (lit.left.op != ArithOp::kNone) {
        IValue b = lit.left.rhs.is_const ? lit.left.rhs.cval
                                         : s.slots_[lit.left.rhs.slot];
        if (!a.is_int() || !b.is_int()) {
          ++stats.type_errors;
          ok = false;
        } else {
          const std::int64_t va = s.overlay_.int_of(a);
          const std::int64_t vb = s.overlay_.int_of(b);
          std::int64_t r = 0;
          switch (lit.left.op) {
            case ArithOp::kAdd: r = va + vb; break;
            case ArithOp::kSub: r = va - vb; break;
            case ArithOp::kMul: r = va * vb; break;
            case ArithOp::kNone: break;
          }
          a = s.overlay_.intern_int(r);
        }
      }
      if (!ok) return;
      s.slots_[lit.target] = a;
      join(rule, idx + 1, s, delta_literal, limits, stats);
      return;
    }
    case CLiteral::Kind::kAlwaysFail:
      return;
  }
}

void CompiledProgram::apply_rule(const CRule& rule, Session& s,
                                 int delta_literal, const EvalLimits& limits,
                                 EvalStats& stats) const {
  ++stats.rule_applications;
  join(rule, 0, s, delta_literal, limits, stats);
}

EvalStats CompiledProgram::run(Session& s, Strategy strategy,
                               EvalLimits limits) const {
  EvalStats stats;

  for (const CFact& fact : facts_) {
    if (s.relations_[static_cast<std::size_t>(fact.relation)].insert(
            fact.tuple)) {
      ++stats.derived_tuples;
    }
  }

  const std::size_t nrel = relations_.size();
  s.before_.assign(nrel, 0);
  s.delta_.assign(nrel, {0, 0});
  auto snapshot = [&] {
    for (std::size_t r = 0; r < nrel; ++r) s.before_[r] = s.relations_[r].size();
  };
  auto capture_delta = [&] {
    bool any = false;
    for (std::size_t r = 0; r < nrel; ++r) {
      s.delta_[r] = {s.before_[r], s.relations_[r].size()};
      any |= s.delta_[r].second > s.delta_[r].first;
    }
    return any;
  };

  // The loop structure (and therefore iteration/rule-application counting
  // and truncation points) deliberately mirrors the oracle's Evaluator::run.
  for (int stratum = 0; stratum < num_strata_; ++stratum) {
    const auto& active = stratum_rules_[static_cast<std::size_t>(stratum)];
    if (active.empty()) continue;

    if (strategy == Strategy::kNaive) {
      for (;;) {
        if (stats.truncated || stats.iterations > limits.max_iterations) {
          stats.truncated = true;
          break;
        }
        ++stats.iterations;
        snapshot();
        for (std::uint32_t ri : active) {
          apply_rule(rules_[ri], s, -1, limits, stats);
        }
        if (!capture_delta()) break;
      }
      continue;
    }

    // Semi-naive. Round 0: full evaluation.
    ++stats.iterations;
    snapshot();
    for (std::uint32_t ri : active) {
      apply_rule(rules_[ri], s, -1, limits, stats);
    }
    capture_delta();
    // Subsequent rounds: restrict one recursive literal to the delta.
    while (true) {
      if (stats.truncated || stats.iterations > limits.max_iterations) {
        stats.truncated = true;
        break;
      }
      bool any = false;
      for (const auto& d : s.delta_) any |= d.second > d.first;
      if (!any) break;
      ++stats.iterations;
      snapshot();
      for (std::uint32_t ri : active) {
        const CRule& rule = rules_[ri];
        for (std::size_t i = 0; i < rule.body.size(); ++i) {
          if (!rule.body[i].recursive) continue;
          apply_rule(rule, s, static_cast<int>(i), limits, stats);
        }
      }
      capture_delta();
    }
  }

  return stats;
}

bool CompiledProgram::query_holds(const Session& s, std::string_view predicate,
                                  std::span<const Value> args) const {
  const int r = relation_index(predicate, args.size());
  if (r < 0) return false;
  std::vector<IValue> probe;
  probe.reserve(args.size());
  for (const Value& v : args) {
    auto iv = s.overlay_.find(v);
    if (!iv) return false;  // value never interned => no tuple contains it
    probe.push_back(*iv);
  }
  return s.contains(r, probe);
}

QueryResult CompiledProgram::query(const Session& s, const Atom& goal) const {
  QueryResult result;
  const int r = relation_index(goal.predicate, goal.arity());
  if (r < 0) return result;

  // Resolve the goal once: a constant becomes its interned id, a repeated
  // variable a check against its first occurrence's position.
  struct Arg {
    enum class Kind { kConst, kBind, kCheck, kIgnore };
    Kind kind = Kind::kIgnore;
    IValue cval;
    std::size_t first = 0;  // kCheck: position of the binding occurrence
  };
  std::vector<Arg> args(goal.args.size());
  for (std::size_t i = 0; i < goal.args.size(); ++i) {
    const Term& term = goal.args[i];
    if (term.is_const()) {
      const auto iv = s.overlay_.find(term.constant);
      if (!iv) return result;  // never interned => no tuple contains it
      args[i] = {Arg::Kind::kConst, *iv, 0};
    } else if (term.is_var()) {
      args[i].kind = Arg::Kind::kBind;
      for (std::size_t j = 0; j < i; ++j) {
        if (goal.args[j].is_var() && goal.args[j].name == term.name) {
          args[i] = {Arg::Kind::kCheck, IValue(), j};
          break;
        }
      }
    }
  }

  const IRelation& rel = s.relations_[static_cast<std::size_t>(r)];
  for (std::size_t t = 0; t < rel.size(); ++t) {
    const std::span<const IValue> tuple = rel.tuple(t);
    bool match = true;
    for (std::size_t i = 0; i < args.size() && match; ++i) {
      if (args[i].kind == Arg::Kind::kConst) {
        match = tuple[i] == args[i].cval;
      } else if (args[i].kind == Arg::Kind::kCheck) {
        match = tuple[i] == tuple[args[i].first];
      }
    }
    if (!match) continue;
    std::unordered_map<std::string, Value> binding;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i].kind == Arg::Kind::kBind) {
        binding.emplace(goal.args[i].name, s.overlay_.decode(tuple[i]));
      }
    }
    result.bindings.push_back(std::move(binding));
  }
  return result;
}

std::vector<Tuple> CompiledProgram::tuples(const Session& s,
                                           int relation) const {
  std::vector<Tuple> out;
  if (relation < 0) return out;
  const IRelation& rel = s.relations_[static_cast<std::size_t>(relation)];
  out.reserve(rel.size());
  for (std::size_t t = 0; t < rel.size(); ++t) {
    Tuple decoded;
    for (IValue v : rel.tuple(t)) decoded.push_back(s.overlay_.decode(v));
    out.push_back(std::move(decoded));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Session.

void Session::prepare(const CompiledProgram& program) {
  program_ = &program;
  overlay_.reset(&program.symbols());
  const std::size_t n = program.num_relations();
  if (relations_.size() < n) relations_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    relations_[i].reset(program.relation_arity(i));
  }
  slots_.assign(program.max_slots(), IValue());
}

bool Session::add_fact(int relation, std::span<const Value> args) {
  if (relation < 0) return false;
  tuple_scratch_.clear();
  for (const Value& v : args) tuple_scratch_.push_back(overlay_.intern(v));
  return add_tuple(relation, tuple_scratch_);
}

bool Session::add_tuple(int relation, std::span<const IValue> tuple) {
  if (relation < 0) return false;
  return relations_[static_cast<std::size_t>(relation)].insert(tuple);
}

bool Session::contains(int relation, std::span<const IValue> tuple) const {
  if (relation < 0) return false;
  return relations_[static_cast<std::size_t>(relation)].contains(tuple);
}

std::size_t Session::total_tuples() const {
  if (program_ == nullptr) return 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < program_->num_relations(); ++i) {
    n += relations_[i].size();
  }
  return n;
}

}  // namespace anchor::datalog
