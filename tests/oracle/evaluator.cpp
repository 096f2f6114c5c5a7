#include "oracle/evaluator.hpp"

#include <optional>
#include <unordered_set>

namespace anchor::datalog {

namespace {

// Environment: variable bindings during a rule-body join. Rule bodies are
// small (< 16 variables), so linear probing over a flat vector beats a hash
// map here.
class Env {
 public:
  const Value* lookup(const std::string& name) const {
    for (const auto& [var, value] : bindings_) {
      if (var == name) return &value;
    }
    return nullptr;
  }

  void bind(const std::string& name, Value value) {
    bindings_.emplace_back(name, std::move(value));
  }

  std::size_t mark() const { return bindings_.size(); }
  void rewind(std::size_t mark) { bindings_.resize(mark); }

 private:
  std::vector<std::pair<std::string, Value>> bindings_;
};

// Resolves a term under an environment; nullopt when the term is an unbound
// variable.
std::optional<Value> resolve(const Term& term, const Env& env) {
  if (term.is_const()) return term.constant;
  const Value* v = env.lookup(term.name);
  if (v == nullptr) return std::nullopt;
  return *v;
}

std::optional<Value> eval_expr(const Expr& expr, const Env& env,
                               EvalStats& stats) {
  std::optional<Value> lhs = resolve(expr.lhs, env);
  if (!lhs) return std::nullopt;
  if (expr.op == ArithOp::kNone) return lhs;
  std::optional<Value> rhs = resolve(expr.rhs, env);
  if (!rhs) return std::nullopt;
  if (!lhs->is_int() || !rhs->is_int()) {
    ++stats.type_errors;  // arith is int-only; both operands resolved
    return std::nullopt;
  }
  std::int64_t a = lhs->as_int();
  std::int64_t b = rhs->as_int();
  switch (expr.op) {
    case ArithOp::kAdd: return Value(a + b);
    case ArithOp::kSub: return Value(a - b);
    case ArithOp::kMul: return Value(a * b);
    case ArithOp::kNone: break;
  }
  return std::nullopt;
}

bool compare(CmpOp op, const Value& a, const Value& b, EvalStats& stats) {
  // Mixed-type comparisons: only equality semantics are defined (always
  // unequal); ordered comparisons on mixed types fail, and are counted so
  // a GCC comparing a string timestamp against an int is diagnosable.
  if (a.is_int() != b.is_int()) {
    if (op != CmpOp::kEq && op != CmpOp::kNe) ++stats.type_errors;
    return op == CmpOp::kNe;
  }
  auto ord = a <=> b;
  switch (op) {
    case CmpOp::kLt: return ord < 0;
    case CmpOp::kLe: return ord <= 0;
    case CmpOp::kGt: return ord > 0;
    case CmpOp::kGe: return ord >= 0;
    case CmpOp::kEq: return ord == 0;
    case CmpOp::kNe: return ord != 0;
  }
  return false;
}

// Attempts to unify atom args against a tuple, extending env. Returns false
// (env rewound by caller) on mismatch.
bool unify(const std::vector<Term>& args, const Tuple& tuple, Env& env) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Term& term = args[i];
    if (term.is_const()) {
      if (!(term.constant == tuple[i])) return false;
    } else {
      const Value* bound = env.lookup(term.name);
      if (bound != nullptr) {
        if (!(*bound == tuple[i])) return false;
      } else {
        env.bind(term.name, tuple[i]);
      }
    }
  }
  return true;
}

}  // namespace

Result<Evaluator> Evaluator::create(const Program& program, Strategy strategy,
                                    EvalLimits limits) {
  Evaluator eval;
  eval.strategy_ = strategy;
  eval.limits_ = limits;
  auto strata = stratify(program);
  if (!strata) return err(strata.error());
  eval.strata_ = std::move(strata).take();
  if (Status s = check_safety(program); !s) return err(s.error());
  if (Status s = eval.compile(program); !s) return err(s.error());
  return eval;
}

Status Evaluator::compile(const Program& program) {
  for (const auto& clause : program.clauses) {
    if (clause.is_fact()) {
      facts_.push_back(clause);
      continue;
    }
    CompiledRule rule;
    rule.head = clause.head;
    rule.stratum =
        strata_.stratum(relation_key(clause.head.predicate, clause.head.arity()));

    // Greedy executable ordering: repeatedly take the first remaining
    // literal that is ready given the variables bound so far. The safety
    // check guarantees this terminates with all literals placed.
    std::vector<Literal> remaining = clause.body;
    std::unordered_set<std::string> bound;
    while (!remaining.empty()) {
      bool placed = false;
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        if (!literal_ready(remaining[i], bound)) continue;
        collect_literal_vars(remaining[i], bound);
        OrderedLiteral ol;
        ol.literal = std::move(remaining[i]);
        if (ol.literal.kind == Literal::Kind::kAtom) {
          std::string key =
              relation_key(ol.literal.atom.predicate, ol.literal.atom.arity());
          ol.recursive =
              strata_.stratum_of.contains(key) &&
              strata_.stratum(key) == rule.stratum;
        }
        rule.body.push_back(std::move(ol));
        remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(i));
        placed = true;
        break;
      }
      if (!placed) {
        return err("datalog: cannot order body of '" + clause.to_string() +
                   "' for execution");
      }
    }
    rules_.push_back(std::move(rule));
  }
  return {};
}

namespace {

// Per-stratum semi-naive state: the delta (tuples derived last round) for
// each same-stratum predicate.
using DeltaMap = std::unordered_map<std::string, std::vector<Tuple>>;

struct JoinContext {
  const Database* db;
  const DeltaMap* delta;         // non-null => literal `delta_index` reads delta
  int delta_index = -1;
  EvalStats* stats;
};

// Recursively joins body literals starting at `idx`, invoking `emit` with a
// complete environment for each satisfying assignment.
template <typename Emit>
void join_from(const std::vector<Literal>& body, std::size_t idx,
               const JoinContext& ctx, Env& env, const Emit& emit) {
  // Prompt abort: once a limit fires, the in-flight rule application must
  // stop joining instead of blowing past the bound (a single cross-product
  // rule could otherwise derive far more than max_derived_tuples before
  // the fixpoint loop's check runs).
  if (ctx.stats->truncated) return;
  if (idx == body.size()) {
    emit(env);
    return;
  }
  const Literal& lit = body[idx];
  switch (lit.kind) {
    case Literal::Kind::kAtom: {
      // Source of tuples: either the full relation or this round's delta.
      const bool use_delta =
          ctx.delta != nullptr && static_cast<int>(idx) == ctx.delta_index;
      // NOTE: emit() ultimately inserts into the database, which can grow —
      // and reallocate — the very relation being scanned (recursive rules).
      // Iteration is therefore by index, bounded by the pre-scan size, and
      // each candidate tuple is *copied* before recursing.
      auto try_tuple = [&](Tuple tuple) {
        if (tuple.size() != lit.atom.args.size()) return;
        std::size_t mark = env.mark();
        if (unify(lit.atom.args, tuple, env)) {
          join_from(body, idx + 1, ctx, env, emit);
        }
        env.rewind(mark);
      };
      if (use_delta) {
        auto it = ctx.delta->find(
            relation_key(lit.atom.predicate, lit.atom.arity()));
        if (it == ctx.delta->end()) return;
        const std::size_t count = it->second.size();
        for (std::size_t t = 0; t < count; ++t) try_tuple(it->second[t]);
        return;
      }
      const Relation* rel = ctx.db->find(lit.atom.predicate, lit.atom.arity());
      if (rel == nullptr) return;
      // First-argument index: if arg0 resolves to a constant, scan only the
      // matching bucket (copied: the bucket also grows during recursion).
      if (!lit.atom.args.empty()) {
        if (auto v0 = resolve(lit.atom.args[0], env)) {
          const auto* matches = rel->first_arg_matches(*v0);
          if (matches == nullptr) return;
          const std::vector<std::size_t> bucket = *matches;
          for (std::size_t t : bucket) try_tuple(rel->tuples()[t]);
          return;
        }
      }
      const std::size_t count = rel->tuples().size();
      for (std::size_t t = 0; t < count; ++t) try_tuple(rel->tuples()[t]);
      return;
    }
    case Literal::Kind::kNegatedAtom: {
      Tuple probe;
      probe.reserve(lit.atom.args.size());
      for (const auto& arg : lit.atom.args) {
        auto v = resolve(arg, env);
        if (!v) return;  // unreachable given safety, but fail closed
        probe.push_back(std::move(*v));
      }
      const Relation* rel = ctx.db->find(lit.atom.predicate, lit.atom.arity());
      if (rel != nullptr && rel->contains(probe)) return;
      join_from(body, idx + 1, ctx, env, emit);
      return;
    }
    case Literal::Kind::kComparison: {
      std::optional<Value> left = eval_expr(lit.left, env, *ctx.stats);
      std::optional<Value> right = eval_expr(lit.right, env, *ctx.stats);
      if (left && right) {
        if (compare(lit.cmp, *left, *right, *ctx.stats)) {
          join_from(body, idx + 1, ctx, env, emit);
        }
        return;
      }
      // Assignment form: exactly one side is an unbound simple variable.
      if (lit.cmp == CmpOp::kEq) {
        if (!left && right && lit.left.op == ArithOp::kNone &&
            lit.left.lhs.is_var()) {
          std::size_t mark = env.mark();
          env.bind(lit.left.lhs.name, *right);
          join_from(body, idx + 1, ctx, env, emit);
          env.rewind(mark);
          return;
        }
        if (!right && left && lit.right.op == ArithOp::kNone &&
            lit.right.lhs.is_var()) {
          std::size_t mark = env.mark();
          env.bind(lit.right.lhs.name, *left);
          join_from(body, idx + 1, ctx, env, emit);
          env.rewind(mark);
          return;
        }
      }
      return;  // not evaluable: fail closed
    }
  }
}

}  // namespace

EvalStats Evaluator::run(Database& db) const {
  EvalStats stats;

  for (const auto& fact : facts_) {
    Tuple tuple;
    tuple.reserve(fact.head.args.size());
    for (const auto& arg : fact.head.args) tuple.push_back(arg.constant);
    if (db.add(fact.head.predicate, std::move(tuple))) ++stats.derived_tuples;
  }

  // Evaluate strata bottom-up.
  for (int stratum = 0; stratum < strata_.num_strata; ++stratum) {
    std::vector<const CompiledRule*> active;
    for (const auto& rule : rules_) {
      if (rule.stratum == stratum) active.push_back(&rule);
    }
    if (active.empty()) continue;

    auto apply_rule = [&](const CompiledRule& rule, const DeltaMap* delta,
                          int delta_index, DeltaMap& out_delta) {
      ++stats.rule_applications;
      std::vector<Literal> body;
      body.reserve(rule.body.size());
      for (const auto& ol : rule.body) body.push_back(ol.literal);
      JoinContext ctx{&db, delta, delta_index, &stats};
      Env env;
      join_from(body, 0, ctx, env, [&](const Env& complete) {
        Tuple tuple;
        tuple.reserve(rule.head.args.size());
        for (const auto& arg : rule.head.args) {
          if (arg.is_const()) {
            tuple.push_back(arg.constant);
          } else {
            const Value* v = complete.lookup(arg.name);
            if (v == nullptr) {
              // Head term unground at emit time: reachable only via
              // hand-built ASTs with a wildcard/unbound variable in the
              // head, which check_safety cannot see (it skips non-var
              // terms). Fail closed instead of deriving a corrupt tuple.
              ++stats.unbound_head_terms;
              stats.errored = true;
              return;
            }
            tuple.push_back(*v);
          }
        }
        if (db.add(rule.head.predicate, tuple)) {
          ++stats.derived_tuples;
          if (stats.derived_tuples > limits_.max_derived_tuples) {
            stats.truncated = true;
          }
          out_delta[relation_key(rule.head.predicate, rule.head.arity())]
              .push_back(std::move(tuple));
        }
      });
    };

    if (strategy_ == Strategy::kNaive) {
      // Recompute all rules until no new tuples appear.
      for (;;) {
        if (stats.truncated || stats.iterations > limits_.max_iterations) {
          stats.truncated = true;
          break;
        }
        ++stats.iterations;
        DeltaMap fresh;
        for (const CompiledRule* rule : active) {
          apply_rule(*rule, nullptr, -1, fresh);
        }
        bool any = false;
        for (const auto& [k, v] : fresh) any |= !v.empty();
        if (!any) break;
      }
      continue;
    }

    // Semi-naive. Round 0: full evaluation.
    DeltaMap delta;
    ++stats.iterations;
    for (const CompiledRule* rule : active) {
      apply_rule(*rule, nullptr, -1, delta);
    }
    // Subsequent rounds: restrict one recursive literal to the delta.
    while (true) {
      if (stats.truncated || stats.iterations > limits_.max_iterations) {
        stats.truncated = true;
        break;
      }
      bool any = false;
      for (const auto& [k, v] : delta) any |= !v.empty();
      if (!any) break;
      ++stats.iterations;
      DeltaMap next_delta;
      for (const CompiledRule* rule : active) {
        for (std::size_t i = 0; i < rule->body.size(); ++i) {
          if (!rule->body[i].recursive) continue;
          apply_rule(*rule, &delta, static_cast<int>(i), next_delta);
        }
      }
      delta = std::move(next_delta);
    }
  }

  return stats;
}

}  // namespace anchor::datalog
