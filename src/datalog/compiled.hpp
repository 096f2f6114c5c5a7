// The library's Datalog engine (DESIGN.md "Compiled GCC evaluation"): GCCs,
// the policy verifier and `anchorctl datalog` all run here. An interpreter
// re-runs stratification, safety and greedy body ordering — and
// string-compares its way through every join — on each evaluation (the
// test oracle under tests/oracle does exactly that, and this pipeline is
// pinned to it). `CompiledProgram::compile` does all of that once:
//
//   * every constant is interned into a frozen per-program `SymbolTable`,
//     so runtime tuples are flat runs of 8-byte tagged `IValue`s;
//   * every variable is resolved to a slot index, so the join environment
//     is a flat slot array (no name lookup, no trail/rewind — the greedy
//     ordering gives each variable exactly one binding site);
//   * rules are stored stratified and body-ordered, with the same
//     semi-naive/naive execution structure as the interpreter.
//
// Execution state lives in a reusable `Session` arena: relations, slots and
// scratch buffers are reset between calls without releasing their heap. A
// `CompiledProgram` is immutable after compile and safe to share read-only
// across threads; each thread brings its own Session.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "datalog/ast.hpp"
#include "datalog/eval.hpp"
#include "datalog/interned.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace anchor::datalog {

class CompiledProgram;

struct QueryResult {
  // One entry per satisfying assignment; maps each query variable to its
  // value. A ground query that holds yields one empty binding map.
  std::vector<std::unordered_map<std::string, Value>> bindings;

  bool holds() const { return !bindings.empty(); }
};

// Reusable execution arena: one per thread (or per call site), prepared
// against a program before each run. prepare() clears content but keeps
// capacity, which is what removes per-evaluation allocation from the GCC
// hot path.
class Session {
 public:
  // Binds the arena to `program`: resets the symbol overlay and sizes the
  // relation/slot storage. Must be called before add_fact()/run().
  void prepare(const CompiledProgram& program);

  // Asserts an EDB fact into the relation with the given index (from
  // CompiledProgram::relation_index; negative indices are ignored — the
  // program never mentions that predicate, so the fact cannot matter).
  // Returns true if the tuple was new.
  bool add_fact(int relation, std::span<const Value> args);

  // The interned form of the same API, for callers that build tuples
  // themselves (core's chain-fact loader). Ids from intern()/find() are
  // valid in this session until the next prepare().
  IValue intern(std::string_view s) { return overlay_.intern_string(s); }
  IValue intern(std::int64_t v) { return overlay_.intern_int(v); }
  // Lookup without interning; nullopt means no tuple can contain `s`.
  std::optional<IValue> find(std::string_view s) const {
    return overlay_.find_string(s);
  }
  bool add_tuple(int relation, std::span<const IValue> tuple);
  // Ground probe against the model (call after run()); false for a
  // negative relation index.
  bool contains(int relation, std::span<const IValue> tuple) const;

  // Facts plus derived tuples currently stored (after run()).
  std::size_t total_tuples() const;

 private:
  friend class CompiledProgram;

  const CompiledProgram* program_ = nullptr;
  SymbolOverlay overlay_;
  std::vector<IRelation> relations_;
  std::vector<IValue> slots_;
  std::vector<IValue> tuple_scratch_;  // negation probes + head emission
  // Semi-naive bookkeeping: per-relation size snapshot at round start, and
  // the [begin, end) tuple-index range derived in the previous round.
  std::vector<std::size_t> before_;
  std::vector<std::pair<std::size_t, std::size_t>> delta_;
};

class CompiledProgram {
 public:
  // Stratifies, checks safety, interns constants and resolves slots.
  // Rejects (fail closed, at compile time) programs the interpreter only
  // trips over at runtime: facts with non-constant arguments and rule heads
  // containing wildcards or variables the body never grounds.
  static Result<CompiledProgram> compile(const Program& program);

  // Evaluates to fixpoint over the session's EDB facts. Mirrors the
  // oracle interpreter's run literal-for-literal (same strategy structure,
  // same stats semantics, same truncation behavior).
  EvalStats run(Session& session, Strategy strategy = Strategy::kSemiNaive,
                EvalLimits limits = {}) const;

  // Ground query against the session model (call after run()). Allocates
  // nothing beyond the probe tuple and builds no bindings.
  bool query_holds(const Session& session, std::string_view predicate,
                   std::span<const Value> args) const;

  // Open query against the session model (call after run()): one binding
  // map per matching tuple, in model order. Constants must match, a
  // repeated variable must bind the same value at each occurrence, and
  // wildcards match anything. A goal the program never mentions matches
  // nothing.
  QueryResult query(const Session& session, const Atom& goal) const;

  // The decoded tuples of one relation (by relation_index), in insertion
  // order; empty for a negative index.
  std::vector<Tuple> tuples(const Session& session, int relation) const;

  // Dense relation id for "predicate/arity", or -1 if the program never
  // mentions it. Allocation-free: the index is keyed on (predicate, arity).
  int relation_index(std::string_view predicate, std::size_t arity) const;

  // Deterministic binary encoding of the full compiled form — symbol
  // pools, relations, facts, slot-resolved rules, strata — appended to
  // `out`. deserialize() rebuilds an equivalent program without parsing,
  // stratifying or re-interning source text; the derived structures
  // (relation index, per-stratum rule lists) are recomputed, everything
  // else is validated fail-closed (tags, pool ids, relation ids, arities,
  // slots, strata must all be in range). serialize(deserialize(b)) == b.
  // Integers are written in native byte order: the snapshot container
  // (rootstore/snapshot) carries an endianness tag and rejects foreign
  // bytes, so no swizzling layer is needed here.
  void serialize(Bytes& out) const;
  static Result<CompiledProgram> deserialize(BytesView bytes);

  std::size_t num_relations() const { return relations_.size(); }
  std::uint32_t relation_arity(std::size_t i) const {
    return relations_[i].arity;
  }
  const std::string& relation_predicate(std::size_t i) const {
    return relations_[i].predicate;
  }
  const SymbolTable& symbols() const { return symbols_; }
  std::uint32_t max_slots() const { return max_slots_; }
  int num_strata() const { return num_strata_; }
  std::size_t num_rules() const { return rules_.size(); }

 private:
  struct RelationInfo {
    std::string predicate;
    std::uint32_t arity = 0;
  };

  // relation_index's key: (predicate, arity), looked up heterogeneously so
  // a probe never builds a "pred/arity" string.
  struct RelationName {
    std::string_view predicate;
    std::size_t arity = 0;
  };
  struct RelationKey {
    std::string predicate;
    std::size_t arity = 0;
  };
  struct RelationKeyHash {
    using is_transparent = void;
    std::size_t operator()(RelationName k) const noexcept {
      return std::hash<std::string_view>{}(k.predicate) ^
             (k.arity * 0x9e3779b97f4a7c15ULL);
    }
    std::size_t operator()(const RelationKey& k) const noexcept {
      return (*this)(RelationName{k.predicate, k.arity});
    }
  };
  struct RelationKeyEq {
    using is_transparent = void;
    template <class A, class B>
    bool operator()(const A& a, const B& b) const noexcept {
      return a.arity == b.arity &&
             std::string_view(a.predicate) == std::string_view(b.predicate);
    }
  };
  using RelationIndex =
      std::unordered_map<RelationKey, int, RelationKeyHash, RelationKeyEq>;

  // A program fact, pre-interned at compile time.
  struct CFact {
    int relation = -1;
    std::vector<IValue> tuple;
  };

  // A value source in an expression or head: a pre-interned constant or a
  // slot read.
  struct COperand {
    bool is_const = false;
    IValue cval;
    std::uint32_t slot = 0;
  };

  struct CExpr {
    COperand lhs;
    ArithOp op = ArithOp::kNone;
    COperand rhs;  // unused when op == kNone
  };

  // One positive-atom argument. The greedy ordering makes binding static:
  // a variable's first occurrence in the ordered body is its only kBind;
  // every later occurrence compiles to kCheck.
  struct CTerm {
    enum class Kind { kConst, kBind, kCheck, kIgnore };
    Kind kind = Kind::kIgnore;
    IValue cval;             // kConst
    std::uint32_t slot = 0;  // kBind / kCheck
  };

  struct CLiteral {
    enum class Kind {
      kScan,        // positive atom: join against a relation
      kNegated,     // ground negated atom: containment probe
      kCompare,     // fully ground comparison
      kAssign,      // `Var = expr` binding form
      kAlwaysFail,  // wildcard in a negated atom or comparison — the
                    // interpreter prunes these branches at runtime, the
                    // compiled form prunes them statically
    };
    Kind kind = Kind::kScan;
    int relation = -1;        // kScan / kNegated
    std::vector<CTerm> args;  // kScan / kNegated
    bool recursive = false;   // kScan on a same-stratum predicate
    CmpOp cmp = CmpOp::kEq;   // kCompare
    CExpr left, right;        // kCompare; kAssign stores its source in left
    std::uint32_t target = 0;  // kAssign destination slot
  };

  struct CRule {
    int relation = -1;  // head relation
    std::vector<COperand> head;
    std::vector<CLiteral> body;  // in greedy execution order
    int stratum = 0;
    std::uint32_t num_slots = 0;
  };

  CompiledProgram() = default;

  void apply_rule(const CRule& rule, Session& s, int delta_literal,
                  const EvalLimits& limits, EvalStats& stats) const;
  void join(const CRule& rule, std::size_t idx, Session& s, int delta_literal,
            const EvalLimits& limits, EvalStats& stats) const;
  void emit_head(const CRule& rule, Session& s, const EvalLimits& limits,
                 EvalStats& stats) const;

  SymbolTable symbols_;
  std::vector<RelationInfo> relations_;
  RelationIndex index_;  // (predicate, arity) -> dense id
  std::vector<CFact> facts_;
  std::vector<CRule> rules_;
  std::vector<std::vector<std::uint32_t>> stratum_rules_;
  int num_strata_ = 1;
  std::uint32_t max_slots_ = 0;
};

}  // namespace anchor::datalog
