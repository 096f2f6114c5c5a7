// Binary round-trip for CompiledProgram (DESIGN.md "Snapshot format &
// swap protocol"). The encoding is the compiled form laid out flat:
// symbol pools in id order, relation table, pre-interned facts, and the
// slot-resolved rule bodies exactly as compile() built them. Loading a
// program is therefore a linear validated read — no lexing, parsing,
// stratification or slot resolution — which is what lets a snapshot-backed
// store skip GCC recompilation entirely.
//
// Everything a corrupt or hostile byte stream could abuse is range-checked
// before construction completes: IValue tags and pool ids, relation ids
// and arities, slot indices against the owning rule's slot count, strata
// against the stratum count, and enum discriminants against their
// domains. Derived structures (the relation-key index and per-stratum rule
// lists) are recomputed from validated data rather than read.
#include <cstring>
#include <limits>

#include "datalog/compiled.hpp"
#include "datalog/database.hpp"

namespace anchor::datalog {

namespace {

constexpr std::uint32_t kMagic = 0x43505247;  // "CPRG"
constexpr std::uint32_t kVersion = 1;

// Hard ceilings: a truncated-then-bit-flipped header must not be able to
// request a multi-gigabyte reservation before the bounds checks run.
constexpr std::uint32_t kMaxPool = 1u << 24;
constexpr std::uint32_t kMaxStringBytes = 1u << 24;

class Writer {
 public:
  explicit Writer(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), bytes, bytes + n);
  }
  Bytes& out_;
};

class Reader {
 public:
  explicit Reader(BytesView bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t& v) { return raw(&v, sizeof v); }
  bool u32(std::uint32_t& v) { return raw(&v, sizeof v); }
  bool u64(std::uint64_t& v) { return raw(&v, sizeof v); }
  bool i32(std::int32_t& v) { return raw(&v, sizeof v); }
  bool i64(std::int64_t& v) { return raw(&v, sizeof v); }
  bool str(std::string& s, std::uint32_t max_len = kMaxStringBytes) {
    std::uint32_t len = 0;
    if (!u32(len) || len > max_len || bytes_.size() - pos_ < len) return false;
    s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return true;
  }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  bool raw(void* p, std::size_t n) {
    if (bytes_.size() - pos_ < n) return false;
    std::memcpy(p, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  BytesView bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

void CompiledProgram::serialize(Bytes& out) const {
  Writer w(out);
  w.u32(kMagic);
  w.u32(kVersion);

  w.u32(static_cast<std::uint32_t>(symbols_.string_count()));
  for (std::uint32_t i = 0; i < symbols_.string_count(); ++i) {
    w.str(symbols_.string_at(i));
  }
  w.u32(static_cast<std::uint32_t>(symbols_.boxed_count()));
  for (std::uint32_t i = 0; i < symbols_.boxed_count(); ++i) {
    w.i64(symbols_.boxed_at(i));
  }

  w.u32(static_cast<std::uint32_t>(relations_.size()));
  for (const RelationInfo& rel : relations_) {
    w.str(rel.predicate);
    w.u32(rel.arity);
  }

  w.u32(static_cast<std::uint32_t>(facts_.size()));
  for (const CFact& fact : facts_) {
    w.i32(fact.relation);
    for (IValue v : fact.tuple) w.u64(v.bits());
  }

  auto put_operand = [&w](const COperand& op) {
    w.u8(op.is_const ? 1 : 0);
    w.u64(op.cval.bits());
    w.u32(op.slot);
  };
  auto put_expr = [&](const CExpr& e) {
    put_operand(e.lhs);
    w.u8(static_cast<std::uint8_t>(e.op));
    put_operand(e.rhs);
  };

  w.u32(static_cast<std::uint32_t>(rules_.size()));
  for (const CRule& rule : rules_) {
    w.i32(rule.relation);
    w.i32(rule.stratum);
    w.u32(rule.num_slots);
    w.u32(static_cast<std::uint32_t>(rule.head.size()));
    for (const COperand& op : rule.head) put_operand(op);
    w.u32(static_cast<std::uint32_t>(rule.body.size()));
    for (const CLiteral& lit : rule.body) {
      w.u8(static_cast<std::uint8_t>(lit.kind));
      w.i32(lit.relation);
      w.u8(lit.recursive ? 1 : 0);
      w.u8(static_cast<std::uint8_t>(lit.cmp));
      put_expr(lit.left);
      put_expr(lit.right);
      w.u32(lit.target);
      w.u32(static_cast<std::uint32_t>(lit.args.size()));
      for (const CTerm& term : lit.args) {
        w.u8(static_cast<std::uint8_t>(term.kind));
        w.u64(term.cval.bits());
        w.u32(term.slot);
      }
    }
  }

  w.i32(num_strata_);
  w.u32(max_slots_);
}

Result<CompiledProgram> CompiledProgram::deserialize(BytesView bytes) {
  Reader r(bytes);
  auto fail = [](const char* what) -> Result<CompiledProgram> {
    return err(std::string("compiled program: ") + what);
  };

  std::uint32_t magic = 0, version = 0;
  if (!r.u32(magic) || magic != kMagic) return fail("bad magic");
  if (!r.u32(version) || version != kVersion) return fail("bad version");

  CompiledProgram cp;

  std::uint32_t nstrings = 0;
  if (!r.u32(nstrings) || nstrings > kMaxPool) return fail("truncated strings");
  for (std::uint32_t i = 0; i < nstrings; ++i) {
    std::string s;
    if (!r.str(s)) return fail("truncated string pool");
    // Re-interning in stored id order reproduces the original ids; a
    // duplicate entry would shift every later id, so reject it.
    if (cp.symbols_.intern_string(s) != IValue::symbol(i)) {
      return fail("duplicate string pool entry");
    }
  }
  std::uint32_t nboxed = 0;
  if (!r.u32(nboxed) || nboxed > kMaxPool) return fail("truncated boxed ints");
  for (std::uint32_t i = 0; i < nboxed; ++i) {
    std::int64_t v = 0;
    if (!r.i64(v)) return fail("truncated boxed pool");
    // Only values that cannot be inlined ever reach the boxed pool; an
    // inlinable value here would intern to a different representation and
    // break every id after it.
    if (IValue::fits_inline(v) ||
        cp.symbols_.intern_int(v) != IValue::boxed_int(i)) {
      return fail("invalid boxed pool entry");
    }
  }

  // An IValue is only meaningful relative to the pools above.
  auto check_value = [&](IValue v) {
    switch (v.tag()) {
      case IValue::Tag::kInlineInt:
        return true;
      case IValue::Tag::kSymbol:
        return v.id() < nstrings;
      case IValue::Tag::kBoxedInt:
        return v.id() < nboxed;
    }
    return false;  // tag bits 11: never produced by interning
  };
  auto read_value = [&](IValue& out) {
    std::uint64_t bits = 0;
    if (!r.u64(bits)) return false;
    out = IValue::from_bits(bits);
    return check_value(out);
  };

  std::uint32_t nrelations = 0;
  if (!r.u32(nrelations) || nrelations > kMaxPool) {
    return fail("truncated relations");
  }
  cp.relations_.reserve(nrelations);
  for (std::uint32_t i = 0; i < nrelations; ++i) {
    RelationInfo rel;
    if (!r.str(rel.predicate) || !r.u32(rel.arity) || rel.arity > kMaxPool) {
      return fail("truncated relation table");
    }
    if (!cp.index_.emplace(RelationKey{rel.predicate, rel.arity},
                           static_cast<int>(i)).second) {
      return fail("duplicate relation");
    }
    cp.relations_.push_back(std::move(rel));
  }
  auto check_relation = [&](int id) {
    return id >= 0 && static_cast<std::uint32_t>(id) < nrelations;
  };

  std::uint32_t nfacts = 0;
  if (!r.u32(nfacts) || nfacts > kMaxPool) return fail("truncated facts");
  cp.facts_.reserve(nfacts);
  for (std::uint32_t i = 0; i < nfacts; ++i) {
    CFact fact;
    if (!r.i32(fact.relation) || !check_relation(fact.relation)) {
      return fail("fact names an unknown relation");
    }
    const std::uint32_t arity =
        cp.relations_[static_cast<std::size_t>(fact.relation)].arity;
    fact.tuple.resize(arity);
    for (IValue& v : fact.tuple) {
      if (!read_value(v)) return fail("fact tuple value out of range");
    }
    cp.facts_.push_back(std::move(fact));
  }

  std::int32_t num_strata = 0;
  std::uint32_t max_slots = 0;

  std::uint32_t nrules = 0;
  if (!r.u32(nrules) || nrules > kMaxPool) return fail("truncated rules");
  cp.rules_.reserve(nrules);
  std::uint32_t computed_max_slots = 0;
  for (std::uint32_t i = 0; i < nrules; ++i) {
    CRule rule;
    if (!r.i32(rule.relation) || !check_relation(rule.relation)) {
      return fail("rule head names an unknown relation");
    }
    if (!r.i32(rule.stratum) || rule.stratum < 0) return fail("bad stratum");
    if (!r.u32(rule.num_slots) || rule.num_slots > kMaxPool) {
      return fail("bad slot count");
    }
    if (rule.num_slots > computed_max_slots) {
      computed_max_slots = rule.num_slots;
    }

    auto check_slot = [&rule](std::uint32_t slot) {
      return slot < rule.num_slots;
    };
    auto read_operand = [&](COperand& op) {
      std::uint8_t is_const = 0;
      if (!r.u8(is_const) || is_const > 1) return false;
      op.is_const = is_const == 1;
      if (!read_value(op.cval) || !r.u32(op.slot)) return false;
      return op.is_const || check_slot(op.slot);
    };
    auto read_expr = [&](CExpr& e) {
      std::uint8_t op = 0;
      if (!read_operand(e.lhs) || !r.u8(op) ||
          op > static_cast<std::uint8_t>(ArithOp::kMul)) {
        return false;
      }
      e.op = static_cast<ArithOp>(op);
      return read_operand(e.rhs);
    };

    std::uint32_t nhead = 0;
    const std::uint32_t head_arity =
        cp.relations_[static_cast<std::size_t>(rule.relation)].arity;
    if (!r.u32(nhead) || nhead != head_arity) return fail("head arity mismatch");
    rule.head.resize(nhead);
    for (COperand& op : rule.head) {
      if (!read_operand(op)) return fail("bad head operand");
    }

    std::uint32_t nbody = 0;
    if (!r.u32(nbody) || nbody > kMaxPool) return fail("truncated rule body");
    rule.body.reserve(nbody);
    for (std::uint32_t j = 0; j < nbody; ++j) {
      CLiteral lit;
      std::uint8_t kind = 0, recursive = 0, cmp = 0;
      if (!r.u8(kind) ||
          kind > static_cast<std::uint8_t>(CLiteral::Kind::kAlwaysFail)) {
        return fail("bad literal kind");
      }
      lit.kind = static_cast<CLiteral::Kind>(kind);
      if (!r.i32(lit.relation) || !r.u8(recursive) || recursive > 1 ||
          !r.u8(cmp) || cmp > static_cast<std::uint8_t>(CmpOp::kNe)) {
        return fail("bad literal header");
      }
      lit.recursive = recursive == 1;
      lit.cmp = static_cast<CmpOp>(cmp);
      if (!read_expr(lit.left) || !read_expr(lit.right) ||
          !r.u32(lit.target)) {
        return fail("bad literal expression");
      }
      const bool is_scan = lit.kind == CLiteral::Kind::kScan ||
                           lit.kind == CLiteral::Kind::kNegated;
      if (is_scan && !check_relation(lit.relation)) {
        return fail("literal names an unknown relation");
      }
      if (lit.kind == CLiteral::Kind::kAssign && !check_slot(lit.target)) {
        return fail("assignment target out of range");
      }
      std::uint32_t nargs = 0;
      if (!r.u32(nargs) || nargs > kMaxPool) return fail("truncated literal");
      if (is_scan &&
          nargs != cp.relations_[static_cast<std::size_t>(lit.relation)].arity) {
        return fail("literal arity mismatch");
      }
      lit.args.resize(nargs);
      for (CTerm& term : lit.args) {
        std::uint8_t term_kind = 0;
        if (!r.u8(term_kind) ||
            term_kind > static_cast<std::uint8_t>(CTerm::Kind::kIgnore)) {
          return fail("bad term kind");
        }
        term.kind = static_cast<CTerm::Kind>(term_kind);
        if (!read_value(term.cval) || !r.u32(term.slot)) {
          return fail("bad term");
        }
        const bool uses_slot = term.kind == CTerm::Kind::kBind ||
                               term.kind == CTerm::Kind::kCheck;
        if (uses_slot && !check_slot(term.slot)) {
          return fail("term slot out of range");
        }
      }
      rule.body.push_back(std::move(lit));
    }
    cp.rules_.push_back(std::move(rule));
  }

  if (!r.i32(num_strata) || num_strata < 1 || num_strata > 1 << 16) {
    return fail("bad stratum count");
  }
  if (!r.u32(max_slots) || max_slots != computed_max_slots) {
    return fail("slot count mismatch");
  }
  if (!r.done()) return fail("trailing bytes");

  cp.num_strata_ = num_strata;
  cp.max_slots_ = max_slots;
  for (const CRule& rule : cp.rules_) {
    if (rule.stratum >= num_strata) return fail("stratum out of range");
  }
  // Recompute the per-stratum execution order exactly as compile() does:
  // rules in program order within each stratum.
  cp.stratum_rules_.assign(static_cast<std::size_t>(num_strata), {});
  for (std::size_t i = 0; i < cp.rules_.size(); ++i) {
    cp.stratum_rules_[static_cast<std::size_t>(cp.rules_[i].stratum)]
        .push_back(static_cast<std::uint32_t>(i));
  }
  return cp;
}

}  // namespace anchor::datalog
