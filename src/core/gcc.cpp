#include "core/gcc.hpp"
#include <algorithm>

#include "datalog/compiled.hpp"
#include "datalog/parser.hpp"

namespace anchor::core {

namespace {

// The usage domain of the Web PKI root stores the paper discusses: NSS
// attaches date-usage pairs for exactly TLS and S/MIME.
const std::vector<std::string>& usage_domain() {
  static const std::vector<std::string> kUsages = {"TLS", "S/MIME"};
  return kUsages;
}

// Listing 2 writes `valid(Chain, _) :- ...` — valid for *any* usage. A
// head variable that never occurs in the body is unsafe under range
// restriction, so such clauses are expanded over the (closed) usage domain
// before validation. This preserves the paper's notation while keeping the
// engine strictly safe.
datalog::Program expand_head_wildcards(const datalog::Program& program) {
  using namespace datalog;
  Program out;
  for (const Clause& clause : program.clauses) {
    if (clause.is_fact()) {
      out.clauses.push_back(clause);
      continue;
    }
    // Collect body variables.
    std::vector<std::string> body_vars;
    auto note = [&](const Term& t) {
      if (t.is_var()) body_vars.push_back(t.name);
    };
    for (const Literal& lit : clause.body) {
      if (lit.kind == Literal::Kind::kComparison) {
        note(lit.left.lhs);
        if (lit.left.op != ArithOp::kNone) note(lit.left.rhs);
        note(lit.right.lhs);
        if (lit.right.op != ArithOp::kNone) note(lit.right.rhs);
      } else {
        for (const Term& arg : lit.atom.args) note(arg);
      }
    }
    auto in_body = [&](const std::string& name) {
      for (const auto& v : body_vars) {
        if (v == name) return true;
      }
      return false;
    };

    // Find head argument positions holding body-free variables.
    std::vector<std::size_t> free_positions;
    for (std::size_t i = 0; i < clause.head.args.size(); ++i) {
      const Term& arg = clause.head.args[i];
      if (arg.is_var() && !in_body(arg.name)) free_positions.push_back(i);
    }
    if (free_positions.empty()) {
      out.clauses.push_back(clause);
      continue;
    }
    // Expand: one clone per usage value, all free positions set to it.
    for (const std::string& usage : usage_domain()) {
      Clause clone = clause;
      for (std::size_t pos : free_positions) {
        clone.head.args[pos] = Term::constant_of(Value(usage));
      }
      out.clauses.push_back(std::move(clone));
    }
  }
  return out;
}

}  // namespace

Result<Gcc> Gcc::create(std::string name, std::string_view root_hash_hex,
                        std::string source, std::string justification) {
  if (name.empty()) return err("gcc: name required");
  const auto root_hash = digest_from_hex(root_hash_hex);
  if (!root_hash) {
    return err("gcc '" + name +
               "': root hash must be SHA-256 hex (64 lowercase hex chars)");
  }
  return create(std::move(name), *root_hash, std::move(source),
                std::move(justification));
}

Result<Gcc> Gcc::create(std::string name, const Sha256::Digest& root_hash,
                        std::string source, std::string justification) {
  if (name.empty()) return err("gcc: name required");
  auto parsed = datalog::parse_program(source);
  if (!parsed) return err("gcc '" + name + "': " + parsed.error());

  datalog::Program program = expand_head_wildcards(parsed.value());

  // Full validation — stratification, safety, body ordering — doubles as
  // compilation: the interned, slot-resolved form is built once here and
  // reused verbatim for every chain evaluated against this GCC.
  auto compiled = datalog::CompiledProgram::compile(program);
  if (!compiled) return err("gcc '" + name + "': " + compiled.error());

  // The executor queries valid/2; a GCC that never defines it would reject
  // every chain, which is never what an operator intends to ship.
  bool defines_valid = false;
  for (const auto& clause : program.clauses) {
    if (clause.head.predicate == "valid" && clause.head.arity() == 2) {
      defines_valid = true;
      break;
    }
  }
  if (!defines_valid) {
    return err("gcc '" + name + "': program does not define valid/2");
  }

  Gcc gcc;
  gcc.name_ = std::move(name);
  gcc.root_hash_ = root_hash;
  gcc.source_ = std::move(source);
  gcc.justification_ = std::move(justification);
  gcc.program_ = std::move(program);
  gcc.compiled_ = std::make_shared<const datalog::CompiledProgram>(
      std::move(compiled).take());
  return gcc;
}

Result<Gcc> Gcc::for_certificate(std::string name,
                                 const x509::Certificate& root,
                                 std::string source,
                                 std::string justification) {
  return create(std::move(name), root.fingerprint(), std::move(source),
                std::move(justification));
}

Result<Gcc> Gcc::from_compiled(
    std::string name, const Sha256::Digest& root_hash, std::string source,
    std::string justification,
    std::shared_ptr<const datalog::CompiledProgram> compiled) {
  if (name.empty()) return err("gcc: name required");
  if (compiled == nullptr) {
    return err("gcc '" + name + "': compiled program required");
  }
  Gcc gcc;
  gcc.name_ = std::move(name);
  gcc.root_hash_ = root_hash;
  gcc.source_ = std::move(source);
  gcc.justification_ = std::move(justification);
  gcc.compiled_ = std::move(compiled);
  return gcc;
}

bool GccStore::attach(Gcc gcc) {
  auto& list = by_root_[gcc.root_hash()];
  // Re-attaching under the same name replaces (feed updates overwrite).
  for (auto& existing : list) {
    if (existing.name() == gcc.name()) {
      // Byte-identical re-attach (same source *and* justification — the
      // serialized form) changes nothing observable: no version bump.
      if (existing.source() == gcc.source() &&
          existing.justification() == gcc.justification()) {
        return false;
      }
      existing = std::move(gcc);
      ++version_;
      return true;
    }
  }
  list.push_back(std::move(gcc));
  ++version_;
  return true;
}

bool GccStore::detach(const Sha256::Digest& root_hash,
                      const std::string& name) {
  auto it = by_root_.find(root_hash);
  if (it == by_root_.end()) return false;
  auto& list = it->second;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].name() == name) {
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
      if (list.empty()) by_root_.erase(it);
      ++version_;
      return true;
    }
  }
  return false;
}

const std::vector<Gcc>& GccStore::for_root(
    const Sha256::Digest& root_hash) const {
  static const std::vector<Gcc> kEmpty;
  auto it = by_root_.find(root_hash);
  return it == by_root_.end() ? kEmpty : it->second;
}

std::vector<Sha256::Digest> GccStore::roots_sorted() const {
  std::vector<Sha256::Digest> roots;
  roots.reserve(by_root_.size());
  for (const auto& [hash, list] : by_root_) roots.push_back(hash);
  std::sort(roots.begin(), roots.end());
  return roots;
}

std::size_t GccStore::total() const {
  std::size_t n = 0;
  for (const auto& [hash, list] : by_root_) n += list.size();
  return n;
}

}  // namespace anchor::core
