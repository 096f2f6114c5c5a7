// General Certificate Constraints (§3 of the paper): "a simple program
// attached to a specific root certificate (by SHA-256 hash) that returns a
// Boolean true or false. If the GCC returns false, the certificate chain in
// question must be rejected."
//
// A Gcc owns the Datalog source and its parsed, validated form. Validation
// happens at construction: the program must lex, parse, stratify, pass the
// safety check, and define the required `valid` rule — a malformed GCC is
// rejected when a root store ingests it, never at chain-validation time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/facts.hpp"
#include "datalog/ast.hpp"
#include "datalog/compiled.hpp"
#include "util/result.hpp"
#include "util/sha256.hpp"
#include "x509/certificate.hpp"

namespace anchor::core {

class Gcc {
 public:
  // `root_hash_hex` is the SHA-256 (lowercase hex) of the root certificate
  // this constraint binds to; it is parsed by digest_from_hex, so anything
  // but 64 lowercase hex characters is rejected. `justification` is
  // free-form provenance (bug link, incident writeup) carried through RSF
  // snapshots.
  static Result<Gcc> create(std::string name, std::string_view root_hash_hex,
                            std::string source, std::string justification = "");
  static Result<Gcc> create(std::string name, const Sha256::Digest& root_hash,
                            std::string source, std::string justification = "");

  // Convenience: bind to a parsed certificate.
  static Result<Gcc> for_certificate(std::string name,
                                     const x509::Certificate& root,
                                     std::string source,
                                     std::string justification = "");

  // Restores a Gcc from an already-compiled program (mmap snapshot load:
  // rootstore/snapshot/view.cpp) — no parse, no recompile. The source text
  // rides along for provenance and re-serialization but is NOT re-validated
  // here; the snapshot reader is responsible for having obtained `compiled`
  // from a trusted serialization of a program that passed create(). The
  // parsed AST (`program()`) is left empty — nothing on the verdict path
  // reads it (GccExecutor evaluates compiled() only).
  static Result<Gcc> from_compiled(
      std::string name, const Sha256::Digest& root_hash, std::string source,
      std::string justification,
      std::shared_ptr<const datalog::CompiledProgram> compiled);

  const std::string& name() const { return body_->name; }
  const Sha256::Digest& root_hash() const { return body_->root_hash; }
  std::string root_hash_hex() const { return to_hex(BytesView(root_hash())); }
  const std::string& source() const { return body_->source; }
  const std::string& justification() const { return body_->justification; }
  const datalog::Program& program() const { return body_->program; }

  // The executable form, compiled once at create() (symbol interning, slot
  // resolution, stratified rule ordering) and never recompiled.
  const std::shared_ptr<const datalog::CompiledProgram>& compiled() const {
    return body_->compiled;
  }
  // Which fact-vocabulary relations (and valid/2) compiled() mentions,
  // resolved alongside it so a verify loads only those.
  const FactRelations& fact_relations() const {
    return body_->fact_relations;
  }

  bool operator==(const Gcc& other) const {
    return body_ == other.body_ ||
           (name() == other.name() && root_hash() == other.root_hash() &&
            source() == other.source());
  }

 private:
  // Everything a Gcc holds is fixed at construction, so copies share one
  // body: copying a Gcc — GccStore hands out value copies, and every
  // RootStore copy (feed retention, client replicas, VerifyService
  // snapshots) copies its GccStore — copies a pointer, never the source,
  // the AST or the compiled program.
  struct Body {
    std::string name;
    Sha256::Digest root_hash{};
    std::string source;
    std::string justification;
    datalog::Program program;
    std::shared_ptr<const datalog::CompiledProgram> compiled;
    FactRelations fact_relations;
  };

  explicit Gcc(std::shared_ptr<const Body> body) : body_(std::move(body)) {}

  std::shared_ptr<const Body> body_;
};

// Per-root constraint registry: the executable half of a root store. GCCs
// accumulate (a root may carry several; all must hold).
class GccStore {
 public:
  // Attaches (re-attaching under the same name replaces). Returns true if
  // anything observable changed; attaching a byte-identical copy of an
  // already-attached GCC is a no-op that leaves version() unchanged, so
  // redundant feed replay does not invalidate verdict caches keyed on
  // RootStore::epoch().
  bool attach(Gcc gcc);
  // Removes the named GCC from the given root; returns true if it existed.
  bool detach(const Sha256::Digest& root_hash, const std::string& name);

  // All constraints bound to a root (empty if unconstrained).
  const std::vector<Gcc>& for_root(const Sha256::Digest& root_hash) const;

  std::size_t total() const;
  std::size_t constrained_roots() const { return by_root_.size(); }

  // Root hashes with at least one GCC, sorted (bytewise, which is also the
  // order of their hex forms) — for deterministic serialization.
  std::vector<Sha256::Digest> roots_sorted() const;

  // Monotonic mutation counter (effective attach and successful detach).
  // RootStore::attach_gcc/detach_gcc consult the attach/detach return
  // values — not this counter — to bump the store epoch; version() remains
  // for callers tracking a GccStore in isolation.
  std::uint64_t version() const { return version_; }

 private:
  std::unordered_map<Sha256::Digest, std::vector<Gcc>, DigestHash> by_root_;
  std::uint64_t version_ = 0;
};

}  // namespace anchor::core
