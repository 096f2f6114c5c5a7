// Lowering Chrome Root Store constraints to GCCs (ROADMAP item 3): each
// parsed `trust_anchors` entry compiles to at most two `core::Gcc`
// Datalog programs that ride the existing compiled-evaluation fast path
// (Gcc::create interns and slot-resolves at build time, PR 3).
//
//   * "<prefix>-<hash12>-constraints" — the OR over `constraints` blocks,
//     each block an AND over its fields (deployed Chrome semantics);
//   * "<prefix>-<hash12>-ev-policy"   — EV leaves must carry one of the
//     anchor's ev_policy_oids.
//
// Lowering table (one rule group per constraint kind; DESIGN.md
// "Constraint ingestion & compilation" documents the full grammar):
//
//   sct_not_after_sec S      ∃ SCT with T <= S            (inclusive)
//   sct_all_after_sec S      ≥1 SCT and none with T <= S  (exclusive)
//   permitted_dns_names P*   every leaf SAN has a dot-suffix in P*
//   min_version V            clientVersion present and >= packed(V)
//   max_version_exclusive V  clientVersion present and <  packed(V)
//   enforce_anchor_expiry    validationTime within the root's validity
//   enforce_anchor_constraints  root's own name constraints cover every
//       leaf SAN, no SAN inside an excluded name, and chain length
//       respects the root's pathLenConstraint
//
// Chain-external inputs (SCTs, the client's version, the validation
// instant) are not X.509 fields, so they arrive as *context facts*
// encoded per chain by `ChainContext`:
//
//   sctTimestamp(Chain, T)    one per SCT, Unix seconds
//   clientVersion(Chain, V)   packed dotted version (Version::packed)
//   validationTime(Chain, T)  Unix seconds
//
// Absent context fails closed: a version-gated block rejects when no
// clientVersion fact is supplied, an expiry-enforcing block rejects
// without validationTime, and sct_* blocks reject a chain with no SCTs.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/facts.hpp"
#include "core/gcc.hpp"
#include "rootstore/chromeproto.hpp"
#include "rootstore/store.hpp"
#include "util/result.hpp"

namespace anchor::rootstore {

// Per-chain validation context; everything the Chrome constraint
// vocabulary references that is not derivable from the certificates.
struct ChainContext {
  std::vector<std::int64_t> sct_timestamps;  // Unix seconds, one per SCT
  std::optional<chromeproto::Version> client_version;
  std::optional<std::int64_t> validation_time;

  // Appends the context facts for `chain_id` (core::chain_id_of) to `out`.
  void append_facts(const std::string& chain_id, core::FactSet& out) const;
  core::FactSet to_facts(const std::string& chain_id) const {
    core::FactSet facts;
    append_facts(chain_id, facts);
    return facts;
  }
};

enum class ConstraintKind {
  kSctNotAfter = 0,
  kSctAllAfter,
  kPermittedDns,
  kMinVersion,
  kMaxVersionExclusive,
  kAnchorExpiry,
  kAnchorConstraints,
  kEvPolicy,
};
inline constexpr std::size_t kConstraintKindCount = 8;

const char* to_string(ConstraintKind kind);

struct CompileStats {
  std::size_t anchors = 0;
  std::size_t blocks = 0;
  std::size_t gccs = 0;
  std::size_t clauses = 0;
  // How many times each constraint kind was lowered.
  std::array<std::size_t, kConstraintKindCount> kind_counts{};

  void merge(const CompileStats& other);
};

struct CompileOptions {
  // GCC names are "<prefix>-<first 12 hash chars>-constraints|-ev-policy".
  std::string name_prefix = "crs";
  std::string justification = "chrome-root-store textproto";
};

// Lowers one anchor. Returns 0, 1 or 2 GCCs (an unconstrained anchor
// compiles to nothing). Fails only if a generated program fails Gcc
// validation — which would be a compiler bug, never a data-shape issue:
// every data-shape rejection already happened in chromeproto::parse_store.
Result<std::vector<core::Gcc>> compile_anchor(
    const chromeproto::TrustAnchor& anchor, const CompileOptions& options = {},
    CompileStats* stats = nullptr);

// Compiles a whole parsed store onto `out`: anchors whose certificate the
// resolver knows are added as trusted roots (EV bit from ev_policy_oids);
// every anchor's GCCs attach by hash either way, so constraints are never
// dropped just because the certificate has not arrived yet.
struct StoreCompileResult {
  CompileStats stats;
  std::size_t anchors_with_cert = 0;
  std::size_t anchors_without_cert = 0;
};

// Looks a trust anchor's certificate up by its SHA-256; null if unknown.
using CertResolver =
    std::function<x509::CertPtr(const Sha256::Digest& sha256)>;

Result<StoreCompileResult> compile_store(const chromeproto::StoreFile& file,
                                         const CertResolver& resolve,
                                         RootStore& out,
                                         const CompileOptions& options = {});

}  // namespace anchor::rootstore
