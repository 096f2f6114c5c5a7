// Chain construction and validation with the GCC hook (§3.1 of the paper):
// "whenever a candidate root is found with a GCC, the validator must
// execute the GCC to determine whether to accept the chain or continue
// building."
//
// The verifier runs one iterative depth-first search from the leaf toward
// the trusted roots over the certificate *graph* (graph.hpp): candidate
// issuers are logical CAs keyed by (subject DN, SPKI), so cross-signed
// certificates are alternate edges into one node and the search reaches
// every leaf→root path across cross-signs, trying each candidate path once
// and each certificate at most once per path. Issuers are tried in a fixed
// order, trusted anchors (trusted_by_subject order) before pooled
// certificates (graph order), so the first accepted path is deterministic.
// Each link gets RFC 5280-style checks (validity window, basicConstraints.cA,
// pathLenConstraint, keyCertSign, signature, registered revocation
// sources); each path ending at an anchor gets the root store's systematic
// metadata (date-usage cutoffs, EV bit), name constraints, and the root's
// GCCs. The verdict is accept-if-any-path; every path that was reached and
// rejected is recorded structurally as a RejectedPath. A logical CA
// containing an explicitly distrusted certificate poisons all paths
// through it — the cross-signing bane case (a distrusted root resurrected
// via a cross-sign) is rejected with kDistrusted instead of silently
// re-trusted.
//
// The search fails closed on a budget: at most max_paths anchor-terminated
// candidates and at most max_paths × max_depth link checks (every
// candidate link, anchor or pooled, passing or failing), so a cross-signed
// ladder that never reaches a root costs bounded work. Exhausting either
// sets `truncated` and rejects.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chain/error.hpp"
#include "chain/link_cache.hpp"
#include "chain/pool.hpp"
#include "core/executor.hpp"
#include "revocation/provider.hpp"
#include "rootstore/store.hpp"
#include "util/simsig.hpp"

namespace anchor::chain {

enum class Usage { kTls, kSmime };

const char* usage_name(Usage usage);  // "TLS" / "S/MIME"

struct VerifyOptions {
  std::int64_t time = 0;        // validation instant (Unix seconds)
  std::string hostname;         // required for kTls; checked against SAN
  Usage usage = Usage::kTls;
  bool require_ev = false;      // demand an EV chain (leaf EV + root EV bit)
  std::size_t max_depth = 8;    // maximum certificates in a path
  std::size_t max_paths = 64;   // candidate-path budget across cross-signs;
                                // × max_depth, the link-check budget
  bool check_signatures = true; // disable only in parsing-only benchmarks
  bool run_gccs = true;         // the ablation switch for E9
  // The bane-case ablation switch: false reverts to the pre-graph tree
  // walk that never checks pooled certificates against the distrusted set
  // — the baseline the incident scenario and bench_disparity census run
  // against. Production semantics is true.
  bool graph_distrust = true;
  // Chain-external facts for GCC evaluation (SCT timestamps, client
  // version, validation instant — the Chrome Root Store constraint
  // vocabulary; see rootstore/constraint_compile.hpp). Must outlive the
  // verify() call; nullptr when the store carries no context-dependent
  // constraints.
  const core::FactSet* gcc_context = nullptr;
};

// A candidate path that was reached and rejected, recorded structurally:
// callers branch on `kind`, render via to_string() for humans, and match
// paths by fingerprint — substring-matching free-form diagnostics is gone.
struct RejectedPath {
  std::vector<std::string> fingerprints;  // hex, leaf-first
  std::vector<std::string> subjects;      // common names, parallel
  ErrorKind kind = ErrorKind::kInternal;
  std::string detail;

  bool operator==(const RejectedPath&) const = default;
};

// Legacy rendering: "Leaf CN <- Int CN <- Root CN | detail".
std::string to_string(const RejectedPath& path);

struct VerifyResult {
  bool ok = false;
  core::Chain chain;            // leaf-first accepted path (when ok)
  // Classified failure cause (kOk when ok). For a chain whose candidate
  // paths all reached a root and were rejected, this is the kind of the
  // *first* rejection — matching `error`'s "first fatal diagnostic" rule.
  ErrorKind kind = ErrorKind::kOk;
  std::string error;            // first fatal diagnostic (when !ok)
  // Diagnostics: every candidate path that was reached and rejected — at a
  // trusted root (metadata/GCC/link failures) or at a poisoned logical CA
  // (kDistrusted).
  std::vector<RejectedPath> rejected_paths;
  core::GccVerdict gcc_verdict; // aggregate over executed GCCs
  std::size_t paths_explored = 0;
  bool truncated = false;       // search stopped at its budget (see top)
};

// Hook interface for GCC execution placement (user-agent vs platform
// daemon, §3.1). The default executes in-process; bench E9 swaps in a
// hook that asks an anchord server's evaluate-gccs verb.
using GccHook = std::function<bool(const core::Chain& chain,
                                   std::string_view usage,
                                   std::span<const core::Gcc> gccs,
                                   const core::FactSet* context,
                                   core::GccVerdict& verdict)>;

class ChainVerifier {
 public:
  // `store` is any StoreReader — the mutable heap RootStore or an
  // mmap-backed snapshot StoreView; verdicts are byte-identical either way
  // (the StoreReader ordering contract). `scheme` must outlive the verifier
  // and have every issuing key registered (the corpus generator does this).
  // A store-distributed revocation filter (store.revocation_filter()) is
  // registered as a revocation source automatically.
  ChainVerifier(const rootstore::StoreReader& store,
                const SignatureScheme& scheme);

  // Overrides GCC execution placement.
  void set_gcc_hook(GccHook hook) { gcc_hook_ = std::move(hook); }

  // Registers a revocation source consulted on every link during path
  // construction (revocation/provider.hpp). Sources are checked in
  // registration order; any kRevoked answer rejects the link. Replaces the
  // old per-mechanism set_crlset/set_onecrl raw-pointer setters.
  void add_revocation_source(std::shared_ptr<const revocation::Provider> p) {
    if (p != nullptr) revocation_.push_back(std::move(p));
  }

  // Shares `cache` (owned by the caller, outliving the verifier) for
  // signature checks: a link it holds skips only the signature math, and a
  // link whose signature passes is added. Every other link check still
  // runs, and with check_signatures off the cache is neither read nor
  // filled. A verifier without one checks every signature.
  void set_link_cache(LinkCache* cache) { link_cache_ = cache; }

  VerifyResult verify(const x509::CertPtr& leaf, const CertificatePool& pool,
                      const VerifyOptions& options) const;

 private:
  // Fills `result` from the path search; true once a path is accepted.
  bool search(const x509::CertPtr& leaf, const CertificatePool& pool,
              const VerifyOptions& options, VerifyResult& result) const;

  // Per-certificate checks that do not depend on the final root.
  // nullopt = pass; a Fault carries the classified rejection.
  std::optional<Fault> check_link(const x509::Certificate& child,
                                  const x509::Certificate& issuer,
                                  std::size_t child_depth,
                                  const VerifyOptions& options) const;

  // The signature of `child` under `issuer`, through the link cache.
  bool signature_verifies(const x509::Certificate& child,
                          const x509::Certificate& issuer) const;

  // Root-dependent checks: store metadata, then GCCs.
  std::optional<Fault> check_at_root(const core::Chain& chain,
                                     const rootstore::RootEntry& root_entry,
                                     const VerifyOptions& options,
                                     VerifyResult& result) const;

  const rootstore::StoreReader& store_;
  const SignatureScheme& scheme_;
  core::GccExecutor executor_;
  GccHook gcc_hook_;
  LinkCache* link_cache_ = nullptr;
  std::vector<std::shared_ptr<const revocation::Provider>> revocation_;
};

}  // namespace anchor::chain
