#include "chain/verifier.hpp"

#include <functional>
#include <set>
#include <unordered_set>

#include "revocation/crlite.hpp"
#include "x509/oids.hpp"

namespace anchor::chain {

const char* usage_name(Usage usage) {
  return usage == Usage::kTls ? core::kUsageTls : core::kUsageSmime;
}

ChainVerifier::ChainVerifier(const rootstore::StoreReader& store,
                             const SignatureScheme& scheme)
    : store_(store), scheme_(scheme) {
  gcc_hook_ = [this](const core::Chain& chain, std::string_view usage,
                     std::span<const core::Gcc> gccs,
                     const core::FactSet* context,
                     core::GccVerdict& verdict) {
    core::GccVerdict v = executor_.evaluate(chain, usage, gccs, context);
    verdict.gccs_evaluated += v.gccs_evaluated;
    verdict.facts_encoded += v.facts_encoded;
    verdict.stats.accumulate(v.stats);
    if (!v.allowed) verdict.failed_gcc = v.failed_gcc;
    return v.allowed;
  };
  // The store-distributed compressed revocation filter (delivered through
  // RSF snapshots/deltas) is a revocation source like any other.
  if (auto filter = store.revocation_filter()) {
    revocation_.push_back(std::move(filter));
  }
}

struct ChainVerifier::SearchState {
  core::Chain path;  // leaf-first
  std::unordered_set<Sha256::Digest, DigestHash> visited;
  const CertificatePool* pool = nullptr;
};

namespace {

// nullopt = pass; otherwise the classified rejection.
std::optional<Fault> fault(ErrorKind kind, std::string detail) {
  return Fault{kind, std::move(detail)};
}

// Leaf-only checks, independent of the path taken.
std::optional<Fault> check_leaf(const x509::Certificate& leaf,
                                const VerifyOptions& options) {
  if (!leaf.valid_at(options.time)) {
    return fault(ErrorKind::kExpired, "leaf outside validity window");
  }
  if (options.usage == Usage::kTls) {
    if (!options.hostname.empty() && !leaf.matches_host(options.hostname)) {
      return fault(ErrorKind::kHostnameMismatch,
                   "leaf does not match hostname " + options.hostname);
    }
    if (leaf.extended_key_usage() &&
        !leaf.extended_key_usage()->has(x509::oids::kp_server_auth())) {
      return fault(ErrorKind::kUsageViolation, "leaf EKU lacks id-kp-serverAuth");
    }
  } else {
    if (leaf.extended_key_usage() &&
        !leaf.extended_key_usage()->has(x509::oids::kp_email_protection())) {
      return fault(ErrorKind::kUsageViolation,
                   "leaf EKU lacks id-kp-emailProtection");
    }
  }
  if (options.require_ev && !leaf.is_ev()) {
    return fault(ErrorKind::kUsageViolation,
                 "EV required but leaf carries no EV policy");
  }
  return std::nullopt;
}

// Records a reached-and-rejected path structurally and pins the first
// classified fault as the result kind.
void record_rejection(VerifyResult& result, const core::Chain& chain,
                      const Fault& why) {
  if (result.kind == ErrorKind::kOk) result.kind = why.kind;
  RejectedPath rejected;
  rejected.kind = why.kind;
  rejected.detail = why.detail;
  rejected.fingerprints.reserve(chain.size());
  rejected.subjects.reserve(chain.size());
  for (const auto& cert : chain) {
    rejected.fingerprints.push_back(cert->fingerprint_hex());
    rejected.subjects.push_back(cert->subject().common_name());
  }
  result.rejected_paths.push_back(std::move(rejected));
}

}  // namespace

std::string to_string(const RejectedPath& path) {
  std::string out;
  for (const auto& subject : path.subjects) {
    if (!out.empty()) out += " <- ";
    out += subject;
  }
  out += " | ";
  out += path.detail;
  return out;
}

std::optional<Fault> ChainVerifier::check_link(
    const x509::Certificate& child, const x509::Certificate& issuer,
    std::size_t child_depth, const VerifyOptions& options) const {
  if (!issuer.valid_at(options.time)) {
    return fault(ErrorKind::kExpired, "issuer '" +
                                          issuer.subject().common_name() +
                                          "' outside validity window");
  }
  if (!issuer.is_ca()) {
    return fault(ErrorKind::kConstraintViolation,
                 "issuer '" + issuer.subject().common_name() + "' is not a CA");
  }
  if (issuer.key_usage() &&
      !issuer.key_usage()->has(x509::KeyUsageBit::kKeyCertSign)) {
    return fault(ErrorKind::kConstraintViolation,
                 "issuer '" + issuer.subject().common_name() +
                     "' lacks keyCertSign");
  }
  // pathLenConstraint: at most path_len CA certificates may sit strictly
  // between this issuer and the leaf. `child_depth` is the index of `child`
  // in the leaf-first path, which equals the number of certificates below
  // the issuer excluding the leaf (indices 1..child_depth are CAs, index 0
  // is the leaf).
  if (auto plen = issuer.path_len()) {
    std::size_t intermediates_below = child_depth;
    if (intermediates_below > static_cast<std::size_t>(*plen)) {
      return fault(ErrorKind::kConstraintViolation,
                   "issuer '" + issuer.subject().common_name() +
                       "' pathLenConstraint exceeded");
    }
  }
  if (options.check_signatures &&
      !scheme_.verify(BytesView(issuer.public_key()),
                      BytesView(child.tbs_der()),
                      BytesView(child.signature()))) {
    return fault(ErrorKind::kBadSignature,
                 "signature of '" + child.subject().common_name() +
                     "' does not verify under '" +
                     issuer.subject().common_name() + "'");
  }
  // Registered revocation sources (CRLSet, OneCRL, the RSF-delivered
  // compressed filter, ...), applied per link now that the issuer — and
  // thus its SPKI — is known. Any positive answer rejects the link.
  for (const auto& provider : revocation_) {
    if (provider->check(child, BytesView(issuer.public_key())) ==
        revocation::RevocationStatus::kRevoked) {
      return fault(ErrorKind::kRevoked, "'" + child.subject().common_name() +
                                            "' is revoked (" +
                                            provider->name() + ")");
    }
  }
  return std::nullopt;
}

std::optional<Fault> ChainVerifier::check_at_root(
    const core::Chain& chain, const rootstore::RootEntry& root_entry,
    const VerifyOptions& options, VerifyResult& result) const {
  const x509::Certificate& leaf = *chain.front();
  const rootstore::RootMetadata& metadata = root_entry.metadata;
  if (options.usage == Usage::kTls && metadata.tls_distrust_after &&
      leaf.not_before() >= *metadata.tls_distrust_after) {
    return fault(ErrorKind::kUsageViolation,
                 "tls-distrust-after: leaf issued past the trust cutoff");
  }
  if (options.usage == Usage::kSmime && metadata.smime_distrust_after &&
      leaf.not_before() >= *metadata.smime_distrust_after) {
    return fault(ErrorKind::kUsageViolation,
                 "smime-distrust-after: leaf issued past the trust cutoff");
  }
  if (options.require_ev && !metadata.ev_allowed) {
    return fault(ErrorKind::kUsageViolation,
                 "EV required but root is not EV-enabled");
  }

  // Name constraints along the path apply to the leaf's DNS identities.
  std::vector<std::string> names = leaf.dns_names();
  if (!options.hostname.empty()) names.push_back(options.hostname);
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const auto& nc = chain[i]->name_constraints();
    if (!nc) continue;
    for (const auto& name : names) {
      if (!nc->allows(name)) {
        return fault(ErrorKind::kConstraintViolation,
                     "name constraint on '" +
                         chain[i]->subject().common_name() + "' excludes " +
                         name);
      }
    }
  }

  if (options.run_gccs) {
    const auto gccs = store_.gccs_for_root(chain.back()->fingerprint());
    if (!gccs.empty() &&
        !gcc_hook_(chain, usage_name(options.usage), gccs,
                   options.gcc_context, result.gcc_verdict)) {
      return fault(ErrorKind::kGccDenied,
                   "gcc:" + result.gcc_verdict.failed_gcc);
    }
  }
  return std::nullopt;
}

bool ChainVerifier::extend(SearchState& state, const VerifyOptions& options,
                           VerifyResult& result) const {
  if (result.truncated) return false;
  // Copy, not reference: recursive extension reallocates state.path.
  const x509::CertPtr current = state.path.back();

  // Exhausting the candidate-path budget stops the whole search: the
  // accept-if-any semantics only holds over the paths actually tried, so
  // the truncation is surfaced rather than silently narrowing the claim.
  auto out_of_budget = [&]() {
    if (result.paths_explored < options.max_paths) return false;
    result.truncated = true;
    return true;
  };

  // Option 1: terminate at a trusted root that issued `current` (respecting
  // the depth bound on the completed chain).
  const std::span<const rootstore::RootEntry* const> anchors =
      state.path.size() < options.max_depth
          ? store_.trusted_by_subject(current->issuer())
          : std::span<const rootstore::RootEntry* const>{};
  for (const rootstore::RootEntry* entry : anchors) {
    if (entry->cert->fingerprint() == current->fingerprint()) continue;
    if (out_of_budget()) return false;
    ++result.paths_explored;
    core::Chain candidate = state.path;
    candidate.push_back(entry->cert);
    if (auto link = check_link(*current, *entry->cert, state.path.size() - 1,
                               options)) {
      record_rejection(result, candidate, *link);
      continue;
    }
    if (auto root_check = check_at_root(candidate, *entry, options, result)) {
      record_rejection(result, candidate, *root_check);
      continue;  // the paper's "continue building" loop
    }
    result.ok = true;
    result.chain = std::move(candidate);
    return true;
  }

  // Option 2: the current certificate is itself a trusted root (e.g. a
  // chain the server terminated at the anchor).
  if (const rootstore::RootEntry* entry =
          store_.find(current->fingerprint());
      entry != nullptr && state.path.size() > 1) {
    if (out_of_budget()) return false;
    ++result.paths_explored;
    auto root_check = check_at_root(state.path, *entry, options, result);
    if (!root_check) {
      result.ok = true;
      result.chain = state.path;
      return true;
    }
    record_rejection(result, state.path, *root_check);
  }

  // Option 3: extend through untrusted issuers from the pool, one logical
  // CA (graph node) at a time so cross-signed certificates are alternate
  // edges into the same node.
  if (state.path.size() >= options.max_depth) return false;
  for (const GraphNode* node :
       state.pool->nodes_for_subject(current->issuer())) {
    if (options.graph_distrust) {
      // The bane check: if *any* certificate of this logical CA is
      // explicitly distrusted, trust in the CA's key was withdrawn and no
      // cross-signed sibling may resurrect it — every path through the
      // node is rejected, structurally, without descending.
      if (const x509::CertPtr* bad = distrusted_member(*node, store_)) {
        core::Chain candidate = state.path;
        candidate.push_back(*bad);
        record_rejection(
            result, candidate,
            Fault{ErrorKind::kDistrusted,
                  "distrusted CA '" + (*bad)->subject().common_name() +
                      "': certificate " +
                      (*bad)->fingerprint_hex().substr(0, 16) +
                      "... is explicitly distrusted; a cross-sign cannot "
                      "resurrect it"});
        continue;
      }
    }
    for (const x509::CertPtr& candidate : node->certs) {
      const Sha256::Digest& hash = candidate->fingerprint();
      if (state.visited.contains(hash)) continue;
      if (auto link = check_link(*current, *candidate, state.path.size() - 1,
                                 options)) {
        // Not a rejected *path* (the search just doesn't go this way), but
        // still the first classified fault if nothing better turns up.
        if (result.kind == ErrorKind::kOk) result.kind = link->kind;
        continue;
      }
      state.visited.insert(hash);
      state.path.push_back(candidate);
      if (extend(state, options, result)) return true;
      state.path.pop_back();
      state.visited.erase(hash);
      if (result.truncated) return false;
    }
  }
  return false;
}

VerifyResult ChainVerifier::verify(const x509::CertPtr& leaf,
                                   const CertificatePool& pool,
                                   const VerifyOptions& options) const {
  VerifyResult result;
  if (auto leaf_fault = check_leaf(*leaf, options)) {
    result.kind = leaf_fault->kind;
    result.error = std::move(leaf_fault->detail);
    return result;
  }
  SearchState state;
  state.path.push_back(leaf);
  state.visited.insert(leaf->fingerprint());
  state.pool = &pool;
  if (!extend(state, options, result)) {
    if (result.error.empty()) {
      if (result.truncated) {
        result.error = "path budget exhausted (max_paths = " +
                       std::to_string(options.max_paths) +
                       ") before an accepted path";
      } else {
        result.error = result.rejected_paths.empty()
                           ? "no path to a trusted root"
                           : "all candidate paths rejected";
      }
    }
    // extend() recorded the first classified rejection's kind; a search
    // that never hit a classifiable fault is kNoPath.
    if (result.kind == ErrorKind::kOk) result.kind = ErrorKind::kNoPath;
  } else {
    result.kind = ErrorKind::kOk;
  }
  return result;
}

std::vector<std::vector<std::string>> ChainVerifier::enumerate_paths(
    const x509::CertPtr& leaf, const CertificatePool& pool,
    std::size_t max_depth, std::size_t max_paths) const {
  std::vector<std::vector<std::string>> out;
  std::set<std::vector<std::string>> seen;
  core::Chain path;
  path.push_back(leaf);
  std::unordered_set<Sha256::Digest, DigestHash> visited;
  visited.insert(leaf->fingerprint());

  auto fingerprints = [](const core::Chain& chain) {
    std::vector<std::string> fps;
    fps.reserve(chain.size());
    for (const auto& cert : chain) fps.push_back(cert->fingerprint_hex());
    return fps;
  };
  auto emit = [&](const core::Chain& chain) {
    auto fps = fingerprints(chain);
    if (seen.insert(fps).second) out.push_back(std::move(fps));
  };

  std::function<void()> dfs = [&]() {
    if (out.size() >= max_paths) return;
    const x509::CertPtr current = path.back();
    if (path.size() < max_depth) {
      for (const rootstore::RootEntry* entry :
           store_.trusted_by_subject(current->issuer())) {
        if (entry->cert->fingerprint() == current->fingerprint()) continue;
        core::Chain candidate = path;
        candidate.push_back(entry->cert);
        emit(candidate);
        if (out.size() >= max_paths) return;
      }
    }
    if (path.size() > 1 && store_.find(current->fingerprint()) != nullptr) {
      emit(path);
      if (out.size() >= max_paths) return;
    }
    if (path.size() >= max_depth) return;
    for (const GraphNode* node : pool.nodes_for_subject(current->issuer())) {
      for (const x509::CertPtr& candidate : node->certs) {
        const Sha256::Digest& hash = candidate->fingerprint();
        if (visited.contains(hash)) continue;
        visited.insert(hash);
        path.push_back(candidate);
        dfs();
        path.pop_back();
        visited.erase(hash);
        if (out.size() >= max_paths) return;
      }
    }
  };
  dfs();
  return out;
}

}  // namespace anchor::chain
