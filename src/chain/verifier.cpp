#include "chain/verifier.hpp"

#include <algorithm>
#include <limits>

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
    return verdict.accumulate(executor_.evaluate(chain, usage, gccs, context));
  };
  // The store-distributed compressed revocation filter (delivered through
  // RSF snapshots/deltas) is a revocation source like any other.
  if (auto filter = store.revocation_filter()) {
    revocation_.push_back(std::move(filter));
  }
}

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

// One certificate's place on the search path: the candidates for its
// issuer not yet tried — trusted anchors first, then pooled certificates
// node by node.
struct Cursor {
  std::span<const rootstore::RootEntry* const> anchors;
  std::size_t anchor = 0;
  std::span<const GraphNode> nodes;
  std::size_t node = 0;
  std::size_t cert = 0;  // next member of nodes[node]
};

// The search's step budget: max_paths × max_depth link checks, saturating.
std::size_t max_link_checks(const VerifyOptions& options) {
  if (options.max_depth != 0 &&
      options.max_paths >
          std::numeric_limits<std::size_t>::max() / options.max_depth) {
    return std::numeric_limits<std::size_t>::max();
  }
  return options.max_paths * options.max_depth;
}

// Cycle safety: a certificate appears at most once on a path.
bool on_path(const core::Chain& path, const x509::Certificate& cert) {
  return std::any_of(path.begin(), path.end(), [&](const x509::CertPtr& c) {
    return c->fingerprint() == cert.fingerprint();
  });
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
  if (options.check_signatures && !signature_verifies(child, issuer)) {
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

bool ChainVerifier::signature_verifies(const x509::Certificate& child,
                                       const x509::Certificate& issuer) const {
  if (link_cache_ != nullptr &&
      link_cache_->contains(child.fingerprint(), issuer.fingerprint())) {
    return true;
  }
  if (!scheme_.verify(BytesView(issuer.public_key()),
                      BytesView(child.tbs_der()),
                      BytesView(child.signature()))) {
    return false;  // never cached: a scheme that gains the key may accept
  }
  if (link_cache_ != nullptr) {
    link_cache_->insert(child.fingerprint(), issuer.fingerprint());
  }
  return true;
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

  // Name constraints along the path apply to the leaf's DNS identities,
  // listed only once some certificate on the path carries constraints.
  std::optional<std::vector<std::string>> names;
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const auto& nc = chain[i]->name_constraints();
    if (!nc) continue;
    if (!names) {
      names = leaf.dns_names();
      if (!options.hostname.empty()) names->push_back(options.hostname);
    }
    for (const auto& name : *names) {
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

bool ChainVerifier::search(const x509::CertPtr& leaf,
                           const CertificatePool& pool,
                           const VerifyOptions& options,
                           VerifyResult& result) const {
  // Every candidate link checked counts against the step budget, so work
  // is bounded even where no path reaches a root. Exhausting it, or
  // max_paths, stops the whole search: accept-if-any only holds over the
  // paths actually tried, so the truncation is surfaced rather than
  // silently narrowing the claim.
  const std::size_t max_checks = max_link_checks(options);
  std::size_t checks = 0;
  auto out_of_budget = [&](bool ends_at_root) {
    if (checks < max_checks &&
        !(ends_at_root && result.paths_explored >= options.max_paths)) {
      ++checks;
      return false;
    }
    result.truncated = true;
    return true;
  };

  // One leaf-first path, and per certificate on it a cursor over the
  // candidates for its issuer, both sized for the default depth.
  constexpr std::size_t kTypicalDepth = 8;
  core::Chain path;
  std::vector<Cursor> cursors;
  path.reserve(std::min(options.max_depth, kTypicalDepth));
  cursors.reserve(std::min(options.max_depth, kTypicalDepth));
  path.push_back(leaf);
  auto open_cursor = [&] {
    Cursor cursor;
    if (path.size() < options.max_depth) {
      const x509::DistinguishedName& issuer = path.back()->issuer();
      cursor.anchors = store_.trusted_by_subject(issuer);
      cursor.nodes = pool.nodes_for_subject(issuer);
    }
    cursors.push_back(cursor);
  };
  open_cursor();

  while (!cursors.empty()) {
    Cursor& at = cursors.back();
    const x509::Certificate& current = *path.back();
    const std::size_t child_depth = path.size() - 1;

    // A trusted root that issued `current` completes the path.
    if (at.anchor < at.anchors.size()) {
      const rootstore::RootEntry& entry = *at.anchors[at.anchor++];
      if (entry.cert->fingerprint() == current.fingerprint()) continue;
      if (out_of_budget(true)) return false;
      ++result.paths_explored;
      path.push_back(entry.cert);
      std::optional<Fault> why =
          check_link(current, *entry.cert, child_depth, options);
      if (!why) why = check_at_root(path, entry, options, result);
      if (!why) {
        result.ok = true;
        result.chain = std::move(path);
        return true;
      }
      record_rejection(result, path, *why);  // the paper's "continue building"
      path.pop_back();
      continue;
    }

    // Otherwise extend through untrusted issuers from the pool, one logical
    // CA (graph node) at a time, so cross-signed certificates are alternate
    // edges into the same node.
    if (at.node < at.nodes.size()) {
      const GraphNode& node = at.nodes[at.node];
      // The bane check, once per node: if *any* certificate of this logical
      // CA is explicitly distrusted, trust in the CA's key was withdrawn
      // and no cross-signed sibling may resurrect it — every path through
      // the node is rejected, structurally, without descending.
      const x509::CertPtr* bad = at.cert == 0 && options.graph_distrust
                                     ? distrusted_member(node, store_)
                                     : nullptr;
      if (bad != nullptr) {
        path.push_back(*bad);
        record_rejection(
            result, path,
            Fault{ErrorKind::kDistrusted,
                  "distrusted CA '" + (*bad)->subject().common_name() +
                      "': certificate " +
                      (*bad)->fingerprint_hex().substr(0, 16) +
                      "... is explicitly distrusted; a cross-sign cannot "
                      "resurrect it"});
        path.pop_back();
      }
      if (bad != nullptr || at.cert == node.certs.size()) {
        ++at.node;
        at.cert = 0;
        continue;
      }
      const x509::CertPtr& candidate = node.certs[at.cert++];
      if (on_path(path, *candidate)) continue;
      if (out_of_budget(false)) return false;
      if (auto link = check_link(current, *candidate, child_depth, options)) {
        // Not a rejected *path* (the search just doesn't go this way), but
        // still the first classified fault if nothing better turns up.
        if (result.kind == ErrorKind::kOk) result.kind = link->kind;
        continue;
      }
      path.push_back(candidate);
      open_cursor();
      continue;
    }

    cursors.pop_back();
    path.pop_back();
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
  if (search(leaf, pool, options, result)) {
    result.kind = ErrorKind::kOk;
    return result;
  }
  if (result.truncated) {
    result.error = "path budget exhausted (max_paths = " +
                   std::to_string(options.max_paths) + " paths, " +
                   std::to_string(max_link_checks(options)) +
                   " link checks) before an accepted path";
  } else {
    result.error = result.rejected_paths.empty()
                       ? "no path to a trusted root"
                       : "all candidate paths rejected";
  }
  // search() recorded the first classified rejection's kind; a search that
  // never hit a classifiable fault is kNoPath.
  if (result.kind == ErrorKind::kOk) result.kind = ErrorKind::kNoPath;
  return result;
}

}  // namespace anchor::chain
