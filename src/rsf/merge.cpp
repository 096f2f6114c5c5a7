#include "rsf/merge.hpp"

#include <unordered_set>

namespace anchor::rsf {

const char* to_string(ConflictKind kind) {
  switch (kind) {
    case ConflictKind::kDistrustedReAdded:
      return "distrusted-re-added";
    case ConflictKind::kMetadataMismatch:
      return "metadata-mismatch";
    case ConflictKind::kLocalDistrust:
      return "local-distrust";
  }
  return "unknown";
}

MergeResult merge(const rootstore::RootStore& primary,
                  const rootstore::RootStore& derivative, MergePolicy policy) {
  MergeResult result;

  // Primary trusted set forms the base.
  for (const rootstore::RootEntry* entry : primary.trusted()) {
    result.merged.add_trusted_unchecked(entry->cert, entry->metadata);
  }
  // Primary distrust set carries over.
  for (const auto& [hash, justification] : primary.distrusted()) {
    result.merged.distrust(hash, justification);
  }

  // Derivative additions.
  for (const rootstore::RootEntry* entry : derivative.trusted()) {
    const Sha256::Digest& hash = entry->cert->fingerprint();
    switch (primary.state_of(hash)) {
      case rootstore::TrustState::kDistrusted: {
        result.conflicts.push_back(MergeConflict{
            ConflictKind::kDistrustedReAdded, entry->cert->fingerprint_hex(),
            "derivative trusts a root the primary explicitly distrusts"});
        if (policy == MergePolicy::kDerivativeWins) {
          result.merged.add_trusted_unchecked(entry->cert, entry->metadata);
        }
        break;
      }
      case rootstore::TrustState::kTrusted: {
        const rootstore::RootEntry* base = primary.find(hash);
        if (base != nullptr && !(base->metadata == entry->metadata)) {
          result.conflicts.push_back(MergeConflict{
              ConflictKind::kMetadataMismatch, entry->cert->fingerprint_hex(),
              "derivative metadata differs from primary"});
          // Primary metadata already in the merged store; only override
          // when the derivative wins.
          if (policy == MergePolicy::kDerivativeWins) {
            result.merged.add_trusted_unchecked(entry->cert, entry->metadata);
          }
        }
        break;
      }
      case rootstore::TrustState::kUnknown:
        // A genuine local augmentation (imported/private root): kept.
        result.merged.add_trusted_unchecked(entry->cert, entry->metadata);
        break;
    }
  }

  // Derivative-local distrust is honored — local distrust only narrows.
  for (const auto& [hash, justification] : derivative.distrusted()) {
    switch (primary.state_of(hash)) {
      case rootstore::TrustState::kDistrusted: {
        // Both distrust the root: the primary's justification (already in
        // the merged store) is authoritative provenance and must survive;
        // the derivative's copy is at best redundant. Only a derivative
        // justification for a root the primary left unexplained adds
        // information.
        const auto primary_entry = primary.distrusted().find(hash);
        if (primary_entry != primary.distrusted().end() &&
            primary_entry->second.empty() && !justification.empty()) {
          result.merged.distrust(hash, justification);
        }
        break;
      }
      case rootstore::TrustState::kTrusted:
        // Allowed (it only reduces exposure) but surfaced with its own
        // kind: conflating it with a metadata mismatch made `anchorctl`
        // merge reports indistinguishable from a benign EV-bit skew.
        result.merged.distrust(hash, justification);
        result.conflicts.push_back(MergeConflict{
            ConflictKind::kLocalDistrust, to_hex(BytesView(hash)),
            "derivative distrusts a root the primary trusts"});
        break;
      case rootstore::TrustState::kUnknown:
        result.merged.distrust(hash, justification);
        break;
    }
  }

  // GCCs: union, keyed by (root, name); derivative may add local
  // constraints, and primary constraints always survive.
  for (const auto& root : primary.gccs().roots_sorted()) {
    for (const core::Gcc& gcc : primary.gccs().for_root(root)) {
      result.merged.attach_gcc(gcc);
    }
  }
  for (const auto& root : derivative.gccs().roots_sorted()) {
    // One name probe set per root, built once: the old per-GCC rescan of
    // the primary's list was O(primary × derivative) string compares per
    // root, which bench_rsf_merge's many-GCCs case showed dominating merge
    // time at CT-scale constraint counts.
    std::unordered_set<std::string_view> primary_names;
    for (const core::Gcc& existing : primary.gccs().for_root(root)) {
      primary_names.insert(existing.name());
    }
    for (const core::Gcc& gcc : derivative.gccs().for_root(root)) {
      if (!primary_names.contains(gcc.name())) result.merged.attach_gcc(gcc);
    }
  }

  // Revocation filter: the primary's (the feed's) filter is authoritative;
  // a derivative-local filter survives only when the primary ships none.
  if (primary.revocation_filter() != nullptr) {
    result.merged.set_revocation_filter(primary.revocation_filter());
  } else if (derivative.revocation_filter() != nullptr) {
    result.merged.set_revocation_filter(derivative.revocation_filter());
  }

  return result;
}

}  // namespace anchor::rsf
