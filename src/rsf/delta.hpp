// Store deltas (§4: "a RSF is a sequence of root-store snapshots where,
// between snapshots, both certificates and GCCs may be added or removed").
//
// Feed snapshots carry full materializations (self-contained checkpoints,
// which is what the hash chain signs); StoreDelta is the wire-efficient
// update form: diff(from, to) produces the minimal edit script, apply()
// replays it, and the round-trip law  apply(diff(a,b), a) == b  is
// property-tested. bench_rsf_merge reports the bandwidth ratio.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "revocation/crlite.hpp"
#include "rootstore/store.hpp"

namespace anchor::rsf {

struct StoreDelta {
  struct TrustChange {
    x509::CertPtr cert;
    rootstore::RootMetadata metadata;
  };

  std::vector<TrustChange> add_trusted;              // add or metadata update
  std::vector<std::pair<Sha256::Digest, std::string>> distrust;  // hash, why
  std::vector<Sha256::Digest> forget;                // back to unknown
  std::vector<core::Gcc> attach_gccs;
  // (root, name) pairs.
  std::vector<std::pair<Sha256::Digest, std::string>> detach_gccs;
  // Revocation-filter carriage: at most one of these is meaningful. A
  // non-null set_filter replaces the store's compressed revocation set
  // (parsed at deserialize time so apply() cannot fail); clear_filter
  // removes it.
  std::shared_ptr<const revocation::CompressedRevocationSet> set_filter;
  bool clear_filter = false;

  bool empty() const {
    return add_trusted.empty() && distrust.empty() && forget.empty() &&
           attach_gccs.empty() && detach_gccs.empty() &&
           set_filter == nullptr && !clear_filter;
  }
  std::size_t operations() const {
    return add_trusted.size() + distrust.size() + forget.size() +
           attach_gccs.size() + detach_gccs.size() +
           (set_filter != nullptr ? 1 : 0) + (clear_filter ? 1 : 0);
  }

  // Minimal edit script turning `from` into `to`.
  static StoreDelta diff(const rootstore::RootStore& from,
                         const rootstore::RootStore& to);

  // Replays the delta onto `store`. Re-trusting a currently distrusted root
  // goes through the unchecked path: a delta produced by diff() is the
  // primary's explicit decision, not a derivative augmentation.
  void apply(rootstore::RootStore& store) const;

  // Line-oriented text form (same base64 conventions as the store format).
  std::string serialize() const;
  static Result<StoreDelta> deserialize(std::string_view text);
};

}  // namespace anchor::rsf
