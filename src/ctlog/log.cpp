#include "ctlog/log.hpp"

namespace anchor::ctlog {

Bytes SignedTreeHead::transcript() const {
  std::string t = "anchor-ct-sth/v1\n";
  t += "size " + std::to_string(tree_size) + "\n";
  t += "time " + std::to_string(timestamp) + "\n";
  t += "root " + to_hex(BytesView(root_hash.data(), root_hash.size())) + "\n";
  return to_bytes(t);
}

CtLog::CtLog(std::string name, SimSig& registry)
    : name_(std::move(name)), key_(SimSig::keygen("ct-log-" + name_)) {
  registry.register_key(key_);
}

std::uint64_t CtLog::submit(const x509::CertPtr& cert, std::int64_t timestamp) {
  last_timestamp_ = std::max(last_timestamp_, timestamp);
  entries_.push_back(cert);
  return tree_.append(BytesView(cert->der()));
}

SignedTreeHead CtLog::sth() const { return sth_at(tree_.size()); }

SignedTreeHead CtLog::sth_at(std::uint64_t tree_size) const {
  SignedTreeHead head;
  head.tree_size = tree_size;
  head.timestamp = last_timestamp_;
  head.root_hash = tree_.root_at(tree_size);
  head.signature = SimSig::sign(key_, BytesView(head.transcript()));
  return head;
}

bool CtLog::verify_sth(const SignedTreeHead& sth, BytesView key_id,
                       const SimSig& registry) {
  return registry.verify(key_id, BytesView(sth.transcript()),
                         BytesView(sth.signature));
}

Result<std::uint64_t> LogMonitor::poll() {
  SignedTreeHead head = log_.sth();
  if (!CtLog::verify_sth(head, BytesView(log_.key_id()), registry_)) {
    return err("ct monitor: STH signature invalid");
  }
  if (head.tree_size < last_sth_.tree_size) {
    return err("ct monitor: log shrank (" +
               std::to_string(last_sth_.tree_size) + " -> " +
               std::to_string(head.tree_size) + ")");
  }
  // History must be append-only: the old tree must be a prefix of the new.
  if (last_sth_.tree_size > 0 && head.tree_size > last_sth_.tree_size) {
    auto proof =
        log_.consistency_proof(last_sth_.tree_size, head.tree_size);
    if (!verify_consistency(last_sth_.tree_size, head.tree_size,
                            last_sth_.root_hash, head.root_hash, proof)) {
      return err("ct monitor: consistency proof failed — log rewrote history");
    }
  }

  std::uint64_t consumed = 0;
  const std::uint64_t first_new = next_index_;
  for (; next_index_ < head.tree_size; ++next_index_) {
    const x509::CertPtr& cert = log_.entry(next_index_);
    // Spot-check inclusion on a sample (first, last, every 64th). A proof
    // costs O(log n) hashes to build and to check, so checking every entry
    // would be affordable, but it would add nothing: the consistency proof
    // above already pins the whole tree, and the leaf hash comes from the
    // log itself. Per-entry inclusion is the auditor role, sampled here.
    const bool sample = next_index_ == first_new ||
                        next_index_ + 1 == head.tree_size ||
                        next_index_ % 64 == 0;
    if (sample &&
        !verify_inclusion(log_.entry_leaf_hash(next_index_), next_index_,
                          head.tree_size,
                          log_.inclusion_proof(next_index_, head.tree_size),
                          head.root_hash)) {
      return err("ct monitor: inclusion proof failed at index " +
                 std::to_string(next_index_));
    }
    // Group issuance by issuer CN (the §5.2 "scope of issuance" unit).
    std::string issuer = cert->issuer().common_name();
    if (issuer.empty()) issuer = cert->issuer().to_string();
    preemptive::observe_certificate(scopes_[issuer], *cert);
    ++consumed;
  }
  last_sth_ = head;
  return consumed;
}

}  // namespace anchor::ctlog
