#include "chain/graph.hpp"

#include <algorithm>
#include <iterator>

namespace anchor::chain {

void CertificateGraph::add(x509::CertPtr cert) {
  SubjectBucket& bucket = by_subject_[cert->subject()];
  // Exact duplicates (same DER) are dropped.
  for (const auto& existing : bucket.certs) {
    if (existing->fingerprint() == cert->fingerprint()) return;
  }

  auto node = std::find_if(
      bucket.nodes.begin(), bucket.nodes.end(),
      [&](const GraphNode& n) { return n.spki == cert->public_key(); });
  if (node == bucket.nodes.end()) {
    bucket.nodes.push_back(
        GraphNode{cert->subject().to_string(), cert->public_key(), {}});
    node = std::prev(bucket.nodes.end());
    ++node_count_;
  }
  node->certs.push_back(cert);
  bucket.certs.push_back(std::move(cert));
  ++size_;
}

void CertificateGraph::add_all(const std::vector<x509::CertPtr>& certs) {
  for (const auto& cert : certs) add(cert);
}

const std::vector<x509::CertPtr>& CertificateGraph::by_subject(
    const x509::DistinguishedName& subject) const {
  static const std::vector<x509::CertPtr> kEmpty;
  auto it = by_subject_.find(subject);
  return it == by_subject_.end() ? kEmpty : it->second.certs;
}

std::span<const GraphNode> CertificateGraph::nodes_for_subject(
    const x509::DistinguishedName& subject) const {
  auto it = by_subject_.find(subject);
  if (it == by_subject_.end()) return {};
  return it->second.nodes;
}

const GraphNode* CertificateGraph::node_of(
    const x509::Certificate& cert) const {
  for (const GraphNode& node : nodes_for_subject(cert.subject())) {
    if (node.spki == cert.public_key()) return &node;
  }
  return nullptr;
}

const x509::CertPtr* distrusted_member(const GraphNode& node,
                                       const rootstore::StoreReader& store) {
  for (const x509::CertPtr& cert : node.certs) {
    if (store.state_of(cert->fingerprint()) ==
        rootstore::TrustState::kDistrusted) {
      return &cert;
    }
  }
  return nullptr;
}

}  // namespace anchor::chain
