#include "chain/graph.hpp"

#include "util/bytes.hpp"

namespace anchor::chain {

std::string CertificateGraph::node_key(const x509::Certificate& cert) {
  return cert.subject().to_string() + "|" + to_hex(BytesView(cert.public_key()));
}

void CertificateGraph::add(x509::CertPtr cert) {
  auto& bucket = by_subject_[cert->subject().to_string()];
  // Exact duplicates (same DER) are dropped.
  for (const auto& existing : bucket.certs) {
    if (existing->fingerprint() == cert->fingerprint()) return;
  }

  const std::string key = node_key(*cert);
  auto it = node_by_key_.find(key);
  std::size_t index = 0;
  if (it == node_by_key_.end()) {
    index = nodes_.size();
    nodes_.push_back(GraphNode{cert->subject().to_string(),
                               cert->public_key(),
                               {}});
    node_by_key_.emplace(key, index);
    bucket.nodes.push_back(index);
  } else {
    index = it->second;
  }
  nodes_[index].certs.push_back(cert);
  bucket.certs.push_back(std::move(cert));
  ++size_;
}

void CertificateGraph::add_all(const std::vector<x509::CertPtr>& certs) {
  for (const auto& cert : certs) add(cert);
}

const std::vector<x509::CertPtr>& CertificateGraph::by_subject(
    const x509::DistinguishedName& subject) const {
  static const std::vector<x509::CertPtr> kEmpty;
  auto it = by_subject_.find(subject.to_string());
  return it == by_subject_.end() ? kEmpty : it->second.certs;
}

std::vector<const GraphNode*> CertificateGraph::nodes_for_subject(
    const x509::DistinguishedName& subject) const {
  auto it = by_subject_.find(subject.to_string());
  if (it == by_subject_.end()) return {};
  std::vector<const GraphNode*> out;
  out.reserve(it->second.nodes.size());
  for (std::size_t index : it->second.nodes) out.push_back(&nodes_[index]);
  return out;
}

const GraphNode* CertificateGraph::node_of(
    const x509::Certificate& cert) const {
  auto it = node_by_key_.find(node_key(cert));
  return it == node_by_key_.end() ? nullptr : &nodes_[it->second];
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
