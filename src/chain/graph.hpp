// Certificate graph: the pool of candidate issuers promoted to a real
// graph over *logical CAs*. Cross-signing gives one CA several certificates
// — same subject DN, same key, different issuers (Boon and Bane of
// Cross-Signing, PAPERS.md) — so nodes are keyed by (subject DN, SPKI):
// every certificate for the same CA collapses into one node whose member
// certificates are the distinct parent edges path search may follow.
//
// Two read surfaces:
//   * by_subject(dn)        — flat per-subject certificate list (insertion
//                             order), the original pool API; still what the
//                             policy verifier and benches enumerate.
//   * nodes_for_subject(dn) — logical-CA nodes in first-seen order; the
//                             verifier's graph walk iterates these so the
//                             bane check (a node containing an explicitly
//                             distrusted certificate poisons *all* paths
//                             through that CA) happens once per logical CA,
//                             not once per cross-sign.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "rootstore/store.hpp"
#include "x509/certificate.hpp"

namespace anchor::chain {

// One logical CA: every pooled certificate sharing (subject DN, SPKI).
struct GraphNode {
  std::string subject;               // rendered subject DN
  Bytes spki;                        // the CA's public key
  std::vector<x509::CertPtr> certs;  // member certs, insertion order
};

class CertificateGraph {
 public:
  void add(x509::CertPtr cert);
  void add_all(const std::vector<x509::CertPtr>& certs);

  // Certificates whose subject DN equals `subject` — candidate issuers for
  // a certificate with that issuer DN, in insertion order.
  const std::vector<x509::CertPtr>& by_subject(
      const x509::DistinguishedName& subject) const;

  // Logical-CA nodes for that subject DN, in first-seen order. The span is
  // invalidated by add() of a certificate with the same subject.
  std::span<const GraphNode> nodes_for_subject(
      const x509::DistinguishedName& subject) const;

  // The node `cert` belongs to, or nullptr if it was never added.
  const GraphNode* node_of(const x509::Certificate& cert) const;

  std::size_t size() const { return size_; }                // certificates
  std::size_t node_count() const { return node_count_; }     // logical CAs

 private:
  // Every certificate and every logical CA with one subject DN. A node is
  // (subject DN, SPKI), so a subject's nodes are told apart by key alone.
  // Nodes are held by value, with no pointers between tables, so a copied
  // or moved graph refers only into itself.
  struct SubjectBucket {
    std::vector<x509::CertPtr> certs;  // flat pool-compatible view
    std::vector<GraphNode> nodes;      // first-seen order
  };

  std::unordered_map<x509::DistinguishedName, SubjectBucket,
                     x509::DistinguishedNameHash>
      by_subject_;
  std::size_t size_ = 0;
  std::size_t node_count_ = 0;
};

// The bane check: a logical CA is poisoned when any of its member
// certificates is explicitly distrusted by the store — trust in the *key*
// was withdrawn, so a cross-signed sibling certificate must not resurrect
// it. Returns the first distrusted member (for diagnostics), or nullptr.
const x509::CertPtr* distrusted_member(const GraphNode& node,
                                       const rootstore::StoreReader& store);

}  // namespace anchor::chain
