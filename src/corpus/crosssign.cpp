#include "corpus/crosssign.hpp"

#include <set>
#include <utility>

#include "util/rng.hpp"
#include "x509/builder.hpp"
#include "x509/oids.hpp"

namespace anchor::corpus {

using x509::CertificateBuilder;
using x509::CertPtr;
using x509::DistinguishedName;

namespace {

// One logical CA: a (subject DN, key) identity that may end up with several
// certificates, one per issuer. Rank orders the DAG: an entity's issuers
// always have strictly lower rank.
struct Entity {
  std::string name;
  SimKeyPair key;
  DistinguishedName dn;
  bool is_root = false;
  bool distrusted = false;
};

}  // namespace

CrossSignDag make_cross_sign_dag(const CrossSignConfig& config) {
  CrossSignDag dag;
  Rng rng(config.seed);
  std::uint64_t serial = 1;

  const int num_roots = config.num_roots < 1 ? 1 : config.num_roots;
  const int distrusted =
      config.distrusted_roots >= num_roots ? num_roots - 1
                                           : config.distrusted_roots;
  const int trusted = num_roots - distrusted;

  // Entities in rank order: trusted roots, distrusted roots, then
  // subordinate CAs. Index == rank.
  std::vector<Entity> entities;
  for (int i = 0; i < num_roots; ++i) {
    Entity e;
    e.name = "XS Root " + std::to_string(i);
    e.key = SimSig::keygen("xs-root-" + std::to_string(config.seed) + "-" +
                           std::to_string(i));
    e.dn = DistinguishedName::make(e.name, "CrossSign Corpus");
    e.is_root = true;
    e.distrusted = i >= trusted;
    dag.signatures.register_key(e.key);
    entities.push_back(std::move(e));
  }
  for (int i = 0; i < config.num_cas; ++i) {
    Entity e;
    e.name = "XS CA " + std::to_string(i);
    e.key = SimSig::keygen("xs-ca-" + std::to_string(config.seed) + "-" +
                           std::to_string(i));
    e.dn = DistinguishedName::make(e.name, "CrossSign Corpus");
    dag.signatures.register_key(e.key);
    entities.push_back(std::move(e));
  }

  const auto issue_ca_cert = [&](const Entity& subject,
                                 const Entity& issuer) -> CertPtr {
    return CertificateBuilder()
        .serial(serial++)
        .subject(subject.dn)
        .issuer(issuer.dn)
        .validity(config.not_before, config.not_after)
        .public_key(subject.key.key_id)
        .ca(std::nullopt)
        .sign(issuer.key)
        .take();
  };

  const auto add_ca_cert = [&](CertPtr cert) {
    dag.pool.add(cert);
    dag.ca_certs.push_back(std::move(cert));
  };

  // Self-signed root certificates. Trusted ones enter the store; distrusted
  // ones are distrusted by hash — and their certificates stay in the pool,
  // which is exactly the resurrection surface the graph must close.
  for (int i = 0; i < num_roots; ++i) {
    CertPtr cert = issue_ca_cert(entities[i], entities[i]);
    dag.root_certs.push_back(cert);
    if (entities[i].distrusted) {
      dag.store.distrust(cert->fingerprint(), "corpus distrust");
    } else {
      (void)dag.store.add_trusted(cert);
    }
    add_ca_cert(std::move(cert));
  }

  std::set<std::pair<int, int>> edges;  // (issuer rank, subject rank)

  // Spanning structure: every subordinate CA gets one certificate from a
  // uniformly drawn lower-rank entity.
  for (int i = num_roots; i < static_cast<int>(entities.size()); ++i) {
    const int parent = static_cast<int>(rng.uniform(
        static_cast<std::uint64_t>(i)));
    edges.insert({parent, i});
    add_ca_cert(issue_ca_cert(entities[i], entities[parent]));
  }

  // Guaranteed bane edges: each distrusted root cross-signed by a trusted
  // root of lower rank (trusted roots occupy ranks [0, trusted)).
  for (int i = trusted; i < num_roots; ++i) {
    const int sponsor =
        static_cast<int>(rng.uniform(static_cast<std::uint64_t>(trusted)));
    if (edges.insert({sponsor, i}).second) {
      add_ca_cert(issue_ca_cert(entities[i], entities[sponsor]));
    }
  }

  // Extra cross-signs: random (lower rank -> higher rank) edges, dedup'd.
  for (int n = 0; n < config.extra_cross_signs; ++n) {
    if (entities.size() < 2) break;
    const int subject = 1 + static_cast<int>(rng.uniform(
                                static_cast<std::uint64_t>(
                                    entities.size() - 1)));
    const int issuer = static_cast<int>(
        rng.uniform(static_cast<std::uint64_t>(subject)));
    if (!edges.insert({issuer, subject}).second) continue;
    add_ca_cert(issue_ca_cert(entities[subject], entities[issuer]));
  }

  // Leaves, issued by subordinate CAs (or trusted roots when there are
  // none), each under its own domain.
  for (int i = 0; i < config.num_leaves; ++i) {
    int issuer;
    if (config.num_cas > 0) {
      issuer = num_roots + static_cast<int>(rng.uniform(
                               static_cast<std::uint64_t>(config.num_cas)));
    } else {
      issuer =
          static_cast<int>(rng.uniform(static_cast<std::uint64_t>(trusted)));
    }
    const std::string domain = "leaf" + std::to_string(i) + ".example.com";
    SimKeyPair key = SimSig::keygen("xs-leaf-" + std::to_string(config.seed) +
                                    "-" + std::to_string(i));
    x509::KeyUsage ku;
    ku.set(x509::KeyUsageBit::kDigitalSignature);
    CertPtr leaf = CertificateBuilder()
                       .serial(serial++)
                       .subject(DistinguishedName::make(domain))
                       .issuer(entities[issuer].dn)
                       .validity(config.not_before, config.not_after)
                       .public_key(key.key_id)
                       .key_usage(ku)
                       .dns_names({domain})
                       .extended_key_usage({x509::oids::kp_server_auth()})
                       .sign(entities[issuer].key)
                       .take();
    dag.leaves.push_back(std::move(leaf));
    dag.leaf_domains.push_back(domain);
  }

  return dag;
}

}  // namespace anchor::corpus
