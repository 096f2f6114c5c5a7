// Root-Store Feeds end to end (paper §4): a primary operator publishes
// signed, hash-chained snapshots; a derivative polls hourly, keeps local
// augmentations via merging, and the merge flags the dangerous case — a
// locally re-added root the primary explicitly distrusts.
//
// Build & run:  ./build/examples/rsf_sync
#include <cstdio>

#include "rsf/client.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"

using namespace anchor;

namespace {
x509::CertPtr make_root(const std::string& name) {
  SimKeyPair key = SimSig::keygen(name);
  return x509::CertificateBuilder()
      .serial(1)
      .subject(x509::DistinguishedName::make(name, "Example"))
      .issuer(x509::DistinguishedName::make(name, "Example"))
      .validity(unix_date(2015, 1, 1), unix_date(2040, 1, 1))
      .public_key(key.key_id)
      .ca(std::nullopt)
      .sign(key)
      .take();
}
}  // namespace

int main() {
  std::int64_t t0 = unix_date(2024, 1, 1);

  // --- Primary side --------------------------------------------------------
  rootstore::RootStore primary;
  x509::CertPtr alpha = make_root("Alpha Root CA");
  x509::CertPtr beta = make_root("Beta Root CA");
  x509::CertPtr gamma = make_root("Gamma Root CA");
  (void)primary.add_trusted(alpha);
  (void)primary.add_trusted(beta);
  (void)primary.add_trusted(gamma);

  SimSig registry;
  rsf::Feed feed("primary-demo", registry);
  feed.publish(primary, t0, "initial store: Alpha, Beta, Gamma");

  // --- Derivative side -------------------------------------------------------
  // Local augmentation: an imported corporate root, plus (unwisely) a root
  // the primary will later distrust.
  x509::CertPtr corp = make_root("LocalCorp Internal Root");
  rootstore::RootStore local;
  (void)local.add_trusted(corp);
  (void)local.add_trusted(beta);  // harmless duplicate today...

  rsf::RsfClient client(feed, 3600);
  client.set_local_store(local);
  client.run_until(t0 + 3600);
  std::printf("after first sync : %zu trusted (3 primary + 1 imported), "
              "%llu conflicts\n",
              client.store().trusted_count(),
              static_cast<unsigned long long>(client.stats().merge_conflicts));

  // --- An incident ------------------------------------------------------------
  primary.distrust(beta->fingerprint(), "Beta Root CA key compromise");
  feed.publish(primary, t0 + 30 * 86400, "emergency: distrust Beta");

  client.run_until(t0 + 30 * 86400 + 3600);
  std::printf("after emergency  : %zu trusted, Beta state = %s\n",
              client.store().trusted_count(),
              client.store().state_of(beta->fingerprint()) ==
                      rootstore::TrustState::kDistrusted
                  ? "DISTRUSTED (negative inclusion)"
                  : "trusted?!");
  std::printf("merge conflicts  : %llu (the local re-add of Beta was flagged "
              "and overridden)\n",
              static_cast<unsigned long long>(client.stats().merge_conflicts));

  // --- Tampering is detected ---------------------------------------------------
  primary.distrust(gamma->fingerprint(), "not really -- attacker edit");
  feed.publish(primary, t0 + 31 * 86400, "third release");
  // An attacker rewrites the snapshot in flight.
  feed.mutable_at(3)->payload += "trusted " + std::string(64, '0') + "\n";
  std::size_t applied = client.poll_now(t0 + 31 * 86400 + 3600);
  std::printf("tampered snapshot: applied=%zu, verify failures=%llu "
              "(client fails closed, keeps last good store)\n",
              applied,
              static_cast<unsigned long long>(client.stats().verify_failures));

  std::printf("\nfeed head=%llu, client at seq=%llu\n",
              static_cast<unsigned long long>(feed.head_sequence()),
              static_cast<unsigned long long>(client.last_applied_sequence()));
  return 0;
}
