// The six root-CA incidents of §2.2, each rebuilt as an executable
// scenario: a miniature PKI reproducing the trust topology, the partial
// distrust the primary operator actually shipped (expressed as a GCC, as
// the paper proposes), and a set of labelled test chains with the outcome
// the primary's policy dictates.
//
//   TurkTrust (2013)    — revoked intermediates + no EV from the root
//   TUBITAK (2016)      — new root admitted under a gov-TLD name pin
//   ANSSI (2013)        — revoked intermediate + root pinned to French gov
//   India CCA (2014)    — revoked intermediates + root pinned to .in
//   MCS/CNNIC (2015)    — allowlist of exempted subordinates
//   WoSign (2016)       — distrust of *new* leaves + revoked backdated SHA-1
//   Symantec (2018)     — the paper's Listing 2: date cutoff + exemptions
//   Cross-sign (2021)   — a distrusted root resurrected via a cross-sign
//                         (the Hiller et al. bane case): rejected by the
//                         graph search, silently accepted by a tree walk
//
// These double as integration tests (tests/incidents_test.cpp) and as the
// workload for the binary-vs-partial-distrust experiment (E8).
#pragma once

#include <string>
#include <vector>

#include "chain/pool.hpp"
#include "chain/verifier.hpp"
#include "rootstore/store.hpp"
#include "util/simsig.hpp"

namespace anchor::incidents {

struct IncidentCase {
  std::string label;
  x509::CertPtr leaf;
  chain::VerifyOptions options;
  // Expected verdict under the primary's (GCC-expressed) policy.
  bool expect_valid = false;
};

struct Incident {
  std::string name;
  std::string summary;
  rootstore::RootStore store;  // primary store, GCC(s) attached
  SimSig signatures;
  chain::CertificatePool pool;
  std::vector<IncidentCase> cases;
  // Hashes of the roots the incident implicates (for E8's removal model).
  std::vector<Sha256::Digest> affected_roots;
};

Incident make_turktrust();
// TUBITAK (2016): not a breach response but the admission-time counterpart
// the paper pairs with TurkTrust — "Mozilla added a hard-coded name
// constraint to NSS that allows the new root to issue leaf certificates
// for Turkish government TLDs only." Expressed as a GCC at inclusion.
Incident make_tubitak();
Incident make_anssi();
Incident make_india_cca();
Incident make_cnnic();
Incident make_wosign();
Incident make_symantec();
// The cross-signing bane case: a root the store explicitly distrusts keeps
// a live cross-sign from a still-trusted root, so a path to trust exists
// that never visits the distrusted certificate itself. Production
// semantics (VerifyOptions::graph_distrust = true) collapses the root and
// its cross-sign into one poisoned logical CA and rejects with
// kDistrusted; the pre-graph tree walk (graph_distrust = false) accepts —
// the disparity bench_disparity censuses.
Incident make_cross_sign();

// All eight, in chronological order of the underlying events.
std::vector<Incident> all_incidents();

}  // namespace anchor::incidents
