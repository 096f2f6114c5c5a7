// §3.1, third deployment option — "Complete validation redesign": "In
// Hammurabi, the entire TLS certificate validation algorithm is expressed
// as a Prolog program. A Hammurabi-enabled platform could perform the
// complete chain validation procedure ... The trust daemon could easily
// execute GCCs since it would already include a logic program engine."
//
// This module expresses the full validation algorithm as a *stratified
// Datalog* policy over the same fact vocabulary GCCs use, plus a handful of
// host-provided facts (current time, hostname decomposition, and
// signature-verified issuance edges — crypto stays outside the logic, as in
// Hammurabi). Chain construction itself happens in the logic via a
// depth-bounded recursive `up/3` relation.
//
// Datalog (no lists) cannot carry a path as a term, but it does not need
// to: the chain relation upOK(Leaf, Ancestor, Depth) checks every link *at
// its depth* (pathLen via a depth-indexed plenOkAt, name constraints and
// explicit distrust per certificate), so each derivation witnesses one
// concrete valid candidate path and `accept` holds iff some path survives
// — the same accept-if-any-path semantics as the procedural graph
// verifier, including under cross-signing. Explicit distrust is lifted to
// the logical-CA level with distrustedCA/1 facts covering every
// certificate that shares (subject DN, SPKI) with a distrusted one, so
// the cross-signing bane case is rejected here too
// (tests/policy_test.cpp differential-tests the two verifiers and pins
// the agreement, cross-signed cases included).
#pragma once

#include <string>
#include <string_view>

#include "chain/pool.hpp"
#include "chain/verifier.hpp"
#include "core/facts.hpp"
#include "datalog/compiled.hpp"
#include "rootstore/store.hpp"

namespace anchor::policy {

// The built-in validation policy (Datalog source). Derives
// `accept(LeafId)`; see the file-level comment for semantics.
const std::string& default_policy();

struct PolicyResult {
  bool ok = false;
  std::string leaf_id;
  datalog::EvalStats stats;
  std::size_t facts = 0;
};

class PolicyVerifier {
 public:
  // `policy_source` defaults to default_policy(). The store's trusted roots
  // become trustedRoot/1 facts; distrusted roots are simply absent. The
  // policy is parsed and compiled here, once; a policy that fails either
  // step makes every verify() return ok = false.
  PolicyVerifier(const rootstore::RootStore& store,
                 const SignatureScheme& scheme,
                 std::string_view policy_source = default_policy());

  // Validates `leaf` against the pool, entirely inside the Datalog engine
  // (aside from signature verification, which feeds issuedBy/2 facts).
  PolicyResult verify(const x509::CertPtr& leaf,
                      const chain::CertificatePool& pool,
                      const chain::VerifyOptions& options) const;

  // Every fact verify() evaluates the policy over: certificate and
  // wildcard facts for the leaf's issuer-DN universe plus the trusted
  // roots, host facts (now, usage, isLeaf, hostname decomposition,
  // trustedRoot), distrustedCA and signature-verified issuedBy edges.
  core::FactSet facts(const x509::CertPtr& leaf,
                      const chain::CertificatePool& pool,
                      const chain::VerifyOptions& options) const;

 private:
  const rootstore::RootStore& store_;
  const SignatureScheme& scheme_;
  Result<datalog::CompiledProgram> program_;  // an error fails every verify
};

}  // namespace anchor::policy
