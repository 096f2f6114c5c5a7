#include "policy/policy.hpp"

#include <unordered_set>

#include "core/facts.hpp"
#include "util/strings.hpp"

namespace anchor::policy {

const std::string& default_policy() {
  static const std::string kPolicy = R"(% anchor built-in validation policy.
% Host facts: now/1, hostname/1, hostnameParent/1, hostnameSuffix/1,
% usage/1, isLeaf/1, trustedRoot/1, distrustedCA/1, issuedBy/2 (signature
% already verified), plus the standard certificate facts (notBefore, san,
% isCA, ...).

% --- temporal validity ---
timeValid(C) :- notBefore(C, NB), notAfter(C, NA), now(T), NB <= T, T <= NA.

% --- hostname matching (exact SAN or single-label wildcard) ---
nameMatch(L) :- san(L, N), hostname(N).
nameMatch(L) :- sanWildcardBase(L, B), hostnameParent(B).
nameOK(L) :- hostname(H), nameMatch(L).
nameOK(L) :- isLeaf(L), \+anyHostname(L). % no hostname requested (S/MIME)
anyHostname(L) :- isLeaf(L), hostname(_).

% --- extended key usage vs requested usage ---
hasEKU(C) :- extendedKeyUsage(C, _).
ekuOK(L) :- isLeaf(L), \+hasEKU(L).   % absent EKU permits any usage
ekuOK(L) :- usage("TLS"), extendedKeyUsage(L, "id-kp-serverAuth").
ekuOK(L) :- usage("S/MIME"), extendedKeyUsage(L, "id-kp-emailProtection").

% --- CA fitness ---
hasKU(C) :- keyUsage(C, _).
kuCertSignOK(C) :- keyUsage(C, "keyCertSign").
kuCertSignOK(C) :- isCA(C), \+hasKU(C). % absent keyUsage permits signing
caOK(C) :- isCA(C), kuCertSignOK(C), timeValid(C).

% --- depth domain for the bounded recursion (max_depth = 8) ---
depthDom(1). depthDom(2). depthDom(3). depthDom(4).
depthDom(5). depthDom(6). depthDom(7). depthDom(8).

% --- pathLenConstraint, indexed by depth: a CA at depth D has D-1 CAs
% strictly below it (the leaf is not a CA), so it satisfies pathLen P
% iff D-1 <= P. Checking it *inside the link relation* (rather than as a
% global plenViolated/1 over every reachable cert) is what makes the
% policy path-sensitive: a CA that violates pathLen at depth 3 can still
% serve a different path at depth 2.
hasPathLen(C) :- pathLen(C, _).
plenOkAt(C, D) :- isCA(C), depthDom(D), \+hasPathLen(C).
plenOkAt(C, D) :- pathLen(C, P), depthDom(D), Dm = D - 1, Dm <= P.

% --- name constraints, applied to the requested hostname. The check is
% per-certificate (it constrains the hostname, not the path shape), so a
% violating CA merely fails its own links and alternate paths survive.
hasPermitted(C) :- permittedDNS(C, _).
permittedOK(C) :- permittedDNS(C, S), hostnameSuffix(S).
ncBad(C) :- hasPermitted(C), \+permittedOK(C), hostname(_).
ncBad(C) :- excludedDNS(C, S), hostnameSuffix(S).

% --- a link is usable at depth D iff the CA is fit, satisfies pathLen at
% that depth, passes name constraints, and is not explicitly distrusted.
% distrustedCA/1 is a host fact covering every certificate of a poisoned
% logical CA (same subject + SPKI as a distrusted cert), so a cross-sign
% cannot resurrect a distrusted root — the bane case, in the logic.
linkOK(C, D) :- caOK(C), plenOkAt(C, D), \+ncBad(C), \+distrustedCA(C).

% --- chain construction: upOK(Leaf, Ancestor, Depth). Every link is
% checked at its actual depth, so each derivation witnesses one concrete
% valid candidate path — accept-if-any-path, matching the procedural
% graph search.
upOK(L, I, 1) :- isLeaf(L), issuedBy(L, I), linkOK(I, 1).
upOK(L, J, D) :- upOK(L, I, D1), issuedBy(I, J), D1 < 8, D = D1 + 1,
                 linkOK(J, D).

% --- verdict ---
leafOK(L) :- isLeaf(L), timeValid(L), nameOK(L), ekuOK(L).
accept(L) :- leafOK(L), upOK(L, R, _), trustedRoot(R).
)";
  return kPolicy;
}

namespace {

using datalog::Tuple;
using datalog::Value;

// Hostname decomposition facts, mirroring what the GCC fact encoder does
// for SAN names (pure syntactic data — no policy smuggled in).
void emit_hostname_facts(const std::string& hostname,
                         datalog::Engine& engine, std::size_t& facts) {
  if (hostname.empty()) return;
  std::string host = to_lower(hostname);
  engine.add_fact("hostname", {Value(host)});
  ++facts;
  std::size_t dot = host.find('.');
  if (dot != std::string::npos) {
    engine.add_fact("hostnameParent", {Value(host.substr(dot + 1))});
    ++facts;
  }
  std::string_view rest = host;
  engine.add_fact("hostnameSuffix", {Value(host)});
  ++facts;
  while (true) {
    std::size_t d = rest.find('.');
    if (d == std::string_view::npos) break;
    rest = rest.substr(d + 1);
    engine.add_fact("hostnameSuffix", {Value(std::string(rest))});
    ++facts;
  }
}

// Wildcard SAN decomposition: "*.example.com" -> base "example.com".
void emit_wildcard_facts(const x509::Certificate& cert,
                         datalog::Engine& engine, std::size_t& facts) {
  if (!cert.subject_alt_name()) return;
  const std::string id = cert.fingerprint_hex();
  for (const auto& name : cert.subject_alt_name()->dns_names) {
    if (starts_with(name, "*.")) {
      engine.add_fact("sanWildcardBase",
                      {Value(id), Value(to_lower(name.substr(2)))});
      ++facts;
    }
  }
}

}  // namespace

PolicyVerifier::PolicyVerifier(const rootstore::RootStore& store,
                               const SignatureScheme& scheme,
                               std::string policy_source)
    : store_(store), scheme_(scheme), policy_source_(std::move(policy_source)) {}

PolicyResult PolicyVerifier::verify(const x509::CertPtr& leaf,
                                    const chain::CertificatePool& pool,
                                    const chain::VerifyOptions& options) const {
  PolicyResult result;
  result.leaf_id = leaf->fingerprint_hex();

  datalog::Engine engine;
  if (Status s = engine.load(policy_source_); !s) return result;

  // Gather the certificate universe: leaf + pool candidates (reached by
  // issuer-DN walking) + trusted roots.
  std::vector<x509::CertPtr> universe{leaf};
  std::unordered_set<std::string> seen{leaf->fingerprint_hex()};
  // Breadth-first over issuer DNs up to the depth bound.
  std::vector<x509::CertPtr> frontier{leaf};
  for (std::size_t depth = 0; depth < options.max_depth && !frontier.empty();
       ++depth) {
    std::vector<x509::CertPtr> next;
    for (const auto& cert : frontier) {
      for (const auto& candidate : pool.by_subject(cert->issuer())) {
        if (seen.insert(candidate->fingerprint_hex()).second) {
          universe.push_back(candidate);
          next.push_back(candidate);
        }
      }
    }
    frontier = std::move(next);
  }
  std::vector<x509::CertPtr> roots;
  for (const rootstore::RootEntry* entry : store_.trusted()) {
    roots.push_back(entry->cert);
    if (seen.insert(entry->cert->fingerprint_hex()).second) {
      universe.push_back(entry->cert);
    }
  }

  // Certificate facts.
  core::FactSet facts;
  for (const auto& cert : universe) {
    core::encode_certificate(*cert, facts);
  }
  facts.load_into(engine);
  result.facts = facts.size();
  for (const auto& cert : universe) {
    emit_wildcard_facts(*cert, engine, result.facts);
  }

  // Host facts.
  engine.add_fact("now", {Value(options.time)});
  engine.add_fact("usage",
                  {Value(std::string(chain::usage_name(options.usage)))});
  engine.add_fact("isLeaf", {Value(result.leaf_id)});
  result.facts += 3;
  emit_hostname_facts(options.hostname, engine, result.facts);
  for (const auto& root : roots) {
    engine.add_fact("trustedRoot", {Value(root->fingerprint_hex())});
    ++result.facts;
  }

  // Explicit distrust, lifted to the logical-CA level: every certificate
  // sharing (subject DN, SPKI) with a store-distrusted certificate gets a
  // distrustedCA fact — the same poisoned-node rule the graph verifier
  // applies, so a cross-sign cannot resurrect a distrusted root here
  // either. The impossible "-" fact keeps the predicate total for the
  // \+distrustedCA negation when nothing is distrusted (same construction
  // as revocation_gcc).
  engine.add_fact("distrustedCA", {Value(std::string("-"))});
  ++result.facts;
  std::unordered_set<std::string> poisoned_groups;
  const auto group_key = [](const x509::Certificate& cert) {
    return cert.subject().to_string() + "|" +
           to_hex(BytesView(cert.public_key()));
  };
  for (const auto& cert : universe) {
    if (store_.state_of(cert->fingerprint()) ==
        rootstore::TrustState::kDistrusted) {
      poisoned_groups.insert(group_key(*cert));
    }
  }
  if (!poisoned_groups.empty()) {
    for (const auto& cert : universe) {
      if (poisoned_groups.count(group_key(*cert)) != 0) {
        engine.add_fact("distrustedCA", {Value(cert->fingerprint_hex())});
        ++result.facts;
      }
    }
  }

  // Signature-verified issuance edges (crypto outside the logic, as in
  // Hammurabi). Quadratic over the (small) universe, pruned by DN match.
  for (const auto& child : universe) {
    for (const auto& issuer : universe) {
      if (child->fingerprint() == issuer->fingerprint()) continue;
      if (!(issuer->subject() == child->issuer())) continue;
      if (options.check_signatures &&
          !scheme_.verify(BytesView(issuer->public_key()),
                          BytesView(child->tbs_der()),
                          BytesView(child->signature()))) {
        continue;
      }
      engine.add_fact("issuedBy", {Value(child->fingerprint_hex()),
                                   Value(issuer->fingerprint_hex())});
      ++result.facts;
    }
  }

  datalog::Atom goal;
  goal.predicate = "accept";
  goal.args.push_back(datalog::Term::constant_of(Value(result.leaf_id)));
  auto answer = engine.query(goal);
  result.stats = engine.stats();
  result.ok = answer.ok() && answer.value().holds();
  return result;
}

}  // namespace anchor::policy
