// Conversion of X.509 certificate chains into Datalog facts (§3 of the
// paper: "the chain in question is first converted into a form the GCC
// program can read ... converting each X.509 certificate field into a
// Datalog statement. Further, relationships between certificates (i.e.,
// that a particular certificate signs another) must also be codified.")
//
// Fact vocabulary (C = certificate id, the SHA-256 hex of its DER):
//   leaf(Chain, C)              the chain's end-entity certificate
//   root(Chain, C)              the chain's trust anchor
//   certAt(Chain, I, C)         position I (0 = leaf) in the chain
//   chainLength(Chain, N)
//   signs(Issuer, Subject)      adjacency: Issuer directly signed Subject
//   hash(C, H)                  H = SHA-256 hex (identical to the cert id)
//   serial(C, S)                S = serial number hex
//   notBefore(C, T), notAfter(C, T)   Unix timestamps
//   lifetime(C, Seconds)
//   subjectCN(C, Name), issuerCN(C, Name)
//   subjectOrg(C, Name)
//   san(C, DnsName)             one fact per dNSName
//   sanTLD(C, Tld)              rightmost label of each dNSName
//   nameSuffix(C, Name, Sfx)    every dot-suffix of each dNSName
//   keyUsage(C, U)              U in {"digitalSignature", ...}
//   extendedKeyUsage(C, U)      U in {"id-kp-serverAuth", ...}
//   isCA(C), pathLen(C, N)
//   selfSigned(C)               subject == issuer
//   ev(C)                       carries the EV policy marker
//   EV(C)                       alias so the paper's Listing 1 runs verbatim
//   policy(C, Oid)
//   permittedDNS(C, Name), excludedDNS(C, Name)   name constraints
//
// One emitter walks this vocabulary and feeds a sink. Two sinks exist:
//   * encode_chain / encode_certificate build the full `FactSet` of string
//     `Value`s — the eager conversion experiment E4 measures against the
//     paper's "~2.4 ms mean (unoptimized)" claim, and what the interpreter,
//     `policy` and `anchorctl chain-facts` read;
//   * load_chain writes a chain's facts straight into a compiled GCC's
//     `datalog::Session` as interned ids, skipping every predicate the
//     program never mentions before computing any of its arguments. This is
//     the verdict path (GccExecutor); Listing 1, for one, reads 3 of the 26
//     predicates (leaf, notBefore, EV).
// Both produce the same facts in the same order, so a session loaded either
// way derives the same model.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "datalog/engine.hpp"
#include "datalog/value.hpp"
#include "x509/certificate.hpp"

namespace anchor::datalog {
class CompiledProgram;
class Session;
}  // namespace anchor::datalog

namespace anchor::core {

struct Fact {
  std::string predicate;
  datalog::Tuple args;
};

struct FactSet {
  std::vector<Fact> facts;

  void add(std::string predicate, datalog::Tuple args) {
    facts.push_back(Fact{std::move(predicate), std::move(args)});
  }
  std::size_t size() const { return facts.size(); }
  void load_into(datalog::Engine& engine) const;

  // Interning loader for the compiled pipeline: facts go straight into the
  // session's relations as tagged-id tuples. Facts whose predicate/arity the
  // program never references are skipped (they cannot affect the model).
  // Returns the number of facts actually loaded.
  std::size_t load_into(const datalog::CompiledProgram& program,
                        datalog::Session& session) const;
};

// A chain is ordered leaf-first: chain[0] is the end-entity certificate,
// chain.back() the root.
using Chain = std::vector<x509::CertPtr>;

// The fact vocabulary listed above; kVocabulary gives each predicate's
// name and arity, indexed by Predicate.
enum class Predicate : std::uint8_t {
  kHash, kSerial, kNotBefore, kNotAfter, kLifetime, kSubjectCN, kIssuerCN,
  kSubjectOrg, kSan, kSanTLD, kNameSuffix, kKeyUsage, kExtendedKeyUsage,
  kIsCA, kPathLen, kSelfSigned, kEv, kEV, kPolicy, kPermittedDNS,
  kExcludedDNS, kLeaf, kRoot, kChainLength, kCertAt, kSigns,
};
inline constexpr std::size_t kPredicateCount = 26;

struct PredicateSpec {
  std::string_view name;
  std::size_t arity;
};
extern const std::array<PredicateSpec, kPredicateCount> kVocabulary;

// Which vocabulary relations (plus the `valid/2` goal) a compiled program
// mentions, resolved once per Gcc by walking the program's own relations.
// -1 means the program never mentions it, so its facts are never built.
class FactRelations {
 public:
  FactRelations() { relation_.fill(-1); }
  explicit FactRelations(const datalog::CompiledProgram& program);

  int relation(Predicate p) const {
    return relation_[static_cast<std::size_t>(p)];
  }
  int valid() const { return valid_; }

 private:
  std::array<int, kPredicateCount> relation_;
  int valid_ = -1;
};

// The ids the chain facts name the chain and its certificates by, rendered
// once per evaluation into inline buffers from the cached fingerprints
// (chains longer than kInline spill to the heap).
class ChainIds {
 public:
  // The chain is named chain_id_of(chain).
  explicit ChainIds(const Chain& chain);
  // The chain is named `chain_id`, which must outlive this object.
  ChainIds(const Chain& chain, std::string_view chain_id);
  ChainIds(const ChainIds&) = delete;  // chain() may point into *this
  ChainIds& operator=(const ChainIds&) = delete;

  std::string_view chain() const { return chain_; }
  std::string_view cert(std::size_t i) const {
    const Hex& hex = i < kInline ? inline_[i] : spill_[i - kInline];
    return {hex.data(), hex.size()};
  }

 private:
  static constexpr std::size_t kInline = 8;
  using Hex = std::array<char, 2 * Sha256::kDigestSize>;

  void render(const Chain& chain);

  std::array<char, 6 + 2 * Sha256::kDigestSize> own_chain_{};  // "chain-" + hex
  std::string_view chain_;
  std::array<Hex, kInline> inline_;
  std::vector<Hex> spill_;
};

// Facts describing a single certificate (no chain context).
void encode_certificate(const x509::Certificate& cert, FactSet& out);

// Facts for the whole chain, including structure (leaf/root/signs/certAt).
// `chain_id` names the chain in leaf(Chain, ...) etc.; the executor uses
// chain_id_of(chain).
void encode_chain(const Chain& chain, const std::string& chain_id, FactSet& out);

// Loads the chain's facts into `session` (prepared against the program
// `relations` was resolved from), building only the facts of relations the
// program mentions. Returns how many facts the full vocabulary holds for
// the chain — what encode_chain would produce — loaded or not.
std::size_t load_chain(const Chain& chain, const ChainIds& ids,
                       const FactRelations& relations,
                       datalog::Session& session);

// Canonical chain id: "chain-" + leaf SHA-256 hex.
std::string chain_id_of(const Chain& chain);

}  // namespace anchor::core
