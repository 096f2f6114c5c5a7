#include "core/facts.hpp"

#include <algorithm>
#include <initializer_list>
#include <optional>

#include "datalog/compiled.hpp"
#include "util/bytes.hpp"
#include "util/strings.hpp"
#include "x509/oids.hpp"

namespace anchor::core {

using datalog::IValue;
using datalog::Tuple;
using datalog::Value;

const std::array<PredicateSpec, kPredicateCount> kVocabulary = {{
    {"hash", 2},         {"serial", 2},       {"notBefore", 2},
    {"notAfter", 2},     {"lifetime", 2},     {"subjectCN", 2},
    {"issuerCN", 2},     {"subjectOrg", 2},   {"san", 2},
    {"sanTLD", 2},       {"nameSuffix", 3},   {"keyUsage", 2},
    {"extendedKeyUsage", 2},                  {"isCA", 1},
    {"pathLen", 2},      {"selfSigned", 1},   {"ev", 1},
    {"EV", 1},           {"policy", 2},       {"permittedDNS", 2},
    {"excludedDNS", 2},  {"leaf", 2},         {"root", 2},
    {"chainLength", 2},  {"certAt", 3},       {"signs", 2},
}};

void FactSet::load_into(datalog::Engine& engine) const {
  for (const Fact& fact : facts) {
    engine.add_fact(fact.predicate, fact.args);
  }
}

std::size_t FactSet::load_into(const datalog::CompiledProgram& program,
                               datalog::Session& session) const {
  std::size_t loaded = 0;
  for (const Fact& fact : facts) {
    const int rel = program.relation_index(fact.predicate, fact.args.size());
    if (rel < 0) continue;
    session.add_fact(rel, fact.args);
    ++loaded;
  }
  return loaded;
}

FactRelations::FactRelations(const datalog::CompiledProgram& program) {
  relation_.fill(-1);
  for (std::size_t r = 0; r < program.num_relations(); ++r) {
    const std::string_view name = program.relation_predicate(r);
    const std::size_t arity = program.relation_arity(r);
    if (arity == 2 && name == "valid") {
      valid_ = static_cast<int>(r);
      continue;
    }
    for (std::size_t p = 0; p < kPredicateCount; ++p) {
      if (kVocabulary[p].arity == arity && kVocabulary[p].name == name) {
        relation_[p] = static_cast<int>(r);
        break;
      }
    }
  }
}

ChainIds::ChainIds(const Chain& chain) {
  render(chain);
  if (chain.empty()) {
    chain_ = "chain-empty";
    return;
  }
  constexpr std::string_view kPrefix = "chain-";
  const std::string_view leaf = cert(0);
  std::copy(kPrefix.begin(), kPrefix.end(), own_chain_.begin());
  std::copy(leaf.begin(), leaf.end(), own_chain_.begin() + kPrefix.size());
  chain_ = {own_chain_.data(), own_chain_.size()};
}

ChainIds::ChainIds(const Chain& chain, std::string_view chain_id)
    : chain_(chain_id) {
  render(chain);
}

void ChainIds::render(const Chain& chain) {
  if (chain.size() > kInline) spill_.resize(chain.size() - kInline);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    Hex& hex = i < kInline ? inline_[i] : spill_[i - kInline];
    to_hex_into(chain[i]->fingerprint(), hex.data());
  }
}

namespace {

// One fact argument as the emitter hands it to a sink. Certificate and
// chain ids are tagged so a sink can intern each of them once.
struct Arg {
  enum class Kind : std::uint8_t { kText, kInt, kCert, kChain };
  Kind kind = Kind::kText;
  std::string_view text;  // kText, kCert, kChain
  std::int64_t num = 0;   // kInt; the certificate's chain position for kCert
};

Arg text(std::string_view s) { return {Arg::Kind::kText, s}; }
Arg num(std::int64_t v) { return {Arg::Kind::kInt, {}, v}; }

// The first attribute of `type` (DistinguishedName's accessors copy it).
std::string_view first_attribute(const x509::DistinguishedName& name,
                                 const asn1::Oid& type) {
  for (const auto& attr : name.attributes()) {
    if (attr.type == type) return attr.value;
  }
  return {};
}

// nameSuffix(C, Name, Sfx) holds for every dot-suffix of the name,
// including the name itself minus any leading "*." label, so GCCs can
// express RFC 5280-style name constraints declaratively.
template <class Fn>
void for_each_suffix(std::string_view name, Fn&& fn) {
  std::string_view rest = name;
  if (starts_with(rest, "*.")) rest = rest.substr(2);
  fn(rest);
  for (std::size_t dot = rest.find('.'); dot != std::string_view::npos;
       dot = rest.find('.')) {
    rest = rest.substr(dot + 1);
    fn(rest);
  }
}

// Walks the vocabulary over one chain, counting every fact and building
// only those the sink reads. A sink provides wants(Predicate) and
// add(Predicate, std::initializer_list<Arg>).
template <class Sink>
class Emitter {
 public:
  explicit Emitter(Sink& sink) : sink_(sink) {}

  std::size_t count() const { return count_; }

  void certificate(const x509::Certificate& cert, Arg id);
  void chain(const Chain& chain, const ChainIds& ids);

 private:
  // One fact whose arguments are already at hand.
  void fact(Predicate p, std::initializer_list<Arg> args) {
    ++count_;
    if (sink_.wants(p)) sink_.add(p, args);
  }
  // `n` facts of `p` whose arguments take an allocation to compute;
  // `build` computes and adds them, and runs only when the sink reads `p`.
  template <class Build>
  void facts(Predicate p, std::size_t n, Build&& build) {
    count_ += n;
    if (n > 0 && sink_.wants(p)) build();
  }

  Sink& sink_;
  std::size_t count_ = 0;
};

template <class Sink>
void Emitter<Sink>::certificate(const x509::Certificate& cert, Arg id) {
  using P = Predicate;
  fact(P::kHash, {id, id});
  facts(P::kSerial, 1, [&] {
    const std::string serial = to_hex(BytesView(cert.serial()));
    sink_.add(P::kSerial, {id, text(serial)});
  });
  fact(P::kNotBefore, {id, num(cert.not_before())});
  fact(P::kNotAfter, {id, num(cert.not_after())});
  fact(P::kLifetime, {id, num(cert.lifetime_seconds())});

  const std::string_view subject_cn =
      first_attribute(cert.subject(), x509::oids::common_name());
  if (!subject_cn.empty()) fact(P::kSubjectCN, {id, text(subject_cn)});
  const std::string_view issuer_cn =
      first_attribute(cert.issuer(), x509::oids::common_name());
  if (!issuer_cn.empty()) fact(P::kIssuerCN, {id, text(issuer_cn)});
  const std::string_view subject_org =
      first_attribute(cert.subject(), x509::oids::organization());
  if (!subject_org.empty()) fact(P::kSubjectOrg, {id, text(subject_org)});

  if (const auto& san = cert.subject_alt_name()) {
    for (const std::string& name : san->dns_names) {
      fact(P::kSan, {id, text(name)});
      facts(P::kSanTLD, 1, [&] {
        const std::string tld = tld_of(name);
        sink_.add(P::kSanTLD, {id, text(tld)});
      });
      for_each_suffix(name, [&](std::string_view suffix) {
        fact(P::kNameSuffix, {id, text(name), text(suffix)});
      });
    }
  }
  if (const auto& usage = cert.key_usage()) {
    for (int i = 0; i < x509::KeyUsage::kNamedBits; ++i) {
      if (usage->bits & (1u << i)) {
        fact(P::kKeyUsage, {id, text(x509::KeyUsage::bit_name(i))});
      }
    }
  }
  if (const auto& usage = cert.extended_key_usage()) {
    facts(P::kExtendedKeyUsage, usage->purposes.size(), [&] {
      for (const auto& purpose : usage->purposes) {
        const std::string_view name =
            x509::ExtendedKeyUsage::purpose_name(purpose);
        const std::string dotted = name.empty() ? purpose.to_string() : "";
        sink_.add(P::kExtendedKeyUsage,
                  {id, text(name.empty() ? dotted : name)});
      }
    });
  }
  if (cert.is_ca()) {
    fact(P::kIsCA, {id});
    if (const auto len = cert.path_len()) fact(P::kPathLen, {id, num(*len)});
  }
  if (cert.is_self_issued()) fact(P::kSelfSigned, {id});
  if (cert.is_ev()) {
    fact(P::kEv, {id});
    fact(P::kEV, {id});  // paper Listing 1 notation
  }
  if (const auto& policies = cert.certificate_policies()) {
    facts(P::kPolicy, policies->policies.size(), [&] {
      for (const auto& policy : policies->policies) {
        const std::string oid = policy.to_string();
        sink_.add(P::kPolicy, {id, text(oid)});
      }
    });
  }
  if (const auto& constraints = cert.name_constraints()) {
    for (const auto& name : constraints->permitted_dns) {
      fact(P::kPermittedDNS, {id, text(name)});
    }
    for (const auto& name : constraints->excluded_dns) {
      fact(P::kExcludedDNS, {id, text(name)});
    }
  }
}

template <class Sink>
void Emitter<Sink>::chain(const Chain& chain, const ChainIds& ids) {
  using P = Predicate;
  if (chain.empty()) return;
  auto cert_id = [&ids](std::size_t i) {
    return Arg{Arg::Kind::kCert, ids.cert(i), static_cast<std::int64_t>(i)};
  };
  for (std::size_t i = 0; i < chain.size(); ++i) {
    certificate(*chain[i], cert_id(i));
  }

  const Arg chain_id{Arg::Kind::kChain, ids.chain()};
  const std::size_t n = chain.size();
  fact(P::kLeaf, {chain_id, cert_id(0)});
  fact(P::kRoot, {chain_id, cert_id(n - 1)});
  fact(P::kChainLength, {chain_id, num(static_cast<std::int64_t>(n))});
  for (std::size_t i = 0; i < n; ++i) {
    fact(P::kCertAt, {chain_id, num(static_cast<std::int64_t>(i)), cert_id(i)});
  }
  // signs(Issuer, Subject): chain[i+1] signed chain[i].
  for (std::size_t i = 0; i + 1 < n; ++i) {
    fact(P::kSigns, {cert_id(i + 1), cert_id(i)});
  }
}

// Every fact, as string Values.
class FactSetSink {
 public:
  explicit FactSetSink(FactSet& out) : out_(out) {}

  bool wants(Predicate) const { return true; }
  void add(Predicate p, std::initializer_list<Arg> args) {
    Tuple tuple;
    tuple.reserve(args.size());
    for (const Arg& arg : args) {
      if (arg.kind == Arg::Kind::kInt) {
        tuple.emplace_back(arg.num);
      } else {
        tuple.emplace_back(std::string(arg.text));
      }
    }
    out_.add(std::string(kVocabulary[static_cast<std::size_t>(p)].name),
             std::move(tuple));
  }

 private:
  FactSet& out_;
};

// The facts of relations the program mentions, interned straight into its
// session. The chain id and the first kCachedIds certificate ids are
// interned once each.
class SessionSink {
 public:
  SessionSink(const FactRelations& relations, datalog::Session& session)
      : relations_(relations), session_(session) {}

  bool wants(Predicate p) const { return relations_.relation(p) >= 0; }
  void add(Predicate p, std::initializer_list<Arg> args) {
    IValue tuple[3];  // the vocabulary's widest arity
    std::size_t n = 0;
    for (const Arg& arg : args) tuple[n++] = intern(arg);
    session_.add_tuple(relations_.relation(p), {tuple, n});
  }

 private:
  IValue intern(const Arg& arg) {
    switch (arg.kind) {
      case Arg::Kind::kInt:
        return session_.intern(arg.num);
      case Arg::Kind::kText:
        return session_.intern(arg.text);
      case Arg::Kind::kChain:
        if (!chain_) chain_ = session_.intern(arg.text);
        return *chain_;
      case Arg::Kind::kCert:
        break;
    }
    const auto i = static_cast<std::size_t>(arg.num);
    if (i >= kCachedIds) return session_.intern(arg.text);
    if (!certs_[i]) certs_[i] = session_.intern(arg.text);
    return *certs_[i];
  }

  static constexpr std::size_t kCachedIds = 8;

  const FactRelations& relations_;
  datalog::Session& session_;
  std::optional<IValue> chain_;
  std::array<std::optional<IValue>, kCachedIds> certs_{};
};

}  // namespace

void encode_certificate(const x509::Certificate& cert, FactSet& out) {
  std::array<char, 2 * Sha256::kDigestSize> id;
  to_hex_into(cert.fingerprint(), id.data());
  FactSetSink sink(out);
  Emitter<FactSetSink>(sink).certificate(
      cert, Arg{Arg::Kind::kCert, {id.data(), id.size()}});
}

void encode_chain(const Chain& chain, const std::string& chain_id,
                  FactSet& out) {
  FactSetSink sink(out);
  Emitter<FactSetSink>(sink).chain(chain, ChainIds(chain, chain_id));
}

std::size_t load_chain(const Chain& chain, const ChainIds& ids,
                       const FactRelations& relations,
                       datalog::Session& session) {
  SessionSink sink(relations, session);
  Emitter<SessionSink> emitter(sink);
  emitter.chain(chain, ids);
  return emitter.count();
}

std::string chain_id_of(const Chain& chain) {
  if (chain.empty()) return "chain-empty";
  return "chain-" + chain.front()->fingerprint_hex();
}

}  // namespace anchor::core
