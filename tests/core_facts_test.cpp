#include "core/facts.hpp"

#include <gtest/gtest.h>

#include "datalog/compiled.hpp"
#include "datalog/parser.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"
#include "x509/oids.hpp"

namespace anchor::core {
namespace {

using x509::CertificateBuilder;
using x509::CertPtr;
using x509::DistinguishedName;

struct TestPki {
  SimKeyPair root_key = SimSig::keygen("Facts Root");
  SimKeyPair int_key = SimSig::keygen("Facts Int");
  SimKeyPair leaf_key = SimSig::keygen("Facts Leaf");
  CertPtr root;
  CertPtr intermediate;
  CertPtr leaf;

  TestPki() {
    root = CertificateBuilder()
               .serial(1)
               .subject(DistinguishedName::make("Facts Root", "Org"))
               .issuer(DistinguishedName::make("Facts Root", "Org"))
               .validity(0, unix_date(2040, 1, 1))
               .public_key(root_key.key_id)
               .ca(2)
               .sign(root_key)
               .take();
    x509::NameConstraints nc;
    nc.permitted_dns = {"example.com"};
    nc.excluded_dns = {"internal.example.com"};
    intermediate = CertificateBuilder()
                       .serial(2)
                       .subject(DistinguishedName::make("Facts Int", "Org"))
                       .issuer(root->subject())
                       .validity(0, unix_date(2035, 1, 1))
                       .public_key(int_key.key_id)
                       .ca(0)
                       .name_constraints(nc)
                       .sign(root_key)
                       .take();
    x509::KeyUsage ku;
    ku.set(x509::KeyUsageBit::kDigitalSignature);
    leaf = CertificateBuilder()
               .serial(3)
               .subject(DistinguishedName::make("www.example.com"))
               .issuer(intermediate->subject())
               .validity(unix_date(2023, 1, 1), unix_date(2023, 3, 1))
               .public_key(leaf_key.key_id)
               .key_usage(ku)
               .extended_key_usage({x509::oids::kp_server_auth()})
               .dns_names({"www.example.com", "*.api.example.com"})
               .ev()
               .sign(int_key)
               .take();
  }

  Chain chain() const { return Chain{leaf, intermediate, root}; }
};

bool has_fact(const FactSet& facts, const std::string& predicate,
              const datalog::Tuple& args) {
  for (const Fact& fact : facts.facts) {
    if (fact.predicate == predicate && fact.args == args) return true;
  }
  return false;
}

std::size_t count_facts(const FactSet& facts, const std::string& predicate) {
  std::size_t n = 0;
  for (const Fact& fact : facts.facts) {
    if (fact.predicate == predicate) ++n;
  }
  return n;
}

using datalog::Value;

TEST(Facts, CertificateScalarFields) {
  TestPki pki;
  FactSet facts;
  encode_certificate(*pki.leaf, facts);
  const std::string id = pki.leaf->fingerprint_hex();
  EXPECT_TRUE(has_fact(facts, "hash", {Value(id), Value(id)}));
  EXPECT_TRUE(has_fact(facts, "notBefore",
                       {Value(id), Value(unix_date(2023, 1, 1))}));
  EXPECT_TRUE(has_fact(facts, "notAfter",
                       {Value(id), Value(unix_date(2023, 3, 1))}));
  EXPECT_TRUE(has_fact(facts, "lifetime",
                       {Value(id), Value(std::int64_t{59 * 86400})}));
  EXPECT_TRUE(has_fact(facts, "subjectCN", {Value(id), Value("www.example.com")}));
  EXPECT_TRUE(has_fact(facts, "issuerCN", {Value(id), Value("Facts Int")}));
}

TEST(Facts, UsageAndEvFacts) {
  TestPki pki;
  FactSet facts;
  encode_certificate(*pki.leaf, facts);
  const std::string id = pki.leaf->fingerprint_hex();
  EXPECT_TRUE(has_fact(facts, "keyUsage", {Value(id), Value("digitalSignature")}));
  EXPECT_TRUE(has_fact(facts, "extendedKeyUsage",
                       {Value(id), Value("id-kp-serverAuth")}));
  // Both spellings of the EV fact (paper Listing 1 uses EV/1).
  EXPECT_TRUE(has_fact(facts, "ev", {Value(id)}));
  EXPECT_TRUE(has_fact(facts, "EV", {Value(id)}));
}

TEST(Facts, SanAndDerivedNameFacts) {
  TestPki pki;
  FactSet facts;
  encode_certificate(*pki.leaf, facts);
  const std::string id = pki.leaf->fingerprint_hex();
  EXPECT_TRUE(has_fact(facts, "san", {Value(id), Value("www.example.com")}));
  EXPECT_TRUE(has_fact(facts, "sanTLD", {Value(id), Value("com")}));
  // Every dot-suffix, wildcard label stripped.
  EXPECT_TRUE(has_fact(facts, "nameSuffix",
                       {Value(id), Value("www.example.com"),
                        Value("www.example.com")}));
  EXPECT_TRUE(has_fact(facts, "nameSuffix",
                       {Value(id), Value("www.example.com"), Value("example.com")}));
  EXPECT_TRUE(has_fact(facts, "nameSuffix",
                       {Value(id), Value("www.example.com"), Value("com")}));
  EXPECT_TRUE(has_fact(facts, "nameSuffix",
                       {Value(id), Value("*.api.example.com"),
                        Value("api.example.com")}));
}

TEST(Facts, CaFacts) {
  TestPki pki;
  FactSet facts;
  encode_certificate(*pki.root, facts);
  const std::string id = pki.root->fingerprint_hex();
  EXPECT_TRUE(has_fact(facts, "isCA", {Value(id)}));
  EXPECT_TRUE(has_fact(facts, "pathLen", {Value(id), Value(std::int64_t{2})}));
  EXPECT_TRUE(has_fact(facts, "selfSigned", {Value(id)}));
}

TEST(Facts, NameConstraintFacts) {
  TestPki pki;
  FactSet facts;
  encode_certificate(*pki.intermediate, facts);
  const std::string id = pki.intermediate->fingerprint_hex();
  EXPECT_TRUE(has_fact(facts, "permittedDNS", {Value(id), Value("example.com")}));
  EXPECT_TRUE(has_fact(facts, "excludedDNS",
                       {Value(id), Value("internal.example.com")}));
}

TEST(Facts, ChainStructure) {
  TestPki pki;
  FactSet facts;
  encode_chain(pki.chain(), "chainX", facts);
  const std::string leaf_id = pki.leaf->fingerprint_hex();
  const std::string int_id = pki.intermediate->fingerprint_hex();
  const std::string root_id = pki.root->fingerprint_hex();
  EXPECT_TRUE(has_fact(facts, "leaf", {Value("chainX"), Value(leaf_id)}));
  EXPECT_TRUE(has_fact(facts, "root", {Value("chainX"), Value(root_id)}));
  EXPECT_TRUE(has_fact(facts, "chainLength",
                       {Value("chainX"), Value(std::int64_t{3})}));
  EXPECT_TRUE(has_fact(facts, "certAt",
                       {Value("chainX"), Value(std::int64_t{0}), Value(leaf_id)}));
  EXPECT_TRUE(has_fact(facts, "certAt",
                       {Value("chainX"), Value(std::int64_t{2}), Value(root_id)}));
  // signs(Issuer, Subject) adjacency.
  EXPECT_TRUE(has_fact(facts, "signs", {Value(int_id), Value(leaf_id)}));
  EXPECT_TRUE(has_fact(facts, "signs", {Value(root_id), Value(int_id)}));
  EXPECT_EQ(count_facts(facts, "signs"), 2u);
}

TEST(Facts, EmptyChainProducesNothing) {
  FactSet facts;
  encode_chain({}, "empty", facts);
  EXPECT_EQ(facts.size(), 0u);
}

TEST(Facts, SingleCertChain) {
  TestPki pki;
  FactSet facts;
  encode_chain(Chain{pki.root}, "solo", facts);
  const std::string id = pki.root->fingerprint_hex();
  EXPECT_TRUE(has_fact(facts, "leaf", {Value("solo"), Value(id)}));
  EXPECT_TRUE(has_fact(facts, "root", {Value("solo"), Value(id)}));
  EXPECT_EQ(count_facts(facts, "signs"), 0u);
}

TEST(Facts, ChainIdIsLeafDerived) {
  TestPki pki;
  EXPECT_EQ(chain_id_of(pki.chain()),
            "chain-" + pki.leaf->fingerprint_hex());
  EXPECT_EQ(chain_id_of({}), "chain-empty");
}

TEST(Facts, LoadIntoSessionIsQueryable) {
  TestPki pki;
  FactSet facts;
  encode_chain(pki.chain(), "c", facts);
  auto program = datalog::CompiledProgram::compile(
                     datalog::parse_program("evLeaf(C) :- leaf(C, L), ev(L).")
                         .take())
                     .take();
  datalog::Session session;
  session.prepare(program);
  // Only leaf/2 and ev/1 facts are loaded: the program mentions nothing
  // else.
  EXPECT_EQ(facts.load_into(program, session),
            count_facts(facts, "leaf") + count_facts(facts, "ev"));
  program.run(session);
  const Value chain("c");
  EXPECT_TRUE(program.query_holds(session, "evLeaf", {&chain, 1}));
}

TEST(Facts, NonEvCertHasNoEvFact) {
  TestPki pki;
  FactSet facts;
  encode_certificate(*pki.root, facts);
  EXPECT_EQ(count_facts(facts, "ev"), 0u);
  EXPECT_EQ(count_facts(facts, "EV"), 0u);
}

}  // namespace
}  // namespace anchor::core
