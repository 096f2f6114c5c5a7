// Mutation-fuzz sweeps over the DER parsing stack: random byte flips,
// truncations and extensions of valid certificate encodings must never
// crash, hang, or accept trailing garbage — they either fail cleanly or
// produce a well-formed certificate with a different fingerprint. Run
// under ASan/UBSan (build-asan/) these double as memory-safety tests.
#include <gtest/gtest.h>

#include "rootstore/store.hpp"
#include "datalog/compiled.hpp"
#include "oracle/evaluator.hpp"
#include "oracle/model.hpp"
#include "datalog/parser.hpp"
#include "rsf/delta.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"
#include "x509/oids.hpp"

namespace anchor {
namespace {

x509::CertPtr rich_cert() {
  SimKeyPair key = SimSig::keygen("Fuzz CA");
  x509::KeyUsage ku;
  ku.set(x509::KeyUsageBit::kDigitalSignature);
  x509::NameConstraints nc;
  nc.permitted_dns = {"example.com"};
  nc.excluded_dns = {"bad.example.com"};
  return x509::CertificateBuilder()
      .serial(0xdeadbeef)
      .subject(x509::DistinguishedName::make("fuzz.example.com", "Fuzz Org", "US"))
      .issuer(x509::DistinguishedName::make("Fuzz CA", "Fuzz Org"))
      .validity(unix_date(2023, 1, 1), unix_date(2024, 1, 1))
      .public_key(key.key_id)
      .key_usage(ku)
      .extended_key_usage({x509::oids::kp_server_auth()})
      .dns_names({"fuzz.example.com", "*.fuzz.example.com"})
      .name_constraints(nc)
      .ev()
      .subject_key_id(Bytes{1, 2, 3, 4})
      .sign(key)
      .take();
}

class DerMutation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DerMutation, ByteFlipsNeverCrashAndNeverPreserveIdentity) {
  x509::CertPtr original = rich_cert();
  Rng rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    Bytes mutated = original->der();
    int flips = 1 + static_cast<int>(rng.uniform(4));
    for (int f = 0; f < flips; ++f) {
      std::size_t pos = rng.uniform(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    auto reparsed = x509::Certificate::parse(BytesView(mutated));
    if (reparsed.ok()) {
      // Accepted mutants must at least be detected as different objects.
      EXPECT_NE(reparsed.value()->fingerprint(), original->fingerprint());
    }
  }
}

TEST_P(DerMutation, TruncationsAlwaysRejected) {
  x509::CertPtr original = rich_cert();
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::size_t keep = rng.uniform(original->der().size());  // < full size
    Bytes truncated(original->der().begin(),
                    original->der().begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(x509::Certificate::parse(BytesView(truncated)).ok())
        << "keep=" << keep;
  }
}

TEST_P(DerMutation, AppendedGarbageAlwaysRejected) {
  x509::CertPtr original = rich_cert();
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    Bytes padded = original->der();
    Bytes junk = rng.random_bytes(1 + rng.uniform(16));
    append(padded, BytesView(junk));
    EXPECT_FALSE(x509::Certificate::parse(BytesView(padded)).ok());
  }
}

TEST_P(DerMutation, RandomBytesNeverParse) {
  Rng rng(GetParam() ^ 0x5eed);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes noise = rng.random_bytes(1 + rng.uniform(300));
    auto parsed = x509::Certificate::parse(BytesView(noise));
    // Random noise forming a valid v3 certificate is astronomically
    // unlikely; mostly we assert no crash. Tolerate the impossible.
    if (parsed.ok()) {
      EXPECT_EQ(parsed.value()->der(), noise);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DerMutation,
                         ::testing::Values(101, 202, 303, 404, 505));

class TextFormatMutation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TextFormatMutation, StoreDeserializeSurvivesMutations) {
  // Serialized stores with random line edits must fail cleanly or parse.
  SimKeyPair key = SimSig::keygen("Store Fuzz Root");
  rootstore::RootStore store;
  (void)store.add_trusted(rich_cert());
  store.distrust(*digest_from_hex(std::string(64, 'a')), "why");
  store.attach_gcc(
      core::Gcc::create("g", std::string(64, 'b'),
                        "valid(C, \"TLS\") :- leaf(C, L).")
          .take());
  std::string serialized = store.serialize();

  Rng rng(GetParam());
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = serialized;
    int edits = 1 + static_cast<int>(rng.uniform(3));
    for (int e = 0; e < edits; ++e) {
      std::size_t pos = rng.uniform(mutated.size());
      switch (rng.uniform(3)) {
        case 0: mutated[pos] = static_cast<char>('!' + rng.uniform(90)); break;
        case 1: mutated.erase(pos, 1 + rng.uniform(8)); break;
        default: mutated.insert(pos, "x"); break;
      }
    }
    auto parsed = rootstore::RootStore::deserialize(mutated);
    (void)parsed;  // either verdict is fine; no crash, no hang
  }
}

TEST_P(TextFormatMutation, DeltaDeserializeSurvivesMutations) {
  rsf::StoreDelta delta;
  delta.distrust.emplace_back(*digest_from_hex(std::string(64, 'c')),
                              "incident");
  delta.forget.push_back(*digest_from_hex(std::string(64, 'd')));
  delta.attach_gccs.push_back(
      core::Gcc::create("g", std::string(64, 'e'),
                        "valid(C, \"TLS\") :- leaf(C, L).")
          .take());
  std::string serialized = delta.serialize();

  Rng rng(GetParam() ^ 0xde17a);
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = serialized;
    std::size_t pos = rng.uniform(mutated.size());
    mutated[pos] = static_cast<char>('!' + rng.uniform(90));
    auto parsed = rsf::StoreDelta::deserialize(mutated);
    (void)parsed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextFormatMutation, ::testing::Values(7, 77));

class DatalogSourceMutation : public ::testing::TestWithParam<std::uint64_t> {};

// Sources to mutate. The first keeps Listing 2's head wildcard, which the
// compiler rejects and the oracle tolerates; the second compiles clean and
// carries facts, so the compiled-vs-oracle model check has work to do.
const char* const kDatalogSeedSources[] = {
    R"(
june1st2016(1464753600).
exempt("aabbcc").
valid(Chain, _) :- leaf(Chain, Cert), notBefore(Cert, NB), june1st2016(T), NB < T.
valid(Chain, _) :- root(Chain, Root), signs(Root, Int), hash(Int, H), exempt(H).
bad(Chain) :- certAt(Chain, _, C), hash(C, H), revoked(H), \+EV(C).
)",
    R"(
leaf(c, l). notBefore(l, 1400000000). june1st2016(1464753600).
root(c, r). signs(r, i). signs(i, l). hash(i, "aabbcc"). hash(l, "dd").
exempt("aabbcc"). revoked("dd"). usage("TLS"). usage("S/MIME").
certAt(c, 0, l). certAt(c, 1, i). certAt(c, 2, r).
valid(Chain, U) :- usage(U), leaf(Chain, Cert), notBefore(Cert, NB), june1st2016(T), NB < T.
valid(Chain, U) :- usage(U), root(Chain, Root), signs(Root, Int), hash(Int, H), exempt(H).
bad(Chain) :- certAt(Chain, _, C), hash(C, H), revoked(H), \+EV(C).
reach(X, Y) :- signs(X, Y).
reach(X, Z) :- reach(X, Y), signs(Y, Z), D = 1 + 1, D > 1.
)"};

TEST_P(DatalogSourceMutation, ParserSurvivesMutations) {
  Rng rng(GetParam());
  std::size_t compared = 0;
  for (const char* source : kDatalogSeedSources) {
    for (int trial = 0; trial < 300; ++trial) {
      std::string mutated = source;
      int edits = 1 + static_cast<int>(rng.uniform(4));
      for (int e = 0; e < edits; ++e) {
        std::size_t pos = rng.uniform(mutated.size());
        switch (rng.uniform(3)) {
          case 0: mutated[pos] = static_cast<char>(' ' + rng.uniform(95)); break;
          case 1: mutated.erase(pos, 1); break;
          default: mutated.insert(pos, 1, static_cast<char>(' ' + rng.uniform(95))); break;
        }
      }
      auto program = datalog::parse_program(mutated);
      if (!program.ok()) continue;
      // Whatever parsed must also survive compilation and evaluation, in
      // the shipped compiled pipeline and in the oracle. The compiler
      // rejects a superset of what the oracle rejects; where both accept,
      // both derive the same model.
      auto compiled = datalog::CompiledProgram::compile(program.value());
      auto evaluator = datalog::Evaluator::create(program.value());
      if (compiled.ok()) {
        EXPECT_TRUE(evaluator.ok()) << mutated;
      }
      datalog::Database oracle_db;
      datalog::EvalStats oracle_stats;
      if (evaluator.ok()) oracle_stats = evaluator.value().run(oracle_db);
      if (!compiled.ok()) continue;
      datalog::Session session;
      session.prepare(compiled.value());
      const datalog::EvalStats stats = compiled.value().run(session);
      if (stats.truncated || oracle_stats.truncated) continue;
      datalog::Database compiled_db;
      datalog::decode_model(compiled.value(), session, compiled_db);
      EXPECT_EQ(datalog::sorted_model(compiled_db),
                datalog::sorted_model(oracle_db))
          << mutated;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatalogSourceMutation,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace anchor
