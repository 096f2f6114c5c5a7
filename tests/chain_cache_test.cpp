// Cache-invalidation property tests for chain::VerifyService (ctest -L
// concurrency; single-threaded but part of the sanitizer suite).
//
// Cert-cache soundness: the parsed-certificate cache is keyed on the
// request DER bytes, with a non-cryptographic lookup hash. A hit must be
// the byte-identical encoding; a distinct encoding, even one forced onto
// the same lookup hash, must miss and parse to its own certificate.
//
// Property under test: the service must never serve a verdict computed
// under a prior store epoch. Randomized sequences of store mutations
// (seeded via util/rng so failures replay) interleave with verifications,
// and after every step the service's answer is compared against a cold
// ChainVerifier over the current store. Also covers chain-fingerprint
// discrimination: two paths sharing root and leaf but differing in the
// intermediate must occupy distinct cache entries.
#include "chain/service.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"
#include "x509/oids.hpp"

namespace anchor::chain {
namespace {

using x509::CertificateBuilder;
using x509::CertPtr;
using x509::DistinguishedName;

constexpr std::int64_t kNow = 1700000000;
constexpr const char* kRejectGcc =
    "valid(Chain, _) :- leaf(Chain, L), ev(L).";
constexpr const char* kAcceptGcc = "valid(Chain, _) :- leaf(Chain, L).";

struct CachePki {
  SimSig sigs;
  SimKeyPair root_key = SimSig::keygen("Cache Root");
  // One key pair shared by both intermediates: cross-sign style, so a leaf
  // signed with it chains through either intermediate certificate.
  SimKeyPair shared_int_key = SimSig::keygen("Cache Shared Int");
  CertPtr root, int_a, int_b;
  std::vector<CertPtr> leaves;
  std::vector<std::string> domains;
  rootstore::RootStore store;

  CachePki() {
    root = CertificateBuilder()
               .serial(1)
               .subject(DistinguishedName::make("Cache Root", "T"))
               .issuer(DistinguishedName::make("Cache Root", "T"))
               .validity(0, unix_date(2040, 1, 1))
               .public_key(root_key.key_id)
               .ca(std::nullopt)
               .sign(root_key)
               .take();
    int_a = make_intermediate(2, unix_date(2039, 1, 1));
    int_b = make_intermediate(3, unix_date(2038, 6, 1));
    EXPECT_NE(int_a->fingerprint_hex(), int_b->fingerprint_hex());
    sigs.register_key(root_key);
    sigs.register_key(shared_int_key);
    (void)store.add_trusted(root);
    for (int i = 0; i < 6; ++i) {
      std::string domain = "c" + std::to_string(i) + ".example.com";
      SimKeyPair key = SimSig::keygen("cache-leaf-" + domain);
      leaves.push_back(CertificateBuilder()
                           .serial(10 + i)
                           .subject(DistinguishedName::make(domain))
                           .issuer(int_a->subject())
                           .validity(kNow - 86400, kNow + 90 * 86400)
                           .public_key(key.key_id)
                           .dns_names({domain})
                           .extended_key_usage({x509::oids::kp_server_auth()})
                           .sign(shared_int_key)
                           .take());
      domains.push_back(domain);
    }
  }

  CertPtr make_intermediate(int serial, std::int64_t not_after) {
    return CertificateBuilder()
        .serial(serial)
        .subject(DistinguishedName::make("Cache Shared Int", "T"))
        .issuer(root->subject())
        .validity(0, not_after)
        .public_key(shared_int_key.key_id)
        .ca(0)
        .sign(root_key)
        .take();
  }

  VerifyOptions options_for(std::size_t leaf_index) const {
    VerifyOptions options;
    options.time = kNow;
    options.hostname = domains[leaf_index];
    return options;
  }
};

void expect_matches_cold(VerifyService& service, const CachePki& pki,
                         const CertificatePool& pool, std::size_t leaf,
                         const rootstore::RootStore& store,
                         const std::string& context) {
  VerifyResult got =
      service.verify(pki.leaves[leaf], pool, pki.options_for(leaf));
  ChainVerifier cold(store, pki.sigs);
  VerifyResult expected =
      cold.verify(pki.leaves[leaf], pool, pki.options_for(leaf));
  EXPECT_EQ(got.ok, expected.ok) << context;
  EXPECT_EQ(got.error, expected.error) << context;
}

TEST(VerifyServiceCache, RandomizedMutationsNeverServeStaleVerdicts) {
  CachePki pki;
  CertificatePool pool;
  pool.add(pki.int_a);
  VerifyService service(pki.store, pki.sigs);

  const Sha256::Digest root_hash = pki.root->fingerprint();
  Rng rng(0xcac4e5eedULL);
  bool reject_attached = false;
  bool root_trusted = true;

  for (int step = 0; step < 400; ++step) {
    const std::string context =
        "step " + std::to_string(step) + " epoch " +
        std::to_string(service.epoch());
    switch (rng.uniform(6)) {
      case 0:  // attach (or re-attach) the rejecting GCC
        service.mutate([&](rootstore::RootStore& store) {
          store.attach_gcc(
              core::Gcc::for_certificate("flip", *pki.root, kRejectGcc)
                  .take());
        });
        reject_attached = true;
        break;
      case 1:  // detach it
        service.mutate([&](rootstore::RootStore& store) {
          store.detach_gcc(root_hash, "flip");
        });
        reject_attached = false;
        break;
      case 2:  // distrust the root outright
        service.mutate([&](rootstore::RootStore& store) {
          store.distrust(root_hash, "cache test");
        });
        root_trusted = false;
        break;
      case 3:  // resurrect: forget the distrust entry, then re-trust
        service.mutate([&](rootstore::RootStore& store) {
          store.forget(root_hash);
          EXPECT_TRUE(store.add_trusted(pki.root).ok());
        });
        root_trusted = true;
        break;
      default: {  // verify a random leaf and cross-check cold
        std::size_t leaf = rng.uniform(pki.leaves.size());
        expect_matches_cold(service, pki, pool, leaf, pki.store, context);
        // Sanity net independent of the cold verifier: the outcome must
        // track the mutation state we drove.
        VerifyResult again =
            service.verify(pki.leaves[leaf], pool, pki.options_for(leaf));
        EXPECT_EQ(again.ok, root_trusted && !reject_attached) << context;
        break;
      }
    }
  }
  // The loop must actually have exercised the cache.
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.verdict_hits + stats.verdict_misses, 0u);
  EXPECT_GT(stats.epoch_flushes, 0u);
}

// Forces every encoding onto one lookup key, so only the byte compare can
// tell two certificates apart.
struct CollidingHash {
  std::size_t operator()(BytesView) const noexcept { return 42; }
};

TEST(CertCache, ByteIdenticalDerHitsSameCertPtr) {
  CachePki pki;
  CertCache<> cache(16, 2);
  EXPECT_EQ(cache.find(BytesView(pki.int_a->der())), nullptr);
  cache.insert(pki.int_a);
  // A separate buffer with the same bytes, as a request off the wire is.
  const Bytes copy = pki.int_a->der();
  EXPECT_EQ(cache.find(BytesView(copy)), pki.int_a);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CertCache, DistinctDerOfSameShapeMisses) {
  CachePki pki;
  // Same issuer, subject, key and extensions; only serial and notAfter
  // differ, so the two encodings have the same size and structure.
  ASSERT_EQ(pki.int_a->der().size(), pki.int_b->der().size());
  ASSERT_NE(pki.int_a->der(), pki.int_b->der());
  CertCache<> cache(16, 2);
  cache.insert(pki.int_a);
  EXPECT_EQ(cache.find(BytesView(pki.int_b->der())), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  auto parsed = x509::Certificate::parse(BytesView(pki.int_b->der()));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value()->fingerprint(), pki.int_b->fingerprint());
  EXPECT_NE(parsed.value()->fingerprint(), pki.int_a->fingerprint());
}

TEST(CertCache, ByteCompareAloneSeparatesLookupCollisions) {
  CachePki pki;
  CertCache<CollidingHash> cache(16, 2);
  cache.insert(pki.int_a);
  EXPECT_EQ(cache.find(BytesView(pki.int_a->der())), pki.int_a);
  // Same lookup key, different bytes: a counted miss, never int_a.
  EXPECT_EQ(cache.find(BytesView(pki.int_b->der())), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // int_b takes the shared slot; int_a now misses in turn.
  cache.insert(pki.int_b);
  EXPECT_EQ(cache.find(BytesView(pki.int_b->der())), pki.int_b);
  EXPECT_EQ(cache.find(BytesView(pki.int_a->der())), nullptr);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

// The same soundness through the service's DER entry point: a replayed
// request hits for every certificate, and a same-shaped intermediate is a
// counted miss that verifies along its own path.
TEST(VerifyServiceCache, CertCacheKeysOnRequestBytes) {
  CachePki pki;
  VerifyService service(pki.store, pki.sigs);
  const Bytes leaf = pki.leaves[0]->der();
  const std::vector<Bytes> via_a{pki.int_a->der()};
  const std::vector<Bytes> via_b{pki.int_b->der()};

  VerifyResult first = service.validate(leaf, via_a, pki.options_for(0));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(service.stats().cert_misses, 2u);
  EXPECT_EQ(service.stats().cert_hits, 0u);

  VerifyResult again = service.validate(leaf, via_a, pki.options_for(0));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.chain, first.chain);  // the same cached CertPtrs
  EXPECT_EQ(service.stats().cert_hits, 2u);

  VerifyResult other = service.validate(leaf, via_b, pki.options_for(0));
  ASSERT_TRUE(other.ok) << other.error;
  EXPECT_EQ(service.stats().cert_misses, 3u);
  EXPECT_EQ(service.stats().cert_hits, 3u);
  ASSERT_EQ(other.chain.size(), 3u);
  EXPECT_EQ(other.chain[1]->fingerprint(), pki.int_b->fingerprint());
}

// Same root, same leaf, different intermediate: the DER-path fingerprint
// must differ, so the two paths get distinct verdict-cache entries instead
// of aliasing ("collision by construction" would alias if the key hashed
// only leaf and root).
TEST(VerifyServiceCache, FingerprintDistinguishesIntermediates) {
  CachePki pki;
  pki.store.attach_gcc(
      core::Gcc::for_certificate("accept", *pki.root, kAcceptGcc).take());
  VerifyService service(pki.store, pki.sigs);

  CertificatePool pool_a;
  pool_a.add(pki.int_a);
  CertificatePool pool_b;
  pool_b.add(pki.int_b);

  VerifyResult via_a =
      service.verify(pki.leaves[0], pool_a, pki.options_for(0));
  ASSERT_TRUE(via_a.ok) << via_a.error;
  VerifyResult via_b =
      service.verify(pki.leaves[0], pool_b, pki.options_for(0));
  ASSERT_TRUE(via_b.ok) << via_b.error;

  // Two distinct paths ⇒ two cache misses, zero hits.
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.verdict_misses, 2u);
  EXPECT_EQ(stats.verdict_hits, 0u);
  ASSERT_EQ(via_a.chain.size(), 3u);
  ASSERT_EQ(via_b.chain.size(), 3u);
  EXPECT_NE(via_a.chain[1]->fingerprint_hex(),
            via_b.chain[1]->fingerprint_hex());

  // Replaying either path is a hit — the entries really are keyed apart,
  // not evicting each other.
  (void)service.verify(pki.leaves[0], pool_a, pki.options_for(0));
  (void)service.verify(pki.leaves[0], pool_b, pki.options_for(0));
  stats = service.stats();
  EXPECT_EQ(stats.verdict_misses, 2u);
  EXPECT_EQ(stats.verdict_hits, 2u);
}

// A bounded cache under a workload larger than its capacity must evict,
// not grow, and eviction must never change answers.
TEST(VerifyServiceCache, EvictionBoundedAndHarmless) {
  CachePki pki;
  pki.store.attach_gcc(
      core::Gcc::for_certificate("accept", *pki.root, kAcceptGcc).take());
  ServiceConfig config;
  config.verdict_capacity = 2;  // tiny: every shard holds one entry
  config.shards = 2;
  VerifyService service(pki.store, pki.sigs, config);

  CertificatePool pool;
  pool.add(pki.int_a);
  ChainVerifier cold(pki.store, pki.sigs);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t leaf = 0; leaf < pki.leaves.size(); ++leaf) {
      VerifyResult got =
          service.verify(pki.leaves[leaf], pool, pki.options_for(leaf));
      VerifyResult expected =
          cold.verify(pki.leaves[leaf], pool, pki.options_for(leaf));
      EXPECT_EQ(got.ok, expected.ok) << "leaf " << leaf;
      EXPECT_EQ(got.error, expected.error) << "leaf " << leaf;
    }
  }
  EXPECT_GT(service.stats().evictions, 0u);
}

}  // namespace
}  // namespace anchor::chain
