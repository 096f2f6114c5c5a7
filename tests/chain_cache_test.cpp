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
//
// Link-cache soundness: a remembered (child, issuer) signature pass skips
// only the signature math. After a cached pass, a tampered child, an
// expired issuer, a revoked child and a pathLen violation must each still
// be rejected; a cross-signed sibling gets its own entry; a failure is
// never remembered; check_signatures = false neither reads nor fills the
// cache; and service verdicts equal a cold verifier's field for field
// across mutate() and adopt_view().
#include "chain/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "revocation/revocation.hpp"
#include "rootstore/snapshot/view.hpp"
#include "rootstore/snapshot/writer.hpp"
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

// ---- link cache ------------------------------------------------------------

// Every field of a VerifyResult, certificates compared by fingerprint.
void expect_same_result(const VerifyResult& got, const VerifyResult& want,
                        const std::string& context) {
  EXPECT_EQ(got.ok, want.ok) << context;
  EXPECT_EQ(got.kind, want.kind) << context;
  EXPECT_EQ(got.error, want.error) << context;
  EXPECT_EQ(got.rejected_paths, want.rejected_paths) << context;
  EXPECT_EQ(got.paths_explored, want.paths_explored) << context;
  EXPECT_EQ(got.truncated, want.truncated) << context;
  ASSERT_EQ(got.chain.size(), want.chain.size()) << context;
  for (std::size_t i = 0; i < got.chain.size(); ++i) {
    EXPECT_EQ(got.chain[i]->fingerprint(), want.chain[i]->fingerprint())
        << context << " chain[" << i << "]";
  }
  const core::GccVerdict& g = got.gcc_verdict;
  const core::GccVerdict& w = want.gcc_verdict;
  EXPECT_EQ(g.allowed, w.allowed) << context;
  EXPECT_EQ(g.failed_gcc, w.failed_gcc) << context;
  EXPECT_EQ(g.gccs_evaluated, w.gccs_evaluated) << context;
  EXPECT_EQ(g.facts_encoded, w.facts_encoded) << context;
  EXPECT_EQ(g.stats.iterations, w.stats.iterations) << context;
  EXPECT_EQ(g.stats.rule_applications, w.stats.rule_applications) << context;
  EXPECT_EQ(g.stats.derived_tuples, w.stats.derived_tuples) << context;
  EXPECT_EQ(g.stats.type_errors, w.stats.type_errors) << context;
  EXPECT_EQ(g.stats.unbound_head_terms, w.stats.unbound_head_terms)
      << context;
  EXPECT_EQ(g.stats.truncated, w.stats.truncated) << context;
  EXPECT_EQ(g.stats.errored, w.stats.errored) << context;
}

// `cert` with the last byte of its DER — inside the signature — flipped:
// the same TBS under a signature that no longer verifies.
CertPtr tamper_signature(const CertPtr& cert) {
  Bytes der = cert->der();
  der.back() ^= 0x01;
  auto parsed = x509::Certificate::parse(BytesView(der));
  EXPECT_TRUE(parsed.ok()) << parsed.error();
  return parsed.value();
}

// The service's leaf-0 chain through int_a, verified once so both links
// (leaf0 -> int_a, int_a -> root) are cached.
void warm_links(VerifyService& service, const CachePki& pki,
                const CertificatePool& pool) {
  VerifyResult warm = service.verify(pki.leaves[0], pool, pki.options_for(0));
  ASSERT_TRUE(warm.ok) << warm.error;
  VerifyResult again = service.verify(pki.leaves[0], pool, pki.options_for(0));
  ASSERT_TRUE(again.ok) << again.error;
  ASSERT_EQ(service.stats().link_misses, 2u);
  ASSERT_EQ(service.stats().link_hits, 2u);
}

TEST(LinkCacheSoundness, TamperedChildUnderCachedIssuerIsRejected) {
  CachePki pki;
  CertificatePool pool;
  pool.add(pki.int_a);
  VerifyService service(pki.store, pki.sigs);
  warm_links(service, pki, pool);

  const CertPtr tampered = tamper_signature(pki.leaves[0]);
  ASSERT_NE(tampered->fingerprint(), pki.leaves[0]->fingerprint());
  VerifyResult got = service.verify(tampered, pool, pki.options_for(0));
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.kind, ErrorKind::kBadSignature) << got.error;
  ChainVerifier cold(pki.store, pki.sigs);
  expect_same_result(got, cold.verify(tampered, pool, pki.options_for(0)),
                     "tampered leaf");
  // The good leaf still hits: the failed check cached nothing over it.
  EXPECT_TRUE(service.verify(pki.leaves[0], pool, pki.options_for(0)).ok);
}

TEST(LinkCacheSoundness, ExpiredIssuerIsRejectedAfterCachedPass) {
  CachePki pki;
  const CertPtr short_lived = pki.make_intermediate(4, kNow + 10 * 86400);
  CertificatePool pool;
  pool.add(short_lived);
  VerifyService service(pki.store, pki.sigs);
  ASSERT_TRUE(service.verify(pki.leaves[0], pool, pki.options_for(0)).ok);
  ASSERT_EQ(service.stats().link_misses, 2u);

  // The leaf is still valid 30 days on; its issuer is not.
  VerifyOptions later = pki.options_for(0);
  later.time = kNow + 30 * 86400;
  VerifyResult got = service.verify(pki.leaves[0], pool, later);
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.kind, ErrorKind::kExpired) << got.error;
  ChainVerifier cold(pki.store, pki.sigs);
  expect_same_result(got, cold.verify(pki.leaves[0], pool, later),
                     "expired issuer");
}

TEST(LinkCacheSoundness, RevokedChildIsRejectedOnACacheHit) {
  CachePki pki;
  CertificatePool pool;
  pool.add(pki.int_a);
  VerifyService service(pki.store, pki.sigs);
  warm_links(service, pki, pool);

  auto onecrl = std::make_shared<revocation::OneCrl>();
  onecrl->block(*pki.leaves[0]);
  service.add_revocation_source(onecrl);
  VerifyResult got = service.verify(pki.leaves[0], pool, pki.options_for(0));
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.kind, ErrorKind::kRevoked) << got.error;
  // The revoked link was a hit: only the signature check was skipped.
  EXPECT_EQ(service.stats().link_hits, 3u);
  EXPECT_EQ(service.stats().link_misses, 2u);

  ChainVerifier cold(pki.store, pki.sigs);
  cold.add_revocation_source(onecrl);
  expect_same_result(got, cold.verify(pki.leaves[0], pool, pki.options_for(0)),
                     "revoked leaf");
}

TEST(LinkCacheSoundness, PathLenViolationOnACachedLinkIsRejected) {
  CachePki pki;
  // int_a carries pathLen 0. A sub-CA under it verifies on its own (no CA
  // below int_a), which caches the (sub_ca, int_a) link; the same link
  // one level deeper exceeds the constraint.
  const SimKeyPair sub_key = SimSig::keygen("Cache Sub CA");
  pki.sigs.register_key(sub_key);
  const CertPtr sub_ca =
      CertificateBuilder()
          .serial(40)
          .subject(DistinguishedName::make("Cache Sub CA", "T"))
          .issuer(pki.int_a->subject())
          .validity(0, unix_date(2037, 1, 1))
          .public_key(sub_key.key_id)
          .ca(std::nullopt)
          .sign(pki.shared_int_key)
          .take();
  const SimKeyPair leaf_key = SimSig::keygen("cache-deep-leaf");
  const CertPtr deep_leaf =
      CertificateBuilder()
          .serial(41)
          .subject(DistinguishedName::make("deep.example.com"))
          .issuer(sub_ca->subject())
          .validity(kNow - 86400, kNow + 90 * 86400)
          .public_key(leaf_key.key_id)
          .dns_names({"deep.example.com"})
          .extended_key_usage({x509::oids::kp_server_auth()})
          .sign(sub_key)
          .take();
  CertificatePool pool;
  pool.add(pki.int_a);
  pool.add(sub_ca);
  VerifyService service(pki.store, pki.sigs);

  VerifyOptions as_leaf;
  as_leaf.time = kNow;
  ASSERT_TRUE(service.verify(sub_ca, pool, as_leaf).ok);
  ASSERT_EQ(service.stats().link_misses, 2u);

  VerifyOptions options;
  options.time = kNow;
  options.hostname = "deep.example.com";
  VerifyResult got = service.verify(deep_leaf, pool, options);
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.kind, ErrorKind::kConstraintViolation) << got.error;
  ChainVerifier cold(pki.store, pki.sigs);
  expect_same_result(got, cold.verify(deep_leaf, pool, options),
                     "pathLen violation");
}

// A cross-signed sibling shares the CA's subject and SPKI but is a
// different issuing certificate: its links are separate entries.
TEST(LinkCacheSoundness, CrossSignedSiblingGetsItsOwnEntry) {
  CachePki pki;
  CertificatePool pool_a;
  pool_a.add(pki.int_a);
  CertificatePool pool_b;
  pool_b.add(pki.int_b);
  VerifyService service(pki.store, pki.sigs);

  ASSERT_TRUE(service.verify(pki.leaves[0], pool_a, pki.options_for(0)).ok);
  ASSERT_TRUE(service.verify(pki.leaves[0], pool_b, pki.options_for(0)).ok);
  EXPECT_EQ(service.stats().link_misses, 4u);
  EXPECT_EQ(service.stats().link_hits, 0u);

  ASSERT_TRUE(service.verify(pki.leaves[0], pool_a, pki.options_for(0)).ok);
  ASSERT_TRUE(service.verify(pki.leaves[0], pool_b, pki.options_for(0)).ok);
  EXPECT_EQ(service.stats().link_misses, 4u);
  EXPECT_EQ(service.stats().link_hits, 4u);
}

TEST(LinkCacheSoundness, FailedVerificationIsNotRemembered) {
  CachePki pki;
  // A scheme that knows the root's key but not yet the intermediate's.
  SimSig late;
  late.register_key(pki.root_key);
  CertificatePool pool;
  pool.add(pki.int_a);
  VerifyService service(pki.store, late);

  VerifyResult first = service.verify(pki.leaves[0], pool, pki.options_for(0));
  EXPECT_FALSE(first.ok);
  EXPECT_EQ(first.kind, ErrorKind::kBadSignature) << first.error;

  late.register_key(pki.shared_int_key);
  VerifyResult second =
      service.verify(pki.leaves[0], pool, pki.options_for(0));
  EXPECT_TRUE(second.ok) << second.error;
  // leaf0 -> int_a missed both times; nothing was ever a hit.
  EXPECT_EQ(service.stats().link_hits, 0u);
  EXPECT_EQ(service.stats().link_misses, 3u);
}

TEST(LinkCacheSoundness, UncheckedSignaturesNeitherReadNorFill) {
  CachePki pki;
  CertificatePool pool;
  pool.add(pki.int_a);
  VerifyService service(pki.store, pki.sigs);

  VerifyOptions unchecked = pki.options_for(0);
  unchecked.check_signatures = false;
  ASSERT_TRUE(service.verify(pki.leaves[0], pool, unchecked).ok);
  ASSERT_TRUE(service.verify(pki.leaves[0], pool, unchecked).ok);
  EXPECT_EQ(service.stats().link_hits, 0u);
  EXPECT_EQ(service.stats().link_misses, 0u);

  // A tampered leaf passes unchecked, and must not seed a later check.
  const CertPtr tampered = tamper_signature(pki.leaves[0]);
  ASSERT_TRUE(service.verify(tampered, pool, unchecked).ok);
  VerifyResult checked = service.verify(tampered, pool, pki.options_for(0));
  EXPECT_EQ(checked.kind, ErrorKind::kBadSignature) << checked.error;
  EXPECT_EQ(service.stats().link_hits, 0u);
  EXPECT_EQ(service.stats().link_misses, 1u);
}

// Cache hits are invisible in the result: across a mutate() and an
// adopt_view(), every service verdict equals a cold verifier's over the
// store being served, field for field, while the links keep hitting.
TEST(LinkCacheSoundness, HitsMatchColdVerifierAcrossMutateAndAdoptView) {
  CachePki pki;
  CertificatePool pool;
  pool.add(pki.int_a);
  pool.add(pki.int_b);
  // (leaf, index of its domain): every good leaf plus a tampered copy of
  // leaf 1 under leaf 1's hostname.
  std::vector<std::pair<CertPtr, std::size_t>> cases;
  for (std::size_t i = 0; i < pki.leaves.size(); ++i) {
    cases.emplace_back(pki.leaves[i], i);
  }
  cases.emplace_back(tamper_signature(pki.leaves[1]), 1);
  VerifyService service(pki.store, pki.sigs);

  const auto check_all = [&](const rootstore::StoreReader& served,
                             const std::string& phase) {
    ChainVerifier cold(served, pki.sigs);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto& [leaf, domain] = cases[i];
      const VerifyOptions options = pki.options_for(domain);
      expect_same_result(service.verify(leaf, pool, options),
                         cold.verify(leaf, pool, options),
                         phase + " case " + std::to_string(i));
    }
  };

  check_all(pki.store, "initial");
  const std::uint64_t hits_initial = service.stats().link_hits;

  service.mutate([&](rootstore::RootStore& store) {
    store.attach_gcc(
        core::Gcc::for_certificate("accept", *pki.root, kAcceptGcc).take());
  });
  check_all(pki.store, "after mutate");
  const std::uint64_t hits_mutated = service.stats().link_hits;
  EXPECT_GT(hits_mutated, hits_initial);

  auto opened = rootstore::snapshot::StoreView::from_bytes(
      rootstore::snapshot::write_snapshot(pki.store));
  ASSERT_TRUE(opened.ok()) << opened.error.to_string();
  service.adopt_view(opened.view);
  const std::uint64_t misses_before_view = service.stats().link_misses;
  check_all(*opened.view, "after adopt_view");
  EXPECT_GT(service.stats().link_hits, hits_mutated);
  // Only the tampered leaf misses again, once under each sibling: its
  // links never verified, so they were never cached.
  EXPECT_EQ(service.stats().link_misses, misses_before_view + 2);
}

TEST(LinkCache, FullShardReplacesInPlaceAndStaysBounded) {
  metrics::Registry registry;
  // 32 slots per shard: four windows, so a key's window is a real bound.
  LinkCache cache(64, 2, registry.counter("hit"), registry.counter("miss"));
  Rng rng(0x11c4ceULL);
  const auto random_digest = [&rng] {
    Sha256::Digest digest{};
    for (std::size_t i = 0; i < digest.size(); i += 8) {
      const std::uint64_t word = rng.next_u64();
      std::memcpy(digest.data() + i, &word, 8);
    }
    return digest;
  };
  const Sha256::Digest issuer = random_digest();
  for (int i = 0; i < 500; ++i) {
    const Sha256::Digest child = random_digest();
    EXPECT_FALSE(cache.contains(child, issuer));
    cache.insert(child, issuer);
    EXPECT_TRUE(cache.contains(child, issuer)) << "insert " << i;
    // The pair is ordered: the reversed edge is a different link.
    EXPECT_FALSE(cache.contains(issuer, child));
    EXPECT_LE(cache.size(), 64u);
    EXPECT_LE(cache.slots(), 64u);
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_EQ(cache.hits(), 500u);
  EXPECT_EQ(cache.misses(), 1000u);
  EXPECT_EQ(registry.counter("hit").value(), 500u);

  // The empty-slot marker is never stored, and never matches an empty slot.
  const Sha256::Digest zero{};
  cache.insert(zero, zero);
  EXPECT_FALSE(cache.contains(zero, zero));
}

TEST(LinkCache, SmallShardGrowsOnlyWhenFull) {
  metrics::Registry registry;
  LinkCache cache(4096, 1, registry.counter("hit"), registry.counter("miss"));
  EXPECT_EQ(cache.slots(), 0u);  // nothing allocated before the first insert
  const Sha256::Digest issuer{};
  // Below one window the window is the whole array: k keys take the
  // smallest power of two >= max(k, 2) slots.
  for (std::size_t k = 1; k <= 8; ++k) {
    Sha256::Digest child{};
    child[0] = static_cast<std::uint8_t>(k);
    cache.insert(child, issuer);
    EXPECT_EQ(cache.size(), k);
    EXPECT_EQ(cache.slots(), std::bit_ceil(std::max<std::size_t>(k, 2)))
        << k << " keys";
  }
}

}  // namespace
}  // namespace anchor::chain
