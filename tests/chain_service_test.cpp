// Concurrency suite for chain::VerifyService (ctest -L concurrency; run
// under -DANCHOR_SANITIZE=thread).
//
// The core property: a verdict returned by the concurrent, caching service
// must be *indistinguishable* from a cold single-threaded ChainVerifier
// run against the store at the epoch the call observed. Worker threads
// hammer verify() on a mixed corpus while a mutator applies RSF-style
// deltas (distrust, forget/re-trust, GCC attach/detach) through mutate();
// afterwards every recorded call is replayed cold and compared. Every
// verdict's signature checks go through the service-wide link cache, sized
// below the corpus' link count so entries are replaced while read.
#include "chain/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <optional>
#include <thread>

#include "core/facts.hpp"
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

// Three roots, two intermediates each, four leaves per intermediate plus a
// couple of deliberately-broken leaves, so verifications exercise success,
// GCC rejection, distrust, and plain path failure concurrently.
struct ServicePki {
  SimSig sigs;
  std::vector<SimKeyPair> root_keys;
  std::vector<CertPtr> roots;
  std::vector<SimKeyPair> int_keys;
  std::vector<CertPtr> intermediates;
  std::vector<CertPtr> leaves;
  std::vector<std::string> domains;
  CertificatePool pool;
  rootstore::RootStore store;

  ServicePki() {
    int serial = 1;
    for (int r = 0; r < 3; ++r) {
      std::string name = "Svc Root " + std::to_string(r);
      SimKeyPair key = SimSig::keygen(name);
      CertPtr root = CertificateBuilder()
                         .serial(serial++)
                         .subject(DistinguishedName::make(name, "T"))
                         .issuer(DistinguishedName::make(name, "T"))
                         .validity(0, unix_date(2040, 1, 1))
                         .public_key(key.key_id)
                         .ca(std::nullopt)
                         .sign(key)
                         .take();
      sigs.register_key(key);
      root_keys.push_back(key);
      roots.push_back(root);
      (void)store.add_trusted(root);
      for (int i = 0; i < 2; ++i) {
        std::string int_name = "Svc Int " + std::to_string(r) + "." +
                               std::to_string(i);
        SimKeyPair ikey = SimSig::keygen(int_name);
        CertPtr intermediate =
            CertificateBuilder()
                .serial(serial++)
                .subject(DistinguishedName::make(int_name, "T"))
                .issuer(root->subject())
                .validity(0, unix_date(2039, 1, 1))
                .public_key(ikey.key_id)
                .ca(0)
                .sign(key)
                .take();
        sigs.register_key(ikey);
        int_keys.push_back(ikey);
        intermediates.push_back(intermediate);
        pool.add(intermediate);
        for (int l = 0; l < 4; ++l) {
          std::string domain = "l" + std::to_string(serial) + ".example.com";
          leaves.push_back(make_leaf(serial++, intermediate, ikey, domain,
                                     kNow - 86400, kNow + 90 * 86400));
          domains.push_back(domain);
        }
      }
    }
    // Broken corpus entries: an expired leaf and one whose issuer has no
    // candidate in the pool.
    leaves.push_back(make_leaf(serial++, intermediates[0], int_keys[0],
                               "expired.example.com", 1000, 2000));
    domains.push_back("expired.example.com");
    SimKeyPair orphan_key = SimSig::keygen("Svc Orphan");
    CertPtr orphan_issuer =
        CertificateBuilder()
            .serial(serial++)
            .subject(DistinguishedName::make("Svc Orphan", "T"))
            .issuer(DistinguishedName::make("Svc Orphan", "T"))
            .validity(0, unix_date(2039, 1, 1))
            .public_key(orphan_key.key_id)
            .ca(0)
            .sign(orphan_key)
            .take();
    sigs.register_key(orphan_key);
    leaves.push_back(make_leaf(serial++, orphan_issuer, orphan_key,
                               "orphan.example.com", kNow - 86400,
                               kNow + 86400));
    domains.push_back("orphan.example.com");
  }

  CertPtr make_leaf(int serial, const CertPtr& issuer,
                    const SimKeyPair& issuer_key, const std::string& domain,
                    std::int64_t not_before, std::int64_t not_after) {
    SimKeyPair key = SimSig::keygen("svc-leaf-" + std::to_string(serial));
    return CertificateBuilder()
        .serial(serial)
        .subject(DistinguishedName::make(domain))
        .issuer(issuer->subject())
        .validity(not_before, not_after)
        .public_key(key.key_id)
        .dns_names({domain})
        .extended_key_usage({x509::oids::kp_server_auth()})
        .sign(issuer_key)
        .take();
  }

  VerifyOptions options_for(std::size_t leaf_index) const {
    VerifyOptions options;
    options.time = kNow;
    options.hostname = domains[leaf_index];
    return options;
  }
};

// Rejects every chain (the required `valid` rule can never fire for the
// non-EV leaves this corpus issues).
constexpr const char* kRejectGcc =
    "valid(Chain, _) :- leaf(Chain, L), ev(L).";
// Accepts every chain.
constexpr const char* kAcceptGcc = "valid(Chain, _) :- leaf(Chain, L).";

struct RecordedCall {
  std::size_t leaf;
  std::uint64_t epoch;
  bool ok;
  std::string error;
  std::vector<std::string> chain_hashes;
};

std::vector<std::string> chain_hashes(const VerifyResult& result) {
  std::vector<std::string> hashes;
  for (const auto& cert : result.chain) {
    hashes.push_back(cert->fingerprint_hex());
  }
  return hashes;
}

TEST(VerifyService, StressConcurrentVerifyWithMutations) {
  ServicePki pki;
  // A leaf whose signature was tampered with: its link must fail on every
  // call, however often its siblings' links hit.
  {
    Bytes der = pki.leaves[0]->der();
    der.back() ^= 0x01;
    auto tampered = x509::Certificate::parse(BytesView(der));
    ASSERT_TRUE(tampered.ok()) << tampered.error();
    pki.leaves.push_back(tampered.value());
    pki.domains.push_back(pki.domains[0]);
  }
  ServiceConfig config;
  config.threads = 4;
  config.verdict_capacity = 512;
  // Also the link cache's bound: 16 entries over 4 shards against ~30
  // distinct verifiable links.
  config.cert_capacity = 16;
  config.shards = 4;
  VerifyService service(pki.store, pki.sigs, config);

  // Every store content the service can publish, keyed by epoch. The
  // mutator copies the live store right after each mutate() returns —
  // safe because it is the only thread touching the store (workers only
  // ever see immutable snapshots), and necessary because mutate() may
  // force the epoch past what the callback observed (a detach that
  // matched nothing still publishes a fresh epoch).
  std::map<std::uint64_t, rootstore::RootStore> history;
  history.emplace(service.epoch(), pki.store);

  constexpr int kWorkers = 6;
  constexpr int kItersPerWorker = 250;
  constexpr int kMutations = 36;

  std::vector<std::vector<RecordedCall>> per_worker(kWorkers);
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(0x5eedULL + static_cast<std::uint64_t>(w));
      auto& recorded = per_worker[static_cast<std::size_t>(w)];
      recorded.reserve(kItersPerWorker);
      for (int iter = 0; iter < kItersPerWorker; ++iter) {
        std::size_t leaf = rng.uniform(pki.leaves.size());
        std::uint64_t epoch = 0;
        VerifyResult result = service.verify(
            pki.leaves[leaf], pki.pool, pki.options_for(leaf), &epoch);
        recorded.push_back(RecordedCall{leaf, epoch, result.ok, result.error,
                                        chain_hashes(result)});
      }
    });
  }

  std::thread mutator([&] {
    for (int m = 0; m < kMutations; ++m) {
      // Pairing (m/2) keeps each do/undo op pair on the same root, so
      // attaches really get detached and distrusts really get reversed.
      const std::size_t r =
          (static_cast<std::size_t>(m) / 2) % pki.roots.size();
      const Sha256::Digest hash = pki.roots[r]->fingerprint();
      service.mutate([&](rootstore::RootStore& store) {
        switch (m % 6) {
          case 0:
            store.attach_gcc(
                core::Gcc::for_certificate("stress-reject", *pki.roots[r],
                                           kRejectGcc)
                    .take());
            break;
          case 1:
            store.detach_gcc(hash, "stress-reject");
            break;
          case 2:
            store.distrust(hash, "stress");
            break;
          case 3:
            store.forget(hash);
            ASSERT_TRUE(store.add_trusted(pki.roots[r]).ok());
            break;
          case 4:
            store.attach_gcc(
                core::Gcc::for_certificate("stress-accept", *pki.roots[r],
                                           kAcceptGcc)
                    .take());
            break;
          default:
            store.detach_gcc(hash, "stress-accept");
            break;
        }
      });
      history.emplace(service.epoch(), pki.store);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (auto& worker : workers) worker.join();
  mutator.join();

  // Replay every call cold at the epoch it observed.
  std::size_t checked = 0;
  for (const auto& recorded : per_worker) {
    for (const RecordedCall& call : recorded) {
      auto it = history.find(call.epoch);
      ASSERT_NE(it, history.end())
          << "service reported an epoch the mutator never published: "
          << call.epoch;
      ChainVerifier cold(it->second, pki.sigs);
      VerifyResult expected = cold.verify(pki.leaves[call.leaf], pki.pool,
                                          pki.options_for(call.leaf));
      EXPECT_EQ(call.ok, expected.ok)
          << "leaf " << call.leaf << " at epoch " << call.epoch;
      EXPECT_EQ(call.error, expected.error)
          << "leaf " << call.leaf << " at epoch " << call.epoch;
      EXPECT_EQ(call.chain_hashes, chain_hashes(expected))
          << "leaf " << call.leaf << " at epoch " << call.epoch;
      ++checked;
    }
  }
  EXPECT_EQ(checked,
            static_cast<std::size_t>(kWorkers) * kItersPerWorker);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.epoch_flushes, static_cast<std::uint64_t>(kMutations));
  EXPECT_GE(stats.calls, checked);
  // The replayed verdicts really came through the link cache, while it
  // was replacing entries.
  EXPECT_GT(stats.link_hits, 0u);
  EXPECT_GT(stats.link_misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(VerifyService, BatchMatchesSequentialVerification) {
  ServicePki pki;
  VerifyService service(pki.store, pki.sigs);

  // One options struct serves the whole batch, so use one hostname and
  // leave the rest to SAN matching via an empty hostname.
  VerifyOptions options;
  options.time = kNow;
  std::vector<CertPtr> batch = pki.leaves;
  auto pool = std::make_shared<const CertificatePool>(pki.pool);
  std::vector<std::future<VerifyResult>> pending;
  pending.reserve(batch.size());
  for (const CertPtr& leaf : batch) {
    pending.push_back(service.submit(leaf, pool, options));
  }
  std::vector<VerifyResult> results;
  results.reserve(pending.size());
  for (auto& future : pending) results.push_back(future.get());
  ASSERT_EQ(results.size(), batch.size());

  ChainVerifier cold(pki.store, pki.sigs);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    VerifyResult expected = cold.verify(batch[i], pki.pool, options);
    EXPECT_EQ(results[i].ok, expected.ok) << "leaf " << i;
    EXPECT_EQ(results[i].error, expected.error) << "leaf " << i;
    EXPECT_EQ(chain_hashes(results[i]), chain_hashes(expected)) << "leaf " << i;
  }
}

TEST(VerifyService, WarmCacheHitsAndEpochFlush) {
  ServicePki pki;
  // Attach an accepting GCC so the verdict cache is actually exercised.
  for (const CertPtr& root : pki.roots) {
    pki.store.attach_gcc(
        core::Gcc::for_certificate("warm", *root, kAcceptGcc).take());
  }
  VerifyService service(pki.store, pki.sigs);

  VerifyResult first =
      service.verify(pki.leaves[0], pki.pool, pki.options_for(0));
  ASSERT_TRUE(first.ok) << first.error;
  ServiceStats after_first = service.stats();
  EXPECT_EQ(after_first.verdict_hits, 0u);
  EXPECT_GE(after_first.verdict_misses, 1u);

  VerifyResult second =
      service.verify(pki.leaves[0], pki.pool, pki.options_for(0));
  ASSERT_TRUE(second.ok) << second.error;
  ServiceStats after_second = service.stats();
  EXPECT_GE(after_second.verdict_hits, 1u);
  EXPECT_EQ(after_second.verdict_misses, after_first.verdict_misses);

  // A mutation flushes: the same chain re-evaluates under the new epoch.
  service.mutate([&](rootstore::RootStore& store) {
    store.attach_gcc(
        core::Gcc::for_certificate("warm2", *pki.roots[1], kAcceptGcc).take());
  });
  ServiceStats after_mutate = service.stats();
  EXPECT_EQ(after_mutate.epoch_flushes, 1u);
  EXPECT_GE(after_mutate.stale_purged, 1u);

  VerifyResult third =
      service.verify(pki.leaves[0], pki.pool, pki.options_for(0));
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_GT(service.stats().verdict_misses, after_second.verdict_misses);
}

TEST(VerifyService, DerEntryPointsShareParseCache) {
  ServicePki pki;
  VerifyService service(pki.store, pki.sigs);

  std::vector<Bytes> upper_der{pki.intermediates[0]->der(),
                               pki.roots[0]->der()};
  EXPECT_TRUE(
      service.evaluate_gccs(pki.leaves[0]->der(), upper_der, "TLS").allowed);
  ServiceStats cold = service.stats();
  EXPECT_EQ(cold.cert_hits, 0u);
  EXPECT_EQ(cold.cert_misses, 3u);

  EXPECT_TRUE(
      service.evaluate_gccs(pki.leaves[0]->der(), upper_der, "TLS").allowed);
  ServiceStats warm = service.stats();
  EXPECT_EQ(warm.cert_hits, 3u);
  EXPECT_EQ(warm.cert_misses, 3u);

  // validate() reuses the same parsed-certificate cache.
  std::vector<Bytes> intermediates{pki.intermediates[0]->der()};
  VerifyResult result = service.validate(pki.leaves[0]->der(), intermediates,
                                         pki.options_for(0));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE(service.stats().cert_hits, 5u);
}

// A denial names the GCC that failed, and only the GCCs of the chain's own
// root run: a chain under another root is allowed without evaluating any.
TEST(VerifyService, EvaluateGccsNamesTheDenyingGcc) {
  ServicePki pki;
  pki.store.attach_gcc(
      core::Gcc::for_certificate("ev-only", *pki.roots[0], kRejectGcc)
          .take());
  VerifyService service(pki.store, pki.sigs);

  std::vector<Bytes> under_root0{pki.intermediates[0]->der(),
                                 pki.roots[0]->der()};
  VerifyService::GccsOutcome denied =
      service.evaluate_gccs(pki.leaves[0]->der(), under_root0, "TLS");
  EXPECT_FALSE(denied.allowed);
  EXPECT_EQ(denied.kind, ErrorKind::kGccDenied);
  EXPECT_EQ(denied.detail, "gcc:ev-only");
  EXPECT_EQ(denied.verdict.failed_gcc, "ev-only");
  EXPECT_EQ(denied.verdict.gccs_evaluated, 1u);

  // roots[1] issues intermediates[2], which issues leaves[8..11].
  std::vector<Bytes> under_root1{pki.intermediates[2]->der(),
                                 pki.roots[1]->der()};
  VerifyService::GccsOutcome allowed =
      service.evaluate_gccs(pki.leaves[8]->der(), under_root1, "TLS");
  EXPECT_TRUE(allowed.allowed);
  EXPECT_EQ(allowed.kind, ErrorKind::kOk);
  EXPECT_TRUE(allowed.detail.empty());
  EXPECT_EQ(allowed.verdict.gccs_evaluated, 0u);
}

// DER that does not parse, as the leaf or as an intermediate, is
// kMalformedRequest before any GCC runs; each such call is still counted.
TEST(VerifyService, EvaluateGccsClassifiesMalformedDer) {
  ServicePki pki;
  pki.store.attach_gcc(
      core::Gcc::for_certificate("accept", *pki.roots[0], kAcceptGcc).take());
  VerifyService service(pki.store, pki.sigs);
  const Bytes garbage{0x30, 0x03, 0x01, 0x02};

  std::vector<Bytes> upper_der{pki.intermediates[0]->der(),
                               pki.roots[0]->der()};
  VerifyService::GccsOutcome bad_leaf =
      service.evaluate_gccs(garbage, upper_der, "TLS");
  EXPECT_FALSE(bad_leaf.allowed);
  EXPECT_EQ(bad_leaf.kind, ErrorKind::kMalformedRequest);
  EXPECT_FALSE(bad_leaf.detail.empty());
  EXPECT_EQ(bad_leaf.verdict.gccs_evaluated, 0u);

  std::vector<Bytes> bad_upper{garbage, pki.roots[0]->der()};
  VerifyService::GccsOutcome bad_intermediate =
      service.evaluate_gccs(pki.leaves[0]->der(), bad_upper, "TLS");
  EXPECT_FALSE(bad_intermediate.allowed);
  EXPECT_EQ(bad_intermediate.kind, ErrorKind::kMalformedRequest);
  EXPECT_EQ(bad_intermediate.verdict.gccs_evaluated, 0u);

  EXPECT_EQ(service.stats().calls, 2u);
  EXPECT_EQ(service.stats().verdict_misses, 0u);
}

// A repeat evaluate_gccs is a verdict-cache hit; a mutation that attaches
// a denying GCC moves the epoch, so the earlier allow is not replayed.
TEST(VerifyService, EvaluateGccsVerdictIsCachedWithinAnEpoch) {
  ServicePki pki;
  pki.store.attach_gcc(
      core::Gcc::for_certificate("accept", *pki.roots[0], kAcceptGcc).take());
  VerifyService service(pki.store, pki.sigs);
  std::vector<Bytes> upper_der{pki.intermediates[0]->der(),
                               pki.roots[0]->der()};

  EXPECT_TRUE(
      service.evaluate_gccs(pki.leaves[0]->der(), upper_der, "TLS").allowed);
  ServiceStats first = service.stats();
  EXPECT_EQ(first.verdict_misses, 1u);
  EXPECT_EQ(first.verdict_hits, 0u);

  EXPECT_TRUE(
      service.evaluate_gccs(pki.leaves[0]->der(), upper_der, "TLS").allowed);
  EXPECT_EQ(service.stats().verdict_hits, first.verdict_hits + 1);
  EXPECT_EQ(service.stats().verdict_misses, first.verdict_misses);

  service.mutate([&](rootstore::RootStore& store) {
    store.attach_gcc(
        core::Gcc::for_certificate("ev-only", *pki.roots[0], kRejectGcc)
            .take());
  });
  VerifyService::GccsOutcome after =
      service.evaluate_gccs(pki.leaves[0]->der(), upper_der, "TLS");
  EXPECT_FALSE(after.allowed);
  EXPECT_EQ(after.detail, "gcc:ev-only");
  EXPECT_EQ(service.stats().verdict_misses, first.verdict_misses + 1);
}

// The reactor-side probe: it never parses, and it counts nothing unless
// every DER hits, so a caller that falls back to validate() counts each
// miss once. A full hit verifies exactly as validate() does.
TEST(VerifyService, ValidateIfCachedNeverParsesAndCountsOnlyFullHits) {
  ServicePki pki;
  VerifyService service(pki.store, pki.sigs);
  const Bytes leaf = pki.leaves[0]->der();
  const std::vector<Bytes> intermediates{pki.intermediates[0]->der()};
  const VerifyOptions options = pki.options_for(0);

  EXPECT_FALSE(service.validate_if_cached(leaf, intermediates, options));
  ServiceStats cold = service.stats();
  EXPECT_EQ(cold.cert_hits, 0u);
  EXPECT_EQ(cold.cert_misses, 0u);
  EXPECT_EQ(cold.calls, 0u);

  VerifyResult parsed = service.validate(leaf, intermediates, options);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(service.stats().cert_misses, 2u);

  // The leaf is cached but this intermediate is not: still a miss.
  const std::vector<Bytes> other{pki.intermediates[1]->der()};
  EXPECT_FALSE(service.validate_if_cached(leaf, other, options));
  EXPECT_EQ(service.stats().cert_hits, 0u);
  EXPECT_EQ(service.stats().cert_misses, 2u);

  std::optional<VerifyResult> cached =
      service.validate_if_cached(leaf, intermediates, options);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->ok, parsed.ok);
  EXPECT_EQ(cached->kind, parsed.kind);
  EXPECT_EQ(cached->paths_explored, parsed.paths_explored);
  EXPECT_EQ(chain_hashes(*cached), chain_hashes(parsed));
  ServiceStats warm = service.stats();
  EXPECT_EQ(warm.cert_hits, 2u);
  EXPECT_EQ(warm.cert_misses, 2u);
  EXPECT_EQ(warm.calls, 2u);
}

// A mutation holds the writer lock through its callback and a whole store
// copy; readers must not queue behind it. Here the callback blocks until a
// reader has finished, so a reader that waits for the writer never does.
TEST(VerifyService, ReadersDoNotWaitForAMutation) {
  ServicePki pki;
  VerifyService service(pki.store, pki.sigs);
  const std::uint64_t before = service.epoch();

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread writer([&] {
    service.mutate([&](rootstore::RootStore&) {
      entered.set_value();
      released.wait();
    });
  });
  entered.get_future().wait();

  auto reader = std::async(std::launch::async, [&] {
    VerifyResult result =
        service.verify(pki.leaves[0], pki.pool, pki.options_for(0));
    return std::make_pair(result.ok, service.epoch());
  });
  const bool finished =
      reader.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  release.set_value();
  writer.join();
  EXPECT_TRUE(finished) << "a reader waited for the mutation";
  const auto [ok, epoch] = reader.get();
  EXPECT_TRUE(ok);
  EXPECT_EQ(epoch, before);  // the old snapshot served until the publish
  EXPECT_GT(service.epoch(), before);
}

// Regression: the verdict-cache hit path used to drop the evaluator's
// EvalStats on the floor (only miss and context paths accumulated them),
// so a warm call was observably different from the cold call it replayed.
// Hit-path accounting must equal miss-path accounting, field by field.
TEST(VerifyService, CachedVerdictReplaysEvalStatsOnHit) {
  ServicePki pki;
  for (const CertPtr& root : pki.roots) {
    pki.store.attach_gcc(
        core::Gcc::for_certificate("stats", *root, kAcceptGcc).take());
  }
  VerifyService service(pki.store, pki.sigs);

  VerifyResult miss = service.verify(pki.leaves[0], pki.pool,
                                     pki.options_for(0));
  ASSERT_TRUE(miss.ok) << miss.error;
  // The regression is only meaningful if the evaluator actually did work.
  ASSERT_GT(miss.gcc_verdict.stats.derived_tuples, 0u);

  VerifyResult hit = service.verify(pki.leaves[0], pki.pool,
                                    pki.options_for(0));
  ASSERT_TRUE(hit.ok) << hit.error;
  ASSERT_GE(service.stats().verdict_hits, 1u);

  const datalog::EvalStats& a = miss.gcc_verdict.stats;
  const datalog::EvalStats& b = hit.gcc_verdict.stats;
  EXPECT_EQ(b.iterations, a.iterations);
  EXPECT_EQ(b.rule_applications, a.rule_applications);
  EXPECT_EQ(b.derived_tuples, a.derived_tuples);
  EXPECT_EQ(b.type_errors, a.type_errors);
  EXPECT_EQ(b.unbound_head_terms, a.unbound_head_terms);
  EXPECT_EQ(b.truncated, a.truncated);
  EXPECT_EQ(b.errored, a.errored);
  EXPECT_EQ(hit.gcc_verdict.gccs_evaluated, miss.gcc_verdict.gccs_evaluated);
  EXPECT_EQ(hit.gcc_verdict.facts_encoded, miss.gcc_verdict.facts_encoded);
}

// Regression (run under -DANCHOR_SANITIZE=address): submit() used to
// capture a raw CertificatePool*, so a caller that destroyed the pool
// before the future resolved handed the worker a dangling pointer. The
// task now shares ownership.
TEST(VerifyService, SubmitSharesPoolOwnershipWithWorker) {
  ServicePki pki;
  ServiceConfig config;
  config.threads = 1;  // serialize: the second task cannot start early
  VerifyService service(pki.store, pki.sigs, config);

  auto pool_a = std::make_shared<const CertificatePool>(pki.pool);
  auto future_a = service.submit(pki.leaves[0], pool_a, pki.options_for(0));
  // Queue a second verification behind the first on the single worker,
  // then drop the caller's only reference to its pool before the worker
  // can possibly have reached it.
  auto pool_b = std::make_shared<const CertificatePool>(pki.pool);
  auto future_b = service.submit(pki.leaves[1], pool_b, pki.options_for(1));
  pool_b.reset();

  VerifyResult a = future_a.get();
  VerifyResult b = future_b.get();
  EXPECT_TRUE(a.ok) << a.error;
  EXPECT_TRUE(b.ok) << b.error;
}

// validate_batch (anchord's kVerifyBatch backend) must agree entry-by-entry
// with validate(), with a malformed leaf failing only its own slot.
TEST(VerifyService, ValidateBatchMatchesValidatePerEntry) {
  ServicePki pki;
  VerifyService service(pki.store, pki.sigs);

  std::vector<Bytes> intermediates;
  for (const CertPtr& intermediate : pki.intermediates) {
    intermediates.push_back(intermediate->der());
  }
  std::vector<Bytes> leaf_ders;
  std::vector<std::string> hostnames;
  for (std::size_t i = 0; i < pki.leaves.size(); ++i) {
    leaf_ders.push_back(pki.leaves[i]->der());
    hostnames.push_back(pki.domains[i]);
  }
  leaf_ders.push_back(Bytes{0xde, 0xad});  // malformed, fails alone
  hostnames.push_back("broken.example.com");

  VerifyOptions options;
  options.time = kNow;
  std::vector<VerifyResult> batch =
      service.validate_batch(leaf_ders, hostnames, intermediates, options);
  ASSERT_EQ(batch.size(), leaf_ders.size());

  for (std::size_t i = 0; i + 1 < leaf_ders.size(); ++i) {
    VerifyOptions entry_options = options;
    entry_options.hostname = hostnames[i];
    VerifyResult expected =
        service.validate(leaf_ders[i], intermediates, entry_options);
    EXPECT_EQ(batch[i].ok, expected.ok) << "entry " << i;
    EXPECT_EQ(batch[i].error, expected.error) << "entry " << i;
    EXPECT_EQ(chain_hashes(batch[i]), chain_hashes(expected)) << "entry " << i;
  }
  EXPECT_FALSE(batch.back().ok);
  EXPECT_EQ(batch.back().kind, ErrorKind::kMalformedRequest);
}

// Regression: context-carrying verifies (VerifyOptions::gcc_context) were
// silently exempt from the verdict cache — correct, since context facts
// are not part of the cache key, but invisible to operators tuning cache
// capacity from hit/miss ratios. They must be counted as bypasses, and
// they must neither read nor populate the cache.
TEST(VerifyService, ContextVerifiesBypassCacheAndAreCounted) {
  ServicePki pki;
  for (const CertPtr& root : pki.roots) {
    pki.store.attach_gcc(
        core::Gcc::for_certificate("ctx", *root, kAcceptGcc).take());
  }
  metrics::Registry registry;
  VerifyService service(pki.store, pki.sigs, {}, registry);

  core::FactSet facts;
  VerifyOptions with_context = pki.options_for(0);
  with_context.gcc_context = &facts;

  ASSERT_TRUE(service.verify(pki.leaves[0], pki.pool, with_context).ok);
  ASSERT_TRUE(service.verify(pki.leaves[0], pki.pool, with_context).ok);
  ServiceStats after_context = service.stats();
  EXPECT_EQ(after_context.verdict_bypass, 2u);
  EXPECT_EQ(after_context.verdict_hits, 0u);
  EXPECT_EQ(after_context.verdict_misses, 0u);
  // The counter is operator-visible under the registry name the anchorctl
  // metrics verb exposes.
  EXPECT_EQ(registry.counter("anchor_verify_cache_bypass_total").value(), 2u);

  // The context calls populated nothing: the first context-free verify of
  // the same chain is a miss, not a hit.
  ASSERT_TRUE(service.verify(pki.leaves[0], pki.pool, pki.options_for(0)).ok);
  ServiceStats after_plain = service.stats();
  EXPECT_EQ(after_plain.verdict_hits, 0u);
  EXPECT_GE(after_plain.verdict_misses, 1u);

  // And a later context call must not read the now-warm cache either.
  ASSERT_TRUE(service.verify(pki.leaves[0], pki.pool, with_context).ok);
  ServiceStats final_stats = service.stats();
  EXPECT_EQ(final_stats.verdict_bypass, 3u);
  EXPECT_EQ(final_stats.verdict_hits, 0u);
}

// TSan property for the advance_epoch_past audit: under interleaved
// mutate() and adopt_view() — including adoption of *stale* snapshots
// whose own epoch is far behind the service's — every publication lands a
// strictly larger epoch, and no concurrent reader ever observes the epoch
// move backwards. A repeated epoch would let a verdict cached under its
// first occurrence be served against different trust content.
TEST(VerifyService, InterleavedAdoptAndMutateKeepEpochStrictlyIncreasing) {
  ServicePki pki;
  ServiceConfig config;
  config.threads = 2;
  metrics::Registry registry;
  VerifyService service(pki.store, pki.sigs, config, registry);

  // Snapshot the store *before* any service-side mutation: every adopted
  // view is deliberately stale, so the max(view-epoch, prior+1) rule is
  // what keeps the published epoch moving.
  const rootstore::RootStore frozen = pki.store;

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> regressions{0};
  std::vector<std::thread> readers;
  for (int w = 0; w < 3; ++w) {
    readers.emplace_back([&, w] {
      std::uint64_t seen = 0;
      std::size_t leaf = static_cast<std::size_t>(w);
      while (!done.load(std::memory_order_relaxed)) {
        const std::uint64_t epoch = service.epoch();
        if (epoch < seen) regressions.fetch_add(1, std::memory_order_relaxed);
        seen = epoch;
        leaf = (leaf + 1) % pki.leaves.size();
        (void)service.verify(pki.leaves[leaf], pki.pool,
                             pki.options_for(leaf));
      }
    });
  }

  std::uint64_t published = service.epoch();
  for (int round = 0; round < 24; ++round) {
    if (round % 2 == 0) {
      Sha256::Digest hash{};
      hash.fill(0xee);
      hash.back() = static_cast<std::uint8_t>(round);
      service.mutate([&](rootstore::RootStore& live) {
        live.distrust(hash, "round");
      });
    } else {
      auto opened = rootstore::snapshot::StoreView::from_bytes(
          rootstore::snapshot::write_snapshot(frozen));
      ASSERT_TRUE(opened.ok()) << opened.error.to_string();
      service.adopt_view(opened.view);
    }
    const std::uint64_t now = service.epoch();
    EXPECT_GT(now, published) << "round " << round;
    published = now;
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(regressions.load(), 0u);
}

}  // namespace
}  // namespace anchor::chain
