// TrustDaemon as a thin adapter over the anchord wire codec: the §3.1
// deployment-model verbs (evaluate_gccs / validate / metrics) plus the
// feed-status verb, in both fallback (uncached) and service-backed modes.
// Every call here round-trips encode_request → frame → decode → dispatch →
// encode_response → frame → decode, so these tests exercise the same
// marshaling path AnchordServer serves over a Conduit.
#include "anchord/daemon.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "chain/service.hpp"
#include "rsf/client.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"
#include "x509/oids.hpp"

namespace anchor::anchord {
namespace {

using chain::ErrorKind;
using chain::VerifyOptions;
using chain::VerifyResult;
using chain::VerifyService;
using x509::CertificateBuilder;
using x509::CertPtr;
using x509::DistinguishedName;

struct DaemonPki {
  SimSig sigs;
  SimKeyPair root_key = SimSig::keygen("Daemon Root");
  SimKeyPair int_key = SimSig::keygen("Daemon Int");
  CertPtr root, intermediate;
  rootstore::RootStore store;
  static constexpr std::int64_t kNow = 1700000000;

  DaemonPki() {
    root = CertificateBuilder()
               .serial(1)
               .subject(DistinguishedName::make("Daemon Root", "T"))
               .issuer(DistinguishedName::make("Daemon Root", "T"))
               .validity(0, unix_date(2040, 1, 1))
               .public_key(root_key.key_id)
               .ca(std::nullopt)
               .sign(root_key)
               .take();
    intermediate = CertificateBuilder()
                       .serial(2)
                       .subject(DistinguishedName::make("Daemon Int", "T"))
                       .issuer(root->subject())
                       .validity(0, unix_date(2039, 1, 1))
                       .public_key(int_key.key_id)
                       .ca(0)
                       .sign(root_key)
                       .take();
    sigs.register_key(root_key);
    sigs.register_key(int_key);
    (void)store.add_trusted(root);
  }

  TrustDaemonConfig config() const {
    return TrustDaemonConfig{.store = &store, .scheme = &sigs};
  }

  CertPtr leaf(const std::string& domain, bool ev = false) {
    SimKeyPair key = SimSig::keygen("dleaf" + domain);
    CertificateBuilder builder;
    builder.serial(3)
        .subject(DistinguishedName::make(domain))
        .issuer(intermediate->subject())
        .validity(kNow - 86400, kNow + 90 * 86400)
        .public_key(key.key_id)
        .dns_names({domain})
        .extended_key_usage({x509::oids::kp_server_auth()});
    if (ev) builder.ev();
    return builder.sign(int_key).take();
  }
};

TEST(TrustDaemon, EvaluateGccsOverDerBoundary) {
  DaemonPki pki;
  pki.store.attach_gcc(
      core::Gcc::for_certificate(
          "no-ev", *pki.root,
          "valid(Chain, _) :- leaf(Chain, L), \\+ev(L).")
          .take());
  TrustDaemon daemon(pki.config());

  CertPtr plain = pki.leaf("ok.example.com");
  std::vector<Bytes> chain_der{plain->der(), pki.intermediate->der(),
                               pki.root->der()};
  EXPECT_TRUE(daemon.evaluate_gccs(chain_der, "TLS"));

  CertPtr ev = pki.leaf("ev.example.com", true);
  std::vector<Bytes> ev_chain{ev->der(), pki.intermediate->der(),
                              pki.root->der()};
  EXPECT_FALSE(daemon.evaluate_gccs(ev_chain, "TLS"));
  EXPECT_EQ(daemon.calls(), 2u);
}

TEST(TrustDaemon, MalformedDerIsRejected) {
  DaemonPki pki;
  TrustDaemon daemon(pki.config());
  std::vector<Bytes> garbage{Bytes{0x01, 0x02, 0x03}};
  EXPECT_FALSE(daemon.evaluate_gccs(garbage, "TLS"));
  EXPECT_FALSE(daemon.evaluate_gccs({}, "TLS"));
}

TEST(TrustDaemon, UnconstrainedRootAllows) {
  DaemonPki pki;
  TrustDaemon daemon(pki.config());
  CertPtr leaf = pki.leaf("free.example.com");
  std::vector<Bytes> chain_der{leaf->der(), pki.intermediate->der(),
                               pki.root->der()};
  EXPECT_TRUE(daemon.evaluate_gccs(chain_der, "TLS"));
}

TEST(TrustDaemon, FullValidationInsideDaemon) {
  DaemonPki pki;
  TrustDaemon daemon(pki.config());
  CertPtr leaf = pki.leaf("full.example.com");
  VerifyOptions options;
  options.time = DaemonPki::kNow;
  options.hostname = "full.example.com";
  std::vector<Bytes> intermediates{pki.intermediate->der()};
  VerifyResult result = daemon.validate(leaf->der(), intermediates, options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.kind, ErrorKind::kOk);
  // The accepted path crossed the wire as DER and was re-parsed.
  EXPECT_EQ(result.chain.size(), 3u);
}

TEST(TrustDaemon, FullValidationRejectsMalformedLeaf) {
  DaemonPki pki;
  TrustDaemon daemon(pki.config());
  VerifyOptions options;
  options.time = DaemonPki::kNow;
  VerifyResult result = daemon.validate(Bytes{0xff}, {}, options);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.kind, ErrorKind::kMalformedRequest);
}

// A request whose marshalled frame exceeds the configured cap fails closed
// as kMalformedRequest — the daemon refuses to pretend a transport would
// have carried it.
TEST(TrustDaemon, OversizedRequestFailsClosed) {
  DaemonPki pki;
  TrustDaemonConfig config = pki.config();
  config.max_frame_bytes = 256;
  TrustDaemon daemon(config);
  CertPtr leaf = pki.leaf("big.example.com");
  VerifyOptions options;
  options.time = DaemonPki::kNow;
  options.hostname = "big.example.com";
  std::vector<Bytes> intermediates{pki.intermediate->der()};
  VerifyResult result = daemon.validate(leaf->der(), intermediates, options);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.kind, ErrorKind::kMalformedRequest);
  EXPECT_NE(result.error.find("exceeds"), std::string::npos);
}

TEST(TrustDaemon, LatencySimulationAccumulates) {
  DaemonPki pki;
  TrustDaemonConfig fast_config = pki.config();
  TrustDaemonConfig slow_config = pki.config();
  slow_config.latency_ns = 2000000;  // 2 ms per leg
  TrustDaemon fast(fast_config);
  TrustDaemon slow(slow_config);
  CertPtr leaf = pki.leaf("timed.example.com");
  std::vector<Bytes> chain_der{leaf->der(), pki.intermediate->der(),
                               pki.root->der()};
  auto time_call = [&](TrustDaemon& daemon) {
    auto start = std::chrono::steady_clock::now();
    daemon.evaluate_gccs(chain_der, "TLS");
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const auto fast_us = time_call(fast);
  const auto slow_us = time_call(slow);
  // Two simulated 2 ms legs put a hard floor under the slow path; the
  // fast path's wall clock is scheduling noise (unbounded under
  // sanitizers on a loaded host), so it is exercised but not compared.
  (void)fast_us;
  EXPECT_GE(slow_us, 4000);
}

// Option-3 validate() with nonzero IPC latency, routed through the shared
// VerifyService: the two simulated kernel round trips must still be paid
// on top of the (possibly cached) service work.
TEST(TrustDaemon, ValidateWithLatencyThroughService) {
  DaemonPki pki;
  VerifyService service(pki.store, pki.sigs);
  TrustDaemonConfig fast_config = pki.config();
  fast_config.service = &service;
  TrustDaemonConfig slow_config = fast_config;
  slow_config.latency_ns = 2000000;  // 2 ms per leg
  TrustDaemon fast(fast_config);
  TrustDaemon slow(slow_config);

  CertPtr leaf = pki.leaf("svc.example.com");
  VerifyOptions options;
  options.time = DaemonPki::kNow;
  options.hostname = "svc.example.com";
  std::vector<Bytes> intermediates{pki.intermediate->der()};

  auto timed_validate = [&](TrustDaemon& daemon, VerifyResult& out) {
    auto start = std::chrono::steady_clock::now();
    out = daemon.validate(leaf->der(), intermediates, options);
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  VerifyResult fast_result, slow_result;
  const auto fast_us = timed_validate(fast, fast_result);
  const auto slow_us = timed_validate(slow, slow_result);
  ASSERT_TRUE(fast_result.ok) << fast_result.error;
  ASSERT_TRUE(slow_result.ok) << slow_result.error;
  EXPECT_EQ(slow_result.chain.size(), 3u);
  // Guaranteed floor from the two simulated legs (see
  // LatencySimulationAccumulates for why the fast path is not compared).
  (void)fast_us;
  EXPECT_GE(slow_us, 4000);
  EXPECT_EQ(fast.calls(), 1u);
  EXPECT_EQ(slow.calls(), 1u);
}

// The metrics verb: an anchorctl-style scrape over the same wire surface.
// It must refresh the store gauges and return the registry's exposition.
TEST(TrustDaemon, MetricsVerbEmitsExposition) {
  DaemonPki pki;
  pki.store.distrust(*digest_from_hex(std::string(64, 'a')), "incident");
  TrustDaemon daemon(pki.config());

  metrics::Registry registry;  // isolated so counts are exact
  const std::string text = daemon.metrics(registry);
  EXPECT_NE(text.find("# TYPE anchor_store_trusted_roots gauge"),
            std::string::npos);
  EXPECT_NE(text.find("anchor_store_trusted_roots 1"), std::string::npos);
  EXPECT_NE(text.find("anchor_store_distrusted_roots 1"), std::string::npos);
  EXPECT_NE(text.find("anchor_store_epoch"), std::string::npos);
  EXPECT_EQ(daemon.calls(), 1u);  // the scrape itself crosses the boundary

  // Store changes show up on the next scrape.
  pki.store.distrust(*digest_from_hex(std::string(64, 'b')), "second incident");
  const std::string updated = daemon.metrics(registry);
  EXPECT_NE(updated.find("anchor_store_distrusted_roots 2"),
            std::string::npos);
}

// The feed-status verb fails closed (kUnavailable) without an RSF client,
// and reports the client's liveness line with one attached.
TEST(TrustDaemon, FeedStatusVerb) {
  DaemonPki pki;
  TrustDaemon bare(pki.config());
  Response unavailable = bare.feed_status();
  EXPECT_FALSE(unavailable.ok);
  EXPECT_EQ(unavailable.kind, ErrorKind::kUnavailable);

  SimSig feed_registry;
  rsf::Feed feed("nss", feed_registry);
  feed.publish(pki.store, 100, "r1");
  rsf::RsfClient client(feed, 3600);
  EXPECT_EQ(client.poll_now(200), 1u);

  TrustDaemonConfig config = pki.config();
  config.feed = &client;
  TrustDaemon daemon(config);
  Response status = daemon.feed_status();
  ASSERT_TRUE(status.ok) << status.detail;
  EXPECT_EQ(status.kind, ErrorKind::kOk);
  EXPECT_NE(status.detail.find("health=healthy"), std::string::npos);
  EXPECT_NE(status.detail.find("sequence=1"), std::string::npos);
}

// Concurrent clients of one service-backed daemon: every caller gets the
// right Boolean / chain and no call is lost (calls_ is atomic).
TEST(TrustDaemon, ConcurrentCallersThroughService) {
  DaemonPki pki;
  pki.store.attach_gcc(
      core::Gcc::for_certificate(
          "no-ev", *pki.root,
          "valid(Chain, _) :- leaf(Chain, L), \\+ev(L).")
          .take());
  VerifyService service(pki.store, pki.sigs);
  TrustDaemonConfig config = pki.config();
  config.latency_ns = 10000;  // 10 us per leg
  config.service = &service;
  TrustDaemon daemon(config);

  CertPtr plain = pki.leaf("plain.example.com");
  CertPtr ev = pki.leaf("ev.example.com", true);
  std::vector<Bytes> plain_chain{plain->der(), pki.intermediate->der(),
                                 pki.root->der()};
  std::vector<Bytes> ev_chain{ev->der(), pki.intermediate->der(),
                              pki.root->der()};
  VerifyOptions options;
  options.time = DaemonPki::kNow;
  options.hostname = "plain.example.com";
  std::vector<Bytes> intermediates{pki.intermediate->der()};

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        // Option 2 both ways, plus option 3, from every thread.
        if (!daemon.evaluate_gccs(plain_chain, "TLS")) ++failures;
        if (daemon.evaluate_gccs(ev_chain, "TLS")) ++failures;
        VerifyResult result =
            daemon.validate(plain->der(), intermediates, options);
        if (!result.ok || result.chain.size() != 3) ++failures;
        (void)t;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(daemon.calls(),
            static_cast<std::uint64_t>(kThreads) * kItersPerThread * 3);
  // The shared service memoized the repeated work.
  const chain::ServiceStats stats = service.stats();
  EXPECT_GT(stats.verdict_hits, 0u);
  EXPECT_GT(stats.cert_hits, 0u);
}

}  // namespace
}  // namespace anchor::anchord
