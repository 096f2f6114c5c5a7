// The anchord serving layer end to end: wire codec round trips, the
// concurrent session loop (pipelining, correlation-id matching, torn and
// malformed frames, overload and timeout fail-closed semantics), and the
// acceptance property that a verdict served over the wire is byte-identical
// to one computed on the direct VerifyService path.
#include "anchord/server.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "anchord/client.hpp"
#include "core/gcc.hpp"
#include "cross_sign_ladder.hpp"
#include "rsf/client.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"
#include "x509/oids.hpp"

namespace anchor::anchord {
namespace {

using chain::ErrorKind;
using chain::VerifyService;
using x509::CertificateBuilder;
using x509::CertPtr;
using x509::DistinguishedName;

struct WirePki {
  SimSig sigs;
  SimKeyPair root_key = SimSig::keygen("Wire Root");
  SimKeyPair int_key = SimSig::keygen("Wire Int");
  CertPtr root, intermediate;
  rootstore::RootStore store;
  static constexpr std::int64_t kNow = 1700000000;

  WirePki() {
    root = CertificateBuilder()
               .serial(1)
               .subject(DistinguishedName::make("Wire Root", "T"))
               .issuer(DistinguishedName::make("Wire Root", "T"))
               .validity(0, unix_date(2040, 1, 1))
               .public_key(root_key.key_id)
               .ca(std::nullopt)
               .sign(root_key)
               .take();
    intermediate = CertificateBuilder()
                       .serial(2)
                       .subject(DistinguishedName::make("Wire Int", "T"))
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

  CertPtr leaf(const std::string& domain, bool ev = false) {
    SimKeyPair key = SimSig::keygen("wleaf" + domain);
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

  Request verify_request(const CertPtr& leaf_cert,
                         const std::string& hostname) const {
    Request request;
    request.verb = Verb::kVerify;
    request.usage = "TLS";
    request.time = kNow;
    request.hostname = hostname;
    request.leaf_der = leaf_cert->der();
    request.intermediates_der = {intermediate->der()};
    return request;
  }
};

// A socketpair conduit; a failure to make one fails the test.
ConduitPair socket_pair() {
  auto pair = make_socketpair_conduit();
  if (!pair.ok()) throw std::runtime_error(pair.error());
  return std::move(pair).take();
}

// One server over one socketpair connection, with the serve loop on its
// own thread; close() on the client end shuts everything down.
struct Harness {
  WirePki pki;
  metrics::Registry registry;
  VerifyService service;
  VerbDispatcher::Backends backends;
  AnchordConfig config;
  std::unique_ptr<AnchordServer> server;
  ConduitPair conduits = socket_pair();
  std::thread serve_thread;

  explicit Harness(AnchordConfig cfg = {})
      : service(pki.store, pki.sigs, {}, registry), config(std::move(cfg)) {
    backends.service = &service;
    backends.store = &pki.store;
    backends.registry = &registry;
    server = std::make_unique<AnchordServer>(backends, config, registry);
    serve_thread = std::thread([this] { server->serve(*conduits.second); });
  }

  ~Harness() {
    conduits.first->close();
    serve_thread.join();
  }

  Conduit& client_end() { return *conduits.first; }
};

// --- wire codec -----------------------------------------------------------

TEST(AnchordWire, RequestRoundTripsThroughCodec) {
  Request request;
  request.correlation_id = 0x1122334455667788ULL;
  request.verb = Verb::kVerify;
  request.usage = "TLS";
  request.time = -12345;  // negative times must survive the i64 encoding
  request.max_depth = 5;
  request.require_ev = true;
  request.check_signatures = false;
  request.run_gccs = true;
  request.hostname = "a.example.com";
  request.leaf_der = Bytes{0x30, 0x01, 0x02};
  request.intermediates_der = {Bytes{0x30, 0x00}, Bytes{}, Bytes{0xff}};

  net::Message message = encode_request(request);
  EXPECT_EQ(message.type, net::MsgType::kRequest);
  auto decoded = decode_request(message);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), request);
}

TEST(AnchordWire, ResponseRoundTripsThroughCodec) {
  Response response;
  response.correlation_id = 7;
  response.verb = Verb::kEvaluateGccs;
  response.kind = ErrorKind::kGccDenied;
  response.ok = false;
  response.stats = {3, 9, 2, 140, 5};
  response.detail = "gcc:no-ev";
  response.chain_der = {Bytes{0x30}, Bytes{0x31, 0x32}};

  net::Message message = encode_response(response);
  EXPECT_EQ(message.type, net::MsgType::kResponse);
  auto decoded = decode_response(message);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), response);
}

TEST(AnchordWire, BatchRequestAndResponseRoundTripThroughCodec) {
  Request request;
  request.correlation_id = 11;
  request.verb = Verb::kVerifyBatch;
  request.usage = "TLS";
  request.time = 1700000000;
  request.intermediates_der = {Bytes{0x30, 0x00}};
  request.batch = {{"a.example.com", Bytes{0x30, 0x01}},
                   {"", Bytes{}},
                   {"b.example.com", Bytes{0xff}}};
  auto decoded = decode_request(encode_request(request));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), request);

  Response response;
  response.correlation_id = 11;
  response.verb = Verb::kVerifyBatch;
  response.ok = false;
  response.kind = ErrorKind::kHostnameMismatch;
  response.stats = {6, 4, 2, 80, 3};
  response.batch = {{ErrorKind::kOk, true, 3, 2, 1, 40, ""},
                    {ErrorKind::kHostnameMismatch, false, 0, 2, 1, 40,
                     "hostname mismatch"}};
  auto round = decode_response(encode_response(response));
  ASSERT_TRUE(round.ok()) << round.error();
  EXPECT_EQ(round.value(), response);

  // The batch section exists only for the batch verb: bytes appended to a
  // non-batch response stay trailing garbage, exactly as before the verb
  // existed.
  net::Message plain = encode_response(Response{});
  plain.payload.push_back(0x00);
  EXPECT_FALSE(decode_response(plain).ok());

  // Truncated batch section and out-of-taxonomy per-entry kind byte are
  // both strict errors.
  net::Message truncated = encode_response(response);
  truncated.payload.pop_back();
  EXPECT_FALSE(decode_response(truncated).ok());
}

TEST(AnchordWire, StrictDecodingRejectsDamage) {
  Request request;
  request.verb = Verb::kMetrics;
  net::Message good = encode_request(request);

  net::Message trailing = good;
  trailing.payload.push_back(0x00);
  EXPECT_FALSE(decode_request(trailing).ok());

  net::Message truncated = good;
  truncated.payload.pop_back();
  EXPECT_FALSE(decode_request(truncated).ok());

  net::Message bad_verb = good;
  bad_verb.payload[8] = 99;  // verb byte follows the 8-byte correlation id
  EXPECT_FALSE(decode_request(bad_verb).ok());

  net::Message wrong_type = good;
  wrong_type.type = net::MsgType::kCertificate;
  EXPECT_FALSE(decode_request(wrong_type).ok());

  // Responses: an error-kind byte outside the taxonomy is rejected.
  Response response;
  net::Message encoded = encode_response(response);
  encoded.payload[9] = 200;  // kind byte follows cid + verb
  EXPECT_FALSE(decode_response(encoded).ok());
}

TEST(AnchordWire, PeekCorrelationId) {
  Request request;
  request.correlation_id = 424242;
  net::Message message = encode_request(request);
  EXPECT_EQ(peek_correlation_id(BytesView(message.payload)), 424242u);
  EXPECT_EQ(peek_correlation_id(BytesView(Bytes{0x01, 0x02})), 0u);
}

// --- verbs over the wire --------------------------------------------------

TEST(AnchordServer, AllFourVerbsRoundTrip) {
  Harness h;
  AnchordClient client(h.client_end());

  // Verify: an accepted chain comes back ok with the path as DER.
  CertPtr good = h.pki.leaf("ok.example.com");
  auto verify = client.call(h.pki.verify_request(good, "ok.example.com"));
  ASSERT_TRUE(verify.ok()) << verify.error();
  EXPECT_TRUE(verify.value().ok);
  EXPECT_EQ(verify.value().kind, ErrorKind::kOk);
  EXPECT_EQ(verify.value().stats.chain_len, 3u);
  EXPECT_EQ(verify.value().chain_der.size(), 3u);
  EXPECT_EQ(verify.value().chain_der[0], good->der());

  // EvaluateGccs against a store with no GCCs: allowed.
  Request gccs;
  gccs.verb = Verb::kEvaluateGccs;
  gccs.usage = "TLS";
  gccs.leaf_der = good->der();
  gccs.intermediates_der = {h.pki.intermediate->der(), h.pki.root->der()};
  auto eval = client.call(gccs);
  ASSERT_TRUE(eval.ok()) << eval.error();
  EXPECT_TRUE(eval.value().ok);
  EXPECT_EQ(eval.value().stats.chain_len, 3u);

  // Metrics: the exposition crosses as the detail string and includes the
  // server's own request counters.
  Request metrics_req;
  metrics_req.verb = Verb::kMetrics;
  auto metrics = client.call(metrics_req);
  ASSERT_TRUE(metrics.ok()) << metrics.error();
  EXPECT_TRUE(metrics.value().ok);
  EXPECT_NE(metrics.value().detail.find("anchor_store_trusted_roots 1"),
            std::string::npos);
  EXPECT_NE(metrics.value().detail.find("anchor_anchord_requests_total"),
            std::string::npos);

  // FeedStatus without a feed: explicit kUnavailable, not a dropped verb.
  Request feed_req;
  feed_req.verb = Verb::kFeedStatus;
  auto feed = client.call(feed_req);
  ASSERT_TRUE(feed.ok()) << feed.error();
  EXPECT_FALSE(feed.value().ok);
  EXPECT_EQ(feed.value().kind, ErrorKind::kUnavailable);
}

TEST(AnchordServer, FeedStatusWithAttachedClient) {
  SimSig feed_registry;
  rsf::Feed feed("nss", feed_registry);
  Harness h;
  feed.publish(h.pki.store, 100, "r1");
  rsf::RsfClient rsf_client(feed, 3600);
  rsf_client.bind_metrics(h.registry, "nss");
  EXPECT_EQ(rsf_client.poll_now(200), 1u);

  // A second server sharing the harness service, with the feed attached.
  VerbDispatcher::Backends backends = h.backends;
  backends.feed = &rsf_client;
  AnchordServer server(backends, {}, h.registry);
  ConduitPair pair = socket_pair();
  std::thread serve([&] { server.serve(*pair.second); });
  {
    AnchordClient client(*pair.first);
    Request request;
    request.verb = Verb::kFeedStatus;
    auto status = client.call(request);
    ASSERT_TRUE(status.ok()) << status.error();
    EXPECT_TRUE(status.value().ok);
    EXPECT_NE(status.value().detail.find("health=healthy"),
              std::string::npos);
    EXPECT_NE(status.value().detail.find("sequence=1"), std::string::npos);
  }
  pair.first->close();
  serve.join();
}

TEST(AnchordServer, VerifyFailureKindsCrossTheWire) {
  Harness h;
  AnchordClient client(h.client_end());

  // Hostname mismatch.
  CertPtr good = h.pki.leaf("real.example.com");
  auto mismatch =
      client.call(h.pki.verify_request(good, "other.example.com"));
  ASSERT_TRUE(mismatch.ok()) << mismatch.error();
  EXPECT_FALSE(mismatch.value().ok);
  EXPECT_EQ(mismatch.value().kind, ErrorKind::kHostnameMismatch);

  // Malformed leaf DER is classified, not stringly-typed.
  Request malformed = h.pki.verify_request(good, "real.example.com");
  malformed.leaf_der = Bytes{0xde, 0xad};
  auto bad = client.call(malformed);
  ASSERT_TRUE(bad.ok()) << bad.error();
  EXPECT_EQ(bad.value().kind, ErrorKind::kMalformedRequest);

  // Unknown usage token.
  Request weird = h.pki.verify_request(good, "real.example.com");
  weird.usage = "CODE-SIGNING";
  auto unknown = client.call(weird);
  ASSERT_TRUE(unknown.ok()) << unknown.error();
  EXPECT_EQ(unknown.value().kind, ErrorKind::kMalformedRequest);
}

// §3.1 option 2 over a served session: the user agent built the chain, the
// daemon runs the GCCs attached to its root. A denial names the GCC.
TEST(AnchordServer, EvaluateGccsDenialCrossesTheWire) {
  Harness h;
  h.service.mutate([&](rootstore::RootStore& store) {
    store.attach_gcc(core::Gcc::for_certificate(
                         "no-ev", *h.pki.root,
                         "valid(Chain, _) :- leaf(Chain, L), \\+ev(L).")
                         .take());
  });
  AnchordClient client(h.client_end());
  auto evaluate = [&](const CertPtr& leaf) {
    Request request;
    request.verb = Verb::kEvaluateGccs;
    request.usage = "TLS";
    request.leaf_der = leaf->der();
    request.intermediates_der = {h.pki.intermediate->der(),
                                 h.pki.root->der()};
    return client.call(request);
  };

  auto plain = evaluate(h.pki.leaf("ok.example.com"));
  ASSERT_TRUE(plain.ok()) << plain.error();
  EXPECT_TRUE(plain.value().ok);
  EXPECT_EQ(plain.value().kind, ErrorKind::kOk);
  EXPECT_EQ(plain.value().stats.gccs_evaluated, 1u);

  auto ev = evaluate(h.pki.leaf("ev.example.com", /*ev=*/true));
  ASSERT_TRUE(ev.ok()) << ev.error();
  EXPECT_FALSE(ev.value().ok);
  EXPECT_EQ(ev.value().kind, ErrorKind::kGccDenied);
  EXPECT_EQ(ev.value().detail, "gcc:no-ev");
}

// evaluate-gccs classifies a leaf that does not parse, and accepts the
// usage tokens verify accepts and no others: the verifier only ever hands
// GCCs a usage_name() value.
TEST(AnchordServer, EvaluateGccsRejectsMalformedRequests) {
  Harness h;
  AnchordClient client(h.client_end());
  Request request;
  request.verb = Verb::kEvaluateGccs;
  request.usage = "TLS";
  request.intermediates_der = {h.pki.intermediate->der(), h.pki.root->der()};
  auto expect_kind = [&](ErrorKind kind) {
    auto response = client.call(request);
    ASSERT_TRUE(response.ok()) << response.error();
    EXPECT_EQ(response.value().ok, kind == ErrorKind::kOk);
    EXPECT_EQ(response.value().kind, kind);
  };

  request.leaf_der = Bytes{0x01, 0x02, 0x03};
  expect_kind(ErrorKind::kMalformedRequest);
  request.leaf_der.clear();
  expect_kind(ErrorKind::kMalformedRequest);

  request.leaf_der = h.pki.leaf("usage.example.com")->der();
  request.usage = "FOO";
  expect_kind(ErrorKind::kMalformedRequest);
  request.usage = "TLS";
  expect_kind(ErrorKind::kOk);
}

// An intermediate that does not parse is classified like a bad leaf, and
// the session keeps serving: the next well-formed request is answered.
TEST(AnchordServer, EvaluateGccsRejectsUnparsableIntermediate) {
  Harness h;
  AnchordClient client(h.client_end());
  Request request;
  request.verb = Verb::kEvaluateGccs;
  request.usage = "TLS";
  request.leaf_der = h.pki.leaf("int.example.com")->der();
  request.intermediates_der = {Bytes{0xde, 0xad, 0xbe, 0xef},
                               h.pki.root->der()};
  auto bad = client.call(request);
  ASSERT_TRUE(bad.ok()) << bad.error();
  EXPECT_FALSE(bad.value().ok);
  EXPECT_EQ(bad.value().kind, ErrorKind::kMalformedRequest);
  EXPECT_FALSE(bad.value().detail.empty());
  EXPECT_EQ(bad.value().stats.gccs_evaluated, 0u);

  request.intermediates_der = {h.pki.intermediate->der(), h.pki.root->der()};
  auto good = client.call(request);
  ASSERT_TRUE(good.ok()) << good.error();
  EXPECT_TRUE(good.value().ok);
  EXPECT_EQ(good.value().kind, ErrorKind::kOk);
}

// The request's usage token is what the GCCs see: a constraint that only
// admits TLS allows the chain for "TLS" and denies the same chain for
// "S/MIME", so neither verdict is replayed for the other usage.
TEST(AnchordServer, EvaluateGccsHandsTheRequestUsageToGccs) {
  Harness h;
  h.service.mutate([&](rootstore::RootStore& store) {
    store.attach_gcc(core::Gcc::for_certificate(
                         "tls-only", *h.pki.root,
                         "valid(Chain, \"TLS\") :- leaf(Chain, _).")
                         .take());
  });
  AnchordClient client(h.client_end());
  Request request;
  request.verb = Verb::kEvaluateGccs;
  request.leaf_der = h.pki.leaf("usage.example.com")->der();
  request.intermediates_der = {h.pki.intermediate->der(), h.pki.root->der()};

  request.usage = core::kUsageTls;
  auto tls = client.call(request);
  ASSERT_TRUE(tls.ok()) << tls.error();
  EXPECT_TRUE(tls.value().ok);
  EXPECT_EQ(tls.value().stats.gccs_evaluated, 1u);

  request.usage = core::kUsageSmime;
  auto smime = client.call(request);
  ASSERT_TRUE(smime.ok()) << smime.error();
  EXPECT_FALSE(smime.value().ok);
  EXPECT_EQ(smime.value().kind, ErrorKind::kGccDenied);
  EXPECT_EQ(smime.value().detail, "gcc:tls-only");
}

// A GCC attached between two calls governs the second one: the allow from
// before the mutation is not replayed, and the response carries the new
// epoch.
TEST(AnchordServer, EvaluateGccsSeesAGccAttachedBetweenCalls) {
  Harness h;
  AnchordClient client(h.client_end());
  Request request;
  request.verb = Verb::kEvaluateGccs;
  request.usage = "TLS";
  request.leaf_der = h.pki.leaf("late.example.com", /*ev=*/true)->der();
  request.intermediates_der = {h.pki.intermediate->der(), h.pki.root->der()};

  auto before = client.call(request);
  ASSERT_TRUE(before.ok()) << before.error();
  EXPECT_TRUE(before.value().ok);
  EXPECT_EQ(before.value().stats.gccs_evaluated, 0u);

  h.service.mutate([&](rootstore::RootStore& store) {
    store.attach_gcc(core::Gcc::for_certificate(
                         "no-ev", *h.pki.root,
                         "valid(Chain, _) :- leaf(Chain, L), \\+ev(L).")
                         .take());
  });
  auto after = client.call(request);
  ASSERT_TRUE(after.ok()) << after.error();
  EXPECT_FALSE(after.value().ok);
  EXPECT_EQ(after.value().kind, ErrorKind::kGccDenied);
  EXPECT_EQ(after.value().detail, "gcc:no-ev");
  EXPECT_GT(after.value().stats.epoch, before.value().stats.epoch);
}

// Every metrics scrape refreshes the store gauges first, so a store
// mutation between two scrapes shows up in the second.
TEST(AnchordServer, MetricsScrapeReflectsStoreMutation) {
  Harness h;
  AnchordClient client(h.client_end());
  auto scrape = [&] {
    Request request;
    request.verb = Verb::kMetrics;
    auto response = client.call(request);
    EXPECT_TRUE(response.ok()) << response.error();
    return response.ok() ? response.value().detail : std::string();
  };
  auto distrust = [&](char hex) {
    h.service.mutate([hex](rootstore::RootStore& store) {
      store.distrust(*digest_from_hex(std::string(64, hex)), "incident");
    });
  };

  distrust('a');
  EXPECT_NE(scrape().find("anchor_store_distrusted_roots 1"),
            std::string::npos);
  distrust('b');
  EXPECT_NE(scrape().find("anchor_store_distrusted_roots 2"),
            std::string::npos);
}

// Acceptance: the wire path and the direct VerifyService path produce
// byte-identical responses for the same request.
TEST(AnchordServer, WireVerdictMatchesDirectPathByteForByte) {
  Harness h;
  VerbDispatcher direct(h.backends);
  AnchordClient client(h.client_end());

  const std::vector<std::pair<std::string, bool>> cases = {
      {"match.example.com", true},    // accepted chain
      {"mismatch.example.com", false} // hostname rejection
  };
  for (const auto& [domain, accept] : cases) {
    CertPtr leaf = h.pki.leaf(domain);
    Request request = h.pki.verify_request(
        leaf, accept ? domain : "elsewhere.example.com");
    auto wire = client.call(request);
    ASSERT_TRUE(wire.ok()) << wire.error();
    EXPECT_EQ(wire.value().ok, accept);

    Request mirror = request;
    mirror.correlation_id = wire.value().correlation_id;
    Response direct_response = direct.dispatch(mirror);
    EXPECT_EQ(encode_response(wire.value()).payload,
              encode_response(direct_response).payload)
        << "wire and direct responses diverge for " << domain;
  }
}

// The same property for evaluate-gccs, on an allowed chain and on one a
// GCC denies.
TEST(AnchordServer, EvaluateGccsVerdictsMatchDirectDispatchByteForByte) {
  Harness h;
  h.service.mutate([&](rootstore::RootStore& store) {
    store.attach_gcc(core::Gcc::for_certificate(
                         "no-ev", *h.pki.root,
                         "valid(Chain, _) :- leaf(Chain, L), \\+ev(L).")
                         .take());
  });
  VerbDispatcher direct(h.backends);
  AnchordClient client(h.client_end());

  for (const bool ev : {false, true}) {
    Request request;
    request.verb = Verb::kEvaluateGccs;
    request.usage = "TLS";
    request.leaf_der = h.pki.leaf("gccs.example.com", ev)->der();
    request.intermediates_der = {h.pki.intermediate->der(),
                                 h.pki.root->der()};
    auto wire = client.call(request);
    ASSERT_TRUE(wire.ok()) << wire.error();
    EXPECT_EQ(wire.value().ok, !ev);

    Request mirror = request;
    mirror.correlation_id = wire.value().correlation_id;
    Response direct_response = direct.dispatch(mirror);
    EXPECT_EQ(encode_response(wire.value()).payload,
              encode_response(direct_response).payload)
        << "wire and direct responses diverge for ev=" << ev;
  }
}

// --- the batch verb -------------------------------------------------------

// One kVerifyBatch frame carrying N chains: per-entry verdicts come back
// index-aligned, a bad entry fails alone, and the whole response is
// byte-identical to what direct dispatch produces for the same request.
TEST(AnchordServer, BatchVerbVerdictsMatchDirectDispatchByteForByte) {
  Harness h;
  VerbDispatcher direct(h.backends);
  AnchordClient client(h.client_end());

  CertPtr a = h.pki.leaf("a.example.com");
  CertPtr b = h.pki.leaf("b.example.com");
  CertPtr c = h.pki.leaf("c.example.com");
  Request request;
  request.verb = Verb::kVerifyBatch;
  request.usage = "TLS";
  request.time = WirePki::kNow;
  request.intermediates_der = {h.pki.intermediate->der()};
  request.batch = {{"a.example.com", a->der()},
                   {"wrong.example.com", b->der()},  // hostname mismatch
                   {"c.example.com", c->der()},
                   {"d.example.com", Bytes{0xde, 0xad}}};  // malformed leaf

  auto wire = client.call(request);
  ASSERT_TRUE(wire.ok()) << wire.error();
  const Response& response = wire.value();
  ASSERT_EQ(response.batch.size(), 4u);
  EXPECT_TRUE(response.batch[0].ok);
  EXPECT_EQ(response.batch[0].chain_len, 3u);
  EXPECT_FALSE(response.batch[1].ok);
  EXPECT_EQ(response.batch[1].kind, ErrorKind::kHostnameMismatch);
  EXPECT_TRUE(response.batch[2].ok);
  EXPECT_FALSE(response.batch[3].ok);
  EXPECT_EQ(response.batch[3].kind, ErrorKind::kMalformedRequest);
  // Top level: not all entries passed; kind mirrors the first failure;
  // counters sum over entries.
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.kind, ErrorKind::kHostnameMismatch);
  EXPECT_EQ(response.stats.chain_len, 6u);  // 3 + 0 + 3 + 0
  EXPECT_EQ(h.registry
                .counter("anchor_anchord_requests_total",
                         {{"verb", "verify-batch"}})
                .value(),
            1u);

  Request mirror = request;
  mirror.correlation_id = response.correlation_id;
  Response direct_response = direct.dispatch(mirror);
  EXPECT_EQ(encode_response(response).payload,
            encode_response(direct_response).payload)
      << "wire and direct batch responses diverge";
}

TEST(AnchordServer, EmptyBatchIsMalformed) {
  Harness h;
  AnchordClient client(h.client_end());
  Request request;
  request.verb = Verb::kVerifyBatch;
  request.usage = "TLS";
  auto response = client.call(request);
  ASSERT_TRUE(response.ok()) << response.error();
  EXPECT_FALSE(response.value().ok);
  EXPECT_EQ(response.value().kind, ErrorKind::kMalformedRequest);
}

// Batch and single-chain verbs pipelined on one session: responses match
// by correlation id regardless of claim order.
TEST(AnchordServer, BatchAndSingleVerbsInterleaveOnOneSession) {
  Harness h;
  AnchordClient client(h.client_end());

  CertPtr solo = h.pki.leaf("solo.example.com");
  CertPtr one = h.pki.leaf("one.example.com");
  CertPtr two = h.pki.leaf("two.example.com");
  auto id1 = client.send(h.pki.verify_request(solo, "solo.example.com"));
  ASSERT_TRUE(id1.ok());

  Request batch;
  batch.verb = Verb::kVerifyBatch;
  batch.usage = "TLS";
  batch.time = WirePki::kNow;
  batch.intermediates_der = {h.pki.intermediate->der()};
  batch.batch = {{"one.example.com", one->der()},
                 {"two.example.com", two->der()}};
  auto id2 = client.send(batch);
  ASSERT_TRUE(id2.ok());

  auto id3 = client.send(h.pki.verify_request(solo, "wrong.example.com"));
  ASSERT_TRUE(id3.ok());

  auto r3 = client.receive(id3.value());
  ASSERT_TRUE(r3.ok()) << r3.error();
  EXPECT_EQ(r3.value().kind, ErrorKind::kHostnameMismatch);
  auto r2 = client.receive(id2.value());
  ASSERT_TRUE(r2.ok()) << r2.error();
  EXPECT_TRUE(r2.value().ok);
  ASSERT_EQ(r2.value().batch.size(), 2u);
  EXPECT_TRUE(r2.value().batch[0].ok);
  EXPECT_TRUE(r2.value().batch[1].ok);
  auto r1 = client.receive(id1.value());
  ASSERT_TRUE(r1.ok()) << r1.error();
  EXPECT_TRUE(r1.value().ok);
}

// --- the feed-fetch verb --------------------------------------------------

TEST(AnchordWire, FeedFetchRequestAndResponseRoundTripThroughCodec) {
  Request request;
  request.correlation_id = 21;
  request.verb = Verb::kFeedFetch;
  request.feed_query.from_size = 7;
  request.feed_query.to_size = 12;
  request.feed_query.max_snapshots = 3;
  request.feed_query.max_bytes = 65536;
  request.feed_query.want_deltas = true;
  auto decoded = decode_request(encode_request(request));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), request);

  Response response;
  response.correlation_id = 21;
  response.verb = Verb::kFeedFetch;
  response.ok = true;
  response.feed.sth.tree_size = 12;
  response.feed.sth.root_hash.fill(0x5c);
  response.feed.sth.published_at = -7;  // i64 field must carry sign
  response.feed.sth.signature = Bytes{0x01, 0x02, 0x03};
  response.feed.consistency.resize(2);
  response.feed.consistency[0].fill(0xaa);
  response.feed.consistency[1].fill(0xbb);
  response.feed.inclusion.resize(1);
  response.feed.inclusion[0].fill(0xcc);
  rsf::Snapshot snap;
  snap.sequence = 12;
  snap.published_at = 1700000000;
  snap.annotation = "emergency distrust";
  snap.payload = "payload-bytes";
  snap.payload_hash = "abcd";
  snap.prev_hash = "ef01";
  snap.signature = Bytes{0x09};
  response.feed.snapshots = {snap, rsf::Snapshot{}};
  response.feed.deltas = {"delta-one", ""};
  auto round = decode_response(encode_response(response));
  ASSERT_TRUE(round.ok()) << round.error();
  EXPECT_EQ(round.value(), response);

  // Strictness: an undefined query flag bit must reject, not be ignored —
  // the byte is the LAST field of a kFeedFetch request.
  net::Message bad_flags = encode_request(request);
  bad_flags.payload.back() = 0x02;
  EXPECT_FALSE(decode_request(bad_flags).ok());

  // Truncated feed section and trailing bytes after it are both errors.
  net::Message truncated = encode_response(response);
  truncated.payload.pop_back();
  EXPECT_FALSE(decode_response(truncated).ok());
  net::Message trailing = encode_response(response);
  trailing.payload.push_back(0x00);
  EXPECT_FALSE(decode_response(trailing).ok());

  // The feed section exists only for the feed-fetch verb: a non-empty
  // feed on another verb must not perturb that verb's byte layout.
  Response other;
  other.verb = Verb::kMetrics;
  other.feed = response.feed;
  Response plain;
  plain.verb = Verb::kMetrics;
  EXPECT_EQ(encode_response(other).payload, encode_response(plain).payload);
}

// Second server sharing a Harness's service, with a publisher Feed wired
// to the feed-fetch verb.
struct FeedServerScope {
  VerbDispatcher::Backends backends;
  ConduitPair pair = socket_pair();
  AnchordServer server;
  std::thread serve;

  static VerbDispatcher::Backends with_feed(const Harness& h,
                                            const rsf::Feed& feed) {
    VerbDispatcher::Backends b = h.backends;
    b.feed_source = &feed;
    return b;
  }

  FeedServerScope(Harness& h, const rsf::Feed& feed)
      : backends(with_feed(h, feed)),
        server(backends, {}, h.registry),
        serve([this] { server.serve(*pair.second); }) {}

  ~FeedServerScope() {
    pair.first->close();
    serve.join();
  }

  Conduit& client_end() { return *pair.first; }
};

// Acceptance: a feed-fetch served over the wire is byte-identical to
// direct dispatch — tree head, proofs, snapshots, deltas and all.
TEST(AnchordServer, FeedFetchVerdictsMatchDirectDispatchByteForByte) {
  SimSig feed_sigs;
  rsf::Feed feed("nss", feed_sigs);
  Harness h;
  feed.publish(h.pki.store, 100, "r1");
  feed.publish(h.pki.store, 200, "r2");

  FeedServerScope scope(h, feed);
  AnchordClient client(scope.client_end());
  VerbDispatcher direct(scope.backends);

  Request request;
  request.verb = Verb::kFeedFetch;
  request.feed_query.from_size = 0;
  request.feed_query.want_deltas = true;
  auto wire = client.call(request);
  ASSERT_TRUE(wire.ok()) << wire.error();
  EXPECT_TRUE(wire.value().ok);
  EXPECT_EQ(wire.value().feed.sth.tree_size, 2u);
  EXPECT_EQ(wire.value().feed.snapshots.size(), 2u);
  EXPECT_EQ(wire.value().feed.deltas.size(), 2u);
  EXPECT_EQ(wire.value().stats.chain_len, 2u);

  Request mirror = request;
  mirror.correlation_id = wire.value().correlation_id;
  Response direct_response = direct.dispatch(mirror);
  EXPECT_EQ(encode_response(wire.value()).payload,
            encode_response(direct_response).payload)
      << "wire and direct feed-fetch responses diverge";

  // The at-head probe (tree head alone) must also match byte for byte.
  Request probe;
  probe.verb = Verb::kFeedFetch;
  probe.feed_query.from_size = 2;
  auto wire_probe = client.call(probe);
  ASSERT_TRUE(wire_probe.ok()) << wire_probe.error();
  EXPECT_TRUE(wire_probe.value().feed.snapshots.empty());
  Request probe_mirror = probe;
  probe_mirror.correlation_id = wire_probe.value().correlation_id;
  EXPECT_EQ(encode_response(wire_probe.value()).payload,
            encode_response(direct.dispatch(probe_mirror)).payload);

  // Counted under its own verb label.
  EXPECT_EQ(h.registry
                .counter("anchor_anchord_requests_total",
                         {{"verb", "feed-fetch"}})
                .value(),
            2u);
}

TEST(AnchordServer, FeedFetchWithoutFeedIsUnavailable) {
  Harness h;
  AnchordClient client(h.client_end());
  Request request;
  request.verb = Verb::kFeedFetch;
  auto response = client.call(request);
  ASSERT_TRUE(response.ok()) << response.error();
  EXPECT_FALSE(response.value().ok);
  EXPECT_EQ(response.value().kind, ErrorKind::kUnavailable);
}

TEST(AnchordServer, FeedFetchTornFramesByteByByte) {
  SimSig feed_sigs;
  rsf::Feed feed("nss", feed_sigs);
  Harness h;
  feed.publish(h.pki.store, 100, "r1");

  FeedServerScope scope(h, feed);
  AnchordClient client(scope.client_end());
  Request request;
  request.verb = Verb::kFeedFetch;
  request.correlation_id = 9;
  const Bytes frame = net::encode_frame(encode_request(request));
  for (std::uint8_t byte : frame) {
    ASSERT_TRUE(scope.client_end().write(BytesView(&byte, 1)));
  }
  auto response = client.receive(9);
  ASSERT_TRUE(response.ok()) << response.error();
  EXPECT_TRUE(response.value().ok);
  EXPECT_EQ(response.value().feed.sth.tree_size, 1u);
  EXPECT_EQ(response.value().feed.snapshots.size(), 1u);
}

// A single snapshot that cannot fit one wire frame must fail closed with
// an explicit kOverloaded — never emit an undecodable frame — and leave
// the session serving.
TEST(AnchordServer, OversizedFeedFetchFailsClosed) {
  SimSig feed_sigs;
  rsf::Feed feed("nss", feed_sigs);
  Harness h;
  // The annotation rides the snapshot onto the wire; 2 MiB of it exceeds
  // the 1 MiB frame cap no matter how small the store payload is.
  feed.publish(h.pki.store, 100, std::string(2 * net::kMaxFrameBytes, 'a'));

  FeedServerScope scope(h, feed);
  AnchordClient client(scope.client_end());
  Request request;
  request.verb = Verb::kFeedFetch;
  request.feed_query.from_size = 0;
  auto response = client.call(request);
  ASSERT_TRUE(response.ok()) << response.error();
  EXPECT_FALSE(response.value().ok);
  EXPECT_EQ(response.value().kind, ErrorKind::kOverloaded);
  EXPECT_NE(response.value().detail.find("frame budget"), std::string::npos);

  // The session survived: an at-head probe (tree head alone) still serves.
  Request probe;
  probe.verb = Verb::kFeedFetch;
  probe.feed_query.from_size = 1;
  auto alive = client.call(probe);
  ASSERT_TRUE(alive.ok()) << alive.error();
  EXPECT_TRUE(alive.value().ok);
  EXPECT_EQ(alive.value().feed.sth.tree_size, 1u);
}

// --- session robustness ---------------------------------------------------

TEST(AnchordServer, TornFramesByteByByte) {
  Harness h;
  AnchordClient client(h.client_end());

  CertPtr leaf = h.pki.leaf("torn.example.com");
  Request request = h.pki.verify_request(leaf, "torn.example.com");
  request.correlation_id = 1;
  const Bytes frame = net::encode_frame(encode_request(request));
  for (std::uint8_t byte : frame) {
    ASSERT_TRUE(h.client_end().write(BytesView(&byte, 1)));
  }
  auto response = client.receive(1);
  ASSERT_TRUE(response.ok()) << response.error();
  EXPECT_TRUE(response.value().ok);
  EXPECT_EQ(response.value().stats.chain_len, 3u);
}

TEST(AnchordServer, ResponsesInterleaveByCorrelationId) {
  AnchordConfig config;
  config.workers = 2;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> handlers_started{0};
  config.handler_gate = [&] {
    if (handlers_started.fetch_add(1) == 0) {
      // Hold the FIRST handler until the second one has answered, forcing
      // responses onto the wire out of submission order.
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait(lock, [&] { return gate_open; });
    }
  };
  Harness h(config);
  AnchordClient client(h.client_end());

  CertPtr first = h.pki.leaf("first.example.com");
  CertPtr second = h.pki.leaf("second.example.com");
  auto id1 = client.send(h.pki.verify_request(first, "first.example.com"));
  ASSERT_TRUE(id1.ok());
  // Ensure request 1's handler is the one the gate holds.
  while (handlers_started.load() == 0) std::this_thread::yield();
  auto id2 = client.send(h.pki.verify_request(second, "second.example.com"));
  ASSERT_TRUE(id2.ok());

  auto response2 = client.receive(id2.value());  // arrives while 1 is held
  ASSERT_TRUE(response2.ok()) << response2.error();
  EXPECT_TRUE(response2.value().ok);
  EXPECT_EQ(response2.value().correlation_id, id2.value());

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  auto response1 = client.receive(id1.value());
  ASSERT_TRUE(response1.ok()) << response1.error();
  EXPECT_TRUE(response1.value().ok);
  EXPECT_EQ(response1.value().correlation_id, id1.value());
}

TEST(AnchordServer, UnknownAndMalformedFramesAlertWithoutKillingSession) {
  Harness h;
  AnchordClient client(h.client_end());

  // Unknown frame type, credible length: alert + skip, session lives.
  Bytes unknown{99, 0x00, 0x00, 0x00, 0x02, 0xaa, 0xbb};
  ASSERT_TRUE(h.client_end().write(BytesView(unknown)));

  // A garbage kRequest payload: answered kMalformedRequest by peeked id.
  net::Message garbage;
  garbage.type = net::MsgType::kRequest;
  garbage.payload = Bytes{0, 0, 0, 0, 0, 0, 0, 42, 0xff};
  ASSERT_TRUE(h.client_end().write(BytesView(net::encode_frame(garbage))));
  auto malformed = client.receive(42);
  ASSERT_TRUE(malformed.ok()) << malformed.error();
  EXPECT_EQ(malformed.value().kind, ErrorKind::kMalformedRequest);

  // The session survived both: a real request still round-trips.
  CertPtr leaf = h.pki.leaf("alive.example.com");
  auto response = client.call(h.pki.verify_request(leaf, "alive.example.com"));
  ASSERT_TRUE(response.ok()) << response.error();
  EXPECT_TRUE(response.value().ok);

  EXPECT_GE(client.alerts(), 1u);
  EXPECT_EQ(h.registry.counter("anchor_anchord_alerts_total").value(), 1u);
  EXPECT_EQ(h.registry.counter("anchor_anchord_malformed_total").value(), 1u);
}

// Regression for the drain-buffer skip bug: a frame header declaring a
// length over the codec cap used to set skip_remaining = 5 + length from
// the untrusted header, silently swallowing up to ~4 GiB of valid frames
// that followed. The declared length is garbage by definition (the codec
// caps real frames at kMaxFrameBytes), so the session must alert and tear
// down instead of trusting it as a skip count.
TEST(AnchordServer, GarbageDeclaredLengthTearsSessionDown) {
  Harness h;
  AnchordClient client(h.client_end());

  // A healthy request first: the teardown below must be attributable to
  // the garbage header, not to a session that never worked.
  CertPtr leaf = h.pki.leaf("pre.example.com");
  auto first = client.call(h.pki.verify_request(leaf, "pre.example.com"));
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_TRUE(first.value().ok);

  // Header declares ~4 GiB; then a perfectly valid request follows. The
  // old skip logic would treat the valid frame's bytes as "payload" of the
  // garbage frame and discard them for hours of traffic.
  Bytes header{static_cast<std::uint8_t>(net::MsgType::kRequest),
               0xff, 0xff, 0xff, 0xff};
  ASSERT_TRUE(h.client_end().write(BytesView(header)));
  Bytes valid = net::encode_frame(
      encode_request(h.pki.verify_request(leaf, "pre.example.com")));
  (void)h.client_end().write(BytesView(valid));  // may race the close

  // Teardown is observable: the alert arrives, then end-of-stream (the
  // pre-fix server kept the session open, so the read below would report
  // an idle 0, never -1).
  Bytes drained;
  int n;
  while ((n = h.client_end().read_some(drained, 4096, 500)) > 0) {
  }
  EXPECT_EQ(n, -1) << "session was not torn down";
  auto alert = net::decode_frame(drained);
  ASSERT_TRUE(alert.ok()) << alert.error();
  ASSERT_TRUE(alert.value().complete);
  EXPECT_EQ(alert.value().message.type, net::MsgType::kAlert);

  // Nothing after the garbage header was executed.
  EXPECT_EQ(h.registry
                .counter("anchor_anchord_requests_total", {{"verb", "verify"}})
                .value(),
            1u);
  EXPECT_EQ(h.registry.counter("anchor_anchord_alerts_total").value(), 1u);
}

TEST(AnchordServer, OverloadFailsClosedWithExplicitResponse) {
  AnchordConfig config;
  config.workers = 2;
  config.max_in_flight = 1;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> handlers_started{0};
  config.handler_gate = [&] {
    handlers_started.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  Harness h(config);
  AnchordClient client(h.client_end());

  CertPtr leaf = h.pki.leaf("load.example.com");
  auto id1 = client.send(h.pki.verify_request(leaf, "load.example.com"));
  ASSERT_TRUE(id1.ok());
  while (handlers_started.load() == 0) std::this_thread::yield();

  // The bound is taken: the next request is rejected synchronously.
  auto id2 = client.send(h.pki.verify_request(leaf, "load.example.com"));
  ASSERT_TRUE(id2.ok());
  auto rejected = client.receive(id2.value());
  ASSERT_TRUE(rejected.ok()) << rejected.error();
  EXPECT_FALSE(rejected.value().ok);
  EXPECT_EQ(rejected.value().kind, ErrorKind::kOverloaded);
  EXPECT_EQ(h.registry.counter("anchor_anchord_overloads_total").value(), 1u);

  // The admitted request still completes once released — overload sheds
  // new load, it never cancels accepted work.
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  auto accepted = client.receive(id1.value());
  ASSERT_TRUE(accepted.ok()) << accepted.error();
  EXPECT_TRUE(accepted.value().ok);
}

TEST(AnchordServer, ExpiredDeadlineAnswersTimeoutWithoutVerifying) {
  AnchordConfig config;
  config.request_timeout_ms = 20;
  config.handler_gate = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  };
  Harness h(config);
  AnchordClient client(h.client_end());

  CertPtr leaf = h.pki.leaf("late.example.com");
  auto response = client.call(h.pki.verify_request(leaf, "late.example.com"));
  ASSERT_TRUE(response.ok()) << response.error();
  EXPECT_FALSE(response.value().ok);
  EXPECT_EQ(response.value().kind, ErrorKind::kTimeout);
  EXPECT_EQ(h.registry.counter("anchor_anchord_timeouts_total").value(), 1u);
  // The verifier never ran: no verify call was recorded by the service.
  EXPECT_EQ(h.service.stats().calls, 0u);
}

// The in-flight gauge must be exact, not last-writer-approximate: with N
// handlers held in flight it reads exactly N, and it returns to exactly 0
// at quiescence. The pre-fix set(load()) publication could interleave a
// stale re-read over a newer value and leave the gauge stuck non-zero
// forever (TSan runs this via the concurrency label).
TEST(AnchordServer, InFlightGaugeIsExactUnderConcurrentCompletions) {
  constexpr int kHeld = 4;
  AnchordConfig config;
  config.workers = kHeld;
  config.max_in_flight = 2 * kHeld;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> handlers_started{0};
  config.handler_gate = [&] {
    handlers_started.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  Harness h(config);
  AnchordClient client(h.client_end());
  metrics::Gauge& gauge = h.registry.gauge("anchor_anchord_in_flight");

  CertPtr leaf = h.pki.leaf("gauge.example.com");
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kHeld; ++i) {
    auto id = client.send(h.pki.verify_request(leaf, "gauge.example.com"));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  while (handlers_started.load() < kHeld) std::this_thread::yield();
  EXPECT_EQ(gauge.value(), kHeld);

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (std::uint64_t id : ids) {
    auto response = client.receive(id);
    ASSERT_TRUE(response.ok()) << response.error();
    EXPECT_TRUE(response.value().ok);
  }
  // Completions race each other; the gauge must still settle on exactly 0.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (gauge.value() != 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(gauge.value(), 0);
}

// --- the inline rule -------------------------------------------------------

// Polls `done` for up to five seconds; true once it holds.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// A handler gate that counts every pooled handler and, while closed, parks
// it until open(). A request answered inline never passes through it.
struct HoldingGate {
  std::mutex mu;
  std::condition_variable cv;
  bool closed = false;
  std::atomic<int> started{0};

  std::function<void()> fn() {
    return [this] {
      started.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !closed; });
    };
  }
  void close() {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = false;
    }
    cv.notify_all();
  }
  bool reached(int n) {
    return eventually([&] { return started.load() >= n; });
  }
};

std::uint64_t inline_total(Harness& h) {
  return h.registry.counter("anchor_anchord_inline_total").value();
}

// The same verify twice on an idle daemon: the first is cold and pooled,
// the second finds every certificate cached and is answered on the reactor.
// Neither the bytes on the wire nor the service's accounting can tell the
// two paths apart.
TEST(AnchordServer, RepeatVerifyOnIdleDaemonIsAnsweredInline) {
  Harness h;
  AnchordClient client(h.client_end());
  CertPtr leaf = h.pki.leaf("inline.example.com");
  const Request request = h.pki.verify_request(leaf, "inline.example.com");

  // Reference: a fresh service over the same store, dispatched directly.
  metrics::Registry ref_registry;
  VerifyService ref_service(h.pki.store, h.pki.sigs, {}, ref_registry);
  VerbDispatcher::Backends ref_backends = h.backends;
  ref_backends.service = &ref_service;
  ref_backends.registry = &ref_registry;
  VerbDispatcher direct(ref_backends);

  for (int i = 0; i < 2; ++i) {
    // The first response is written before its worker releases the
    // admission slot; the inline rule needs that slot back.
    ASSERT_TRUE(eventually([&] { return h.server->in_flight() == 0; }));
    auto wire = client.call(request);
    ASSERT_TRUE(wire.ok()) << wire.error();
    EXPECT_TRUE(wire.value().ok);
    Request mirror = request;
    mirror.correlation_id = wire.value().correlation_id;
    EXPECT_EQ(encode_response(wire.value()).payload,
              encode_response(direct.dispatch(mirror)).payload)
        << "wire and direct responses diverge for request " << i;
  }
  EXPECT_EQ(inline_total(h), 1u);
  EXPECT_EQ(h.registry
                .counter("anchor_anchord_requests_total", {{"verb", "verify"}})
                .value(),
            2u);
  EXPECT_EQ(h.registry.snapshot().at("anchor_anchord_serve_seconds_count"), 2);

  const chain::ServiceStats wire_stats = h.service.stats();
  const chain::ServiceStats ref_stats = ref_service.stats();
  EXPECT_EQ(wire_stats.cert_hits, ref_stats.cert_hits);
  EXPECT_EQ(wire_stats.cert_misses, ref_stats.cert_misses);
  EXPECT_EQ(wire_stats.calls, ref_stats.calls);

  metrics::Gauge& gauge = h.registry.gauge("anchor_anchord_in_flight");
  EXPECT_TRUE(eventually([&] { return gauge.value() == 0; }));
  EXPECT_EQ(gauge.value(), 0);
}

// evaluate-gccs follows the same inline rule as verify: on an idle daemon
// the cold call is pooled and the repeat is answered on the reactor, for
// an allowed and for a denied chain alike. The bytes and the service's
// accounting match direct dispatch either way.
TEST(AnchordServer, RepeatEvaluateGccsOnIdleDaemonIsAnsweredInline) {
  Harness h;
  h.service.mutate([&](rootstore::RootStore& store) {
    store.attach_gcc(core::Gcc::for_certificate(
                         "no-ev", *h.pki.root,
                         "valid(Chain, _) :- leaf(Chain, L), \\+ev(L).")
                         .take());
  });
  AnchordClient client(h.client_end());

  // Reference: a fresh service over the same (now GCC-carrying) store.
  metrics::Registry ref_registry;
  VerifyService ref_service(h.pki.store, h.pki.sigs, {}, ref_registry);
  VerbDispatcher::Backends ref_backends = h.backends;
  ref_backends.service = &ref_service;
  ref_backends.registry = &ref_registry;
  VerbDispatcher direct(ref_backends);

  for (const bool ev : {false, true}) {
    Request request;
    request.verb = Verb::kEvaluateGccs;
    request.usage = "TLS";
    request.leaf_der = h.pki.leaf("gccs.example.com", ev)->der();
    request.intermediates_der = {h.pki.intermediate->der(),
                                 h.pki.root->der()};
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(eventually([&] { return h.server->in_flight() == 0; }));
      auto wire = client.call(request);
      ASSERT_TRUE(wire.ok()) << wire.error();
      EXPECT_EQ(wire.value().ok, !ev);
      EXPECT_EQ(wire.value().kind,
                ev ? ErrorKind::kGccDenied : ErrorKind::kOk);
      Request mirror = request;
      mirror.correlation_id = wire.value().correlation_id;
      EXPECT_EQ(encode_response(wire.value()).payload,
                encode_response(direct.dispatch(mirror)).payload)
          << "wire and direct responses diverge (ev=" << ev << ", call " << i
          << ")";
    }
  }
  EXPECT_EQ(inline_total(h), 2u);
  EXPECT_EQ(h.registry
                .counter("anchor_anchord_requests_total",
                         {{"verb", "evaluate-gccs"}})
                .value(),
            4u);

  const chain::ServiceStats wire_stats = h.service.stats();
  const chain::ServiceStats ref_stats = ref_service.stats();
  EXPECT_EQ(wire_stats.cert_hits, ref_stats.cert_hits);
  EXPECT_EQ(wire_stats.cert_misses, ref_stats.cert_misses);
  EXPECT_EQ(wire_stats.verdict_hits, ref_stats.verdict_hits);
  EXPECT_EQ(wire_stats.verdict_misses, ref_stats.verdict_misses);
  EXPECT_EQ(wire_stats.calls, ref_stats.calls);
}

// The chain an evaluate-gccs caller sends is the reactor's work, so the
// inline rule takes it only up to the protocol depth verify is capped at;
// a longer one is pooled however warm.
TEST(AnchordServer, EvaluateGccsLongerThanProtocolLimitIsPooled) {
  Harness h;
  AnchordClient client(h.client_end());
  const Bytes leaf_der = h.pki.leaf("long.example.com")->der();
  std::uint64_t expected_inline = 0;
  for (const std::size_t chain_len : {kMaxRequestDepth, kMaxRequestDepth + 1}) {
    Request request;
    request.verb = Verb::kEvaluateGccs;
    request.usage = "TLS";
    request.leaf_der = leaf_der;
    request.intermediates_der.assign(chain_len - 1, h.pki.intermediate->der());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(eventually([&] { return h.server->in_flight() == 0; }));
      auto response = client.call(request);
      ASSERT_TRUE(response.ok()) << response.error();
      EXPECT_TRUE(response.value().ok);
    }
    if (chain_len <= kMaxRequestDepth) ++expected_inline;
    EXPECT_EQ(inline_total(h), expected_inline) << "chain of " << chain_len;
  }
}

// A request whose certificates are not cached goes to the pool (parsing
// never runs on the reactor) and meets the handler gate there; its misses
// are counted once, by the pooled validate.
TEST(AnchordServer, ColdVerifyIsPooledThroughTheGate) {
  std::atomic<int> gated{0};
  AnchordConfig config;
  config.handler_gate = [&] { gated.fetch_add(1); };
  Harness h(config);
  AnchordClient client(h.client_end());

  CertPtr leaf = h.pki.leaf("cold.example.com");
  auto response = client.call(h.pki.verify_request(leaf, "cold.example.com"));
  ASSERT_TRUE(response.ok()) << response.error();
  EXPECT_TRUE(response.value().ok);
  EXPECT_EQ(gated.load(), 1);
  EXPECT_EQ(inline_total(h), 0u);
  EXPECT_EQ(h.service.stats().cert_hits, 0u);
  EXPECT_EQ(h.service.stats().cert_misses, 2u);  // leaf + intermediate
}

// Two warm frames in one write are a pipelined burst: neither runs inline,
// so both can fan out to workers.
TEST(AnchordServer, TwoWarmFramesInOneWriteArePooled) {
  HoldingGate gate;
  AnchordConfig config;
  config.handler_gate = gate.fn();
  Harness h(config);
  AnchordClient client(h.client_end());

  CertPtr leaf = h.pki.leaf("burst.example.com");
  const Request request = h.pki.verify_request(leaf, "burst.example.com");
  auto warm = client.call(request);  // pooled: fills the cert cache
  ASSERT_TRUE(warm.ok()) << warm.error();
  ASSERT_TRUE(eventually([&] { return h.server->in_flight() == 0; }));

  gate.close();
  Request first = request;
  first.correlation_id = 101;
  Request second = request;
  second.correlation_id = 102;
  Bytes burst = net::encode_frame(encode_request(first));
  append(burst, BytesView(net::encode_frame(encode_request(second))));
  ASSERT_TRUE(h.client_end().write(BytesView(burst)));
  EXPECT_TRUE(gate.reached(3));  // the warm-up plus both frames
  gate.open();
  for (std::uint64_t id : {101u, 102u}) {
    auto response = client.receive(id);
    ASSERT_TRUE(response.ok()) << response.error();
    EXPECT_TRUE(response.value().ok);
  }
  EXPECT_EQ(inline_total(h), 0u);
}

// A warm request that arrives while another request is in flight is
// pooled: the daemon is busy, so the work goes where it can run in
// parallel.
TEST(AnchordServer, WarmVerifyWhileAnotherIsInFlightIsPooled) {
  HoldingGate gate;
  AnchordConfig config;
  config.handler_gate = gate.fn();
  Harness h(config);
  AnchordClient client(h.client_end());

  CertPtr warm_leaf = h.pki.leaf("warm.example.com");
  const Request warm = h.pki.verify_request(warm_leaf, "warm.example.com");
  auto first = client.call(warm);
  ASSERT_TRUE(first.ok()) << first.error();
  ASSERT_TRUE(eventually([&] { return h.server->in_flight() == 0; }));

  gate.close();
  CertPtr held_leaf = h.pki.leaf("held.example.com");
  auto held = client.send(h.pki.verify_request(held_leaf, "held.example.com"));
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(gate.reached(2));
  auto again = client.send(warm);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(gate.reached(3));  // the warm request met the gate
  gate.open();
  for (std::uint64_t id : {held.value(), again.value()}) {
    auto response = client.receive(id);
    ASSERT_TRUE(response.ok()) << response.error();
    EXPECT_TRUE(response.value().ok);
  }
  EXPECT_EQ(inline_total(h), 0u);
}

// A warm verify deeper than the protocol allows is malformed, and is not
// answered inline: the reactor only answers what do_verify would verify.
TEST(AnchordServer, VerifyDeeperThanProtocolLimitIsMalformed) {
  Harness h;
  AnchordClient client(h.client_end());
  CertPtr leaf = h.pki.leaf("deep.example.com");
  Request request = h.pki.verify_request(leaf, "deep.example.com");
  request.max_depth = kMaxRequestDepth;
  auto at_limit = client.call(request);
  ASSERT_TRUE(at_limit.ok()) << at_limit.error();
  EXPECT_TRUE(at_limit.value().ok);

  request.max_depth = kMaxRequestDepth + 1;
  ASSERT_TRUE(eventually([&] { return h.server->in_flight() == 0; }));
  auto deep = client.call(request);
  ASSERT_TRUE(deep.ok()) << deep.error();
  EXPECT_FALSE(deep.value().ok);
  EXPECT_EQ(deep.value().kind, ErrorKind::kMalformedRequest);
  EXPECT_NE(deep.value().detail.find("max_depth"), std::string::npos);
  EXPECT_EQ(inline_total(h), 0u);
  EXPECT_EQ(h.service.stats().calls, 1u);
}

TEST(AnchordServer, BatchDeeperThanProtocolLimitIsMalformed) {
  Harness h;
  AnchordClient client(h.client_end());
  Request request;
  request.verb = Verb::kVerifyBatch;
  request.usage = "TLS";
  request.time = WirePki::kNow;
  request.intermediates_der = {h.pki.intermediate->der()};
  request.batch = {{"a.example.com", h.pki.leaf("a.example.com")->der()}};
  request.max_depth = kMaxRequestDepth + 1;
  auto response = client.call(request);
  ASSERT_TRUE(response.ok()) << response.error();
  EXPECT_FALSE(response.value().ok);
  EXPECT_EQ(response.value().kind, ErrorKind::kMalformedRequest);
  EXPECT_TRUE(response.value().batch.empty());
  EXPECT_EQ(h.service.stats().calls, 0u);
}

// A cross-signed ladder with no root on top, twice: the cold request is
// pooled and the warm one is answered on the reactor. The search budget
// stops both, so each answer is a prompt rejection and neither stalls the
// reactor, and both truncations are counted.
TEST(AnchordServer, CrossSignLadderFailsClosedOnTheReactor) {
  Harness h;
  CrossSignLadder ladder = make_cross_sign_ladder(h.pki.sigs, 7, 6);
  AnchordClient client(h.client_end());
  Request request;
  request.verb = Verb::kVerify;
  request.usage = "TLS";
  request.time = CrossSignLadder::kNow;
  request.hostname = CrossSignLadder::kHost;
  request.leaf_der = ladder.leaf->der();
  for (const CertPtr& ca : ladder.cas) {
    request.intermediates_der.push_back(ca->der());
  }

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(eventually([&] { return h.server->in_flight() == 0; }));
    auto response = client.call(request);
    ASSERT_TRUE(response.ok()) << response.error();
    EXPECT_FALSE(response.value().ok);
    EXPECT_NE(response.value().kind, ErrorKind::kOk);
    EXPECT_NE(response.value().detail.find("path budget"), std::string::npos);
    EXPECT_EQ(inline_total(h), static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(h.registry.counter("anchor_verify_truncated_total").value(), 2u);
}

// --- transports and concurrency -------------------------------------------

TEST(AnchordServer, RoundTripOverSocketpair) {
  Harness h;  // the harness's own connection stays idle beside this one
  ConduitPair fds = socket_pair();
  std::thread serve([&] { h.server->serve(*fds.second); });
  {
    AnchordClient client(*fds.first);
    CertPtr leaf = h.pki.leaf("unix.example.com");
    auto response =
        client.call(h.pki.verify_request(leaf, "unix.example.com"));
    ASSERT_TRUE(response.ok()) << response.error();
    EXPECT_TRUE(response.value().ok);
    EXPECT_EQ(response.value().stats.chain_len, 3u);
  }
  fds.first->close();
  serve.join();
}

// The conduit's descriptors must not leak into a program the daemon's
// process execs.
TEST(AnchordConduit, SocketpairEndpointsAreCloseOnExec) {
  ConduitPair pair = socket_pair();
  for (const Conduit* end : {pair.first.get(), pair.second.get()}) {
    const int fd = end->readiness_fd();
    ASSERT_GE(fd, 0);
    const int flags = ::fcntl(fd, F_GETFD);
    ASSERT_GE(flags, 0);
    EXPECT_NE(flags & FD_CLOEXEC, 0) << "fd " << fd;
  }
}

// Forwards to another endpoint but hides its readiness fd, so the reactor
// has nothing to watch.
class NoReadinessConduit : public Conduit {
 public:
  explicit NoReadinessConduit(Conduit& inner) : inner_(inner) {}

  bool write(BytesView data) override { return inner_.write(data); }
  int read_some(Bytes& out, std::size_t max, int timeout_ms) override {
    return inner_.read_some(out, max, timeout_ms);
  }
  void close() override { inner_.close(); }
  int readiness_fd() const override { return -1; }
  int write_some(BytesView data) override { return inner_.write_some(data); }

 private:
  Conduit& inner_;
};

// Sessions are readiness-driven only: a conduit without a readiness fd is
// closed unserved, serve() returns at once, and the client sees
// end-of-stream instead of a hang. The refusal is counted, so an operator
// can tell it from a served connection.
TEST(AnchordServer, ConduitWithoutReadinessFdIsClosedUnserved) {
  Harness h;
  // A server of its own, so the harness's served session is not counted.
  metrics::Registry registry;
  AnchordServer server(h.backends, {}, registry);
  ConduitPair pair = socket_pair();
  NoReadinessConduit hidden(*pair.second);
  std::thread serve([&] { server.serve(hidden); });
  {
    AnchordClient client(*pair.first);
    CertPtr leaf = h.pki.leaf("noready.example.com");
    auto response =
        client.call(h.pki.verify_request(leaf, "noready.example.com"));
    EXPECT_FALSE(response.ok());
    Bytes rest;
    EXPECT_EQ(pair.first->read_some(rest, 64, 1000), -1);
  }
  pair.first->close();
  serve.join();
  EXPECT_EQ(server.in_flight(), 0u);
  EXPECT_EQ(registry
                .counter("anchor_anchord_connections_total",
                         {{"outcome", "refused"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .counter("anchor_anchord_connections_total",
                         {{"outcome", "served"}})
                .value(),
            0u);
}

// A frame trickled one byte per write over a real socket: every byte can
// land as its own readiness wakeup and the reactor must reassemble the
// frame across them.
TEST(AnchordServer, TornFramesAcrossWakeupsOverSocketpair) {
  Harness h;
  ConduitPair fds = socket_pair();
  std::thread serve([&] { h.server->serve(*fds.second); });
  {
    AnchordClient client(*fds.first);
    CertPtr leaf = h.pki.leaf("shred.example.com");
    Request request = h.pki.verify_request(leaf, "shred.example.com");
    request.correlation_id = 9;
    const Bytes frame = net::encode_frame(encode_request(request));
    for (std::uint8_t byte : frame) {
      ASSERT_TRUE(fds.first->write(BytesView(&byte, 1)));
    }
    auto response = client.receive(9);
    ASSERT_TRUE(response.ok()) << response.error();
    EXPECT_TRUE(response.value().ok);
    EXPECT_EQ(response.value().stats.chain_len, 3u);
  }
  fds.first->close();
  serve.join();
}

// A peer that pipelines hundreds of requests without reading a single
// response: the kernel socket buffer fills, write_some flow-controls, and
// every parked response must flush through writability events — without a
// worker or the reactor ever blocking on the slow reader.
TEST(AnchordServer, SlowReaderBackpressureFlushesOnWritability) {
  AnchordConfig config;
  config.workers = 2;
  config.max_in_flight = 512;
  Harness h(config);
  ConduitPair fds = socket_pair();
  std::thread serve([&] { h.server->serve(*fds.second); });
  {
    AnchordClient client(*fds.first, /*timeout_ms=*/30000);
    CertPtr leaf = h.pki.leaf("firehose.example.com");
    const Request request =
        h.pki.verify_request(leaf, "firehose.example.com");
    constexpr int kPipelined = 256;
    std::vector<std::uint64_t> ids;
    ids.reserve(kPipelined);
    for (int i = 0; i < kPipelined; ++i) {
      auto id = client.send(request);
      ASSERT_TRUE(id.ok()) << id.error();
      ids.push_back(id.value());
    }
    // Only now start reading; claim newest-first so the client buffers the
    // backlog too.
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
      auto response = client.receive(*it);
      ASSERT_TRUE(response.ok()) << response.error();
      EXPECT_TRUE(response.value().ok);
      EXPECT_EQ(response.value().correlation_id, *it);
    }
  }
  fds.first->close();
  serve.join();
  EXPECT_EQ(h.registry
                .counter("anchor_anchord_requests_total", {{"verb", "verify"}})
                .value(),
            256u);
}

// Many connections, each pipelining a mix of accepting and rejecting
// requests: every response must match its request's expected verdict (the
// TSan target for this suite).
TEST(AnchordServer, ConcurrentConnectionsWithPipelining) {
  AnchordConfig config;
  config.workers = 4;
  Harness h(config);

  constexpr int kConnections = 4;
  constexpr int kRequestsPerConnection = 12;
  CertPtr good = h.pki.leaf("good.example.com");
  CertPtr other = h.pki.leaf("bad.example.com");

  std::vector<std::thread> serve_threads;
  std::vector<ConduitPair> pairs;
  pairs.reserve(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    pairs.push_back(socket_pair());
    serve_threads.emplace_back(
        [&, c] { h.server->serve(*pairs[static_cast<std::size_t>(c)].second); });
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      AnchordClient client(*pairs[static_cast<std::size_t>(c)].first);
      std::vector<std::pair<std::uint64_t, bool>> expect;
      for (int i = 0; i < kRequestsPerConnection; ++i) {
        const bool accept = i % 2 == 0;
        Request request =
            h.pki.verify_request(accept ? good : other, "good.example.com");
        auto id = client.send(std::move(request));
        if (!id.ok()) {
          ++mismatches;
          continue;
        }
        expect.emplace_back(id.value(), accept);
      }
      // Claim in reverse submission order to exercise out-of-order match.
      for (auto it = expect.rbegin(); it != expect.rend(); ++it) {
        auto response = client.receive(it->first);
        if (!response.ok() || response.value().ok != it->second ||
            response.value().correlation_id != it->first) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kConnections; ++c) {
    pairs[static_cast<std::size_t>(c)].first->close();
  }
  for (auto& t : serve_threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(
      h.registry.counter("anchor_anchord_requests_total", {{"verb", "verify"}})
          .value(),
      static_cast<std::uint64_t>(kConnections) * kRequestsPerConnection);
}

// §3.1 option 2 under load: several sessions pipeline evaluate-gccs calls
// into one service at once, and each GCC verdict matches its chain.
TEST(AnchordServer, ConcurrentEvaluateGccsSessionsShareOneService) {
  AnchordConfig config;
  config.workers = 4;
  Harness h(config);
  h.service.mutate([&](rootstore::RootStore& store) {
    store.attach_gcc(core::Gcc::for_certificate(
                         "no-ev", *h.pki.root,
                         "valid(Chain, _) :- leaf(Chain, L), \\+ev(L).")
                         .take());
  });

  constexpr int kConnections = 4;
  constexpr int kRequestsPerConnection = 12;
  const Bytes plain_der = h.pki.leaf("plain.example.com")->der();
  const Bytes ev_der = h.pki.leaf("ev.example.com", /*ev=*/true)->der();

  std::vector<std::thread> serve_threads;
  std::vector<ConduitPair> pairs;
  pairs.reserve(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    pairs.push_back(socket_pair());
    serve_threads.emplace_back(
        [&, c] { h.server->serve(*pairs[static_cast<std::size_t>(c)].second); });
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      AnchordClient client(*pairs[static_cast<std::size_t>(c)].first);
      std::vector<std::pair<std::uint64_t, bool>> expect;
      for (int i = 0; i < kRequestsPerConnection; ++i) {
        const bool allow = (i + c) % 2 == 0;
        Request request;
        request.verb = Verb::kEvaluateGccs;
        request.usage = "TLS";
        request.leaf_der = allow ? plain_der : ev_der;
        request.intermediates_der = {h.pki.intermediate->der(),
                                     h.pki.root->der()};
        auto id = client.send(std::move(request));
        if (!id.ok()) {
          ++mismatches;
          continue;
        }
        expect.emplace_back(id.value(), allow);
      }
      for (const auto& [id, allow] : expect) {
        auto response = client.receive(id);
        if (!response.ok() || response.value().ok != allow ||
            response.value().kind !=
                (allow ? ErrorKind::kOk : ErrorKind::kGccDenied)) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kConnections; ++c) {
    pairs[static_cast<std::size_t>(c)].first->close();
  }
  for (auto& t : serve_threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(h.registry
                .counter("anchor_anchord_requests_total",
                         {{"verb", "evaluate-gccs"}})
                .value(),
            static_cast<std::uint64_t>(kConnections) * kRequestsPerConnection);
  EXPECT_EQ(h.service.stats().calls,
            static_cast<std::uint64_t>(kConnections) * kRequestsPerConnection);
}

}  // namespace
}  // namespace anchor::anchord
