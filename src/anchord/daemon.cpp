#include "anchord/daemon.hpp"

#include <cassert>
#include <chrono>

namespace anchor::anchord {

namespace {

Response base_response(const Request& request) {
  Response response;
  response.correlation_id = request.correlation_id;
  response.verb = request.verb;
  return response;
}

// Rebuilds the caller-facing VerifyResult from what crossed the wire. The
// accepted path is re-parsed from DER; rejected-path diagnostics and the
// GCC stats breakdown stay daemon-side by design.
chain::VerifyResult to_verify_result(const Response& response) {
  chain::VerifyResult result;
  result.ok = response.ok;
  result.kind = response.kind;
  result.error = response.detail;
  result.paths_explored = response.stats.paths_explored;
  result.gcc_verdict.gccs_evaluated = response.stats.gccs_evaluated;
  result.gcc_verdict.facts_encoded = response.stats.facts_encoded;
  result.gcc_verdict.allowed =
      response.kind != chain::ErrorKind::kGccDenied;
  if (response.kind == chain::ErrorKind::kGccDenied &&
      response.detail.rfind("gcc:", 0) == 0) {
    result.gcc_verdict.failed_gcc = response.detail.substr(4);
  }
  result.chain.reserve(response.chain_der.size());
  for (const Bytes& der : response.chain_der) {
    auto cert = x509::Certificate::parse(BytesView(der));
    if (cert) result.chain.push_back(std::move(cert).take());
  }
  return result;
}

}  // namespace

TrustDaemon::TrustDaemon(TrustDaemonConfig config) : config_(config) {
  assert(config_.store != nullptr && config_.scheme != nullptr);
  if (config_.service != nullptr) {
    VerbDispatcher::Backends backends;
    backends.service = config_.service;
    backends.store = config_.store;
    backends.feed = config_.feed;
    backends.feed_source = config_.feed_source;
    dispatcher_.emplace(backends);
  }
}

void TrustDaemon::simulate_ipc_latency() const {
  if (config_.latency_ns == 0) return;
  auto start = std::chrono::steady_clock::now();
  auto target = std::chrono::nanoseconds(config_.latency_ns);
  while (std::chrono::steady_clock::now() - start < target) {
    // Spin: models a synchronous kernel round trip without descheduling
    // noise that would make the E9 sweep unstable.
  }
}

Result<Request> TrustDaemon::marshal_request(const Request& request) const {
  Bytes frame = net::encode_frame(encode_request(request));
  if (frame.size() > 5 + config_.max_frame_bytes) {
    return err("anchord: request frame (" + std::to_string(frame.size()) +
               " bytes) exceeds the " +
               std::to_string(config_.max_frame_bytes) + "-byte cap");
  }
  auto decoded = net::decode_frame(frame);
  if (!decoded) return err(decoded.error());
  if (!decoded.value().complete) {
    return err("anchord: request frame failed to round-trip");
  }
  return decode_request(decoded.value().message);
}

Result<Response> TrustDaemon::marshal_response(const Response& response) const {
  Bytes frame = net::encode_frame(encode_response(response));
  if (frame.size() > 5 + config_.max_frame_bytes) {
    return err("anchord: response frame (" + std::to_string(frame.size()) +
               " bytes) exceeds the " +
               std::to_string(config_.max_frame_bytes) + "-byte cap");
  }
  auto decoded = net::decode_frame(frame);
  if (!decoded) return err(decoded.error());
  if (!decoded.value().complete) {
    return err("anchord: response frame failed to round-trip");
  }
  return decode_response(decoded.value().message);
}

Response TrustDaemon::roundtrip(const Request& request,
                                metrics::Registry* registry) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  simulate_ipc_latency();  // request leg

  Response response;
  auto wire_request = marshal_request(request);
  if (!wire_request) {
    response = base_response(request);
    response.kind = chain::ErrorKind::kMalformedRequest;
    response.detail = wire_request.error();
  } else {
    response = execute(wire_request.value(), registry);
  }

  auto wire_response = marshal_response(response);
  simulate_ipc_latency();  // response leg
  if (!wire_response) {
    // The verdict could not be carried back across the wire: fail closed
    // rather than hand the caller a response the transport would not have
    // delivered.
    Response failure = base_response(request);
    failure.kind = chain::ErrorKind::kInternal;
    failure.detail = wire_response.error();
    return failure;
  }
  return std::move(wire_response).take();
}

Response TrustDaemon::execute(const Request& request,
                              metrics::Registry* registry) {
  if (dispatcher_.has_value()) return dispatcher_->dispatch(request, registry);
  return execute_fallback(request, registry);
}

Response TrustDaemon::execute_fallback(const Request& request,
                                       metrics::Registry* registry) {
  Response response = base_response(request);
  switch (request.verb) {
    case Verb::kVerify: {
      chain::VerifyOptions options;
      if (request.usage == chain::usage_name(chain::Usage::kTls)) {
        options.usage = chain::Usage::kTls;
      } else if (request.usage == chain::usage_name(chain::Usage::kSmime)) {
        options.usage = chain::Usage::kSmime;
      } else {
        response.kind = chain::ErrorKind::kMalformedRequest;
        response.detail = "verify: unknown usage '" + request.usage + "'";
        return response;
      }
      options.time = request.time;
      options.hostname = request.hostname;
      options.max_depth = request.max_depth;
      options.require_ev = request.require_ev;
      options.check_signatures = request.check_signatures;
      options.run_gccs = request.run_gccs;

      // Deserialize fresh: the uncached daemon's marshaling cost is the
      // point of this mode.
      auto leaf = x509::Certificate::parse(BytesView(request.leaf_der));
      if (!leaf) {
        response.kind = chain::ErrorKind::kMalformedRequest;
        response.detail = "daemon: " + leaf.error();
        return response;
      }
      chain::CertificatePool pool;
      for (const Bytes& der : request.intermediates_der) {
        auto cert = x509::Certificate::parse(BytesView(der));
        if (!cert) {
          response.kind = chain::ErrorKind::kMalformedRequest;
          response.detail = "daemon: " + cert.error();
          return response;
        }
        pool.add(std::move(cert).take());
      }
      chain::ChainVerifier verifier(*config_.store, *config_.scheme);
      chain::VerifyResult result = verifier.verify(leaf.value(), pool, options);
      response.ok = result.ok;
      response.kind = result.kind;
      response.detail = result.error;
      response.stats.chain_len =
          static_cast<std::uint32_t>(result.chain.size());
      response.stats.paths_explored = result.paths_explored;
      response.stats.gccs_evaluated = result.gcc_verdict.gccs_evaluated;
      response.stats.facts_encoded = result.gcc_verdict.facts_encoded;
      response.stats.epoch = config_.store->epoch();
      response.chain_der.reserve(result.chain.size());
      for (const auto& cert : result.chain) {
        response.chain_der.push_back(cert->der());
      }
      return response;
    }
    case Verb::kEvaluateGccs: {
      core::Chain chain;
      chain.reserve(1 + request.intermediates_der.size());
      auto push = [&](const Bytes& der) {
        auto cert = x509::Certificate::parse(BytesView(der));
        if (!cert) {
          response.kind = chain::ErrorKind::kMalformedRequest;
          response.detail = cert.error();
          return false;
        }
        chain.push_back(std::move(cert).take());
        return true;
      };
      if (!push(request.leaf_der)) return response;
      for (const Bytes& der : request.intermediates_der) {
        if (!push(der)) return response;
      }
      response.stats.chain_len = static_cast<std::uint32_t>(chain.size());
      response.stats.epoch = config_.store->epoch();
      const auto gccs =
          config_.store->gccs_for_root(chain.back()->fingerprint());
      response.ok = true;
      if (!gccs.empty()) {
        core::GccVerdict verdict =
            executor_.evaluate(chain, request.usage, gccs);
        response.stats.gccs_evaluated = verdict.gccs_evaluated;
        response.stats.facts_encoded = verdict.facts_encoded;
        if (!verdict.allowed) {
          response.ok = false;
          response.kind = chain::ErrorKind::kGccDenied;
          response.detail = "gcc:" + verdict.failed_gcc;
        }
      }
      return response;
    }
    case Verb::kMetrics: {
      metrics::Registry& target =
          registry != nullptr ? *registry : metrics::Registry::global();
      rootstore::export_store_metrics(*config_.store, target);
      response.ok = true;
      response.detail = target.expose();
      response.stats.epoch = config_.store->epoch();
      return response;
    }
    case Verb::kFeedStatus: {
      if (config_.feed == nullptr) {
        response.kind = chain::ErrorKind::kUnavailable;
        response.detail = "feed-status: no RSF client attached to this daemon";
        return response;
      }
      response.ok = true;
      response.detail = config_.feed->feed_status().to_text();
      response.stats.epoch = config_.store->epoch();
      return response;
    }
    case Verb::kVerifyBatch: {
      // The fallback path exists for daemons wired without a VerifyService;
      // batch verification leans on the service's shared-arena path, so
      // without one the verb is simply not served.
      response.kind = chain::ErrorKind::kUnavailable;
      response.detail = "verify-batch: requires an attached VerifyService";
      return response;
    }
    case Verb::kFeedFetch: {
      response.kind = chain::ErrorKind::kUnavailable;
      response.detail = "feed-fetch: requires an attached VerifyService";
      return response;
    }
  }
  response.kind = chain::ErrorKind::kMalformedRequest;
  response.detail = "unknown verb";
  return response;
}

bool TrustDaemon::evaluate_gccs(std::span<const Bytes> chain_der,
                                std::string_view usage) {
  Request request;
  request.correlation_id = 1;
  request.verb = Verb::kEvaluateGccs;
  request.usage = std::string(usage);
  if (!chain_der.empty()) {
    request.leaf_der = chain_der.front();
    request.intermediates_der.assign(chain_der.begin() + 1, chain_der.end());
  }
  return roundtrip(request).ok;
}

chain::VerifyResult TrustDaemon::validate(
    const Bytes& leaf_der, std::span<const Bytes> intermediates_der,
    const chain::VerifyOptions& options) {
  Request request;
  request.correlation_id = 1;
  request.verb = Verb::kVerify;
  request.usage = chain::usage_name(options.usage);
  request.time = options.time;
  request.hostname = options.hostname;
  request.max_depth = static_cast<std::uint32_t>(options.max_depth);
  request.require_ev = options.require_ev;
  request.check_signatures = options.check_signatures;
  request.run_gccs = options.run_gccs;
  request.leaf_der = leaf_der;
  request.intermediates_der.assign(intermediates_der.begin(),
                                   intermediates_der.end());
  return to_verify_result(roundtrip(request));
}

std::string TrustDaemon::metrics(metrics::Registry& registry) {
  Request request;
  request.correlation_id = 1;
  request.verb = Verb::kMetrics;
  return roundtrip(request, &registry).detail;
}

Response TrustDaemon::feed_status() {
  Request request;
  request.correlation_id = 1;
  request.verb = Verb::kFeedStatus;
  return roundtrip(request);
}

}  // namespace anchor::anchord
