#include "anchord/dispatch.hpp"

#include <algorithm>
#include <cassert>

namespace anchor::anchord {

namespace {

Response base_response(const Request& request) {
  Response response;
  response.correlation_id = request.correlation_id;
  response.verb = request.verb;
  return response;
}

Response fail(const Request& request, chain::ErrorKind kind,
              std::string detail) {
  Response response = base_response(request);
  response.ok = false;
  response.kind = kind;
  response.detail = std::move(detail);
  return response;
}

// Maps the request's usage token onto VerifyOptions, or returns false for
// a token neither verify verb accepts.
bool parse_usage(const Request& request, chain::VerifyOptions& options) {
  if (request.usage == chain::usage_name(chain::Usage::kTls)) {
    options.usage = chain::Usage::kTls;
    return true;
  }
  if (request.usage == chain::usage_name(chain::Usage::kSmime)) {
    options.usage = chain::Usage::kSmime;
    return true;
  }
  return false;
}

chain::VerifyOptions options_from(const Request& request) {
  chain::VerifyOptions options;
  options.time = request.time;
  options.hostname = request.hostname;
  options.max_depth = request.max_depth;
  options.require_ev = request.require_ev;
  options.check_signatures = request.check_signatures;
  options.run_gccs = request.run_gccs;
  return options;
}

}  // namespace

VerbDispatcher::VerbDispatcher(Backends backends)
    : backends_(backends) {
  assert(backends_.service != nullptr);
  if (backends_.registry == nullptr) {
    backends_.registry = &metrics::Registry::global();
  }
}

Response VerbDispatcher::dispatch(const Request& request,
                                  metrics::Registry* registry_override) {
  switch (request.verb) {
    case Verb::kVerify:
      return do_verify(request);
    case Verb::kEvaluateGccs:
      return do_evaluate_gccs(request);
    case Verb::kMetrics:
      return do_metrics(request, registry_override != nullptr
                                     ? *registry_override
                                     : *backends_.registry);
    case Verb::kFeedStatus:
      return do_feed_status(request);
    case Verb::kVerifyBatch:
      return do_verify_batch(request);
    case Verb::kFeedFetch:
      return do_feed_fetch(request);
  }
  return fail(request, chain::ErrorKind::kMalformedRequest, "unknown verb");
}

Response VerbDispatcher::do_verify(const Request& request) {
  if (request.leaf_der.empty()) {
    return fail(request, chain::ErrorKind::kMalformedRequest,
                "verify: empty leaf certificate");
  }
  chain::VerifyOptions options = options_from(request);
  if (!parse_usage(request, options)) {
    return fail(request, chain::ErrorKind::kMalformedRequest,
                "verify: unknown usage '" + request.usage + "'");
  }

  return verify_response(request,
                         backends_.service->validate(
                             request.leaf_der, request.intermediates_der,
                             options));
}

std::optional<Response> VerbDispatcher::dispatch_if_cached(
    const Request& request) {
  // Anything do_verify would reject goes through dispatch() for its
  // classified answer; only the verify proper is worth a cache probe.
  chain::VerifyOptions options = options_from(request);
  if (request.verb != Verb::kVerify || request.leaf_der.empty() ||
      !parse_usage(request, options)) {
    return std::nullopt;
  }
  std::optional<chain::VerifyResult> result =
      backends_.service->validate_if_cached(request.leaf_der,
                                            request.intermediates_der, options);
  if (!result) return std::nullopt;
  return verify_response(request, *result);
}

Response VerbDispatcher::verify_response(
    const Request& request, const chain::VerifyResult& result) const {
  Response response = base_response(request);
  response.ok = result.ok;
  response.kind = result.kind;
  response.detail = result.error;
  response.stats.chain_len = static_cast<std::uint32_t>(result.chain.size());
  response.stats.paths_explored = result.paths_explored;
  response.stats.gccs_evaluated = result.gcc_verdict.gccs_evaluated;
  response.stats.facts_encoded = result.gcc_verdict.facts_encoded;
  response.stats.epoch = backends_.service->epoch();
  response.chain_der.reserve(result.chain.size());
  for (const auto& cert : result.chain) {
    response.chain_der.push_back(cert->der());
  }
  return response;
}

Response VerbDispatcher::do_verify_batch(const Request& request) {
  if (request.batch.empty()) {
    return fail(request, chain::ErrorKind::kMalformedRequest,
                "verify-batch: empty batch");
  }
  chain::VerifyOptions options = options_from(request);
  if (!parse_usage(request, options)) {
    return fail(request, chain::ErrorKind::kMalformedRequest,
                "verify-batch: unknown usage '" + request.usage + "'");
  }

  std::vector<Bytes> leaf_ders;
  std::vector<std::string> hostnames;
  leaf_ders.reserve(request.batch.size());
  hostnames.reserve(request.batch.size());
  for (const BatchEntry& entry : request.batch) {
    leaf_ders.push_back(entry.leaf_der);
    hostnames.push_back(entry.hostname);
  }
  std::vector<chain::VerifyResult> results = backends_.service->validate_batch(
      leaf_ders, hostnames, request.intermediates_der, options);

  Response response = base_response(request);
  response.ok = true;
  response.stats.epoch = backends_.service->epoch();
  response.batch.reserve(results.size());
  for (const chain::VerifyResult& result : results) {
    BatchVerdict verdict;
    verdict.kind = result.kind;
    verdict.ok = result.ok;
    verdict.chain_len = static_cast<std::uint32_t>(result.chain.size());
    verdict.paths_explored = result.paths_explored;
    verdict.gccs_evaluated = result.gcc_verdict.gccs_evaluated;
    verdict.facts_encoded = result.gcc_verdict.facts_encoded;
    verdict.detail = result.error;
    response.batch.push_back(std::move(verdict));
    // Top-level view: counters sum over entries; ok only if every entry
    // passed; kind/detail report the first failing entry.
    response.stats.chain_len += response.batch.back().chain_len;
    response.stats.paths_explored += result.paths_explored;
    response.stats.gccs_evaluated += result.gcc_verdict.gccs_evaluated;
    response.stats.facts_encoded += result.gcc_verdict.facts_encoded;
    if (!result.ok && response.ok) {
      response.ok = false;
      response.kind = result.kind;
      response.detail = result.error;
    }
  }
  return response;
}

Response VerbDispatcher::do_evaluate_gccs(const Request& request) {
  // The wire carries the caller-built chain as leaf + intermediates; the
  // service wants one leaf-first span.
  if (request.leaf_der.empty()) {
    return fail(request, chain::ErrorKind::kMalformedRequest,
                "evaluate-gccs: empty leaf certificate");
  }
  std::vector<Bytes> chain_der;
  chain_der.reserve(1 + request.intermediates_der.size());
  chain_der.push_back(request.leaf_der);
  for (const Bytes& der : request.intermediates_der) {
    chain_der.push_back(der);
  }
  chain::VerifyService::GccsOutcome outcome =
      backends_.service->evaluate_gccs_detail(chain_der, request.usage);

  Response response = base_response(request);
  response.ok = outcome.allowed;
  response.kind = outcome.kind;
  response.detail = outcome.detail;
  response.stats.chain_len = static_cast<std::uint32_t>(chain_der.size());
  response.stats.gccs_evaluated = outcome.verdict.gccs_evaluated;
  response.stats.facts_encoded = outcome.verdict.facts_encoded;
  response.stats.epoch = backends_.service->epoch();
  return response;
}

Response VerbDispatcher::do_metrics(const Request& request,
                                    metrics::Registry& registry) {
  if (backends_.store != nullptr) {
    rootstore::export_store_metrics(*backends_.store, registry);
  }
  Response response = base_response(request);
  response.ok = true;
  response.detail = registry.expose();
  response.stats.epoch = backends_.service->epoch();
  return response;
}

Response VerbDispatcher::do_feed_fetch(const Request& request) {
  if (backends_.feed_source == nullptr) {
    return fail(request, chain::ErrorKind::kUnavailable,
                "feed-fetch: no feed attached to this daemon");
  }
  // Server-side serving bounds: however greedy the query, the response
  // must fit a single wire frame (net::kMaxFrameBytes). The snapshot byte
  // budget leaves ample headroom for tree head, proofs, deltas, and frame
  // headers; a poller whose range is clamped simply polls again from its
  // new pin. A single snapshot larger than the whole budget cannot be
  // paginated — fail closed rather than emit an undecodable frame.
  constexpr std::uint32_t kMaxSnapshotsPerResponse = 512;
  constexpr std::uint64_t kSnapshotByteBudget = net::kMaxFrameBytes / 2;
  rsf::FeedFetchQuery query = request.feed_query;
  query.max_snapshots = std::min(query.max_snapshots, kMaxSnapshotsPerResponse);
  query.max_bytes = query.max_bytes == 0
                        ? kSnapshotByteBudget
                        : std::min(query.max_bytes, kSnapshotByteBudget);
  auto fetched = backends_.feed_source->feed_fetch(query);
  if (!fetched) {
    return fail(request, chain::ErrorKind::kUnavailable,
                "feed-fetch: " + fetched.error());
  }
  rsf::FeedFetch feed = std::move(fetched).take();
  if (feed.wire_size(/*include_payloads=*/true) > net::kMaxFrameBytes - 1024) {
    return fail(request, chain::ErrorKind::kOverloaded,
                "feed-fetch: snapshot range exceeds the frame budget; fetch "
                "the oversized snapshot out of band");
  }
  Response response = base_response(request);
  response.ok = true;
  response.feed = std::move(feed);
  response.stats.chain_len =
      static_cast<std::uint32_t>(response.feed.snapshots.size());
  response.stats.epoch = backends_.service->epoch();
  return response;
}

Response VerbDispatcher::do_feed_status(const Request& request) {
  if (backends_.feed == nullptr) {
    return fail(request, chain::ErrorKind::kUnavailable,
                "feed-status: no RSF client attached to this daemon");
  }
  Response response = base_response(request);
  response.ok = true;
  response.detail = backends_.feed->feed_status().to_text();
  response.stats.epoch = backends_.service->epoch();
  return response;
}

}  // namespace anchor::anchord
