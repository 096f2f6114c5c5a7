// Verb execution for anchord. One dispatcher instance is the single
// place where a decoded wire Request turns into backend calls — the
// session server and anchorctl's client verbs both converge here, which
// is what makes "byte-identical verdicts between the wire path and the
// direct VerifyService path" a testable property instead of an
// aspiration.
#pragma once

#include <optional>
#include <string>

#include "anchord/wire.hpp"
#include "chain/service.hpp"
#include "rsf/client.hpp"
#include "util/metrics.hpp"

namespace anchor::anchord {

class VerbDispatcher {
 public:
  struct Backends {
    chain::VerifyService* service = nullptr;         // required
    // Refreshed into the registry before a kMetrics exposition so a scrape
    // always reflects the store currently being served. Optional. Any
    // StoreReader works — a live RootStore or an mmap-backed StoreView.
    const rootstore::StoreReader* store = nullptr;
    rsf::RsfClient* feed = nullptr;                  // kFeedStatus; optional
    // kFeedFetch: the feed this daemon publishes (or re-serves) to
    // downstream pollers. Optional; Feed is internally synchronized, so
    // concurrent dispatches and a concurrent publisher are safe.
    const rsf::Feed* feed_source = nullptr;
    metrics::Registry* registry = nullptr;           // default: global()
  };

  explicit VerbDispatcher(Backends backends);

  // Executes one request and always produces a response (errors are
  // classified into ErrorKind, never thrown). Thread-safe: the backends
  // are (VerifyService serves concurrent callers; the registry locks
  // registration).
  Response dispatch(const Request& request);

  // The dispatch() response for a well-formed kVerify or kEvaluateGccs
  // request whose certificates are all in the service's parsed-certificate
  // cache, without parsing anything (VerifyService::validate_if_cached,
  // evaluate_gccs_if_cached); nullopt for any other request, which the
  // caller must dispatch() instead. Same bytes, same service accounting,
  // as dispatch() would produce.
  std::optional<Response> dispatch_if_cached(const Request& request);

 private:
  Response do_verify(const Request& request);
  Response verify_response(const Request& request,
                           const chain::VerifyResult& result) const;
  Response do_batch(const Request& request);
  Response do_evaluate_gccs(const Request& request);
  Response gccs_response(
      const Request& request,
      const chain::VerifyService::GccsOutcome& outcome) const;
  Response do_metrics(const Request& request);
  Response do_feed_status(const Request& request);
  Response do_feed_fetch(const Request& request);

  Backends backends_;
};

}  // namespace anchor::anchord
