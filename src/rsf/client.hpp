// Feed consumers. Two models, matching the paper's comparison:
//
//  * RsfClient — the proposed mechanism: "a core RSF systemd service that
//    periodically (hourly) polls the primary RSF of their choice and
//    updates the root certificates exposed to applications" (§4). Every
//    fetched run is signature- and hash-chain-verified before application,
//    and the local (derivative) store is merged with the primary payload.
//
//    The client reaches the feed through a FeedTransport (transport.hpp)
//    that can fail: polls that error or fail verification are retried on
//    an exponential backoff with jitter; snapshots that repeatedly fail
//    verification are quarantined for a bounded interval so a poisoned
//    sequence number is not re-fetched every poll; and a three-state
//    health machine (healthy / degraded / stale) reports how far behind
//    the exposed store may be. Under every fault the client keeps serving
//    the last verified store — faults cost freshness, never safety.
//
//  * ManualMirrorClient — today's practice: a human periodically imports
//    the primary store into the distribution with months of lag (Ma et
//    al.'s measurements, cited in §§1, 4). It only ever applies full
//    snapshots, with no partial-distrust carriage when `strip_gccs` models
//    a legacy /etc/ssl/certs-style consumer.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "rsf/feed.hpp"
#include "rsf/merge.hpp"
#include "rsf/transport.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace anchor::rsf {

// Fires after a client adopts a new exposed store — epoch already advanced
// past the predecessor's. This is where serving infrastructure reacts to a
// feed update: anchord publishes a fresh mmap snapshot and swaps its
// VerifyService onto it (rootstore/snapshot), so the O(1)-warm-start image
// on disk tracks the feed instead of going stale at daemon start.
using AdoptionHook = std::function<void(const rootstore::RootStore&)>;

struct ClientStats {
  std::uint64_t polls = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t verify_failures = 0;  // signature / hash-chain rejections
  std::uint64_t parse_failures = 0;   // signed payload that won't deserialize
  std::uint64_t merge_conflicts = 0;
  std::uint64_t deltas_applied = 0;   // only deltas in the adopted replica
  std::uint64_t delta_fallbacks = 0;  // delta replay mismatched; used snapshot
  std::uint64_t bytes_fetched = 0;    // tree heads, proofs, headers, bodies
  std::uint64_t bytes_discarded = 0;  // fetched but thrown away (failed runs)
  std::uint64_t retries = 0;          // backoff-scheduled re-polls
  std::uint64_t quarantine_skips = 0; // polls skipped on a quarantined head
  std::uint64_t proof_failures = 0;   // Merkle consistency/inclusion rejects
  std::uint64_t verified_no_change = 0;  // polls settled by tree head alone
  std::size_t quarantine_size = 0;    // currently quarantined sequences
  std::int64_t seconds_stale = 0;     // now - last verified feed contact
  std::array<std::uint64_t, kTransportErrorKindCount> transport_errors{};

  std::uint64_t transport_error(TransportErrorKind kind) const {
    return transport_errors[static_cast<std::size_t>(kind)];
  }
  std::uint64_t transport_errors_total() const {
    std::uint64_t total = 0;
    for (std::uint64_t n : transport_errors) total += n;
    return total;
  }
};

// How the client moves store state over the wire. Either way the signed,
// hash-chained snapshot is the root of trust: kDelta replays edit scripts
// and then *verifies the replica against the snapshot's payload hash*,
// falling back to the full snapshot on any mismatch.
enum class Transport { kFullSnapshot, kDelta };

// Retry / quarantine / staleness knobs. All times in seconds (SimClock
// domain — the client is driven entirely by the `now` its caller passes).
struct RetryPolicy {
  std::int64_t base_backoff = 60;          // first retry delay
  double multiplier = 2.0;                 // exponential growth per failure
  std::int64_t max_backoff = 3600;         // backoff ceiling
  double jitter = 0.2;                     // ± fraction applied to backoff
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ULL;
  int quarantine_threshold = 3;            // verify failures before quarantine
  std::int64_t quarantine_duration = 6 * 3600;
  std::size_t quarantine_capacity = 8;     // bounded; oldest entry evicted
  std::int64_t stale_after = 24 * 3600;    // degraded -> stale threshold
};

// kHealthy: the last poll reached the feed and verified. kDegraded: polls
// are failing (or the head is quarantined) but the last good contact is
// recent; the last verified store keeps being served. kStale: no verified
// contact for at least `RetryPolicy::stale_after` — consumers may want to
// alarm, the exposed store is of unknown freshness.
enum class ClientHealth { kHealthy, kDegraded, kStale };

const char* to_string(ClientHealth health);

// Point-in-time liveness summary, the payload of anchord's FeedStatus verb
// and `anchorctl feed-status`: what a probe needs to decide "is the store
// this machine serves fresh", without the full ClientStats dump.
struct FeedStatus {
  ClientHealth health = ClientHealth::kHealthy;
  std::uint64_t last_applied_sequence = 0;
  std::int64_t last_update_time = -1;  // -1: no update applied yet
  std::int64_t next_poll_time = 0;
  std::int64_t seconds_stale = 0;
  std::uint64_t polls = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t verify_failures = 0;
  std::size_t quarantine_size = 0;

  // Stable single-line key=value rendering (the wire detail field).
  std::string to_text() const;
};

class RsfClient {
 public:
  // `poll_interval` in seconds (the paper suggests hourly). This overload
  // wires a perfect in-process DirectTransport to `feed`.
  RsfClient(const Feed& feed, std::int64_t poll_interval,
            MergePolicy policy = MergePolicy::kPrimaryWins,
            Transport transport = Transport::kFullSnapshot,
            RetryPolicy retry = RetryPolicy{});

  // Consume an arbitrary transport (e.g. a FaultyTransport decorator).
  // `transport` must outlive the client.
  RsfClient(FeedTransport& transport, std::int64_t poll_interval,
            MergePolicy policy = MergePolicy::kPrimaryWins,
            Transport mode = Transport::kFullSnapshot,
            RetryPolicy retry = RetryPolicy{});

  // Local augmentations (imported roots, site GCCs) merged atop every
  // primary snapshot.
  void set_local_store(rootstore::RootStore local);

  // Invoked with the freshly adopted store at the end of every successful
  // update poll (after the epoch guard). At most one hook; empty clears.
  void set_adoption_hook(AdoptionHook hook) {
    adoption_hook_ = std::move(hook);
  }

  // (Re)binds the client's metric series to `registry`, labeled
  // {feed="<instance>"}. Construction binds to the global registry with the
  // transport name; tests and the simulator rebind for isolation or to
  // disambiguate multiple derivatives of the same feed. Counters publish as
  // deltas of ClientStats at each poll exit, so rebinding mid-life never
  // double-counts.
  void bind_metrics(metrics::Registry& registry, const std::string& instance);

  // Advances to `now`, issuing at most one catch-up poll: the next poll is
  // re-anchored relative to `now` (interval on success, backoff on
  // failure), so a client woken after a long offline gap does not replay
  // thousands of missed polls. Returns the number of snapshots applied.
  std::size_t run_until(std::int64_t now);

  // Single poll at time `now` regardless of schedule (for tests). Also
  // re-anchors the poll schedule at `now`. One feed-fetch exchange: signed
  // tree head + consistency proof + snapshot range (plus inline deltas in
  // kDelta mode), all verified before anything is adopted.
  std::size_t poll_now(std::int64_t now);

  const rootstore::RootStore& store() const { return store_; }
  std::uint64_t last_applied_sequence() const { return last_sequence_; }
  // The Merkle root pinned at the last adoption.
  const ctlog::Hash& pinned_tree_root() const { return pinned_root_; }
  std::int64_t last_update_time() const { return last_update_time_; }
  std::int64_t next_poll_time() const { return next_poll_; }
  ClientHealth health() const { return health_; }
  const ClientStats& stats() const { return stats_; }
  FeedStatus feed_status() const;

 private:
  enum class PollOutcome { kSuccess, kFailure, kSkip };

  std::size_t finish_poll(PollOutcome outcome, std::int64_t now,
                          std::size_t applied);
  // Replays/adopts an already signature-, chain- and proof-verified run.
  // In kDelta mode `deltas` are the response's inline deltas, aligned with
  // `run` by index; kFullSnapshot ignores them.
  std::size_t adopt_verified_run(const std::vector<Snapshot>& run,
                                 const std::vector<std::string>& deltas,
                                 std::int64_t now);
  void publish_metrics(PollOutcome outcome);
  std::size_t fail_poll(TransportErrorKind kind, std::uint64_t sequence,
                        std::int64_t now);
  void note_verify_failure(std::uint64_t sequence, std::int64_t now);
  void prune_quarantine(std::int64_t now);
  bool is_quarantined(std::uint64_t sequence, std::int64_t now) const;
  std::int64_t next_backoff();

  std::unique_ptr<FeedTransport> owned_transport_;  // Feed& overload only
  FeedTransport* transport_;
  std::int64_t poll_interval_;
  MergePolicy policy_;
  RetryPolicy retry_;
  Rng jitter_rng_;
  std::int64_t next_poll_ = 0;
  std::uint64_t last_sequence_ = 0;
  std::string last_hash_;
  ctlog::Hash pinned_root_{};        // tree root at last_sequence_
  std::int64_t last_update_time_ = -1;
  std::int64_t last_contact_ = -1;   // last verified feed contact
  std::int64_t first_poll_ = -1;     // staleness baseline before any contact
  int backoff_exp_ = 0;              // consecutive-failure exponent
  ClientHealth health_ = ClientHealth::kHealthy;
  std::map<std::uint64_t, int> fail_counts_;          // per-head failures
  std::map<std::uint64_t, std::int64_t> quarantine_;  // sequence -> until
  Transport mode_ = Transport::kFullSnapshot;
  rootstore::RootStore primary_replica_;  // the primary state, pre-merge
  rootstore::RootStore store_;
  std::optional<rootstore::RootStore> local_;
  AdoptionHook adoption_hook_;
  SimSig verifier_registry_;  // holds the feed key for verification
  ClientStats stats_;

  // Registry series (stable addresses for the registry's lifetime; see
  // bind_metrics). Counters are published as deltas of `stats_` against
  // `exported_` at every poll exit, so every ClientStats-counted event
  // reaches the registry exactly once no matter which path counted it.
  struct BoundMetrics {
    metrics::Counter* poll_success = nullptr;
    metrics::Counter* poll_failure = nullptr;
    metrics::Counter* poll_skip = nullptr;
    metrics::Counter* updates_applied = nullptr;
    metrics::Counter* deltas_applied = nullptr;
    metrics::Counter* delta_fallbacks = nullptr;
    metrics::Counter* verify_failures = nullptr;
    metrics::Counter* parse_failures = nullptr;
    metrics::Counter* merge_conflicts = nullptr;
    metrics::Counter* retries = nullptr;
    metrics::Counter* quarantine_skips = nullptr;
    metrics::Counter* proof_failures = nullptr;
    metrics::Counter* verified_no_change = nullptr;
    metrics::Counter* bytes_fetched = nullptr;
    metrics::Counter* bytes_discarded = nullptr;
    metrics::Counter* transport_errors = nullptr;
    metrics::Gauge* seconds_stale = nullptr;
    metrics::Gauge* quarantine_size = nullptr;
    metrics::Gauge* backoff_exponent = nullptr;
    metrics::Gauge* health = nullptr;
    metrics::Gauge* last_sequence = nullptr;
  };
  BoundMetrics m_;
  ClientStats exported_;  // high-water marks already published
};

class ManualMirrorClient {
 public:
  // `strip_gccs`: model a derivative that can only ship bare certificate
  // collections (the paper's imprecision problem).
  ManualMirrorClient(const Feed& feed, bool strip_gccs);

  // A human performs an import at time `now`: adopts the latest snapshot.
  void manual_sync(std::int64_t now);

  // Same contract as RsfClient::set_adoption_hook.
  void set_adoption_hook(AdoptionHook hook) {
    adoption_hook_ = std::move(hook);
  }

  const rootstore::RootStore& store() const { return store_; }
  std::uint64_t mirrored_sequence() const { return mirrored_sequence_; }
  std::int64_t last_sync_time() const { return last_sync_time_; }

 private:
  const Feed& feed_;
  bool strip_gccs_;
  std::uint64_t mirrored_sequence_ = 0;
  std::int64_t last_sync_time_ = -1;
  rootstore::RootStore store_;
  AdoptionHook adoption_hook_;
};

}  // namespace anchor::rsf
