// Staleness simulation (experiment E7). Reproduces the *shape* of Ma et
// al.'s findings as cited by the paper — derivative root stores are months
// behind their primaries ("Amazon Linux exhibits an average staleness of
// more than four substantial versions", "Android is always several months
// behind") — and shows how an hourly-polling RSF client collapses both the
// staleness and the post-distrust vulnerability window.
//
// The simulated timeline: a primary operator makes routine releases at a
// fixed cadence and, at incident times, emergency releases that distrust a
// root. Derivatives consume the feed either as RSF polling clients or as
// manual mirrors with a lag distribution calibrated to the cited
// measurements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rsf/client.hpp"
#include "util/rng.hpp"

namespace anchor::rsf {

struct SimDerivativeSpec {
  std::string name;
  bool uses_rsf = false;
  std::int64_t rsf_poll_interval = 3600;  // 1 hour, per the paper
  // RSF clients may sync over a lossy / corrupting transport: when any
  // fault probability is set, the simulator wraps the feed in a
  // FaultyTransport seeded from the run's seed, and the client retries on
  // its RetryPolicy schedule. This is the fault-sweep axis of
  // bench_staleness (staleness vs loss rate, vs corruption rate).
  FaultProfile faults;
  RetryPolicy retry;
  // Manual mirrors import the upstream store periodically (a human runs the
  // update as part of a release cycle), not per upstream release: one
  // import every `manual_sync_period` +- jitter seconds.
  std::int64_t manual_sync_period = 150 * 86400;  // ~5 months
  std::int64_t manual_sync_jitter = 30 * 86400;
};

struct SimConfig {
  std::uint64_t seed = 42;
  std::int64_t start_time = 1609459200;       // 2021-01-01
  std::int64_t duration = 3 * 365 * 86400;    // three years
  std::int64_t release_interval = 42 * 86400; // ~6-week routine releases
  int num_roots = 40;
  int num_incidents = 6;                      // emergency distrust events
  std::vector<SimDerivativeSpec> derivatives;
  // Metric sink for the run: anchor_sim_* counters plus each RSF client's
  // anchor_rsf_* series labeled {feed=<derivative name>}. nullptr = the
  // process-wide registry (what bench_staleness snapshots).
  metrics::Registry* registry = nullptr;

  static SimConfig with_default_derivatives();
};

struct DistrustOutcome {
  std::int64_t primary_time = 0;  // emergency release instant
  Sha256::Digest root_hash{};
  // Per derivative (indexed as in SimConfig::derivatives): seconds from the
  // primary release until the derivative stopped trusting the root; -1 if
  // it never did within the simulation.
  std::vector<std::int64_t> windows;
};

struct DerivativeMetrics {
  std::string name;
  double avg_staleness_days = 0;       // mean (now - adopted release time)
  double avg_versions_behind = 0;      // mean (head seq - adopted seq)
  double max_staleness_days = 0;
  std::int64_t mean_vulnerability_window = -1;  // seconds, over incidents
  std::int64_t max_vulnerability_window = -1;
  // Distribution of the daily staleness samples (days). The median/tail
  // split matters because the mean hides the bimodal manual-mirror shape:
  // freshly synced most days, months behind right before a sync.
  double staleness_p50_days = 0;
  double staleness_p99_days = 0;
  // RSF clients only: failure-path accounting from ClientStats.
  std::uint64_t retries = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t delta_fallbacks = 0;
};

struct SimReport {
  std::vector<DerivativeMetrics> derivatives;
  std::vector<DistrustOutcome> incidents;
  std::uint64_t releases = 0;
};

SimReport run_staleness_simulation(const SimConfig& config);

// ---------------------------------------------------------------------------
// Fleet-scale feed distribution (experiment E17).
//
// Models one publisher fanning the Merkle-authenticated feed out to
// 10^4..10^6 polling clients and answers the two deployment questions the
// tree-head design is for: what does steady state cost the publisher
// (every no-change poll is a tree-head-only probe, O(1) bytes), and how
// fast does an emergency distrust reach the fleet (one consistency proof +
// one delta range per client, adopted only after the client's verify
// step).
//
// Clients are not instantiated as RsfClient objects — at 10^6 that would
// measure the simulator, not the protocol. Instead the per-poll byte costs
// are taken from real Feed::feed_fetch responses (the same objects the
// wire codec serializes) and each client is reduced to its poll schedule:
// phase uniform in one interval, then interval +- jitter per poll, with an
// independent forked RNG stream per client (stable under reordering and
// under fleet-size changes).
struct FleetConfig {
  std::uint64_t seed = 7;
  std::uint32_t num_clients = 10000;
  std::int64_t start_time = 1609459200;  // 2021-01-01
  std::int64_t poll_interval = 3600;
  double poll_jitter = 0.1;          // fraction of the interval, per poll
  // Seconds a client spends verifying the tree-head signature, the
  // consistency proof, and the snapshot run before the new store becomes
  // effective. Adoption — and therefore every staleness percentile — is
  // dated at fetch + verify, never at fetch (a client that has downloaded
  // but not yet verified an emergency distrust is still vulnerable).
  std::int64_t verify_latency = 2;
  // Steady-state window before the emergency release; sized in whole
  // intervals so the no-change egress is measured over a realistic run.
  std::int64_t lead_time = 86400;
  bool use_delta = true;             // delta transport vs full snapshots
};

struct FleetReport {
  std::uint32_t clients = 0;
  // Per-poll costs, measured from real feed_fetch responses.
  std::size_t no_change_poll_bytes = 0;   // signed tree head alone
  std::size_t emergency_poll_bytes = 0;   // STH + proofs + range (+ delta)
  // Publisher egress, summed over the fleet.
  std::uint64_t polls_no_change = 0;
  std::uint64_t bytes_no_change = 0;      // over the lead window
  std::uint64_t bytes_emergency = 0;      // the post-incident fetch wave
  // Seconds from the emergency publication to client adoption
  // (fetch instant + verify_latency).
  std::int64_t adoption_p50 = 0;
  std::int64_t adoption_p99 = 0;          // time to 99% fleet adoption
  std::int64_t adoption_max = 0;
};

FleetReport run_fleet_simulation(const FleetConfig& config);

}  // namespace anchor::rsf
