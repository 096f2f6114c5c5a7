#include "rsf/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "x509/builder.hpp"

namespace anchor::rsf {

namespace {

// Self-signed root population for the simulated primary store.
std::vector<x509::CertPtr> make_roots(int count, std::int64_t start_time) {
  std::vector<x509::CertPtr> roots;
  roots.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::string name = "Sim Root CA " + std::to_string(i);
    SimKeyPair key = SimSig::keygen(name);
    auto cert = x509::CertificateBuilder()
                    .serial(static_cast<std::uint64_t>(i) + 1)
                    .subject(x509::DistinguishedName::make(name, "Sim Org"))
                    .issuer(x509::DistinguishedName::make(name, "Sim Org"))
                    .validity(start_time - 86400,
                              start_time + 30LL * 365 * 86400)
                    .public_key(key.key_id)
                    .ca(std::nullopt)
                    .sign(key);
    roots.push_back(std::move(cert).take());
  }
  return roots;
}

struct Release {
  std::int64_t time;
  bool is_incident;
  int incident_index;  // into incidents when is_incident
};

// Percentile over an unsorted sample set (nearest-rank on the sorted
// order, index rounded up so small fixtures resolve to the later sample).
template <typename T>
T percentile(std::vector<T>& samples, double p) {
  if (samples.empty()) return T{};
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size() - 1)));
  const auto index = std::min(rank, samples.size() - 1);
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(index);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

}  // namespace

SimConfig SimConfig::with_default_derivatives() {
  SimConfig config;
  SimDerivativeSpec rsf;
  rsf.name = "rsf-hourly";
  rsf.uses_rsf = true;
  rsf.rsf_poll_interval = 3600;
  config.derivatives.push_back(rsf);

  SimDerivativeSpec rsf_daily;
  rsf_daily.name = "rsf-daily";
  rsf_daily.uses_rsf = true;
  rsf_daily.rsf_poll_interval = 86400;
  config.derivatives.push_back(rsf_daily);

  SimDerivativeSpec debianish;
  debianish.name = "manual-distro";  // Debian-like: imports every ~5 months
  debianish.manual_sync_period = 150 * 86400;
  debianish.manual_sync_jitter = 30 * 86400;
  config.derivatives.push_back(debianish);

  SimDerivativeSpec androidish;
  androidish.name = "manual-mobile";  // Android-like: "several months behind"
  androidish.manual_sync_period = 240 * 86400;
  androidish.manual_sync_jitter = 45 * 86400;
  config.derivatives.push_back(androidish);

  SimDerivativeSpec serverish;
  serverish.name = "manual-server";  // Amazon-Linux-like: >4 versions stale
  serverish.manual_sync_period = 420 * 86400;
  serverish.manual_sync_jitter = 60 * 86400;
  config.derivatives.push_back(serverish);
  return config;
}

SimReport run_staleness_simulation(const SimConfig& config) {
  Rng rng(config.seed);
  SimReport report;

  metrics::Registry& metric_sink = config.registry != nullptr
                                       ? *config.registry
                                       : metrics::Registry::global();
  metrics::Counter& m_releases =
      metric_sink.counter("anchor_sim_releases_total");
  metrics::Counter& m_incidents =
      metric_sink.counter("anchor_sim_incidents_total");

  std::vector<x509::CertPtr> roots =
      make_roots(config.num_roots, config.start_time);

  // Build the release timeline: routine releases plus incident releases at
  // random instants.
  std::vector<Release> releases;
  for (std::int64_t t = config.start_time;
       t < config.start_time + config.duration; t += config.release_interval) {
    releases.push_back(Release{t, false, -1});
  }
  std::vector<std::int64_t> incident_times;
  for (int i = 0; i < config.num_incidents; ++i) {
    // Keep incidents clear of the final 10% so windows are observable.
    std::int64_t t = config.start_time +
                     rng.uniform_range(config.release_interval,
                                       config.duration * 9 / 10);
    incident_times.push_back(t);
  }
  std::sort(incident_times.begin(), incident_times.end());
  for (int i = 0; i < config.num_incidents; ++i) {
    releases.push_back(Release{incident_times[i], true, i});
  }
  std::sort(releases.begin(), releases.end(),
            [](const Release& a, const Release& b) { return a.time < b.time; });

  // Incident i distrusts root i+some offset (never the same root twice).
  std::vector<Sha256::Digest> incident_roots;
  for (int i = 0; i < config.num_incidents; ++i) {
    incident_roots.push_back(
        roots[static_cast<std::size_t>(i) % roots.size()]->fingerprint());
  }

  // The primary store and feed.
  rootstore::RootStore primary;
  for (const auto& cert : roots) {
    (void)primary.add_trusted(cert);
  }
  SimSig registry;
  Feed feed("nss-sim", registry);

  // Derivative state.
  struct DerivState {
    SimDerivativeSpec spec;
    std::unique_ptr<DirectTransport> direct;
    std::unique_ptr<FaultyTransport> faulty;  // only when spec.faults.any()
    std::unique_ptr<RsfClient> rsf;
    std::unique_ptr<ManualMirrorClient> manual;
    std::int64_t next_sync = 0;  // next scheduled manual import
    // Staleness accounting.
    double staleness_sum = 0;
    double versions_sum = 0;
    double max_staleness = 0;
    std::uint64_t samples = 0;
    std::vector<double> staleness_samples;  // daily, for percentiles
  };
  std::vector<DerivState> derivatives;
  std::uint64_t derivative_index = 0;
  for (const auto& spec : config.derivatives) {
    DerivState state;
    state.spec = spec;
    if (spec.uses_rsf) {
      state.direct = std::make_unique<DirectTransport>(feed);
      FeedTransport* transport = state.direct.get();
      if (spec.faults.any()) {
        state.faulty = std::make_unique<FaultyTransport>(
            *state.direct, spec.faults,
            config.seed ^ (derivative_index * 0x9e3779b97f4a7c15ULL));
        transport = state.faulty.get();
      }
      RetryPolicy retry = spec.retry;
      retry.jitter_seed ^= config.seed + derivative_index;
      state.rsf = std::make_unique<RsfClient>(
          *transport, spec.rsf_poll_interval, MergePolicy::kPrimaryWins,
          Transport::kFullSnapshot, retry);
      // Several derivatives poll the same feed; label by derivative name so
      // their series stay distinguishable.
      state.rsf->bind_metrics(metric_sink, spec.name);
    } else {
      state.manual = std::make_unique<ManualMirrorClient>(feed, true);
      // Uniform phase: derivatives are not synchronized with the primary.
      state.next_sync =
          config.start_time +
          rng.uniform_range(0, std::max<std::int64_t>(1, spec.manual_sync_period));
    }
    derivatives.push_back(std::move(state));
    ++derivative_index;
  }

  // Incident tracking.
  for (int i = 0; i < config.num_incidents; ++i) {
    DistrustOutcome outcome;
    outcome.root_hash = incident_roots[static_cast<std::size_t>(i)];
    outcome.windows.assign(config.derivatives.size(), -1);
    report.incidents.push_back(std::move(outcome));
  }

  // Release-time bookkeeping for staleness: publication time per sequence.
  std::vector<std::int64_t> publish_time_of_seq;  // index = seq - 1

  // Main loop: hourly steps (matching the finest poll interval).
  const std::int64_t step = 3600;
  std::size_t next_release = 0;
  std::int64_t end_time = config.start_time + config.duration;

  for (std::int64_t now = config.start_time; now <= end_time; now += step) {
    // Publish any due releases.
    while (next_release < releases.size() &&
           releases[next_release].time <= now) {
      const Release& release = releases[next_release];
      if (release.is_incident) {
        const Sha256::Digest& hash =
            incident_roots[static_cast<std::size_t>(release.incident_index)];
        primary.distrust(hash, "incident response");
        report.incidents[static_cast<std::size_t>(release.incident_index)]
            .primary_time = release.time;
      }
      feed.publish(primary, release.time,
                   release.is_incident ? "emergency distrust" : "routine");
      publish_time_of_seq.push_back(release.time);
      ++report.releases;
      m_releases.add();
      if (release.is_incident) m_incidents.add();
      ++next_release;
    }

    // Advance derivatives.
    for (auto& d : derivatives) {
      if (d.rsf != nullptr) {
        d.rsf->run_until(now);
      } else if (now >= d.next_sync) {
        // A human performs the periodic import (adopts the head snapshot),
        // then the mirror goes quiet for another cycle.
        d.manual->manual_sync(now);
        d.next_sync =
            now + rng.uniform_range(
                      std::max<std::int64_t>(
                          3600, d.spec.manual_sync_period -
                                    d.spec.manual_sync_jitter),
                      d.spec.manual_sync_period + d.spec.manual_sync_jitter);
      }
    }

    // Record vulnerability windows: first instant each derivative's store
    // no longer trusts each distrusted root.
    for (std::size_t i = 0; i < report.incidents.size(); ++i) {
      DistrustOutcome& outcome = report.incidents[i];
      if (outcome.primary_time == 0 || now < outcome.primary_time) continue;
      for (std::size_t d = 0; d < derivatives.size(); ++d) {
        if (outcome.windows[d] >= 0) continue;
        const rootstore::RootStore& s = derivatives[d].rsf != nullptr
                                            ? derivatives[d].rsf->store()
                                            : derivatives[d].manual->store();
        if (s.state_of(outcome.root_hash) != rootstore::TrustState::kTrusted &&
            (s.trusted_count() > 0)) {
          outcome.windows[d] = now - outcome.primary_time;
        }
      }
    }

    // Daily staleness sampling.
    if ((now - config.start_time) % 86400 == 0 && !publish_time_of_seq.empty()) {
      std::uint64_t head_seq = feed.head_sequence();
      for (auto& d : derivatives) {
        std::uint64_t adopted = d.rsf != nullptr
                                    ? d.rsf->last_applied_sequence()
                                    : d.manual->mirrored_sequence();
        double versions_behind =
            static_cast<double>(head_seq - std::min<std::uint64_t>(adopted, head_seq));
        double staleness_days = 0;
        if (adopted == 0) {
          staleness_days =
              static_cast<double>(now - config.start_time) / 86400.0;
        } else if (adopted < head_seq) {
          // Time since the oldest unadopted release.
          staleness_days =
              static_cast<double>(now - publish_time_of_seq[adopted]) / 86400.0;
        }
        d.staleness_sum += staleness_days;
        d.versions_sum += versions_behind;
        d.max_staleness = std::max(d.max_staleness, staleness_days);
        d.staleness_samples.push_back(staleness_days);
        ++d.samples;
      }
    }
  }

  // Reduce metrics.
  for (std::size_t d = 0; d < derivatives.size(); ++d) {
    DerivativeMetrics metrics;
    metrics.name = derivatives[d].spec.name;
    if (derivatives[d].samples > 0) {
      metrics.avg_staleness_days =
          derivatives[d].staleness_sum / double(derivatives[d].samples);
      metrics.avg_versions_behind =
          derivatives[d].versions_sum / double(derivatives[d].samples);
      metrics.max_staleness_days = derivatives[d].max_staleness;
      metrics.staleness_p50_days =
          percentile(derivatives[d].staleness_samples, 0.50);
      metrics.staleness_p99_days =
          percentile(derivatives[d].staleness_samples, 0.99);
    }
    std::int64_t window_sum = 0;
    std::int64_t window_max = -1;
    int counted = 0;
    for (const auto& incident : report.incidents) {
      if (incident.windows[d] >= 0) {
        window_sum += incident.windows[d];
        window_max = std::max(window_max, incident.windows[d]);
        ++counted;
      }
    }
    if (counted > 0) {
      metrics.mean_vulnerability_window = window_sum / counted;
      metrics.max_vulnerability_window = window_max;
    }
    if (derivatives[d].rsf != nullptr) {
      const ClientStats& stats = derivatives[d].rsf->stats();
      metrics.retries = stats.retries;
      metrics.transport_errors = stats.transport_errors_total();
      metrics.verify_failures = stats.verify_failures;
      metrics.delta_fallbacks = stats.delta_fallbacks;
    }
    report.derivatives.push_back(std::move(metrics));
  }
  return report;
}

FleetReport run_fleet_simulation(const FleetConfig& config) {
  FleetReport report;
  report.clients = config.num_clients;

  // Stage the publisher: a small real store, one routine release at the
  // start of the window, then the emergency distrust at its end. The byte
  // costs below come from actual feed_fetch responses over this feed — the
  // same objects the anchord wire codec serializes — so the sweep measures
  // the protocol, not a hand-maintained size model.
  std::vector<x509::CertPtr> roots = make_roots(8, config.start_time);
  rootstore::RootStore primary;
  for (const auto& cert : roots) {
    (void)primary.add_trusted(cert);
  }
  SimSig registry;
  Feed feed("nss-fleet", registry);
  feed.publish(primary, config.start_time, "routine");
  const std::int64_t incident_time = config.start_time + config.lead_time;
  primary.distrust(roots[0]->fingerprint(), "incident response");
  feed.publish(primary, incident_time, "emergency distrust");

  // Steady state: the poller is current (from_size == head), so the
  // response is the signed tree head alone — the O(1) no-change poll.
  FeedFetchQuery current;
  current.from_size = feed.head_sequence();
  auto no_change = feed.feed_fetch(current);
  report.no_change_poll_bytes =
      no_change ? no_change.value().wire_size(true) : 0;

  // The post-incident poll: one consistency proof from the pinned size,
  // the head inclusion proof, and the one-snapshot range (headers + delta
  // under delta transport, full payload otherwise).
  FeedFetchQuery catch_up;
  catch_up.from_size = feed.head_sequence() - 1;
  catch_up.want_deltas = config.use_delta;
  auto emergency = feed.feed_fetch(catch_up);
  report.emergency_poll_bytes =
      emergency ? emergency.value().wire_size(!config.use_delta) : 0;

  // March each client's poll schedule independently: forked RNG stream,
  // uniform phase within one interval, then jittered intervals. Every poll
  // before the incident is a no-change probe; the first poll at or after
  // it fetches the proof + range, and the client has adopted only once its
  // verify step completes — adoption percentiles are computed from that
  // instant, not from the fetch instant.
  std::vector<std::int64_t> adoption;
  adoption.reserve(config.num_clients);
  Rng fleet_rng(config.seed);
  const std::int64_t interval = std::max<std::int64_t>(1, config.poll_interval);
  for (std::uint32_t i = 0; i < config.num_clients; ++i) {
    Rng rng = fleet_rng.fork(i);
    std::int64_t t = config.start_time +
                     static_cast<std::int64_t>(
                         rng.uniform(static_cast<std::uint64_t>(interval)));
    while (t < incident_time) {
      ++report.polls_no_change;
      report.bytes_no_change += report.no_change_poll_bytes;
      t += std::max<std::int64_t>(1, rng.jittered(interval,
                                                  config.poll_jitter));
    }
    report.bytes_emergency += report.emergency_poll_bytes;
    adoption.push_back(t + config.verify_latency - incident_time);
  }

  report.adoption_p50 = percentile(adoption, 0.50);
  report.adoption_p99 = percentile(adoption, 0.99);
  report.adoption_max =
      adoption.empty() ? 0
                       : *std::max_element(adoption.begin(), adoption.end());
  return report;
}

}  // namespace anchor::rsf
