// Process-wide metrics registry + lightweight tracing (DESIGN.md "Metrics
// & tracing"). The paper's deployment story — derivatives polling feeds
// hourly, user agents verifying chains against GCCs — only operates if the
// people running it can see staleness, verdict mix and failure causes
// (CT-monitoring practice and CAge, FC '13, make the same point for CT).
// Before this layer every subsystem kept its own ad-hoc counter struct
// (ServiceStats, ClientStats, EvalStats); this module gives them one
// export path without replacing those structs.
//
// Design constraints, in order:
//   * hot-path increments are single relaxed atomic ops — callers cache a
//     `Counter&`/`Gauge&`/`Histogram&` once (registration takes a lock,
//     increments never do; series have stable addresses for the life of
//     the registry);
//   * histograms are bounded: a fixed ascending bound vector chosen at
//     registration, one atomic cell per bucket plus count and sum — no
//     allocation, no rebinning, O(log buckets) per observe;
//   * series are named + labeled (`anchor_rsf_polls_total{feed="nss",
//     outcome="success"}`), exposed in a Prometheus-style text format that
//     both `anchorctl metrics` and the anchord `metrics` verb emit;
//   * snapshot()/delta let benches report *the same counters operators
//     would scrape* instead of bench-private accounting (EXPERIMENTS.md).
//
// `Registry::global()` is the default sink; components accept a Registry&
// so tests can isolate themselves with a local instance.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace anchor::metrics {

// Label set, order-insensitive (canonicalized by sorting on key).
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
// C++20 atomic<double>::fetch_add is not universally lowered; a CAS loop
// is portable and the sum cell is not contended enough to matter.
inline void atomic_add(std::atomic<double>& cell, double v) {
  double expected = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed)) {
  }
}
}  // namespace detail

// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Point-in-time level (queue depth, staleness, store sizes, epoch).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Bounded histogram: cumulative-on-read buckets over fixed ascending upper
// bounds plus an implicit +Inf bucket. observe() is wait-free apart from
// the sum CAS; storage is fixed at registration.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  // Cumulative count of observations <= bounds()[i]; i == bounds().size()
  // is the +Inf bucket (== count()). Relaxed reads: a concurrent snapshot
  // may be torn across cells, which exposition tolerates (monotone within
  // each cell).
  std::uint64_t cumulative(std::size_t i) const;
  void reset();

  // Default bounds for latency-in-seconds series: 1-2-5 decades from 1µs
  // to 10s — wide enough for a spin-wait IPC leg, fine enough to separate
  // a cache hit from a Datalog evaluation.
  static std::span<const double> latency_bounds();

 private:
  std::vector<double> bounds_;
  // Per-bucket (non-cumulative) cells; index bounds_.size() = +Inf.
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

// RAII tracing span: times a scope and feeds the elapsed seconds into a
// histogram on destruction. The cheap building block behind the verify-
// latency and GCC-eval-time series.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& sink)
      : sink_(&sink), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (sink_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    sink_->observe(std::chrono::duration<double>(elapsed).count());
  }

  // Abandon the span (the scope turned out not to be the measured path).
  void cancel() { sink_ = nullptr; }

 private:
  Histogram* sink_;
  std::chrono::steady_clock::time_point start_;
};

// Flat sample map: exposition key -> value, histograms expanded into
// `_bucket{le=...}` / `_sum` / `_count` samples. Ordered so diffs and test
// assertions are deterministic.
using Snapshot = std::map<std::string, double>;

// after - before, dropping unchanged samples: what a bench run added to
// the registry. Gauges are differenced like everything else (and dropped
// when level didn't move); read their sign as direction, not as a rate.
Snapshot snapshot_delta(const Snapshot& before, const Snapshot& after);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide default sink. Components default to it; tests that
  // need isolation construct their own Registry.
  static Registry& global();

  // Find-or-create. The returned reference is stable for the registry's
  // lifetime; callers cache it and increment lock-free. Re-registering the
  // same (name, labels) returns the same series; re-registering it as a
  // different kind is a programming error and returns a detached series
  // (fail closed: the conflict never corrupts the exposition).
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  // Empty `bounds` selects Histogram::latency_bounds(); bounds are fixed
  // by whichever registration creates the series.
  Histogram& histogram(std::string_view name, const Labels& labels = {},
                       std::span<const double> bounds = {});

  // Prometheus-style text exposition, families sorted by name with one
  // `# TYPE` line each. What `anchorctl metrics` and the anchord
  // `metrics` verb print.
  std::string expose() const;

  Snapshot snapshot() const;

  // Zeroes every registered series (bench isolation between phases);
  // series themselves stay registered so cached references stay valid.
  void reset();

  std::size_t series_count() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Kind kind;
    std::string name;
    Labels labels;  // canonical (sorted) order
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Series& find_or_create(std::string_view name, const Labels& labels,
                         Kind kind, std::span<const double> bounds);

  mutable std::mutex mu_;
  // key = name + canonical label text; std::map keeps exposition sorted.
  std::map<std::string, Series> series_;
  // Series that lost a kind conflict: alive, addressable, never exposed.
  std::vector<std::unique_ptr<Series>> detached_;
};

}  // namespace anchor::metrics
