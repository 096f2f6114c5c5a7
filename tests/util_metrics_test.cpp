// util/metrics: registry semantics (find-or-create, label canonicalization,
// kind-conflict fail-closed), histogram bucketing, tracing spans, and the
// text exposition format that `anchorctl metrics` and the anchord
// `metrics` verb serve.
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace anchor::metrics {
namespace {

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, BucketPlacementIsLe) {
  Histogram h(std::vector<double>{1.0, 2.0, 5.0});
  h.observe(0.5);   // bucket le=1
  h.observe(1.0);   // exactly on a bound: le semantics, stays in le=1
  h.observe(1.5);   // le=2
  h.observe(100.0); // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 103.0);
  EXPECT_EQ(h.cumulative(0), 2u);  // <= 1.0
  EXPECT_EQ(h.cumulative(1), 3u);  // <= 2.0
  EXPECT_EQ(h.cumulative(2), 3u);  // <= 5.0
  EXPECT_EQ(h.cumulative(3), 4u);  // +Inf == count()
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.cumulative(3), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Histogram, LatencyBoundsAreAscending) {
  auto bounds = Histogram::latency_bounds();
  ASSERT_GT(bounds.size(), 0u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_DOUBLE_EQ(bounds.back(), 10.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(ScopedTimer, ObservesOnDestruction) {
  Histogram h(std::vector<double>{1.0});
  {
    ScopedTimer span(h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
  EXPECT_LT(h.sum(), 1.0);  // a no-op scope is far under a second
}

TEST(ScopedTimer, CancelSuppressesObservation) {
  Histogram h(std::vector<double>{1.0});
  {
    ScopedTimer span(h);
    span.cancel();
  }
  EXPECT_EQ(h.count(), 0u);
}

TEST(Registry, FindOrCreateReturnsStableSeries) {
  Registry registry;
  Counter& a = registry.counter("anchor_test_total");
  Counter& b = registry.counter("anchor_test_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.series_count(), 1u);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Registry, LabelsAreOrderInsensitive) {
  Registry registry;
  Counter& a = registry.counter(
      "anchor_test_total", {{"feed", "nss"}, {"outcome", "success"}});
  Counter& b = registry.counter(
      "anchor_test_total", {{"outcome", "success"}, {"feed", "nss"}});
  EXPECT_EQ(&a, &b);
  // A different label *value* is a different series.
  Counter& c = registry.counter(
      "anchor_test_total", {{"feed", "nss"}, {"outcome", "failure"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(registry.series_count(), 2u);
}

TEST(Registry, KindConflictReturnsDetachedSeries) {
  Registry registry;
  Counter& counter = registry.counter("anchor_test_mixed");
  counter.add(5);
  // Re-registering the same key as a gauge is a programming error; it must
  // neither crash nor corrupt the counter, and the orphan never reaches the
  // exposition.
  Gauge& orphan = registry.gauge("anchor_test_mixed");
  orphan.set(99);
  EXPECT_EQ(counter.value(), 5u);
  EXPECT_EQ(registry.series_count(), 1u);
  const std::string text = registry.expose();
  EXPECT_NE(text.find("anchor_test_mixed 5"), std::string::npos);
  EXPECT_EQ(text.find("99"), std::string::npos);
  // The orphan keeps working for its (broken) caller.
  orphan.add(1);
  EXPECT_EQ(orphan.value(), 100);
}

TEST(Registry, HistogramBoundsFixedByFirstRegistration) {
  Registry registry;
  const double first[] = {1.0, 2.0};
  Histogram& a = registry.histogram("anchor_test_seconds", {}, first);
  const double second[] = {10.0, 20.0, 30.0};
  Histogram& b = registry.histogram("anchor_test_seconds", {}, second);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.bounds().size(), 2u);
  // Empty bounds select the latency default.
  Histogram& lat = registry.histogram("anchor_test_latency");
  EXPECT_EQ(lat.bounds().size(), Histogram::latency_bounds().size());
}

TEST(Registry, ExposeFormat) {
  Registry registry;
  registry.counter("anchor_b_total", {{"kind", "x"}}).add(2);
  registry.counter("anchor_b_total", {{"kind", "y"}}).add(3);
  registry.gauge("anchor_a_level").set(-4);
  const double bounds[] = {0.5, 1.0};
  Histogram& h = registry.histogram("anchor_c_seconds", {}, bounds);
  h.observe(0.25);
  h.observe(2.0);

  const std::string text = registry.expose();
  // One TYPE line per family, families sorted by name.
  EXPECT_EQ(text.find("# TYPE anchor_a_level gauge"), 0u);
  const auto b_type = text.find("# TYPE anchor_b_total counter");
  const auto c_type = text.find("# TYPE anchor_c_seconds histogram");
  ASSERT_NE(b_type, std::string::npos);
  ASSERT_NE(c_type, std::string::npos);
  EXPECT_LT(b_type, c_type);
  EXPECT_EQ(text.find("# TYPE anchor_b_total counter", b_type + 1),
            std::string::npos);

  EXPECT_NE(text.find("anchor_a_level -4\n"), std::string::npos);
  EXPECT_NE(text.find("anchor_b_total{kind=\"x\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("anchor_b_total{kind=\"y\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("anchor_c_seconds_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("anchor_c_seconds_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("anchor_c_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("anchor_c_seconds_sum 2.25\n"), std::string::npos);
  EXPECT_NE(text.find("anchor_c_seconds_count 2\n"), std::string::npos);
}

TEST(Registry, ExposeEscapesLabelValues) {
  Registry registry;
  registry.counter("anchor_test_total", {{"path", "a\"b\\c\nd"}}).add(1);
  const std::string text = registry.expose();
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(Registry, SnapshotAndDelta) {
  Registry registry;
  Counter& polls = registry.counter("anchor_polls_total", {{"feed", "nss"}});
  Gauge& stale = registry.gauge("anchor_seconds_stale");
  polls.add(2);
  stale.set(100);
  const Snapshot before = registry.snapshot();
  EXPECT_DOUBLE_EQ(before.at("anchor_polls_total{feed=\"nss\"}"), 2.0);

  polls.add(3);
  stale.set(40);
  registry.counter("anchor_new_total").add(1);  // registered mid-flight
  const Snapshot after = registry.snapshot();
  const Snapshot delta = snapshot_delta(before, after);
  EXPECT_DOUBLE_EQ(delta.at("anchor_polls_total{feed=\"nss\"}"), 3.0);
  EXPECT_DOUBLE_EQ(delta.at("anchor_seconds_stale"), -60.0);
  EXPECT_DOUBLE_EQ(delta.at("anchor_new_total"), 1.0);
  // Unchanged series are dropped.
  polls.reset();
  stale.reset();
  const Snapshot unchanged = snapshot_delta(after, registry.snapshot());
  EXPECT_EQ(unchanged.count("anchor_new_total"), 0u);
}

TEST(Registry, ResetZeroesButKeepsSeries) {
  Registry registry;
  Counter& c = registry.counter("anchor_test_total");
  Histogram& h = registry.histogram("anchor_test_seconds");
  c.add(5);
  h.observe(0.001);
  registry.reset();
  EXPECT_EQ(registry.series_count(), 2u);
  EXPECT_EQ(c.value(), 0u);  // cached reference still valid
  EXPECT_EQ(h.count(), 0u);
}

TEST(Registry, GlobalIsASingleton) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

}  // namespace
}  // namespace anchor::metrics
