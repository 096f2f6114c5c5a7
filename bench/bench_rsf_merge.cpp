// Experiment E10 — RSF merging (§4): conflict detection when a derivative
// augments its primary, scored on the incident the paper cites ("Amazon
// Linux re-added 16 root certificates after they had been explicitly
// removed by NSS"), plus merge/serialization throughput at realistic store
// sizes.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "rsf/client.hpp"
#include "rsf/merge.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"

namespace {

using namespace anchor;

x509::CertPtr make_root(const std::string& name) {
  SimKeyPair key = SimSig::keygen(name);
  return x509::CertificateBuilder()
      .serial(1)
      .subject(x509::DistinguishedName::make(name, "Org"))
      .issuer(x509::DistinguishedName::make(name, "Org"))
      .validity(0, unix_date(2040, 1, 1))
      .public_key(key.key_id)
      .ca(std::nullopt)
      .sign(key)
      .take();
}

struct MergeFixture {
  rootstore::RootStore primary;
  rootstore::RootStore derivative;

  // NSS-scale primary (140 roots), 16 re-added removals, a handful of
  // local additions.
  MergeFixture() {
    for (int i = 0; i < 140; ++i) {
      (void)primary.add_trusted(make_root("Primary Root " + std::to_string(i)));
    }
    for (int i = 0; i < 16; ++i) {
      x509::CertPtr removed = make_root("Removed Root " + std::to_string(i));
      primary.distrust(removed->fingerprint(), "removed by primary");
      (void)derivative.add_trusted(removed);  // Amazon-Linux-style re-add
    }
    for (int i = 0; i < 5; ++i) {
      (void)derivative.add_trusted(make_root("Local Root " + std::to_string(i)));
    }
  }
};

const MergeFixture& merge_fixture() {
  static const MergeFixture instance;
  return instance;
}

void BM_Merge_PrimaryWins(benchmark::State& state) {
  const MergeFixture& f = merge_fixture();
  for (auto _ : state) {
    auto result = rsf::merge(f.primary, f.derivative,
                             rsf::MergePolicy::kPrimaryWins);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Merge_PrimaryWins);

// CT-scale constraint load: both stores carry the same root population and
// many GCCs per root, with half the derivative's names overlapping the
// primary's. This is the case the per-root name-set dedup in merge() is
// for — the old nested scan was O(primary × derivative) string compares
// per root and dominated merge time at these counts.
struct ManyGccsFixture {
  rootstore::RootStore primary;
  rootstore::RootStore derivative;

  explicit ManyGccsFixture(int gccs_per_root) {
    constexpr int kRoots = 40;
    const std::string source =
        "valid(Chain, Usage) :- chain(Chain), usage_allowed(Chain, Usage).\n"
        "usage_allowed(Chain, \"TLS\") :- chain(Chain).";
    for (int i = 0; i < kRoots; ++i) {
      x509::CertPtr root = make_root("Gcc Root " + std::to_string(i));
      (void)primary.add_trusted(root);
      (void)derivative.add_trusted(root);
      const std::string hash = root->fingerprint_hex();
      for (int g = 0; g < gccs_per_root; ++g) {
        auto gcc = core::Gcc::create("constraint-" + std::to_string(g), hash,
                                     source, "bench");
        primary.attach_gcc(gcc.value());
        // Half overlap: even names collide with the primary's (dedup path),
        // odd names are derivative-local (attach path).
        auto local = core::Gcc::create(
            g % 2 == 0 ? "constraint-" + std::to_string(g)
                       : "local-" + std::to_string(g),
            hash, source, "bench");
        derivative.attach_gcc(std::move(local).take());
      }
    }
  }
};

void BM_Merge_ManyGccs(benchmark::State& state) {
  const ManyGccsFixture fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto result = rsf::merge(fixture.primary, fixture.derivative,
                             rsf::MergePolicy::kPrimaryWins);
    benchmark::DoNotOptimize(result);
  }
  state.counters["gccs_per_root"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Merge_ManyGccs)->Arg(4)->Arg(32)->Arg(128);

void BM_StoreSerialize(benchmark::State& state) {
  const MergeFixture& f = merge_fixture();
  for (auto _ : state) {
    std::string text = f.primary.serialize();
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_StoreSerialize);

void BM_StoreDeserialize(benchmark::State& state) {
  const MergeFixture& f = merge_fixture();
  std::string text = f.primary.serialize();
  for (auto _ : state) {
    auto store = rootstore::RootStore::deserialize(text);
    benchmark::DoNotOptimize(store);
  }
}
BENCHMARK(BM_StoreDeserialize);

void BM_FeedPublishAndVerify(benchmark::State& state) {
  const MergeFixture& f = merge_fixture();
  for (auto _ : state) {
    SimSig registry;
    rsf::Feed feed("nss", registry);
    feed.publish(f.primary, 1000, "bench");
    auto run = feed.fetch_since(0);
    auto status =
        rsf::Feed::verify_run(run, "", BytesView(feed.key_id()), registry);
    benchmark::DoNotOptimize(status);
  }
}
BENCHMARK(BM_FeedPublishAndVerify);

void print_e10_table() {
  const MergeFixture& f = merge_fixture();
  auto result =
      rsf::merge(f.primary, f.derivative, rsf::MergePolicy::kPrimaryWins);

  std::size_t re_add_conflicts = 0;
  for (const auto& conflict : result.conflicts) {
    if (conflict.kind == rsf::ConflictKind::kDistrustedReAdded) {
      ++re_add_conflicts;
    }
  }
  std::printf("\n=== E10: RSF merge conflict detection (paper §4) ===\n");
  std::printf("%-44s %8s %8s\n", "metric", "paper", "measured");
  std::printf("%-44s %8d %8zu   %s\n",
              "distrusted roots re-added by derivative", 16, re_add_conflicts,
              re_add_conflicts == 16 ? "MATCH" : "DIFFER");
  std::printf("merged store: %zu trusted, %zu distrusted "
              "(primary-wins keeps removals in force)\n",
              result.merged.trusted_count(), result.merged.distrusted_count());

  auto derivative_wins =
      rsf::merge(f.primary, f.derivative, rsf::MergePolicy::kDerivativeWins);
  std::printf("derivative-wins (today's de facto outcome): %zu trusted — the\n"
              "16 removed roots silently return, which is what the merge is\n"
              "designed to surface.\n",
              derivative_wins.merged.trusted_count());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_e10_table();
  return 0;
}
