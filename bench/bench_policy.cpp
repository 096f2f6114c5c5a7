// Experiment E12 (extension) — the cost of §3.1's third option in full:
// running the ENTIRE validation algorithm as a Datalog policy
// (Hammurabi model) vs the procedural verifier, on identical corpus
// chains. Also prints the verdict-agreement table that backs the
// differential tests, and the delta-vs-snapshot feed bandwidth ratio (§4).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "corpus/corpus.hpp"
#include "policy/policy.hpp"
#include "rsf/client.hpp"

namespace {

using namespace anchor;

struct Fixture {
  corpus::Corpus corpus;
  rootstore::RootStore store;
  chain::CertificatePool pool;
  std::vector<std::size_t> leaf_indices;
  std::int64_t now;

  Fixture()
      : corpus([] {
          corpus::CorpusConfig config;
          config.num_roots = 30;
          config.num_intermediates = 90;
          config.roots_with_path_len = 2;
          config.intermediates_with_path_len = 80;
          config.intermediates_with_name_constraints = 4;
          config.roots_with_constrained_chain = 2;
          config.leaves_per_intermediate_mean = 8.0;
          return corpus::Corpus::generate(config);
        }()),
        store(corpus.make_root_store()),
        pool(corpus.intermediate_pool()),
        now(corpus.config().validation_time()) {
    for (std::size_t i = 0; i < corpus.leaves().size(); ++i) {
      const auto& record = corpus.leaves()[i];
      if (record.smime) continue;
      if (!record.cert->valid_at(now)) continue;
      leaf_indices.push_back(i);
      if (leaf_indices.size() >= 100) break;
    }
  }

  chain::VerifyOptions options_for(std::size_t leaf_index) const {
    chain::VerifyOptions options;
    options.time = now;
    options.hostname = corpus.leaves()[leaf_index].domain;
    return options;
  }
};

const Fixture& fixture() {
  static const Fixture instance;
  return instance;
}

void BM_ProceduralVerifier(benchmark::State& state) {
  const Fixture& f = fixture();
  chain::ChainVerifier verifier(f.store, f.corpus.signatures());
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    ++i;
  }
}
BENCHMARK(BM_ProceduralVerifier);

void BM_DatalogPolicyVerifier(benchmark::State& state) {
  const Fixture& f = fixture();
  policy::PolicyVerifier verifier(f.store, f.corpus.signatures());
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    ++i;
  }
}
BENCHMARK(BM_DatalogPolicyVerifier);

void print_agreement_table() {
  const Fixture& f = fixture();
  chain::ChainVerifier procedural(f.store, f.corpus.signatures());
  policy::PolicyVerifier logical(f.store, f.corpus.signatures());

  std::size_t agree = 0;
  std::size_t total = 0;
  std::size_t accepts = 0;
  for (std::size_t leaf : f.leaf_indices) {
    bool proc = procedural
                    .verify(f.corpus.leaves()[leaf].cert, f.pool,
                            f.options_for(leaf))
                    .ok;
    bool log = logical
                   .verify(f.corpus.leaves()[leaf].cert, f.pool,
                           f.options_for(leaf))
                   .ok;
    agree += proc == log;
    accepts += proc;
    ++total;
  }
  std::printf("\n=== E12: procedural vs full-Datalog validation (§3.1 opt 3) "
              "===\n");
  std::printf("verdict agreement : %zu/%zu on tree-shaped corpus chains "
              "(%zu accepted)\n",
              agree, total, accepts);
  std::printf("shape check       : %s (exact agreement; divergence exists "
              "only under cross-signing, see tests/policy_test.cpp)\n",
              agree == total ? "HOLDS" : "VIOLATED");
}

void print_bandwidth_table() {
  // §4 extension: delta vs full-snapshot transport cost for routine
  // single-root updates on an NSS-sized store.
  SimSig registry;
  rsf::Feed feed("bench", registry);
  corpus::CorpusConfig config;
  config.num_roots = 140;
  config.num_intermediates = 10;
  config.intermediates_with_path_len = 8;
  config.intermediates_with_name_constraints = 2;
  config.roots_with_constrained_chain = 1;
  config.leaves_per_intermediate_mean = 1.0;
  corpus::Corpus corpus = corpus::Corpus::generate(config);
  rootstore::RootStore primary = corpus.make_root_store();
  feed.publish(primary, 0, "baseline");

  rsf::RsfClient full(feed, 3600, rsf::MergePolicy::kPrimaryWins,
                      rsf::Transport::kFullSnapshot);
  rsf::RsfClient delta(feed, 3600, rsf::MergePolicy::kPrimaryWins,
                       rsf::Transport::kDelta);
  full.poll_now(1);
  delta.poll_now(1);
  std::uint64_t full_base = full.stats().bytes_fetched;
  std::uint64_t delta_base = delta.stats().bytes_fetched;

  for (int i = 0; i < 12; ++i) {
    primary.distrust(
        corpus.roots()[static_cast<std::size_t>(i)].cert->fingerprint(),
        "routine removal");
    feed.publish(primary, 100 + i, "update");
    full.poll_now(1000 + i);
    delta.poll_now(1000 + i);
  }
  std::uint64_t full_bytes = full.stats().bytes_fetched - full_base;
  std::uint64_t delta_bytes = delta.stats().bytes_fetched - delta_base;
  std::printf("\n--- RSF transport bandwidth, 12 one-root updates on a "
              "140-root store (§4) ---\n");
  std::printf("full snapshots : %llu bytes\n",
              static_cast<unsigned long long>(full_bytes));
  std::printf("deltas         : %llu bytes  (%.1fx smaller; replica verified "
              "against the signed payload hash)\n",
              static_cast<unsigned long long>(delta_bytes),
              static_cast<double>(full_bytes) /
                  static_cast<double>(delta_bytes ? delta_bytes : 1));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_agreement_table();
  print_bandwidth_table();
  return 0;
}
