// Experiment E4 — certificate -> Datalog conversion cost (§3.1).
//
// Paper: "We performed a preliminary performance analysis in which we
// measured the time taken to convert ~100K certificates to their respective
// sets of Datalog statements and found that the mean (unoptimized)
// conversion time was ~2.4ms."
//
// This binary (a) micro-benchmarks the per-certificate and per-chain
// encoders via google-benchmark, and (b) reproduces the E4 headline: a
// 100K-certificate sweep reporting the mean per-certificate conversion
// time. E4 times the eager encoder, which builds every fact; the
// BM_LoadChain_* points time the verdict path's on-demand loader beside it
// (only the relations a compiled GCC mentions, interned straight into its
// session), which is where the serving path's saving over BM_EncodeChain
// sits. Absolute numbers will differ from the authors' (different machine,
// different representation); the shape to hold is LOW-MILLISECONDS-OR-LESS
// per certificate, linear in chain size.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "core/facts.hpp"
#include "core/gcc.hpp"
#include "corpus/corpus.hpp"
#include "datalog/compiled.hpp"
#include "incidents/listings.hpp"
#include "rootstore/constraint_compile.hpp"

namespace {

using anchor::core::Chain;
using anchor::core::encode_certificate;
using anchor::core::encode_chain;
using anchor::core::FactSet;
using anchor::corpus::Corpus;
using anchor::corpus::CorpusConfig;

const Corpus& bench_corpus() {
  static const Corpus corpus = [] {
    CorpusConfig config;
    config.leaves_per_intermediate_mean = 12.0;
    return Corpus::generate(config);
  }();
  return corpus;
}

void BM_EncodeCertificate(benchmark::State& state) {
  const Corpus& corpus = bench_corpus();
  std::size_t i = 0;
  std::size_t facts_total = 0;
  for (auto _ : state) {
    FactSet facts;
    encode_certificate(*corpus.leaves()[i % corpus.leaves().size()].cert,
                       facts);
    facts_total += facts.size();
    benchmark::DoNotOptimize(facts);
    ++i;
  }
  state.counters["facts/cert"] =
      benchmark::Counter(static_cast<double>(facts_total) /
                         static_cast<double>(state.iterations()));
}
BENCHMARK(BM_EncodeCertificate);

void BM_EncodeChain(benchmark::State& state) {
  const Corpus& corpus = bench_corpus();
  std::size_t i = 0;
  for (auto _ : state) {
    FactSet facts;
    Chain chain = corpus.chain_for_leaf(i % corpus.leaves().size());
    encode_chain(chain, "bench-chain", facts);
    benchmark::DoNotOptimize(facts);
    ++i;
  }
}
BENCHMARK(BM_EncodeChain);

void BM_EncodeAndLoadIntoEngine(benchmark::State& state) {
  const Corpus& corpus = bench_corpus();
  std::size_t i = 0;
  for (auto _ : state) {
    FactSet facts;
    Chain chain = corpus.chain_for_leaf(i % corpus.leaves().size());
    encode_chain(chain, "bench-chain", facts);
    anchor::datalog::Engine engine;
    facts.load_into(engine);
    benchmark::DoNotOptimize(engine);
    ++i;
  }
}
BENCHMARK(BM_EncodeAndLoadIntoEngine);

// The verdict path's loader: per GCC, the chain facts its program mentions
// go straight into a reused session (as GccExecutor does per chain).
void run_load_chain(benchmark::State& state,
                    const std::vector<anchor::core::Gcc>& gccs) {
  const Corpus& corpus = bench_corpus();
  anchor::datalog::Session session;
  std::size_t i = 0;
  std::size_t loaded = 0;
  for (auto _ : state) {
    Chain chain = corpus.chain_for_leaf(i % corpus.leaves().size());
    const anchor::core::ChainIds ids(chain);
    for (const anchor::core::Gcc& gcc : gccs) {
      session.prepare(*gcc.compiled());
      anchor::core::load_chain(chain, ids, gcc.fact_relations(), session);
      loaded += session.total_tuples();
    }
    ++i;
  }
  state.counters["loaded/chain"] = benchmark::Counter(
      static_cast<double>(loaded) / static_cast<double>(state.iterations()));
}

void BM_LoadChain_Listing1(benchmark::State& state) {
  static const std::vector<anchor::core::Gcc> gccs = {
      anchor::core::Gcc::create("listing1", std::string(64, 'a'),
                                anchor::incidents::listing1_trustcor())
          .take()};
  run_load_chain(state, gccs);
}
BENCHMARK(BM_LoadChain_Listing1);

// Both GCCs of an anchor carrying every Chrome constraint kind.
void BM_LoadChain_ChromeConstraints(benchmark::State& state) {
  static const std::vector<anchor::core::Gcc> gccs = [] {
    namespace chromeproto = anchor::rootstore::chromeproto;
    chromeproto::Version v100;
    v100.parts = {100, 0, 0, 0};
    v100.written = 1;
    chromeproto::ConstraintBlock block;
    block.sct_not_after_sec = 1'700'000'000;
    block.permitted_dns_names = {"com", "net", "org"};
    block.min_version = v100;
    block.enforce_anchor_expiry = true;
    block.enforce_anchor_constraints = true;
    chromeproto::TrustAnchor anchor;
    anchor.sha256_hex = std::string(64, 'b');
    anchor.ev_policy_oids = {"2.23.140.1.1"};
    anchor.constraints.push_back(block);
    return anchor::rootstore::compile_anchor(anchor).take();
  }();
  run_load_chain(state, gccs);
}
BENCHMARK(BM_LoadChain_ChromeConstraints);

// The paper's headline number, reproduced as a bulk sweep.
void run_e4_headline() {
  constexpr std::size_t kTarget = 100000;
  const Corpus& corpus = bench_corpus();
  const std::size_t population = corpus.leaves().size();

  auto start = std::chrono::steady_clock::now();
  std::size_t facts_total = 0;
  for (std::size_t i = 0; i < kTarget; ++i) {
    FactSet facts;
    encode_certificate(*corpus.leaves()[i % population].cert, facts);
    facts_total += facts.size();
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();

  double mean_us = static_cast<double>(elapsed) / kTarget;
  std::printf("\n=== E4: certificate -> Datalog conversion (paper §3.1) ===\n");
  std::printf("certificates converted : %zu\n", kTarget);
  std::printf("mean facts/certificate : %.1f\n",
              static_cast<double>(facts_total) / kTarget);
  std::printf("mean conversion time   : %.4f ms   (paper: ~2.4 ms unoptimized)\n",
              mean_us / 1000.0);
  std::printf("total sweep time       : %.2f s\n",
              static_cast<double>(elapsed) / 1e6);
  std::printf("shape check            : %s (low-ms-or-less per certificate)\n",
              mean_us / 1000.0 < 2.4 * 4 ? "HOLDS" : "VIOLATED");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_e4_headline();
  return 0;
}
