// Experiment E13 (extension) — cost of the Certificate Transparency
// machinery that §5.2's measurement methodology presumes ("operators can
// more easily examine scopes of issuance because all certificates must be
// publicly logged") and that §4 suggests for feed security ("the potential
// use of immutable logs").
//
// Micro-benchmarks log append / proof generation / proof verification, and
// prints the proof-size table: audit paths grow with log2(n), which is what
// makes continuous monitoring of a CT-scale log tractable.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "corpus/corpus.hpp"
#include "ctlog/log.hpp"
#include "ctlog/merkle.hpp"

namespace {

using namespace anchor;

struct Fixture {
  SimSig registry;
  ctlog::CtLog log{"bench-log", registry};
  corpus::Corpus corpus;

  Fixture()
      : corpus([] {
          corpus::CorpusConfig config;
          config.num_roots = 20;
          config.num_intermediates = 60;
          config.roots_with_path_len = 1;
          config.intermediates_with_path_len = 50;
          config.intermediates_with_name_constraints = 3;
          config.roots_with_constrained_chain = 2;
          config.leaves_per_intermediate_mean = 30.0;
          return corpus::Corpus::generate(config);
        }()) {
    for (const auto& record : corpus.leaves()) {
      log.submit(record.cert, 0);
    }
  }
};

Fixture& fixture() {
  static Fixture instance;
  return instance;
}

void BM_LogSubmit(benchmark::State& state) {
  const auto& corpus = fixture().corpus;
  SimSig registry;
  ctlog::CtLog log("submit-bench", registry);
  std::size_t i = 0;
  for (auto _ : state) {
    log.submit(corpus.leaves()[i % corpus.leaves().size()].cert,
               static_cast<std::int64_t>(i));
    ++i;
  }
}
BENCHMARK(BM_LogSubmit);

void BM_InclusionProofGenerate(benchmark::State& state) {
  Fixture& f = fixture();
  const std::uint64_t size = f.log.size();
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto proof = f.log.inclusion_proof(i % size, size);
    benchmark::DoNotOptimize(proof);
    ++i;
  }
}
BENCHMARK(BM_InclusionProofGenerate);

void BM_InclusionProofVerify(benchmark::State& state) {
  Fixture& f = fixture();
  const std::uint64_t size = f.log.size();
  auto head = f.log.sth();
  auto proof = f.log.inclusion_proof(size / 2, size);
  auto leaf = f.log.entry_leaf_hash(size / 2);
  for (auto _ : state) {
    bool ok = ctlog::verify_inclusion(leaf, size / 2, size, proof,
                                      head.root_hash);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_InclusionProofVerify);

void BM_ConsistencyProofVerify(benchmark::State& state) {
  Fixture& f = fixture();
  const std::uint64_t size = f.log.size();
  auto proof = f.log.consistency_proof(size / 3, size);
  auto old_head = f.log.sth_at(size / 3);
  auto new_head = f.log.sth_at(size);
  for (auto _ : state) {
    bool ok = ctlog::verify_consistency(size / 3, size, old_head.root_hash,
                                        new_head.root_hash, proof);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_ConsistencyProofVerify);

// A raw tree of state.range(0) leaves (each entry is its index as 8
// bytes), built once per size: the tree heads and consistency proofs an
// RSF feed signs and serves, without the log's certificate handling.
const ctlog::MerkleTree& raw_tree(std::uint64_t leaves) {
  static std::map<std::uint64_t, ctlog::MerkleTree> trees;
  auto [it, inserted] = trees.try_emplace(leaves);
  if (inserted) {
    for (std::uint64_t i = 0; i < leaves; ++i) {
      it->second.append(BytesView(reinterpret_cast<const std::uint8_t*>(&i),
                                  sizeof(i)));
    }
  }
  return it->second;
}

// Signed-tree-head root over a historical size: each iteration asks for a
// different size in the top half of the tree.
void BM_TreeHead(benchmark::State& state) {
  const auto& tree = raw_tree(static_cast<std::uint64_t>(state.range(0)));
  const std::uint64_t n = tree.size();
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto root = tree.root_at(n - (i % (n / 2)));
    benchmark::DoNotOptimize(root);
    ++i;
  }
}
BENCHMARK(BM_TreeHead)->Arg(1 << 10)->Arg(1 << 16);

// A poller's consistency proof to the head, from a size in the top half:
// a poller 1 to n/2 updates behind.
void BM_ConsistencyProofGenerate(benchmark::State& state) {
  const auto& tree = raw_tree(static_cast<std::uint64_t>(state.range(0)));
  const std::uint64_t n = tree.size();
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto proof = tree.consistency_proof(n - 1 - (i % (n / 2)), n);
    benchmark::DoNotOptimize(proof);
    ++i;
  }
}
BENCHMARK(BM_ConsistencyProofGenerate)->Arg(1 << 10)->Arg(1 << 16);

void BM_MonitorFullScan(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    ctlog::LogMonitor monitor(f.log, f.registry);
    auto consumed = monitor.poll();
    benchmark::DoNotOptimize(consumed);
  }
  state.counters["entries"] = static_cast<double>(f.log.size());
}
BENCHMARK(BM_MonitorFullScan);

void print_proof_size_table() {
  SimSig registry;
  ctlog::CtLog log("size-table", registry);
  const auto& corpus = fixture().corpus;
  std::printf("\n=== E13: CT audit-path size vs log size ===\n");
  std::printf("%12s %16s %20s\n", "log size", "path hashes",
              "proof bytes (32/hash)");
  std::uint64_t next_checkpoint = 64;
  for (std::size_t i = 0; i < corpus.leaves().size(); ++i) {
    log.submit(corpus.leaves()[i % corpus.leaves().size()].cert, 0);
    if (log.size() == next_checkpoint) {
      auto proof = log.inclusion_proof(log.size() / 2, log.size());
      std::printf("%12llu %16zu %20zu\n",
                  static_cast<unsigned long long>(log.size()), proof.size(),
                  proof.size() * 32);
      next_checkpoint *= 4;
    }
  }
  std::printf("(logarithmic growth: monitoring stays cheap at CT scale — the\n"
              " premise of the paper's §5.2 measurement methodology)\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_proof_size_table();
  return 0;
}
