// Experiments E1 + E2 — GCC evaluation cost for the paper's Listings 1 and
// 2, with the semi-naive vs naive evaluation ablation (DESIGN.md §7).
//
// The paper reports no evaluation-latency number (only the conversion
// cost), so the shape to establish is: executing a realistic GCC against a
// 3-certificate chain costs the same order as the fact conversion itself —
// i.e. GCCs are cheap enough to run inside the TLS handshake path.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/executor.hpp"
#include "incidents/incidents.hpp"
#include "incidents/listings.hpp"
#include "oracle/evaluator.hpp"
#include "oracle/model.hpp"
#include "util/metrics.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"
#include "x509/oids.hpp"

namespace {

using namespace anchor;
using core::Chain;
using core::Gcc;
using core::GccExecutor;

struct BenchPki {
  SimKeyPair root_key = SimSig::keygen("Bench Root");
  SimKeyPair int_key = SimSig::keygen("Bench Int");
  x509::CertPtr root, intermediate;
  Gcc listing1;
  Gcc listing2;

  BenchPki()
      : root(x509::CertificateBuilder()
                 .serial(1)
                 .subject(x509::DistinguishedName::make("Bench Root", "T"))
                 .issuer(x509::DistinguishedName::make("Bench Root", "T"))
                 .validity(0, unix_date(2040, 1, 1))
                 .public_key(root_key.key_id)
                 .ca(std::nullopt)
                 .sign(root_key)
                 .take()),
        intermediate(x509::CertificateBuilder()
                         .serial(2)
                         .subject(x509::DistinguishedName::make("Bench Int", "T"))
                         .issuer(root->subject())
                         .validity(0, unix_date(2039, 1, 1))
                         .public_key(int_key.key_id)
                         .ca(0)
                         .sign(root_key)
                         .take()),
        listing1(Gcc::for_certificate("listing1", *root,
                                      incidents::listing1_trustcor())
                     .take()),
        listing2(Gcc::for_certificate(
                     "listing2", *root,
                     incidents::listing2_symantec(
                         {intermediate->fingerprint_hex()}))
                     .take()) {}

  x509::CertPtr leaf(std::int64_t not_before, bool ev) const {
    SimKeyPair key = SimSig::keygen("bench-leaf");
    auto builder = x509::CertificateBuilder()
                       .serial(3)
                       .subject(x509::DistinguishedName::make("bench.example.com"))
                       .issuer(intermediate->subject())
                       .validity(not_before, not_before + 90 * 86400)
                       .public_key(key.key_id)
                       .dns_names({"bench.example.com"})
                       .extended_key_usage({x509::oids::kp_server_auth()});
    if (ev) builder.ev();
    return builder.sign(int_key).take();
  }

  Chain chain(std::int64_t not_before = 1600000000, bool ev = false) const {
    return Chain{leaf(not_before, ev), intermediate, root};
  }
};

const BenchPki& pki() {
  static const BenchPki instance;
  return instance;
}

void BM_Listing1_Tls(benchmark::State& state) {
  GccExecutor executor;
  Chain chain = pki().chain();
  for (auto _ : state) {
    bool ok = executor.evaluate_one(chain, "TLS", pki().listing1);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Listing1_Tls);

void BM_Listing1_Smime(benchmark::State& state) {
  GccExecutor executor;
  Chain chain = pki().chain();
  for (auto _ : state) {
    bool ok = executor.evaluate_one(chain, "S/MIME", pki().listing1);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Listing1_Smime);

void BM_Listing2_PreCutoffLeaf(benchmark::State& state) {
  GccExecutor executor;
  Chain chain = pki().chain(1400000000);  // before June 2016
  for (auto _ : state) {
    bool ok = executor.evaluate_one(chain, "TLS", pki().listing2);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Listing2_PreCutoffLeaf);

void BM_Listing2_ExemptIntermediate(benchmark::State& state) {
  GccExecutor executor;
  Chain chain = pki().chain(1500000000);  // post-cutoff: exemption path fires
  for (auto _ : state) {
    bool ok = executor.evaluate_one(chain, "TLS", pki().listing2);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Listing2_ExemptIntermediate);

// Ablation: semi-naive vs naive bottom-up evaluation on the same GCC.
void BM_Ablation_SemiNaive(benchmark::State& state) {
  GccExecutor executor(datalog::Strategy::kSemiNaive);
  Chain chain = pki().chain();
  for (auto _ : state) {
    bool ok = executor.evaluate_one(chain, "TLS", pki().listing2);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Ablation_SemiNaive);

void BM_Ablation_Naive(benchmark::State& state) {
  GccExecutor executor(datalog::Strategy::kNaive);
  Chain chain = pki().chain();
  for (auto _ : state) {
    bool ok = executor.evaluate_one(chain, "TLS", pki().listing2);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Ablation_Naive);

// A recursion-heavy GCC (transitive signs closure over a deep chain) where
// the strategies genuinely diverge.
void BM_Ablation_RecursiveGcc(benchmark::State& state) {
  const bool semi = state.range(0) == 0;
  GccExecutor executor(semi ? datalog::Strategy::kSemiNaive
                            : datalog::Strategy::kNaive);
  Gcc recursive =
      Gcc::for_certificate(
          "recursive", *pki().root,
          "descends(X, Y) :- signs(X, Y).\n"
          "descends(X, Z) :- descends(X, Y), signs(Y, Z).\n"
          "valid(Chain, _) :- root(Chain, R), leaf(Chain, L), descends(R, L).")
          .take();

  // Build a deep chain: leaf <- I1 <- ... <- I6 <- root.
  SimKeyPair parent_key = pki().root_key;
  x509::DistinguishedName parent_dn = pki().root->subject();
  Chain chain;
  std::vector<x509::CertPtr> links;
  for (int i = 0; i < 6; ++i) {
    SimKeyPair key = SimSig::keygen("deep" + std::to_string(i));
    auto cert = x509::CertificateBuilder()
                    .serial(static_cast<std::uint64_t>(10 + i))
                    .subject(x509::DistinguishedName::make(
                        "Deep CA " + std::to_string(i), "T"))
                    .issuer(parent_dn)
                    .validity(0, unix_date(2039, 1, 1))
                    .public_key(key.key_id)
                    .ca(std::nullopt)
                    .sign(parent_key)
                    .take();
    links.push_back(cert);
    parent_key = key;
    parent_dn = cert->subject();
  }
  SimKeyPair leaf_key = SimSig::keygen("deep-leaf");
  auto leaf = x509::CertificateBuilder()
                  .serial(99)
                  .subject(x509::DistinguishedName::make("deep.example.com"))
                  .issuer(parent_dn)
                  .validity(0, unix_date(2039, 1, 1))
                  .public_key(leaf_key.key_id)
                  .dns_names({"deep.example.com"})
                  .sign(parent_key)
                  .take();
  // Leaf-first order: links[5] signed the leaf, links[0] was signed by root.
  chain.push_back(leaf);
  for (auto it = links.rbegin(); it != links.rend(); ++it) chain.push_back(*it);
  chain.push_back(pki().root);

  for (auto _ : state) {
    bool ok = executor.evaluate_one(chain, "TLS", recursive);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Ablation_RecursiveGcc)->Arg(0)->Arg(1)->ArgNames({"naive"});

// In-tree baseline for the compiled pipeline: the pre-split evaluation
// path, which built a fresh interpreter per evaluation (re-stratification,
// greedy re-ordering) and joined on string-compared Values. It now runs
// the test-only oracle Evaluator over a fresh Database, the same work, so
// the compiled/interpreted ratio stays measurable on any machine, not just
// in EXPERIMENTS.md history.
bool interpreted_evaluate_one(const Chain& chain, std::string_view usage,
                              const Gcc& gcc,
                              datalog::Strategy strategy) {
  auto evaluator = datalog::Evaluator::create(gcc.program(), strategy);
  if (!evaluator) return false;

  core::FactSet facts;
  const std::string chain_id = core::chain_id_of(chain);
  core::encode_chain(chain, chain_id, facts);
  datalog::Database db;
  datalog::load_facts(facts, db);

  const datalog::EvalStats stats = evaluator.value().run(db);
  const datalog::Relation* valid = db.find("valid", 2);
  return !stats.truncated && valid != nullptr &&
         valid->contains({datalog::Value(chain_id),
                          datalog::Value(std::string(usage))});
}

void BM_Interpreted_Listing1_Tls(benchmark::State& state) {
  Chain chain = pki().chain();
  for (auto _ : state) {
    bool ok = interpreted_evaluate_one(chain, "TLS", pki().listing1,
                                       datalog::Strategy::kSemiNaive);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Interpreted_Listing1_Tls);

void BM_Interpreted_Listing2_ExemptIntermediate(benchmark::State& state) {
  Chain chain = pki().chain(1500000000);
  for (auto _ : state) {
    bool ok = interpreted_evaluate_one(chain, "TLS", pki().listing2,
                                       datalog::Strategy::kSemiNaive);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Interpreted_Listing2_ExemptIntermediate);

// Several GCCs attached to the same root: GccExecutor::evaluate encodes
// the chain once and runs each precompiled program against it, so the
// per-GCC marginal cost is the evaluation alone.
void BM_ManyGccsPerRoot(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<Gcc> gccs;
  for (std::size_t i = 0; i < count; ++i) {
    gccs.push_back((i % 2 == 0 ? pki().listing1 : pki().listing2));
  }
  GccExecutor executor;
  Chain chain = pki().chain();
  for (auto _ : state) {
    core::GccVerdict verdict = executor.evaluate(chain, "S/MIME", gccs);
    benchmark::DoNotOptimize(verdict.allowed);
  }
  state.counters["gccs"] = static_cast<double>(count);
}
BENCHMARK(BM_ManyGccsPerRoot)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

// Every evaluation above also ran through the process-wide metrics
// registry (GccExecutor's anchor_gcc_* / anchor_datalog_* series). The
// run's registry delta is printed alongside the benchmark numbers so
// EXPERIMENTS figures come from the same counters `anchorctl metrics` and
// the daemon's metrics verb expose — not bench-private accounting.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const anchor::metrics::Snapshot before =
      anchor::metrics::Registry::global().snapshot();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const anchor::metrics::Snapshot delta = anchor::metrics::snapshot_delta(
      before, anchor::metrics::Registry::global().snapshot());
  std::printf("\n=== registry delta over this run "
              "(same series anchorctl metrics serves) ===\n");
  for (const auto& [key, value] : delta) {
    if (key.find("_bucket{") != std::string::npos) continue;  // keep it short
    std::printf("%-48s %.6g\n", key.c_str(), value);
  }
  return 0;
}
