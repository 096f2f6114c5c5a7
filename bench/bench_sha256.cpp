// SHA-256 throughput per block kernel (extension; see DESIGN "Hashing").
//
// BM_Sha256/<kernel>/<bytes> hashes one message of that size per
// iteration through `Sha256`, so update's buffering and finish's padding
// are in the figure. The sizes: 32 B (a Merkle node's or SimSig tag's
// input scale), 411 B (the corpus's mean certificate DER, hashed for every
// fingerprint), 4096 B, and 24352 B (feed_churn's store payload, hashed at
// publish, at feed verification and at the client's replica check). The
// sha_ni cases are skipped on a CPU without SHA-NI.
#include <benchmark/benchmark.h>

#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "util/sha256_kernels.hpp"

namespace {

using namespace anchor;

void BM_Sha256(benchmark::State& state, Sha256::Kernel kernel) {
  if (kernel == nullptr) {
    state.SkipWithError("this CPU has no SHA-NI");
    return;
  }
  const auto size = static_cast<std::size_t>(state.range(0));
  Rng rng(size);
  const Bytes message = rng.random_bytes(size);
  for (auto _ : state) {
    Sha256 h(kernel);
    h.update(message);
    benchmark::DoNotOptimize(h.finish());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

Sha256::Kernel sha_ni_if_present() {
#if defined(__x86_64__)
  if (sha256_kernels::cpu_has_sha_ni()) return &sha256_kernels::sha_ni;
#endif
  return nullptr;
}

BENCHMARK_CAPTURE(BM_Sha256, scalar, &sha256_kernels::scalar)
    ->Arg(32)->Arg(411)->Arg(4096)->Arg(24352);
BENCHMARK_CAPTURE(BM_Sha256, sha_ni, sha_ni_if_present())
    ->Arg(32)->Arg(411)->Arg(4096)->Arg(24352);

}  // namespace

BENCHMARK_MAIN();
