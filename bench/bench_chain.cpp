// Experiment E9 — GCC execution placement (§3.1's three deployment
// options) measured on the chain-validation hot path:
//
//   user-agent   — GCCs execute in-process inside the verifier (default);
//   platform     — a trustd-style daemon: certificates cross a DER
//                  serialize/parse boundary plus a simulated IPC round trip
//                  (latency swept);
//   redesign     — the daemon performs complete validation (Hammurabi
//                  model): one IPC round trip for everything.
//
// Both daemon options run on the one serving path: an AnchordServer over a
// VerifyService, reached through an AnchordClient over an AF_UNIX
// socketpair, so every call pays a real kernel round trip. A spin before
// and after each call adds the extra latency of a slower IPC leg (swept).
//
// Baseline: plain validation with no GCCs, to isolate the GCC tax.
//
// The service-mode runs measure the shared VerifyService (the paper's
// machine-wide daemon made concurrent): N caller threads against one
// service whose epoch-keyed verdict cache and DER parse cache are warm.
// Acceptance target: >= 3x the single-threaded BM_Validate_UserAgentGcc
// throughput at 8 threads.
// Experiment E16 — warm start from an mmap snapshot (ColdStart / SteadyAllocs
// benchmarks below): time from "store on disk" to first verdict, text-parse
// vs snapshot-mmap, plus steady-state allocation-per-verify for heap store
// vs StoreView. Cold-start runs print the operator-visible registry gauges
// (anchor_store_*) the started store would expose, so the numbers in
// EXPERIMENTS.md are the counters an operator would scrape.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <new>
#include <thread>

#include "anchord/client.hpp"
#include "anchord/server.hpp"
#include "chain/service.hpp"
#include "corpus/corpus.hpp"
#include "incidents/listings.hpp"
#include "rootstore/snapshot/view.hpp"
#include "rootstore/snapshot/writer.hpp"

// Allocation probe for the SteadyAllocs benchmarks: every operator new in
// the process bumps one relaxed counter. Deltas are read around
// single-threaded measurement loops, so cross-benchmark noise is nil.
// Kept out of line: once GCC inlines both halves at a call site it reads
// malloc paired with operator delete (or operator new with free) and
// warns -Wmismatched-new-delete.
std::atomic<std::uint64_t> g_alloc_calls{0};

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace anchor;

struct Fixture {
  corpus::Corpus corpus;
  rootstore::RootStore store_plain;
  rootstore::RootStore store_gcc;
  chain::CertificatePool pool;
  std::vector<std::size_t> leaf_indices;
  std::int64_t now;

  Fixture()
      : corpus([] {
          corpus::CorpusConfig config;
          config.num_roots = 40;
          config.num_intermediates = 120;
          config.roots_with_path_len = 2;
          config.intermediates_with_path_len = 100;
          config.intermediates_with_name_constraints = 6;
          config.roots_with_constrained_chain = 3;
          config.leaves_per_intermediate_mean = 10.0;
          return corpus::Corpus::generate(config);
        }()),
        store_plain(corpus.make_root_store()),
        store_gcc(corpus.make_root_store()),
        pool(corpus.intermediate_pool()),
        now(corpus.config().validation_time()) {
    // Attach a Listing-1-style GCC to every root: the worst-case "every
    // root constrained" deployment.
    for (const auto& root : corpus.roots()) {
      store_gcc.attach_gcc(
          core::Gcc::for_certificate("date-usage", *root.cert,
                                     incidents::listing1_trustcor())
              .take());
    }
    // Pick TLS leaves that are valid at `now` and predate the Listing 1
    // cutoff (so the GCC accepts them and the full path executes).
    for (std::size_t i = 0; i < corpus.leaves().size(); ++i) {
      const auto& record = corpus.leaves()[i];
      if (record.smime) continue;
      if (!record.cert->valid_at(now)) continue;
      if (record.cert->not_before() >= 1669784400) continue;
      leaf_indices.push_back(i);
      if (leaf_indices.size() >= 200) break;
    }
  }

  chain::VerifyOptions options_for(std::size_t leaf_index) const {
    chain::VerifyOptions options;
    options.time = now;
    options.hostname = corpus.leaves()[leaf_index].domain;
    return options;
  }
};

// Non-const: the service benchmarks hand store_gcc to VerifyService, whose
// constructor takes a mutable reference (mutations flow through mutate()).
// No benchmark actually mutates the stores.
Fixture& fixture() {
  static Fixture instance;
  return instance;
}

void BM_Validate_NoGcc(benchmark::State& state) {
  const Fixture& f = fixture();
  chain::ChainVerifier verifier(f.store_plain, f.corpus.signatures());
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    ++i;
  }
}
BENCHMARK(BM_Validate_NoGcc);

void BM_Validate_UserAgentGcc(benchmark::State& state) {
  const Fixture& f = fixture();
  chain::ChainVerifier verifier(f.store_gcc, f.corpus.signatures());
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    ++i;
  }
}
BENCHMARK(BM_Validate_UserAgentGcc);

// Extra latency on one side of the round trip: a spin, which adds no
// descheduling noise to the E9 sweep the way a sleep would.
void ipc_leg(std::uint64_t ipc_ns) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start <
         std::chrono::nanoseconds(ipc_ns)) {
  }
}

// What an anchord daemon over `service` serves from, as bench_anchord's
// run_throughput wires it.
anchord::VerbDispatcher::Backends daemon_backends(
    chain::VerifyService& service, metrics::Registry& registry) {
  anchord::VerbDispatcher::Backends backends;
  backends.service = &service;
  backends.store = &fixture().store_gcc;
  backends.registry = &registry;
  return backends;
}

// One connection to a daemon: its serve() thread on the far end of an
// AF_UNIX socketpair, the client on the near end. AnchordClient is not
// thread-safe, so every benchmark thread opens its own session.
class DaemonSession {
 public:
  explicit DaemonSession(anchord::AnchordServer& server)
      : conduits_(open_conduits()),
        serve_thread_([&server, this] { server.serve(*conduits_.second); }),
        client_(*conduits_.first) {}

  ~DaemonSession() {
    conduits_.first->close();
    serve_thread_.join();
  }

  DaemonSession(const DaemonSession&) = delete;
  DaemonSession& operator=(const DaemonSession&) = delete;

  // One request across the simulated IPC boundary.
  anchord::Response call(anchord::Request request, std::uint64_t ipc_ns) {
    ipc_leg(ipc_ns);  // request leg
    auto response = client_.call(std::move(request));
    ipc_leg(ipc_ns);  // response leg
    if (!response.ok()) {
      fprintf(stderr, "E9: anchord call failed: %s\n",
              response.error().c_str());
      std::abort();
    }
    return std::move(response).take();
  }

 private:
  static anchord::ConduitPair open_conduits() {
    auto pair = anchord::make_socketpair_conduit();
    if (!pair.ok()) {
      fprintf(stderr, "E9: conduit: %s\n", pair.error().c_str());
      std::abort();
    }
    return std::move(pair).take();
  }

  anchord::ConduitPair conduits_;
  std::thread serve_thread_;
  anchord::AnchordClient client_;
};

// Option 2: the verifier builds the chain, then asks the daemon's
// evaluate-gccs verb for the GCC verdict.
chain::GccHook daemon_gcc_hook(DaemonSession& session, std::uint64_t ipc_ns) {
  return [&session, ipc_ns](const core::Chain& chain, std::string_view usage,
                            std::span<const core::Gcc>, const core::FactSet*,
                            core::GccVerdict&) {
    anchord::Request request;
    request.verb = anchord::Verb::kEvaluateGccs;
    request.usage = std::string(usage);
    request.leaf_der = chain.front()->der();
    for (std::size_t i = 1; i < chain.size(); ++i) {
      request.intermediates_der.push_back(chain[i]->der());
    }
    return session.call(std::move(request), ipc_ns).ok;
  };
}

// Platform daemon: the verifier delegates GCC execution to a daemon of
// its own across the socketpair. Extra latency per leg swept: 0 (the
// socketpair alone), 50us, 500us (loaded system).
void BM_Validate_PlatformDaemon(benchmark::State& state) {
  Fixture& f = fixture();
  const auto ipc_ns = static_cast<std::uint64_t>(state.range(0));
  metrics::Registry registry;
  chain::VerifyService service(f.store_gcc, f.corpus.signatures(), {},
                               registry);
  anchord::AnchordServer daemon(daemon_backends(service, registry), {},
                                registry);
  DaemonSession session(daemon);
  chain::ChainVerifier verifier(f.store_gcc, f.corpus.signatures());
  verifier.set_gcc_hook(daemon_gcc_hook(session, ipc_ns));
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    ++i;
  }
}
BENCHMARK(BM_Validate_PlatformDaemon)
    ->Arg(0)
    ->Arg(50000)
    ->Arg(500000)
    ->ArgNames({"ipc_ns"});

// One service shared by every service-mode benchmark: the point is a
// machine-wide daemon whose caches stay warm across callers. Leaked on
// purpose (benchmark process lifetime).
chain::VerifyService& shared_service() {
  static chain::VerifyService* service = [] {
    Fixture& f = fixture();
    chain::ServiceConfig config;
    config.threads = 8;
    auto* s = new chain::VerifyService(f.store_gcc, f.corpus.signatures(),
                                       config);
    // Warm the verdict + parse caches: one pass over the whole workload.
    for (std::size_t leaf : f.leaf_indices) {
      (void)s->verify(f.corpus.leaves()[leaf].cert, f.pool,
                      f.options_for(leaf));
    }
    return s;
  }();
  return *service;
}

// The daemon in front of shared_service(); leaked likewise, since a
// server outlives every serve() call on it.
anchord::AnchordServer& shared_daemon() {
  static anchord::AnchordServer* server = new anchord::AnchordServer(
      daemon_backends(shared_service(), metrics::Registry::global()));
  return *server;
}

// Concurrency sweep: N benchmark threads call the shared service
// synchronously on the warm-cache workload. Throughput (items/s, real
// time) at Threads(8) vs BM_Validate_UserAgentGcc is the E9 service-mode
// headline.
void BM_Validate_ServiceWarm(benchmark::State& state) {
  Fixture& f = fixture();
  chain::VerifyService& service = shared_service();
  std::size_t i = static_cast<std::size_t>(state.thread_index());
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = service.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                 f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    i += static_cast<std::size_t>(state.threads());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const chain::ServiceStats stats = service.stats();
    const double lookups =
        static_cast<double>(stats.verdict_hits + stats.verdict_misses);
    state.counters["verdict_hit_rate"] =
        lookups > 0 ? static_cast<double>(stats.verdict_hits) / lookups : 0.0;
    state.counters["epoch"] = static_cast<double>(stats.epoch);
  }
}
BENCHMARK(BM_Validate_ServiceWarm)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// Batch front end: one caller submits the whole workload to the service,
// which fans it across its own worker pool, then gathers every future.
void BM_Validate_ServiceBatch(benchmark::State& state) {
  Fixture& f = fixture();
  chain::VerifyService& service = shared_service();
  // Non-owning alias of the fixture's pool, which outlives every task.
  std::shared_ptr<const chain::CertificatePool> pool(
      std::shared_ptr<const chain::CertificatePool>{}, &f.pool);
  chain::VerifyOptions options;
  options.time = f.now;
  std::vector<std::future<chain::VerifyResult>> pending;
  pending.reserve(f.leaf_indices.size());
  for (auto _ : state) {
    for (std::size_t leaf : f.leaf_indices) {
      pending.push_back(
          service.submit(f.corpus.leaves()[leaf].cert, pool, options));
    }
    for (auto& future : pending) benchmark::DoNotOptimize(future.get());
    pending.clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.leaf_indices.size()));
}
BENCHMARK(BM_Validate_ServiceBatch)->UseRealTime();

// Concurrency x IPC latency: N user agents validate in parallel, each
// over its own session to the shared daemon, which runs their GCCs.
void BM_Validate_PlatformDaemonService(benchmark::State& state) {
  Fixture& f = fixture();
  const auto ipc_ns = static_cast<std::uint64_t>(state.range(0));
  DaemonSession session(shared_daemon());
  chain::ChainVerifier verifier(f.store_gcc, f.corpus.signatures());
  verifier.set_gcc_hook(daemon_gcc_hook(session, ipc_ns));
  std::size_t i = static_cast<std::size_t>(state.thread_index());
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    i += static_cast<std::size_t>(state.threads());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Validate_PlatformDaemonService)
    ->ArgsProduct({{0, 50000}})
    ->ArgNames({"ipc_ns"})
    ->Threads(1)
    ->Threads(8)
    ->UseRealTime();

// Complete redesign: the daemon's verify verb does the whole validation.
void BM_Validate_DaemonRedesign(benchmark::State& state) {
  Fixture& f = fixture();
  const auto ipc_ns = static_cast<std::uint64_t>(state.range(0));
  metrics::Registry registry;
  chain::VerifyService service(f.store_gcc, f.corpus.signatures(), {},
                               registry);
  anchord::AnchordServer daemon(daemon_backends(service, registry), {},
                                registry);
  DaemonSession session(daemon);
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    const auto& record = f.corpus.leaves()[leaf];
    const auto& intermediate =
        f.corpus.intermediates()[static_cast<std::size_t>(
            record.issuer_intermediate)];
    anchord::Request request;
    request.verb = anchord::Verb::kVerify;
    request.usage = chain::usage_name(chain::Usage::kTls);
    request.time = f.now;
    request.hostname = record.domain;
    request.leaf_der = record.cert->der();
    request.intermediates_der = {intermediate.cert->der()};
    auto response = session.call(std::move(request), ipc_ns);
    benchmark::DoNotOptimize(response);
    ++i;
  }
}
BENCHMARK(BM_Validate_DaemonRedesign)->Arg(0)->Arg(50000)->ArgNames({"ipc_ns"});

// ---------------------------------------------------------------------------
// E16 — warm start from an mmap snapshot.

struct ColdStartAssets {
  std::string text;       // RSF-grammar text form (what a mirror stores)
  std::string snap_path;  // mmap snapshot written from the same store
};

ColdStartAssets& cold_start_assets() {
  static ColdStartAssets assets = [] {
    Fixture& f = fixture();
    ColdStartAssets a;
    a.text = f.store_gcc.serialize();
    const char* tmp = std::getenv("TMPDIR");
    a.snap_path = std::string(tmp != nullptr ? tmp : "/tmp") +
                  "/anchor-bench-e16.snap";
    auto status =
        rootstore::snapshot::write_snapshot_file(f.store_gcc, a.snap_path);
    if (!status.ok()) {
      fprintf(stderr, "E16: snapshot write failed: %s\n",
              status.error().c_str());
      std::abort();
    }
    return a;
  }();
  return assets;
}

// The registry delta a cold start produces: the anchor_store_* gauges the
// freshly started store would expose to the first scrape.
void report_cold_start_registry(benchmark::State& state,
                                const rootstore::StoreReader& store) {
  metrics::Registry registry;
  rootstore::export_store_metrics(store, registry);
  state.counters["trusted_roots"] = static_cast<double>(
      registry.gauge("anchor_store_trusted_roots").value());
  state.counters["gccs"] =
      static_cast<double>(registry.gauge("anchor_store_gccs").value());
  state.counters["store_epoch"] =
      static_cast<double>(registry.gauge("anchor_store_epoch").value());
}

// Baseline cold start: parse the text serialization — which re-parses and
// re-compiles every GCC's Datalog source — then serve one verdict.
void BM_ColdStart_TextParse(benchmark::State& state) {
  const Fixture& f = fixture();
  const ColdStartAssets& assets = cold_start_assets();
  const std::size_t leaf = f.leaf_indices[0];
  for (auto _ : state) {
    auto store = rootstore::RootStore::deserialize(assets.text);
    if (!store) std::abort();
    chain::ChainVerifier verifier(store.value(), f.corpus.signatures());
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
  }
  report_cold_start_registry(state, f.store_gcc);
}
BENCHMARK(BM_ColdStart_TextParse);

// Snapshot cold start: mmap the snapshot — compiled GCC programs
// deserialize without touching the Datalog front end, certificates load
// from DER — then serve the same verdict through the StoreView.
void BM_ColdStart_SnapshotMmap(benchmark::State& state) {
  const Fixture& f = fixture();
  const ColdStartAssets& assets = cold_start_assets();
  const std::size_t leaf = f.leaf_indices[0];
  for (auto _ : state) {
    auto opened = rootstore::snapshot::StoreView::open(assets.snap_path);
    if (!opened.ok()) std::abort();
    chain::ChainVerifier verifier(*opened.view, f.corpus.signatures());
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
  }
  auto opened = rootstore::snapshot::StoreView::open(assets.snap_path);
  if (opened.ok()) report_cold_start_registry(state, *opened.view);
}
BENCHMARK(BM_ColdStart_SnapshotMmap);

// Steady state: allocations per verify through the heap store vs through
// the mmap StoreView. The snapshot claim is that the *start* gets cheap
// without the *serving* path paying for it — allocs_per_verify must match.
void BM_SteadyAllocs_HeapStore(benchmark::State& state) {
  const Fixture& f = fixture();
  chain::ChainVerifier verifier(f.store_gcc, f.corpus.signatures());
  std::size_t i = 0;
  const std::uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    ++i;
  }
  const auto delta =
      g_alloc_calls.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_verify"] =
      static_cast<double>(delta) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
}
BENCHMARK(BM_SteadyAllocs_HeapStore);

void BM_SteadyAllocs_SnapshotView(benchmark::State& state) {
  const Fixture& f = fixture();
  const ColdStartAssets& assets = cold_start_assets();
  auto opened = rootstore::snapshot::StoreView::open(assets.snap_path);
  if (!opened.ok()) std::abort();
  chain::ChainVerifier verifier(*opened.view, f.corpus.signatures());
  std::size_t i = 0;
  const std::uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    ++i;
  }
  const auto delta =
      g_alloc_calls.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_verify"] =
      static_cast<double>(delta) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
}
BENCHMARK(BM_SteadyAllocs_SnapshotView);

}  // namespace

BENCHMARK_MAIN();
