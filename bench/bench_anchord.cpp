// Experiment E14 — anchord serving throughput: the framed-wire daemon
// measured end to end (encode → frame → session loop → dispatch →
// VerifyService → frame → decode), swept over concurrent connections ×
// pipeline depth.
//
//   * connections — client threads, each with its own Conduit and its own
//     serve() thread on the shared server (the daemon deployment shape:
//     one process, many user agents);
//   * depth — requests a client keeps in flight before claiming the
//     oldest response (depth 1 is strict request/response RPC; deeper
//     pipelines amortise the wire round trip over the worker pool).
//
// Counters come from the same Registry operators would scrape
// (snapshot_delta over the run), not bench-private accounting; the
// headline is items/s at each (connections, depth) point plus wire
// bytes/request. Every connection is an AF_UNIX socketpair, the conduit a
// deployed anchord hands out.
#include <benchmark/benchmark.h>

#include <sched.h>

#include <atomic>
#include <barrier>
#include <deque>
#include <thread>
#include <vector>

#include "anchord/client.hpp"
#include "anchord/server.hpp"
#include "corpus/corpus.hpp"

namespace {

using namespace anchor;

constexpr std::size_t kRequestsPerConnection = 256;

struct Fixture {
  corpus::Corpus corpus;
  rootstore::RootStore store;
  std::int64_t now;
  // Pre-encoded verify requests (leaf + its issuer intermediate), so the
  // measured loop prices the daemon, not request assembly.
  std::vector<anchord::Request> requests;

  Fixture()
      : corpus([] {
          corpus::CorpusConfig config;
          config.num_roots = 10;
          config.num_intermediates = 30;
          // Scale the census-calibrated feature counts down with the
          // corpus (the defaults assume 776 intermediates; asking for more
          // constrained picks than certificates exist never terminates).
          config.roots_with_path_len = 2;
          config.intermediates_with_path_len = 20;
          config.intermediates_with_name_constraints = 2;
          config.roots_with_constrained_chain = 1;
          config.leaves_per_intermediate_mean = 8.0;
          return corpus::Corpus::generate(config);
        }()),
        store(corpus.make_root_store()),
        now(corpus.config().validation_time()) {
    // Scratch service for workload selection: keep only chains the daemon
    // will accept, so every measured response is a full successful verify
    // (a handful of corpus leaves are legitimately constraint-rejected).
    metrics::Registry scratch_registry;
    chain::VerifyService scratch(store, corpus.signatures(), {},
                                 scratch_registry);
    anchord::VerbDispatcher::Backends backends;
    backends.service = &scratch;
    backends.store = &store;
    anchord::VerbDispatcher dispatcher(backends);
    for (std::size_t i = 0; i < corpus.leaves().size(); ++i) {
      const auto& record = corpus.leaves()[i];
      if (record.smime || !record.cert->valid_at(now)) continue;
      const auto& intermediate = corpus.intermediates()[static_cast<std::size_t>(
          record.issuer_intermediate)];
      anchord::Request request;
      request.verb = anchord::Verb::kVerify;
      request.usage = "TLS";
      request.time = now;
      request.hostname = record.domain;
      request.leaf_der = record.cert->der();
      request.intermediates_der = {intermediate.cert->der()};
      if (!dispatcher.dispatch(request).ok) continue;
      requests.push_back(std::move(request));
      if (requests.size() >= 64) break;
    }
  }
};

Fixture& fixture() {
  static Fixture instance;
  return instance;
}

// One client connection's workload: keep `depth` requests in flight until
// kRequestsPerConnection responses have been claimed. Returns responses
// that did not come back ok (overloads would land here).
std::size_t run_connection(anchord::AnchordClient& client, std::size_t depth,
                           std::size_t offset) {
  const Fixture& f = fixture();
  std::deque<std::uint64_t> window;
  std::size_t sent = 0;
  std::size_t failures = 0;
  for (std::size_t done = 0; done < kRequestsPerConnection; ++done) {
    while (sent < kRequestsPerConnection && window.size() < depth) {
      anchord::Request request =
          f.requests[(offset + sent) % f.requests.size()];
      auto id = client.send(std::move(request));
      if (!id.ok()) return kRequestsPerConnection;  // connection died
      window.push_back(id.value());
      ++sent;
    }
    auto response = client.receive(window.front());
    window.pop_front();
    if (!response.ok() || !response.value().ok) ++failures;
  }
  return failures;
}

// The last `count` CPUs this process may run on, highest first.
std::vector<int> last_cpus(std::size_t count) {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpus.size() < count; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

// Pins the calling thread to `cpu`. Only the benchmark's own client and
// serve() threads are pinned; the daemon's worker pool is left to the
// scheduler, as in a deployment.
void pin_to(int cpu) {
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  CPU_SET(cpu, &chosen);
  (void)sched_setaffinity(0, sizeof chosen, &chosen);
}

void report_registry_deltas(benchmark::State& state,
                            const metrics::Snapshot& before,
                            const metrics::Snapshot& after,
                            double total_requests) {
  const metrics::Snapshot delta = metrics::snapshot_delta(before, after);
  auto sample = [&](const std::string& key) {
    auto it = delta.find(key);
    return it == delta.end() ? 0.0 : it->second;
  };
  state.counters["wire_bytes_per_req"] =
      (sample("anchor_anchord_bytes_read_total") +
       sample("anchor_anchord_bytes_written_total")) /
      total_requests;
  state.counters["overloads"] = sample("anchor_anchord_overloads_total");
  state.counters["inline"] = sample("anchor_anchord_inline_total");
  state.counters["served_verify"] =
      sample("anchor_anchord_requests_total{verb=\"verify\"}");
}

void run_throughput(benchmark::State& state, std::size_t workers = 8) {
  Fixture& f = fixture();
  const auto connections = static_cast<std::size_t>(state.range(0));
  const auto depth = static_cast<std::size_t>(state.range(1));

  metrics::Registry registry;
  chain::ServiceConfig service_config;
  service_config.threads = workers;
  chain::VerifyService service(f.store, f.corpus.signatures(), service_config,
                               registry);
  anchord::VerbDispatcher::Backends backends;
  backends.service = &service;
  backends.store = &f.store;
  backends.registry = &registry;
  anchord::AnchordConfig config;
  config.workers = workers;
  config.max_in_flight = 512;  // headroom: this sweep prices throughput,
                               // not the overload path (counted anyway)
  anchord::AnchordServer server(backends, config, registry);

  // Conduits, serve() threads and client threads live for the whole run;
  // each iteration releases every client for one batch of
  // kRequestsPerConnection requests and waits for all of them, so an
  // iteration prices serving, not thread and socket setup. Client c runs
  // on the last CPU, its serve() thread on the one before (when there is
  // one).
  std::vector<anchord::ConduitPair> pairs;
  pairs.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    auto pair = anchord::make_socketpair_conduit();
    if (!pair.ok()) {
      state.SkipWithError(pair.error().c_str());
      return;
    }
    pairs.push_back(std::move(pair).take());
  }
  const std::vector<int> cpus = last_cpus(2);
  auto pin = [&cpus](std::size_t slot) {
    if (!cpus.empty()) pin_to(cpus[slot % cpus.size()]);
  };
  std::vector<std::thread> serve_threads;
  for (std::size_t c = 0; c < connections; ++c) {
    serve_threads.emplace_back([&server, &pairs, &pin, c] {
      pin(1);
      server.serve(*pairs[c].second);
    });
  }
  std::barrier sync(static_cast<std::ptrdiff_t>(connections + 1));
  std::atomic<bool> stop{false};
  std::vector<std::size_t> failures(connections, 0);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      pin(0);
      anchord::AnchordClient client(*pairs[c].first, /*timeout_ms=*/30000);
      for (;;) {
        sync.arrive_and_wait();  // batch start
        if (stop.load()) return;
        failures[c] += run_connection(client, depth, c * 31);
        sync.arrive_and_wait();  // batch done
      }
    });
  }

  const metrics::Snapshot before = registry.snapshot();
  double total_requests = 0;
  for (auto _ : state) {
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    total_requests +=
        static_cast<double>(connections * kRequestsPerConnection);
  }
  stop.store(true);
  sync.arrive_and_wait();
  for (auto& t : clients) t.join();
  for (std::size_t c = 0; c < connections; ++c) pairs[c].first->close();
  for (auto& t : serve_threads) t.join();
  for (std::size_t failed : failures) {
    if (failed != 0) {
      state.SkipWithError("connection saw failed responses");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_requests));
  report_registry_deltas(state, before, registry.snapshot(), total_requests);
}

void BM_Anchord_Throughput(benchmark::State& state) {
  run_throughput(state);
}
BENCHMARK(BM_Anchord_Throughput)
    ->ArgsProduct({{1, 2, 4, 8}, {1, 8, 32}})
    ->ArgNames({"conns", "depth"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Worker-count sweep at a fixed offered load (4 connections × depth 8):
// prices how daemon throughput scales with the shared VerifyService pool.
// On a single-vCPU host the sweep measures scheduling overhead rather
// than parallel speedup; the point is the trend line on real hardware.
void BM_Anchord_WorkerSweep(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(2));
  run_throughput(state, workers);
}
BENCHMARK(BM_Anchord_WorkerSweep)
    ->ArgsProduct({{4}, {8}, {1, 2, 4, 8}})
    ->ArgNames({"conns", "depth", "workers"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Batch verb: one kVerifyBatch frame carrying `batch` leaves that share an
// intermediate pool and one fact-interning arena per dispatch. Items/s
// counts leaf verifications, directly comparable to the single-verb sweep
// at depth ≥ batch (same offered work, one frame instead of N).
void BM_Anchord_Batch(benchmark::State& state) {
  Fixture& f = fixture();
  const auto batch = static_cast<std::size_t>(state.range(0));

  anchord::Request request;
  request.verb = anchord::Verb::kVerifyBatch;
  request.usage = "TLS";
  request.time = f.now;
  std::vector<Bytes> intermediates;
  for (std::size_t i = 0; i < batch; ++i) {
    const anchord::Request& single = f.requests[i % f.requests.size()];
    anchord::BatchEntry entry;
    entry.hostname = single.hostname;
    entry.leaf_der = single.leaf_der;
    request.batch.push_back(std::move(entry));
    for (const Bytes& der : single.intermediates_der) {
      bool seen = false;
      for (const Bytes& have : intermediates) seen = seen || have == der;
      if (!seen) intermediates.push_back(der);
    }
  }
  request.intermediates_der = std::move(intermediates);

  metrics::Registry registry;
  chain::VerifyService service(f.store, f.corpus.signatures(), {}, registry);
  anchord::VerbDispatcher::Backends backends;
  backends.service = &service;
  backends.store = &f.store;
  backends.registry = &registry;
  anchord::AnchordServer server(backends, {}, registry);

  auto made = anchord::make_socketpair_conduit();
  if (!made.ok()) {
    state.SkipWithError(made.error().c_str());
    return;
  }
  anchord::ConduitPair pair = std::move(made).take();
  std::thread serve_thread([&server, &pair] { server.serve(*pair.second); });
  anchord::AnchordClient client(*pair.first, /*timeout_ms=*/30000);

  const metrics::Snapshot before = registry.snapshot();
  double total_leaves = 0;
  for (auto _ : state) {
    auto response = client.call(request);
    if (!response.ok() || !response.value().ok ||
        response.value().batch.size() != batch) {
      state.SkipWithError("batch response not ok");
      break;
    }
    total_leaves += static_cast<double>(batch);
  }
  pair.first->close();
  serve_thread.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(total_leaves));

  const metrics::Snapshot delta =
      metrics::snapshot_delta(before, registry.snapshot());
  auto sample = [&](const std::string& key) {
    auto it = delta.find(key);
    return it == delta.end() ? 0.0 : it->second;
  };
  state.counters["wire_bytes_per_leaf"] =
      (sample("anchor_anchord_bytes_read_total") +
       sample("anchor_anchord_bytes_written_total")) /
      (total_leaves > 0 ? total_leaves : 1.0);
  state.counters["served_batch"] =
      sample("anchor_anchord_requests_total{verb=\"verify-batch\"}");
}
BENCHMARK(BM_Anchord_Batch)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->ArgNames({"batch"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
