// verdictbench — the repository's end-to-end benchmark of the verdict path.
//
//   verdictbench --workload <warm_repeat|cold_diverse|ua_context|feed_churn>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--workdir <dir>] [--commit <id>]
//
// Every load is a closed loop: one caller thread waits for each verdict
// before it sends the next request. Every verdict is compared with the one
// an uncached ChainVerifier computed at generation time; a wrong verdict,
// transport error, overload or timeout is a failure and makes the exit code
// non-zero. A correct rejection is a correct answer.
//
// --trace 0 prints the end-to-end metrics, each time scaled to the host
// speed that reference passes measured beside it (reference.hpp). --trace 1
// first runs the same untraced phase for half the time, then a traced phase
// for the other half on a fresh stack whose signature scheme and revocation
// source are timing wrappers, with shadow calls into each layer on the same
// inputs; it prints the per-layer metrics (see README.md for every
// definition).
//
// The last line of standard output is the result object; the line before
// it is the host-noise record.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <sched.h>
#include <unistd.h>
#include <vector>

#include "anchord/dispatch.hpp"
#include "anchord/wire.hpp"
#include "chain/verifier.hpp"
#include "core/executor.hpp"
#include "net/transport.hpp"
#include "probes.hpp"
#include "reference.hpp"
#include "stats.hpp"
#include "util/sha256.hpp"
#include "workloads.hpp"

#ifndef VERDICTBENCH_BUILD_TYPE
#define VERDICTBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VERDICTBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VERDICTBENCH_SANITIZED 1
#endif
#endif

namespace verdictbench {
namespace {

using namespace anchor;

constexpr int kRounds = 5;
constexpr int kColdStarts = 200;  // set-up samples per run
// Without concurrent updates, a fifth of the run is spent on updates back
// to back (at least kMinUpdatesPerRound per round), between the reads.
constexpr double kUpdateShare = 0.2;
constexpr int kMinUpdatesPerRound = 6;
constexpr auto kChurnCadence = std::chrono::milliseconds(100);
constexpr std::size_t kAllocPassRequests = 256;
constexpr double kUnattributedWarnShare = 0.15;
// Reads are scaled to the reference in windows this long: short against
// the minutes a host speed episode lasts, long enough for ~100 passes.
constexpr std::uint64_t kWindowNs = 250'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".";
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        error = "--trace takes 0 or 1";
        return false;
      }
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      error = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  if (!have_workload) error = "--workload is required";
  if (args.seconds < 1) error = "--seconds must be at least 1";
  return error.empty();
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

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

// Pins the calling thread, and every thread it starts later, to `cpu`.
// Each load thread gets a CPU of its own: the anchord round trip is then a
// sequence of context switches on one core instead of cross-vCPU wakeups,
// whose cost on a VM swings with steal time, and feed_churn's reader and
// updater never time-share a core.
void pin_to(int cpu) {
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  CPU_SET(cpu, &chosen);
  (void)sched_setaffinity(0, sizeof chosen, &chosen);
}

// Operations attempted and failed across every phase of the run. The
// first failure is described on standard error.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> transport{0};
  std::atomic<std::uint64_t> updates_failed{0};

  void check(const Outcome& outcome, const Verdict& expected) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!outcome.delivered) {
      if (transport.fetch_add(1, std::memory_order_relaxed) == 0) {
        std::fprintf(stderr, "verdictbench: transport error: %s\n",
                     outcome.error.c_str());
      }
    } else if (!(outcome.verdict == expected)) {
      if (wrong.fetch_add(1, std::memory_order_relaxed) == 0) {
        std::fprintf(stderr, "verdictbench: wrong verdict: got %s, expected %s\n",
                     chain::to_string(outcome.verdict.kind),
                     chain::to_string(expected.kind));
      }
    }
  }
  void update(const UpdateSample& sample) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!sample.correct &&
        updates_failed.fetch_add(1, std::memory_order_relaxed) == 0) {
      std::fprintf(stderr, "verdictbench: an update did not reach the sentinel verdict\n");
    }
  }
  std::uint64_t failed() const {
    return wrong.load() + transport.load() + updates_failed.load();
  }
};

// Runs Updater::step on its own thread at a fixed cadence until stopped,
// with a reference pass after each update.
class ChurnThread {
 public:
  ChurnThread(Updater& updater, Tally& tally, bool traced, int cpu)
      : thread_([this, &updater, &tally, traced, cpu] {
          if (cpu >= 0) pin_to(cpu);
          const ScopedSlot slot(kUpdater);
          auto next = std::chrono::steady_clock::now();
          std::unique_lock<std::mutex> lock(mu_);
          while (!stop_) {
            next += kChurnCadence;
            if (cv_.wait_until(lock, next, [this] { return stop_; })) break;
            lock.unlock();
            UpdateSample sample = updater.step(traced);
            tally.update(sample);
            ref_.sample();
            lock.lock();
            samples_.push_back(sample);
          }
        }) {}
  ~ChurnThread() { stop(); }
  ChurnThread(const ChurnThread&) = delete;
  ChurnThread& operator=(const ChurnThread&) = delete;

  std::vector<UpdateSample> stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return samples_;
  }
  // The factor for the updater thread's times; call after stop().
  double scale() { return ref_.scale(0); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<UpdateSample> samples_;
  ReferenceClock ref_;  // written by the thread only
  std::thread thread_;  // last: started after the members it uses
};

// One round's figures (host record), scaled to the reference except
// raw_p50_us and ref_us.
struct RoundFigures {
  double p50_us = 0, raw_p50_us = 0, ref_us = 0;
};

struct Phase {
  std::vector<std::uint32_t> latency_ns;  // preallocated and touched
  std::vector<float> scaled_us;           // the same, scaled per window
  std::size_t samples = 0;
  std::uint64_t verifies = 0;
  double scaled_cpu_ns = 0;  // process CPU of the read loops, scaled per window
  HostCpu host;              // host CPU ticks spent during the read loops
  ReferenceClock ref;        // passes between requests

  double steal_share() const {
    return host.total > 0 ? static_cast<double>(host.steal) /
                                static_cast<double>(host.total)
                          : 0.0;
  }
};

// The closed loop: issue, wait, check, repeat until `deadline`. The loop
// runs in windows of kWindowNs; each window's latencies and CPU time are
// scaled by the reference passes taken within it.
void run_loop(Stack& stack, const Inputs& in, std::size_t& cursor,
              std::uint64_t deadline, Tally& tally, Phase& phase) {
  const HostCpu host0 = read_host_cpu();
  const std::size_t n = in.requests.size();
  for (std::uint64_t t1 = now_ns(); t1 < deadline;) {
    const std::size_t from = phase.samples;
    const std::size_t ref_from = phase.ref.size();
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t ref_cpu0 = phase.ref.cpu_ns();
    const std::uint64_t window_end = std::min(deadline, t1 + kWindowNs);
    while (t1 < window_end) {
      const Request& request = in.requests[cursor++ % n];
      const std::uint64_t t0 = now_ns();
      const Outcome outcome = stack.issue(request);
      t1 = now_ns();
      if (phase.samples < phase.latency_ns.size()) {
        phase.latency_ns[phase.samples++] =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(t1 - t0, UINT32_MAX));
      }
      ++phase.verifies;
      tally.check(outcome, request.expected);
      phase.ref.tick(t1);
    }
    const double scale = phase.ref.scale(ref_from);
    for (std::size_t i = from; i < phase.samples; ++i) {
      phase.scaled_us[i] = static_cast<float>(phase.latency_ns[i] / 1e3 * scale);
    }
    const std::uint64_t cpu =
        process_cpu_ns() - cpu0 - (phase.ref.cpu_ns() - ref_cpu0);
    phase.scaled_cpu_ns += static_cast<double>(cpu) * scale;
  }
  const HostCpu host1 = read_host_cpu();
  phase.host.total += host1.total - host0.total;
  phase.host.steal += host1.steal - host0.steal;
}

std::vector<double> latencies_us(const Phase& phase) {
  std::vector<double> out(phase.samples);
  for (std::size_t i = 0; i < phase.samples; ++i) out[i] = phase.latency_ns[i] / 1e3;
  return out;
}

// Enough passes that both caches hold a hot set; one pass for
// cold_diverse, whose caches never hit by construction.
void warm(Stack& stack, const Inputs& in, Tally& tally, std::size_t hot_passes = 20) {
  const std::size_t passes = in.hot_set ? hot_passes : 1;
  for (std::size_t p = 0; p < passes; ++p) {
    for (const Request& r : in.requests) tally.check(stack.issue(r), r.expected);
  }
}

template <typename F>
std::vector<double> column(const std::vector<UpdateSample>& samples, F field) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const UpdateSample& s : samples) out.push_back(field(s));
  return out;
}

// What the GCC hook of the shadow verifier saw for one request: the cost
// of encoding the chain (plus the caller's context facts) and of
// evaluating its GCCs, summed over every root the search reached.
struct GccProbe {
  const rootstore::ChainContext* chain_context = nullptr;
  std::uint64_t runs = 0, encode_ns = 0, eval_ns = 0;
  std::uint64_t facts = 0, gccs = 0, derived = 0;
  std::uint64_t encode_allocs = 0, eval_allocs = 0;
};

struct Shadow {
  double parse_us_per_cert = 0, parse_allocs_per_cert = 0;
  double search_us = 0, search_allocs = 0;
  double sig_call_us = -1, rev_call_us = -1;  // -1: no call on this request
  GccProbe gcc;
  double dispatch_us = 0, direct_us = 0;
  double codec_us = 0, codec_allocs = 0, wire_bytes = 0;
};

// Shadow calls into each layer on a traced request's own inputs, made
// after its verdict came back (so outside its timed span) on the calling
// thread, with the signature and revocation wrappers in the kShadow slot.
class ShadowProbes {
 public:
  ShadowProbes(const Inputs& in,
               std::shared_ptr<const rootstore::snapshot::StoreView> view,
               const SignatureScheme& timed, Stack& stack)
      : in_(in),
        view_(std::move(view)),
        search_(*view_, timed),
        gcc_(*view_, timed),
        executor_(datalog::Strategy::kSemiNaive, registry_),
        dispatcher_(backends(stack)),
        stack_(stack) {
    search_.add_revocation_source(std::make_shared<TimedProvider>(in.crlite));
    gcc_.set_gcc_hook([this](const core::Chain& chain, std::string_view usage,
                             std::span<const core::Gcc> gccs,
                             const core::FactSet* context,
                             core::GccVerdict& verdict) {
      GccProbe& p = probe_;
      const std::uint64_t a0 = allocs_thread();
      const std::uint64_t t0 = now_ns();
      {
        const std::string chain_id = core::chain_id_of(chain);
        core::FactSet facts;
        core::encode_chain(chain, chain_id, facts);
        if (p.chain_context != nullptr) p.chain_context->append_facts(chain_id, facts);
      }
      const std::uint64_t t1 = now_ns();
      const std::uint64_t a1 = allocs_thread();
      const core::GccVerdict v = executor_.evaluate(chain, usage, gccs, context);
      const std::uint64_t t2 = now_ns();
      const std::uint64_t a2 = allocs_thread();
      // evaluate() encodes the chain itself; its evaluation share is what
      // remains after one encoding.
      p.runs += 1;
      p.encode_ns += t1 - t0;
      p.eval_ns += (t2 - t1) > (t1 - t0) ? (t2 - t1) - (t1 - t0) : 0;
      p.encode_allocs += a1 - a0;
      p.eval_allocs += (a2 - a1) > (a1 - a0) ? (a2 - a1) - (a1 - a0) : 0;
      p.facts += v.facts_encoded;
      p.gccs += v.gccs_evaluated;
      p.derived += v.stats.derived_tuples;
      verdict.gccs_evaluated += v.gccs_evaluated;
      verdict.facts_encoded += v.facts_encoded;
      verdict.stats.accumulate(v.stats);
      if (!v.allowed) verdict.failed_gcc = v.failed_gcc;
      return v.allowed;
    });
  }
  ShadowProbes(const ShadowProbes&) = delete;
  ShadowProbes& operator=(const ShadowProbes&) = delete;

  Shadow run(const Request& r) {
    const ScopedSlot slot(kShadow);
    Shadow out;

    std::uint64_t parse_ns = 0, parse_allocs = 0, certs = 0;
    auto parse_one = [&](const Bytes& der) {
      const std::uint64_t a0 = allocs_thread();
      const std::uint64_t t0 = now_ns();
      auto cert = x509::Certificate::parse(BytesView(der));
      parse_ns += now_ns() - t0;
      parse_allocs += allocs_thread() - a0;
      ++certs;
      return cert.ok();
    };
    parse_one(r.leaf_der);
    for (const Bytes& der : r.intermediates_der) parse_one(der);
    out.parse_us_per_cert = us(parse_ns) / static_cast<double>(certs);
    out.parse_allocs_per_cert =
        static_cast<double>(parse_allocs) / static_cast<double>(certs);

    // Path search with signature and revocation checks but no GCCs; the
    // search's self time excludes the two wrapped seams.
    chain::VerifyOptions search_options = r.options;
    search_options.run_gccs = false;
    const SeamCounts s0 = seam_counts(kShadow);
    const std::uint64_t a0 = allocs_thread();
    const std::uint64_t t0 = now_ns();
    (void)search_.verify(r.leaf, *r.pool, search_options);
    const std::uint64_t t1 = now_ns();
    out.search_allocs = static_cast<double>(allocs_thread() - a0);
    const SeamCounts seams = seam_counts(kShadow) - s0;
    const std::uint64_t span = t1 - t0;
    const std::uint64_t children = seams.sig_ns + seams.rev_ns;
    out.search_us = us(span > children ? span - children : 0);
    if (seams.sig_calls > 0) {
      out.sig_call_us = us(seams.sig_ns) / static_cast<double>(seams.sig_calls);
    }
    if (seams.rev_calls > 0) {
      out.rev_call_us = us(seams.rev_ns) / static_cast<double>(seams.rev_calls);
    }

    probe_ = GccProbe{};
    probe_.chain_context = r.chain_context;
    (void)gcc_.verify(r.leaf, *r.pool, r.options);
    out.gcc = probe_;

    const std::uint64_t d0 = now_ns();
    const anchord::Response response = dispatcher_.dispatch(r.wire);
    out.dispatch_us = us(now_ns() - d0);
    if (in_.entry != Entry::kDaemon) {
      // The same wire-less call the dispatcher makes (no context facts:
      // the wire cannot carry them), so the difference is the
      // dispatcher's own cost.
      chain::VerifyOptions direct = r.options;
      direct.gcc_context = nullptr;
      const std::uint64_t v0 = now_ns();
      (void)stack_.service().validate(r.leaf_der, r.intermediates_der, direct);
      out.direct_us = us(now_ns() - v0);
    }

    const std::uint64_t c_a0 = allocs_thread();
    const std::uint64_t c0 = now_ns();
    const net::Message request_msg = anchord::encode_request(r.wire);
    const auto request_back = anchord::decode_request(request_msg);
    const net::Message response_msg = anchord::encode_response(response);
    const auto response_back = anchord::decode_response(response_msg);
    out.codec_us = us(now_ns() - c0);
    out.codec_allocs = static_cast<double>(allocs_thread() - c_a0);
    (void)request_back;
    (void)response_back;
    out.wire_bytes = static_cast<double>(net::encode_frame(request_msg).size() +
                                         net::encode_frame(response_msg).size());
    return out;
  }

 private:
  static anchord::VerbDispatcher::Backends backends(Stack& stack) {
    anchord::VerbDispatcher::Backends b;
    b.service = &stack.service();
    b.registry = &stack.registry();
    return b;
  }

  const Inputs& in_;
  std::shared_ptr<const rootstore::snapshot::StoreView> view_;
  chain::ChainVerifier search_;
  chain::ChainVerifier gcc_;
  metrics::Registry registry_;
  core::GccExecutor executor_;
  anchord::VerbDispatcher dispatcher_;
  Stack& stack_;
  GccProbe probe_;
};

// Per-request columns of the traced phase, plus totals of real counts.
struct Trace {
  std::vector<double> e2e, dispatch, direct, codec, wire_bytes;
  std::vector<double> parse, search, sig_call, rev_call, encode, eval;
  std::vector<double> parse_a, sig_a, rev_a, gcc_a, service;
  std::vector<double> facts, gccs, derived;
  std::vector<double> alloc_parse, alloc_search, alloc_encode, alloc_eval,
      alloc_codec;
  double verifies = 0, paths = 0, sig_calls = 0, rev_calls = 0;
  double cert_hits = 0, cert_misses = 0;
  double verdict_hits = 0, verdict_misses = 0, verdict_bypass = 0;
};

void run_traced(Stack& stack, ShadowProbes& probes, const Inputs& in,
                std::size_t& cursor, std::uint64_t deadline, Tally& tally,
                Trace& tr) {
  const std::size_t n = in.requests.size();
  const bool daemon = in.entry == Entry::kDaemon;
  while (now_ns() < deadline) {
    const Request& r = in.requests[cursor++ % n];
    const chain::ServiceStats st0 = stack.service().stats();
    const SeamCounts seams0 = seam_counts(kMeasured);
    const std::uint64_t t0 = now_ns();
    const Outcome outcome = stack.issue(r);
    const std::uint64_t t1 = now_ns();
    tally.check(outcome, r.expected);
    const SeamCounts real = seam_counts(kMeasured) - seams0;
    const chain::ServiceStats st1 = stack.service().stats();
    const double cert_hits = static_cast<double>(st1.cert_hits - st0.cert_hits);
    const double cert_misses = static_cast<double>(st1.cert_misses - st0.cert_misses);
    const double v_hits = static_cast<double>(st1.verdict_hits - st0.verdict_hits);
    const double v_misses = static_cast<double>(st1.verdict_misses - st0.verdict_misses);
    const double v_bypass = static_cast<double>(st1.verdict_bypass - st0.verdict_bypass);

    const Shadow sh = probes.run(r);

    // How much of the shadow's GCC work the real call did: evaluations it
    // ran (verdict-cache misses and bypasses) over the ones the shadow ran.
    const double gcc_share =
        sh.gcc.runs > 0
            ? std::min(1.0, (v_misses + v_bypass) / static_cast<double>(sh.gcc.runs))
            : 0.0;
    const double encode_us = us(sh.gcc.encode_ns);
    const double eval_us = us(sh.gcc.eval_ns);
    const double parse_a = sh.parse_us_per_cert * cert_misses;
    const double sig_a =
        sh.sig_call_us > 0 ? sh.sig_call_us * static_cast<double>(real.sig_calls) : 0;
    const double rev_a =
        sh.rev_call_us > 0 ? sh.rev_call_us * static_cast<double>(real.rev_calls) : 0;
    const double gcc_a = (encode_us + eval_us) * gcc_share;
    const double e2e = us(t1 - t0);
    const double base = daemon ? sh.dispatch_us : e2e;

    tr.e2e.push_back(e2e);
    tr.dispatch.push_back(sh.dispatch_us);
    if (!daemon) tr.direct.push_back(sh.direct_us);
    tr.codec.push_back(sh.codec_us);
    tr.wire_bytes.push_back(sh.wire_bytes);
    tr.parse.push_back(sh.parse_us_per_cert);
    tr.search.push_back(sh.search_us);
    if (sh.sig_call_us >= 0) tr.sig_call.push_back(sh.sig_call_us);
    if (sh.rev_call_us >= 0) tr.rev_call.push_back(sh.rev_call_us);
    if (sh.gcc.runs > 0) {
      tr.encode.push_back(encode_us);
      tr.eval.push_back(eval_us);
      tr.alloc_encode.push_back(static_cast<double>(sh.gcc.encode_allocs));
      tr.alloc_eval.push_back(static_cast<double>(sh.gcc.eval_allocs));
    }
    tr.parse_a.push_back(parse_a);
    tr.sig_a.push_back(sig_a);
    tr.rev_a.push_back(rev_a);
    tr.gcc_a.push_back(gcc_a);
    tr.service.push_back(base - parse_a - sh.search_us - sig_a - rev_a - gcc_a);
    tr.facts.push_back(static_cast<double>(sh.gcc.facts) * gcc_share);
    tr.gccs.push_back(static_cast<double>(sh.gcc.gccs) * gcc_share);
    tr.derived.push_back(static_cast<double>(sh.gcc.derived) * gcc_share);
    tr.alloc_parse.push_back(sh.parse_allocs_per_cert);
    tr.alloc_search.push_back(sh.search_allocs);
    tr.alloc_codec.push_back(sh.codec_allocs);
    tr.verifies += 1;
    tr.paths += static_cast<double>(outcome.paths_explored);
    tr.sig_calls += static_cast<double>(real.sig_calls);
    tr.rev_calls += static_cast<double>(real.rev_calls);
    tr.cert_hits += cert_hits;
    tr.cert_misses += cert_misses;
    tr.verdict_hits += v_hits;
    tr.verdict_misses += v_misses;
    tr.verdict_bypass += v_bypass;
  }
}

volatile std::uint8_t g_sha_sink = 0;

// SHA-256 throughput over the workload's own DERs.
double sha256_mb_s(const Inputs& in) {
  std::vector<const Bytes*> ders;
  for (std::size_t i = 0; i < std::min<std::size_t>(in.requests.size(), 256); ++i) {
    ders.push_back(&in.requests[i].leaf_der);
    for (const Bytes& der : in.requests[i].intermediates_der) ders.push_back(&der);
  }
  std::uint64_t bytes = 0;
  std::uint8_t sink = 0;
  const std::uint64_t start = now_ns();
  std::uint64_t elapsed = 0;
  while (elapsed < 50'000'000ULL) {
    for (const Bytes* der : ders) {
      sink ^= Sha256::hash(BytesView(*der))[0];
      bytes += der->size();
    }
    elapsed = now_ns() - start;
  }
  g_sha_sink = sink;  // keeps the hashes live
  return static_cast<double>(bytes) / 1e6 / (static_cast<double>(elapsed) / 1e9);
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

int run(const Args& args) {
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  std::string error;
  std::unique_ptr<Inputs> in = make_inputs(args.workload, args.seed, args.workdir, error);
  if (in == nullptr) {
    std::fprintf(stderr, "verdictbench: %s\n", error.c_str());
    return 2;
  }
  const std::size_t n = in->requests.size();
  // --seconds is split between the read loop (halved again in a traced run:
  // untraced, then traced) and, without concurrent updates, the update
  // phase.
  const double run_ns = static_cast<double>(args.seconds) * 1e9;
  const double update_ns = in->concurrent_updates ? 0.0 : run_ns * kUpdateShare;
  const auto measure_ns =
      static_cast<std::uint64_t>((run_ns - update_ns) / (args.trace ? 2 : 1));
  // One CPU per load thread: the caller, plus feed_churn's updater.
  const std::vector<int> cpus = last_cpus(in->concurrent_updates ? 2 : 1);
  if (!cpus.empty()) pin_to(cpus.front());  // the caller (reader) thread
  const int updater_cpu = cpus.size() > 1 ? cpus[1] : -1;
  Tally tally;
  Phase phase;
  phase.latency_ns.assign(static_cast<std::size_t>(args.seconds) * 200000, 0);
  phase.scaled_us.assign(phase.latency_ns.size(), 0.0f);

  // Memory the program adds is counted from here: the RSF client and its
  // first sync, set-up, and the first round of serving.
  const double rss_before = vm_rss_mb();
  Updater updater(*in);

  // A cold start: from the on-disk snapshot to the first correct verdict
  // through the workload's entry point.
  std::vector<double> setup_s, open_ms;
  auto cold_start = [&]() -> std::unique_ptr<Stack> {
    const std::uint64_t t0 = now_ns();
    auto opened = rootstore::snapshot::StoreView::open(in->snapshot_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "verdictbench: snapshot open failed\n");
      return nullptr;
    }
    const std::uint64_t t_open = now_ns();
    auto stack = std::make_unique<Stack>(*in, opened.view, in->corpus.signatures(),
                                         in->register_crlite ? in->crlite : nullptr);
    if (!stack->ok()) {
      std::fprintf(stderr, "verdictbench: %s\n", stack->error().c_str());
      return nullptr;
    }
    const Outcome first = stack->issue(in->sentinel);
    const std::uint64_t t1 = now_ns();
    tally.check(first, in->sentinel.expected);
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    open_ms.push_back(static_cast<double>(t_open - t0) / 1e6 + stack->adopt_ms());
    return stack;
  };

  std::unique_ptr<Stack> stack = cold_start();  // serves the whole run
  if (stack == nullptr) return 2;
  setup_s.clear();  // its first-touch costs are not a cold start's
  updater.bind(*stack);
  warm(*stack, *in, tally);
  std::size_t cursor = 0;

  // Exact allocation count per verify over a fixed slice of requests, with
  // nothing else running.
  double allocs_per_verify = 0;
  if (args.trace) {
    const std::size_t m = std::min(n, kAllocPassRequests);
    const std::uint64_t a0 = allocs_process();
    for (std::size_t i = 0; i < m; ++i) {
      const Request& r = in->requests[cursor++ % n];
      tally.check(stack->issue(r), r.expected);
    }
    allocs_per_verify =
        static_cast<double>(allocs_process() - a0) / static_cast<double>(m);
  }

  // The run is kRounds rounds of reads followed by the round's share of
  // cold starts and (without concurrent updates) updates, so every metric
  // samples the whole run rather than one stretch of it. After a round's
  // updates the hot set is warmed again outside the measurement. Every time
  // is scaled by reference passes taken on the same thread in the same
  // stretch: reads per window (run_loop), a round's cold starts and updates
  // by a pass before each, feed_churn's updates by a pass after each on the
  // updater thread. The metrics are medians over the whole run.
  ReferenceClock aside;  // passes beside cold starts and sequential updates
  std::vector<double> setup_scaled_s, visible_scaled_ms;
  std::vector<UpdateSample> updates;
  double rss_after = 0;
  std::vector<RoundFigures> rounds;
  for (int round = 0; round < kRounds; ++round) {
    const std::size_t samples_from = phase.samples;
    const std::size_t ref_from = phase.ref.size();
    {
      std::unique_ptr<ChurnThread> churn;
      if (in->concurrent_updates) {
        churn = std::make_unique<ChurnThread>(updater, tally, args.trace, updater_cpu);
      }
      run_loop(*stack, *in, cursor, now_ns() + measure_ns / kRounds, tally, phase);
      if (churn != nullptr) {
        const std::vector<UpdateSample> more = churn->stop();
        updates.insert(updates.end(), more.begin(), more.end());
        for (const UpdateSample& u : more) {
          visible_scaled_ms.push_back(u.visible_ms * churn->scale());
        }
      }
    }
    if (round == 0) rss_after = vm_rss_mb();
    {
      const std::size_t from = setup_s.size();
      const std::size_t aside_from = aside.size();
      for (int k = 0; k < kColdStarts / kRounds; ++k) {
        aside.sample();
        if (cold_start() == nullptr) return 2;
      }
      const double scale = aside.scale(aside_from);
      for (std::size_t i = from; i < setup_s.size(); ++i) {
        setup_scaled_s.push_back(setup_s[i] * scale);
      }
    }
    if (!in->concurrent_updates) {
      const std::size_t from = updates.size();
      const std::size_t aside_from = aside.size();
      const std::uint64_t deadline =
          now_ns() + static_cast<std::uint64_t>(update_ns / kRounds);
      // An even number of updates per round: the store is back at its
      // generation-time state (sentinel GCC detached) when reads resume.
      for (int u = 0; u < kMinUpdatesPerRound || now_ns() < deadline || u % 2 != 0;
           ++u) {
        aside.sample();
        updates.push_back(updater.step(args.trace));
        tally.update(updates.back());
      }
      const double scale = aside.scale(aside_from);
      for (std::size_t i = from; i < updates.size(); ++i) {
        visible_scaled_ms.push_back(updates[i].visible_ms * scale);
      }
      if (round + 1 < kRounds && in->hot_set) warm(*stack, *in, tally, 1);
    }

    std::vector<double> raw, scaled;
    for (std::size_t i = samples_from; i < phase.samples; ++i) {
      raw.push_back(phase.latency_ns[i] / 1e3);
      scaled.push_back(phase.scaled_us[i]);
    }
    rounds.push_back(RoundFigures{
        .p50_us = median(scaled),
        .raw_p50_us = median(raw),
        .ref_us = phase.ref.median_us(ref_from),
    });
  }
  std::string round_p50s, round_raw_p50s, round_refs;  // host record
  for (const RoundFigures& r : rounds) {
    const char* sep = round_p50s.empty() ? "" : ", ";
    round_p50s += sep + json_number(r.p50_us);
    round_raw_p50s += sep + json_number(r.raw_p50_us);
    round_refs += sep + json_number(r.ref_us);
  }

  const std::vector<double> lat = latencies_us(phase);
  const double p50 = quantile(lat, 0.5);
  const double p99 = quantile(lat, 0.99);
  std::size_t slow = 0;
  for (double v : lat) slow += v > 10 * p50 ? 1 : 0;

  std::vector<Metric> metrics;
  if (!args.trace) {
    const std::vector<double> scaled(phase.scaled_us.begin(),
                                     phase.scaled_us.begin() +
                                         static_cast<std::ptrdiff_t>(phase.samples));
    metrics = {
        {"verify_p50_us", quantile(scaled, 0.5), "us"},
        {"verify_p90_us", quantile(scaled, 0.9), "us"},
        {"verifies_per_cpu_s",
         ratio(static_cast<double>(phase.verifies), phase.scaled_cpu_ns / 1e9), "1/s"},
        {"setup_s", median(setup_scaled_s), "s"},
        {"rss_mb", rss_after - rss_before, "MB"},
        {"update_visible_ms", median(visible_scaled_ms), "ms"},
    };
  } else {
    TimedScheme timed(in->corpus.signatures());
    auto opened = rootstore::snapshot::StoreView::open(in->snapshot_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "verdictbench: snapshot open failed\n");
      return 2;
    }
    Stack traced(*in, opened.view, timed,
                 in->register_crlite ? std::make_shared<TimedProvider>(in->crlite)
                                     : nullptr);
    if (!traced.ok()) {
      std::fprintf(stderr, "verdictbench: %s\n", traced.error().c_str());
      return 2;
    }
    warm(traced, *in, tally);
    ShadowProbes probes(*in, opened.view, timed, traced);
    updater.bind(traced);
    Trace tr;
    {
      std::unique_ptr<ChurnThread> churn;
      if (in->concurrent_updates) {
        churn = std::make_unique<ChurnThread>(updater, tally, true, updater_cpu);
      }
      run_traced(traced, probes, *in, cursor, now_ns() + measure_ns, tally, tr);
      if (churn != nullptr) {
        std::vector<UpdateSample> more = churn->stop();
        updates.insert(updates.end(), more.begin(), more.end());
      }
    }
    const double traced_p50 = median(tr.e2e);
    const bool daemon = in->entry == Entry::kDaemon;
    const double dispatch_p50 = median(tr.dispatch);
    const double overhead =
        daemon ? traced_p50 - dispatch_p50 : dispatch_p50 - median(tr.direct);
    const double attributed = (daemon ? overhead : 0.0) + median(tr.service) +
                              median(tr.parse_a) + median(tr.search) +
                              median(tr.sig_a) + median(tr.rev_a) + median(tr.gcc_a);
    const double unattributed = traced_p50 - attributed;
    if (std::abs(unattributed) > kUnattributedWarnShare * traced_p50) {
      std::fprintf(stderr,
                   "verdictbench: trace covers the verdict path poorly: %.2f us of "
                   "%.2f us (%.0f%%) unattributed, above the %.0f%% threshold\n",
                   unattributed, traced_p50, 100 * unattributed / traced_p50,
                   100 * kUnattributedWarnShare);
    }
    const double v = tr.verifies;
    const double lookups = tr.verdict_hits + tr.verdict_misses + tr.verdict_bypass;
    auto upd = [&](auto field) { return median(column(updates, field)); };
    metrics = {
        {"verify_p99_us", p99, "us"},
        {"anchord.codec_us", median(tr.codec), "us"},
        {"anchord.dispatch_us", dispatch_p50, "us"},
        {"anchord.overhead_us", overhead, "us"},
        {"anchord.wire_bytes_per_req", mean(tr.wire_bytes), "bytes"},
        {"x509.parse_us", median(tr.parse), "us"},
        {"chain.cert_hit_ratio", ratio(tr.cert_hits, tr.cert_hits + tr.cert_misses), "ratio"},
        {"chain.search_us", median(tr.search), "us"},
        {"chain.paths_per_verify", ratio(tr.paths, v), "count"},
        {"chain.service_us", median(tr.service), "us"},
        {"chain.verdict_hit_ratio", ratio(tr.verdict_hits, lookups), "ratio"},
        {"chain.verdict_bypass_ratio", ratio(tr.verdict_bypass, lookups), "ratio"},
        {"util.sig_us", median(tr.sig_call), "us"},
        {"util.sigs_per_verify", ratio(tr.sig_calls, v), "count"},
        {"util.sha256_mb_s", sha256_mb_s(*in), "MB/s"},
        {"revocation.check_us", median(tr.rev_call), "us"},
        {"revocation.checks_per_verify", ratio(tr.rev_calls, v), "count"},
        {"core.encode_us", median(tr.encode), "us"},
        {"core.facts_per_verify", mean(tr.facts), "count"},
        {"datalog.eval_us", median(tr.eval), "us"},
        {"datalog.gccs_per_verify", mean(tr.gccs), "count"},
        {"datalog.derived_per_verify", mean(tr.derived), "count"},
        {"rootstore.open_ms", median(open_ms), "ms"},
        {"rootstore.copy_ms", upd([](const auto& s) { return s.copy_ms; }), "ms"},
        {"rsf.publish_ms", upd([](const auto& s) { return s.publish_ms; }), "ms"},
        {"rsf.poll_ms", upd([](const auto& s) { return s.poll_ms; }), "ms"},
        {"rsf.bytes_per_update", upd([](const auto& s) { return s.bytes; }), "bytes"},
        {"ctlog.proof_us", upd([](const auto& s) { return s.proof_us; }), "us"},
        {"chain.mutate_ms", upd([](const auto& s) { return s.mutate_ms; }), "ms"},
        {"chain.stale_purged_per_update", upd([](const auto& s) { return s.stale_purged; }), "count"},
        {"alloc.per_verify", allocs_per_verify, "count"},
        {"alloc.x509", median(tr.alloc_parse), "count"},
        {"alloc.chain_search", median(tr.alloc_search), "count"},
        {"alloc.core", median(tr.alloc_encode), "count"},
        {"alloc.datalog", median(tr.alloc_eval), "count"},
        {"alloc.anchord_codec", median(tr.alloc_codec), "count"},
        {"alloc.update", upd([](const auto& s) { return s.allocs; }), "count"},
        {"trace.unattributed_us", unattributed, "us"},
        {"trace.overhead_us", traced_p50 - p50, "us"},
    };
  }

  std::string cpu_list;
  for (int cpu : cpus) cpu_list += (cpu_list.empty() ? "" : ",") + std::to_string(cpu);
  const std::uint64_t failed = tally.failed();
  const bool correct = failed == 0;
  std::printf(
      "{\"verdictbench\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"nproc\": %ld, \"cpus\": %s, \"steal_share\": %s, \"slow_requests\": %zu, "
      "\"latency_samples\": %zu, \"raw_p50_all_requests_us\": %s, \"updates\": %zu, \"requests\": %zu, "
      "\"verdict_mix\": %s, \"wrong_verdicts\": %llu, \"transport_errors\": %llu, "
      "\"failed_updates\": %llu, \"round_p50_us\": [%s], \"round_raw_p50_us\": [%s], "
      "\"round_reference_us\": [%s], \"git_commit\": %s, "
      "\"build_type\": %s}}\n",
      json_string(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      json_string(cpu_list).c_str(),
      json_number(phase.steal_share()).c_str(), slow, phase.samples,
      json_number(p50).c_str(), updates.size(), n,
      json_string(in->verdict_mix).c_str(),
      static_cast<unsigned long long>(tally.wrong.load()),
      static_cast<unsigned long long>(tally.transport.load()),
      static_cast<unsigned long long>(tally.updates_failed.load()), round_p50s.c_str(),
      round_raw_p50s.c_str(), round_refs.c_str(),
      json_string(args.commit).c_str(), json_string(VERDICTBENCH_BUILD_TYPE).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted.load()),
              static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
  std::fflush(stdout);
  std::filesystem::remove(in->snapshot_path, ec);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace verdictbench

int main(int argc, char** argv) {
#ifdef VERDICTBENCH_SANITIZED
  std::fprintf(stderr,
               "verdictbench: refusing to run a sanitizer build; timings would "
               "describe the sanitizer, not the program\n");
  return 3;
#else
  verdictbench::Args args;
  std::string error;
  if (!verdictbench::parse_args(argc, argv, args, error)) {
    std::fprintf(stderr, "verdictbench: %s\n", error.c_str());
    return 2;
  }
  return verdictbench::run(args);
#endif
}
