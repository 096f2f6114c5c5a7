// VerifyService — a thread-pool-backed, cache-coherent front end over
// ChainVerifier, modelling the deployment the paper's §3.1 argues for:
// platform-level GCC execution via a trustd-style daemon that serves
// *every app on the machine*. A shared verifier only pays off if it can
// (a) serve many callers concurrently and (b) amortize repeated work, so
// the service adds:
//
//   * a worker pool (util/threadpool) for async/batch submission;
//   * a sharded, mutex-striped GCC-verdict cache keyed by (store epoch,
//     usage, the path's certificate fingerprints leaf-first) — the
//     32-byte SHA-256 each Certificate computed once at parse time, so a
//     lookup hashes nothing and renders no hex. The root is the last
//     fingerprint, so the key names the GCC set too; same chain + same
//     GCC set evaluates to the same verdict because GCCs are pure
//     stratified Datalog over chain facts, so memoizing the Boolean is
//     sound (DESIGN.md, "Why verdict caching is sound");
//   * a parsed-certificate cache keyed on the request DER bytes
//     (chain/cert_cache.hpp), shared by the DER-boundary entry points;
//   * RCU-style store snapshots: verification runs against an immutable
//     copy of the RootStore, so no lock is held during path construction
//     or Datalog evaluation. Mutations flow through mutate(), which
//     publishes a fresh snapshot; a reader only copies the published
//     pointer, so it never waits for a mutation's store copy to finish.
//     RootStore::epoch() (bumped by every mutation, including RSF delta
//     application) keys the verdict cache, so a feed update invalidates
//     stale verdicts for free.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chain/cert_cache.hpp"
#include "chain/verifier.hpp"
#include "datalog/eval.hpp"
#include "rootstore/snapshot/view.hpp"
#include "util/metrics.hpp"
#include "util/sharded_cache.hpp"
#include "util/threadpool.hpp"

namespace anchor::chain {

struct ServiceConfig {
  std::size_t threads = 4;             // worker pool size
  std::size_t verdict_capacity = 8192; // GCC-verdict cache entries
  std::size_t cert_capacity = 4096;    // parsed-certificate cache entries
  std::size_t shards = 16;             // lock stripes per cache
};

// Point-in-time counter snapshot; see VerifyService::stats().
struct ServiceStats {
  std::uint64_t verdict_hits = 0;
  std::uint64_t verdict_misses = 0;
  std::uint64_t cert_hits = 0;
  std::uint64_t cert_misses = 0;
  std::uint64_t evictions = 0;       // both caches, all shards
  std::uint64_t verdict_bypass = 0;  // context-carrying verifies (uncacheable)
  std::uint64_t epoch_flushes = 0;   // snapshots published after a mutation
  std::uint64_t stale_purged = 0;    // verdict entries dropped by flushes
  std::uint64_t calls = 0;           // verify + evaluate_gccs + validate
  std::uint64_t total_ns = 0;        // wall time summed over calls
  std::size_t queue_depth = 0;       // pool backlog at snapshot time
  std::uint64_t epoch = 0;           // store epoch at snapshot time
};

class VerifyService {
 public:
  // The service copies `store` into an immutable snapshot at construction;
  // afterwards the live store must only change through mutate(), which is
  // what keeps concurrent verification TSan-clean. `scheme` must outlive
  // the service and is read-only after key registration.
  // `registry` receives the service's metric series (anchor_verify_*,
  // anchor_store_*); tests pass a private Registry for isolation.
  VerifyService(rootstore::RootStore& store, const SignatureScheme& scheme,
                ServiceConfig config = {},
                metrics::Registry& registry = metrics::Registry::global());
  ~VerifyService();

  VerifyService(const VerifyService&) = delete;
  VerifyService& operator=(const VerifyService&) = delete;

  // Synchronous verification on the calling thread (thread-safe; any
  // number of callers). If `observed_epoch` is non-null it receives the
  // store epoch the verdict was computed under — the stress tests replay
  // results against a cold verifier at exactly that epoch.
  VerifyResult verify(const x509::CertPtr& leaf, const CertificatePool& pool,
                      const VerifyOptions& options,
                      std::uint64_t* observed_epoch = nullptr);

  // Async submission onto the worker pool. The task shares ownership of
  // `pool`, so the caller may drop its reference (or destroy its last
  // shared_ptr) before the future resolves — the pool lives until the
  // worker is done with it. The pool must still not be *mutated* while the
  // future is outstanding; the pointee is const for exactly that reason.
  std::future<VerifyResult> submit(x509::CertPtr leaf,
                                   std::shared_ptr<const CertificatePool> pool,
                                   VerifyOptions options);

  // Fans a batch across the pool and gathers results in input order.
  std::vector<VerifyResult> verify_batch(
      std::span<const x509::CertPtr> leaves, const CertificatePool& pool,
      const VerifyOptions& options);

  // DER-boundary entry points mirroring the anchord IPC surface (§3.1
  // options 2 and 3); both run through the parsed-certificate cache.
  bool evaluate_gccs(std::span<const Bytes> chain_der, std::string_view usage);

  // Classified form of evaluate_gccs: the wire layer needs to distinguish
  // "malformed DER" (kMalformedRequest) from "a GCC denied" (kGccDenied,
  // detail = the failing constraint's name) — the bare Boolean cannot.
  struct GccsOutcome {
    bool allowed = false;
    ErrorKind kind = ErrorKind::kOk;
    std::string detail;
    core::GccVerdict verdict;
  };
  GccsOutcome evaluate_gccs_detail(std::span<const Bytes> chain_der,
                                   std::string_view usage);

  VerifyResult validate(const Bytes& leaf_der,
                        std::span<const Bytes> intermediates_der,
                        const VerifyOptions& options);

  // validate() for a request whose certificates are all cache-resident:
  // never parses. If any DER misses the parsed-certificate cache it
  // returns nullopt and counts nothing, so the validate() the caller falls
  // back to counts that miss exactly once. Otherwise it counts the hits
  // and verifies exactly as validate() does, with the same result.
  std::optional<VerifyResult> validate_if_cached(
      const Bytes& leaf_der, std::span<const Bytes> intermediates_der,
      const VerifyOptions& options);

  // Batch form of validate() for anchord's kVerifyBatch verb: N leaves that
  // share one intermediate pool, one usage, and one options block (only the
  // hostname varies per entry; hostnames[i] pairs with leaf_ders[i] and
  // `hostnames` may be empty to reuse options.hostname throughout). The
  // batch runs sequentially on the calling thread so every chain hits the
  // same thread-local Datalog interning arena, and the shared intermediates
  // are parsed once, not once per chain. A malformed leaf fails only its
  // own entry; a malformed shared intermediate fails every entry.
  std::vector<VerifyResult> validate_batch(
      std::span<const Bytes> leaf_ders, std::span<const std::string> hostnames,
      std::span<const Bytes> intermediates_der, const VerifyOptions& options);

  // Runs `fn` on the live store under the exclusive mutation lock, then
  // publishes a fresh snapshot and flushes verdicts cached under prior
  // epochs. The epoch is forced to advance even if `fn` made a change the
  // store did not count, so a published snapshot is never cache-aliased
  // with its predecessor. If the current snapshot is view-backed (see
  // adopt_view), the live store is first rebuilt from the view so the
  // mutation applies to what is actually being served.
  void mutate(const std::function<void(rootstore::RootStore&)>& fn);

  // Atomically swaps the served snapshot to an mmap-backed StoreView — no
  // deep copy, no reparse, no GCC recompile; in-flight verifications keep
  // the previous snapshot (and the previous mapping) alive until they
  // drain. The published epoch is max(view->epoch(), current + 1): a view
  // is a wholesale replacement, so even one whose own counter lags must
  // never alias the predecessor in the verdict cache.
  void adopt_view(std::shared_ptr<const rootstore::snapshot::StoreView> view);

  // Registers a revocation source on the service. The source is applied to
  // the verifier of every subsequently published snapshot — including the
  // one this call republishes immediately, so registration takes effect
  // without waiting for the next mutation. Sources registered here are
  // service-local and compose with the store-distributed filter
  // (StoreReader::revocation_filter()), which the ChainVerifier registers
  // on its own.
  void add_revocation_source(
      std::shared_ptr<const revocation::Provider> provider);

  // Epoch of the currently-published snapshot.
  std::uint64_t epoch() const;

  ServiceStats stats() const;

 private:
  struct Snapshot;

  struct VerdictKey {
    std::uint64_t epoch = 0;
    std::string usage;
    // Certificate::fingerprint() of each path element, leaf-first; the
    // last one is the candidate root. Fixed width, so the sequence needs
    // no length prefixes to be unambiguous.
    std::vector<Sha256::Digest> path;
    bool operator==(const VerdictKey&) const = default;
  };
  struct VerdictKeyHash {
    std::size_t operator()(const VerdictKey& key) const;
  };
  // What the gcc hook needs to replay a verdict without re-evaluating.
  // `stats` rides along so a cache hit accumulates the same evaluator
  // accounting the original miss did — hit and miss paths must be
  // observationally identical to the caller.
  struct CachedVerdict {
    bool allowed = true;
    std::string failed_gcc;
    std::size_t gccs_evaluated = 0;
    std::size_t facts_encoded = 0;
    datalog::EvalStats stats;
  };

  std::shared_ptr<const Snapshot> current_snapshot() const;
  std::shared_ptr<const Snapshot> build_snapshot();
  void attach_hook(const std::shared_ptr<Snapshot>& snapshot);
  // Publishes `fresh` (the caller passes in its store_mu_ lock, released
  // here) and flushes verdict-cache entries from prior epochs.
  void publish(std::shared_ptr<const Snapshot> fresh,
               std::unique_lock<std::mutex> lock);
  Result<x509::CertPtr> parse_cached(BytesView der);
  VerifyResult verify_on(const Snapshot& snapshot, const x509::CertPtr& leaf,
                         const CertificatePool& pool,
                         const VerifyOptions& options);

  rootstore::RootStore& store_;
  const SignatureScheme& scheme_;
  ServiceConfig config_;

  // Applied (in registration order) to every snapshot's verifier at build
  // time; guarded by store_mu_.
  std::vector<std::shared_ptr<const revocation::Provider>> revocation_sources_;

  // Serializes writers (mutate, adopt_view, add_revocation_source) over the
  // live store and snapshot builds. Readers never take it: a mutation may
  // hold it for a whole store copy.
  std::mutex store_mu_;
  // Guards only the snapshot_ pointer: readers copy it, publish() swaps it
  // (holding store_mu_ as well, so a writer may read snapshot_ under
  // store_mu_ alone).
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_;

  ShardedLruCache<VerdictKey, CachedVerdict, VerdictKeyHash> verdict_cache_;
  CertCache<> cert_cache_;
  ThreadPool pool_;

  // Counters are plain atomics: hot-path increments, no locks.
  std::atomic<std::uint64_t> verdict_hits_{0};
  std::atomic<std::uint64_t> verdict_misses_{0};
  std::atomic<std::uint64_t> verdict_bypass_{0};
  std::atomic<std::uint64_t> epoch_flushes_{0};
  std::atomic<std::uint64_t> stale_purged_{0};
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> total_ns_{0};

  // Registry series, resolved once at construction so hot paths touch only
  // the cached references (registration locks, increments don't).
  metrics::Registry& registry_;
  metrics::Counter& m_verdict_hit_;
  metrics::Counter& m_verdict_miss_;
  metrics::Counter& m_cert_hit_;
  metrics::Counter& m_cert_miss_;
  metrics::Counter& m_verdict_bypass_;
  metrics::Counter& m_calls_;
  metrics::Counter& m_epoch_flushes_;
  metrics::Counter& m_stale_purged_;
  metrics::Histogram& m_latency_;
  metrics::Gauge& m_queue_depth_;
  metrics::Gauge& m_epoch_;
};

}  // namespace anchor::chain
