#include "chain/service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace anchor::chain {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::size_t VerifyService::VerdictKeyHash::operator()(
    const VerdictKey& key) const {
  std::size_t h = std::hash<std::string>{}(key.usage);
  const auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(std::hash<std::uint64_t>{}(key.epoch));
  for (const Sha256::Digest& fingerprint : key.path) {
    mix(DigestHash{}(fingerprint));
  }
  return h;
}

// Immutable verification context: either a deep copy of the live store
// (mutate path) or a shared mmap-backed StoreView (adopt_view path), plus
// a verifier bound to whichever one `reader` points at. Heap-allocated and
// reference-counted so in-flight verifications keep "their" snapshot —
// including the underlying mapping, in view mode — alive across a
// concurrent swap; the verifier member must never outlive the store/view
// members, which member ordering guarantees.
struct VerifyService::Snapshot {
  rootstore::RootStore store;  // heap mode; empty in view mode
  std::shared_ptr<const rootstore::snapshot::StoreView> view;  // view mode
  const rootstore::StoreReader* reader;  // whichever of the two serves
  std::uint64_t epoch;
  core::GccExecutor executor;
  ChainVerifier verifier;

  Snapshot(const rootstore::RootStore& source, const SignatureScheme& scheme,
           metrics::Registry& registry)
      : store(source),
        reader(&store),
        epoch(store.epoch()),
        executor(datalog::Strategy::kSemiNaive, registry),
        verifier(store, scheme) {}

  // `effective_epoch` may exceed the view's own counter: a view adoption
  // is a wholesale replacement, so the published epoch is forced past the
  // predecessor's (see VerifyService::adopt_view).
  Snapshot(std::shared_ptr<const rootstore::snapshot::StoreView> source,
           std::uint64_t effective_epoch, const SignatureScheme& scheme,
           metrics::Registry& registry)
      : view(std::move(source)),
        reader(view.get()),
        epoch(effective_epoch),
        executor(datalog::Strategy::kSemiNaive, registry),
        verifier(*view, scheme) {}

  // Shared across threads read-only except via the gcc hook, whose only
  // mutable state is the service's striped caches and atomics. Calls that
  // carry chain-external context facts bypass the verdict cache entirely:
  // the cache key covers only (epoch, usage, path), so a verdict
  // that also depended on caller-supplied context would be unsound to
  // memoize or to replay for a caller with different context.
  bool evaluate_gccs(VerifyService& service, const core::Chain& chain,
                     std::string_view usage, std::span<const core::Gcc> gccs,
                     const core::FactSet* context,
                     core::GccVerdict& verdict) const {
    if (context != nullptr) {
      // Deliberate bypass, but a silent one until it was counted: a fleet
      // whose callers all pass context sees hits+misses flatline while
      // evaluation cost climbs, and nothing explained where the work went.
      service.verdict_bypass_.fetch_add(1, std::memory_order_relaxed);
      service.m_verdict_bypass_.add();
      core::GccVerdict v = executor.evaluate(chain, usage, gccs, context);
      verdict.gccs_evaluated += v.gccs_evaluated;
      verdict.facts_encoded += v.facts_encoded;
      verdict.stats.accumulate(v.stats);
      if (!v.allowed) verdict.failed_gcc = v.failed_gcc;
      return v.allowed;
    }
    VerdictKey key{epoch, std::string(usage), {}};
    key.path.reserve(chain.size());
    for (const x509::CertPtr& cert : chain) {
      key.path.push_back(cert->fingerprint());
    }
    CachedVerdict cached;
    if (service.verdict_cache_.get(key, cached)) {
      service.verdict_hits_.fetch_add(1, std::memory_order_relaxed);
      service.m_verdict_hit_.add();
      verdict.gccs_evaluated += cached.gccs_evaluated;
      verdict.facts_encoded += cached.facts_encoded;
      // Replay the evaluator accounting captured at miss time: a caller
      // must not be able to tell a hit from a miss by looking at stats.
      verdict.stats.accumulate(cached.stats);
      if (!cached.allowed) verdict.failed_gcc = cached.failed_gcc;
      return cached.allowed;
    }
    service.verdict_misses_.fetch_add(1, std::memory_order_relaxed);
    service.m_verdict_miss_.add();
    core::GccVerdict v = executor.evaluate(chain, usage, gccs);
    verdict.gccs_evaluated += v.gccs_evaluated;
    verdict.facts_encoded += v.facts_encoded;
    verdict.stats.accumulate(v.stats);
    if (!v.allowed) verdict.failed_gcc = v.failed_gcc;
    service.verdict_cache_.put(
        key, CachedVerdict{v.allowed, v.failed_gcc, v.gccs_evaluated,
                           v.facts_encoded, v.stats});
    return v.allowed;
  }
};

VerifyService::VerifyService(rootstore::RootStore& store,
                             const SignatureScheme& scheme,
                             ServiceConfig config, metrics::Registry& registry)
    : store_(store),
      scheme_(scheme),
      config_(config),
      verdict_cache_(config.verdict_capacity, config.shards),
      cert_cache_(config.cert_capacity, config.shards),
      pool_(config.threads),
      registry_(registry),
      m_verdict_hit_(registry.counter("anchor_verify_cache_total",
                                      {{"cache", "verdict"},
                                       {"result", "hit"}})),
      m_verdict_miss_(registry.counter("anchor_verify_cache_total",
                                       {{"cache", "verdict"},
                                        {"result", "miss"}})),
      m_cert_hit_(registry.counter("anchor_verify_cache_total",
                                   {{"cache", "cert"}, {"result", "hit"}})),
      m_cert_miss_(registry.counter("anchor_verify_cache_total",
                                    {{"cache", "cert"}, {"result", "miss"}})),
      m_verdict_bypass_(registry.counter("anchor_verify_cache_bypass_total")),
      m_calls_(registry.counter("anchor_verify_calls_total")),
      m_epoch_flushes_(registry.counter("anchor_verify_epoch_flushes_total")),
      m_stale_purged_(registry.counter("anchor_verify_stale_purged_total")),
      m_latency_(registry.histogram("anchor_verify_latency_seconds")),
      m_queue_depth_(registry.gauge("anchor_verify_queue_depth")),
      m_epoch_(registry.gauge("anchor_verify_epoch")) {
  std::lock_guard<std::mutex> lock(store_mu_);
  snapshot_ = build_snapshot();
  m_epoch_.set(static_cast<std::int64_t>(snapshot_->epoch));
  rootstore::export_store_metrics(*snapshot_->reader, registry_);
}

VerifyService::~VerifyService() = default;

void VerifyService::attach_hook(const std::shared_ptr<Snapshot>& snapshot) {
  const Snapshot* raw = snapshot.get();
  snapshot->verifier.set_gcc_hook(
      [this, raw](const core::Chain& chain, std::string_view usage,
                  std::span<const core::Gcc> gccs,
                  const core::FactSet* context, core::GccVerdict& verdict) {
        return raw->evaluate_gccs(*this, chain, usage, gccs, context, verdict);
      });
}

std::shared_ptr<const VerifyService::Snapshot> VerifyService::build_snapshot() {
  auto snapshot = std::make_shared<Snapshot>(store_, scheme_, registry_);
  attach_hook(snapshot);
  for (const auto& source : revocation_sources_) {
    snapshot->verifier.add_revocation_source(source);
  }
  return snapshot;
}

std::shared_ptr<const VerifyService::Snapshot> VerifyService::current_snapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::uint64_t VerifyService::epoch() const { return current_snapshot()->epoch; }

void VerifyService::publish(std::shared_ptr<const Snapshot> fresh,
                            std::unique_lock<std::mutex> lock) {
  const std::uint64_t fresh_epoch = fresh->epoch;
  m_epoch_.set(static_cast<std::int64_t>(fresh_epoch));
  rootstore::export_store_metrics(*fresh->reader, registry_);
  // The swap is all readers wait for; the predecessor (possibly a whole
  // store copy) is destroyed after both locks are released.
  std::shared_ptr<const Snapshot> retired;
  {
    std::lock_guard<std::mutex> swap(snapshot_mu_);
    retired = std::exchange(snapshot_, std::move(fresh));
  }
  lock.unlock();
  epoch_flushes_.fetch_add(1, std::memory_order_relaxed);
  m_epoch_flushes_.add();
  // Entries under prior epochs are unreachable (lookups key on the current
  // epoch); reclaim their slots eagerly.
  const std::size_t purged = verdict_cache_.erase_if(
      [fresh_epoch](const VerdictKey& key) { return key.epoch != fresh_epoch; });
  stale_purged_.fetch_add(purged, std::memory_order_relaxed);
  m_stale_purged_.add(purged);
}

void VerifyService::mutate(
    const std::function<void(rootstore::RootStore&)>& fn) {
  std::unique_lock<std::mutex> lock(store_mu_);
  const std::uint64_t prior = snapshot_->epoch;
  if (snapshot_->view != nullptr) {
    // The service is serving an adopted view; the caller's live store may
    // be arbitrarily stale. Rebuild it from the view (same content, same
    // order, same epoch) so the mutation applies to what is served.
    store_ = snapshot_->view->materialize();
  }
  fn(store_);
  // Even a mutation the store failed to count must not alias the previous
  // snapshot in the verdict cache. `prior` is the *published* epoch, which
  // in view mode can sit above the store's own counter.
  store_.advance_epoch_past(prior);
  publish(build_snapshot(), std::move(lock));
}

void VerifyService::adopt_view(
    std::shared_ptr<const rootstore::snapshot::StoreView> view) {
  std::unique_lock<std::mutex> lock(store_mu_);
  // Never move backwards and never alias the predecessor, even when the
  // view was written at an epoch at or below the one being served.
  const std::uint64_t effective =
      std::max(view->epoch(), snapshot_->epoch + 1);
  auto fresh =
      std::make_shared<Snapshot>(std::move(view), effective, scheme_, registry_);
  attach_hook(fresh);
  for (const auto& source : revocation_sources_) {
    fresh->verifier.add_revocation_source(source);
  }
  publish(std::move(fresh), std::move(lock));
}

void VerifyService::add_revocation_source(
    std::shared_ptr<const revocation::Provider> provider) {
  if (provider == nullptr) return;
  std::unique_lock<std::mutex> lock(store_mu_);
  revocation_sources_.push_back(std::move(provider));
  const std::uint64_t prior = snapshot_->epoch;
  if (snapshot_->view != nullptr) {
    // Republish the same view with the new source attached. The epoch still
    // advances: revocation answers changed, so verdicts computed under the
    // prior snapshot must not be replayed against this one. (The GCC
    // verdict cache would in fact stay sound — GCCs never see revocation —
    // but a non-aliasing epoch keeps the invariant simple: one published
    // snapshot, one epoch.)
    auto view = snapshot_->view;
    auto fresh =
        std::make_shared<Snapshot>(std::move(view), prior + 1, scheme_,
                                   registry_);
    attach_hook(fresh);
    for (const auto& source : revocation_sources_) {
      fresh->verifier.add_revocation_source(source);
    }
    publish(std::move(fresh), std::move(lock));
    return;
  }
  store_.advance_epoch_past(prior);
  publish(build_snapshot(), std::move(lock));
}

VerifyResult VerifyService::verify_on(const Snapshot& snapshot,
                                      const x509::CertPtr& leaf,
                                      const CertificatePool& pool,
                                      const VerifyOptions& options) {
  const std::uint64_t start = now_ns();
  VerifyResult result = snapshot.verifier.verify(leaf, pool, options);
  const std::uint64_t elapsed = now_ns() - start;
  calls_.fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(elapsed, std::memory_order_relaxed);
  m_calls_.add();
  m_latency_.observe(static_cast<double>(elapsed) * 1e-9);
  return result;
}

VerifyResult VerifyService::verify(const x509::CertPtr& leaf,
                                   const CertificatePool& pool,
                                   const VerifyOptions& options,
                                   std::uint64_t* observed_epoch) {
  std::shared_ptr<const Snapshot> snapshot = current_snapshot();
  if (observed_epoch != nullptr) *observed_epoch = snapshot->epoch;
  return verify_on(*snapshot, leaf, pool, options);
}

std::future<VerifyResult> VerifyService::submit(
    x509::CertPtr leaf, std::shared_ptr<const CertificatePool> pool,
    VerifyOptions options) {
  auto task = std::make_shared<std::packaged_task<VerifyResult()>>(
      [this, leaf = std::move(leaf), pool = std::move(pool),
       options = std::move(options)] { return verify(leaf, *pool, options); });
  std::future<VerifyResult> future = task->get_future();
  pool_.post([task] { (*task)(); });
  return future;
}

std::vector<VerifyResult> VerifyService::verify_batch(
    std::span<const x509::CertPtr> leaves, const CertificatePool& pool,
    const VerifyOptions& options) {
  // Non-owning alias: safe because every future is joined before return,
  // so no task outlives the caller's `pool` reference.
  std::shared_ptr<const CertificatePool> alias(
      std::shared_ptr<const CertificatePool>{}, &pool);
  std::vector<std::future<VerifyResult>> futures;
  futures.reserve(leaves.size());
  for (const x509::CertPtr& leaf : leaves) {
    futures.push_back(submit(leaf, alias, options));
  }
  std::vector<VerifyResult> results;
  results.reserve(leaves.size());
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

Result<x509::CertPtr> VerifyService::parse_cached(BytesView der) {
  if (x509::CertPtr cached = cert_cache_.find(der)) {
    m_cert_hit_.add();
    return cached;
  }
  m_cert_miss_.add();
  auto parsed = x509::Certificate::parse(der);
  if (parsed) cert_cache_.insert(parsed.value());
  return parsed;
}

bool VerifyService::evaluate_gccs(std::span<const Bytes> chain_der,
                                  std::string_view usage) {
  return evaluate_gccs_detail(chain_der, usage).allowed;
}

VerifyService::GccsOutcome VerifyService::evaluate_gccs_detail(
    std::span<const Bytes> chain_der, std::string_view usage) {
  const std::uint64_t start = now_ns();
  std::shared_ptr<const Snapshot> snapshot = current_snapshot();
  GccsOutcome outcome;
  const auto finish = [&](GccsOutcome out) {
    const std::uint64_t elapsed = now_ns() - start;
    calls_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(elapsed, std::memory_order_relaxed);
    m_calls_.add();
    m_latency_.observe(static_cast<double>(elapsed) * 1e-9);
    return out;
  };
  core::Chain chain;
  chain.reserve(chain_der.size());
  for (const Bytes& der : chain_der) {
    auto cert = parse_cached(BytesView(der));
    if (!cert) {  // malformed input across IPC: reject
      outcome.kind = ErrorKind::kMalformedRequest;
      outcome.detail = cert.error();
      return finish(std::move(outcome));
    }
    chain.push_back(std::move(cert).take());
  }
  if (chain.empty()) {
    outcome.kind = ErrorKind::kMalformedRequest;
    outcome.detail = "empty certificate chain";
    return finish(std::move(outcome));
  }
  outcome.allowed = true;
  const auto gccs =
      snapshot->reader->gccs_for_root(chain.back()->fingerprint());
  if (!gccs.empty()) {
    outcome.allowed = snapshot->evaluate_gccs(*this, chain, usage, gccs,
                                              nullptr, outcome.verdict);
    if (!outcome.allowed) {
      outcome.kind = ErrorKind::kGccDenied;
      outcome.detail = "gcc:" + outcome.verdict.failed_gcc;
    }
  }
  return finish(std::move(outcome));
}

VerifyResult VerifyService::validate(const Bytes& leaf_der,
                                     std::span<const Bytes> intermediates_der,
                                     const VerifyOptions& options) {
  std::shared_ptr<const Snapshot> snapshot = current_snapshot();
  VerifyResult failure;
  failure.kind = ErrorKind::kMalformedRequest;
  auto leaf = parse_cached(BytesView(leaf_der));
  if (!leaf) {
    failure.error = "daemon: " + leaf.error();
    return failure;
  }
  CertificatePool pool;
  for (const Bytes& der : intermediates_der) {
    auto cert = parse_cached(BytesView(der));
    if (!cert) {
      failure.error = "daemon: " + cert.error();
      return failure;
    }
    pool.add(std::move(cert).take());
  }
  return verify_on(*snapshot, leaf.value(), pool, options);
}

std::optional<VerifyResult> VerifyService::validate_if_cached(
    const Bytes& leaf_der, std::span<const Bytes> intermediates_der,
    const VerifyOptions& options) {
  x509::CertPtr leaf = cert_cache_.peek(BytesView(leaf_der));
  if (leaf == nullptr) return std::nullopt;
  CertificatePool pool;
  for (const Bytes& der : intermediates_der) {
    x509::CertPtr cert = cert_cache_.peek(BytesView(der));
    if (cert == nullptr) return std::nullopt;
    pool.add(std::move(cert));
  }
  const std::uint64_t hits = 1 + intermediates_der.size();
  cert_cache_.count_hits(hits);
  m_cert_hit_.add(hits);
  return verify_on(*current_snapshot(), leaf, pool, options);
}

std::vector<VerifyResult> VerifyService::validate_batch(
    std::span<const Bytes> leaf_ders, std::span<const std::string> hostnames,
    std::span<const Bytes> intermediates_der, const VerifyOptions& options) {
  std::shared_ptr<const Snapshot> snapshot = current_snapshot();
  std::vector<VerifyResult> results(leaf_ders.size());

  // Parse the shared intermediates once for the whole batch. A malformed
  // shared intermediate poisons every entry: the caller vouched for one
  // pool, so no chain built from it can be trusted.
  CertificatePool pool;
  for (const Bytes& der : intermediates_der) {
    auto cert = parse_cached(BytesView(der));
    if (!cert) {
      for (VerifyResult& result : results) {
        result.kind = ErrorKind::kMalformedRequest;
        result.error = "daemon: " + cert.error();
      }
      return results;
    }
    pool.add(std::move(cert).take());
  }

  // Sequential on purpose: one thread means one thread-local Datalog
  // interning arena shared by every chain in the batch.
  for (std::size_t i = 0; i < leaf_ders.size(); ++i) {
    auto leaf = parse_cached(BytesView(leaf_ders[i]));
    if (!leaf) {
      results[i].kind = ErrorKind::kMalformedRequest;
      results[i].error = "daemon: " + leaf.error();
      continue;
    }
    VerifyOptions entry_options = options;
    if (i < hostnames.size()) entry_options.hostname = hostnames[i];
    results[i] = verify_on(*snapshot, leaf.value(), pool, entry_options);
  }
  return results;
}

ServiceStats VerifyService::stats() const {
  ServiceStats out;
  out.verdict_hits = verdict_hits_.load(std::memory_order_relaxed);
  out.verdict_misses = verdict_misses_.load(std::memory_order_relaxed);
  out.cert_hits = cert_cache_.hits();
  out.cert_misses = cert_cache_.misses();
  out.verdict_bypass = verdict_bypass_.load(std::memory_order_relaxed);
  out.evictions = verdict_cache_.evictions() + cert_cache_.evictions();
  out.epoch_flushes = epoch_flushes_.load(std::memory_order_relaxed);
  out.stale_purged = stale_purged_.load(std::memory_order_relaxed);
  out.calls = calls_.load(std::memory_order_relaxed);
  out.total_ns = total_ns_.load(std::memory_order_relaxed);
  out.queue_depth = pool_.queue_depth();
  out.epoch = current_snapshot()->epoch;
  m_queue_depth_.set(static_cast<std::int64_t>(out.queue_depth));
  return out;
}

}  // namespace anchor::chain
