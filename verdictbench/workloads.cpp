#include "workloads.hpp"

#include <algorithm>
#include <map>

#include "chain/verifier.hpp"
#include "corpus/census.hpp"
#include "ctlog/merkle.hpp"
#include "incidents/listings.hpp"
#include "probes.hpp"
#include "revocation/crlite.hpp"
#include "rootstore/snapshot/writer.hpp"
#include "util/rng.hpp"

namespace verdictbench {

using namespace anchor;

namespace {

// One fixed corpus for every run: the workload seed picks requests, visit
// order, revocations and expiries from it, but never changes the store, so
// runs with different seeds measure the same program on like-for-like
// inputs. Small enough to generate in about a second, large enough that
// cold_diverse has several thousand distinct chains. 16 roots keep one RSF
// update at a few milliseconds: a 60-root store took ~20 ms per update,
// long enough that every update absorbed a shared VM's steal time and the
// median moved with it (IQR 22-26% over ten seeds on feed_churn, 4-vCPU
// VM). The feature counts are scaled down with the corpus (the defaults
// assume 140 roots and 776 intermediates).
corpus::CorpusConfig corpus_config() {
  corpus::CorpusConfig config;
  config.seed = 20231128;
  config.num_roots = 16;
  config.num_intermediates = 300;
  config.roots_with_path_len = 3;
  config.intermediates_with_path_len = 250;
  config.intermediates_with_name_constraints = 12;
  config.roots_with_constrained_chain = 3;
  config.leaves_per_intermediate_mean = 10.0;
  return config;
}

const corpus::CaProfile& issuer_of(const corpus::Corpus& c, std::size_t leaf) {
  return c.intermediates()[static_cast<std::size_t>(
      c.leaves()[leaf].issuer_intermediate)];
}

std::string root_of(const corpus::Corpus& c, std::size_t leaf) {
  return c.roots()[static_cast<std::size_t>(issuer_of(c, leaf).parent_root)]
      .cert->fingerprint_hex();
}

std::int64_t mid_life(const x509::Certificate& cert) {
  return cert.not_before() + cert.lifetime_seconds() / 2;
}

Request make_request(const corpus::Corpus& c, std::size_t leaf,
                     std::int64_t time) {
  const corpus::LeafRecord& record = c.leaves()[leaf];
  const x509::CertPtr& intermediate = issuer_of(c, leaf).cert;
  Request r;
  r.leaf = record.cert;
  auto pool = std::make_shared<chain::CertificatePool>();
  pool->add(intermediate);
  r.pool = std::move(pool);
  r.leaf_der = record.cert->der();
  r.intermediates_der = {intermediate->der()};
  r.options.time = time;
  r.options.usage = record.smime ? chain::Usage::kSmime : chain::Usage::kTls;
  if (!record.smime) r.options.hostname = record.domain;
  r.wire.verb = anchord::Verb::kVerify;
  r.wire.usage = chain::usage_name(r.options.usage);
  r.wire.time = time;
  r.wire.hostname = r.options.hostname;
  r.wire.leaf_der = r.leaf_der;
  r.wire.intermediates_der = r.intermediates_der;
  return r;
}

void attach_context(Request& r, const rootstore::ChainContext& context) {
  core::Chain chain{r.leaf};
  r.context = std::make_shared<const core::FactSet>(
      context.to_facts(core::chain_id_of(chain)));
  r.options.gcc_context = r.context.get();
  r.chain_context = &context;
}

class Oracle {
 public:
  Oracle(const rootstore::RootStore& store, const SimSig& scheme,
         const std::shared_ptr<const revocation::Provider>& crlite)
      : verifier_(store, scheme) {
    if (crlite != nullptr) verifier_.add_revocation_source(crlite);
  }
  Verdict operator()(const Request& r) const {
    const chain::VerifyResult result = verifier_.verify(r.leaf, *r.pool, r.options);
    return Verdict{result.ok, result.kind};
  }

 private:
  chain::ChainVerifier verifier_;
};

// A seeded permutation of [0, n).
std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform(i)]);
  }
  return order;
}

// The GCC every update toggles on the sentinel's root: it never derives
// valid(Chain, Usage) for a real usage, so while it is attached every chain
// through that root is denied.
core::Gcc deny_gcc(const std::string& root_hash) {
  return core::Gcc::create("benchmark-deny", root_hash,
                           "valid(Chain, \"never\") :- leaf(Chain, Cert).")
      .take();
}

std::string describe_mix(const std::vector<Request>& requests) {
  std::map<std::string, std::size_t> counts;
  for (const Request& r : requests) ++counts[chain::to_string(r.expected.kind)];
  std::string out;
  for (const auto& [kind, n] : counts) {
    if (!out.empty()) out += ",";
    out += kind + "=" + std::to_string(n);
  }
  return out;
}

}  // namespace

std::unique_ptr<Inputs> make_inputs(const std::string& workload,
                                    std::uint64_t seed,
                                    const std::string& workdir,
                                    std::string& error) {
  const bool warm = workload == "warm_repeat";
  const bool cold = workload == "cold_diverse";
  const bool ua = workload == "ua_context";
  const bool churn = workload == "feed_churn";
  if (!warm && !cold && !ua && !churn) {
    error = "unknown workload '" + workload + "'";
    return nullptr;
  }
  auto in = std::make_unique<Inputs>();
  in->corpus = corpus::Corpus::generate(corpus_config());
  in->entry = warm ? Entry::kDaemon : ua ? Entry::kVerify : Entry::kValidate;
  in->concurrent_updates = churn;
  in->hot_set = !cold;
  in->service_config.threads = 1;
  if (cold) {
    // Small caches (4 entries per shard), so thousands of distinct chains
    // whose intermediates recur only far apart never hit either LRU.
    in->service_config.verdict_capacity = 64;
    in->service_config.cert_capacity = 64;
  }
  const corpus::Corpus& c = in->corpus;
  const std::int64_t now = c.config().validation_time();
  Rng rng(seed ^ 0x5eedb0b5ULL);

  corpus::PrimaryStores primaries = corpus::make_primary_stores(c);
  if (ua) {
    in->primary = std::move(primaries.stores[1]);  // chrome-like, compiled
  } else {
    // mozilla-like, with a Listing-1 GCC on every trusted root: every
    // accepted path evaluates Datalog.
    in->primary = std::move(primaries.stores[0]);
    for (const corpus::CaProfile& root : c.roots()) {
      if (in->primary.state_of(root.cert->fingerprint_hex()) !=
          rootstore::TrustState::kTrusted) {
        continue;
      }
      in->primary.attach_gcc(core::Gcc::for_certificate(
                                 "date-usage", *root.cert,
                                 incidents::listing1_trustcor())
                                 .take());
    }
  }

  // CRLite over every issuer's full serial universe; 4% of leaves revoked.
  {
    revocation::CompressedRevocationSet::Builder builder;
    for (std::size_t i = 0; i < c.leaves().size(); ++i) {
      const x509::Certificate& issuer = *issuer_of(c, i).cert;
      if (rng.chance(0.04)) {
        builder.add_revoked(issuer, *c.leaves()[i].cert);
      } else {
        builder.add_valid(issuer, *c.leaves()[i].cert);
      }
    }
    auto built = builder.build();
    if (!built) {
      error = "crlite build failed: " + built.error();
      return nullptr;
    }
    in->crlite = std::make_shared<const revocation::CompressedRevocationSet>(
        std::move(built).take());
  }
  in->register_crlite = cold;

  if (ua) {
    rootstore::ChainContext base;
    base.sct_timestamps = {now - 86400, now - 7200};
    base.client_version = rootstore::chromeproto::Version::parse("125.0.6368.2");
    base.validation_time = now;
    rootstore::ChainContext old_client = base;
    old_client.client_version =
        rootstore::chromeproto::Version::parse("110.0.5481.77");
    rootstore::ChainContext old_scts = base;
    old_scts.sct_timestamps = {now - 400 * 86400, now - 300 * 86400};
    rootstore::ChainContext no_scts = base;
    no_scts.sct_timestamps.clear();
    no_scts.client_version = rootstore::chromeproto::Version::parse("131.0.6778.3");
    in->contexts = {base, old_client, old_scts, no_scts};
  }

  const Oracle oracle(in->primary, c.signatures(),
                      in->register_crlite ? in->crlite : nullptr);

  // Chains accepted at `now` (under the first context for ua_context): the
  // pool the sentinel and the hot sets are drawn from.
  std::vector<std::size_t> accepted;
  for (std::size_t i = 0; i < c.leaves().size(); ++i) {
    const corpus::LeafRecord& record = c.leaves()[i];
    if (record.smime || !record.cert->valid_at(now)) continue;
    Request r = make_request(c, i, now);
    if (ua) attach_context(r, in->contexts[0]);
    if (oracle(r).ok) accepted.push_back(i);
  }
  if (accepted.size() < 8) {
    error = "corpus has too few accepted chains";
    return nullptr;
  }

  // Sentinel: the first accepted chain, the same for every seed. Hot sets
  // avoid its root, so reads beside feed_churn's updates keep a fixed
  // expected verdict.
  const std::size_t sentinel_leaf = accepted.front();
  in->sentinel_root = root_of(c, sentinel_leaf);
  in->sentinel = make_request(c, sentinel_leaf, now);
  if (ua) attach_context(in->sentinel, in->contexts[0]);
  in->sentinel.expected = oracle(in->sentinel);
  {
    rootstore::RootStore denied = in->primary;
    denied.attach_gcc(deny_gcc(in->sentinel_root));
    in->sentinel_denied = Oracle(denied, c.signatures(),
                                 in->register_crlite ? in->crlite : nullptr)(
        in->sentinel);
  }

  if (cold) {
    // Every corpus chain, each at a time inside its leaf's life; 6% of them
    // after the leaf expired. Rejections (expired, GCC-denied, revoked,
    // distrusted or cut-off roots) stay in: a correct rejection is a
    // correct answer. Each intermediate's chains are spread evenly over the
    // visit order (seeded phase), so an intermediate recurs only after many
    // others and neither cache ever hits.
    std::vector<std::vector<std::size_t>> by_issuer(c.intermediates().size());
    for (std::size_t i : permutation(c.leaves().size(), rng)) {
      by_issuer[static_cast<std::size_t>(c.leaves()[i].issuer_intermediate)]
          .push_back(i);
    }
    std::vector<std::pair<double, std::size_t>> slots;
    for (const std::vector<std::size_t>& group : by_issuer) {
      const double phase = rng.uniform01();
      for (std::size_t j = 0; j < group.size(); ++j) {
        slots.emplace_back((static_cast<double>(j) + phase) /
                               static_cast<double>(group.size()),
                           group[j]);
      }
    }
    std::sort(slots.begin(), slots.end());
    for (const auto& [position, leaf] : slots) {
      const x509::Certificate& cert = *c.leaves()[leaf].cert;
      const std::int64_t time =
          rng.chance(0.06) ? cert.not_after() + 86400 : mid_life(cert);
      in->requests.push_back(make_request(c, leaf, time));
    }
  } else {
    const std::size_t hot = ua ? 32 : 64;
    std::vector<std::size_t> chosen;
    for (std::size_t pick : permutation(accepted.size(), rng)) {
      const std::size_t leaf = accepted[pick];
      if (root_of(c, leaf) == in->sentinel_root) continue;
      chosen.push_back(leaf);
      if (chosen.size() == hot) break;
    }
    std::vector<Request> set;
    for (std::size_t leaf : chosen) {
      if (ua) {
        for (const auto& context : in->contexts) {
          set.push_back(make_request(c, leaf, now));
          attach_context(set.back(), context);
        }
      } else {
        set.push_back(make_request(c, leaf, now));
      }
    }
    for (std::size_t i : permutation(set.size(), rng)) {
      in->requests.push_back(std::move(set[i]));
    }
  }
  for (Request& r : in->requests) r.expected = oracle(r);
  in->verdict_mix = describe_mix(in->requests);

  in->snapshot_path = workdir + "/" + workload + ".snap";
  if (Status s = rootstore::snapshot::write_snapshot_file(in->primary,
                                                          in->snapshot_path);
      !s) {
    error = "snapshot write failed: " + s.error();
    return nullptr;
  }
  return in;
}

Stack::Stack(const Inputs& inputs,
             std::shared_ptr<const rootstore::snapshot::StoreView> view,
             const SignatureScheme& scheme,
             std::shared_ptr<const revocation::Provider> revocation)
    : inputs_(inputs) {
  service_ = std::make_unique<chain::VerifyService>(
      live_, scheme, inputs.service_config, registry_);
  if (revocation != nullptr) service_->add_revocation_source(std::move(revocation));
  const std::uint64_t start = now_ns();
  service_->adopt_view(std::move(view));
  adopt_ms_ = static_cast<double>(now_ns() - start) / 1e6;
  if (inputs.entry != Entry::kDaemon) return;

  auto pair = anchord::make_socketpair_conduit();
  if (!pair) {
    error_ = "socketpair: " + pair.error();
    return;
  }
  conduits_ = std::move(pair).take();
  anchord::VerbDispatcher::Backends backends;
  backends.service = service_.get();
  backends.registry = &registry_;
  anchord::AnchordConfig config;
  config.workers = 1;
  server_ = std::make_unique<anchord::AnchordServer>(backends, config, registry_);
  serve_thread_ = std::thread([this] { server_->serve(*conduits_.second); });
  client_ = std::make_unique<anchord::AnchordClient>(*conduits_.first,
                                                      /*timeout_ms=*/30000);
}

Stack::~Stack() {
  if (conduits_.first != nullptr) conduits_.first->close();
  if (serve_thread_.joinable()) serve_thread_.join();
}

Outcome Stack::issue(const Request& request) {
  Outcome out;
  switch (inputs_.entry) {
    case Entry::kDaemon: {
      auto response = client_->call(request.wire);
      if (!response) {
        out.error = response.error();
        return out;
      }
      out.delivered = true;
      out.verdict = Verdict{response.value().ok, response.value().kind};
      out.paths_explored = response.value().stats.paths_explored;
      return out;
    }
    case Entry::kValidate: {
      const chain::VerifyResult result = service_->validate(
          request.leaf_der, request.intermediates_der, request.options);
      out.delivered = true;
      out.verdict = Verdict{result.ok, result.kind};
      out.paths_explored = result.paths_explored;
      return out;
    }
    case Entry::kVerify: {
      const chain::VerifyResult result =
          service_->verify(request.leaf, *request.pool, request.options);
      out.delivered = true;
      out.verdict = Verdict{result.ok, result.kind};
      out.paths_explored = result.paths_explored;
      return out;
    }
  }
  return out;
}

Updater::Updater(const Inputs& inputs)
    : inputs_(inputs),
      feed_("verdictbench", feed_keys_),
      primary_(inputs.primary),
      client_(feed_, /*poll_interval=*/3600, rsf::MergePolicy::kPrimaryWins,
              rsf::Transport::kDelta),
      deny_(deny_gcc(inputs.sentinel_root)),
      clock_(inputs.corpus.config().validation_time()) {
  feed_.publish(primary_, clock_, "initial");
  client_.poll_now(clock_);
}

void Updater::bind(Stack& stack) {
  stack_ = &stack;
  client_.set_adoption_hook([this](const rootstore::RootStore& adopted) {
    const std::uint64_t start = now_ns();
    stack_->service().mutate(
        [&adopted](rootstore::RootStore& live) { live = adopted; });
    hook_ms_ = static_cast<double>(now_ns() - start) / 1e6;
  });
}

UpdateSample Updater::step(bool traced) {
  UpdateSample sample;
  denied_ = !denied_;
  if (denied_) {
    primary_.attach_gcc(deny_);
  } else {
    primary_.detach_gcc(deny_.root_hash_hex(), deny_.name());
  }
  clock_ += 3600;
  const std::uint64_t bytes_before = client_.stats().bytes_fetched;
  const std::uint64_t purged_before = stack_->service().stats().stale_purged;
  const std::uint64_t size_before = client_.last_applied_sequence();
  const ctlog::Hash root_before = client_.pinned_tree_root();
  const std::uint64_t allocs_before = allocs_thread();
  hook_ms_ = 0;

  const std::uint64_t t0 = now_ns();
  feed_.publish(primary_, clock_, denied_ ? "deny sentinel" : "restore sentinel");
  const std::uint64_t t1 = now_ns();
  const std::size_t applied = client_.poll_now(clock_);
  const std::uint64_t t2 = now_ns();
  const Outcome outcome = stack_->issue(inputs_.sentinel);
  const std::uint64_t t3 = now_ns();

  const Verdict expected =
      denied_ ? inputs_.sentinel_denied : inputs_.sentinel.expected;
  sample.correct = applied == 1 && outcome.delivered && outcome.verdict == expected;
  sample.visible_ms = static_cast<double>(t3 - t0) / 1e6;
  sample.publish_ms = static_cast<double>(t1 - t0) / 1e6;
  sample.mutate_ms = hook_ms_;
  sample.poll_ms = static_cast<double>(t2 - t1) / 1e6 - hook_ms_;
  sample.allocs = static_cast<double>(allocs_thread() - allocs_before);
  sample.bytes = static_cast<double>(client_.stats().bytes_fetched - bytes_before);
  sample.stale_purged =
      static_cast<double>(stack_->service().stats().stale_purged - purged_before);
  if (!traced) return sample;

  // Shadow work, outside the timed span: re-verify the proofs the poll
  // checked, and price one copy of the adopted store.
  rsf::FeedFetchQuery query;
  query.from_size = size_before;
  auto fetched = feed_.feed_fetch(query);
  if (!fetched || fetched.value().snapshots.empty()) {
    sample.correct = false;
    return sample;
  }
  const rsf::FeedFetch& ff = fetched.value();
  const std::uint64_t p0 = now_ns();
  const bool consistent = ctlog::verify_consistency(
      size_before, ff.sth.tree_size, root_before, ff.sth.root_hash, ff.consistency);
  const bool included = ctlog::verify_inclusion(
      ctlog::leaf_hash(BytesView(ff.snapshots.back().transcript())),
      ff.sth.tree_size - 1, ff.sth.tree_size, ff.inclusion, ff.sth.root_hash);
  sample.proof_us = static_cast<double>(now_ns() - p0) / 1e3;
  sample.correct = sample.correct && consistent && included;
  const std::uint64_t c0 = now_ns();
  {
    const rootstore::RootStore copy = client_.store();
    sample.copy_ms = static_cast<double>(now_ns() - c0) / 1e6;
    sample.correct = sample.correct && copy.epoch() == client_.store().epoch();
  }
  return sample;
}

}  // namespace verdictbench
