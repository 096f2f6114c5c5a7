#include "rsf/feed.hpp"

#include <algorithm>

#include "util/sha256.hpp"

namespace anchor::rsf {

namespace {

// Wire framing overhead of a length-prefixed string/blob field.
constexpr std::size_t kLenPrefix = 4;

std::string hash_hex(const ctlog::Hash& hash) {
  return to_hex(BytesView(hash.data(), hash.size()));
}

}  // namespace

Bytes Snapshot::transcript() const {
  // Length-prefixed concatenation; unambiguous under any field contents.
  std::string t = "anchor-rsf-snapshot/v1\n";
  t += "seq " + std::to_string(sequence) + "\n";
  t += "time " + std::to_string(published_at) + "\n";
  t += "prev " + prev_hash + "\n";
  t += "payload " + payload_hash + "\n";
  t += "annotation-len " + std::to_string(annotation.size()) + "\n";
  t += annotation;
  return to_bytes(t);
}

std::size_t Snapshot::wire_size(bool include_payload) const {
  std::size_t n = 8 /*sequence*/ + 8 /*published_at*/;
  n += kLenPrefix + annotation.size();
  n += kLenPrefix + (include_payload ? payload.size() : 0);
  n += kLenPrefix + payload_hash.size();
  n += kLenPrefix + prev_hash.size();
  n += kLenPrefix + signature.size();
  return n;
}

Bytes SignedTreeHead::transcript() const {
  std::string t = "anchor-rsf-sth/v1\n";
  t += "size " + std::to_string(tree_size) + "\n";
  t += "time " + std::to_string(published_at) + "\n";
  t += "root " + hash_hex(root_hash) + "\n";
  return to_bytes(t);
}

std::size_t SignedTreeHead::wire_size() const {
  return 8 /*tree_size*/ + root_hash.size() + 8 /*published_at*/ +
         kLenPrefix + signature.size();
}

std::size_t FeedFetch::wire_size(bool include_payloads) const {
  std::size_t n = sth.wire_size();
  n += kLenPrefix + consistency.size() * sizeof(ctlog::Hash);
  n += kLenPrefix + inclusion.size() * sizeof(ctlog::Hash);
  n += kLenPrefix;
  for (const Snapshot& snap : snapshots) n += snap.wire_size(include_payloads);
  n += kLenPrefix;
  for (const std::string& delta : deltas) n += kLenPrefix + delta.size();
  return n;
}

Feed::Feed(std::string name, SimSig& registry)
    : name_(std::move(name)),
      key_(SimSig::keygen("rsf-feed-" + name_)),
      registry_(registry) {
  registry_.register_key(key_);
}

SignedTreeHead Feed::make_sth_locked(std::uint64_t tree_size) const {
  if (tree_size == 0) {
    // The empty feed still has a well-defined, signed head: the RFC 6962
    // empty-tree root. Deterministic key + deterministic transcript keep
    // this byte-identical across processes.
    SignedTreeHead sth;
    sth.tree_size = 0;
    sth.root_hash = ctlog::empty_tree_hash();
    sth.published_at = 0;
    sth.signature = SimSig::sign(key_, BytesView(sth.transcript()));
    return sth;
  }
  return sths_[tree_size - 1];
}

void Feed::append_locked(Snapshot snap, BytesView transcript,
                         std::string delta) {
  tree_.append(transcript);
  SignedTreeHead sth;
  sth.tree_size = snap.sequence;
  sth.root_hash = tree_.root();
  sth.published_at = snap.published_at;
  sth.signature = SimSig::sign(key_, BytesView(sth.transcript()));
  snapshots_.push_back(std::move(snap));
  deltas_.push_back(std::move(delta));
  sths_.push_back(std::move(sth));
}

std::uint64_t Feed::publish(const rootstore::RootStore& store,
                            std::int64_t published_at,
                            std::string annotation) {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.sequence = snapshots_.size() + 1;
  snap.published_at = published_at;
  snap.annotation = std::move(annotation);
  snap.payload = store.serialize();
  snap.payload_hash = Sha256::hash_hex(view_bytes(snap.payload));
  snap.prev_hash = snapshots_.empty() ? "" : snapshots_.back().payload_hash;
  const Bytes transcript = snap.transcript();
  snap.signature = SimSig::sign(key_, BytesView(transcript));
  std::string delta =
      published_ ? StoreDelta::diff(*published_, store).serialize() : "";
  append_locked(std::move(snap), BytesView(transcript), std::move(delta));
  published_ = store;
  return snapshots_.size();
}

std::uint64_t Feed::head_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_.size();
}

SignedTreeHead Feed::tree_head() const {
  std::lock_guard<std::mutex> lock(mu_);
  return make_sth_locked(snapshots_.size());
}

std::optional<SignedTreeHead> Feed::tree_head_at(
    std::uint64_t tree_size) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (tree_size > snapshots_.size()) return std::nullopt;
  return make_sth_locked(tree_size);
}

Result<FeedFetch> Feed::feed_fetch(const FeedFetchQuery& query) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t head = snapshots_.size();
  const std::uint64_t to = query.to_size == 0 ? head : query.to_size;
  if (to > head) {
    return err("rsf: no tree head at size " + std::to_string(to) +
               " (head is " + std::to_string(head) + ")");
  }

  FeedFetch out;
  // A poller at or beyond the served view gets the tree head alone — it
  // classifies no-change vs rollback itself from the signed size/root. A
  // zero-snapshot query is an explicit head probe.
  if (query.from_size >= to || query.max_snapshots == 0) {
    out.sth = make_sth_locked(to);
    return out;
  }

  // Clamp the range to the snapshot and byte budgets, always making
  // progress by at least one snapshot; under pagination the tree head is
  // served AT the clamped size so the proofs below still verify.
  std::uint64_t served = std::min<std::uint64_t>(
      to, query.from_size + query.max_snapshots);
  if (query.max_bytes != 0) {
    std::uint64_t budget_end = query.from_size;
    std::size_t spent = 0;
    for (std::uint64_t seq = query.from_size + 1; seq <= served; ++seq) {
      spent += snapshots_[seq - 1].wire_size(!query.want_deltas);
      if (spent > query.max_bytes && budget_end > query.from_size) break;
      budget_end = seq;
    }
    served = budget_end;
  }

  out.sth = make_sth_locked(served);
  if (query.from_size > 0) {
    out.consistency = tree_.consistency_proof(query.from_size, served);
  }
  out.inclusion = tree_.inclusion_proof(served - 1, served);
  out.snapshots.assign(
      snapshots_.begin() + static_cast<std::ptrdiff_t>(query.from_size),
      snapshots_.begin() + static_cast<std::ptrdiff_t>(served));
  if (query.want_deltas) {
    out.deltas.reserve(out.snapshots.size());
    for (const Snapshot& snap : out.snapshots) {
      // A missing delta must not take the whole response down: serve the
      // snapshots with a partial delta list and let the poller fall back
      // to full payloads — where its own checks then catch any fault.
      const std::string& delta = deltas_[snap.sequence - 1];
      if (delta.empty()) break;
      out.deltas.push_back(delta);
    }
  }
  return out;
}

std::vector<Snapshot> Feed::fetch_since(std::uint64_t after) const {
  std::lock_guard<std::mutex> lock(mu_);
  // snapshots_[i] has sequence i + 1, so the run after `after` starts at
  // index `after`.
  if (after >= snapshots_.size()) return {};
  return std::vector<Snapshot>(
      snapshots_.begin() + static_cast<std::ptrdiff_t>(after),
      snapshots_.end());
}

const Snapshot* Feed::at(std::uint64_t sequence) const {
  if (sequence == 0 || sequence > snapshots_.size()) return nullptr;
  return &snapshots_[sequence - 1];
}

Status Feed::restore(std::vector<Snapshot> run) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!snapshots_.empty()) return err("rsf: restore into a non-empty feed");
  if (run.empty()) return {};
  if (run.front().sequence != 1) {
    return err("rsf: restore run must start at sequence 1, got " +
               std::to_string(run.front().sequence));
  }
  Status verified = verify_run(run, "", BytesView(key_.key_id), registry_);
  if (!verified) return verified;
  for (Snapshot& snap : run) {
    auto parsed = rootstore::RootStore::deserialize(snap.payload);
    std::optional<rootstore::RootStore> current;
    if (parsed) current = std::move(parsed).take();
    std::string delta = published_ && current
                            ? StoreDelta::diff(*published_, *current).serialize()
                            : "";
    published_ = std::move(current);
    const Bytes transcript = snap.transcript();
    append_locked(std::move(snap), BytesView(transcript), std::move(delta));
  }
  return {};
}

Snapshot* Feed::mutable_at(std::uint64_t sequence) {
  if (sequence == 0 || sequence > snapshots_.size()) return nullptr;
  return &snapshots_[sequence - 1];
}

Status Feed::verify_run(std::span<const Snapshot> run,
                        const std::string& anchor_prev_hash, BytesView key_id,
                        const SimSig& registry, RunFault* fault) {
  const auto fail = [&](RunFault kind, std::string message) -> Status {
    if (fault != nullptr) *fault = kind;
    return err(std::move(message));
  };
  if (fault != nullptr) *fault = RunFault::kNone;
  std::string expected_prev = anchor_prev_hash;
  std::uint64_t expected_seq = 0;
  for (const Snapshot& snap : run) {
    if (expected_seq != 0 && snap.sequence != expected_seq + 1) {
      return fail(RunFault::kSequenceGap,
                  "rsf: sequence gap at " + std::to_string(snap.sequence));
    }
    expected_seq = snap.sequence;
    if (!expected_prev.empty() && snap.prev_hash != expected_prev) {
      return fail(RunFault::kChainBroken,
                  "rsf: hash chain broken at sequence " +
                      std::to_string(snap.sequence));
    }
    std::string recomputed = Sha256::hash_hex(view_bytes(snap.payload));
    if (recomputed != snap.payload_hash) {
      return fail(RunFault::kPayloadHash,
                  "rsf: payload hash mismatch at sequence " +
                      std::to_string(snap.sequence));
    }
    if (!registry.verify(key_id, BytesView(snap.transcript()),
                         BytesView(snap.signature))) {
      return fail(RunFault::kBadSignature,
                  "rsf: bad signature at sequence " +
                      std::to_string(snap.sequence));
    }
    expected_prev = snap.payload_hash;
  }
  return {};
}

}  // namespace anchor::rsf
