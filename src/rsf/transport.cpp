#include "rsf/transport.hpp"

namespace anchor::rsf {

const char* to_string(TransportErrorKind kind) {
  switch (kind) {
    case TransportErrorKind::kUnreachable:
      return "unreachable";
    case TransportErrorKind::kTruncatedRun:
      return "truncated-run";
    case TransportErrorKind::kCorruptPayload:
      return "corrupt-payload";
    case TransportErrorKind::kCorruptDelta:
      return "corrupt-delta";
    case TransportErrorKind::kBadSignature:
      return "bad-signature";
    case TransportErrorKind::kRollback:
      return "rollback";
    case TransportErrorKind::kBadProof:
      return "bad-proof";
  }
  return "unknown";
}

FaultProfile FaultProfile::loss(double p) {
  FaultProfile profile;
  profile.unreachable = p;
  return profile;
}

FaultProfile FaultProfile::corruption(double p) {
  FaultProfile profile;
  profile.corrupt_payload = p;
  profile.corrupt_delta = p;
  profile.flip_signature = p;
  return profile;
}

FaultProfile FaultProfile::chaos(double p) {
  FaultProfile profile;
  profile.unreachable = p;
  profile.truncate_run = p;
  profile.corrupt_payload = p;
  profile.corrupt_delta = p;
  profile.flip_signature = p;
  profile.rollback = p;
  profile.corrupt_proof = p;
  return profile;
}

FaultyTransport::FaultyTransport(FeedTransport& inner, FaultProfile profile,
                                 std::uint64_t seed)
    : inner_(inner), profile_(profile), rng_(seed) {}

std::uint64_t FaultyTransport::injected_total() const {
  std::uint64_t total = 0;
  for (std::uint64_t n : injected_) total += n;
  return total;
}

Result<FeedFetch> FaultyTransport::feed_fetch(const FeedFetchQuery& query) {
  if (rng_.chance(profile_.unreachable)) {
    count(TransportErrorKind::kUnreachable);
    return err("transport: feed unreachable");
  }
  FeedFetchQuery effective = query;
  if (query.from_size > 1 && rng_.chance(profile_.rollback)) {
    // Stale-head replay: answer from the feed as it looked at some head
    // strictly below the poller's pinned size, the way a lagging cache
    // would. (An equal-size replay is indistinguishable from a legitimate
    // no-change — the pinned root authenticates it — so the attack only
    // manifests below the pin.) The historic tree head is genuinely
    // signed; only the client's size/root pin can catch this.
    effective.to_size = 1 + rng_.uniform(query.from_size - 1);  // [1, from)
    count(TransportErrorKind::kRollback);
  }
  auto fetched = inner_.feed_fetch(effective);
  if (!fetched) return fetched;
  FeedFetch out = std::move(fetched).take();

  if (!out.snapshots.empty() && rng_.chance(profile_.truncate_run)) {
    // Drop the tail of the range; the tree head still claims the full
    // served size, so the client sees a short run.
    out.snapshots.resize(rng_.uniform(out.snapshots.size()));
    if (!out.deltas.empty()) out.deltas.resize(out.snapshots.size());
    count(TransportErrorKind::kTruncatedRun);
  }
  if (!out.snapshots.empty() && rng_.chance(profile_.corrupt_payload)) {
    Snapshot& victim = out.snapshots[rng_.uniform(out.snapshots.size())];
    if (victim.payload.empty()) {
      victim.payload = "?";
    } else {
      victim.payload[rng_.uniform(victim.payload.size())] ^= 0x01;
    }
    count(TransportErrorKind::kCorruptPayload);
  }
  if (!out.snapshots.empty() && rng_.chance(profile_.flip_signature)) {
    Snapshot& victim = out.snapshots[rng_.uniform(out.snapshots.size())];
    if (victim.signature.empty()) {
      victim.signature.push_back(0x01);
    } else {
      victim.signature[rng_.uniform(victim.signature.size())] ^= 0x01;
    }
    count(TransportErrorKind::kBadSignature);
  }
  if (!out.deltas.empty() && rng_.chance(profile_.corrupt_delta)) {
    std::string& victim = out.deltas[rng_.uniform(out.deltas.size())];
    if (victim.empty()) {
      victim = "?";
    } else {
      victim[rng_.uniform(victim.size())] ^= 0x01;
    }
    count(TransportErrorKind::kCorruptDelta);
  }
  const std::size_t proof_nodes = out.consistency.size() + out.inclusion.size();
  if (proof_nodes > 0 && rng_.chance(profile_.corrupt_proof)) {
    const std::size_t victim = rng_.uniform(proof_nodes);
    ctlog::Hash& node = victim < out.consistency.size()
                            ? out.consistency[victim]
                            : out.inclusion[victim - out.consistency.size()];
    node[rng_.uniform(node.size())] ^=
        static_cast<std::uint8_t>(1u << rng_.uniform(8));
    count(TransportErrorKind::kBadProof);
  }
  return out;
}

}  // namespace anchor::rsf
