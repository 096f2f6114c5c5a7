// Feed transports: how a polling client reaches a Root-Store Feed.
//
// The paper's deployment story (§4) has derivatives polling a primary RSF
// over the network, where the feed can be unreachable, truncated by a lazy
// mirror, corrupted in flight, or rolled back by a stale cache. `Feed`
// itself is an in-memory append-only log that can never fail, so the
// client/feed seam is widened into `FeedTransport`, which carries exactly
// one exchange: the Merkle-authenticated feed-fetch (signed tree head,
// consistency and inclusion proofs, snapshot range, optional inline
// deltas). `DirectTransport` is the perfect in-process wire, and
// `FaultyTransport` is a decorator that injects deterministic, seeded
// faults (driven by `util/rng`) into that exchange between any transport
// and the client. The client's verification/quarantine/backoff machinery
// (client.hpp) is exercised against the faulty decorator; the feed's
// signatures, hash chain and tree-head proofs guarantee that no injected
// fault can ever make an unverified snapshot adoptable — faults only cost
// liveness, never safety (pinned by tests/rsf_fault_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "rsf/feed.hpp"
#include "util/rng.hpp"

namespace anchor::rsf {

// Failure taxonomy, used both for injection (FaultyTransport) and for the
// client's per-kind error accounting (ClientStats::transport_errors).
enum class TransportErrorKind : int {
  kUnreachable = 0,    // the fetch itself failed; nothing was delivered
  kTruncatedRun = 1,   // run ends early / has gaps (stale or lazy mirror)
  kCorruptPayload = 2, // snapshot payload bytes damaged in flight
  kCorruptDelta = 3,   // delta text damaged in flight
  kBadSignature = 4,   // snapshot signature bytes flipped
  kRollback = 5,       // replay of an older feed state (stale-head)
  kBadProof = 6,       // Merkle consistency/inclusion proof rejected
};
inline constexpr std::size_t kTransportErrorKindCount = 7;

const char* to_string(TransportErrorKind kind);

// How the client reaches the feed. Implementations must be safe to call
// repeatedly; they never mutate the underlying feed.
class FeedTransport {
 public:
  virtual ~FeedTransport() = default;

  virtual const std::string& name() const = 0;
  virtual const Bytes& key_id() const = 0;

  // One poll: the feed's answer to `query` (Feed::feed_fetch). The client
  // verifies the tree head, proofs and run before adopting anything; a
  // query with max_snapshots = 0 is a tree-head-only probe.
  virtual Result<FeedFetch> feed_fetch(const FeedFetchQuery& query) = 0;
};

// The perfect wire: pass-through to an in-process Feed. Never fails.
class DirectTransport : public FeedTransport {
 public:
  explicit DirectTransport(const Feed& feed) : feed_(feed) {}

  const std::string& name() const override { return feed_.name(); }
  const Bytes& key_id() const override { return feed_.key_id(); }
  Result<FeedFetch> feed_fetch(const FeedFetchQuery& query) override {
    return feed_.feed_fetch(query);
  }

 private:
  const Feed& feed_;
};

// Per-call injection probabilities, each an independent Bernoulli trial.
struct FaultProfile {
  double unreachable = 0;      // the feed-fetch fails outright
  double truncate_run = 0;     // drop the tail of a fetched run
  double corrupt_payload = 0;  // flip a byte in one snapshot payload
  double corrupt_delta = 0;    // flip a byte in a fetched delta
  double flip_signature = 0;   // flip a byte in one snapshot signature
  double rollback = 0;         // serve a replay of an older feed state
  double corrupt_proof = 0;    // flip a bit in a Merkle proof node

  bool any() const {
    return unreachable > 0 || truncate_run > 0 || corrupt_payload > 0 ||
           corrupt_delta > 0 || flip_signature > 0 || rollback > 0 ||
           corrupt_proof > 0;
  }

  static FaultProfile loss(double p);        // unreachable only
  static FaultProfile corruption(double p);  // payload + delta + signature
  static FaultProfile chaos(double p);       // every kind at p
};

// Decorator injecting deterministic, seeded faults into another transport's
// feed-fetch answers. Mutations are applied to copies — the wrapped
// transport and its feed are never altered. Per-kind injection counters
// let tests and benches correlate what went in with what the client
// observed.
class FaultyTransport : public FeedTransport {
 public:
  FaultyTransport(FeedTransport& inner, FaultProfile profile,
                  std::uint64_t seed);

  const std::string& name() const override { return inner_.name(); }
  const Bytes& key_id() const override { return inner_.key_id(); }
  Result<FeedFetch> feed_fetch(const FeedFetchQuery& query) override;

  // Live reconfiguration: a sweep (or a "faults clear" test phase) swaps
  // profiles without disturbing the client's accumulated state.
  void set_profile(const FaultProfile& profile) { profile_ = profile; }
  const FaultProfile& profile() const { return profile_; }

  std::uint64_t injected(TransportErrorKind kind) const {
    return injected_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t injected_total() const;

 private:
  void count(TransportErrorKind kind) {
    ++injected_[static_cast<std::size_t>(kind)];
  }

  FeedTransport& inner_;
  FaultProfile profile_;
  Rng rng_;
  std::array<std::uint64_t, kTransportErrorKindCount> injected_{};
};

}  // namespace anchor::rsf
