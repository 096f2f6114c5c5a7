// Root-Store Feeds (§4 of the paper): "a RSF is a sequence of root-store
// snapshots where, between snapshots, both certificates and GCCs may be
// added or removed. Each snapshot may be annotated with justifications of
// particular decisions."
//
// Integrity model (§4, "Security"): every snapshot is signed with the
// feed's key, and snapshots are hash-chained (each carries the hash of its
// predecessor) so a feed cannot be truncated or spliced undetected — the
// "immutable log" the paper gestures at. On top of the chain the feed
// maintains an RFC 6962 Merkle tree over snapshot transcripts and signs a
// tree head per publication, making the feed a verifiable log in the CT
// sense: a poller that pins (size, root) can verify a consistency proof
// that the served history extends the one it already adopted, so a
// no-change poll costs one tree head and a rollback or split view is
// cryptographically detectable instead of merely sequence-number
// detectable. The feed key would in deployment be certified by a
// coordinating body (ICANN); here it is a SimSig key the client knows out
// of band.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ctlog/merkle.hpp"
#include "rootstore/store.hpp"
#include "rsf/delta.hpp"
#include "util/result.hpp"
#include "util/simsig.hpp"

namespace anchor::rsf {

struct Snapshot {
  std::uint64_t sequence = 0;     // 1-based, strictly increasing
  std::int64_t published_at = 0;  // Unix seconds (SimClock domain)
  std::string annotation;         // operator justification for this release
  std::string payload;            // RootStore::serialize() output
  std::string payload_hash;       // SHA-256 hex of payload
  std::string prev_hash;          // payload_hash of predecessor ("" for first)
  Bytes signature;                // SimSig over the transcript

  // The byte string the signature covers; also the Merkle leaf entry.
  Bytes transcript() const;

  // Serialized footprint on the feed-fetch wire. The payload is the
  // dominant term; delta-mode polls ship headers only (the payload travels
  // as a StoreDelta instead), so it is optional here.
  std::size_t wire_size(bool include_payload) const;

  bool operator==(const Snapshot&) const = default;
};

// A signed commitment to the feed's entire history at `tree_size`
// publications: the Merkle root over snapshot transcripts 1..tree_size.
// O(1) bytes regardless of feed length — the thing a no-change poll
// transfers.
struct SignedTreeHead {
  std::uint64_t tree_size = 0;
  ctlog::Hash root_hash{};
  std::int64_t published_at = 0;
  Bytes signature;

  // The byte string the signature covers.
  Bytes transcript() const;

  // Serialized footprint on the feed-fetch wire.
  std::size_t wire_size() const;

  bool operator==(const SignedTreeHead&) const = default;
};

// What a poller asks the feed (directly or via the anchord feed-fetch
// verb): "I have verified your history up to from_size; prove your current
// head extends it and send me the range I'm missing."
struct FeedFetchQuery {
  // No snapshot cap — serve the whole missing range (the server applies
  // its own frame-budget clamp on top).
  static constexpr std::uint32_t kAllSnapshots = 0xffffffffu;

  std::uint64_t from_size = 0;      // poller's pinned tree size (0 = none)
  std::uint64_t to_size = 0;        // 0 = current head; else a historic view
  std::uint32_t max_snapshots = kAllSnapshots;  // 0 = tree-head-only probe
  std::uint64_t max_bytes = 0;      // snapshot byte budget, 0 = unbounded
  bool want_deltas = false;         // also ship the StoreDelta per snapshot

  bool operator==(const FeedFetchQuery&) const = default;
};

// The feed's answer. `sth` is the head actually served — under pagination
// it may sit below the true head, in which case proofs are computed at the
// served size so they still verify and the poller simply polls again.
struct FeedFetch {
  SignedTreeHead sth;
  std::vector<ctlog::Hash> consistency;  // from_size -> sth.tree_size
  std::vector<ctlog::Hash> inclusion;    // head leaf within sth
  std::vector<Snapshot> snapshots;       // (from_size, sth.tree_size]
  std::vector<std::string> deltas;       // aligned with snapshots, if asked

  // Serialized footprint; see Snapshot::wire_size for `include_payloads`.
  std::size_t wire_size(bool include_payloads) const;

  bool operator==(const FeedFetch&) const = default;
};

class Feed {
 public:
  // `name` identifies the operator ("nss", "debian", ...); the signing key
  // is derived deterministically from it and registered into `registry` so
  // clients can verify.
  Feed(std::string name, SimSig& registry);

  // Publishes a new snapshot of `store` and signs the tree head covering
  // it. Returns the assigned sequence. Safe against concurrent feed_fetch
  // / fetch_since / tree_head callers.
  std::uint64_t publish(const rootstore::RootStore& store,
                        std::int64_t published_at, std::string annotation);

  const std::string& name() const { return name_; }
  const Bytes& key_id() const { return key_.key_id; }
  std::uint64_t head_sequence() const;

  // The signed tree head at the current (or a historic) size. Size 0 — the
  // empty feed — has the RFC 6962 empty-tree root. Empty optional if
  // `tree_size` exceeds the head.
  SignedTreeHead tree_head() const;
  std::optional<SignedTreeHead> tree_head_at(std::uint64_t tree_size) const;

  // Serves a feed-fetch query: signed tree head, consistency proof from
  // the poller's pinned size, inclusion proof for the served head leaf,
  // and the snapshot range — clamped to the query's snapshot/byte budget
  // (always making progress by at least one snapshot). A query whose
  // from_size is at or beyond the served head gets the tree head alone;
  // the poller classifies staleness/rollback itself.
  Result<FeedFetch> feed_fetch(const FeedFetchQuery& query) const;

  // Snapshots with sequence > `after` (for restore round-trips, mirrors
  // and tests; pollers use feed_fetch).
  std::vector<Snapshot> fetch_since(std::uint64_t after) const;

  // Direct access for single-threaded callers (manual mirrors, tests);
  // the pointer is invalidated by publish(), so do not mix with
  // concurrent publication.
  const Snapshot* at(std::uint64_t sequence) const;

  // Rebuilds the feed from an externally stored run (e.g. an anchorctl
  // feed directory): verifies the full chain against this feed's key, then
  // adopts it, recomputing the Merkle tree and re-signing every historic
  // tree head (the key is deterministic, so the heads are identical to the
  // ones the original publisher signed). Fails closed; the feed must be
  // empty.
  Status restore(std::vector<Snapshot> run);

  // What, structurally, made a run fail verification. Lets the client
  // classify failures for its per-kind transport-error accounting without
  // string-matching diagnostics.
  enum class RunFault {
    kNone,
    kSequenceGap,   // sequences not contiguous
    kChainBroken,   // prev_hash does not link
    kPayloadHash,   // payload bytes do not match the signed hash
    kBadSignature,  // signature does not verify
  };

  // Verifies signature + hash chain of a fetched run of snapshots,
  // anchored at the client's last verified hash. Fails closed. When
  // `fault` is non-null, it receives the classified failure (kNone on
  // success).
  static Status verify_run(std::span<const Snapshot> run,
                           const std::string& anchor_prev_hash,
                           BytesView key_id, const SimSig& registry,
                           RunFault* fault = nullptr);

  // Tamper hook for negative tests: mutate a stored snapshot in place.
  // Deliberately does NOT resign the tree head — a tampered snapshot must
  // be caught by signature/proof checks, not laundered into a new head.
  Snapshot* mutable_at(std::uint64_t sequence);

 private:
  SignedTreeHead make_sth_locked(std::uint64_t tree_size) const;
  // Delta transport: the serialized StoreDelta turning snapshot
  // `sequence-1` into snapshot `sequence` (for sequence 1, a delta from the
  // empty store), shipped inline by feed_fetch when the query asks for
  // deltas. Clients apply deltas to their local replica and verify the
  // result against the snapshot's signed payload hash — integrity derives
  // from the snapshot signature, so deltas need no signature of their own.
  // Computed on demand; empty Result on bad sequence.
  Result<std::string> fetch_delta_locked(std::uint64_t sequence) const;

  std::string name_;
  SimKeyPair key_;
  SimSig& registry_;
  mutable std::mutex mu_;  // guards snapshots_, sths_, tree_
  std::vector<Snapshot> snapshots_;
  std::vector<SignedTreeHead> sths_;  // sths_[i] covers tree size i+1
  ctlog::MerkleTree tree_;            // leaves: snapshot transcripts
};

}  // namespace anchor::rsf
