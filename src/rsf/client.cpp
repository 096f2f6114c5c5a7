#include "rsf/client.hpp"

#include <algorithm>

#include "util/sha256.hpp"

namespace anchor::rsf {

namespace {

// Map a structural verification failure onto the transport-error taxonomy.
TransportErrorKind classify(Feed::RunFault fault) {
  switch (fault) {
    case Feed::RunFault::kSequenceGap:
    case Feed::RunFault::kChainBroken:
      return TransportErrorKind::kTruncatedRun;
    case Feed::RunFault::kPayloadHash:
      return TransportErrorKind::kCorruptPayload;
    case Feed::RunFault::kBadSignature:
      return TransportErrorKind::kBadSignature;
    case Feed::RunFault::kNone:
      break;
  }
  return TransportErrorKind::kCorruptPayload;
}

}  // namespace

const char* to_string(ClientHealth health) {
  switch (health) {
    case ClientHealth::kHealthy:
      return "healthy";
    case ClientHealth::kDegraded:
      return "degraded";
    case ClientHealth::kStale:
      return "stale";
  }
  return "unknown";
}

std::string FeedStatus::to_text() const {
  std::string out;
  out += "health=";
  out += to_string(health);
  out += " sequence=" + std::to_string(last_applied_sequence);
  out += " last_update=" + std::to_string(last_update_time);
  out += " next_poll=" + std::to_string(next_poll_time);
  out += " seconds_stale=" + std::to_string(seconds_stale);
  out += " polls=" + std::to_string(polls);
  out += " updates=" + std::to_string(updates_applied);
  out += " verify_failures=" + std::to_string(verify_failures);
  out += " quarantined=" + std::to_string(quarantine_size);
  return out;
}

FeedStatus RsfClient::feed_status() const {
  FeedStatus status;
  status.health = health_;
  status.last_applied_sequence = last_sequence_;
  status.last_update_time = last_update_time_;
  status.next_poll_time = next_poll_;
  status.seconds_stale = stats_.seconds_stale;
  status.polls = stats_.polls;
  status.updates_applied = stats_.updates_applied;
  status.verify_failures = stats_.verify_failures;
  status.quarantine_size = quarantine_.size();
  return status;
}

RsfClient::RsfClient(const Feed& feed, std::int64_t poll_interval,
                     MergePolicy policy, Transport transport,
                     RetryPolicy retry)
    : owned_transport_(std::make_unique<DirectTransport>(feed)),
      transport_(owned_transport_.get()),
      poll_interval_(poll_interval),
      policy_(policy),
      retry_(retry),
      jitter_rng_(retry.jitter_seed),
      mode_(transport) {
  // The feed key is known out of band (certified by the coordinating body).
  verifier_registry_.register_key(
      SimSig::keygen("rsf-feed-" + transport_->name()));
  bind_metrics(metrics::Registry::global(), transport_->name());
}

RsfClient::RsfClient(FeedTransport& transport, std::int64_t poll_interval,
                     MergePolicy policy, Transport mode, RetryPolicy retry)
    : transport_(&transport),
      poll_interval_(poll_interval),
      policy_(policy),
      retry_(retry),
      jitter_rng_(retry.jitter_seed),
      mode_(mode) {
  verifier_registry_.register_key(
      SimSig::keygen("rsf-feed-" + transport_->name()));
  bind_metrics(metrics::Registry::global(), transport_->name());
}

void RsfClient::set_local_store(rootstore::RootStore local) {
  local_ = std::move(local);
}

void RsfClient::bind_metrics(metrics::Registry& registry,
                             const std::string& instance) {
  const metrics::Labels feed{{"feed", instance}};
  auto outcome = [&](const char* kind) {
    metrics::Labels labels = feed;
    labels.emplace_back("outcome", kind);
    return &registry.counter("anchor_rsf_polls_total", labels);
  };
  m_.poll_success = outcome("success");
  m_.poll_failure = outcome("failure");
  m_.poll_skip = outcome("skip");
  m_.updates_applied = &registry.counter("anchor_rsf_updates_applied_total", feed);
  m_.deltas_applied = &registry.counter("anchor_rsf_deltas_applied_total", feed);
  m_.delta_fallbacks = &registry.counter("anchor_rsf_delta_fallbacks_total", feed);
  m_.verify_failures = &registry.counter("anchor_rsf_verify_failures_total", feed);
  m_.parse_failures = &registry.counter("anchor_rsf_parse_failures_total", feed);
  m_.merge_conflicts = &registry.counter("anchor_rsf_merge_conflicts_total", feed);
  m_.retries = &registry.counter("anchor_rsf_retries_total", feed);
  m_.quarantine_skips =
      &registry.counter("anchor_rsf_quarantine_skips_total", feed);
  m_.proof_failures =
      &registry.counter("anchor_rsf_proof_failures_total", feed);
  m_.verified_no_change =
      &registry.counter("anchor_rsf_verified_no_change_total", feed);
  m_.bytes_fetched = &registry.counter("anchor_rsf_bytes_fetched_total", feed);
  m_.bytes_discarded =
      &registry.counter("anchor_rsf_bytes_discarded_total", feed);
  m_.transport_errors =
      &registry.counter("anchor_rsf_transport_errors_total", feed);
  m_.seconds_stale = &registry.gauge("anchor_rsf_seconds_stale", feed);
  m_.quarantine_size = &registry.gauge("anchor_rsf_quarantine_size", feed);
  m_.backoff_exponent = &registry.gauge("anchor_rsf_backoff_exponent", feed);
  m_.health = &registry.gauge("anchor_rsf_health", feed);
  m_.last_sequence = &registry.gauge("anchor_rsf_last_applied_sequence", feed);
}

void RsfClient::publish_metrics(PollOutcome outcome) {
  switch (outcome) {
    case PollOutcome::kSuccess:
      m_.poll_success->add();
      break;
    case PollOutcome::kFailure:
      m_.poll_failure->add();
      break;
    case PollOutcome::kSkip:
      m_.poll_skip->add();
      break;
  }
  // Counters: publish what ClientStats accumulated since the last exit.
  auto drain = [](metrics::Counter* sink, std::uint64_t current,
                  std::uint64_t& exported) {
    if (current > exported) sink->add(current - exported);
    exported = current;
  };
  drain(m_.updates_applied, stats_.updates_applied, exported_.updates_applied);
  drain(m_.deltas_applied, stats_.deltas_applied, exported_.deltas_applied);
  drain(m_.delta_fallbacks, stats_.delta_fallbacks, exported_.delta_fallbacks);
  drain(m_.verify_failures, stats_.verify_failures, exported_.verify_failures);
  drain(m_.parse_failures, stats_.parse_failures, exported_.parse_failures);
  drain(m_.merge_conflicts, stats_.merge_conflicts, exported_.merge_conflicts);
  drain(m_.retries, stats_.retries, exported_.retries);
  drain(m_.quarantine_skips, stats_.quarantine_skips,
        exported_.quarantine_skips);
  drain(m_.proof_failures, stats_.proof_failures, exported_.proof_failures);
  drain(m_.verified_no_change, stats_.verified_no_change,
        exported_.verified_no_change);
  drain(m_.bytes_fetched, stats_.bytes_fetched, exported_.bytes_fetched);
  drain(m_.bytes_discarded, stats_.bytes_discarded, exported_.bytes_discarded);
  drain(m_.transport_errors, stats_.transport_errors_total(),
        exported_.transport_errors[0]);  // [0] repurposed as the total mark
  // Gauges: levels, set outright.
  m_.seconds_stale->set(stats_.seconds_stale);
  m_.quarantine_size->set(static_cast<std::int64_t>(stats_.quarantine_size));
  m_.backoff_exponent->set(backoff_exp_);
  m_.health->set(static_cast<std::int64_t>(health_));
  m_.last_sequence->set(static_cast<std::int64_t>(last_sequence_));
}

std::int64_t RsfClient::next_backoff() {
  std::int64_t backoff = retry_.base_backoff;
  for (int i = 0; i < backoff_exp_ && backoff < retry_.max_backoff; ++i) {
    backoff = static_cast<std::int64_t>(static_cast<double>(backoff) *
                                        retry_.multiplier);
  }
  backoff = std::clamp<std::int64_t>(backoff, 1, retry_.max_backoff);
  if (backoff_exp_ < 62) ++backoff_exp_;
  return std::max<std::int64_t>(1, jitter_rng_.jittered(backoff, retry_.jitter));
}

std::size_t RsfClient::finish_poll(PollOutcome outcome, std::int64_t now,
                                   std::size_t applied) {
  switch (outcome) {
    case PollOutcome::kSuccess:
      backoff_exp_ = 0;
      last_contact_ = now;
      next_poll_ = now + poll_interval_;
      break;
    case PollOutcome::kFailure:
      ++stats_.retries;
      next_poll_ = now + next_backoff();
      break;
    case PollOutcome::kSkip:
      // Quarantined head: deliberate no-op, keep the normal cadence (the
      // next poll re-probes in case a newer, clean head was published).
      next_poll_ = now + poll_interval_;
      break;
  }
  const std::int64_t baseline = last_contact_ >= 0 ? last_contact_ : first_poll_;
  stats_.seconds_stale = std::max<std::int64_t>(0, now - baseline);
  stats_.quarantine_size = quarantine_.size();
  if (stats_.seconds_stale >= retry_.stale_after) {
    health_ = ClientHealth::kStale;
  } else if (outcome == PollOutcome::kSuccess && quarantine_.empty()) {
    health_ = ClientHealth::kHealthy;
  } else {
    health_ = ClientHealth::kDegraded;
  }
  publish_metrics(outcome);
  return applied;
}

std::size_t RsfClient::fail_poll(TransportErrorKind kind,
                                 std::uint64_t sequence, std::int64_t now) {
  ++stats_.transport_errors[static_cast<std::size_t>(kind)];
  if (sequence != 0) note_verify_failure(sequence, now);
  return finish_poll(PollOutcome::kFailure, now, 0);
}

void RsfClient::note_verify_failure(std::uint64_t sequence, std::int64_t now) {
  int& count = fail_counts_[sequence];
  if (++count >= retry_.quarantine_threshold) {
    fail_counts_.erase(sequence);
    quarantine_[sequence] = now + retry_.quarantine_duration;
    while (quarantine_.size() > retry_.quarantine_capacity) {
      auto oldest = std::min_element(
          quarantine_.begin(), quarantine_.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      quarantine_.erase(oldest);
    }
  }
  // The failure tracker is bounded too: drop the oldest sequence numbers.
  while (fail_counts_.size() > retry_.quarantine_capacity) {
    fail_counts_.erase(fail_counts_.begin());
  }
}

void RsfClient::prune_quarantine(std::int64_t now) {
  for (auto it = quarantine_.begin(); it != quarantine_.end();) {
    if (it->second <= now) {
      it = quarantine_.erase(it);
    } else {
      ++it;
    }
  }
  // Failure counts for sequences we have since advanced past are moot.
  fail_counts_.erase(fail_counts_.begin(),
                     fail_counts_.upper_bound(last_sequence_));
}

bool RsfClient::is_quarantined(std::uint64_t sequence,
                               std::int64_t now) const {
  auto it = quarantine_.find(sequence);
  return it != quarantine_.end() && it->second > now;
}

std::size_t RsfClient::poll_now(std::int64_t now) {
  ++stats_.polls;
  if (first_poll_ < 0) first_poll_ = now;
  prune_quarantine(now);

  FeedFetchQuery query;
  query.from_size = last_sequence_;
  query.want_deltas = (mode_ == Transport::kDelta);
  auto fetched = transport_->feed_fetch(query);
  if (!fetched) {
    return fail_poll(TransportErrorKind::kUnreachable, 0, now);
  }
  FeedFetch ff = std::move(fetched).take();
  const SignedTreeHead& sth = ff.sth;

  // Authentication overhead of this poll: tree head, proofs, snapshot
  // headers. Body bytes are accounted in adopt_verified_run, which knows
  // whether the poll consumed payloads or deltas.
  std::uint64_t overhead =
      sth.wire_size() +
      (ff.consistency.size() + ff.inclusion.size()) * sizeof(ctlog::Hash);
  for (const Snapshot& snap : ff.snapshots) overhead += snap.wire_size(false);
  stats_.bytes_fetched += overhead;

  // Nothing is trusted before the tree head's signature verifies.
  if (!verifier_registry_.verify(BytesView(transport_->key_id()),
                                 BytesView(sth.transcript()),
                                 BytesView(sth.signature))) {
    ++stats_.verify_failures;
    stats_.bytes_discarded += overhead;
    return fail_poll(TransportErrorKind::kBadSignature, sth.tree_size, now);
  }
  if (sth.tree_size < last_sequence_ ||
      (sth.tree_size == last_sequence_ && last_sequence_ > 0 &&
       sth.root_hash != pinned_root_)) {
    // A signed head below our pin is a replayed historic view; an
    // equal-size head with a different root is a split view / rewritten
    // history. Both are rollbacks: never adopt.
    stats_.bytes_discarded += overhead;
    return fail_poll(TransportErrorKind::kRollback, 0, now);
  }
  if (sth.tree_size == last_sequence_) {
    // Root-verified no-change: the signed head IS the history we adopted,
    // so this contact is healthy even right after a rollback attempt.
    ++stats_.verified_no_change;
    return finish_poll(PollOutcome::kSuccess, now, 0);
  }
  if (is_quarantined(sth.tree_size, now)) {
    ++stats_.quarantine_skips;
    stats_.bytes_discarded += overhead;
    return finish_poll(PollOutcome::kSkip, now, 0);
  }

  // The served history must provably extend the one we verified. For a
  // fresh client there is nothing to extend — the RFC requires the empty
  // proof.
  const bool consistent =
      last_sequence_ == 0
          ? ff.consistency.empty()
          : ctlog::verify_consistency(last_sequence_, sth.tree_size,
                                      pinned_root_, sth.root_hash,
                                      ff.consistency);
  if (!consistent) {
    ++stats_.proof_failures;
    stats_.bytes_discarded += overhead;
    return fail_poll(TransportErrorKind::kBadProof, sth.tree_size, now);
  }

  std::vector<Snapshot> run = std::move(ff.snapshots);
  if (run.empty() || run.front().sequence != last_sequence_ + 1 ||
      run.back().sequence != sth.tree_size ||
      run.size() != sth.tree_size - last_sequence_) {
    // The range does not tile (pin, tree_size]: a truncated or misaligned
    // delivery.
    stats_.bytes_discarded += overhead;
    return fail_poll(TransportErrorKind::kTruncatedRun, 0, now);
  }

  Feed::RunFault fault = Feed::RunFault::kNone;
  if (Status s = Feed::verify_run(run, last_hash_,
                                  BytesView(transport_->key_id()),
                                  verifier_registry_, &fault);
      !s) {
    ++stats_.verify_failures;
    stats_.bytes_discarded += overhead;
    return fail_poll(classify(fault), sth.tree_size, now);
  }
  // Bind the run to the signed root: the head snapshot's transcript must
  // be the tree's last leaf (intermediates are bound transitively through
  // the prev_hash chain inside the transcripts).
  if (!ctlog::verify_inclusion(
          ctlog::leaf_hash(BytesView(run.back().transcript())),
          sth.tree_size - 1, sth.tree_size, ff.inclusion, sth.root_hash)) {
    ++stats_.proof_failures;
    stats_.bytes_discarded += overhead;
    return fail_poll(TransportErrorKind::kBadProof, sth.tree_size, now);
  }

  const std::size_t applied = adopt_verified_run(run, ff.deltas, now);
  if (last_sequence_ == sth.tree_size) {
    // Adoption succeeded: pin the verified head for the next poll's
    // consistency check.
    pinned_root_ = sth.root_hash;
  }
  return applied;
}

std::size_t RsfClient::adopt_verified_run(
    const std::vector<Snapshot>& run,
    const std::vector<std::string>& deltas, std::int64_t now) {
  const Snapshot& head_snap = run.back();
  bool replica_current = false;

  if (mode_ == Transport::kDelta) {
    // Replay each snapshot's edit script onto the local replica, then
    // check the result against the head's signed payload hash. Counters
    // are staged locally and committed only if the replica is adopted, so
    // an abandoned replay never inflates deltas_applied.
    rootstore::RootStore replica = primary_replica_;
    std::uint64_t replayed = 0;
    std::uint64_t delta_bytes = 0;
    bool replay_ok = true;
    TransportErrorKind replay_fault = TransportErrorKind::kCorruptDelta;
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (i >= deltas.size()) {
        // The response shipped fewer deltas than snapshots.
        replay_ok = false;
        replay_fault = TransportErrorKind::kTruncatedRun;
        break;
      }
      const std::string& delta_text = deltas[i];
      delta_bytes += delta_text.size();
      auto delta = StoreDelta::deserialize(delta_text);
      if (!delta) {
        replay_ok = false;
        break;
      }
      delta.value().apply(replica);
      ++replayed;
    }
    if (replay_ok &&
        Sha256::hash_hex(view_bytes(replica.serialize())) ==
            head_snap.payload_hash) {
      stats_.bytes_fetched += delta_bytes;
      stats_.deltas_applied += replayed;
      primary_replica_ = std::move(replica);
      replica_current = true;
    } else {
      // Fall through to the full snapshot. The delta bytes crossed the
      // wire either way, but bought nothing.
      ++stats_.delta_fallbacks;
      ++stats_.transport_errors[static_cast<std::size_t>(replay_fault)];
      stats_.bytes_fetched += delta_bytes;
      stats_.bytes_discarded += delta_bytes;
    }
  }

  if (!replica_current) {
    // Full-snapshot transport (or delta fallback): adopt the newest
    // snapshot outright; intermediates are subsumed.
    stats_.bytes_fetched += head_snap.payload.size();
    auto parsed = rootstore::RootStore::deserialize(head_snap.payload);
    if (!parsed) {
      // The payload was signed and hash-verified, yet does not parse: a
      // publisher bug, not a transport tamper. Distinct counter, same
      // fail-closed handling.
      ++stats_.parse_failures;
      stats_.bytes_discarded += head_snap.payload.size();
      return fail_poll(TransportErrorKind::kCorruptPayload,
                       head_snap.sequence, now);
    }
    primary_replica_ = std::move(parsed).take();
  }

  // Adopting a snapshot replaces the exposed store wholesale, which would
  // otherwise let its epoch counter move backwards (the incoming store has
  // its own mutation history). Observers — chain::VerifyService keys its
  // verdict cache on epoch() — rely on strict monotonicity, so force the
  // new store's epoch past the old one.
  const std::uint64_t prior_epoch = store_.epoch();
  if (local_) {
    MergeResult merged = merge(primary_replica_, *local_, policy_);
    stats_.merge_conflicts += merged.conflicts.size();
    store_ = std::move(merged.merged);
  } else {
    store_ = primary_replica_;
  }
  store_.advance_epoch_past(prior_epoch);
  if (adoption_hook_) adoption_hook_(store_);

  std::size_t applied = run.size();
  last_sequence_ = head_snap.sequence;
  last_hash_ = head_snap.payload_hash;
  last_update_time_ = now;
  stats_.updates_applied += applied;
  fail_counts_.clear();
  // A verified successor supersedes any quarantined ancestor: once the
  // client is past a poisoned sequence it will never fetch it again, so
  // keeping the entry would only pin health at kDegraded.
  quarantine_.erase(quarantine_.begin(),
                    quarantine_.upper_bound(last_sequence_));
  return finish_poll(PollOutcome::kSuccess, now, applied);
}

std::size_t RsfClient::run_until(std::int64_t now) {
  // One catch-up poll per wake: poll_now re-anchors next_poll_ relative to
  // `now` (interval on success, backoff on failure), so a client offline
  // for a month issues a single poll instead of replaying every missed
  // interval back to back.
  if (next_poll_ > now) return 0;
  return poll_now(now);
}

ManualMirrorClient::ManualMirrorClient(const Feed& feed, bool strip_gccs)
    : feed_(feed), strip_gccs_(strip_gccs) {}

void ManualMirrorClient::manual_sync(std::int64_t now) {
  std::uint64_t head = feed_.head_sequence();
  if (head == 0 || head == mirrored_sequence_) {
    last_sync_time_ = now;
    return;
  }
  const Snapshot* snap = feed_.at(head);
  auto parsed = rootstore::RootStore::deserialize(snap->payload);
  if (!parsed) return;  // a manual import of a corrupt snapshot just fails

  const std::uint64_t prior_epoch = store_.epoch();
  rootstore::RootStore incoming = std::move(parsed).take();
  if (strip_gccs_) {
    // Bare-collection derivative: certificates survive the import, GCCs
    // and metadata do not (the imprecision problem, §2.3).
    rootstore::RootStore bare;
    for (const rootstore::RootEntry* entry : incoming.trusted()) {
      bare.add_trusted_unchecked(entry->cert, rootstore::RootMetadata{});
    }
    for (const auto& [hash, justification] : incoming.distrusted()) {
      bare.distrust(hash, justification);
    }
    store_ = std::move(bare);
  } else {
    store_ = std::move(incoming);
  }
  store_.advance_epoch_past(prior_epoch);
  if (adoption_hook_) adoption_hook_(store_);
  mirrored_sequence_ = head;
  last_sync_time_ = now;
}

}  // namespace anchor::rsf
