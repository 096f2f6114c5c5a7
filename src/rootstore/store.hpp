// Root stores with negative inclusion (§4 of the paper): "root stores
// [should] be composed of two sets of certificates: those that are
// explicitly trusted and those that are explicitly distrusted." A root is
// therefore in one of three states — trusted, distrusted, or unknown
// (never added) — and the distinction matters for RSF merging.
//
// Trusted roots carry the systematic partial-distrust metadata NSS uses
// (§2.2: per-root date-usage cutoffs for TLS and S/MIME, and the EV bit)
// plus any number of attached GCCs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/gcc.hpp"
#include "util/metrics.hpp"
#include "util/result.hpp"
#include "util/sha256.hpp"
#include "x509/certificate.hpp"

namespace anchor::revocation {
class CompressedRevocationSet;
}  // namespace anchor::revocation

namespace anchor::rootstore {

// NSS-style systematic constraints (distinct from ad hoc GCCs).
struct RootMetadata {
  // Leaf certificates with notBefore at/after this instant are distrusted
  // for the usage. nullopt = no cutoff.
  std::optional<std::int64_t> tls_distrust_after;
  std::optional<std::int64_t> smime_distrust_after;
  // Whether the root may anchor EV certificates.
  bool ev_allowed = false;
  // Free-form provenance (Bugzilla link, incident id, ...).
  std::string justification;

  bool operator==(const RootMetadata&) const = default;
};

struct RootEntry {
  x509::CertPtr cert;
  RootMetadata metadata;
};

enum class TrustState { kTrusted, kDistrusted, kUnknown };

// The read surface chain::ChainVerifier (and anything else on the verdict
// path) needs from a root store. Two implementations exist: the mutable
// heap `RootStore` below, and the mmap-backed `StoreView`
// (rootstore/snapshot/view.hpp) that serves the same answers out of a
// flat snapshot without per-worker parsing or GCC recompilation. The
// pinned contract: for equal content, both implementations return the
// same entries in the same order — `trusted()` and `trusted_by_subject()`
// in insertion order, `gccs_for_root()` in attachment order — so verdicts
// computed through either are byte-identical.
//
// Roots are named by their 32-byte SHA-256 (Certificate::fingerprint()).
// Hex is a display and serialization form only; text inputs reach these
// lookups through digest_from_hex.
class StoreReader {
 public:
  virtual ~StoreReader() = default;

  virtual TrustState state_of(const Sha256::Digest& hash) const = 0;
  virtual const RootEntry* find(const Sha256::Digest& hash) const = 0;
  // Insertion order — path search tries candidate roots in this order, so
  // the order is part of the verdict contract (first accepted path wins).
  virtual std::vector<const RootEntry*> trusted() const = 0;
  // The trusted roots whose subject equals `subject`, in the order
  // trusted() lists them: the candidate anchors for a certificate issued
  // by `subject`. Served from an index, so path search pays one lookup per
  // step instead of a scan over every root.
  virtual std::span<const RootEntry* const> trusted_by_subject(
      const x509::DistinguishedName& subject) const = 0;
  // Attachment order (all must hold, but diagnostics name the first
  // failure, so order is observable).
  virtual std::span<const core::Gcc> gccs_for_root(
      const Sha256::Digest& hash) const = 0;

  virtual std::size_t trusted_count() const = 0;
  virtual std::size_t distrusted_count() const = 0;
  virtual std::size_t gcc_count() const = 0;
  virtual std::uint64_t epoch() const = 0;

  // Optional store-distributed compressed revocation filter (CRLite-style,
  // revocation/crlite.hpp), carried inside serialization/snapshots so RSF
  // adoption delivers revocation updates alongside trust changes.
  // ChainVerifier registers a non-null filter as a revocation source
  // automatically. Defaults to "none" so ad hoc StoreReader fakes in tests
  // keep compiling.
  virtual std::shared_ptr<const revocation::CompressedRevocationSet>
  revocation_filter() const {
    return nullptr;
  }
};

// Subject DN -> trusted roots with that subject, each list in insertion
// order. Shared by both StoreReader implementations.
using SubjectIndex =
    std::unordered_map<x509::DistinguishedName, std::vector<const RootEntry*>,
                       x509::DistinguishedNameHash>;

// Digest -> distrust justification.
using DistrustMap =
    std::unordered_map<Sha256::Digest, std::string, DigestHash>;

class RootStore : public StoreReader {
 public:
  // Adds (or updates) an explicitly trusted root. A root currently in the
  // distrusted set is *not* silently resurrected: the call fails, the same
  // condition RSF merging flags (§4, "RSF merging").
  Status add_trusted(x509::CertPtr cert, RootMetadata metadata = {});

  // Moves a root into the explicitly-distrusted set (removing it from the
  // trusted set if present). Distrust by hash also works for roots the
  // store never carried.
  // `hash` is taken by value: callers often pass a trusted root's own
  // fingerprint(), which lives in the certificate this call may release.
  void distrust(Sha256::Digest hash, std::string justification = "");

  // Forgets a root entirely (back to kUnknown) — e.g. expired housekeeping.
  // Distinct from distrust. Returns true if it was present in either set.
  bool forget(Sha256::Digest hash);

  // Force-adds a trusted root even if distrusted, dropping the distrust
  // entry (used by merge tooling to model derivative stores that re-add
  // removed roots, as Amazon Linux did).
  void add_trusted_unchecked(x509::CertPtr cert, RootMetadata metadata = {});

  TrustState state_of(const Sha256::Digest& hash) const override;
  const RootEntry* find(const Sha256::Digest& hash) const override;
  // Text-boundary form of state_of: `hash_hex` goes through
  // digest_from_hex, and a malformed hash names no root (kUnknown).
  TrustState state_of(std::string_view hash_hex) const;

  std::vector<const RootEntry*> trusted() const override;
  std::span<const RootEntry* const> trusted_by_subject(
      const x509::DistinguishedName& subject) const override;
  const DistrustMap& distrusted() const { return distrusted_; }

  std::size_t trusted_count() const override { return trusted_.size(); }
  std::size_t distrusted_count() const override { return distrusted_.size(); }
  std::size_t gcc_count() const override { return gccs_.total(); }

  // Attaches a GCC (replacing any same-named GCC on the same root) and
  // bumps the epoch. Attaching a byte-identical copy of a GCC already
  // present is a no-op that leaves the epoch unchanged — the same
  // redundant-delta-replay guarantee add_trusted_unchecked/distrust give.
  void attach_gcc(core::Gcc gcc);
  // Removes the named GCC from the given root; returns true (and bumps the
  // epoch) only if it existed.
  bool detach_gcc(const Sha256::Digest& root_hash, const std::string& name);
  // Text-boundary form: a malformed `root_hash_hex` detaches nothing.
  bool detach_gcc(std::string_view root_hash_hex, const std::string& name);

  // Attaches (or replaces) the store-distributed compressed revocation
  // filter; nullptr clears it. Bumps the epoch unless the new filter is
  // content-identical to the current one — the same redundant-delta-replay
  // guarantee the other mutators give.
  void set_revocation_filter(
      std::shared_ptr<const revocation::CompressedRevocationSet> filter);
  std::shared_ptr<const revocation::CompressedRevocationSet>
  revocation_filter() const override {
    return revocation_filter_;
  }

  // Read-only: all GCC mutation routes through attach_gcc/detach_gcc so
  // the epoch counter below sees every effective change. (A mutable
  // accessor used to exist; it let callers swap the GccStore wholesale,
  // which could pair a higher epoch_ with a lower GccStore version and
  // repeat a composite epoch value — silently reviving stale verdict-cache
  // entries.)
  const core::GccStore& gccs() const { return gccs_; }
  std::span<const core::Gcc> gccs_for_root(
      const Sha256::Digest& hash) const override {
    return gccs_.for_root(hash);
  }

  // Single strictly-monotonic mutation counter: every change that can
  // alter a verification outcome — add_trusted, add_trusted_unchecked,
  // distrust, forget, attach_gcc, detach_gcc — advances it. Verdict caches
  // key on the epoch so a feed update invalidates stale entries without
  // any cross-thread bookkeeping (chain::VerifyService). Byte-identical
  // no-op mutations (re-adding a root with equal metadata, re-distrusting
  // with the same justification, re-attaching an identical GCC) leave it
  // unchanged, so redundant delta replay keeps caches warm.
  std::uint64_t epoch() const override { return epoch_; }

  // Forces epoch() strictly past `floor`. Used when a store is replaced
  // wholesale (RSF snapshot adoption) so observers never see the counter
  // move backwards.
  void advance_epoch_past(std::uint64_t floor) {
    if (epoch_ <= floor) epoch_ = floor + 1;
  }

  // Deterministic text serialization (see store.cpp header comment for the
  // grammar); round-trips through deserialize.
  std::string serialize() const;
  static Result<RootStore> deserialize(std::string_view text);

  // Content hash of the serialized form — RSF snapshots chain over this.
  std::string content_hash_hex() const;

 private:
  bool untrust(const Sha256::Digest& hash);

  // hash -> entry, plus insertion order for deterministic serialization.
  // Entries are immutable and shared, so copies of the store (one per
  // published VerifyService snapshot) share them and `by_subject_`'s
  // pointers stay valid in every copy.
  std::unordered_map<Sha256::Digest, std::shared_ptr<const RootEntry>,
                     DigestHash>
      trusted_;
  std::vector<Sha256::Digest> trusted_order_;
  SubjectIndex by_subject_;
  DistrustMap distrusted_;
  std::vector<Sha256::Digest> distrusted_order_;
  core::GccStore gccs_;
  // Immutable once built, so copies of the store share one filter.
  std::shared_ptr<const revocation::CompressedRevocationSet>
      revocation_filter_;
  std::uint64_t epoch_ = 0;
};

// Publishes the store's current shape into `registry` as gauges
// (anchor_store_trusted_roots, anchor_store_distrusted_roots,
// anchor_store_gccs, anchor_store_epoch), labeled {store=<instance>} when
// `instance` is non-empty. RootStore is a value type that is copied and
// merged freely, so it cannot own series itself; long-lived holders
// (VerifyService on snapshot publish, anchorctl/daemon on demand) call this
// at well-defined points instead. Takes the read interface so mmap-backed
// StoreViews export the same series.
void export_store_metrics(const StoreReader& store,
                          metrics::Registry& registry,
                          const std::string& instance = "");

}  // namespace anchor::rootstore
