// StoreView — the read side of the snapshot format: an immutable
// StoreReader over a memory-mapped (or in-memory) snapshot image. Opening
// a view is one linear validated pass: header and digest checks first
// (fail closed with a classified SnapshotError), then certificates are
// parsed once from DER and GCC programs are restored from their compiled
// serialization — no text grammar, no PEM, no Datalog recompilation. All
// daemon workers share one view through shared_ptr; VerifyService keeps
// the view alive for as long as any in-flight verification references its
// snapshot, so an epoch swap never unmaps memory under a reader.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "rootstore/snapshot/format.hpp"
#include "rootstore/store.hpp"
#include "util/bytes.hpp"

namespace anchor::rootstore::snapshot {

class StoreView final : public StoreReader {
 public:
  // Header facts surfaced to operators (`anchorctl snapshot-info`).
  struct Info {
    std::uint16_t format_version = 0;
    std::uint64_t epoch = 0;
    std::uint64_t file_size = 0;
    std::uint32_t trusted_count = 0;
    std::uint32_t distrusted_count = 0;
    std::uint32_t gcc_count = 0;
    std::uint32_t revocation_count = 0;
    std::string digest_hex;
    std::string source;  // "mmap:<path>" or "memory"
  };

  struct OpenResult {
    std::shared_ptr<const StoreView> view;
    SnapshotError error;  // meaningful iff !ok()
    bool ok() const { return view != nullptr; }
  };

  // Maps `path` read-only and validates it fail-closed.
  static OpenResult open(const std::string& path);
  // Same validation over an in-memory image (tests, in-process adoption
  // straight from write_snapshot without touching disk).
  static OpenResult from_bytes(Bytes bytes);

  ~StoreView() override;
  StoreView(const StoreView&) = delete;
  StoreView& operator=(const StoreView&) = delete;

  // StoreReader — same answers, same order, as the RootStore the snapshot
  // was written from (the byte-identical-verdicts pin).
  TrustState state_of(const Sha256::Digest& hash) const override;
  const RootEntry* find(const Sha256::Digest& hash) const override;
  std::vector<const RootEntry*> trusted() const override;
  std::span<const RootEntry* const> trusted_by_subject(
      const x509::DistinguishedName& subject) const override;
  std::span<const core::Gcc> gccs_for_root(
      const Sha256::Digest& hash) const override;
  std::size_t trusted_count() const override { return entries_.size(); }
  std::size_t distrusted_count() const override { return distrusted_.size(); }
  std::size_t gcc_count() const override { return gcc_total_; }
  std::uint64_t epoch() const override { return info_.epoch; }
  std::shared_ptr<const revocation::CompressedRevocationSet>
  revocation_filter() const override {
    return revocation_filter_;
  }

  const DistrustMap& distrusted() const { return distrusted_; }
  const Info& info() const { return info_; }

  // Equivalent heap store: same content, same insertion order, same
  // epoch. Used when a view-backed service needs to mutate (the live store
  // is rebuilt from the adopted view before the mutation applies).
  RootStore materialize() const;

  // Re-emits the container; byte-equal to the image this view was loaded
  // from (write → load → re_encode is the format's round-trip pin).
  Bytes re_encode() const;

 private:
  StoreView() = default;

  // Parses and indexes `bytes`; on failure fills `error` and returns false.
  bool load(BytesView bytes, SnapshotError& error);

  Info info_;
  std::vector<RootEntry> entries_;  // insertion order; never resized after load
  std::unordered_map<Sha256::Digest, std::size_t, DigestHash> by_hash_;
  SubjectIndex by_subject_;  // points into entries_
  DistrustMap distrusted_;
  std::unordered_map<Sha256::Digest, std::vector<core::Gcc>, DigestHash>
      gccs_by_root_;
  std::size_t gcc_total_ = 0;
  std::shared_ptr<const revocation::CompressedRevocationSet>
      revocation_filter_;

  Bytes owned_;             // from_bytes mode
  void* map_ = nullptr;     // mmap mode
  std::size_t map_size_ = 0;
};

}  // namespace anchor::rootstore::snapshot
