#include "rootstore/snapshot/view.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "revocation/crlite.hpp"
#include "rootstore/snapshot/writer.hpp"
#include "util/sha256.hpp"

namespace anchor::rootstore::snapshot {

namespace {

// Bounds-checked reader over the mapped image. Every length and offset in
// the file is untrusted until it has passed through one of these.
class Cursor {
 public:
  Cursor(BytesView bytes, std::size_t pos) : bytes_(bytes), pos_(pos) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool seek(std::size_t pos) {
    if (pos > bytes_.size()) return false;
    pos_ = pos;
    return true;
  }

  bool u8(std::uint8_t& v) { return raw(&v, sizeof v); }
  bool u32(std::uint32_t& v) { return raw(&v, sizeof v); }
  bool u64(std::uint64_t& v) { return raw(&v, sizeof v); }
  bool i64(std::int64_t& v) { return raw(&v, sizeof v); }
  bool str(std::string& s) {
    std::uint32_t len = 0;
    if (!u32(len) || remaining() < len) return false;
    s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return true;
  }
  bool blob(BytesView& out) {
    std::uint32_t len = 0;
    if (!u32(len) || remaining() < len) return false;
    out = bytes_.subspan(pos_, len);
    pos_ += len;
    return true;
  }

 private:
  bool raw(void* p, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(p, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  BytesView bytes_;
  std::size_t pos_;
};

constexpr std::uint8_t kFlagTls = 1;
constexpr std::uint8_t kFlagSmime = 2;
constexpr std::uint8_t kFlagEv = 4;
constexpr std::uint8_t kKnownFlags = kFlagTls | kFlagSmime | kFlagEv;

}  // namespace

StoreView::~StoreView() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

StoreView::OpenResult StoreView::open(const std::string& path) {
  OpenResult result;
  auto fail = [&result](ErrorClass cls, std::string message) {
    result.error = SnapshotError{cls, std::move(message)};
    return result;
  };
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return fail(ErrorClass::kIo, "cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return fail(ErrorClass::kIo, "cannot stat " + path);
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < kHeaderSize) {
    ::close(fd);
    return fail(ErrorClass::kTruncated,
                path + " is shorter than the snapshot header");
  }
  if (size > kMaxSnapshotBytes) {
    ::close(fd);
    return fail(ErrorClass::kLimitExceeded, path + " exceeds the size cap");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return fail(ErrorClass::kIo, "mmap failed: " + path);

  std::shared_ptr<StoreView> view(new StoreView());
  view->map_ = map;
  view->map_size_ = size;
  SnapshotError error;
  if (!view->load(BytesView(static_cast<const std::uint8_t*>(map), size),
                  error)) {
    result.error = std::move(error);  // view unmaps on destruction
    return result;
  }
  view->info_.source = "mmap:" + path;
  result.view = std::move(view);
  return result;
}

StoreView::OpenResult StoreView::from_bytes(Bytes bytes) {
  OpenResult result;
  std::shared_ptr<StoreView> view(new StoreView());
  view->owned_ = std::move(bytes);
  SnapshotError error;
  if (!view->load(BytesView(view->owned_), error)) {
    result.error = std::move(error);
    return result;
  }
  view->info_.source = "memory";
  result.view = std::move(view);
  return result;
}

bool StoreView::load(BytesView bytes, SnapshotError& error) {
  auto fail = [&error](ErrorClass cls, std::string message) {
    error = SnapshotError{cls, std::move(message)};
    return false;
  };

  if (bytes.size() < kHeaderSize) {
    return fail(ErrorClass::kTruncated, "image shorter than the header");
  }
  Header header{};
  std::memcpy(&header, bytes.data(), sizeof header);
  if (std::memcmp(header.magic, kMagic, sizeof kMagic) != 0) {
    return fail(ErrorClass::kBadMagic, "not a root-store snapshot");
  }
  if (header.endian_tag != kEndianTag) {
    return fail(ErrorClass::kBadEndian,
                "snapshot was written on a foreign-endian machine");
  }
  if (header.format_version != kFormatVersion) {
    return fail(ErrorClass::kBadVersion,
                "format version " + std::to_string(header.format_version) +
                    " (reader speaks " + std::to_string(kFormatVersion) + ")");
  }
  if (header.header_size != kHeaderSize) {
    return fail(ErrorClass::kMalformed, "unexpected header size");
  }
  if (header.file_size > bytes.size()) {
    return fail(ErrorClass::kTruncated,
                "image is " + std::to_string(bytes.size()) + " bytes, header" +
                    " declares " + std::to_string(header.file_size));
  }
  if (header.file_size < bytes.size()) {
    return fail(ErrorClass::kMalformed, "trailing bytes after declared size");
  }

  // Whole-file digest with the digest field zeroed: any single flipped bit
  // — header or payload — fails here unless a later structural check
  // catches it first.
  {
    Sha256 hasher;
    const std::size_t digest_off = offsetof(Header, digest);
    static const std::uint8_t kZeros[Sha256::kDigestSize] = {};
    hasher.update(bytes.subspan(0, digest_off));
    hasher.update(BytesView(kZeros, Sha256::kDigestSize));
    hasher.update(bytes.subspan(digest_off + Sha256::kDigestSize));
    const Sha256::Digest actual = hasher.finish();
    if (std::memcmp(actual.data(), header.digest, actual.size()) != 0) {
      return fail(ErrorClass::kChecksumMismatch,
                  "snapshot digest does not match file contents");
    }
  }

  if (header.trusted_count > kMaxRecords ||
      header.distrusted_count > kMaxRecords ||
      header.gcc_count > kMaxRecords) {
    return fail(ErrorClass::kLimitExceeded, "record count above reader cap");
  }
  if (header.revocation_count > 1) {
    return fail(ErrorClass::kMalformed,
                "snapshot declares more than one revocation filter");
  }

  Cursor cursor(bytes, kHeaderSize);

  // Walks one framed section, validating the offset table against the
  // records actually parsed: every record must start exactly where the
  // table says it does and the last must end exactly at the section end.
  auto section = [&](std::uint32_t kind, std::uint32_t count,
                     auto&& record_fn) {
    std::uint32_t actual_kind = 0, actual_count = 0;
    std::uint64_t body = 0;
    if (!cursor.u32(actual_kind) || actual_kind != kind) {
      return fail(ErrorClass::kMalformed, "section out of order");
    }
    if (!cursor.u32(actual_count) || actual_count != count) {
      return fail(ErrorClass::kMalformed,
                  "section count disagrees with header");
    }
    if (!cursor.u64(body) || body > cursor.remaining()) {
      return fail(ErrorClass::kTruncated, "section body out of bounds");
    }
    const std::uint64_t table_bytes =
        std::uint64_t{count} * sizeof(std::uint64_t);
    if (body < table_bytes) {
      return fail(ErrorClass::kMalformed, "section smaller than offset table");
    }
    const std::size_t section_end = cursor.pos() + body;
    std::vector<std::uint64_t> offsets(count);
    for (std::uint64_t& offset : offsets) {
      if (!cursor.u64(offset)) {
        return fail(ErrorClass::kTruncated, "offset table out of bounds");
      }
    }
    const std::size_t records_base = cursor.pos();
    for (std::uint32_t i = 0; i < count; ++i) {
      if (cursor.pos() - records_base != offsets[i]) {
        return fail(ErrorClass::kMalformed, "offset table mismatch");
      }
      if (!record_fn(cursor)) return false;  // record_fn filled `error`
      if (cursor.pos() > section_end) {
        return fail(ErrorClass::kTruncated, "record crosses section end");
      }
    }
    if (cursor.pos() != section_end) {
      return fail(ErrorClass::kMalformed, "section size mismatch");
    }
    return true;
  };

  entries_.reserve(header.trusted_count);
  if (!section(kSectionTrusted, header.trusted_count, [&](Cursor& c) {
        std::uint8_t flags = 0;
        RootMetadata md;
        if (!c.u8(flags) || (flags & ~kKnownFlags) != 0) {
          return fail(ErrorClass::kMalformed, "bad trusted-root flags");
        }
        std::int64_t t = 0;
        if ((flags & kFlagTls) != 0) {
          if (!c.i64(t)) return fail(ErrorClass::kTruncated, "trusted record");
          md.tls_distrust_after = t;
        }
        if ((flags & kFlagSmime) != 0) {
          if (!c.i64(t)) return fail(ErrorClass::kTruncated, "trusted record");
          md.smime_distrust_after = t;
        }
        md.ev_allowed = (flags & kFlagEv) != 0;
        BytesView der;
        if (!c.str(md.justification) || !c.blob(der)) {
          return fail(ErrorClass::kTruncated, "trusted record");
        }
        auto cert = x509::Certificate::parse(der);
        if (!cert) {
          return fail(ErrorClass::kMalformed,
                      "trusted root DER: " + cert.error());
        }
        if (!by_hash_.emplace(cert.value()->fingerprint(), entries_.size())
                 .second) {
          return fail(ErrorClass::kMalformed,
                      "duplicate trusted root " +
                          cert.value()->fingerprint_hex());
        }
        entries_.push_back(RootEntry{std::move(cert).take(), std::move(md)});
        return true;
      })) {
    return false;
  }
  // entries_ is complete and never resized again, so the index may point
  // into it.
  for (const RootEntry& entry : entries_) {
    by_subject_[entry.cert->subject()].push_back(&entry);
  }

  Sha256::Digest prev_hash{};
  if (!section(kSectionDistrusted, header.distrusted_count, [&](Cursor& c) {
        std::string hash_hex, justification;
        if (!c.str(hash_hex) || !c.str(justification)) {
          return fail(ErrorClass::kTruncated, "distrusted record");
        }
        const auto hash = digest_from_hex(hash_hex);
        if (!hash) return fail(ErrorClass::kMalformed, "bad distrusted hash");
        // Canonical order is part of the format: sorted, no duplicates.
        if (!distrusted_.empty() && *hash <= prev_hash) {
          return fail(ErrorClass::kMalformed, "distrusted entries unsorted");
        }
        prev_hash = *hash;
        distrusted_.emplace(*hash, std::move(justification));
        return true;
      })) {
    return false;
  }

  std::optional<Sha256::Digest> current_root;
  if (!section(kSectionGccs, header.gcc_count, [&](Cursor& c) {
        std::string root_hex, name, justification, source;
        BytesView blob;
        if (!c.str(root_hex) || !c.str(name) || !c.str(justification) ||
            !c.str(source) || !c.blob(blob)) {
          return fail(ErrorClass::kTruncated, "gcc record");
        }
        const auto root = digest_from_hex(root_hex);
        if (!root) return fail(ErrorClass::kMalformed, "bad gcc root hash");
        if (root != current_root) {
          // Groups sorted ascending, each root appearing exactly once.
          if ((current_root && *root < *current_root) ||
              gccs_by_root_.contains(*root)) {
            return fail(ErrorClass::kMalformed, "gcc groups unsorted");
          }
          current_root = root;
        }
        auto program = datalog::CompiledProgram::deserialize(blob);
        if (!program) {
          return fail(ErrorClass::kMalformed,
                      "gcc '" + name + "': " + program.error());
        }
        auto gcc = core::Gcc::from_compiled(
            std::move(name), *root, std::move(source), std::move(justification),
            std::make_shared<const datalog::CompiledProgram>(
                std::move(program).take()));
        if (!gcc) return fail(ErrorClass::kMalformed, gcc.error());
        auto& list = gccs_by_root_[*root];
        for (const core::Gcc& existing : list) {
          if (existing.name() == gcc.value().name()) {
            return fail(ErrorClass::kMalformed,
                        "duplicate gcc name on root " + root_hex);
          }
        }
        list.push_back(std::move(gcc).take());
        ++gcc_total_;
        return true;
      })) {
    return false;
  }

  if (!section(kSectionRevocation, header.revocation_count, [&](Cursor& c) {
        std::string text;
        if (!c.str(text)) {
          return fail(ErrorClass::kTruncated, "revocation record");
        }
        auto filter = revocation::CompressedRevocationSet::deserialize(text);
        if (!filter) {
          return fail(ErrorClass::kMalformed,
                      "revocation filter: " + filter.error());
        }
        revocation_filter_ =
            std::make_shared<const revocation::CompressedRevocationSet>(
                std::move(filter).take());
        return true;
      })) {
    return false;
  }

  if (cursor.remaining() != 0) {
    return fail(ErrorClass::kMalformed, "bytes after the last section");
  }

  info_.format_version = header.format_version;
  info_.epoch = header.epoch;
  info_.file_size = header.file_size;
  info_.trusted_count = header.trusted_count;
  info_.distrusted_count = header.distrusted_count;
  info_.gcc_count = header.gcc_count;
  info_.revocation_count = header.revocation_count;
  info_.digest_hex =
      to_hex(BytesView(header.digest, Sha256::kDigestSize));
  return true;
}

TrustState StoreView::state_of(const Sha256::Digest& hash) const {
  if (by_hash_.contains(hash)) return TrustState::kTrusted;
  if (distrusted_.contains(hash)) return TrustState::kDistrusted;
  return TrustState::kUnknown;
}

const RootEntry* StoreView::find(const Sha256::Digest& hash) const {
  auto it = by_hash_.find(hash);
  return it == by_hash_.end() ? nullptr : &entries_[it->second];
}

std::vector<const RootEntry*> StoreView::trusted() const {
  std::vector<const RootEntry*> out;
  out.reserve(entries_.size());
  for (const RootEntry& entry : entries_) out.push_back(&entry);
  return out;
}

std::span<const RootEntry* const> StoreView::trusted_by_subject(
    const x509::DistinguishedName& subject) const {
  auto it = by_subject_.find(subject);
  if (it == by_subject_.end()) return {};
  return it->second;
}

std::span<const core::Gcc> StoreView::gccs_for_root(
    const Sha256::Digest& hash) const {
  auto it = gccs_by_root_.find(hash);
  if (it == gccs_by_root_.end()) return {};
  return it->second;
}

RootStore StoreView::materialize() const {
  RootStore out;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out.add_trusted_unchecked(entries_[i].cert, entries_[i].metadata);
  }
  std::vector<Sha256::Digest> hashes;
  hashes.reserve(distrusted_.size());
  for (const auto& [hash, justification] : distrusted_) {
    hashes.push_back(hash);
  }
  std::sort(hashes.begin(), hashes.end());
  for (const Sha256::Digest& hash : hashes) {
    out.distrust(hash, distrusted_.at(hash));
  }
  std::vector<Sha256::Digest> roots;
  roots.reserve(gccs_by_root_.size());
  for (const auto& [root, list] : gccs_by_root_) roots.push_back(root);
  std::sort(roots.begin(), roots.end());
  for (const Sha256::Digest& root : roots) {
    for (const core::Gcc& gcc : gccs_by_root_.at(root)) {
      out.attach_gcc(gcc);
    }
  }
  if (revocation_filter_ != nullptr) {
    out.set_revocation_filter(revocation_filter_);
  }
  // The rebuild above used the minimum possible mutation count, so the
  // store's own counter is at or below the snapshot epoch; pin it to
  // exactly the epoch the snapshot was written at.
  if (info_.epoch > 0) out.advance_epoch_past(info_.epoch - 1);
  return out;
}

Bytes StoreView::re_encode() const {
  // materialize() preserves content, order and epoch, and the writer is
  // deterministic — so this reproduces the loaded image byte for byte
  // (pinned by the round-trip tests).
  return write_snapshot(materialize());
}

}  // namespace anchor::rootstore::snapshot
