#include "rootstore/snapshot/writer.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "revocation/crlite.hpp"

namespace anchor::rootstore::snapshot {

namespace {

void put_u32(Bytes& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

void put_u64(Bytes& out, std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

void put_i64(Bytes& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_str(Bytes& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  out.insert(out.end(), p, p + s.size());
}

void put_blob(Bytes& out, const Bytes& b) {
  put_u32(out, static_cast<std::uint32_t>(b.size()));
  out.insert(out.end(), b.begin(), b.end());
}

// Accumulates records, then emits the framed section: the offset table
// makes record i addressable by computation instead of a scan.
struct SectionBuilder {
  std::vector<Bytes> records;

  void emit(Bytes& out, std::uint32_t kind) const {
    std::uint64_t body = records.size() * sizeof(std::uint64_t);
    for (const Bytes& rec : records) body += rec.size();
    put_u32(out, kind);
    put_u32(out, static_cast<std::uint32_t>(records.size()));
    put_u64(out, body);
    std::uint64_t offset = 0;
    for (const Bytes& rec : records) {
      put_u64(out, offset);
      offset += rec.size();
    }
    for (const Bytes& rec : records) {
      out.insert(out.end(), rec.begin(), rec.end());
    }
  }
};

constexpr std::uint8_t kFlagTls = 1;
constexpr std::uint8_t kFlagSmime = 2;
constexpr std::uint8_t kFlagEv = 4;

}  // namespace

Bytes write_snapshot(const RootStore& store) {
  // Trusted roots in insertion order: the order path search tries
  // candidate roots, hence part of the byte-identical-verdicts contract.
  SectionBuilder trusted;
  for (const RootEntry* entry : store.trusted()) {
    Bytes rec;
    const RootMetadata& md = entry->metadata;
    std::uint8_t flags = 0;
    if (md.tls_distrust_after) flags |= kFlagTls;
    if (md.smime_distrust_after) flags |= kFlagSmime;
    if (md.ev_allowed) flags |= kFlagEv;
    rec.push_back(flags);
    if (md.tls_distrust_after) put_i64(rec, *md.tls_distrust_after);
    if (md.smime_distrust_after) put_i64(rec, *md.smime_distrust_after);
    put_str(rec, md.justification);
    put_blob(rec, entry->cert->der());
    trusted.records.push_back(std::move(rec));
  }

  // Distrust entries sorted by hash: the set is consulted by lookup only,
  // so the canonical order makes equal content byte-equal.
  std::vector<Sha256::Digest> distrusted_hashes;
  distrusted_hashes.reserve(store.distrusted().size());
  for (const auto& [hash, justification] : store.distrusted()) {
    distrusted_hashes.push_back(hash);
  }
  std::sort(distrusted_hashes.begin(), distrusted_hashes.end());
  SectionBuilder distrusted;
  for (const Sha256::Digest& hash : distrusted_hashes) {
    Bytes rec;
    put_str(rec, to_hex(BytesView(hash)));
    put_str(rec, store.distrusted().at(hash));
    distrusted.records.push_back(std::move(rec));
  }

  // GCCs grouped by root ascending, attachment order within a root.
  SectionBuilder gccs;
  for (const Sha256::Digest& root : store.gccs().roots_sorted()) {
    const std::string root_hex = to_hex(BytesView(root));
    for (const core::Gcc& gcc : store.gccs().for_root(root)) {
      Bytes rec;
      put_str(rec, root_hex);
      put_str(rec, gcc.name());
      put_str(rec, gcc.justification());
      put_str(rec, gcc.source());
      Bytes compiled;
      gcc.compiled()->serialize(compiled);
      put_blob(rec, compiled);
      gccs.records.push_back(std::move(rec));
    }
  }

  // v2: the store-distributed revocation filter, zero or one record. The
  // section frame is always present so readers validate order
  // unconditionally.
  SectionBuilder revocation;
  if (auto filter = store.revocation_filter()) {
    Bytes rec;
    put_str(rec, filter->serialize());
    revocation.records.push_back(std::move(rec));
  }

  Bytes out(kHeaderSize, 0);
  trusted.emit(out, kSectionTrusted);
  distrusted.emit(out, kSectionDistrusted);
  gccs.emit(out, kSectionGccs);
  revocation.emit(out, kSectionRevocation);

  Header header{};
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.endian_tag = kEndianTag;
  header.format_version = kFormatVersion;
  header.header_size = kHeaderSize;
  header.file_size = out.size();
  header.epoch = store.epoch();
  header.trusted_count = static_cast<std::uint32_t>(trusted.records.size());
  header.distrusted_count =
      static_cast<std::uint32_t>(distrusted.records.size());
  header.gcc_count = static_cast<std::uint32_t>(gccs.records.size());
  header.revocation_count =
      static_cast<std::uint32_t>(revocation.records.size());
  std::memcpy(out.data(), &header, sizeof header);
  reseal(out);
  return out;
}

Status write_snapshot_file(const RootStore& store, const std::string& path) {
  const Bytes image = write_snapshot(store);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return err("snapshot: cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  out.flush();
  if (!out.good()) return err("snapshot: short write to " + path);
  return {};
}

}  // namespace anchor::rootstore::snapshot
