// Serialization grammar (line-oriented; values that may contain arbitrary
// bytes are base64):
//
//   anchor-root-store/v1
//   trusted <hash>
//   ev <0|1>
//   tls-distrust-after <unix>          (optional)
//   smime-distrust-after <unix>        (optional)
//   justification-b64 <b64>            (optional)
//   -----BEGIN CERTIFICATE----- ...    (the root itself)
//   distrusted <hash>
//   justification-b64 <b64>            (optional)
//   gcc <hash>
//   name-b64 <b64>
//   justification-b64 <b64>            (optional)
//   source-b64 <b64>
//   crlite-b64 <b64>                   (optional, at most one: the
//                                       store-distributed revocation filter)
//
// Sections may repeat; ordering is canonical (roots and distrust entries
// sorted by hash, GCCs by root hash) so stores with equal *content*
// serialize identically regardless of insertion history — delta replay,
// merging and the RSF content hash all rely on this.
#include "rootstore/store.hpp"

#include <algorithm>
#include <sstream>

#include "revocation/crlite.hpp"
#include "util/base64.hpp"
#include "util/sha256.hpp"
#include "util/strings.hpp"

namespace anchor::rootstore {

Status RootStore::add_trusted(x509::CertPtr cert, RootMetadata metadata) {
  if (distrusted_.contains(cert->fingerprint())) {
    return err("root store: root " + cert->fingerprint_hex().substr(0, 16) +
               "... is explicitly distrusted; refusing to re-trust (use "
               "add_trusted_unchecked to model non-compliant derivatives)");
  }
  add_trusted_unchecked(std::move(cert), std::move(metadata));
  return {};
}

void RootStore::add_trusted_unchecked(x509::CertPtr cert,
                                      RootMetadata metadata) {
  const Sha256::Digest hash = cert->fingerprint();
  auto it = trusted_.find(hash);
  // Same fingerprint ⇒ same certificate bytes; only a metadata change can
  // alter a verification outcome. A byte-identical re-add must not bump
  // the epoch, or redundant delta replay flushes every verdict cache keyed
  // on epoch() for nothing.
  if (it != trusted_.end() && it->second->metadata == metadata) return;
  auto fresh = std::make_shared<const RootEntry>(
      RootEntry{std::move(cert), std::move(metadata)});
  if (it != trusted_.end()) {
    // Same subject, same slot: the replacement keeps the root's position.
    for (const RootEntry*& slot : by_subject_[fresh->cert->subject()]) {
      if (slot == it->second.get()) slot = fresh.get();
    }
    it->second = std::move(fresh);
    ++epoch_;
    return;
  }
  trusted_order_.push_back(hash);
  by_subject_[fresh->cert->subject()].push_back(fresh.get());
  trusted_.emplace(hash, std::move(fresh));
  ++epoch_;
}

// Removes `hash` from the trusted set; returns true if it was there.
bool RootStore::untrust(const Sha256::Digest& hash) {
  auto it = trusted_.find(hash);
  if (it == trusted_.end()) return false;
  auto bucket = by_subject_.find(it->second->cert->subject());
  std::erase(bucket->second, it->second.get());
  if (bucket->second.empty()) by_subject_.erase(bucket);
  trusted_.erase(it);
  std::erase(trusted_order_, hash);
  return true;
}

void RootStore::distrust(Sha256::Digest hash, std::string justification) {
  const bool was_trusted = untrust(hash);
  auto it = distrusted_.find(hash);
  if (it != distrusted_.end()) {
    // Already distrusted with the same justification (and not shadowed by a
    // trusted entry): nothing observable changed, keep the epoch stable.
    if (!was_trusted && it->second == justification) return;
    it->second = std::move(justification);
  } else {
    distrusted_order_.push_back(hash);
    distrusted_.emplace(hash, std::move(justification));
  }
  ++epoch_;
}

bool RootStore::forget(Sha256::Digest hash) {
  const bool was_trusted = untrust(hash);
  const bool was_distrusted = distrusted_.erase(hash) > 0;
  if (was_distrusted) std::erase(distrusted_order_, hash);
  if (was_trusted || was_distrusted) ++epoch_;
  return was_trusted || was_distrusted;
}

void RootStore::attach_gcc(core::Gcc gcc) {
  if (gccs_.attach(std::move(gcc))) ++epoch_;
}

bool RootStore::detach_gcc(const Sha256::Digest& root_hash,
                           const std::string& name) {
  if (!gccs_.detach(root_hash, name)) return false;
  ++epoch_;
  return true;
}

bool RootStore::detach_gcc(std::string_view root_hash_hex,
                           const std::string& name) {
  const auto root_hash = digest_from_hex(root_hash_hex);
  return root_hash && detach_gcc(*root_hash, name);
}

void RootStore::set_revocation_filter(
    std::shared_ptr<const revocation::CompressedRevocationSet> filter) {
  const bool same =
      (filter == nullptr && revocation_filter_ == nullptr) ||
      (filter != nullptr && revocation_filter_ != nullptr &&
       *filter == *revocation_filter_);
  revocation_filter_ = std::move(filter);
  if (!same) ++epoch_;
}

TrustState RootStore::state_of(const Sha256::Digest& hash) const {
  if (trusted_.contains(hash)) return TrustState::kTrusted;
  if (distrusted_.contains(hash)) return TrustState::kDistrusted;
  return TrustState::kUnknown;
}

TrustState RootStore::state_of(std::string_view hash_hex) const {
  const auto hash = digest_from_hex(hash_hex);
  return hash ? state_of(*hash) : TrustState::kUnknown;
}

const RootEntry* RootStore::find(const Sha256::Digest& hash) const {
  auto it = trusted_.find(hash);
  return it == trusted_.end() ? nullptr : it->second.get();
}

std::vector<const RootEntry*> RootStore::trusted() const {
  std::vector<const RootEntry*> out;
  out.reserve(trusted_order_.size());
  for (const auto& hash : trusted_order_) {
    out.push_back(trusted_.at(hash).get());
  }
  return out;
}

std::span<const RootEntry* const> RootStore::trusted_by_subject(
    const x509::DistinguishedName& subject) const {
  auto it = by_subject_.find(subject);
  if (it == by_subject_.end()) return {};
  return it->second;
}

std::string RootStore::serialize() const {
  // Canonical form: entries sorted by hash, so equal *content* serializes
  // identically regardless of insertion history (delta replay, merges and
  // feed payload comparison all rely on this).
  // Bytewise digest order is the order of the lowercase hex forms.
  std::vector<Sha256::Digest> trusted_sorted = trusted_order_;
  std::sort(trusted_sorted.begin(), trusted_sorted.end());
  std::vector<Sha256::Digest> distrusted_sorted = distrusted_order_;
  std::sort(distrusted_sorted.begin(), distrusted_sorted.end());

  std::ostringstream out;
  out << "anchor-root-store/v1\n";
  for (const auto& hash : trusted_sorted) {
    const RootEntry& entry = *trusted_.at(hash);
    out << "trusted " << to_hex(BytesView(hash)) << "\n";
    out << "ev " << (entry.metadata.ev_allowed ? 1 : 0) << "\n";
    if (entry.metadata.tls_distrust_after) {
      out << "tls-distrust-after " << *entry.metadata.tls_distrust_after << "\n";
    }
    if (entry.metadata.smime_distrust_after) {
      out << "smime-distrust-after " << *entry.metadata.smime_distrust_after
          << "\n";
    }
    if (!entry.metadata.justification.empty()) {
      out << "justification-b64 "
          << base64_encode(BytesView(to_bytes(entry.metadata.justification)))
          << "\n";
    }
    out << entry.cert->to_pem();
  }
  for (const auto& hash : distrusted_sorted) {
    out << "distrusted " << to_hex(BytesView(hash)) << "\n";
    const std::string& justification = distrusted_.at(hash);
    if (!justification.empty()) {
      out << "justification-b64 "
          << base64_encode(BytesView(to_bytes(justification))) << "\n";
    }
  }
  for (const Sha256::Digest& root : gccs_.roots_sorted()) {
    for (const core::Gcc& gcc : gccs_.for_root(root)) {
      out << "gcc " << to_hex(BytesView(root)) << "\n";
      out << "name-b64 " << base64_encode(BytesView(to_bytes(gcc.name())))
          << "\n";
      if (!gcc.justification().empty()) {
        out << "justification-b64 "
            << base64_encode(BytesView(to_bytes(gcc.justification()))) << "\n";
      }
      out << "source-b64 " << base64_encode(BytesView(to_bytes(gcc.source())))
          << "\n";
    }
  }
  if (revocation_filter_ != nullptr) {
    out << "crlite-b64 "
        << base64_encode(BytesView(to_bytes(revocation_filter_->serialize())))
        << "\n";
  }
  return out.str();
}

namespace {

Result<std::string> decode_b64_field(std::string_view value) {
  Bytes decoded;
  if (!base64_decode(value, decoded)) {
    return err("root store: bad base64 field");
  }
  return to_string(BytesView(decoded));
}

}  // namespace

Result<RootStore> RootStore::deserialize(std::string_view text) {
  std::vector<std::string> lines = split(text, '\n');
  if (lines.empty() || lines[0] != "anchor-root-store/v1") {
    return err("root store: missing anchor-root-store/v1 header");
  }

  RootStore store;
  std::size_t i = 1;

  auto parse_int = [](const std::string& s, std::int64_t& out) {
    if (s.empty()) return false;
    std::size_t pos = 0;
    bool negative = s[0] == '-';
    if (negative) pos = 1;
    std::int64_t v = 0;
    for (; pos < s.size(); ++pos) {
      if (s[pos] < '0' || s[pos] > '9') return false;
      v = v * 10 + (s[pos] - '0');
    }
    out = negative ? -v : v;
    return true;
  };

  while (i < lines.size()) {
    std::string line = std::string(trim(lines[i]));
    if (line.empty()) {
      ++i;
      continue;
    }
    std::size_t space = line.find(' ');
    std::string keyword = line.substr(0, space);
    std::string arg = space == std::string::npos ? "" : line.substr(space + 1);

    if (keyword == "trusted") {
      ++i;
      RootMetadata metadata;
      // Metadata lines until the PEM block.
      while (i < lines.size() && !starts_with(lines[i], "-----BEGIN")) {
        std::string meta_line = std::string(trim(lines[i]));
        if (meta_line.empty()) {
          ++i;
          continue;
        }
        std::size_t sp = meta_line.find(' ');
        if (sp == std::string::npos) {
          return err("root store: malformed metadata line '" + meta_line + "'");
        }
        std::string key = meta_line.substr(0, sp);
        std::string value = meta_line.substr(sp + 1);
        if (key == "ev") {
          metadata.ev_allowed = value == "1";
        } else if (key == "tls-distrust-after") {
          std::int64_t t;
          if (!parse_int(value, t)) return err("root store: bad timestamp");
          metadata.tls_distrust_after = t;
        } else if (key == "smime-distrust-after") {
          std::int64_t t;
          if (!parse_int(value, t)) return err("root store: bad timestamp");
          metadata.smime_distrust_after = t;
        } else if (key == "justification-b64") {
          auto decoded = decode_b64_field(value);
          if (!decoded) return err(decoded.error());
          metadata.justification = std::move(decoded).take();
        } else {
          return err("root store: unknown metadata key '" + key + "'");
        }
        ++i;
      }
      // PEM block: gather until END line inclusive.
      std::string pem;
      while (i < lines.size()) {
        pem += lines[i];
        pem += '\n';
        bool end = starts_with(lines[i], "-----END");
        ++i;
        if (end) break;
      }
      auto cert = x509::Certificate::parse_pem(pem);
      if (!cert) return err("root store: " + cert.error());
      const auto hash = digest_from_hex(arg);
      if (!hash || *hash != cert.value()->fingerprint()) {
        return err("root store: trusted hash mismatch for " + arg);
      }
      store.add_trusted_unchecked(std::move(cert).take(), std::move(metadata));
    } else if (keyword == "distrusted") {
      ++i;
      std::string justification;
      if (i < lines.size() && starts_with(lines[i], "justification-b64 ")) {
        auto decoded = decode_b64_field(std::string_view(lines[i]).substr(18));
        if (!decoded) return err(decoded.error());
        justification = std::move(decoded).take();
        ++i;
      }
      const auto hash = digest_from_hex(arg);
      if (!hash) return err("root store: bad distrusted hash");
      store.distrust(*hash, std::move(justification));
    } else if (keyword == "gcc") {
      ++i;
      std::string name;
      std::string justification;
      std::string source;
      while (i < lines.size()) {
        std::string field_line = std::string(trim(lines[i]));
        if (starts_with(field_line, "name-b64 ")) {
          auto decoded = decode_b64_field(std::string_view(field_line).substr(9));
          if (!decoded) return err(decoded.error());
          name = std::move(decoded).take();
        } else if (starts_with(field_line, "justification-b64 ")) {
          auto decoded =
              decode_b64_field(std::string_view(field_line).substr(18));
          if (!decoded) return err(decoded.error());
          justification = std::move(decoded).take();
        } else if (starts_with(field_line, "source-b64 ")) {
          auto decoded =
              decode_b64_field(std::string_view(field_line).substr(11));
          if (!decoded) return err(decoded.error());
          source = std::move(decoded).take();
          ++i;
          break;  // source-b64 terminates a gcc section
        } else {
          return err("root store: unexpected line in gcc section: '" +
                     field_line + "'");
        }
        ++i;
      }
      auto gcc = core::Gcc::create(name, arg, source, justification);
      if (!gcc) return err("root store: " + gcc.error());
      store.attach_gcc(std::move(gcc).take());
    } else if (keyword == "crlite-b64") {
      ++i;
      auto decoded = decode_b64_field(arg);
      if (!decoded) return err(decoded.error());
      auto filter =
          revocation::CompressedRevocationSet::deserialize(decoded.value());
      if (!filter) return err("root store: " + filter.error());
      store.set_revocation_filter(
          std::make_shared<const revocation::CompressedRevocationSet>(
              std::move(filter).take()));
    } else {
      return err("root store: unknown section '" + keyword + "'");
    }
  }
  return store;
}

std::string RootStore::content_hash_hex() const {
  std::string serialized = serialize();
  return Sha256::hash_hex(BytesView(to_bytes(serialized)));
}

void export_store_metrics(const StoreReader& store,
                          metrics::Registry& registry,
                          const std::string& instance) {
  metrics::Labels labels;
  if (!instance.empty()) labels.emplace_back("store", instance);
  registry.gauge("anchor_store_trusted_roots", labels)
      .set(static_cast<std::int64_t>(store.trusted_count()));
  registry.gauge("anchor_store_distrusted_roots", labels)
      .set(static_cast<std::int64_t>(store.distrusted_count()));
  registry.gauge("anchor_store_gccs", labels)
      .set(static_cast<std::int64_t>(store.gcc_count()));
  registry.gauge("anchor_store_epoch", labels)
      .set(static_cast<std::int64_t>(store.epoch()));
}

}  // namespace anchor::rootstore
