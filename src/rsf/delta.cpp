#include "rsf/delta.hpp"

#include <algorithm>
#include <sstream>

#include "util/base64.hpp"
#include "util/strings.hpp"

namespace anchor::rsf {

StoreDelta StoreDelta::diff(const rootstore::RootStore& from,
                            const rootstore::RootStore& to) {
  StoreDelta delta;
  // Every list below is in hash order — never insertion or hash-table
  // order — so the encoding depends only on the two stores' contents: the
  // delta a publisher derives from its in-memory stores is byte-identical
  // to one derived from their deserialized payloads.
  const auto by_fingerprint = [](const rootstore::RootEntry* a,
                                 const rootstore::RootEntry* b) {
    return a->cert->fingerprint() < b->cert->fingerprint();
  };

  // Trusted side: additions and metadata changes.
  std::vector<const rootstore::RootEntry*> to_trusted = to.trusted();
  std::sort(to_trusted.begin(), to_trusted.end(), by_fingerprint);
  for (const rootstore::RootEntry* entry : to_trusted) {
    const rootstore::RootEntry* old = from.find(entry->cert->fingerprint());
    if (old == nullptr || !(old->metadata == entry->metadata)) {
      delta.add_trusted.push_back(TrustChange{entry->cert, entry->metadata});
    }
  }
  // Distrusted side (including justification updates on existing entries).
  for (const auto& [hash, justification] : to.distrusted()) {
    auto it = from.distrusted().find(hash);
    if (it == from.distrusted().end() || it->second != justification) {
      delta.distrust.emplace_back(hash, justification);
    }
  }
  std::sort(delta.distrust.begin(), delta.distrust.end());
  // Disappearances: present in `from`, absent (unknown) in `to`; forgotten
  // trusted roots first, then forgotten distrust entries.
  std::vector<const rootstore::RootEntry*> from_trusted = from.trusted();
  std::sort(from_trusted.begin(), from_trusted.end(), by_fingerprint);
  for (const rootstore::RootEntry* entry : from_trusted) {
    const Sha256::Digest& hash = entry->cert->fingerprint();
    if (to.state_of(hash) == rootstore::TrustState::kUnknown) {
      delta.forget.push_back(hash);
    }
  }
  const std::size_t forgotten_trusted = delta.forget.size();
  for (const auto& [hash, justification] : from.distrusted()) {
    if (to.state_of(hash) == rootstore::TrustState::kUnknown) {
      delta.forget.push_back(hash);
    }
  }
  std::sort(delta.forget.begin() +
                static_cast<std::ptrdiff_t>(forgotten_trusted),
            delta.forget.end());

  // GCC side, keyed by (root, name); per root in attachment order, which
  // serialization preserves. A GCC copied from `from` shares its body, so
  // the equality check is one pointer comparison.
  for (const auto& root : to.gccs().roots_sorted()) {
    const std::vector<core::Gcc>& before = from.gccs().for_root(root);
    for (const core::Gcc& gcc : to.gccs().for_root(root)) {
      const bool same = std::any_of(
          before.begin(), before.end(), [&](const core::Gcc& old) {
            return old == gcc && old.justification() == gcc.justification();
          });
      if (!same) delta.attach_gccs.push_back(gcc);
    }
  }
  for (const auto& root : from.gccs().roots_sorted()) {
    const std::vector<core::Gcc>& after = to.gccs().for_root(root);
    for (const core::Gcc& gcc : from.gccs().for_root(root)) {
      const bool kept = std::any_of(
          after.begin(), after.end(),
          [&](const core::Gcc& now) { return now.name() == gcc.name(); });
      if (!kept) delta.detach_gccs.emplace_back(gcc.root_hash(), gcc.name());
    }
  }

  // Revocation filter: replaced wholesale (the cascade is not incremental).
  auto from_filter = from.revocation_filter();
  auto to_filter = to.revocation_filter();
  if (to_filter == nullptr) {
    if (from_filter != nullptr) delta.clear_filter = true;
  } else if (from_filter == nullptr || !(*from_filter == *to_filter)) {
    delta.set_filter = to_filter;
  }
  return delta;
}

void StoreDelta::apply(rootstore::RootStore& store) const {
  for (const auto& hash : forget) store.forget(hash);
  for (const auto& [hash, justification] : distrust) {
    store.distrust(hash, justification);
  }
  for (const auto& change : add_trusted) {
    // The primary's decision is authoritative: clear any stale distrust
    // entry before re-adding.
    if (store.state_of(change.cert->fingerprint()) ==
        rootstore::TrustState::kDistrusted) {
      store.forget(change.cert->fingerprint());
    }
    store.add_trusted_unchecked(change.cert, change.metadata);
  }
  for (const auto& [root, name] : detach_gccs) {
    store.detach_gcc(root, name);
  }
  for (const core::Gcc& gcc : attach_gccs) {
    store.attach_gcc(gcc);
  }
  if (clear_filter) store.set_revocation_filter(nullptr);
  if (set_filter != nullptr) store.set_revocation_filter(set_filter);
}

namespace {
std::string b64(const std::string& text) {
  return base64_encode(BytesView(to_bytes(text)));
}

Result<std::string> unb64(std::string_view text) {
  Bytes decoded;
  if (!base64_decode(text, decoded)) return err("delta: bad base64");
  return to_string(BytesView(decoded));
}
}  // namespace

std::string StoreDelta::serialize() const {
  std::ostringstream out;
  out << "anchor-store-delta/v1\n";
  for (const auto& change : add_trusted) {
    out << "add " << change.cert->fingerprint_hex() << "\n";
    out << "ev " << (change.metadata.ev_allowed ? 1 : 0) << "\n";
    if (change.metadata.tls_distrust_after) {
      out << "tls-distrust-after " << *change.metadata.tls_distrust_after
          << "\n";
    }
    if (change.metadata.smime_distrust_after) {
      out << "smime-distrust-after " << *change.metadata.smime_distrust_after
          << "\n";
    }
    if (!change.metadata.justification.empty()) {
      out << "justification-b64 " << b64(change.metadata.justification) << "\n";
    }
    out << change.cert->to_pem();
  }
  for (const auto& [hash, justification] : distrust) {
    out << "distrust " << to_hex(BytesView(hash)) << "\n";
    if (!justification.empty()) {
      out << "justification-b64 " << b64(justification) << "\n";
    }
  }
  for (const auto& hash : forget) {
    out << "forget " << to_hex(BytesView(hash)) << "\n";
  }
  for (const core::Gcc& gcc : attach_gccs) {
    out << "attach-gcc " << gcc.root_hash_hex() << "\n";
    out << "name-b64 " << b64(gcc.name()) << "\n";
    if (!gcc.justification().empty()) {
      out << "justification-b64 " << b64(gcc.justification()) << "\n";
    }
    out << "source-b64 " << b64(gcc.source()) << "\n";
  }
  for (const auto& [root, name] : detach_gccs) {
    out << "detach-gcc " << to_hex(BytesView(root)) << " " << b64(name)
        << "\n";
  }
  if (clear_filter) out << "clear-filter\n";
  if (set_filter != nullptr) {
    out << "set-filter-b64 " << b64(set_filter->serialize()) << "\n";
  }
  return out.str();
}

Result<StoreDelta> StoreDelta::deserialize(std::string_view text) {
  std::vector<std::string> lines = split(text, '\n');
  if (lines.empty() || lines[0] != "anchor-store-delta/v1") {
    return err("delta: missing header");
  }
  StoreDelta delta;
  std::size_t i = 1;
  auto parse_int = [](const std::string& s, std::int64_t& out) {
    if (s.empty()) return false;
    std::int64_t v = 0;
    for (char c : s) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + (c - '0');
    }
    out = v;
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

    if (keyword == "add") {
      ++i;
      rootstore::RootMetadata metadata;
      while (i < lines.size() && !starts_with(lines[i], "-----BEGIN")) {
        std::string meta = std::string(trim(lines[i]));
        if (meta.empty()) {
          ++i;
          continue;
        }
        std::size_t sp = meta.find(' ');
        if (sp == std::string::npos) return err("delta: malformed metadata");
        std::string key = meta.substr(0, sp);
        std::string value = meta.substr(sp + 1);
        if (key == "ev") {
          metadata.ev_allowed = value == "1";
        } else if (key == "tls-distrust-after") {
          std::int64_t t;
          if (!parse_int(value, t)) return err("delta: bad timestamp");
          metadata.tls_distrust_after = t;
        } else if (key == "smime-distrust-after") {
          std::int64_t t;
          if (!parse_int(value, t)) return err("delta: bad timestamp");
          metadata.smime_distrust_after = t;
        } else if (key == "justification-b64") {
          auto decoded = unb64(value);
          if (!decoded) return err(decoded.error());
          metadata.justification = std::move(decoded).take();
        } else {
          return err("delta: unknown metadata key '" + key + "'");
        }
        ++i;
      }
      std::string pem;
      while (i < lines.size()) {
        pem += lines[i];
        pem += '\n';
        bool end = starts_with(lines[i], "-----END");
        ++i;
        if (end) break;
      }
      auto cert = x509::Certificate::parse_pem(pem);
      if (!cert) return err("delta: " + cert.error());
      const auto hash = digest_from_hex(arg);
      if (!hash || *hash != cert.value()->fingerprint()) {
        return err("delta: add hash mismatch");
      }
      delta.add_trusted.push_back(
          TrustChange{std::move(cert).take(), std::move(metadata)});
    } else if (keyword == "distrust") {
      ++i;
      std::string justification;
      if (i < lines.size() && starts_with(lines[i], "justification-b64 ")) {
        auto decoded = unb64(std::string_view(lines[i]).substr(18));
        if (!decoded) return err(decoded.error());
        justification = std::move(decoded).take();
        ++i;
      }
      const auto hash = digest_from_hex(arg);
      if (!hash) return err("delta: bad distrust hash");
      delta.distrust.emplace_back(*hash, std::move(justification));
    } else if (keyword == "forget") {
      ++i;
      const auto hash = digest_from_hex(arg);
      if (!hash) return err("delta: bad forget hash");
      delta.forget.push_back(*hash);
    } else if (keyword == "attach-gcc") {
      ++i;
      std::string name;
      std::string justification;
      std::string source;
      while (i < lines.size()) {
        std::string field = std::string(trim(lines[i]));
        if (starts_with(field, "name-b64 ")) {
          auto decoded = unb64(std::string_view(field).substr(9));
          if (!decoded) return err(decoded.error());
          name = std::move(decoded).take();
        } else if (starts_with(field, "justification-b64 ")) {
          auto decoded = unb64(std::string_view(field).substr(18));
          if (!decoded) return err(decoded.error());
          justification = std::move(decoded).take();
        } else if (starts_with(field, "source-b64 ")) {
          auto decoded = unb64(std::string_view(field).substr(11));
          if (!decoded) return err(decoded.error());
          source = std::move(decoded).take();
          ++i;
          break;
        } else {
          return err("delta: unexpected line in attach-gcc: '" + field + "'");
        }
        ++i;
      }
      auto gcc = core::Gcc::create(name, arg, source, justification);
      if (!gcc) return err("delta: " + gcc.error());
      delta.attach_gccs.push_back(std::move(gcc).take());
    } else if (keyword == "detach-gcc") {
      ++i;
      std::size_t sp = arg.find(' ');
      if (sp == std::string::npos) return err("delta: malformed detach-gcc");
      const auto root = digest_from_hex(std::string_view(arg).substr(0, sp));
      if (!root) return err("delta: bad detach-gcc hash");
      auto name = unb64(std::string_view(arg).substr(sp + 1));
      if (!name) return err(name.error());
      delta.detach_gccs.emplace_back(*root, std::move(name).take());
    } else if (keyword == "clear-filter") {
      ++i;
      delta.clear_filter = true;
    } else if (keyword == "set-filter-b64") {
      ++i;
      auto decoded = unb64(arg);
      if (!decoded) return err(decoded.error());
      auto filter =
          revocation::CompressedRevocationSet::deserialize(decoded.value());
      if (!filter) return err("delta: " + filter.error());
      delta.set_filter =
          std::make_shared<const revocation::CompressedRevocationSet>(
              std::move(filter).take());
    } else {
      return err("delta: unknown keyword '" + keyword + "'");
    }
  }
  return delta;
}

}  // namespace anchor::rsf
