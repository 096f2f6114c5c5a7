#include "revocation/crlite.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/base64.hpp"
#include "util/strings.hpp"

namespace anchor::revocation {

namespace {

void put_u64_le(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

// Two independent 64-bit hashes of (salt, level, key) via one SHA-256;
// indices derive by double hashing (h1 + j*h2), the standard Bloom trick.
void hash_pair(std::uint64_t salt, std::uint32_t level, const std::string& key,
               std::uint64_t& h1, std::uint64_t& h2) {
  Bytes material;
  put_u64_le(material, salt);
  put_u64_le(material, level);
  append(material, to_bytes(key));
  Sha256::Digest digest = Sha256::hash(BytesView(material));
  std::memcpy(&h1, digest.data(), 8);
  std::memcpy(&h2, digest.data() + 8, 8);
  if (h2 == 0) h2 = 0x9e3779b97f4a7c15ULL;  // keep the probe sequence moving
}

// Bloom parameters for n keys at false-positive rate p.
void bloom_params(std::size_t n, double p, std::uint32_t& bits,
                  std::uint32_t& hashes) {
  p = std::clamp(p, 1e-6, 0.5);
  const double ln2 = 0.6931471805599453;
  double m = std::ceil(static_cast<double>(n) * -std::log(p) / (ln2 * ln2));
  bits = static_cast<std::uint32_t>(std::max(64.0, m));
  double k = std::round(m / static_cast<double>(n) * ln2);
  hashes = static_cast<std::uint32_t>(std::clamp(k, 1.0, 16.0));
}

}  // namespace

std::string CompressedRevocationSet::key_for(const Sha256::Digest& spki_hash,
                                             BytesView serial) {
  std::string key = to_hex(BytesView(spki_hash.data(), spki_hash.size()));
  key += '|';
  key += to_hex(serial);
  return key;
}

void CompressedRevocationSet::level_insert(Level& level, std::size_t index,
                                           const std::string& key,
                                           std::uint64_t salt) {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
  hash_pair(salt, static_cast<std::uint32_t>(index), key, h1, h2);
  for (std::uint32_t j = 0; j < level.hashes; ++j) {
    std::uint64_t bit = (h1 + static_cast<std::uint64_t>(j) * h2) % level.bits;
    level.data[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

bool CompressedRevocationSet::level_contains(const Level& level,
                                             std::size_t index,
                                             const std::string& key) const {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
  hash_pair(salt_, static_cast<std::uint32_t>(index), key, h1, h2);
  for (std::uint32_t j = 0; j < level.hashes; ++j) {
    std::uint64_t bit = (h1 + static_cast<std::uint64_t>(j) * h2) % level.bits;
    if ((level.data[bit / 8] & (1u << (bit % 8))) == 0) return false;
  }
  return true;
}

void CompressedRevocationSet::Builder::enroll(BytesView issuer_spki) {
  enrolled_.insert(Sha256::hash_hex(issuer_spki));
}

void CompressedRevocationSet::Builder::enroll(const x509::Certificate& issuer) {
  enroll(BytesView(issuer.public_key()));
}

void CompressedRevocationSet::Builder::add_revoked(BytesView issuer_spki,
                                                   BytesView serial) {
  enroll(issuer_spki);
  revoked_.insert(key_for(Sha256::hash(issuer_spki), serial));
}

void CompressedRevocationSet::Builder::add_revoked(
    const x509::Certificate& issuer, const x509::Certificate& subject) {
  add_revoked(BytesView(issuer.public_key()), BytesView(subject.serial()));
}

void CompressedRevocationSet::Builder::add_valid(BytesView issuer_spki,
                                                 BytesView serial) {
  enroll(issuer_spki);
  valid_.insert(key_for(Sha256::hash(issuer_spki), serial));
}

void CompressedRevocationSet::Builder::add_valid(
    const x509::Certificate& issuer, const x509::Certificate& subject) {
  add_valid(BytesView(issuer.public_key()), BytesView(subject.serial()));
}

Result<CompressedRevocationSet> CompressedRevocationSet::Builder::build(
    std::uint64_t salt) const {
  for (const std::string& key : revoked_) {
    if (valid_.contains(key)) {
      return err("crlite: key recorded both revoked and valid: " + key);
    }
  }
  CompressedRevocationSet set;
  set.salt_ = salt;
  set.enrolled_ = enrolled_;

  // Odd levels include the (residual) revoked side, even levels the
  // (residual) valid side. std::set iteration keeps the build order — and
  // therefore the emitted bits — deterministic.
  std::vector<std::string> include(revoked_.begin(), revoked_.end());
  std::vector<std::string> test(valid_.begin(), valid_.end());
  while (!include.empty()) {
    const std::size_t index = set.levels_.size();
    Level level;
    // Level 1 is sized against the real universe ratio; deeper levels
    // shrink geometrically, so target 1/2 there (the classic cascade).
    double p = index == 0 && !test.empty()
                   ? static_cast<double>(include.size()) /
                         (2.0 * static_cast<double>(test.size()))
                   : 0.5;
    bloom_params(include.size(), p, level.bits, level.hashes);
    level.data.assign((level.bits + 7) / 8, 0);
    for (const std::string& key : include) {
      level_insert(level, index, key, salt);
    }
    // False positives of this level become the next level's include set.
    std::vector<std::string> next;
    set.levels_.push_back(std::move(level));
    for (const std::string& key : test) {
      if (set.level_contains(set.levels_.back(), index, key)) {
        next.push_back(key);
      }
    }
    test = std::move(include);
    include = std::move(next);
  }
  return set;
}

bool CompressedRevocationSet::enrolled_digest(
    const Sha256::Digest& spki_hash) const {
  std::array<char, 2 * Sha256::kDigestSize> hex;
  to_hex_into(BytesView(spki_hash), hex.data());
  return enrolled_.contains(std::string_view(hex.data(), hex.size()));
}

bool CompressedRevocationSet::is_enrolled(BytesView issuer_spki) const {
  return enrolled_digest(Sha256::hash(issuer_spki));
}

bool CompressedRevocationSet::contains(BytesView issuer_spki,
                                       BytesView serial) const {
  return cascade_revoked(key_for(Sha256::hash(issuer_spki), serial));
}

bool CompressedRevocationSet::cascade_revoked(const std::string& key) const {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (!level_contains(levels_[i], i, key)) {
      // Absent from an odd (revoked-side) level => not revoked; absent from
      // an even (valid-side) level => revoked.
      return i % 2 == 1;
    }
  }
  // Present in every level: the last level's side wins.
  return levels_.size() % 2 == 1;
}

RevocationStatus CompressedRevocationSet::check(const x509::Certificate& cert,
                                                BytesView issuer_spki) const {
  // One digest of the issuer SPKI serves both lookups.
  const Sha256::Digest spki_hash = Sha256::hash(issuer_spki);
  if (!enrolled_digest(spki_hash)) return RevocationStatus::kUnknown;
  return cascade_revoked(key_for(spki_hash, BytesView(cert.serial())))
             ? RevocationStatus::kRevoked
             : RevocationStatus::kGood;
}

std::size_t CompressedRevocationSet::filter_bytes() const {
  std::size_t total = 0;
  for (const Level& level : levels_) total += level.data.size();
  return total;
}

std::string CompressedRevocationSet::serialize() const {
  std::string out = "anchor-crlite/v1\n";
  out += "salt " + std::to_string(salt_) + "\n";
  for (const std::string& hash : enrolled_) {
    out += "enrolled " + hash + "\n";
  }
  for (const Level& level : levels_) {
    out += "level " + std::to_string(level.bits) + " " +
           std::to_string(level.hashes) + " " +
           base64_encode(BytesView(level.data)) + "\n";
  }
  return out;
}

Result<CompressedRevocationSet> CompressedRevocationSet::deserialize(
    std::string_view text) {
  std::vector<std::string> lines = split(text, '\n');
  if (lines.empty() || lines[0] != "anchor-crlite/v1") {
    return err("crlite: bad magic");
  }
  auto parse_u64 = [](const std::string& s, std::uint64_t& out) {
    if (s.empty() || s.size() > 20) return false;
    std::uint64_t v = 0;
    for (char c : s) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = v;
    return true;
  };
  CompressedRevocationSet set;
  bool saw_salt = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (trim(lines[i]).empty()) continue;
    std::vector<std::string> fields = split(lines[i], ' ');
    if (fields.size() == 2 && fields[0] == "salt") {
      std::uint64_t value = 0;
      if (!parse_u64(fields[1], value)) return err("crlite: bad salt");
      set.salt_ = value;
      saw_salt = true;
    } else if (fields.size() == 2 && fields[0] == "enrolled") {
      if (!digest_from_hex(fields[1])) return err("crlite: bad enrolled hash");
      set.enrolled_.insert(fields[1]);
    } else if (fields.size() == 4 && fields[0] == "level") {
      Level level;
      std::uint64_t bits = 0;
      std::uint64_t hashes = 0;
      if (!parse_u64(fields[1], bits) || !parse_u64(fields[2], hashes) ||
          bits == 0 || bits > 0xffffffffULL || hashes == 0 || hashes > 64) {
        return err("crlite: bad level parameters");
      }
      level.bits = static_cast<std::uint32_t>(bits);
      level.hashes = static_cast<std::uint32_t>(hashes);
      if (!base64_decode(fields[3], level.data)) {
        return err("crlite: bad level payload");
      }
      if (level.data.size() != (level.bits + 7) / 8) {
        return err("crlite: level payload size mismatch");
      }
      set.levels_.push_back(std::move(level));
    } else {
      return err("crlite: unknown line: " + lines[i]);
    }
  }
  if (!saw_salt) return err("crlite: missing salt");
  return set;
}

bool CompressedRevocationSet::operator==(
    const CompressedRevocationSet& other) const {
  if (salt_ != other.salt_ || enrolled_ != other.enrolled_ ||
      levels_.size() != other.levels_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].bits != other.levels_[i].bits ||
        levels_[i].hashes != other.levels_[i].hashes ||
        levels_[i].data != other.levels_[i].data) {
      return false;
    }
  }
  return true;
}

}  // namespace anchor::revocation
