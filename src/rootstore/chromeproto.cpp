#include "rootstore/chromeproto.hpp"

#include <cctype>
#include <cstdint>
#include <unordered_set>

#include "util/sha256.hpp"

namespace anchor::rootstore::chromeproto {

const char* to_string(ErrorClass cls) {
  switch (cls) {
    case ErrorClass::kSyntax: return "syntax";
    case ErrorClass::kUnknownField: return "unknown-field";
    case ErrorClass::kDuplicateField: return "duplicate-field";
    case ErrorClass::kBadHex: return "bad-hex";
    case ErrorClass::kOutOfRange: return "out-of-range";
    case ErrorClass::kBadVersion: return "bad-version";
    case ErrorClass::kBadDnsName: return "bad-dns-name";
    case ErrorClass::kBadOid: return "bad-oid";
    case ErrorClass::kEmptyBlock: return "empty-block";
    case ErrorClass::kMissingHash: return "missing-hash";
    case ErrorClass::kDuplicateAnchor: return "duplicate-anchor";
    case ErrorClass::kLimitExceeded: return "limit-exceeded";
  }
  return "unknown";
}

std::string ParseError::to_string() const {
  return std::string(chromeproto::to_string(cls)) + " at " +
         std::to_string(line) + ":" + std::to_string(column) + ": " + message;
}

std::string Version::to_string() const {
  std::string out;
  int count = written > 0 ? written : 1;
  for (int i = 0; i < count; ++i) {
    if (i > 0) out.push_back('.');
    out += std::to_string(parts[static_cast<std::size_t>(i)]);
  }
  return out;
}

std::optional<Version> Version::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  Version v;
  std::size_t i = 0;
  while (true) {
    if (v.written == 4) return std::nullopt;  // too many components
    if (i >= text.size() || !std::isdigit(static_cast<unsigned char>(text[i])))
      return std::nullopt;  // empty component / stray character
    std::uint32_t component = 0;
    while (i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i]))) {
      component = component * 10 + static_cast<std::uint32_t>(text[i] - '0');
      if (component >= 32768) return std::nullopt;
      ++i;
    }
    v.parts[static_cast<std::size_t>(v.written)] =
        static_cast<std::uint16_t>(component);
    ++v.written;
    if (i == text.size()) return v;
    if (text[i] != '.') return std::nullopt;
    ++i;
  }
}

namespace {

// Permitted DNS names are matched byte-for-byte against encoded SAN
// suffixes, so anything that could never match (uppercase, wildcards,
// empty labels) is rejected at ingestion instead of silently constraining
// nothing.
bool valid_dns_name(std::string_view name) {
  if (name.empty() || name.size() > 253) return false;
  if (name.front() == '.' || name.back() == '.') return false;
  bool label_start = true;
  for (char c : name) {
    if (c == '.') {
      if (label_start) return false;  // empty label
      label_start = true;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
    if (!ok) return false;
    label_start = false;
  }
  return !label_start;
}

bool valid_oid(std::string_view text) {
  if (text.empty() || text.front() == '.' || text.back() == '.') return false;
  int components = 1;
  bool digit_seen = false;
  for (char c : text) {
    if (c == '.') {
      if (!digit_seen) return false;
      digit_seen = false;
      ++components;
      continue;
    }
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    digit_seen = true;
  }
  return digit_seen && components >= 2;
}

// ---------------------------------------------------------------------------
// Lexer. Token kinds cover exactly what the schema needs; anything else is
// a syntax error with position.

enum class Tok { kIdent, kString, kInteger, kColon, kLBrace, kRBrace, kEof };

struct Token {
  Tok kind = Tok::kEof;
  std::string text;        // ident / string payload
  std::int64_t number = 0; // integer payload
  int line = 1;
  int column = 1;
};

class Parser {
 public:
  Parser(std::string_view source, const ParseLimits& limits)
      : source_(source), limits_(limits) {}

  ParseResult run() {
    StoreFile store;
    if (source_.size() > limits_.max_bytes) {
      return fail(ErrorClass::kLimitExceeded,
                  "input exceeds " + std::to_string(limits_.max_bytes) +
                      " bytes");
    }
    if (!advance()) return result_;
    while (current_.kind != Tok::kEof) {
      if (current_.kind != Tok::kIdent) {
        return fail(ErrorClass::kSyntax, "expected top-level field name");
      }
      if (current_.text == "trust_anchors") {
        if (store.trust_anchors.size() >= limits_.max_anchors) {
          return fail(ErrorClass::kLimitExceeded, "too many trust_anchors");
        }
        TrustAnchor anchor;
        anchor.line = current_.line;
        if (!advance() || !parse_anchor(anchor)) return result_;
        if (!seen_hashes_.insert(anchor.sha256_hex).second) {
          return fail_at(anchor.line, 1, ErrorClass::kDuplicateAnchor,
                         "duplicate trust_anchors entry for " +
                             anchor.sha256_hex);
        }
        store.trust_anchors.push_back(std::move(anchor));
      } else if (current_.text == "additional_certs") {
        if (store.additional_certs.size() >= limits_.max_anchors) {
          return fail(ErrorClass::kLimitExceeded, "too many additional_certs");
        }
        AdditionalCert cert;
        if (!advance() || !parse_additional(cert)) return result_;
        store.additional_certs.push_back(std::move(cert));
      } else if (current_.text == "version_major") {
        if (store.version_major) {
          return fail(ErrorClass::kDuplicateField, "version_major repeated");
        }
        std::int64_t value = 0;
        if (!advance() || !expect_colon() || !read_integer(value)) {
          return result_;
        }
        store.version_major = value;
      } else {
        return fail(ErrorClass::kUnknownField,
                    "unknown top-level field '" + current_.text + "'");
      }
    }
    result_.store = std::move(store);
    return result_;
  }

 private:
  // --- lexing -----------------------------------------------------------
  bool lex_error(const std::string& message) {
    result_.error = ParseError{ErrorClass::kSyntax, line_, column_, message};
    return false;
  }

  void bump(char c) {
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }

  // Loads the next token into current_; false (with error recorded) on a
  // lexical failure.
  bool advance() {
    while (pos_ < source_.size()) {
      char c = source_[pos_];
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        bump(c);
        continue;
      }
      if (c == '#') {
        while (pos_ < source_.size() && source_[pos_] != '\n') bump(source_[pos_]);
        continue;
      }
      break;
    }
    current_ = Token{};
    current_.line = line_;
    current_.column = column_;
    if (pos_ >= source_.size()) {
      current_.kind = Tok::kEof;
      return true;
    }
    char c = source_[pos_];
    if (c == ':') {
      current_.kind = Tok::kColon;
      bump(c);
      return true;
    }
    if (c == '{') {
      current_.kind = Tok::kLBrace;
      bump(c);
      return true;
    }
    if (c == '}') {
      current_.kind = Tok::kRBrace;
      bump(c);
      return true;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < source_.size() &&
             (std::isalnum(static_cast<unsigned char>(source_[pos_])) ||
              source_[pos_] == '_')) {
        bump(source_[pos_]);
      }
      current_.kind = Tok::kIdent;
      current_.text = std::string(source_.substr(start, pos_ - start));
      return true;
    }
    if (c == '"') {
      bump(c);
      std::string text;
      while (pos_ < source_.size()) {
        char d = source_[pos_];
        if (d == '"') {
          bump(d);
          current_.kind = Tok::kString;
          current_.text = std::move(text);
          return true;
        }
        if (d == '\n') return lex_error("newline in string literal");
        if (d == '\\') {
          bump(d);
          if (pos_ >= source_.size()) break;
          char e = source_[pos_];
          // Only the escapes the deployed files use; anything else is a
          // hole an attacker could hide bytes in.
          if (e == '"' || e == '\\') {
            text.push_back(e);
            bump(e);
            continue;
          }
          return lex_error(std::string("unsupported escape '\\") + e + "'");
        }
        text.push_back(d);
        bump(d);
      }
      return lex_error("unterminated string literal");
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Decimal or 0x hex, non-negative, must fit int64.
      std::uint64_t value = 0;
      bool hex = false;
      if (c == '0' && pos_ + 1 < source_.size() &&
          (source_[pos_ + 1] == 'x' || source_[pos_ + 1] == 'X')) {
        hex = true;
        bump(source_[pos_]);
        bump(source_[pos_]);
        if (pos_ >= source_.size() ||
            !std::isxdigit(static_cast<unsigned char>(source_[pos_]))) {
          return lex_error("malformed hex integer");
        }
      }
      bool any = false;
      while (pos_ < source_.size()) {
        char d = source_[pos_];
        std::uint64_t digit;
        if (std::isdigit(static_cast<unsigned char>(d))) {
          digit = static_cast<std::uint64_t>(d - '0');
        } else if (hex && std::isxdigit(static_cast<unsigned char>(d))) {
          digit = static_cast<std::uint64_t>(
              10 + (std::tolower(static_cast<unsigned char>(d)) - 'a'));
        } else {
          break;
        }
        const std::uint64_t base = hex ? 16 : 10;
        if (value > (static_cast<std::uint64_t>(INT64_MAX) - digit) / base) {
          result_.error = ParseError{ErrorClass::kOutOfRange, line_, column_,
                                     "integer overflows int64"};
          return false;
        }
        value = value * base + digit;
        any = true;
        bump(d);
      }
      if (!any) return lex_error("malformed integer");
      current_.kind = Tok::kInteger;
      current_.number = static_cast<std::int64_t>(value);
      return true;
    }
    if (c == '-') {
      result_.error = ParseError{ErrorClass::kOutOfRange, line_, column_,
                                 "negative values are not part of the schema"};
      return false;
    }
    return lex_error(std::string("unexpected character '") + c + "'");
  }

  // --- error plumbing ---------------------------------------------------
  ParseResult fail(ErrorClass cls, const std::string& message) {
    result_.error =
        ParseError{cls, current_.line, current_.column, message};
    return result_;
  }
  ParseResult fail_at(int line, int column, ErrorClass cls,
                      const std::string& message) {
    result_.error = ParseError{cls, line, column, message};
    return result_;
  }
  // bool-returning variant for use inside parse_* helpers.
  bool reject(ErrorClass cls, const std::string& message) {
    result_.error =
        ParseError{cls, current_.line, current_.column, message};
    return false;
  }

  // --- parsing helpers --------------------------------------------------
  bool expect_colon() {
    if (current_.kind != Tok::kColon) return reject(ErrorClass::kSyntax, "expected ':'");
    return advance();
  }

  // `field: {` and `field {` are both legal textproto for messages.
  bool open_block() {
    if (current_.kind == Tok::kColon && !advance()) return false;
    if (current_.kind != Tok::kLBrace) {
      return reject(ErrorClass::kSyntax, "expected '{'");
    }
    return advance();
  }

  bool read_string(std::string& out) {
    if (current_.kind != Tok::kString) {
      return reject(ErrorClass::kSyntax, "expected quoted string");
    }
    out = current_.text;
    return advance();
  }

  bool read_integer(std::int64_t& out) {
    if (current_.kind != Tok::kInteger) {
      return reject(ErrorClass::kSyntax, "expected integer");
    }
    out = current_.number;
    return advance();
  }

  bool read_bool(bool& out) {
    if (current_.kind != Tok::kIdent ||
        (current_.text != "true" && current_.text != "false")) {
      return reject(ErrorClass::kSyntax, "expected true or false");
    }
    out = current_.text == "true";
    return advance();
  }

  // --- message parsers --------------------------------------------------
  bool parse_anchor(TrustAnchor& anchor) {
    if (!open_block()) return false;
    bool seen_eutl = false;
    while (current_.kind != Tok::kRBrace) {
      if (current_.kind != Tok::kIdent) {
        return reject(ErrorClass::kSyntax, "expected field name");
      }
      const std::string field = current_.text;
      if (field == "sha256_hex") {
        if (!anchor.sha256_hex.empty()) {
          return reject(ErrorClass::kDuplicateField, "sha256_hex repeated");
        }
        std::string hex;
        if (!advance() || !expect_colon() || !read_string(hex)) return false;
        if (!digest_from_hex(hex)) {
          return reject(ErrorClass::kBadHex,
                        "sha256_hex must be 64 lowercase hex chars (got " +
                            std::to_string(hex.size()) + ")");
        }
        anchor.sha256_hex = std::move(hex);
      } else if (field == "ev_policy_oids") {
        if (anchor.ev_policy_oids.size() >= limits_.max_list_entries) {
          return reject(ErrorClass::kLimitExceeded, "too many ev_policy_oids");
        }
        std::string oid;
        if (!advance() || !expect_colon() || !read_string(oid)) return false;
        if (!valid_oid(oid)) {
          return reject(ErrorClass::kBadOid,
                        "ev_policy_oids entry is not a dotted OID: '" + oid +
                            "'");
        }
        anchor.ev_policy_oids.push_back(std::move(oid));
      } else if (field == "eutl") {
        if (seen_eutl) return reject(ErrorClass::kDuplicateField, "eutl repeated");
        seen_eutl = true;
        if (!advance() || !expect_colon() || !read_bool(anchor.eutl)) {
          return false;
        }
      } else if (field == "constraints") {
        if (anchor.constraints.size() >= limits_.max_blocks_per_anchor) {
          return reject(ErrorClass::kLimitExceeded,
                        "too many constraints blocks");
        }
        const int block_line = current_.line;
        ConstraintBlock block;
        if (!advance() || !parse_constraints(block)) return false;
        if (block.empty()) {
          result_.error = ParseError{
              ErrorClass::kEmptyBlock, block_line, 1,
              "empty constraints block would make the anchor unconditionally "
              "trusted via OR semantics"};
          return false;
        }
        anchor.constraints.push_back(std::move(block));
      } else {
        return reject(ErrorClass::kUnknownField,
                      "unknown trust_anchors field '" + field + "'");
      }
    }
    if (anchor.sha256_hex.empty()) {
      return reject(ErrorClass::kMissingHash,
                    "trust_anchors entry without sha256_hex");
    }
    return advance();  // consume '}'
  }

  bool parse_constraints(ConstraintBlock& block) {
    if (!open_block()) return false;
    bool seen_expiry = false;
    bool seen_anchor_constraints = false;
    while (current_.kind != Tok::kRBrace) {
      if (current_.kind != Tok::kIdent) {
        return reject(ErrorClass::kSyntax, "expected field name");
      }
      const std::string field = current_.text;
      if (field == "sct_not_after_sec" || field == "sct_all_after_sec") {
        auto& slot = field == "sct_not_after_sec" ? block.sct_not_after_sec
                                                  : block.sct_all_after_sec;
        if (slot) return reject(ErrorClass::kDuplicateField, field + " repeated");
        std::int64_t value = 0;
        if (!advance() || !expect_colon() || !read_integer(value)) {
          return false;
        }
        slot = value;
      } else if (field == "permitted_dns_names") {
        if (block.permitted_dns_names.size() >= limits_.max_list_entries) {
          return reject(ErrorClass::kLimitExceeded,
                        "too many permitted_dns_names");
        }
        std::string name;
        if (!advance() || !expect_colon() || !read_string(name)) return false;
        if (!valid_dns_name(name)) {
          return reject(ErrorClass::kBadDnsName,
                        "permitted_dns_names entry rejected: '" + name + "'");
        }
        block.permitted_dns_names.push_back(std::move(name));
      } else if (field == "min_version" || field == "max_version_exclusive") {
        auto& slot = field == "min_version" ? block.min_version
                                            : block.max_version_exclusive;
        if (slot) return reject(ErrorClass::kDuplicateField, field + " repeated");
        std::string text;
        if (!advance() || !expect_colon() || !read_string(text)) return false;
        auto version = Version::parse(text);
        if (!version) {
          return reject(ErrorClass::kBadVersion,
                        field + " is not a dotted version: '" + text + "'");
        }
        slot = *version;
      } else if (field == "enforce_anchor_expiry" ||
                 field == "enforce_anchor_constraints") {
        const bool is_expiry = field == "enforce_anchor_expiry";
        bool& seen = is_expiry ? seen_expiry : seen_anchor_constraints;
        if (seen) return reject(ErrorClass::kDuplicateField, field + " repeated");
        seen = true;
        bool value = false;
        if (!advance() || !expect_colon() || !read_bool(value)) return false;
        // `enforce_...: false` is indistinguishable from absence: accepted,
        // contributes nothing.
        (is_expiry ? block.enforce_anchor_expiry
                   : block.enforce_anchor_constraints) = value;
      } else {
        return reject(ErrorClass::kUnknownField,
                      "unknown constraints field '" + field + "'");
      }
    }
    return advance();  // consume '}'
  }

  bool parse_additional(AdditionalCert& cert) {
    if (!open_block()) return false;
    bool seen_eutl = false;
    while (current_.kind != Tok::kRBrace) {
      if (current_.kind != Tok::kIdent) {
        return reject(ErrorClass::kSyntax, "expected field name");
      }
      const std::string field = current_.text;
      if (field == "sha256_hex") {
        if (!cert.sha256_hex.empty()) {
          return reject(ErrorClass::kDuplicateField, "sha256_hex repeated");
        }
        std::string hex;
        if (!advance() || !expect_colon() || !read_string(hex)) return false;
        if (!digest_from_hex(hex)) {
          return reject(ErrorClass::kBadHex,
                        "sha256_hex must be 64 lowercase hex chars");
        }
        cert.sha256_hex = std::move(hex);
      } else if (field == "eutl") {
        if (seen_eutl) return reject(ErrorClass::kDuplicateField, "eutl repeated");
        seen_eutl = true;
        if (!advance() || !expect_colon() || !read_bool(cert.eutl)) {
          return false;
        }
      } else {
        return reject(ErrorClass::kUnknownField,
                      "unknown additional_certs field '" + field + "'");
      }
    }
    if (cert.sha256_hex.empty()) {
      return reject(ErrorClass::kMissingHash,
                    "additional_certs entry without sha256_hex");
    }
    return advance();
  }

  std::string_view source_;
  const ParseLimits& limits_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  Token current_;
  std::unordered_set<std::string> seen_hashes_;
  ParseResult result_;
};

}  // namespace

ParseResult parse_store(std::string_view text, const ParseLimits& limits) {
  return Parser(text, limits).run();
}

}  // namespace anchor::rootstore::chromeproto
