// Unified error taxonomy for every verification surface (DESIGN.md
// "anchord wire protocol & unified verb schema"). Before this enum the
// library reported failures as free-form strings (compared by substring
// in tests), as bare Booleans, or, on the wire, not at all. Every
// verdict-producing path — VerifyResult, the anchord VerifyResponse,
// anchorctl exit codes — now carries one ErrorKind; the human-readable
// detail string survives as a diagnostic, never as the thing a caller
// branches on.
#pragma once

#include <cstdint>
#include <string>

namespace anchor::chain {

enum class ErrorKind : std::uint8_t {
  kOk = 0,
  kMalformedRequest = 1,     // unparseable DER, frame, or request payload
  kExpired = 2,              // leaf or issuer outside its validity window
  kHostnameMismatch = 3,     // TLS leaf does not cover the requested host
  kUsageViolation = 4,       // EKU mismatch, EV demanded, distrust-after cutoff
  kConstraintViolation = 5,  // CA bit, keyCertSign, pathLen, name constraints
  kBadSignature = 6,
  kRevoked = 7,              // CRLSet / OneCRL hit
  kGccDenied = 8,            // a GCC evaluated the chain to deny
  kNoPath = 9,               // no candidate path reached a trusted root
  kOverloaded = 10,          // serving layer: in-flight bound hit, fail-closed
  kTimeout = 11,             // serving layer: request expired before execution
  kUnavailable = 12,         // verb target not configured (e.g. no feed)
  kInternal = 13,
  // Appended (stable wire numbering): the path crosses a logical CA with an
  // explicitly distrusted certificate — the cross-sign bane case.
  kDistrusted = 14,
};

inline constexpr std::size_t kErrorKindCount = 15;

const char* to_string(ErrorKind kind);

// Parses the stable token to_string() emits (wire debugging, anchorctl
// round trips); returns false on an unknown token.
bool error_kind_from_string(const std::string& token, ErrorKind& kind);

// Process exit code for anchorctl verbs: 0 for kOk, otherwise a stable
// small integer (the enum value) so scripts can branch on the taxonomy
// instead of scraping stderr.
int exit_code(ErrorKind kind);

// A classified rejection: the kind a caller branches on plus the
// diagnostic a human reads. The verifier's internal checks return these so
// VerifyResult and the wire response inherit the same classification.
struct Fault {
  ErrorKind kind = ErrorKind::kInternal;
  std::string detail;
};

}  // namespace anchor::chain
