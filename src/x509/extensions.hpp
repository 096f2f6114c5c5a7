// Typed X.509 v3 extensions and their DER encodings. Each struct encodes to
// and decodes from the *extnValue* contents (the DER inside the OCTET
// STRING), per RFC 5280 §4.2.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asn1/der.hpp"
#include "asn1/oid.hpp"
#include "util/result.hpp"

namespace anchor::x509 {

// Raw extension as it appears in the certificate.
struct Extension {
  asn1::Oid oid;
  bool critical = false;
  Bytes value;  // DER contents of the extnValue OCTET STRING

  bool operator==(const Extension&) const = default;
};

// --- BasicConstraints (2.5.29.19) ------------------------------------------
struct BasicConstraints {
  bool is_ca = false;
  std::optional<int> path_len;  // only meaningful when is_ca

  Bytes encode() const;
  static Result<BasicConstraints> decode(BytesView der);
};

// --- KeyUsage (2.5.29.15) ---------------------------------------------------
// Named-bit flags. Values match RFC 5280 bit positions.
enum class KeyUsageBit : std::uint16_t {
  kDigitalSignature = 1 << 0,
  kNonRepudiation = 1 << 1,
  kKeyEncipherment = 1 << 2,
  kDataEncipherment = 1 << 3,
  kKeyAgreement = 1 << 4,
  kKeyCertSign = 1 << 5,
  kCrlSign = 1 << 6,
};

struct KeyUsage {
  std::uint16_t bits = 0;

  void set(KeyUsageBit bit) { bits |= static_cast<std::uint16_t>(bit); }
  bool has(KeyUsageBit bit) const {
    return (bits & static_cast<std::uint16_t>(bit)) != 0;
  }

  Bytes encode() const;
  static Result<KeyUsage> decode(BytesView der);

  // Canonical names as used in Datalog facts ("digitalSignature", ...).
  std::vector<std::string> names() const;
  // The named bits are positions 0..kNamedBits-1; bit_name(i) is the
  // canonical name of position i.
  static constexpr int kNamedBits = 7;
  static std::string_view bit_name(int bit);
  static std::optional<KeyUsageBit> bit_by_name(std::string_view name);
};

// --- ExtendedKeyUsage (2.5.29.37) -------------------------------------------
struct ExtendedKeyUsage {
  std::vector<asn1::Oid> purposes;

  bool has(const asn1::Oid& purpose) const;

  Bytes encode() const;
  static Result<ExtendedKeyUsage> decode(BytesView der);

  // Canonical names for Datalog facts ("id-kp-serverAuth", ...); unknown
  // purposes render as dotted OIDs.
  std::vector<std::string> names() const;
  // The canonical name of a known purpose; empty for an unknown one.
  static std::string_view purpose_name(const asn1::Oid& purpose);
};

// --- SubjectAltName (2.5.29.17) ---------------------------------------------
// dNSName entries only: the corpus and the paper's constraints are DNS-based.
struct SubjectAltName {
  std::vector<std::string> dns_names;

  Bytes encode() const;
  static Result<SubjectAltName> decode(BytesView der);
};

// --- NameConstraints (2.5.29.30) --------------------------------------------
struct NameConstraints {
  std::vector<std::string> permitted_dns;
  std::vector<std::string> excluded_dns;

  bool empty() const { return permitted_dns.empty() && excluded_dns.empty(); }

  // True iff `host` satisfies the constraint set (inside some permitted
  // subtree if any are given, and inside no excluded subtree).
  bool allows(std::string_view host) const;

  Bytes encode() const;
  static Result<NameConstraints> decode(BytesView der);
};

// --- CertificatePolicies (2.5.29.32) ----------------------------------------
struct CertificatePolicies {
  std::vector<asn1::Oid> policies;

  bool has(const asn1::Oid& policy) const;

  Bytes encode() const;
  static Result<CertificatePolicies> decode(BytesView der);
};

// --- Subject / Authority key identifiers ------------------------------------
struct SubjectKeyIdentifier {
  Bytes key_id;

  Bytes encode() const;
  static Result<SubjectKeyIdentifier> decode(BytesView der);
};

struct AuthorityKeyIdentifier {
  Bytes key_id;

  Bytes encode() const;
  static Result<AuthorityKeyIdentifier> decode(BytesView der);
};

}  // namespace anchor::x509
