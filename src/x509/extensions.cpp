#include "x509/extensions.hpp"

#include "util/strings.hpp"
#include "x509/oids.hpp"

namespace anchor::x509 {

using asn1::Reader;
using asn1::Writer;

// --- BasicConstraints --------------------------------------------------------

Bytes BasicConstraints::encode() const {
  Writer w;
  w.sequence([&](Writer& seq) {
    if (is_ca) seq.boolean(true);  // DEFAULT FALSE omitted when false
    if (is_ca && path_len.has_value()) seq.integer(*path_len);
  });
  return w.take();
}

Result<BasicConstraints> BasicConstraints::decode(BytesView der) {
  Reader outer(der);
  Reader seq{{}};
  if (Status s = outer.read_sequence(seq); !s) return err(s.error());
  BasicConstraints bc;
  if (seq.peek_tag() == static_cast<std::uint8_t>(asn1::Tag::kBoolean)) {
    if (Status s = seq.read_boolean(bc.is_ca); !s) return err(s.error());
  }
  if (seq.peek_tag() == static_cast<std::uint8_t>(asn1::Tag::kInteger)) {
    std::int64_t len = 0;
    if (Status s = seq.read_integer(len); !s) return err(s.error());
    if (len < 0) return err("basicConstraints: negative pathLen");
    bc.path_len = static_cast<int>(len);
  }
  if (!seq.done()) return err("basicConstraints: trailing data");
  return bc;
}

// --- KeyUsage ----------------------------------------------------------------

Bytes KeyUsage::encode() const {
  // One content byte; bit 0 (digitalSignature) is the MSB in DER named-bit
  // order. We always emit 0 unused bits for simplicity (we control both
  // encoder and decoder; see der.hpp).
  std::uint8_t byte = 0;
  for (int i = 0; i < 7; ++i) {
    if (bits & (1u << i)) byte |= static_cast<std::uint8_t>(0x80 >> i);
  }
  Writer w;
  w.bit_string(BytesView(&byte, 1));
  return w.take();
}

Result<KeyUsage> KeyUsage::decode(BytesView der) {
  Reader r(der);
  Bytes content;
  if (Status s = r.read_bit_string(content); !s) return err(s.error());
  KeyUsage ku;
  if (!content.empty()) {
    for (int i = 0; i < 7; ++i) {
      if (content[0] & (0x80 >> i)) ku.bits |= static_cast<std::uint16_t>(1u << i);
    }
  }
  return ku;
}

std::string_view KeyUsage::bit_name(int bit) {
  static constexpr std::string_view kNames[kNamedBits] = {
      "digitalSignature", "nonRepudiation", "keyEncipherment",
      "dataEncipherment", "keyAgreement",   "keyCertSign",
      "cRLSign"};
  return kNames[bit];
}

std::vector<std::string> KeyUsage::names() const {
  std::vector<std::string> out;
  for (int i = 0; i < kNamedBits; ++i) {
    if (bits & (1u << i)) out.emplace_back(bit_name(i));
  }
  return out;
}

std::optional<KeyUsageBit> KeyUsage::bit_by_name(std::string_view name) {
  if (name == "digitalSignature") return KeyUsageBit::kDigitalSignature;
  if (name == "nonRepudiation") return KeyUsageBit::kNonRepudiation;
  if (name == "keyEncipherment") return KeyUsageBit::kKeyEncipherment;
  if (name == "dataEncipherment") return KeyUsageBit::kDataEncipherment;
  if (name == "keyAgreement") return KeyUsageBit::kKeyAgreement;
  if (name == "keyCertSign") return KeyUsageBit::kKeyCertSign;
  if (name == "cRLSign") return KeyUsageBit::kCrlSign;
  return std::nullopt;
}

// --- ExtendedKeyUsage ---------------------------------------------------------

bool ExtendedKeyUsage::has(const asn1::Oid& purpose) const {
  for (const auto& p : purposes) {
    if (p == purpose) return true;
  }
  return false;
}

Bytes ExtendedKeyUsage::encode() const {
  Writer w;
  w.sequence([&](Writer& seq) {
    for (const auto& p : purposes) seq.oid(p);
  });
  return w.take();
}

Result<ExtendedKeyUsage> ExtendedKeyUsage::decode(BytesView der) {
  Reader outer(der);
  Reader seq{{}};
  if (Status s = outer.read_sequence(seq); !s) return err(s.error());
  ExtendedKeyUsage eku;
  while (!seq.done()) {
    asn1::Oid oid;
    if (Status s = seq.read_oid(oid); !s) return err(s.error());
    eku.purposes.push_back(std::move(oid));
  }
  return eku;
}

std::string_view ExtendedKeyUsage::purpose_name(const asn1::Oid& p) {
  if (p == oids::kp_server_auth()) return "id-kp-serverAuth";
  if (p == oids::kp_client_auth()) return "id-kp-clientAuth";
  if (p == oids::kp_code_signing()) return "id-kp-codeSigning";
  if (p == oids::kp_email_protection()) return "id-kp-emailProtection";
  if (p == oids::kp_ocsp_signing()) return "id-kp-OCSPSigning";
  return {};
}

std::vector<std::string> ExtendedKeyUsage::names() const {
  std::vector<std::string> out;
  for (const auto& p : purposes) {
    const std::string_view name = purpose_name(p);
    if (name.empty()) out.push_back(p.to_string());
    else out.emplace_back(name);
  }
  return out;
}

// --- SubjectAltName -----------------------------------------------------------

namespace {
constexpr unsigned kGeneralNameDns = 2;  // dNSName [2] IA5String
}  // namespace

Bytes SubjectAltName::encode() const {
  Writer w;
  w.sequence([&](Writer& seq) {
    for (const auto& name : dns_names) {
      Bytes b = to_bytes(name);
      seq.context_primitive(kGeneralNameDns, BytesView(b));
    }
  });
  return w.take();
}

Result<SubjectAltName> SubjectAltName::decode(BytesView der) {
  Reader outer(der);
  Reader seq{{}};
  if (Status s = outer.read_sequence(seq); !s) return err(s.error());
  SubjectAltName san;
  while (!seq.done()) {
    asn1::Tlv tlv;
    if (Status s = seq.read_any(tlv); !s) return err(s.error());
    if (tlv.tag == asn1::context_tag(kGeneralNameDns, /*constructed=*/false)) {
      san.dns_names.push_back(to_string(tlv.contents));
    }
    // Other GeneralName forms are skipped (tolerated but not modeled).
  }
  return san;
}

// --- NameConstraints ----------------------------------------------------------

bool NameConstraints::allows(std::string_view host) const {
  for (const auto& excluded : excluded_dns) {
    if (dns_within_constraint(host, excluded)) return false;
  }
  if (permitted_dns.empty()) return true;
  for (const auto& permitted : permitted_dns) {
    if (dns_within_constraint(host, permitted)) return true;
  }
  return false;
}

namespace {
void encode_subtrees(Writer& w, unsigned tag,
                     const std::vector<std::string>& names) {
  w.context(tag, [&](Writer& trees) {
    for (const auto& name : names) {
      trees.sequence([&](Writer& subtree) {
        Bytes b = to_bytes(name);
        subtree.context_primitive(kGeneralNameDns, BytesView(b));
        // minimum DEFAULT 0 / maximum ABSENT: omitted.
      });
    }
  });
}

Status decode_subtrees(Reader& trees, std::vector<std::string>& out) {
  while (!trees.done()) {
    Reader subtree{{}};
    if (Status s = trees.read_sequence(subtree); !s) return s;
    asn1::Tlv tlv;
    if (Status s = subtree.read_any(tlv); !s) return s;
    if (tlv.tag == asn1::context_tag(kGeneralNameDns, /*constructed=*/false)) {
      out.push_back(to_string(tlv.contents));
    }
  }
  return {};
}
}  // namespace

Bytes NameConstraints::encode() const {
  Writer w;
  w.sequence([&](Writer& seq) {
    if (!permitted_dns.empty()) encode_subtrees(seq, 0, permitted_dns);
    if (!excluded_dns.empty()) encode_subtrees(seq, 1, excluded_dns);
  });
  return w.take();
}

Result<NameConstraints> NameConstraints::decode(BytesView der) {
  Reader outer(der);
  Reader seq{{}};
  if (Status s = outer.read_sequence(seq); !s) return err(s.error());
  NameConstraints nc;
  if (seq.peek_tag() == asn1::context_tag(0)) {
    Reader trees{{}};
    if (Status s = seq.read_context(0, trees); !s) return err(s.error());
    if (Status s = decode_subtrees(trees, nc.permitted_dns); !s) return err(s.error());
  }
  if (seq.peek_tag() == asn1::context_tag(1)) {
    Reader trees{{}};
    if (Status s = seq.read_context(1, trees); !s) return err(s.error());
    if (Status s = decode_subtrees(trees, nc.excluded_dns); !s) return err(s.error());
  }
  return nc;
}

// --- CertificatePolicies -------------------------------------------------------

bool CertificatePolicies::has(const asn1::Oid& policy) const {
  for (const auto& p : policies) {
    if (p == policy) return true;
  }
  return false;
}

Bytes CertificatePolicies::encode() const {
  Writer w;
  w.sequence([&](Writer& seq) {
    for (const auto& p : policies) {
      seq.sequence([&](Writer& info) { info.oid(p); });
    }
  });
  return w.take();
}

Result<CertificatePolicies> CertificatePolicies::decode(BytesView der) {
  Reader outer(der);
  Reader seq{{}};
  if (Status s = outer.read_sequence(seq); !s) return err(s.error());
  CertificatePolicies cp;
  while (!seq.done()) {
    Reader info{{}};
    if (Status s = seq.read_sequence(info); !s) return err(s.error());
    asn1::Oid oid;
    if (Status s = info.read_oid(oid); !s) return err(s.error());
    cp.policies.push_back(std::move(oid));
  }
  return cp;
}

// --- Key identifiers ------------------------------------------------------------

Bytes SubjectKeyIdentifier::encode() const {
  Writer w;
  w.octet_string(BytesView(key_id));
  return w.take();
}

Result<SubjectKeyIdentifier> SubjectKeyIdentifier::decode(BytesView der) {
  Reader r(der);
  SubjectKeyIdentifier ski;
  if (Status s = r.read_octet_string(ski.key_id); !s) return err(s.error());
  return ski;
}

Bytes AuthorityKeyIdentifier::encode() const {
  Writer w;
  w.sequence([&](Writer& seq) {
    seq.context_primitive(0, BytesView(key_id));  // keyIdentifier [0] IMPLICIT
  });
  return w.take();
}

Result<AuthorityKeyIdentifier> AuthorityKeyIdentifier::decode(BytesView der) {
  Reader outer(der);
  Reader seq{{}};
  if (Status s = outer.read_sequence(seq); !s) return err(s.error());
  AuthorityKeyIdentifier aki;
  asn1::Tlv tlv;
  if (seq.read_optional(asn1::context_tag(0, /*constructed=*/false), tlv)) {
    aki.key_id.assign(tlv.contents.begin(), tlv.contents.end());
  }
  return aki;
}

}  // namespace anchor::x509
