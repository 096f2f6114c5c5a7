// X.501 distinguished names, restricted to the attribute types the corpus
// uses (CN, O, OU, C). Each RDN holds exactly one attribute, which matches
// the overwhelming majority of real Web-PKI names.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "asn1/der.hpp"
#include "asn1/oid.hpp"
#include "util/result.hpp"

namespace anchor::x509 {

struct NameAttribute {
  asn1::Oid type;
  std::string value;

  bool operator==(const NameAttribute&) const = default;
};

class DistinguishedName {
 public:
  DistinguishedName() = default;

  static DistinguishedName make(std::string common_name,
                                std::string organization = "",
                                std::string country = "");

  DistinguishedName& add(const asn1::Oid& type, std::string value);

  const std::vector<NameAttribute>& attributes() const { return attrs_; }
  bool empty() const { return attrs_.empty(); }

  // First CN attribute, or "" if none.
  std::string common_name() const;
  std::string organization() const;

  // RFC 4514-flavoured single-line rendering, e.g. "CN=Example Root, O=Example".
  std::string to_string() const;

  void encode(asn1::Writer& writer) const;
  static Status decode(asn1::Reader& reader, DistinguishedName& out);

  bool operator==(const DistinguishedName&) const = default;

 private:
  std::vector<NameAttribute> attrs_;
};

// Hash functor for DN-keyed maps, consistent with operator== (equal names
// hash equal; attribute types are left to the equality check).
struct DistinguishedNameHash {
  std::size_t operator()(const DistinguishedName& name) const noexcept {
    std::size_t h = name.attributes().size();
    for (const NameAttribute& attr : name.attributes()) {
      h ^= std::hash<std::string>{}(attr.value) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
    }
    return h;
  }
};

}  // namespace anchor::x509
