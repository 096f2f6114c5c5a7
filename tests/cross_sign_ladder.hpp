// A cross-signed ladder with no trusted root on top, the adversarial
// topology from The Boon and Bane of Cross-Signing (PAPERS.md): `levels`
// levels of `width` CAs, where the CAs of one level share a subject DN and
// each holds one certificate from every CA of the level above. The top
// level is self-signed and trusted by no store. Every signature is real,
// so a search that bounds only its root-terminating candidates walks on
// the order of width^levels links before it can answer "no path".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/simsig.hpp"
#include "util/time.hpp"
#include "x509/builder.hpp"
#include "x509/oids.hpp"

namespace anchor {

struct CrossSignLadder {
  static constexpr std::int64_t kNow = 1700000000;
  static constexpr const char* kHost = "ladder.example.com";
  x509::CertPtr leaf;
  std::vector<x509::CertPtr> cas;  // every CA certificate, bottom level first
};

// Registers every ladder key with `signatures`.
inline CrossSignLadder make_cross_sign_ladder(SimSig& signatures, int levels,
                                              int width) {
  auto level_dn = [](int level) {
    return x509::DistinguishedName::make(
        "Ladder Level " + std::to_string(level), "T");
  };
  // keys[level - 1][i]: CA i of level `level` (1 = bottom).
  std::vector<std::vector<SimKeyPair>> keys(levels);
  for (int level = 1; level <= levels; ++level) {
    for (int i = 0; i < width; ++i) {
      keys[level - 1].push_back(SimSig::keygen(
          "ladder-" + std::to_string(level) + "-" + std::to_string(i)));
      signatures.register_key(keys[level - 1].back());
    }
  }

  CrossSignLadder ladder;
  std::uint64_t serial = 1;
  auto ca_cert = [&](int level, int i, int issuer_level,
                     const SimKeyPair& issuer_key) {
    return x509::CertificateBuilder()
        .serial(serial++)
        .subject(level_dn(level))
        .issuer(level_dn(issuer_level))
        .validity(0, unix_date(2040, 1, 1))
        .public_key(keys[level - 1][i].key_id)
        .ca(std::nullopt)
        .sign(issuer_key)
        .take();
  };
  for (int level = 1; level < levels; ++level) {
    for (int i = 0; i < width; ++i) {
      for (const SimKeyPair& issuer_key : keys[level]) {
        ladder.cas.push_back(ca_cert(level, i, level + 1, issuer_key));
      }
    }
  }
  for (int i = 0; i < width; ++i) {
    ladder.cas.push_back(ca_cert(levels, i, levels, keys[levels - 1][i]));
  }

  SimKeyPair leaf_key = SimSig::keygen("ladder-leaf");
  ladder.leaf = x509::CertificateBuilder()
                    .serial(serial++)
                    .subject(x509::DistinguishedName::make(
                        CrossSignLadder::kHost))
                    .issuer(level_dn(1))
                    .validity(CrossSignLadder::kNow - 86400,
                              CrossSignLadder::kNow + 86400)
                    .public_key(leaf_key.key_id)
                    .dns_names({CrossSignLadder::kHost})
                    .extended_key_usage({x509::oids::kp_server_auth()})
                    .sign(keys[0][0])
                    .take();
  return ladder;
}

}  // namespace anchor
