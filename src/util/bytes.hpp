// libanchor: byte-buffer primitives shared by every module.
//
// `Bytes` is the canonical owning buffer for DER blobs, hashes, keys and
// feed payloads. Helpers here are deliberately tiny: hex round-tripping,
// constant-time comparison for tag/hash checks, and concatenation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace anchor {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

// Lowercase hex encoding, e.g. {0xde,0xad} -> "dead".
std::string to_hex(BytesView data);
// The same digits written to `out` (2 * data.size() chars), no allocation.
void to_hex_into(BytesView data, char* out);

// Parses lowercase/uppercase hex. Returns false on odd length or non-hex
// characters; `out` is untouched on failure.
bool from_hex(std::string_view hex, Bytes& out);

// Constant-time equality, for comparing MAC-like signature tags.
bool ct_equal(BytesView a, BytesView b);

// Appends `src` to `dst`.
void append(Bytes& dst, BytesView src);

// Bytes of a UTF-8/ASCII string, and back.
Bytes to_bytes(std::string_view s);
std::string to_string(BytesView b);

}  // namespace anchor
