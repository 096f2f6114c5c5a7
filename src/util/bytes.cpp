#include "util/bytes.hpp"

namespace anchor {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string to_hex(BytesView data) {
  std::string out(data.size() * 2, '\0');
  to_hex_into(data, out.data());
  return out;
}

void to_hex_into(BytesView data, char* out) {
  for (std::uint8_t byte : data) {
    *out++ = kHexDigits[byte >> 4];
    *out++ = kHexDigits[byte & 0x0f];
  }
}

bool from_hex(std::string_view hex, Bytes& out) {
  if (hex.size() % 2 != 0) return false;
  Bytes parsed;
  parsed.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int hi = hex_value(hex[i]);
    int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    parsed.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  out = std::move(parsed);
  return true;
}

bool ct_equal(BytesView a, BytesView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(BytesView b) {
  return std::string(b.begin(), b.end());
}

}  // namespace anchor
