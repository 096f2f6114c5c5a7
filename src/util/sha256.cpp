#include "util/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "util/sha256_kernels.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace anchor {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace sha256_kernels {

void scalar(std::uint32_t* state, const std::uint8_t* blocks,
            std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    std::array<std::uint32_t, 64> w;
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(blocks[4 * i]) << 24 |
             static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

// SHA-NI keeps the state as two vectors, ABEF and CDGH (high lane first);
// each sha256rnds2 runs two rounds, taking W[i] + K[i] from the low 64
// bits of its third operand. The message schedule for rounds 16..63 comes
// from sha256msg1/msg2, four words at a time, in a ring of four vectors.
__attribute__((target("sha,sse4.1,ssse3"))) void sha_ni(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t count) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      // w[i % 4] becomes W[4i .. 4i+3].
      if (i < 4) {
        w[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(blocks + 16 * i)),
            byte_swap);
      } else {
        const __m128i& prev = w[(i + 3) % 4];
        __m128i next = _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]);
        next = _mm_add_epi32(next, _mm_alignr_epi8(prev, w[(i + 2) % 4], 4));
        w[i % 4] = _mm_sha256msg2_epu32(next, prev);
      }
      __m128i wk = _mm_add_epi32(
          w[i % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        kRoundConstants.data() + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if ((ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & bit_SHA) != 0;
}

#else

bool cpu_has_sha_ni() { return false; }

#endif

Sha256::Kernel active() {
  static const Sha256::Kernel kernel = [] {
#if defined(__x86_64__)
    if (cpu_has_sha_ni()) return &sha_ni;
#endif
    return &scalar;
  }();
  return kernel;
}

}  // namespace sha256_kernels

Sha256::Sha256() : Sha256(sha256_kernels::active()) {}

Sha256::Sha256(Kernel kernel)
    : kernel_(kernel), state_(kInitialState), buffer_{} {}

void Sha256::update(BytesView data) {
  // An empty span may carry a null data(), which memcpy must never see.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == buffer_.size()) {
      kernel_(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t blocks = (data.size() - offset) / 64; blocks > 0) {
    kernel_(state_.data(), data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Sha256::Digest Sha256::finish() {
  // 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit length:
  // 9 to 72 bytes, fed as one update.
  const std::uint64_t bit_len = total_len_ * 8;
  std::array<std::uint8_t, 72> padding{};
  const std::size_t zeros = (buffer_len_ < 56 ? 55 : 119) - buffer_len_;
  padding[0] = 0x80;
  for (int i = 0; i < 8; ++i) {
    padding[1 + zeros + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(BytesView(padding.data(), 1 + zeros + 8));

  Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha256::Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Bytes Sha256::hash_bytes(BytesView data) {
  Digest d = hash(data);
  return Bytes(d.begin(), d.end());
}

std::string Sha256::hash_hex(BytesView data) {
  Digest d = hash(data);
  return to_hex(BytesView(d.data(), d.size()));
}

std::optional<Sha256::Digest> digest_from_hex(std::string_view hex) {
  if (hex.size() != 2 * Sha256::kDigestSize) return std::nullopt;
  const auto nibble = [](char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  Sha256::Digest out{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int hi = nibble(hex[2 * i]);
    const int lo = nibble(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out[i] = static_cast<std::uint8_t>(hi << 4 | lo);
  }
  return out;
}

}  // namespace anchor
