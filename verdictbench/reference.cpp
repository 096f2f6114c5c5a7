#include "reference.hpp"

#include <time.h>

#include <algorithm>
#include <string>
#include <unordered_map>

#include "probes.hpp"
#include "stats.hpp"

namespace verdictbench {

namespace {

// A pass takes about 2% of the measuring thread's time.
constexpr std::uint64_t kSampleEveryNs = 2'000'000;

volatile std::uint64_t g_reference_sink = 0;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// The SHA-256 compression function (FIPS 180-4), the benchmark's own copy:
// the library's hashing is what the reference must not depend on.
void compress(std::uint32_t state[8], const std::uint8_t block[64]) {
  static constexpr std::uint32_t k[64] = {
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
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
           static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(block[4 * i + 2]) << 8 | block[4 * i + 3];
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                             ((e & f) ^ (~e & g)) + k[i] + w[i];
    const std::uint32_t t2 =
        (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
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

// A small mix of what a verify does, in roughly equal parts of time: a
// byte-serial hash over a buffer the size of a few certificates (DER
// parsing), SHA-256 over the same buffer (signatures, fingerprints), and
// short string keys in a hash map with their allocations, then sorted
// (fact encoding, Datalog, canonical ordering).
std::uint64_t reference_pass() {
  static const std::vector<std::uint8_t> buffer = [] {
    std::vector<std::uint8_t> b(4096);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (auto& byte : b) byte = static_cast<std::uint8_t>(x = mix(x + 1));
    return b;
  }();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t byte : buffer) h = (h ^ byte) * 0x100000001b3ULL;
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (std::size_t at = 0; at + 64 <= buffer.size(); at += 64) {
    compress(state, buffer.data() + at);
  }
  h ^= state[0];
  std::unordered_map<std::string, std::uint64_t> facts;
  std::vector<std::string> keys;
  keys.reserve(64);
  for (std::uint64_t i = 0; i < 64; ++i) {
    std::string key = "fact(" + std::to_string(mix(h + i) % 100000) + ",c" +
                      std::to_string(i) + ")";
    facts.emplace(key, i);
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  for (const std::string& key : keys) h += facts.at(key) + key.size();
  return h;
}

}  // namespace

void ReferenceClock::sample() {
  const std::uint64_t cpu0 = thread_cpu_ns();
  const std::uint64_t t0 = now_ns();
  g_reference_sink = reference_pass();
  last_ns_ = now_ns();
  cpu_ns_ += thread_cpu_ns() - cpu0;
  wall_us_.push_back(static_cast<double>(last_ns_ - t0) / 1e3);
}

void ReferenceClock::tick(std::uint64_t now) {
  if (now - last_ns_ >= kSampleEveryNs) sample();
}

double ReferenceClock::median_us(std::size_t from) {
  if (from >= wall_us_.size()) sample();
  return median(std::vector<double>(wall_us_.begin() + static_cast<std::ptrdiff_t>(from),
                                    wall_us_.end()));
}

}  // namespace verdictbench
