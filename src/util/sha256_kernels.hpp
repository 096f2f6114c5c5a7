// The SHA-256 block kernels behind `Sha256`. Internal to util: the library
// reaches them only through `Sha256`, which picks one per process; tests
// and benchmarks include this header to run a named kernel directly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/sha256.hpp"

namespace anchor::sha256_kernels {

// FIPS 180-4 compression, one block at a time, in portable C++. Runs on
// every CPU, and is the oracle the hardware kernel is tested against.
void scalar(std::uint32_t* state, const std::uint8_t* blocks,
            std::size_t count);

#if defined(__x86_64__)
// The same compression on the x86 SHA extensions (SHA-NI). Call it only
// where cpu_has_sha_ni() is true.
void sha_ni(std::uint32_t* state, const std::uint8_t* blocks,
            std::size_t count);
#endif

// CPUID leaf 7 EBX bit 29 (SHA), plus SSSE3 and SSE4.1, which the SHA-NI
// kernel's byte shuffles and blends need. Always false off x86-64.
bool cpu_has_sha_ni();

// The kernel `Sha256()` uses: SHA-NI where the CPU has it, else scalar.
// Resolved once per process on first use, so hashing during static
// initialisation is safe.
Sha256::Kernel active();

}  // namespace anchor::sha256_kernels
