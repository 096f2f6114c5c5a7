#include "probes.hpp"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

// Allocation probe (same pattern as bench_chain's g_alloc_calls), plus a
// per-thread counter so shadow probes can count their own allocations
// while other threads run.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace verdictbench {

namespace {

struct SlotCounters {
  std::atomic<std::uint64_t> sig_calls{0};
  std::atomic<std::uint64_t> sig_ns{0};
  std::atomic<std::uint64_t> rev_calls{0};
  std::atomic<std::uint64_t> rev_ns{0};
};
SlotCounters g_slots[kSlotCount];
thread_local int t_slot = kMeasured;

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double vm_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

HostCpu read_host_cpu() {
  HostCpu out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  unsigned long long v[10] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7], &v[8], &v[9]);
  std::fclose(f);
  if (n < 8) return out;
  // guest time is already counted in user/nice.
  for (int i = 0; i < 8; ++i) out.total += v[i];
  out.steal = v[7];
  return out;
}

std::uint64_t allocs_process() {
  return g_allocs.load(std::memory_order_relaxed);
}
std::uint64_t allocs_thread() { return t_allocs; }

ScopedSlot::ScopedSlot(Slot slot) : previous_(t_slot) { t_slot = slot; }
ScopedSlot::~ScopedSlot() { t_slot = previous_; }

SeamCounts seam_counts(Slot slot) {
  const SlotCounters& c = g_slots[slot];
  return SeamCounts{c.sig_calls.load(std::memory_order_relaxed),
                    c.sig_ns.load(std::memory_order_relaxed),
                    c.rev_calls.load(std::memory_order_relaxed),
                    c.rev_ns.load(std::memory_order_relaxed)};
}

SeamCounts operator-(const SeamCounts& a, const SeamCounts& b) {
  return SeamCounts{a.sig_calls - b.sig_calls, a.sig_ns - b.sig_ns,
                    a.rev_calls - b.rev_calls, a.rev_ns - b.rev_ns};
}

bool TimedScheme::verify(anchor::BytesView key_id, anchor::BytesView message,
                         anchor::BytesView signature) const {
  const std::uint64_t start = now_ns();
  const bool ok = inner_.verify(key_id, message, signature);
  SlotCounters& c = g_slots[t_slot];
  c.sig_ns.fetch_add(now_ns() - start, std::memory_order_relaxed);
  c.sig_calls.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

anchor::revocation::RevocationStatus TimedProvider::check(
    const anchor::x509::Certificate& cert, anchor::BytesView issuer_spki) const {
  const std::uint64_t start = now_ns();
  const auto status = inner_->check(cert, issuer_spki);
  SlotCounters& c = g_slots[t_slot];
  c.rev_ns.fetch_add(now_ns() - start, std::memory_order_relaxed);
  c.rev_calls.fetch_add(1, std::memory_order_relaxed);
  return status;
}

}  // namespace verdictbench
