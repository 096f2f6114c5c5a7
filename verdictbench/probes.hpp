// Measurement probes that sit outside the library: clocks, process and host
// counters from /proc, the operator-new allocation counter, and the timing
// wrappers the traced run installs on the library's public seams
// (SignatureScheme, revocation::Provider). Untraced runs construct none of
// the wrappers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "revocation/provider.hpp"
#include "util/simsig.hpp"

namespace verdictbench {

std::uint64_t now_ns();           // steady clock
std::uint64_t process_cpu_ns();   // user+sys of every thread in the process
double vm_rss_mb();               // VmRSS from /proc/self/status

// Aggregate CPU time of the host from the first line of /proc/stat, in
// clock ticks. `steal` is time the hypervisor ran someone else while this
// VM wanted the CPU.
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostCpu read_host_cpu();

// Allocation probe: every operator new in the process bumps a process-wide
// counter and a counter of the calling thread.
std::uint64_t allocs_process();
std::uint64_t allocs_thread();

// Attribution slots for the wrapper counters. A thread writes to the slot
// it selected (default kMeasured, which is also what the anchord worker
// threads use); the updater thread and the shadow probes select their own
// so their signature and revocation calls never land on a measured request.
enum Slot : int { kMeasured = 0, kUpdater = 1, kShadow = 2, kSlotCount = 3 };

class ScopedSlot {
 public:
  explicit ScopedSlot(Slot slot);
  ~ScopedSlot();
  ScopedSlot(const ScopedSlot&) = delete;
  ScopedSlot& operator=(const ScopedSlot&) = delete;

 private:
  int previous_;
};

// Calls and nanoseconds recorded by the wrappers in one slot.
struct SeamCounts {
  std::uint64_t sig_calls = 0;
  std::uint64_t sig_ns = 0;
  std::uint64_t rev_calls = 0;
  std::uint64_t rev_ns = 0;
};
SeamCounts seam_counts(Slot slot);
SeamCounts operator-(const SeamCounts& a, const SeamCounts& b);

// Times every signature verification of the wrapped scheme.
class TimedScheme final : public anchor::SignatureScheme {
 public:
  explicit TimedScheme(const anchor::SignatureScheme& inner) : inner_(inner) {}
  bool verify(anchor::BytesView key_id, anchor::BytesView message,
              anchor::BytesView signature) const override;

 private:
  const anchor::SignatureScheme& inner_;
};

// Times every revocation check of the wrapped provider.
class TimedProvider final : public anchor::revocation::Provider {
 public:
  explicit TimedProvider(std::shared_ptr<const anchor::revocation::Provider> inner)
      : inner_(std::move(inner)) {}
  const char* name() const override { return inner_->name(); }
  anchor::revocation::RevocationStatus check(
      const anchor::x509::Certificate& cert,
      anchor::BytesView issuer_spki) const override;

 private:
  std::shared_ptr<const anchor::revocation::Provider> inner_;
};

}  // namespace verdictbench
