// Host-speed reference. On a shared VM the speed of a vCPU moves with what
// other tenants run on the same host: a verify took 35 us in one minute and
// 75 us a few minutes later on the same 4-vCPU VM, with no change in steal
// time. The reference is a fixed piece of work, compiled into the benchmark
// and independent of the library, that is timed on the measuring thread
// between the measured operations. Each measured time is scaled by
// kNominalUs / (the reference's median time over the same stretch of the
// run), which turns it into the time the operation takes on a host where
// one reference pass takes kNominalUs: a host slowdown stretches both and
// cancels, a change in the program moves only the measured time.
#pragma once

#include <cstdint>
#include <vector>

namespace verdictbench {

// About one pass of the reference on a quiet host of the kind the bounds were
// set on (4-vCPU KVM guest, Xeon, RelWithDebInfo build).
constexpr double kNominalUs = 40.0;

// Reference passes taken on one thread, interleaved with measured work.
class ReferenceClock {
 public:
  // One pass now.
  void sample();
  // One pass when at least kSampleEveryNs have passed since the last.
  void tick(std::uint64_t now_ns);

  std::size_t size() const { return wall_us_.size(); }
  // Median pass time of samples [from, size()); takes one more pass first
  // when there is none in the range.
  double median_us(std::size_t from);
  // The factor that scales a time measured over samples [from, size()).
  double scale(std::size_t from) { return kNominalUs / median_us(from); }
  // CPU time of the calling thread spent in passes so far.
  std::uint64_t cpu_ns() const { return cpu_ns_; }

 private:
  std::vector<double> wall_us_;
  std::uint64_t last_ns_ = 0;
  std::uint64_t cpu_ns_ = 0;
};

}  // namespace verdictbench
