// Host stamp and process-memory probes. Every report names the machine,
// the compiler and flags, nproc and a calibrated effective-parallelism
// figure, so a reader can tell a same-machine comparison from a
// cross-machine one.
#ifndef LAYERBENCH_HOST_H_
#define LAYERBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace layerbench {

struct HostStamp {
  std::string hostname;
  std::string compiler;
  std::string build_flags;
  unsigned nproc = 1;
  /// nproc threads spinning on the same fixed work as one thread:
  /// nproc * t(1 thread) / t(nproc threads). nproc on a host that really
  /// runs the threads in parallel, about 1 on a host that time-slices them.
  double effective_parallelism = 1.0;
  uint64_t seed = 0;

  std::string ToJson() const;
};

/// Fills the stamp; the calibration spins for about a quarter second.
HostStamp StampHost(uint64_t seed);

/// Peak resident set (VmHWM) and current resident set (VmRSS), in MB.
double PeakRssMb();
double CurrentRssMb();

/// Returns freed heap to the OS and restarts the peak-RSS high-water mark
/// at the current RSS, so a later PeakRssMb() covers only what runs after
/// this call. Returns false when the kernel refuses the reset.
bool ResetPeakRss();

}  // namespace layerbench

#endif  // LAYERBENCH_HOST_H_
