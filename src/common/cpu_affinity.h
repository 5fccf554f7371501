#ifndef STREAMQ_COMMON_CPU_AFFINITY_H_
#define STREAMQ_COMMON_CPU_AFFINITY_H_

#include "common/status.h"

namespace streamq {

/// Whether thread→core pinning is implemented on this platform (Linux with
/// pthreads). Callers use this to report, not to gate: PinCurrentThreadToCore
/// degrades to a no-op Status elsewhere.
bool CpuPinningSupported();

/// Number of logical cores visible to the process; always >= 1 (falls back
/// to 1 when the runtime cannot tell).
int LogicalCoreCount();

/// Pins the calling thread to logical core `core % LogicalCoreCount()`.
/// Returns Unimplemented where unsupported and Internal when the kernel
/// rejects the mask (e.g. a cgroup cpuset excludes the core). Pinning is a
/// placement *hint* for the runners: failures are recorded, never fatal.
Status PinCurrentThreadToCore(int core);

}  // namespace streamq

#endif  // STREAMQ_COMMON_CPU_AFFINITY_H_
