#include "common/cpu_affinity.h"

#include <string>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace streamq {

bool CpuPinningSupported() {
#if defined(__linux__)
  return true;
#else
  return false;
#endif
}

int LogicalCoreCount() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

Status PinCurrentThreadToCore(int core) {
#if defined(__linux__)
  if (core < 0) return Status::InvalidArgument("negative core index");
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(core % LogicalCoreCount()), &set);
  const int rc = pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  if (rc != 0) {
    return Status::Internal("pthread_setaffinity_np failed, errno=" +
                            std::to_string(rc));
  }
  return Status::OK();
#else
  (void)core;
  return Status::Unimplemented("cpu pinning not supported on this platform");
#endif
}

}  // namespace streamq
