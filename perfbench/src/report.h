#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports: its metrics, and every operation it attempted
/// with the ones that failed (runs with a non-OK status, error replies,
/// transport errors, failed output checks).
class Outcome {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  /// One output check: counts as an attempted operation, and as a failed
  /// one unless `ok`. Prints the verdict.
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) ++failed_;
    std::printf("check %-6s %s\n", ok ? "ok" : "FAILED", what.c_str());
    return ok;
  }

  /// Operations counted in bulk (production runs, RPCs), with one printed
  /// verdict for the lot.
  bool CheckMany(int64_t attempted, int64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    std::printf("check %-6s %s (%lld of %lld failed)\n",
                failed == 0 ? "ok" : "FAILED", what.c_str(),
                static_cast<long long>(failed),
                static_cast<long long>(attempted));
    return failed == 0;
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  std::vector<Metric> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// The workloads (inproc.cc, service.cc).
void RunAqBurst(const RunArgs& args, Outcome* out);
void RunKeyedMedian(const RunArgs& args, Outcome* out);
void RunSpecAmend(const RunArgs& args, Outcome* out);
void RunService(const RunArgs& args, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
