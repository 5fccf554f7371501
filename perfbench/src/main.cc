// streamq benchmark: runs one named workload from a seed, checks its outputs,
// and prints every metric by name with its unit. The last stdout line is the
// JSON result; the exit code is non-zero when any operation or check failed.
//
//   perfbench --workload <aq-burst|keyed-median|spec-amend|service>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--source-id <text>]

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "report.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Outcome;
using perfbench::RunArgs;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<aq-burst|keyed-median|spec-amend|service> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--source-id <text>]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, RunArgs* args, std::string* source_id) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--source-id") {
      *source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

void PrintFingerprint(const RunArgs& args, const std::string& source_id) {
  std::printf(
      "fingerprint nproc=%ld hardware_concurrency=%u compiler=\"%s\" "
      "build_type=%s source=%s workload=%s seed=%llu seconds=%g trace=%d\n",
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      __VERSION__, PERFBENCH_BUILD_TYPE, source_id.c_str(),
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0);
}

void PrintResult(const Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted());
  json += ", \"failed\": " + std::to_string(out.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : out.metrics()) {
    // A non-finite value already failed its check; keep the line valid JSON.
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  for (const perfbench::Metric& m : out.metrics()) {
    std::printf("metric  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string source_id = "unknown";
  if (!ParseArgs(argc, argv, &args, &source_id)) {
    return Usage("bad or missing arguments");
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  PrintFingerprint(args, source_id);

  Outcome out;
  if (args.workload == "aq-burst") {
    perfbench::RunAqBurst(args, &out);
  } else if (args.workload == "keyed-median") {
    perfbench::RunKeyedMedian(args, &out);
  } else if (args.workload == "spec-amend") {
    perfbench::RunSpecAmend(args, &out);
  } else if (args.workload == "service") {
    perfbench::RunService(args, &out);
  } else {
    return Usage("unknown workload");
  }

  bool finite = true;
  for (const perfbench::Metric& m : out.metrics()) {
    finite = finite && std::isfinite(m.value);
  }
  out.Check(finite, "every metric is a finite number");
  std::printf("failed_frac %.6g (%lld of %lld operations)\n",
              static_cast<double>(out.failed()) /
                  static_cast<double>(out.attempted()),
              static_cast<long long>(out.failed()),
              static_cast<long long>(out.attempted()));
  PrintResult(out);
  return out.failed() == 0 ? 0 : 1;
}
