// ssibench: one workload of the single-client SSI benchmark per process.
//
//   ssibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --work-dir <dir> [--trace-out <file>]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this binary and keeps the metrics BENCHMARK.json names.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = v;
    } else if (flag == "--trace-out") {
      args.trace_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.work_dir.empty() || args.seconds <= 0) {
    std::fprintf(stderr, "usage: ssibench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1> --work-dir <dir>\n");
    return 2;
  }

  perfbench::Result result;
  if (args.workload == "smallbank-contended") {
    perfbench::RunSmallBankContended(args, &result);
  } else if (args.workload == "smallbank-report") {
    perfbench::RunSmallBankReport(args, &result);
  } else if (args.workload == "durable-pipelined") {
    perfbench::RunDurablePipelined(args, &result);
  } else if (args.workload == "past-ram") {
    perfbench::RunPastRam(args, &result);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("%s\n", result.Json().c_str());
  return 0;
}
