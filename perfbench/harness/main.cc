// perfbench_harness — the NeuroDB benchmark's measuring program.
//
//   perfbench_harness --workload explore|mutate|synapse --seed N
//                     --seconds S --trace 0|1 --workdir DIR
//
// Prints diagnostics and reference figures on stderr and, as the last line
// of stdout, one JSON object: {"correct", "attempted", "failed", "metrics"},
// the metrics as plain name: value pairs. perfbench/run.py builds this
// program, calls it and turns that line into the benchmark's result (units
// from BENCHMARK.json); see README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload explore|mutate|synapse "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.start = perfbench::Clock::now();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage();
    } else if (key == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0' || args.seconds < 1 || args.seconds > 600) {
        return Usage();
      }
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      args.trace = value[0] == '1';
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      return Usage();
    }
  }
  if (args.workdir.empty() || argc % 2 == 0) return Usage();

  perfbench::Report report(args.trace);
  int rc = 0;
  if (args.workload == "explore") {
    rc = perfbench::RunExplore(args, &report);
  } else if (args.workload == "mutate") {
    rc = perfbench::RunMutate(args, &report);
  } else if (args.workload == "synapse") {
    rc = perfbench::RunSynapse(args, &report);
  } else {
    return Usage();
  }
  // A workload that could not run to its end prints no result.
  if (rc != 0) return rc;
  // A failed output check is reported as "correct": false in the result.
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
