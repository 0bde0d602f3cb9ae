// famtree_perfbench: the repository's end-to-end benchmark.
//
//   famtree_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--tiny] [--sabotage] [--rev <rev>]
//
// Workloads: csv-to-cover, pairwise-rules, append-repair, serve-mixed (see
// perfbench/NOTES.md). The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics; the exit code is 0
// only when every correctness check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: famtree_perfbench --workload <csv-to-cover|"
               "pairwise-rules|append-repair|serve-mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--sabotage] "
               "[--rev <rev>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    bool has_value = i + 1 < argc;
    if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--sabotage") {
      args.sabotage = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--rev" && has_value) {
      args.rev = argv[++i];
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();

  perfbench::Report report;
  perfbench::Tracer tracer(args.trace);
  if (args.workload == "csv-to-cover") {
    perfbench::RunCsvToCover(args, &report, tracer);
  } else if (args.workload == "pairwise-rules") {
    perfbench::RunPairwiseRules(args, &report, tracer);
  } else if (args.workload == "append-repair") {
    perfbench::RunAppendRepair(args, &report, tracer);
  } else if (args.workload == "serve-mixed") {
    perfbench::RunServeMixed(args, &report, tracer);
  } else {
    return Usage();
  }
  return perfbench::Emit(args, report, tracer);
}
