// perfbench — the repository benchmark program.
//
//   perfbench --workload lib_kron|lib_road|serve_mixed --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR] [--capacity 1]
//
// Prints a human-readable table and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the metrics the
// workload measured: the end-to-end ones with --trace 0, the per-layer ones
// with --trace 1. perfbench/run.py checks them against BENCHMARK.json.
// Exits 1 when any answer was wrong and 2 when the run is invalid (the
// open-loop generator fell behind).
#include <cstdlib>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload lib_kron|lib_road|serve_mixed "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR] "
               "[--capacity 1]\n");
  return 64;
}

}  // namespace

int main(int argc, char **argv) {
  pb::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char *val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (key == "--trace") {
      opt.trace = std::atoi(val) != 0;
    } else if (key == "--trace-dir") {
      opt.trace_dir = val;
    } else if (key == "--capacity") {
      opt.capacity = std::atoi(val) != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(opt.seconds > 0)) return usage();

  pb::Report rep;
  int rc = 0;
  if (opt.workload == "lib_kron" || opt.workload == "lib_road") {
    rc = pb::run_lib(opt, rep);
  } else if (opt.workload == "serve_mixed") {
    rc = pb::run_serve(opt, rep);
  } else {
    return usage();
  }
  if (rc != 0 || opt.capacity) return rc;
  std::fflush(stderr);
  rep.print(stdout);
  return rep.correct() ? 0 : 1;
}
