// exchange_bench — runs one workload of the exchange benchmark and prints
// its report as one JSON line on stdout. perfbench/run.py builds this
// program, runs it and turns the report into the benchmark's result line.
//
//   exchange_bench --workload search-k9|batched-k6|storm-fed --seed N
//                  [--seconds S] [--trace 0|1] [--spans PATH]
//
// --seconds sets the op count from the workload's nominal rate (the
// determinism self-test runs a fraction of a second). A traced run writes
// its spans to --spans when it ends.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: exchange_bench --workload search-k9|batched-k6|"
               "storm-fed --seed N [--seconds S] [--trace 0|1] [--spans PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else {
      return usage();
    }
    if (end && *end != '\0') return usage();
  }
  if (argc % 2 == 0 || !(o.seconds > 0)) return usage();

  perfbench::Report rep;
  if (o.workload == "search-k9")
    rep = perfbench::run_search_k9(o);
  else if (o.workload == "batched-k6")
    rep = perfbench::run_batched_k6(o);
  else if (o.workload == "storm-fed")
    rep = perfbench::run_storm_fed(o);
  else
    return usage();

  for (const std::string& why : rep.failure_notes)
    std::cerr << "verify failure: " << why << "\n";
  std::cout << rep.json(o) << std::endl;
  return 0;
}
