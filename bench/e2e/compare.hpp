// Result rows and their comparison.
//
// Every run of bench_e2e can append one JSON row per workload to an --out
// file.  `bench_e2e --compare A.jsonl B.jsonl` reads two such files (A the
// base, B the candidate) and, for every metric the source tree's
// BENCHMARK.json declares and every workload present on both sides, prints
// each side's median and quartiles, the share of run pairs B wins, and a
// verdict (the choosing-metrics guide, section 8).  A row whose output
// checks failed ("correct": false) is left out and named.
//
//   improved    B wins at least 9 in 10 pairs (pair i = run i of each
//               side, ties counting for neither) and the medians differ
//               in B's favour by more than A's interquartile distance;
//   not counted the same, but B's runs of the workload failed more
//               operations in total than A's;
//
// and, for an end-to-end metric, which has a bound:
//
//   unresolved  otherwise, when A's interquartile distance exceeds the
//               bound (a share of A's median) and not every B run beats
//               every A run;
//   regressed   otherwise, when B's median is worse than A's by more than
//               the bound;
//   same        otherwise.
//
// A per-layer metric has no bound: short of "improved" it reads
// "worsened" under the mirrored rule, else "-".
#pragma once

#include <array>
#include <string>
#include <vector>

namespace amoeba::bench {

/// The median, as Python's statistics.median gives it.
[[nodiscard]] double median(std::vector<double> values);

/// Q1, Q2, Q3 as Python's statistics.quantiles(values, n=4) gives them
/// (the "exclusive" method); a single value is its own quartiles.
[[nodiscard]] std::array<double, 3> quartiles(std::vector<double> values);

/// Runs --compare; returns the process exit status (1 when any pair
/// regressed or a file cannot be read, else 0).
[[nodiscard]] int compare(const std::string& base_path,
                          const std::string& candidate_path,
                          const std::string& benchmark_path);

}  // namespace amoeba::bench
