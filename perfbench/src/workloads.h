#ifndef WDPERF_WORKLOADS_H_
#define WDPERF_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph.h"
#include "measure.h"

/// \file
/// The benchmark's two phases, run in separate processes so that the
/// measured process's peak RSS holds only what the workload itself
/// needs:
///
///  * `Prepare` generates the seeded graph, saves it as a snapshot (with
///    its optimizer statistics) and records one naive-backend answer
///    digest per constant of a workload's query pool — the correctness
///    gate's reference, computed outside any timed window.
///  * `Run` measures one workload over a copy of that snapshot and
///    checks every timed answer against the reference digests.

namespace wdperf {

/// Writes `dir`/graph.snap and the reference digests of `workload`'s
/// pool for `seed`, skipping whichever already exists.
bool Prepare(uint64_t seed, Workload workload, const std::string& dir);

struct RunConfig {
  Workload workload = Workload::kOptChain;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string prepared_dir;  // Output of Prepare for the same seed.
  std::string work_dir;      // Scratch space for the database copy.
  std::string trace_file;    // Where the traced run writes its spans.
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;  // Why `correct` is false.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricMap metrics;
  uint64_t base_triples = 0;
  std::string flush_policy;
  double read_rate = 0;  // serve_mixed only: the fixed open-loop rate.
};

RunResult Run(const RunConfig& config);

/// Metric names every untraced run reports (the end-to-end set) and
/// every traced run reports (the per-layer set).
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

}  // namespace wdperf

#endif  // WDPERF_WORKLOADS_H_
