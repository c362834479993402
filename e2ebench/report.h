// Turns RunResults into the benchmark's named metrics (README.md lists
// them with units and directions) and prints the result line.
#pragma once

#include <string>
#include <vector>

#include "workloads.h"

namespace e2ebench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The end-to-end metrics of one untraced run.
std::vector<Metric> EndToEndMetrics(const RunResult& r);

/// The per-layer metrics of a traced run; `untraced` (same workload and
/// seed, tracing off) supplies the tracing overhead.
std::vector<Metric> PerLayerMetrics(const RunResult& traced,
                                    const RunResult& untraced);

/// The named residuals of the per-layer decomposition, signed. Each is a
/// measured whole minus separately measured parts, so a negative value
/// means the parts were over-measured.
struct Residuals {
  /// mqp handler time minus the decode, eval and replayed encode inside it.
  double mqp_other_ns = 0;
  /// Threaded runtime: workers x Run() wall minus the handler and timer
  /// time on the worker threads. 0 on the simulator, which has no workers.
  double idle_ns = 0;
};
Residuals ComputeResiduals(const TraceSummary& t);

/// How far the layer self times plus the named residuals fail to account
/// for the traced Run() wall (times the worker count on the threaded
/// runtime), in percent: the time that only a negative residual, a Run()
/// whose enclosed spans exceed its wall, or a worker span outside every
/// Run() could account for. The traced run fails above 5%.
double ClosureErrorPct(const TraceSummary& t);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace e2ebench
