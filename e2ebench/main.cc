// e2e_bench: runs one workload end to end and prints its metrics.
//
//   e2e_bench --workload <garage_scan|superpeer_lookup|churn_faults>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced, traced, then untraced again, and prints the
// per-layer metrics of the traced run plus the tracing overhead; the traced run's
// spans go to --trace-out as Chrome trace-event JSON. The last stdout line
// is always the JSON result; the exit code is nonzero when any answer or
// self-check failed.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

using e2ebench::Metric;
using e2ebench::Options;
using e2ebench::RunResult;

/// The per-layer closure bound: self times plus named residuals must
/// account for the traced Run() wall within this many percent.
constexpr double kClosureBoundPct = 5.0;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <garage_scan|superpeer_lookup|"
               "churn_faults> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>]\n",
               argv0);
  return 2;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintErrors(const RunResult& r) {
  if (r.unconverged_episodes > 0) {
    std::printf("note [%s]: catalogs did not converge in %zu of %zu churn "
                "episodes (known defect, see README.md)\n",
                r.traced ? "traced" : "untraced", r.unconverged_episodes,
                r.episodes);
  }
  for (const std::string& e : r.errors) {
    std::printf("error [%s]: %s\n", r.traced ? "traced" : "untraced", e.c_str());
  }
}

size_t Failed(const RunResult& r) { return r.wrong + (r.submitted - r.returned); }

}  // namespace

int main(int argc, char** argv) {
  Options o;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      o.trace_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !e2ebench::IsWorkload(o.workload) || !have_seed ||
      o.seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage(argv[0]);
  }

  if (trace == 0) {
    const RunResult r = e2ebench::RunWorkload(o);
    const auto metrics = e2ebench::EndToEndMetrics(r);
    std::printf("%s seed=%llu: %zu queries, %zu complete, %zu wrong\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                r.submitted, r.complete, r.wrong);
    PrintMetrics(metrics);
    std::printf("setup_s samples:");
    for (double s : r.setup_s) std::printf(" %.5f", s);
    std::printf("\n");
    if (r.simulated) {
      std::printf("fingerprint %s seed=%llu %016llx\n", o.workload.c_str(),
                  static_cast<unsigned long long>(o.seed),
                  static_cast<unsigned long long>(r.fingerprint));
    }
    PrintErrors(r);
    const bool correct = r.errors.empty() && r.wrong == 0;
    std::printf("%s\n", e2ebench::ResultJson(correct, r.submitted, Failed(r),
                                             metrics)
                            .c_str());
    return correct ? 0 : 1;
  }

  // Traced: an untraced run first (the determinism reference), then the
  // same seed behind the tracer, then untraced again as the overhead
  // baseline. A process's first run is the slowest (up to 16% on
  // garage_scan), so the first run would understate the overhead.
  Options plain = o;
  plain.setup_reps = 1;
  plain.trace_path.clear();
  const RunResult base = e2ebench::RunWorkload(plain);
  Options traced_opts = o;
  traced_opts.trace = true;
  traced_opts.setup_reps = 1;
  RunResult traced = e2ebench::RunWorkload(traced_opts);
  const RunResult after = e2ebench::RunWorkload(plain);

  if (base.simulated && base.fingerprint != traced.fingerprint) {
    traced.errors.push_back(
        "tracing changed results, bytes, messages, latency or attempts");
  }
  const double closure = e2ebench::ClosureErrorPct(traced.trace);
  if (closure > kClosureBoundPct) {
    traced.errors.push_back("the layer decomposition leaves " + std::to_string(closure) +
                            "% of the traced wall to negative residuals");
  }
  if (traced.trace.overlapping_spans != 0) {
    traced.errors.push_back(std::to_string(traced.trace.overlapping_spans) +
                            " spans overlap on one thread");
  }
  const auto metrics = e2ebench::PerLayerMetrics(traced, after);
  std::printf("%s seed=%llu traced: %zu queries, %llu spans, closure %.3f%%\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              traced.submitted,
              static_cast<unsigned long long>(traced.trace.spans), closure);
  if (!o.trace_path.empty()) std::printf("trace written to %s\n", o.trace_path.c_str());
  PrintMetrics(metrics);
  PrintErrors(base);
  PrintErrors(traced);
  PrintErrors(after);
  const bool correct = base.errors.empty() && traced.errors.empty() &&
                       after.errors.empty() && base.wrong == 0 &&
                       traced.wrong == 0 && after.wrong == 0;
  std::printf("%s\n",
              e2ebench::ResultJson(correct, traced.submitted, Failed(traced),
                                   metrics)
                  .c_str());
  return correct ? 0 : 1;
}
