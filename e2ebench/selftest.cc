// e2e_selftest: checks the benchmark's own machinery on small runs.
//
//   * Tracing is transparent: on the simulator workloads a traced run
//     gives the same results, bytes, messages, latency_s and attempts as
//     an untraced one (equal determinism fingerprints).
//   * Same seed, same fingerprint; a seed never used in development runs
//     clean too.
//   * On every workload the per-layer self times plus the named residuals
//     account for the traced Run() wall within 5%: no residual is
//     negative, no Run() encloses more span time than its wall, and no two
//     spans of one thread overlap.
//   * Every answer passes its oracle. The untraced superpeer_lookup run
//     also replays its prefix on the simulator, so it covers the
//     threaded-vs-simulator traffic cross-check and the latency_s replay.
//
// The runs use the benchmark's own configuration with a short --seconds:
// 20 garage queries, 270 superpeer queries, one full churn episode.
#include <cstdio>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

using e2ebench::Options;
using e2ebench::RunResult;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

Options Small(const std::string& workload, uint64_t seed, bool trace) {
  Options o;
  o.workload = workload;
  o.seed = seed;
  o.trace = trace;
  o.seconds = 0.3;
  o.setup_reps = 1;
  return o;
}

void CheckClean(const RunResult& r, const std::string& label) {
  std::string detail;
  for (const auto& e : r.errors) detail += "\n    " + e;
  Check(r.errors.empty() && r.wrong == 0 && r.submitted > 0,
        label + ": every answer passes the oracle" + detail);
}

void CheckTrace(const RunResult& traced, const std::string& label) {
  const e2ebench::TraceSummary& t = traced.trace;
  const double closure = e2ebench::ClosureErrorPct(t);
  Check(t.run_ns > 0 && closure <= 5.0,
        label + ": layer self times + residuals within 5% of Run() wall (" +
            std::to_string(closure) + "%)");
  const e2ebench::Residuals r = e2ebench::ComputeResiduals(t);
  Check(r.mqp_other_ns >= 0,
        label + ": decode + eval + replayed encode fit inside the mqp "
                "handler time (residual " + std::to_string(r.mqp_other_ns / 1e6) +
            " ms)");
  Check(r.idle_ns >= 0, label + ": worker busy time fits in workers x Run() wall");
  Check(t.run_overcovered_ns == 0,
        label + ": no Run() encloses more span time than its wall");
  Check(t.off_thread_outside_run_ns == 0,
        label + ": every worker span lies inside a Run() window");
  Check(t.overlapping_spans == 0, label + ": no overlapping spans on one thread");
}

}  // namespace

int main() {
  for (const char* w : {"garage_scan", "churn_faults"}) {
    const std::string name = w;
    const RunResult a = e2ebench::RunWorkload(Small(name, 11, false));
    const RunResult b = e2ebench::RunWorkload(Small(name, 11, false));
    const RunResult t = e2ebench::RunWorkload(Small(name, 11, true));
    const RunResult held_out = e2ebench::RunWorkload(Small(name, 918273, false));
    Options sampled = Small(name, 11, false);
    sampled.setup_reps = 0;  // the workload's default set-up samples
    const RunResult s = e2ebench::RunWorkload(sampled);
    Check(s.setup_s.size() > 1 && s.fingerprint == a.fingerprint,
          name + ": set-up samples taken during the run leave its results unchanged");
    CheckClean(a, name);
    CheckClean(t, name + " traced");
    CheckClean(held_out, name + " held-out seed");
    Check(a.fingerprint == b.fingerprint, name + ": same seed, same fingerprint");
    Check(a.fingerprint == t.fingerprint,
          name + ": tracing on/off gives identical results, bytes, messages, "
                 "latency_s and attempts");
    Check(a.query_bytes == t.query_bytes && a.query_messages == t.query_messages &&
              a.attempts == t.attempts && a.latency_s == t.latency_s,
          name + ": deterministic metrics equal with tracing on and off");
    Check(a.fingerprint != held_out.fingerprint,
          name + ": a different seed gives a different fingerprint");
    CheckTrace(t, name);
  }
  {
    const RunResult a = e2ebench::RunWorkload(Small("superpeer_lookup", 11, false));
    CheckClean(a, "superpeer_lookup");
    Check(!a.latency_s.empty(), "superpeer_lookup: simulator replay gave latency_s");
    const RunResult t = e2ebench::RunWorkload(Small("superpeer_lookup", 11, true));
    CheckClean(t, "superpeer_lookup traced");
    CheckTrace(t, "superpeer_lookup");
    Check(t.trace.busy_ns_off_run_thread > 0,
          "superpeer_lookup: handlers ran on the runtime's worker threads");
  }
  std::printf("%s (%d failure%s)\n", g_failures == 0 ? "OK" : "FAILED",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
