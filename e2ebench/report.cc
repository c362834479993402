#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2ebench {

namespace {

/// Value at quantile `q` (0..1) by the nearest-rank method.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Per(double x, double n) { return n > 0 ? x / n : 0; }

}  // namespace

std::vector<Metric> EndToEndMetrics(const RunResult& r) {
  const double q = static_cast<double>(r.submitted);
  return {
      {"queries_per_s", Per(static_cast<double>(r.returned), r.measured_wall_s), "1/s"},
      {"wall_ms_p50", Percentile(r.wall_ms, 0.50), "ms"},
      {"wall_ms_p95", Percentile(r.wall_ms, 0.95), "ms"},
      {"latency_s_p50", Percentile(r.latency_s, 0.50), "s"},
      {"latency_s_p95", Percentile(r.latency_s, 0.95), "s"},
      {"cpu_ms_per_query", Per(r.cpu_s * 1e3, static_cast<double>(r.returned)), "ms"},
      {"bytes_per_query", Per(static_cast<double>(r.query_bytes), q), "B"},
      {"messages_per_query", Per(static_cast<double>(r.query_messages), q), "count"},
      {"attempts_per_query", Per(static_cast<double>(r.attempts), q), "count"},
      {"complete_pct", 100.0 * Per(static_cast<double>(r.complete), q), "%"},
      // The fastest set-up: the host's speed drifts within a run, and set-up
      // (mostly fresh allocation) follows it more than query work does, so
      // the median of the samples wanders from run to run. Work added to
      // set-up raises every sample, the fastest included.
      {"setup_s", r.setup_s.empty() ? 0 : *std::min_element(r.setup_s.begin(), r.setup_s.end()), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

Residuals ComputeResiduals(const TraceSummary& t) {
  const auto& mqp = t.kinds[0];
  Residuals r;
  r.mqp_other_ns = static_cast<double>(mqp.ns) - static_cast<double>(mqp.decode_ns) -
                   static_cast<double>(mqp.eval_ns) -
                   t.encode_ns_per_serialization * static_cast<double>(mqp.serializations);
  if (t.busy_ns_off_run_thread > 0) {
    r.idle_ns = static_cast<double>(t.worker_threads) * static_cast<double>(t.run_ns) -
                static_cast<double>(t.busy_ns_off_run_thread);
  }
  return r;
}

double ClosureErrorPct(const TraceSummary& t) {
  if (t.run_ns == 0) return 0;
  const Residuals r = ComputeResiduals(t);
  const double workers =
      t.busy_ns_off_run_thread > 0 ? static_cast<double>(t.worker_threads) : 0;
  const double capacity = static_cast<double>(t.run_ns) * (1 + workers);
  const double unaccounted = std::max(0.0, -r.mqp_other_ns) + std::max(0.0, -r.idle_ns) +
                             static_cast<double>(t.run_overcovered_ns) +
                             static_cast<double>(t.off_thread_outside_run_ns);
  return 100.0 * unaccounted / capacity;
}

std::vector<Metric> PerLayerMetrics(const RunResult& traced,
                                    const RunResult& untraced) {
  const TraceSummary& t = traced.trace;
  const net::NetStats& st = traced.stats;
  const double q = static_cast<double>(traced.submitted);
  auto per_q = [&](double x) { return Per(x, q); };
  auto ms_per_q = [&](double ns) { return Per(ns / 1e6, q); };
  auto per_vs = [&](double x) { return Per(x, traced.virtual_s); };

  const Residuals residuals = ComputeResiduals(t);
  const double run_ns = static_cast<double>(t.run_ns);
  // Worker utilisation: on the threaded runtime the workers' handler and
  // timer time over their capacity; on the simulator, the one thread's.
  double busy_pct = 0;
  if (t.busy_ns_off_run_thread > 0) {
    busy_pct = 100.0 * Per(static_cast<double>(t.busy_ns_off_run_thread),
                           static_cast<double>(t.worker_threads) * run_ns);
  } else {
    double busy_ns = static_cast<double>(t.timer_ns);
    for (const auto& k : t.kinds) busy_ns += static_cast<double>(k.ns);
    busy_pct = 100.0 * Per(busy_ns, run_ns);
  }
  const double encode_ns =
      t.encode_ns_per_serialization * static_cast<double>(st.plan_serializations);

  std::vector<Metric> m = {
      {"net.events_per_query", per_q(static_cast<double>(t.events)), "count"},
      {"net.sched_self_ms_per_query", ms_per_q(static_cast<double>(t.run_self_ns)), "ms"},
      {"net.fault_drops_per_query", per_q(static_cast<double>(st.fault_drops)), "count"},
      {"runtime.worker_busy_pct", busy_pct, "%"},
      {"runtime.idle_ms_per_query", ms_per_q(residuals.idle_ns), "ms"},
      {"runtime.mailbox_soft_overflows", static_cast<double>(st.mailbox_soft_overflows), "count"},
      {"runtime.mailbox_backpressure_waits", static_cast<double>(st.mailbox_backpressure_waits), "count"},
  };
  for (size_t k = 0; k + 1 < kNumKindSlots; ++k) {
    const std::string kind = kTracedKinds[k];
    m.push_back({"peer." + kind + ".ms_per_query", ms_per_q(static_cast<double>(t.kinds[k].ns)), "ms"});
    m.push_back({"peer." + kind + ".calls_per_query", per_q(static_cast<double>(t.kinds[k].calls)), "count"});
  }
  const uint64_t reused = st.forwards_without_reserialize;
  const std::vector<Metric> rest = {
      {"peer.timer_ms_per_query", ms_per_q(static_cast<double>(t.timer_ns)), "ms"},
      {"peer.timer_calls_per_query", per_q(static_cast<double>(t.timer_calls)), "count"},
      {"peer.mqp_other_ms_per_query", ms_per_q(residuals.mqp_other_ns), "ms"},
      {"wire.decode_ms_per_query", ms_per_q(static_cast<double>(st.plan_decode_ns)), "ms"},
      {"wire.encode_ms_per_query", ms_per_q(encode_ns), "ms"},
      {"wire.plan_parses_per_query", per_q(static_cast<double>(st.plan_parses)), "count"},
      {"wire.forward_reuse_pct",
       100.0 * Per(static_cast<double>(reused),
                   static_cast<double>(reused + st.plan_serializations)),
       "%"},
      {"xml.dom_nodes_per_query", per_q(static_cast<double>(st.dom_nodes_built)), "count"},
      {"xml.dom_nodes_per_result_item",
       Per(static_cast<double>(st.dom_nodes_built), static_cast<double>(traced.result_items)),
       "count"},
      {"engine.eval_ms_per_query", ms_per_q(static_cast<double>(st.engine_eval_ns)), "ms"},
      {"engine.items_cloned_per_query", per_q(static_cast<double>(st.items_cloned)), "count"},
      {"engine.hash_probes_per_query", per_q(static_cast<double>(st.structural_hash_probes)), "count"},
      {"catalog.index_probes_per_query", per_q(static_cast<double>(st.resolve_index_probes)), "count"},
      {"catalog.entries_scanned_per_query", per_q(static_cast<double>(st.resolve_entries_scanned)), "count"},
      {"catalog.binding_cache_hits_per_query", per_q(static_cast<double>(st.binding_cache_hits)), "count"},
      {"sync.digests_per_s", per_vs(static_cast<double>(traced.sync.digests_sent)), "1/s"},
      {"sync.deltas_per_s", per_vs(static_cast<double>(traced.sync.deltas_sent)), "1/s"},
      {"sync.records_applied_per_s", per_vs(static_cast<double>(traced.sync.records_applied)), "1/s"},
      {"sync.bytes_per_s", per_vs(static_cast<double>(traced.sync_bytes)), "B/s"},
      {"sync.converge_s", traced.converge_s, "s"},
      {"sync.unconverged_pct",
       100.0 * Per(static_cast<double>(traced.unconverged_episodes),
                   static_cast<double>(traced.episodes)),
       "%"},
      {"reliability.retries_per_query", per_q(static_cast<double>(st.query_retries)), "count"},
      {"reliability.useful_attempt_pct",
       100.0 * Per(q, static_cast<double>(traced.attempts)), "%"},
      {"reliability.failovers_per_query", per_q(static_cast<double>(st.failovers)), "count"},
      {"reliability.cancels_per_query", per_q(static_cast<double>(st.cancels_sent)), "count"},
      {"topk.batches_per_query", per_q(static_cast<double>(st.topk_batches)), "count"},
      {"topk.rows_pruned_per_query", per_q(static_cast<double>(st.topk_rows_pruned)), "count"},
      {"topk.early_terminations_per_query", per_q(static_cast<double>(st.topk_early_terminations)), "count"},
      {"trace.overhead_pct",
       100.0 * (Per(traced.measured_wall_s, untraced.measured_wall_s) - 1.0), "%"},
      {"trace.spans_per_query", per_q(static_cast<double>(t.spans)), "count"},
      {"trace.closure_error_pct", ClosureErrorPct(t), "%"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2ebench
