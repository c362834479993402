// The three benchmark workloads, driven through the mqp library's public
// API (README.md explains why each was chosen):
//
//   garage_scan       net::Simulator, one closed-loop client, 64 sellers x 8
//                     items, area queries at country/state/city breadth,
//                     half with a price predicate.
//   superpeer_lookup  runtime::ThreadedRuntime (3 workers + the driving
//                     thread), 16 super-peers x 128 leaves x 8 items, a
//                     seeded open loop of city lookups and top-10 region
//                     rankings; the first 10% is replayed on the
//                     simulator for the traffic cross-check and latency_s.
//   churn_faults      net::Simulator under net::FaultInjector (5% drop),
//                     48 sellers x 4 items, ChurnScenario with gossip on
//                     every peer, reliable state-level queries every 0.5
//                     virtual s, then a quiet tail.
//
// Every answer is checked against ground truth built from the generated
// data; a wrong answer is recorded in RunResult::errors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/transport.h"
#include "sync/gossip.h"
#include "tracer.h"

namespace e2ebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;  ///< run the peers behind a TracingTransport
  /// Times the set-up is repeated (the fastest is reported); 0 = the
  /// workload's default.
  size_t setup_reps = 0;
  /// Chrome trace output path for traced runs ("" = none).
  std::string trace_path;
};

struct RunResult {
  std::string workload;
  bool simulated = true;  ///< deterministic simulator backend

  size_t submitted = 0;
  size_t returned = 0;
  size_t complete = 0;  ///< complete *and* verified correct
  size_t wrong = 0;     ///< answers that failed the oracle
  uint64_t attempts = 0;
  uint64_t result_items = 0;  ///< items delivered to the client

  std::vector<double> wall_ms;    ///< complete queries: submit → callback
  std::vector<double> latency_s;  ///< complete queries: virtual response

  double measured_wall_s = 0;
  double cpu_s = 0;
  double virtual_s = 0;  ///< virtual time the measured phase spanned
  std::vector<double> setup_s;

  net::NetStats stats;  ///< measured phase, merged view
  uint64_t query_bytes = 0;
  uint64_t query_messages = 0;
  uint64_t sync_bytes = 0;  ///< sync-digest + sync-delta + register
  mqp::sync::SyncCounters sync;  ///< summed over every agent
  /// churn_faults: median virtual seconds from the end of the churn
  /// window until every live catalog holds the same version vector (an
  /// episode that never converges counts as the whole tail).
  double converge_s = 0;
  size_t episodes = 0;
  size_t unconverged_episodes = 0;

  /// Hash over the deterministic metrics and per-query result hashes.
  uint64_t fingerprint = 0;
  std::vector<std::string> errors;

  bool traced = false;
  TraceSummary trace;
};

bool IsWorkload(const std::string& name);

RunResult RunWorkload(const Options& options);

}  // namespace e2ebench
