// TracingTransport: a net::Transport decorator that measures the mqp
// program from outside, modelled on net::FaultInjector.
//
// Peers are constructed against the tracer instead of the backend. Its
// Register wraps every PeerNode, so each HandleMessage call becomes a
// span; every Schedule/ScheduleFor callback and every Run() is a span
// too. A span is tagged with the (query-id, attempt) the wire envelope
// carries, and its causal parent is the span that was running when the
// message was sent (or the timer scheduled). Inside each handler span
// the tracer also reads the calling thread's NetStats shard before and
// after, so the library's own decode / eval / serialization counters are
// attributed to the span that spent them.
//
// Nothing inside src/ is instrumented: spans are kept in per-thread
// buffers in memory, summed into per-layer figures after the run
// (Summarize), and written out as Chrome trace-event JSON (WriteChromeTrace)
// that Perfetto or chrome://tracing load directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/transport.h"

namespace e2ebench {

namespace net = mqp::net;

/// Message kinds the tracer keeps separate figures for, in report order.
/// Anything else lands in the last slot, "other".
inline constexpr const char* kTracedKinds[] = {
    "mqp",      "result",      "subquery",    "subquery-reply", "fetch",
    "fetch-reply", "cat-query", "cat-reply",  "register",       "sync-digest",
    "sync-delta",  "cancel",    "other"};
inline constexpr size_t kNumKindSlots =
    sizeof(kTracedKinds) / sizeof(kTracedKinds[0]);

enum class SpanType : uint8_t { kHandler, kTimer, kRun };

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< causal parent span (sender / scheduler); 0 = none
  int64_t start_ns = 0;  ///< steady clock, relative to the tracer's epoch
  int64_t end_ns = 0;
  // NetStats shard deltas observed across a handler span.
  uint64_t decode_ns = 0;
  uint64_t eval_ns = 0;
  uint64_t serializations = 0;
  std::string query_id;
  uint32_t attempt = 0;
  net::PeerId peer = net::kNoPeer;
  uint16_t thread = 0;
  uint8_t kind_slot = 0;  ///< index into kTracedKinds (handlers only)
  SpanType type = SpanType::kHandler;
};

/// Span totals, the inputs of the per-layer metrics.
struct TraceSummary {
  struct KindTotals {
    uint64_t calls = 0;
    uint64_t ns = 0;
    uint64_t decode_ns = 0;
    uint64_t eval_ns = 0;
    uint64_t serializations = 0;
  };
  KindTotals kinds[kNumKindSlots];
  uint64_t timer_calls = 0;
  uint64_t timer_ns = 0;
  uint64_t run_calls = 0;
  uint64_t run_ns = 0;          ///< summed Run() wall
  /// Run() wall minus the handler and timer spans it encloses on its
  /// thread, summed over the Run() calls where that is positive ...
  uint64_t run_self_ns = 0;
  /// ... and where it is negative: enclosed spans that add up to more
  /// than the wall around them (a measurement error, never clamped away).
  uint64_t run_overcovered_ns = 0;
  uint64_t events = 0;          ///< deliveries + timers Run() reported
  /// Handler and timer time spent on threads other than Run()'s caller
  /// (the threaded runtime's workers); zero on the simulator.
  uint64_t busy_ns_off_run_thread = 0;
  /// Of that, time in spans that no Run() window encloses (a bug).
  uint64_t off_thread_outside_run_ns = 0;
  uint64_t spans = 0;
  uint64_t overlapping_spans = 0;  ///< same-thread spans that overlap (bug)
  size_t worker_threads = 0;    ///< the backend's handler threads
  /// Replayed plan encode: mean ns per SerializePlanShared over the
  /// sampled mqp bodies (0 when none were captured).
  double encode_ns_per_serialization = 0;
  size_t encode_samples = 0;

  /// Folds another run's totals in (churn episodes are traced apart).
  void Add(const TraceSummary& o);
};

class TracingTransport : public net::Transport {
 public:
  /// `inner` must outlive the tracer. `workers` is the backend's handler
  /// thread count (1 for the simulator).
  TracingTransport(net::Transport* inner, size_t workers);
  ~TracingTransport() override;

  /// Sums every recorded span. Call after the last Run().
  TraceSummary Summarize() const;

  /// Drops every span, parent link and sample recorded so far (the
  /// set-up phase), so the summary covers the measured phase only.
  void Reset();

  /// Writes the spans as Chrome trace-event JSON, the earliest 100k when
  /// there are more; false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

  // --- net::Transport --------------------------------------------------------
  net::PeerId Register(net::PeerNode* node) override;
  size_t size() const override { return inner_->size(); }
  const std::string& Address(net::PeerId id) const override {
    return inner_->Address(id);
  }
  mqp::Result<net::PeerId> Lookup(std::string_view address) const override {
    return inner_->Lookup(address);
  }
  double now() const override { return inner_->now(); }
  void Send(net::Message msg) override;
  void Schedule(double when, std::function<void()> fn) override;
  void ScheduleFor(net::PeerId owner, double when,
                   std::function<void()> fn) override;
  void Fail(net::PeerId id) override { inner_->Fail(id); }
  void Recover(net::PeerId id) override { inner_->Recover(id); }
  bool IsFailed(net::PeerId id) const override {
    return inner_->IsFailed(id);
  }
  size_t Run(double max_time = 1e9) override;
  bool Idle() const override { return inner_->Idle(); }
  net::NetStats& stats() override { return inner_->stats(); }
  const net::NetStats& stats() const override {
    return static_cast<const net::Transport*>(inner_)->stats();
  }

 private:
  class NodeWrapper;
  struct ThreadBuffer {
    uint16_t index = 0;
    std::vector<Span> spans;
    /// Open spans on this thread (innermost last): id + tags, so Send and
    /// Schedule can name their parent and timers inherit the query tags.
    struct Open {
      uint64_t id;
      const std::string* query_id;
      uint32_t attempt;
    };
    std::vector<Open> open;
  };

  ThreadBuffer& Buffer();
  int64_t NowNs() const;
  uint64_t NextId();
  void Deliver(net::PeerNode* node, net::PeerId id, const net::Message& msg);
  std::function<void()> WrapTimer(std::function<void()> fn);
  static uint64_t MessageKey(const net::Message& msg);
  uint64_t TakeParent(const net::Message& msg);
  void MaybeCapture(const net::Message& msg);

  net::Transport* inner_;
  const size_t workers_;
  const uint64_t uid_;
  const int64_t epoch_ns_;
  std::vector<uint8_t> slot_of_kind_;  ///< net::KindId → kind slot

  std::deque<std::unique_ptr<NodeWrapper>> wrappers_;

  mutable std::mutex buffers_mu_;
  std::deque<std::unique_ptr<ThreadBuffer>> buffers_;
  uint16_t run_thread_ = 0;  ///< buffer index of Run()'s caller

  std::atomic<uint64_t> next_id_{1};
  uint64_t events_ = 0;  ///< deliveries + timers Run() reported (driving thread)

  /// Parent span of each message in flight, keyed by a content hash
  /// (duplicates queue up in send order).
  std::mutex parents_mu_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> parents_;

  /// Sampled mqp bodies, replayed through the plan codec after the run to
  /// price the encode step no outside call can time in place. Every
  /// `capture_stride_`-th mqp delivery is kept; when the byte budget
  /// fills, every other sample is dropped and the stride doubles.
  mutable std::mutex capture_mu_;
  std::vector<net::Payload> captured_;
  size_t captured_bytes_ = 0;
  uint64_t capture_seen_ = 0;
  uint64_t capture_stride_ = 1;
};

}  // namespace e2ebench
