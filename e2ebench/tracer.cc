#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <cstdio>
#include <utility>

#include "wire/envelope.h"
#include "wire/plan_codec.h"

namespace e2ebench {

namespace {

constexpr uint8_t kOtherSlot = static_cast<uint8_t>(kNumKindSlots - 1);
constexpr uint8_t kMqpSlot = 0;
/// Byte budget for the sampled mqp bodies the encode replay re-serializes.
constexpr size_t kCaptureBudgetBytes = 24u << 20;
/// Spans written to a Chrome trace (about 20 MB of JSON).
constexpr size_t kMaxTraceEvents = 100000;

std::atomic<uint64_t> g_next_tracer_uid{1};

/// The calling thread's buffer cache: valid only for the tracer whose uid
/// it records (a stale entry from a destroyed tracer never matches).
struct TlsBuffer {
  uint64_t uid = 0;
  void* buffer = nullptr;
};
thread_local TlsBuffer t_buffer;

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Fnv(uint64_t h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

void TraceSummary::Add(const TraceSummary& o) {
  for (size_t k = 0; k < kNumKindSlots; ++k) {
    kinds[k].calls += o.kinds[k].calls;
    kinds[k].ns += o.kinds[k].ns;
    kinds[k].decode_ns += o.kinds[k].decode_ns;
    kinds[k].eval_ns += o.kinds[k].eval_ns;
    kinds[k].serializations += o.kinds[k].serializations;
  }
  timer_calls += o.timer_calls;
  timer_ns += o.timer_ns;
  run_calls += o.run_calls;
  run_ns += o.run_ns;
  run_self_ns += o.run_self_ns;
  run_overcovered_ns += o.run_overcovered_ns;
  events += o.events;
  busy_ns_off_run_thread += o.busy_ns_off_run_thread;
  off_thread_outside_run_ns += o.off_thread_outside_run_ns;
  spans += o.spans;
  overlapping_spans += o.overlapping_spans;
  worker_threads = std::max(worker_threads, o.worker_threads);
  const size_t samples = encode_samples + o.encode_samples;
  if (samples > 0) {
    encode_ns_per_serialization =
        (encode_ns_per_serialization * static_cast<double>(encode_samples) +
         o.encode_ns_per_serialization * static_cast<double>(o.encode_samples)) /
        static_cast<double>(samples);
  }
  encode_samples = samples;
}

class TracingTransport::NodeWrapper : public net::PeerNode {
 public:
  NodeWrapper(TracingTransport* tracer, net::PeerNode* node)
      : tracer_(tracer), node_(node) {}
  void set_id(net::PeerId id) { id_ = id; }
  void HandleMessage(const net::Message& msg) override {
    tracer_->Deliver(node_, id_, msg);
  }

 private:
  TracingTransport* tracer_;
  net::PeerNode* node_;
  net::PeerId id_ = net::kNoPeer;
};

TracingTransport::TracingTransport(net::Transport* inner, size_t workers)
    : inner_(inner),
      workers_(workers == 0 ? 1 : workers),
      uid_(g_next_tracer_uid.fetch_add(1)),
      epoch_ns_(SteadyNs()) {
  for (size_t slot = 0; slot + 1 < kNumKindSlots; ++slot) {
    const net::KindId id = net::InternKind(kTracedKinds[slot]);
    if (id >= slot_of_kind_.size()) slot_of_kind_.resize(id + 1, kOtherSlot);
    slot_of_kind_[id] = static_cast<uint8_t>(slot);
  }
}

TracingTransport::~TracingTransport() = default;

TracingTransport::ThreadBuffer& TracingTransport::Buffer() {
  if (t_buffer.uid == uid_) {
    return *static_cast<ThreadBuffer*>(t_buffer.buffer);
  }
  std::lock_guard<std::mutex> lk(buffers_mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer* b = buffers_.back().get();
  b->index = static_cast<uint16_t>(buffers_.size() - 1);
  t_buffer = TlsBuffer{uid_, b};
  return *b;
}

int64_t TracingTransport::NowNs() const { return SteadyNs() - epoch_ns_; }

uint64_t TracingTransport::NextId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void TracingTransport::Reset() {
  events_ = 0;
  {
    std::lock_guard<std::mutex> lk(buffers_mu_);
    for (auto& buffer : buffers_) buffer->spans.clear();
  }
  {
    std::lock_guard<std::mutex> lk(parents_mu_);
    parents_.clear();
  }
  std::lock_guard<std::mutex> lk(capture_mu_);
  captured_.clear();
  captured_bytes_ = 0;
  capture_seen_ = 0;
  capture_stride_ = 1;
}

uint64_t TracingTransport::MessageKey(const net::Message& msg) {
  uint64_t h = 1469598103934665603ULL;
  h = Fnv(h, &msg.from, sizeof(msg.from));
  h = Fnv(h, &msg.to, sizeof(msg.to));
  h = Fnv(h, msg.kind.data(), msg.kind.size());
  h = Fnv(h, msg.header.data(), msg.header.size());
  const void* body = msg.payload.get();
  return Fnv(h, &body, sizeof(body));
}

uint64_t TracingTransport::TakeParent(const net::Message& msg) {
  const uint64_t key = MessageKey(msg);
  std::lock_guard<std::mutex> lk(parents_mu_);
  auto it = parents_.find(key);
  if (it == parents_.end()) return 0;
  const uint64_t parent = it->second.front();
  it->second.erase(it->second.begin());
  if (it->second.empty()) parents_.erase(it);
  return parent;
}

void TracingTransport::MaybeCapture(const net::Message& msg) {
  if (msg.payload == nullptr) return;
  std::lock_guard<std::mutex> lk(capture_mu_);
  if (capture_seen_++ % capture_stride_ != 0) return;
  captured_.push_back(msg.payload);
  captured_bytes_ += msg.payload->size();
  while (captured_bytes_ > kCaptureBudgetBytes && captured_.size() > 1) {
    std::vector<net::Payload> kept;
    captured_bytes_ = 0;
    for (size_t i = 0; i < captured_.size(); i += 2) {
      captured_bytes_ += captured_[i]->size();
      kept.push_back(std::move(captured_[i]));
    }
    captured_ = std::move(kept);
    capture_stride_ *= 2;
  }
}

net::PeerId TracingTransport::Register(net::PeerNode* node) {
  wrappers_.push_back(std::make_unique<NodeWrapper>(this, node));
  NodeWrapper* w = wrappers_.back().get();
  const net::PeerId id = inner_->Register(w);
  w->set_id(id);
  return id;
}

void TracingTransport::Deliver(net::PeerNode* node, net::PeerId id,
                               const net::Message& msg) {
  ThreadBuffer& b = Buffer();
  Span s;
  s.type = SpanType::kHandler;
  s.id = NextId();
  s.parent = TakeParent(msg);
  s.peer = id;
  s.thread = b.index;
  net::KindId kind = msg.kind_id;
  if (kind == net::kNoKind) kind = net::InternKind(msg.kind);
  s.kind_slot = kind < slot_of_kind_.size() ? slot_of_kind_[kind] : kOtherSlot;
  if (auto env = mqp::wire::DecodeEnvelope(msg); env.ok()) {
    s.query_id = std::move(env->query_id);
    s.attempt = env->attempt;
  }
  if (s.kind_slot == kMqpSlot) MaybeCapture(msg);

  net::NetStats& shard = inner_->stats();  // this thread's shard
  const uint64_t decode0 = shard.plan_decode_ns;
  const uint64_t eval0 = shard.engine_eval_ns;
  const uint64_t ser0 = shard.plan_serializations;
  b.open.push_back({s.id, &s.query_id, s.attempt});
  s.start_ns = NowNs();
  node->HandleMessage(msg);
  s.end_ns = NowNs();
  b.open.pop_back();
  s.decode_ns = shard.plan_decode_ns - decode0;
  s.eval_ns = shard.engine_eval_ns - eval0;
  s.serializations = shard.plan_serializations - ser0;
  b.spans.push_back(std::move(s));
}

void TracingTransport::Send(net::Message msg) {
  ThreadBuffer& b = Buffer();
  if (!b.open.empty()) {
    const uint64_t key = MessageKey(msg);
    std::lock_guard<std::mutex> lk(parents_mu_);
    parents_[key].push_back(b.open.back().id);
  }
  inner_->Send(std::move(msg));
}

std::function<void()> TracingTransport::WrapTimer(std::function<void()> fn) {
  ThreadBuffer& b = Buffer();
  uint64_t parent = 0;
  std::string query_id;
  uint32_t attempt = 0;
  if (!b.open.empty()) {
    parent = b.open.back().id;
    query_id = *b.open.back().query_id;
    attempt = b.open.back().attempt;
  }
  return [this, parent, query_id = std::move(query_id), attempt,
          fn = std::move(fn)]() {
    ThreadBuffer& tb = Buffer();
    Span s;
    s.type = SpanType::kTimer;
    s.id = NextId();
    s.parent = parent;
    s.query_id = query_id;
    s.attempt = attempt;
    s.thread = tb.index;
    tb.open.push_back({s.id, &s.query_id, attempt});
    s.start_ns = NowNs();
    fn();
    s.end_ns = NowNs();
    tb.open.pop_back();
    tb.spans.push_back(std::move(s));
  };
}

void TracingTransport::Schedule(double when, std::function<void()> fn) {
  inner_->Schedule(when, WrapTimer(std::move(fn)));
}

void TracingTransport::ScheduleFor(net::PeerId owner, double when,
                                   std::function<void()> fn) {
  inner_->ScheduleFor(owner, when, WrapTimer(std::move(fn)));
}

size_t TracingTransport::Run(double max_time) {
  ThreadBuffer& b = Buffer();
  run_thread_ = b.index;
  Span s;
  s.type = SpanType::kRun;
  s.id = NextId();
  s.thread = b.index;
  s.start_ns = NowNs();
  const size_t events = inner_->Run(max_time);
  s.end_ns = NowNs();
  events_ += events;
  b.spans.push_back(std::move(s));
  return events;
}

TraceSummary TracingTransport::Summarize() const {
  TraceSummary sum;
  sum.worker_threads = workers_;
  sum.events = events_;
  std::lock_guard<std::mutex> lk(buffers_mu_);
  // Run() windows, for checking that other threads' spans fall inside.
  std::vector<std::pair<int64_t, int64_t>> windows;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      if (s.type == SpanType::kRun) windows.push_back({s.start_ns, s.end_ns});
    }
  }
  std::sort(windows.begin(), windows.end());
  for (const auto& buffer : buffers_) {
    std::vector<const Span*> runs;
    std::vector<const Span*> inner;
    for (const Span& s : buffer->spans) {
      ++sum.spans;
      const uint64_t ns = static_cast<uint64_t>(s.end_ns - s.start_ns);
      if (s.type == SpanType::kRun) {
        ++sum.run_calls;
        sum.run_ns += ns;
        runs.push_back(&s);
        continue;
      }
      if (s.type == SpanType::kTimer) {
        ++sum.timer_calls;
        sum.timer_ns += ns;
      } else {
        TraceSummary::KindTotals& k = sum.kinds[s.kind_slot];
        ++k.calls;
        k.ns += ns;
        k.decode_ns += s.decode_ns;
        k.eval_ns += s.eval_ns;
        k.serializations += s.serializations;
      }
      if (s.thread != run_thread_) {
        sum.busy_ns_off_run_thread += ns;
        // A worker span must lie inside some Run() window.
        auto w = std::upper_bound(windows.begin(), windows.end(),
                                  std::make_pair(s.start_ns, INT64_MAX));
        const bool inside = w != windows.begin() &&
                            s.end_ns <= std::prev(w)->second;
        if (!inside) sum.off_thread_outside_run_ns += ns;
      }
      inner.push_back(&s);
    }
    // Self time of each Run(): its wall minus the handler/timer spans it
    // encloses on the same thread. Those spans must not overlap each
    // other — an overlap would mean double-counted time.
    auto by_start = [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    };
    std::sort(inner.begin(), inner.end(), by_start);
    for (size_t i = 1; i < inner.size(); ++i) {
      if (inner[i]->start_ns < inner[i - 1]->end_ns) ++sum.overlapping_spans;
    }
    std::sort(runs.begin(), runs.end(), by_start);
    size_t j = 0;
    for (const Span* run : runs) {
      uint64_t covered = 0;
      while (j < inner.size() && inner[j]->start_ns < run->start_ns) ++j;
      while (j < inner.size() && inner[j]->end_ns <= run->end_ns) {
        covered += static_cast<uint64_t>(inner[j]->end_ns - inner[j]->start_ns);
        ++j;
      }
      const uint64_t wall = static_cast<uint64_t>(run->end_ns - run->start_ns);
      if (wall >= covered) {
        sum.run_self_ns += wall - covered;
      } else {
        sum.run_overcovered_ns += covered - wall;
      }
    }
  }

  // Encode replay: each sampled mqp body is parsed, its wire cache
  // dropped, and re-serialized through the plan codec.
  std::vector<net::Payload> samples;
  {
    std::lock_guard<std::mutex> clk(capture_mu_);
    samples = captured_;
  }
  uint64_t encode_ns = 0;
  for (const net::Payload& body : samples) {
    auto plan = mqp::wire::ParsePlanShared(body);
    if (!plan.ok()) continue;
    plan->AttachWireCache(nullptr);
    const int64_t t0 = SteadyNs();
    auto out = mqp::wire::SerializePlanShared(*plan);
    encode_ns += static_cast<uint64_t>(SteadyNs() - t0);
    if (out.bytes != nullptr) ++sum.encode_samples;
  }
  if (sum.encode_samples > 0) {
    sum.encode_ns_per_serialization =
        static_cast<double>(encode_ns) / static_cast<double>(sum.encode_samples);
  }
  return sum;
}

bool TracingTransport::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  std::string line;
  std::lock_guard<std::mutex> lk(buffers_mu_);
  // Keep the file loadable: only the earliest kMaxTraceEvents spans (by
  // start time, across threads) are written.
  std::vector<int64_t> starts;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) starts.push_back(s.start_ns);
  }
  int64_t cutoff = INT64_MAX;
  if (starts.size() > kMaxTraceEvents) {
    std::nth_element(starts.begin(), starts.begin() + kMaxTraceEvents, starts.end());
    cutoff = starts[kMaxTraceEvents];
  }
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      if (s.start_ns >= cutoff) continue;
      line.clear();
      if (!first) line += ",\n";
      first = false;
      const char* name = s.type == SpanType::kRun     ? "Run"
                         : s.type == SpanType::kTimer ? "timer"
                                                      : kTracedKinds[s.kind_slot];
      const char* cat = s.type == SpanType::kRun     ? "net"
                        : s.type == SpanType::kTimer ? "timer"
                                                     : "peer";
      char head[256];
      std::snprintf(head, sizeof(head),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu,\"attempt\":%u,\"peer\":%d,\"qid\":",
                    name, cat, static_cast<unsigned>(s.thread),
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent), s.attempt,
                    s.peer == net::kNoPeer ? -1 : static_cast<int>(s.peer));
      line += head;
      AppendJsonString(&line, s.query_id);
      line += "}}";
      if (std::fputs(line.c_str(), f) < 0) {
        std::fclose(f);
        return false;
      }
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
