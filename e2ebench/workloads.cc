#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "mqp/mqp.h"

namespace e2ebench {

namespace {

using mqp::algebra::ItemSet;
using mqp::algebra::Plan;
using mqp::peer::Peer;
using mqp::peer::QueryOutcome;
namespace ns = mqp::ns;
namespace workload = mqp::workload;

// --- shared helpers ------------------------------------------------------------

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Sorted, de-duplicated structural hashes: the set an answer denotes.
std::vector<uint64_t> HashSet(const ItemSet& items) {
  std::vector<uint64_t> h;
  h.reserve(items.size());
  for (const auto& item : items) h.push_back(mqp::xml::StructuralHash(*item));
  std::sort(h.begin(), h.end());
  h.erase(std::unique(h.begin(), h.end()), h.end());
  return h;
}

bool IsSubset(const std::vector<uint64_t>& sub,
              const std::vector<uint64_t>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

double Price(const mqp::xml::Node& item) {
  return std::stod(item.ChildText("price"));
}

/// Hands out a pool's entries in a seeded random order, every entry once
/// per pass, so each area is queried equally often in any long window and
/// the query mix does not drift with the seed.
template <typename T>
class Cycle {
 public:
  Cycle(std::vector<T> pool, mqp::Rng* rng) : pool_(std::move(pool)), rng_(rng) {}
  const T& Next() {
    if (pos_ == order_.size()) {
      order_.resize(pool_.size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      rng_->Shuffle(&order_);
      pos_ = 0;
    }
    return pool_[order_[pos_++]];
  }

 private:
  std::vector<T> pool_;
  mqp::Rng* rng_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
};

/// What a query callback keeps: timing, the outcome flags and the
/// returned items. The callback runs inside the measured phase, so it
/// only copies pointers; Digest turns the items into a hash set later,
/// with the clock stopped.
struct Answer {
  bool returned = false;
  bool complete = false;
  uint32_t attempts = 0;
  double submitted_at = 0;
  double completed_at = 0;
  int64_t t0_ns = 0;  ///< when the query was due (submitted)
  int64_t t1_ns = 0;  ///< when its callback ran
  size_t item_count = 0;
  ItemSet items;                 ///< until digested
  std::vector<uint64_t> hashes;  ///< HashSet of the returned items
};

void Keep(Answer* a, const QueryOutcome& o) {
  a->t1_ns = SteadyNs();
  a->returned = true;
  a->complete = o.complete;
  a->attempts = o.attempts;
  a->submitted_at = o.submitted_at;
  a->completed_at = o.completed_at;
  a->item_count = o.items.size();
  a->items = o.items;
}

/// Hashes the items of answers [begin, end) that have returned and
/// releases them, so a run holds at most one chunk of decoded results.
/// Call only while the backend is quiescent (between Run() calls).
void Digest(std::vector<Answer>* answers, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    Answer& a = (*answers)[i];
    if (a.items.empty()) continue;
    a.hashes = HashSet(a.items);
    ItemSet().swap(a.items);
  }
}

/// Oracle verdict for one answer.
enum class Verdict { kComplete, kPartial, kWrong, kLost };

/// Folds answers and their verdicts into the result counters, the
/// percentile samples and the determinism fingerprint.
void Tally(const std::vector<Answer>& answers,
           const std::vector<Verdict>& verdicts, bool keep_latency,
           RunResult* r) {
  uint64_t fp = r->fingerprint == 0 ? 1469598103934665603ULL : r->fingerprint;
  for (size_t i = 0; i < answers.size(); ++i) {
    const Answer& a = answers[i];
    ++r->submitted;
    if (a.returned) ++r->returned;
    r->attempts += a.attempts;
    r->result_items += a.item_count;
    switch (verdicts[i]) {
      case Verdict::kComplete:
        // Timing percentiles cover answered queries; the rest show in
        // complete_pct (a query that gives up returns exactly at its
        // deadline, which would only restate the deadline).
        ++r->complete;
        r->wall_ms.push_back(static_cast<double>(a.t1_ns - a.t0_ns) / 1e6);
        if (keep_latency) r->latency_s.push_back(a.completed_at - a.submitted_at);
        break;
      case Verdict::kPartial:
        break;
      case Verdict::kWrong:
        ++r->wrong;
        break;
      case Verdict::kLost:
        r->errors.push_back("query " + std::to_string(i) + " never returned");
        break;
    }
    fp = Mix(fp, static_cast<uint64_t>(verdicts[i]));
    fp = Mix(fp, a.attempts);
    fp = Mix(fp, DoubleBits(a.completed_at - a.submitted_at));
    for (uint64_t h : a.hashes) fp = Mix(fp, h);
  }
  r->fingerprint = fp;
}

/// Bytes of the kinds that maintain catalogs (sync-digest, sync-delta,
/// register) and of everything else, the query traffic.
struct Traffic {
  uint64_t query_bytes = 0;
  uint64_t query_messages = 0;
  uint64_t sync_bytes = 0;
};

Traffic SplitTraffic(const net::NetStats& st) {
  Traffic t;
  uint64_t sync_messages = 0;
  for (const char* kind : {mqp::wire::kSyncDigestKind, mqp::wire::kSyncDeltaKind,
                           mqp::wire::kRegisterKind}) {
    auto b = st.bytes_by_kind.find(kind);
    if (b != st.bytes_by_kind.end()) t.sync_bytes += b->second;
    auto m = st.messages_by_kind.find(kind);
    if (m != st.messages_by_kind.end()) sync_messages += m->second;
  }
  t.query_bytes = st.bytes - t.sync_bytes;
  t.query_messages = st.messages - sync_messages;
  return t;
}

/// Fills the traffic figures from r->stats and folds the totals into the
/// fingerprint.
void FillTraffic(RunResult* r) {
  const Traffic t = SplitTraffic(r->stats);
  r->query_bytes = t.query_bytes;
  r->query_messages = t.query_messages;
  r->sync_bytes = t.sync_bytes;
  r->fingerprint = Mix(Mix(r->fingerprint, r->stats.bytes), r->stats.messages);
}

/// Runs `build` `reps` times, timing each; keeps the last world built.
/// The workloads spread these calls over the whole run: samples taken in
/// one burst would all follow the host's speed at that moment, which
/// drifts on a scale of seconds.
template <typename World, typename Build>
std::unique_ptr<World> TimedSetup(size_t reps, RunResult* r, Build build) {
  std::unique_ptr<World> world;
  for (size_t i = 0; i < reps; ++i) {
    world.reset();  // tear the previous one down outside the timed region
    const int64_t t0 = SteadyNs();
    world = build();
    r->setup_s.push_back(static_cast<double>(SteadyNs() - t0) / 1e9);
  }
  return world;
}

/// Builds `samples` throwaway worlds, timed as set-up samples, spread
/// evenly over the `pauses` expected pauses of the measured phase (the
/// build runs with the measured clock stopped). Finish() takes whatever
/// is left.
template <typename World, typename Build>
class SetupSampler {
 public:
  SetupSampler(size_t samples, size_t pauses, RunResult* r, Build build)
      : samples_(samples), pauses_(std::max<size_t>(1, pauses)), r_(r), build_(build) {}
  void Pause() { Take(std::min(samples_, ++seen_ * samples_ / pauses_)); }
  void Finish() { Take(samples_); }

 private:
  void Take(size_t due) {
    if (due > taken_) TimedSetup<World>(due - taken_, r_, build_);
    taken_ = std::max(taken_, due);
  }
  size_t samples_;
  size_t pauses_;
  RunResult* r_;
  Build build_;
  size_t seen_ = 0;
  size_t taken_ = 0;
};

/// Marks the start of the measured phase: set-up spans and counters are
/// dropped so every figure covers the measured queries only.
void StartMeasuring(TracingTransport* tracer, net::NetStats& shard) {
  if (tracer != nullptr) tracer->Reset();
  shard.Clear();
}

/// Adds the wall and CPU time since construction to the measured phase.
struct Stopwatch {
  int64_t wall0 = SteadyNs();
  double cpu0 = CpuSeconds();
  void Stop(RunResult* r) const {
    r->measured_wall_s += static_cast<double>(SteadyNs() - wall0) / 1e9;
    r->cpu_s += CpuSeconds() - cpu0;
  }
};

/// Closed loop with one client over queries [begin, end) of `answers`:
/// query i+1 is submitted (as a timer at the current virtual time) when
/// query i's callback runs.
void RunClosedLoop(net::Transport* t, Peer* client, size_t begin, size_t end,
                   const std::function<Plan(size_t)>& plan_for,
                   std::vector<Answer>* answers) {
  size_t next = begin;
  std::function<void()> submit = [&]() {
    const size_t i = next++;
    Answer* a = &(*answers)[i];
    a->t0_ns = SteadyNs();
    client->SubmitQuery(plan_for(i), [&, a](const QueryOutcome& o) {
      Keep(a, o);
      if (next < end) t->Schedule(t->now(), submit);
    });
  };
  if (begin < end) t->Schedule(t->now(), submit);
  t->Run();
}

// --- garage_scan ---------------------------------------------------------------

constexpr size_t kGarageSellers = 64;
constexpr size_t kGarageItemsPerSeller = 8;
/// The garage-sale networks are fixed (the generator's seed is a
/// constant): the benchmark seed drives the query stream and, on
/// churn_faults, the fault coins.
constexpr uint64_t kGarageNetworkSeed = 42;
/// Measured queries per requested second (sizes a run to about
/// `--seconds` of measurement on a 4-core x86 host).
constexpr double kGarageQueriesPerSecond = 90;
/// The closed loop pauses every this many queries to digest the answers
/// (a result item keeps its whole decoded message alive until then).
constexpr size_t kGarageChunk = 10;

struct GarageQuery {
  ns::InterestArea area;
  bool has_predicate = false;
  int max_price = 0;

  Plan ToPlan() const {
    return workload::MakeAreaQueryPlan(
        area, has_predicate
                  ? mqp::algebra::FieldLess("price", std::to_string(max_price))
                  : nullptr);
  }
  bool Matches(const mqp::xml::Node& item) const {
    return workload::GarageSaleGenerator::ItemInArea(item, area) &&
           (!has_predicate || Price(item) < max_price);
  }
};

/// Location paths of the garage-sale namespace, by breadth.
struct GarageLocations {
  std::vector<ns::CategoryPath> countries, states, cities;
  GarageLocations() {
    const ns::MultiHierarchy h = ns::MakeGarageSaleNamespace();
    cities = h.dimension(0).Leaves();
    for (const auto& c : cities) {
      if (std::find(states.begin(), states.end(), c.Parent()) == states.end()) {
        states.push_back(c.Parent());
      }
    }
    for (const auto& s : states) {
      if (std::find(countries.begin(), countries.end(), s.Parent()) ==
          countries.end()) {
        countries.push_back(s.Parent());
      }
    }
  }
};

ns::InterestArea LocationArea(const ns::CategoryPath& loc) {
  return ns::InterestArea(ns::InterestCell({loc, ns::CategoryPath()}));
}

/// Blocks of twenty queries in seeded order: two scans of each country,
/// eight state and eight city queries (locations drawn uniformly); exactly
/// half of every breadth carries `price < X` with X uniform in [20, 180].
/// Fixed per-block shares keep the p95 rank at the same place in the cost
/// distribution whatever the seed: the top 5% are the unfiltered USA
/// scans (which trip the 4 s retry timeout), and p95 is the dearest
/// filtered USA scan.
std::vector<GarageQuery> GarageQueries(uint64_t seed, size_t n) {
  static const GarageLocations locs;
  mqp::Rng rng(seed);
  auto pick = [&](const std::vector<ns::CategoryPath>& pool) {
    return LocationArea(pool[rng.NextBelow(pool.size())]);
  };
  auto price = [&] { return 20 + static_cast<int>(rng.NextBelow(161)); };
  std::vector<GarageQuery> out;
  while (out.size() < n) {
    std::vector<GarageQuery> block;
    for (bool filtered : {false, true}) {
      for (const auto& country : locs.countries) {
        block.push_back({LocationArea(country), filtered, price()});
      }
      for (int k = 0; k < 4; ++k) {
        block.push_back({pick(locs.states), filtered, price()});
        block.push_back({pick(locs.cities), filtered, price()});
      }
    }
    rng.Shuffle(&block);
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(n);
  return out;
}

/// Warm-up: one unfiltered query per state, the same for every seed.
std::vector<GarageQuery> GarageWarmup() {
  static const GarageLocations locs;
  std::vector<GarageQuery> out;
  for (const auto& state : locs.states) out.push_back({LocationArea(state), false, 0});
  return out;
}

struct GarageWorld {
  std::unique_ptr<net::Simulator> sim;
  std::unique_ptr<TracingTransport> tracer;
  net::Transport* t = nullptr;
  workload::GarageSaleNetwork net;
};

RunResult RunGarageScan(const Options& o) {
  RunResult r;
  r.workload = o.workload;
  r.traced = o.trace;
  const size_t n = std::max<size_t>(
      20, static_cast<size_t>(std::lround(o.seconds * kGarageQueriesPerSecond)));
  const auto warmup = GarageWarmup();
  const auto queries = GarageQueries(o.seed * 0x9e3779b97f4a7c15ULL + 1, n);

  const size_t setup_reps = o.setup_reps > 0 ? o.setup_reps : 25;
  auto build = [&] {
        auto w = std::make_unique<GarageWorld>();
        w->sim = std::make_unique<net::Simulator>();
        w->t = w->sim.get();
        if (o.trace) {
          w->tracer = std::make_unique<TracingTransport>(w->sim.get(), 1);
          w->t = w->tracer.get();
        }
        workload::GarageSaleNetworkParams p;
        p.num_sellers = kGarageSellers;
        p.items_per_seller = kGarageItemsPerSeller;
        p.seed = kGarageNetworkSeed;
        w->net = workload::BuildGarageSaleNetwork(w->t, p);
        std::vector<Answer> scratch(warmup.size());
        RunClosedLoop(w->t, w->net.client, 0, warmup.size(),
                      [&](size_t i) { return warmup[i].ToPlan(); }, &scratch);
        return w;
      };
  // The measured world is the first set-up; the other set-up samples are
  // throwaway worlds built at evenly spaced pauses of the measured phase.
  auto world = TimedSetup<GarageWorld>(1, &r, build);
  net::Transport* t = world->t;
  StartMeasuring(world->tracer.get(), t->stats());

  std::vector<Answer> answers(n);
  const double v0 = t->now();
  const size_t chunks = (n + kGarageChunk - 1) / kGarageChunk;
  SetupSampler<GarageWorld, decltype(build)> sampler(setup_reps - 1, chunks, &r, build);
  for (size_t begin = 0; begin < n; begin += kGarageChunk) {
    const size_t end = std::min(n, begin + kGarageChunk);
    Stopwatch watch;
    RunClosedLoop(t, world->net.client, begin, end,
                  [&](size_t i) { return queries[i].ToPlan(); }, &answers);
    watch.Stop(&r);
    Digest(&answers, begin, end);
    sampler.Pause();
  }
  sampler.Finish();
  r.virtual_s = t->now() - v0;

  // Oracle: set equality with the generator's items filtered by area and
  // predicate (the price test is re-derived here, not taken from the
  // library's expression evaluator).
  std::vector<Verdict> verdicts(n);
  for (size_t i = 0; i < n; ++i) {
    ItemSet expected;
    for (const auto& item : world->net.all_items) {
      if (queries[i].Matches(*item)) expected.push_back(item);
    }
    const auto want = HashSet(expected);
    const auto& got = answers[i].hashes;
    if (!answers[i].returned) {
      verdicts[i] = Verdict::kLost;
    } else if (answers[i].complete) {
      verdicts[i] = got == want ? Verdict::kComplete : Verdict::kWrong;
    } else {
      verdicts[i] = IsSubset(got, want) ? Verdict::kPartial : Verdict::kWrong;
    }
    if (verdicts[i] == Verdict::kWrong) {
      r.errors.push_back("garage query " + std::to_string(i) + " (" +
                         queries[i].area.ToString() + ") returned " +
                         std::to_string(got.size()) + " items, expected " +
                         std::to_string(want.size()));
    }
  }
  Tally(answers, verdicts, /*keep_latency=*/true, &r);
  r.stats = std::as_const(*t).stats();
  FillTraffic(&r);
  if (world->net.client->pending_queries() != 0) {
    r.errors.push_back("client leaked pending queries at drain");
  }
  if (world->tracer) r.trace = world->tracer->Summarize();
  if (world->tracer && !o.trace_path.empty()) {
    world->tracer->WriteChromeTrace(o.trace_path);
  }
  return r;
}

// --- superpeer_lookup ----------------------------------------------------------

constexpr size_t kSupers = 16;
constexpr size_t kLeavesPerSuper = 128;
constexpr size_t kCitiesPerSuper = 16;
constexpr size_t kSuperCategories = 8;
constexpr size_t kItemsPerLeaf = 8;
constexpr size_t kRuntimeWorkers = 3;
constexpr size_t kTopK = 10;
constexpr size_t kSuperWarmup = 64;
/// Open-loop arrivals: Poisson at this rate per virtual second; arrivals
/// in the same virtual tick are submitted together (one timer batch).
constexpr double kArrivalsPerVirtualSecond = 400;
constexpr double kArrivalTick = 0.025;
constexpr double kSuperQueriesPerSecond = 900;
/// Run() pauses about every this many arrivals to digest the answers.
constexpr size_t kSuperChunk = 20;
/// Share of the measured stream replayed on the simulator, and how close
/// its traffic must be to the threaded runtime's for the same queries.
constexpr double kReplayShare = 0.1;
constexpr double kReplayBytesTolerance = 0.05;

struct SuperQuery {
  bool topk = false;
  size_t region = 0;
  size_t city = 0;
  double at = 0;  ///< virtual offset from the stream's start

  Plan ToPlan() const {
    if (topk) {
      return workload::MakeTopKQueryPlan(workload::SuperPeerRegion(region),
                                         "price", /*ascending=*/true, kTopK);
    }
    return workload::MakeAreaQueryPlan(workload::SuperPeerCity(region, city));
  }
};

/// Poisson arrivals; in every block of eight queries one (at a seeded
/// position) is a top-10 region ranking and the rest are city lookups.
/// Lookups cycle through the 256 cities and rankings through the 16
/// regions in seeded order.
std::vector<SuperQuery> SuperQueries(uint64_t seed, size_t n) {
  mqp::Rng rng(seed);
  std::vector<std::pair<size_t, size_t>> city_pool;
  std::vector<std::pair<size_t, size_t>> region_pool;
  for (size_t r = 0; r < kSupers; ++r) {
    region_pool.push_back({r, 0});
    for (size_t c = 0; c < kCitiesPerSuper; ++c) city_pool.push_back({r, c});
  }
  Cycle<std::pair<size_t, size_t>> cities(city_pool, &rng);
  Cycle<std::pair<size_t, size_t>> regions(region_pool, &rng);
  std::vector<SuperQuery> out(n);
  double t = 0;
  size_t topk_slot = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i % 8 == 0) topk_slot = rng.NextBelow(8);
    SuperQuery& q = out[i];
    t += -std::log(1.0 - rng.NextDouble()) / kArrivalsPerVirtualSecond;
    q.at = std::ceil(t / kArrivalTick) * kArrivalTick;
    q.topk = i % 8 == topk_slot;
    const auto& [region, city] = q.topk ? regions.Next() : cities.Next();
    q.region = region;
    q.city = city;
  }
  return out;
}

/// Schedules queries [begin, end) as an open loop starting at virtual
/// time `base`: one timer per arrival tick submits every query due then,
/// and each query's wall time counts from the moment its tick fired.
void ScheduleOpenLoop(net::Transport* t, Peer* client,
                      const std::vector<SuperQuery>& qs, size_t begin,
                      size_t end, double base, std::vector<Answer>* answers) {
  size_t i = begin;
  while (i < end) {
    size_t j = i;
    while (j < end && qs[j].at == qs[i].at) ++j;
    t->Schedule(base + qs[i].at, [client, &qs, answers, i, j] {
      const int64_t due = SteadyNs();
      for (size_t k = i; k < j; ++k) {
        Answer* a = &(*answers)[k];
        a->t0_ns = due;
        client->SubmitQuery(qs[k].ToPlan(),
                            [a](const QueryOutcome& o) { Keep(a, o); });
      }
    });
    i = j;
  }
}

/// Ground truth from the leaves' published data: item hashes per city,
/// and per region the prices in ascending order plus each item's price.
struct SuperTruth {
  std::map<std::string, std::vector<uint64_t>> city;
  std::vector<std::vector<double>> region_prices;
  std::vector<std::map<uint64_t, double>> region_items;

  explicit SuperTruth(const workload::SuperPeerNetwork& net)
      : region_prices(kSupers), region_items(kSupers) {
    for (Peer* leaf : net.leaves) {
      for (const auto& item : leaf->store().ItemsOf("c0")) {
        const std::string loc = item->ChildText("location");
        const uint64_t h = mqp::xml::StructuralHash(*item);
        city[loc].push_back(h);
        const size_t r = std::stoul(loc.substr(1, loc.find('/') - 1));
        region_prices[r].push_back(Price(*item));
        region_items[r][h] = Price(*item);
      }
    }
    for (auto& [loc, hashes] : city) std::sort(hashes.begin(), hashes.end());
    for (auto& prices : region_prices) std::sort(prices.begin(), prices.end());
  }

  Verdict Check(const SuperQuery& q, const Answer& a) const {
    if (!a.returned) return Verdict::kLost;
    if (!a.complete) return Verdict::kPartial;
    if (!q.topk) {
      auto it = city.find("r" + std::to_string(q.region) + "/c" +
                          std::to_string(q.city));
      const std::vector<uint64_t> none;
      return a.hashes == (it == city.end() ? none : it->second)
                 ? Verdict::kComplete
                 : Verdict::kWrong;
    }
    // Top-k: k distinct items of the region whose prices are the region's
    // k lowest.
    const auto& prices = region_prices[q.region];
    const size_t k = std::min(kTopK, prices.size());
    if (a.item_count != k || a.hashes.size() != k) return Verdict::kWrong;
    std::vector<double> got;
    for (uint64_t h : a.hashes) {
      auto it = region_items[q.region].find(h);
      if (it == region_items[q.region].end()) return Verdict::kWrong;
      got.push_back(it->second);
    }
    std::sort(got.begin(), got.end());
    return std::equal(got.begin(), got.end(), prices.begin()) ? Verdict::kComplete
                                                              : Verdict::kWrong;
  }
};

workload::SuperPeerNetworkParams SuperParams(uint64_t seed) {
  workload::SuperPeerNetworkParams p;
  p.num_super_peers = kSupers;
  p.leaves_per_super = kLeavesPerSuper;
  p.cities_per_super = kCitiesPerSuper;
  p.categories = kSuperCategories;
  p.items_per_leaf = kItemsPerLeaf;
  p.seed = seed;
  return p;
}

struct SuperWorld {
  std::unique_ptr<mqp::runtime::ThreadedRuntime> rt;
  std::unique_ptr<TracingTransport> tracer;
  net::Transport* t = nullptr;
  workload::SuperPeerNetwork net;
  ~SuperWorld() {
    if (rt) rt->Shutdown();
  }
};

/// Runs the warm-up stream as an open loop and drains it.
void SuperWarmup(net::Transport* t, Peer* client,
                 const std::vector<SuperQuery>& warmup) {
  std::vector<Answer> scratch(warmup.size());
  ScheduleOpenLoop(t, client, warmup, 0, warmup.size(), std::ceil(t->now()),
                   &scratch);
  t->Run();
}

RunResult RunSuperPeerLookup(const Options& o) {
  RunResult r;
  r.workload = o.workload;
  r.traced = o.trace;
  r.simulated = false;
  const size_t n = std::max<size_t>(
      8, static_cast<size_t>(std::lround(o.seconds * kSuperQueriesPerSecond)));
  // The warm-up stream is the same for every seed.
  const auto warmup = SuperQueries(0x5bd1e995ULL, kSuperWarmup);
  const auto queries = SuperQueries(o.seed * 0x9e3779b97f4a7c15ULL + 3, n);
  // Run() pauses at chunk ends to digest the answers. Chunk ends fall on
  // tick boundaries, so a pause sees every query of the chunk answered.
  // The replayed prefix ends at one of them: the runtime's traffic
  // snapshot there covers exactly the replayed queries.
  auto tick_end = [&](size_t end) {
    end = std::min(n, std::max<size_t>(1, end));
    while (end < n && queries[end].at == queries[end - 1].at) ++end;
    return end;
  };
  const size_t prefix =
      tick_end(static_cast<size_t>(static_cast<double>(n) * kReplayShare));
  std::vector<size_t> ends;
  for (size_t end = 0; end < n;) {
    const size_t next = tick_end(end + kSuperChunk);
    end = end < prefix && next > prefix ? prefix : next;
    ends.push_back(end);
  }
  // Runs `tr` up to chunk end `end` of a stream of `limit` queries
  // scheduled at `base`; the last chunk runs until quiescent.
  auto run_chunk = [&](net::Transport* tr, double base, size_t end, size_t limit) {
    if (end < limit) {
      tr->Run(base + queries[end - 1].at);
    } else {
      tr->Run();
    }
  };

  const size_t setup_reps = o.setup_reps > 0 ? o.setup_reps : 6;
  auto build = [&] {
        auto w = std::make_unique<SuperWorld>();
        mqp::runtime::RuntimeOptions ro;
        ro.num_threads = kRuntimeWorkers;
        w->rt = std::make_unique<mqp::runtime::ThreadedRuntime>(ro);
        w->t = w->rt.get();
        if (o.trace) {
          w->tracer = std::make_unique<TracingTransport>(w->rt.get(),
                                                         kRuntimeWorkers);
          w->t = w->tracer.get();
        }
        w->net = workload::BuildSuperPeerNetwork(w->t, SuperParams(o.seed));
        SuperWarmup(w->t, w->net.client, warmup);
        return w;
      };
  // Half the set-ups are timed before the measured phase and the rest
  // after it (two runtimes of this size should not coexist).
  auto world = TimedSetup<SuperWorld>((setup_reps + 1) / 2, &r, build);
  net::Transport* t = world->t;
  if (world->tracer) world->tracer->Reset();
  world->rt->ClearStats();

  std::vector<Answer> answers(n);
  const double base = std::ceil(t->now()) + 1;
  ScheduleOpenLoop(t, world->net.client, queries, 0, n, base, &answers);
  const double v0 = t->now();
  net::NetStats prefix_stats;
  for (size_t end : ends) {
    Stopwatch watch;
    run_chunk(t, base, end, n);
    watch.Stop(&r);
    // Quiescent here, so the merged view is exact.
    if (end == prefix) prefix_stats = std::as_const(*t).stats();
    // A query retried past the pause returns later; digest it then.
    Digest(&answers, 0, end);
  }
  r.virtual_s = t->now() - v0;

  const SuperTruth truth(world->net);
  std::vector<Verdict> verdicts(n);
  for (size_t i = 0; i < n; ++i) {
    verdicts[i] = truth.Check(queries[i], answers[i]);
    if (verdicts[i] == Verdict::kWrong) {
      r.errors.push_back("superpeer query " + std::to_string(i) +
                         (queries[i].topk ? " (top-k)" : " (lookup)") +
                         " returned a wrong answer");
    }
  }
  // The runtime delivers at the virtual time of send, so its latency is
  // always 0; latency_s comes from the simulator replay below.
  Tally(answers, verdicts, /*keep_latency=*/false, &r);
  r.stats = std::as_const(*t).stats();  // merged view, never one shard
  FillTraffic(&r);
  if (world->net.client->pending_queries() != 0) {
    r.errors.push_back("client leaked pending queries at drain");
  }
  for (const auto& p : world->net.owned) {
    if (p->topk_sessions() != 0) {
      r.errors.push_back("top-k session leaked at " + p->options().name);
      break;
    }
  }
  if (world->tracer) r.trace = world->tracer->Summarize();
  if (world->tracer && !o.trace_path.empty()) {
    world->tracer->WriteChromeTrace(o.trace_path);
  }
  world.reset();

  // Simulator replay of the prefix: the same network, warm-up and
  // arrival times. Its traffic must match the runtime's for the same
  // queries, and it supplies the virtual response times. (A traced run
  // reports per-layer figures only and skips it.)
  if (!o.trace) {
    net::Simulator sim;
    auto net = workload::BuildSuperPeerNetwork(&sim, SuperParams(o.seed));
    SuperWarmup(&sim, net.client, warmup);
    sim.stats().Clear();
    std::vector<Answer> replay(prefix);
    const double sim_base = std::ceil(sim.now()) + 1;
    ScheduleOpenLoop(&sim, net.client, queries, 0, prefix, sim_base, &replay);
    for (size_t end : ends) {
      if (end > prefix) break;
      run_chunk(&sim, sim_base, end, prefix);
      Digest(&replay, 0, end);
    }
    const SuperTruth sim_truth(net);
    for (size_t i = 0; i < prefix; ++i) {
      const Verdict v = sim_truth.Check(queries[i], replay[i]);
      if (v == Verdict::kComplete) {
        r.latency_s.push_back(replay[i].completed_at - replay[i].submitted_at);
      } else {
        r.errors.push_back("simulator replay of query " + std::to_string(i) +
                           " did not return a verified complete answer");
      }
    }
    const double sim_bpq = static_cast<double>(SplitTraffic(sim.stats()).query_bytes);
    const double rt_bpq = static_cast<double>(SplitTraffic(prefix_stats).query_bytes);
    if (rt_bpq <= 0 ||
        std::abs(sim_bpq - rt_bpq) / rt_bpq > kReplayBytesTolerance) {
      r.errors.push_back(
          "threaded-runtime traffic " + std::to_string(rt_bpq / prefix) +
          " B/query differs from the simulator's " +
          std::to_string(sim_bpq / prefix) + " B/query on the same queries");
    }
  }
  TimedSetup<SuperWorld>(setup_reps / 2, &r, build);
  return r;
}

// --- churn_faults --------------------------------------------------------------

constexpr size_t kChurnSellers = 48;
constexpr size_t kChurnItemsPerSeller = 4;
constexpr double kDropRate = 0.05;
/// One episode: a 240 virtual s churn window, then a quiet tail. A run
/// plays one independent episode per kChurnSecondsPerEpisode requested
/// seconds (an episode takes about that long on a 4-core x86 host).
constexpr double kChurnWindow = 240;
constexpr double kChurnSecondsPerEpisode = 4;
constexpr double kChurnQueryInterval = 0.5;
constexpr double kConvergenceTail = 120;
constexpr double kConvergeStep = 0.5;
/// The churn window runs in steps of this many virtual seconds, with the
/// answers digested between steps.
constexpr double kChurnDigestStep = 5;

struct ChurnWorld {
  std::unique_ptr<net::Simulator> sim;
  std::unique_ptr<net::FaultInjector> faults;
  std::unique_ptr<TracingTransport> tracer;
  net::Transport* t = nullptr;
  workload::GarageSaleNetwork net;
  std::unique_ptr<workload::ChurnScenario> scenario;
};

std::unique_ptr<ChurnWorld> BuildChurnWorld(uint64_t seed, uint64_t churn_seed,
                                            bool trace) {
  auto w = std::make_unique<ChurnWorld>();
  w->sim = std::make_unique<net::Simulator>();
  net::FaultPlan plan;
  plan.seed = seed;
  plan.spec.drop_rate = kDropRate;
  w->faults = std::make_unique<net::FaultInjector>(w->sim.get(), plan);
  w->t = w->faults.get();
  if (trace) {
    w->tracer = std::make_unique<TracingTransport>(w->faults.get(), 1);
    w->t = w->tracer.get();
  }
  workload::GarageSaleNetworkParams p;
  p.num_sellers = kChurnSellers;
  p.items_per_seller = kChurnItemsPerSeller;
  p.seed = kGarageNetworkSeed;
  w->net = workload::BuildGarageSaleNetwork(w->t, p);

  workload::ChurnParams c;
  c.seed = churn_seed;
  c.reliable_queries = true;
  c.duration_seconds = kChurnWindow;
  c.event_interval_seconds = 8;
  c.downtime_seconds = 30;
  // The scenario's own fixed-area queries are disabled; the benchmark
  // issues (and checks) its own.
  c.query_interval_seconds = 2 * kChurnWindow;
  c.convergence_tail_seconds = kConvergenceTail;
  c.sync.gossip_interval_seconds = 5;
  c.sync.refresh_interval_seconds = 15;
  c.sync.entry_ttl_seconds = 60;
  w->scenario = std::make_unique<workload::ChurnScenario>(w->t, &w->net, c);
  w->scenario->EnableSyncEverywhere();
  w->faults->Arm();
  return w;
}

/// Plays one episode on a freshly built world and folds it into `r`.
/// `stats` accumulates the episode's counters (merged view). `on_pause`
/// runs, with the clock stopped, at each pause of the churn window.
void RunChurnEpisode(ChurnWorld* world, uint64_t seed, bool first,
                     const Options& o, RunResult* r, net::NetStats* stats,
                     std::vector<double>* converge,
                     const std::function<void()>& on_pause) {
  net::Transport* t = world->t;
  workload::ChurnScenario& scenario = *world->scenario;
  StartMeasuring(world->tracer.get(), t->stats());

  // Reliable state-level queries every 0.5 virtual s through the window:
  // each asks for the area of one of the network's per-state index
  // servers (USA/OR, USA/WA, USA/CA, France), cycling in seeded order.
  mqp::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 5);
  std::vector<ns::InterestArea> state_areas;
  for (const Peer* index : world->net.index_servers) {
    state_areas.push_back(index->options().interest);
  }
  Cycle<ns::InterestArea> states(state_areas, &rng);
  std::vector<ns::InterestArea> areas;
  for (double at = kChurnQueryInterval; at < kChurnWindow;
       at += kChurnQueryInterval) {
    areas.push_back(states.Next());
  }
  const size_t n = areas.size();
  std::vector<Answer> answers(n);
  Peer* client = world->net.client;
  for (size_t i = 0; i < n; ++i) {
    t->Schedule(kChurnQueryInterval * static_cast<double>(i + 1), [&, i] {
      answers[i].t0_ns = SteadyNs();
      client->SubmitQuery(
          workload::MakeAreaQueryPlan(areas[i]),
          [a = &answers[i]](const QueryOutcome& out) { Keep(a, out); });
    });
  }
  scenario.Prepare();

  const double v0 = t->now();
  // Runs to virtual time `until` (to the end when negative) with the clock
  // running; digests the answers and checks convergence with it stopped.
  auto run_to = [&](double until) {
    Stopwatch watch;
    if (until < 0) {
      t->Run();
    } else {
      t->Run(until);
    }
    watch.Stop(r);
    Digest(&answers, 0, n);
  };
  for (double at = v0 + kChurnDigestStep; at < scenario.churn_end();
       at += kChurnDigestStep) {
    run_to(at);
    on_pause();
  }
  run_to(scenario.churn_end());
  double converge_s = -1;
  for (double at = scenario.churn_end(); at <= scenario.horizon();
       at += kConvergeStep) {
    if (at > scenario.churn_end()) run_to(at);
    if (scenario.VectorsConverged()) {
      converge_s = at - scenario.churn_end();
      break;
    }
  }
  run_to(-1);
  r->virtual_s += t->now() - v0;

  // Oracle: any answer (complete or partial) holds only published
  // in-area items; nothing leaks; the catalogs converge.
  std::vector<Verdict> verdicts(n);
  std::map<std::string, std::vector<uint64_t>> published;
  for (size_t i = 0; i < n; ++i) {
    const std::string key = areas[i].ToString();
    if (!published.count(key)) {
      ItemSet in_area;
      for (const auto& item : world->net.all_items) {
        if (workload::GarageSaleGenerator::ItemInArea(*item, areas[i])) {
          in_area.push_back(item);
        }
      }
      published[key] = HashSet(in_area);
    }
    const Answer& a = answers[i];
    if (!a.returned) {
      verdicts[i] = Verdict::kLost;
    } else if (!IsSubset(a.hashes, published[key])) {
      verdicts[i] = Verdict::kWrong;
      r->errors.push_back("churn query " + std::to_string(i) +
                          " returned items outside its published area");
    } else {
      verdicts[i] = a.complete ? Verdict::kComplete : Verdict::kPartial;
    }
  }
  Tally(answers, verdicts, /*keep_latency=*/true, r);
  stats->MergeFrom(std::as_const(*t).stats());
  for (const auto& p : world->net.owned) {
    if (const auto* agent = p->sync()) {
      const auto& c = agent->counters();
      r->sync.digests_sent += c.digests_sent;
      r->sync.deltas_sent += c.deltas_sent;
      r->sync.records_applied += c.records_applied;
    }
    if (p->topk_sessions() != 0) {
      r->errors.push_back("top-k session leaked at " + p->options().name);
    }
  }
  if (client->pending_queries() != 0) {
    r->errors.push_back("client leaked pending queries at drain");
  }
  // Non-convergence is reported, not failed: in the tail every gossip
  // round re-sends byte-identical digests, and the fault plan decides a
  // message's fate by its content, so a peer whose only gossip link
  // drew a drop stays cut off for good (README.md, "Known defects").
  ++r->episodes;
  if (converge_s < 0 || !scenario.VectorsConverged()) {
    ++r->unconverged_episodes;
    converge_s = kConvergenceTail;
  }
  converge->push_back(converge_s);
  r->fingerprint = Mix(r->fingerprint, DoubleBits(converge_s));
  for (char ch : scenario.VectorFingerprint()) {
    r->fingerprint = Mix(r->fingerprint, static_cast<unsigned char>(ch));
  }
  if (world->tracer) r->trace.Add(world->tracer->Summarize());
  if (first && world->tracer && !o.trace_path.empty()) {
    world->tracer->WriteChromeTrace(o.trace_path);
  }
}

RunResult RunChurnFaults(const Options& o) {
  RunResult r;
  r.workload = o.workload;
  r.traced = o.trace;
  const size_t episodes = static_cast<size_t>(
      std::max(1.0, std::round(o.seconds / kChurnSecondsPerEpisode)));
  // Like the network, the churn schedule of episode e is fixed (seeded
  // by e alone); the benchmark seed draws the fault coins and the query
  // order, so runs with different seeds differ in faults, not in the
  // membership history they replay.
  auto episode_seed = [&](size_t e) { return o.seed * 1000003ULL + e; };
  auto churn_seed = [](size_t e) { return 7 + static_cast<uint64_t>(e); };

  // Every episode's world is a set-up sample. The rest are throwaway
  // copies of the first episode's world, built at evenly spaced pauses of
  // the churn windows so the samples span the run.
  const size_t setup_reps = o.setup_reps > 0 ? o.setup_reps : 50;
  auto build_for = [&](size_t e) {
    return [&, e] { return BuildChurnWorld(episode_seed(e), churn_seed(e), o.trace); };
  };
  auto build_first = build_for(0);
  SetupSampler<ChurnWorld, decltype(build_first)> sampler(
      setup_reps - std::min(setup_reps, episodes),
      episodes * static_cast<size_t>(kChurnWindow / kChurnDigestStep), &r,
      build_first);
  net::NetStats stats;
  std::vector<double> converge;
  for (size_t e = 0; e < episodes; ++e) {
    auto world = TimedSetup<ChurnWorld>(1, &r, build_for(e));
    RunChurnEpisode(world.get(), episode_seed(e), e == 0, o, &r, &stats,
                    &converge, [&] { sampler.Pause(); });
  }
  sampler.Finish();
  r.stats = stats;
  FillTraffic(&r);
  std::sort(converge.begin(), converge.end());
  r.converge_s = converge[converge.size() / 2];
  return r;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "garage_scan" || name == "superpeer_lookup" ||
         name == "churn_faults";
}

RunResult RunWorkload(const Options& options) {
  if (options.workload == "garage_scan") return RunGarageScan(options);
  if (options.workload == "superpeer_lookup") return RunSuperPeerLookup(options);
  return RunChurnFaults(options);
}

}  // namespace e2ebench
