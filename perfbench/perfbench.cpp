// Wall-clock serving benchmark: drives BatchScheduler end to end over one
// fixed-size ClusterKV workload and reports host time (drain, per tick,
// set-up, memory) next to the virtual-clock outputs that guard what the
// program computes. Per-layer time is measured from outside the library:
// a forwarding KVSelector decorator installed through the SelectorFactory,
// a timer around each BatchScheduler::tick, an out-of-band timing of the
// ProceduralContextModel constructor, and the public read-outs of
// ServeMetrics, ClusterKVEngine and the worker pool.
//
//   ckv_perfbench --workload chat_decode --seed 7 --seconds 10 --trace 0
//
// prints one JSON object on its last stdout line; a traced run also writes
// its spans to spans_<workload>_<seed>.json next to the binary.
// perfbench/run.py builds this program, runs it and turns that object into
// the benchmark result.
// perfbench/RATIONALE.md explains the workloads and the metric table.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/clusterkv_engine.hpp"
#include "metrics/serve_metrics.hpp"
#include "model/procedural.hpp"
#include "serve/batch_scheduler.hpp"
#include "sim/hardware_model.hpp"
#include "sim/latency_model.hpp"
#include "tensor/rng.hpp"
#include "util/parallel.hpp"

#ifndef CKV_PB_BUILD_TYPE
#define CKV_PB_BUILD_TYPE "unknown"
#endif
#ifndef CKV_PB_LTO
#define CKV_PB_LTO 0
#endif
#ifndef CKV_PB_NATIVE_ARCH
#define CKV_PB_NATIVE_ARCH 0
#endif
#ifndef CKV_PB_COMPILER
#define CKV_PB_COMPILER "unknown"
#endif

namespace {

using namespace ckv;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One fixed-size serving workload. Its trace shape (arrival times,
/// prompt and decode lengths) is one fixed draw per workload; the run's
/// seed drives every procedural KV/query stream and the k-means sampling.
/// Every seed therefore asks for the same schedule of work over different
/// content, and the spread of a metric across seeds is its sensitivity to
/// content, not to the luck of the arrival draw.
struct Workload {
  std::string name;
  Index requests = 0;
  Index prompt_min = 0;
  Index prompt_max = 0;
  Index decode_min = 0;
  Index decode_max = 0;
  double rps = 0.0;               ///< mean Poisson rate; 0 = all at t = 0
  double budget_contexts = 0.0;   ///< fast tier in mean contexts; 0 = unlimited
  double overcommit = 1.0;
  bool transfer_engine = false;
  double link_gbps = 0.0;
};

std::vector<Workload> workloads() {
  Workload chat;
  chat.name = "chat_decode";
  chat.requests = 16;
  chat.prompt_min = 600;
  chat.prompt_max = 1200;
  chat.decode_min = 192;
  chat.decode_max = 256;

  Workload contended;
  contended.name = "contended_tiered";
  contended.requests = 32;
  contended.prompt_min = 150;
  contended.prompt_max = 1800;
  contended.decode_min = 32;
  contended.decode_max = 96;
  contended.rps = 12.0;
  contended.budget_contexts = 1.2;
  contended.overcommit = 2.0;
  contended.transfer_engine = true;
  contended.link_gbps = 2.5;
  return {chat, contended};
}

/// `n` values spread evenly over [lo, hi] (midpoints of n equal strata),
/// in an order drawn from `rng`.
std::vector<Index> stratified_lengths(Index n, Index lo, Index hi, Rng& rng) {
  std::vector<Index> values;
  values.reserve(static_cast<std::size_t>(n));
  const auto order = rng.permutation(n);
  for (const Index slot : order) {
    const double t = (static_cast<double>(slot) + 0.5) / static_cast<double>(n);
    values.push_back(lo + static_cast<Index>(std::lround(t * static_cast<double>(hi - lo))));
  }
  return values;
}

/// Fixed seed of every workload's trace shape.
constexpr std::uint64_t kShapeSeed = 2025;

/// Open-loop arrivals on the virtual clock: exponential inter-arrival gaps
/// at `rps`, taken at the n - 1 stratified quantiles of the exponential
/// distribution in a shuffled order (a Poisson-shaped arrival draw). Ids
/// follow arrival order, so FIFO admission order equals id order. Only the
/// per-request context seeds depend on `seed`.
std::vector<ServeRequest> make_trace(const Workload& w, std::uint64_t seed) {
  Rng rng(derive_seed(kShapeSeed, "perfbench/trace/" + w.name));
  const auto prompts = stratified_lengths(w.requests, w.prompt_min, w.prompt_max, rng);
  const auto decodes = stratified_lengths(w.requests, w.decode_min, w.decode_max, rng);
  std::vector<double> gaps;
  if (w.rps > 0.0 && w.requests > 1) {
    const Index n = w.requests - 1;
    for (const Index slot : rng.permutation(n)) {
      const double q = (static_cast<double>(slot) + 0.5) / static_cast<double>(n);
      gaps.push_back(-std::log1p(-q) / w.rps * 1000.0);
    }
  }
  std::vector<ServeRequest> trace;
  double clock_ms = 0.0;
  for (Index i = 0; i < w.requests; ++i) {
    if (i > 0 && !gaps.empty()) {
      clock_ms += gaps[static_cast<std::size_t>(i - 1)];
    }
    ServeRequest request;
    request.id = i;
    request.arrival_ms = clock_ms;
    request.prompt_len = prompts[static_cast<std::size_t>(i)];
    request.decode_len = decodes[static_cast<std::size_t>(i)];
    request.seed = derive_seed(seed, "perfbench/request/" + std::to_string(i));
    trace.push_back(request);
  }
  return trace;
}

/// bench_serving's "ClusterKV (prefetch)" setup: a 1 layer x 2 heads x 64
/// dims slice, a per-session budget of 128 tokens, 20 tokens per cluster,
/// decode_interval 32, chunked prefill of 256, repair on, prefetch of 10.
SessionConfig session_config() {
  SessionConfig session;
  session.shape.num_layers = 1;
  session.shape.num_heads = 2;
  session.shape.head_dim = 64;
  session.params.head_dim = 64;
  session.engine.budget = 128;
  session.engine.full_attention_layers = 0;
  return session;
}

ClusterKVConfig clusterkv_config() {
  ClusterKVConfig c;
  c.sink_tokens = 16;
  c.tokens_per_cluster = 20;
  c.decode_interval = 32;
  c.decode_clusters = 2;
  c.cache_depth = 1;
  c.kmeans_max_iterations = 12;
  c.prefetch_clusters = 10;
  c.prefetch_prior_weight = 1.0;
  c.prefetch_prior_decay = 0.8;
  return c;
}

BatchSchedulerConfig scheduler_config(const Workload& w, const SessionConfig& session,
                                      const ClusterKVConfig& ckv) {
  BatchSchedulerConfig config;
  config.method = LatencyModel::Method::kClusterKV;
  config.tiered_residency = true;
  config.sink_tokens = ckv.sink_tokens;
  config.decode_interval = ckv.decode_interval;
  config.cache_depth = ckv.cache_depth;
  config.tokens_per_cluster = ckv.tokens_per_cluster;
  config.prefill_chunk_tokens = 256;
  config.repair_refine_iterations = ckv.repair_refine_iterations;
  config.repair_decode_interval = ckv.repair_decode_interval;
  config.prefetch_clusters = ckv.prefetch_clusters;
  config.admission_overcommit = w.overcommit;
  config.use_transfer_engine = w.transfer_engine;
  config.link_gbps = w.link_gbps;
  if (w.budget_contexts > 0.0) {
    const double mean_context = static_cast<double>(w.prompt_min + w.prompt_max) / 2.0 +
                                static_cast<double>(w.decode_min + w.decode_max) / 2.0;
    config.fast_tier_budget_bytes = static_cast<std::int64_t>(
        w.budget_contexts * mean_context *
        static_cast<double>(session_token_bytes(session) * session.shape.total_heads()));
  }
  return config;
}

// ---------------------------------------------------------------------------
// Outside-in layer timing
// ---------------------------------------------------------------------------

/// Layer boundaries the decorator and the drain loop time.
enum class SpanKind : std::uint8_t {
  kTick,
  kSynthesis,
  kObservePrefill,
  kObservePrefillChunk,
  kObserveDecode,
  kSelect,
  kRelease,
  kCancelEnforce,  ///< cancel_prefetches from budget enforcement (in advance)
  kCancelRetire,   ///< cancel_prefetches at retirement (serial phase)
  kCount,
};

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTick: return "tick";
    case SpanKind::kSynthesis: return "synthesis";
    case SpanKind::kObservePrefill: return "observe_prefill";
    case SpanKind::kObservePrefillChunk: return "observe_prefill_chunk";
    case SpanKind::kObserveDecode: return "observe_decode";
    case SpanKind::kSelect: return "select";
    case SpanKind::kRelease: return "release_fast_tier";
    case SpanKind::kCancelEnforce: return "cancel_prefetches";
    case SpanKind::kCancelRetire: return "cancel_prefetches";
    case SpanKind::kCount: break;
  }
  return "?";
}

struct Span {
  SpanKind kind;
  std::int64_t begin_ns;
  std::int64_t end_ns;
  std::int64_t tick;
  std::int64_t session;  ///< -1 for scheduler-level spans
  std::int64_t work;     ///< the count recorded at this boundary
};

/// Per-kind totals: calls, busy nanoseconds and the kind's work count
/// (centroids scored for select, k-means + repair MACs for clustering,
/// tokens moved for release, fetches dropped for cancel).
struct KindTotals {
  std::int64_t calls = 0;
  std::int64_t busy_ns = 0;
  std::int64_t work = 0;
};

/// Collects spans and counts for one traced drain. Single-threaded by
/// contract: traced drains run the pool at one worker, so every decorated
/// call lands on the calling thread.
class Recorder {
 public:
  Recorder(Index heads_per_session, bool keep_spans)
      : heads_per_session_(heads_per_session), keep_spans_(keep_spans) {}

  /// Session id of the next selector the factory builds. A session builds
  /// all its selectors at admission, one session at a time, and FIFO
  /// admission follows request id order, so the call count gives the id.
  [[nodiscard]] Index next_session() {
    return factory_calls_++ / heads_per_session_;
  }
  void set_tick(std::int64_t tick) { tick_ = tick; }

  void record(SpanKind kind, Clock::time_point begin, Clock::time_point end,
              std::int64_t session, std::int64_t work) {
    auto& totals = totals_[static_cast<std::size_t>(kind)];
    ++totals.calls;
    totals.busy_ns += ns_between(begin, end);
    totals.work += work;
    if (keep_spans_) {
      spans_.push_back({kind, ns_between(origin_, begin), ns_between(origin_, end),
                        tick_, session, work});
    }
  }

  [[nodiscard]] const KindTotals& totals(SpanKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Prompt tokens the decorated selectors consumed during prefill.
  std::int64_t prompt_tokens = 0;

 private:
  Index heads_per_session_;
  bool keep_spans_;
  Index factory_calls_ = 0;
  std::int64_t tick_ = 0;
  Clock::time_point origin_ = Clock::now();
  KindTotals totals_[static_cast<std::size_t>(SpanKind::kCount)];
  std::vector<Span> spans_;
};

/// Transparent KVSelector decorator: forwards every virtual to the wrapped
/// selector unchanged and times the calls that do layer work. Installed
/// only through the SelectorFactory, so the scheduler cannot tell it is
/// there — traced and untraced drains must produce the same digest.
class TimedSelector final : public KVSelector {
 public:
  TimedSelector(std::unique_ptr<KVSelector> inner, Recorder& recorder, Index session)
      : inner_(std::move(inner)),
        engine_(dynamic_cast<ClusterKVEngine*>(inner_.get())),
        recorder_(recorder),
        session_(session) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void observe_prefill(const Matrix& keys, const Matrix& values) override {
    const std::int64_t flops = engine_flops();
    const auto begin = Clock::now();
    inner_->observe_prefill(keys, values);
    const auto end = Clock::now();
    recorder_.prompt_tokens += keys.rows();
    recorder_.record(SpanKind::kObservePrefill, begin, end, session_,
                     engine_flops() - flops);
  }

  [[nodiscard]] bool supports_chunked_prefill() const override {
    return inner_->supports_chunked_prefill();
  }

  void observe_prefill_chunk(const Matrix& keys, const Matrix& values,
                             bool last_chunk) override {
    const std::int64_t flops = engine_flops();
    const auto begin = Clock::now();
    inner_->observe_prefill_chunk(keys, values, last_chunk);
    const auto end = Clock::now();
    recorder_.prompt_tokens += keys.rows();
    recorder_.record(SpanKind::kObservePrefillChunk, begin, end, session_,
                     engine_flops() - flops);
  }

  void observe_decode(std::span<const float> key,
                      std::span<const float> value) override {
    const std::int64_t flops = engine_flops();
    const auto begin = Clock::now();
    inner_->observe_decode(key, value);
    const auto end = Clock::now();
    recorder_.record(SpanKind::kObserveDecode, begin, end, session_,
                     engine_flops() - flops);
  }

  SelectionResult select(std::span<const float> query, Index budget) override {
    const auto begin = Clock::now();
    SelectionResult result = inner_->select(query, budget);
    const auto end = Clock::now();
    recorder_.record(SpanKind::kSelect, begin, end, session_,
                     result.representations_scored);
    return result;
  }

  void observe_attention(std::span<const Index> indices,
                         std::span<const float> probabilities) override {
    inner_->observe_attention(indices, probabilities);
  }

  [[nodiscard]] bool is_recallable() const override { return inner_->is_recallable(); }
  [[nodiscard]] Index context_size() const override { return inner_->context_size(); }
  [[nodiscard]] Index fast_resident_tokens() const override {
    return inner_->fast_resident_tokens();
  }

  Index release_fast_tier() override {
    const auto begin = Clock::now();
    const Index moved = inner_->release_fast_tier();
    const auto end = Clock::now();
    recorder_.record(SpanKind::kRelease, begin, end, session_, moved);
    return moved;
  }

  Index cancel_prefetches(obs::FetchCancelReason reason) override {
    const auto begin = Clock::now();
    const Index canceled = inner_->cancel_prefetches(reason);
    const auto end = Clock::now();
    // Retirement cancels run in the tick's serial phase; every other
    // caller (budget enforcement) runs inside the advance phase's commit.
    recorder_.record(reason == obs::FetchCancelReason::kSessionRelease
                         ? SpanKind::kCancelRetire
                         : SpanKind::kCancelEnforce,
                     begin, end, session_, canceled);
    return canceled;
  }

  [[nodiscard]] std::int64_t prefetch_canceled_tokens(
      obs::FetchCancelReason reason) const override {
    return inner_->prefetch_canceled_tokens(reason);
  }

  void attach_fast_tier_ledger(FastTierLedger* ledger) override {
    inner_->attach_fast_tier_ledger(ledger);
  }

  void set_degraded_step(bool degraded) override { inner_->set_degraded_step(degraded); }

 private:
  [[nodiscard]] std::int64_t engine_flops() const {
    return engine_ == nullptr ? 0 : engine_->clustering_flops() + engine_->repair_flops();
  }

  std::unique_ptr<KVSelector> inner_;
  ClusterKVEngine* engine_;
  Recorder& recorder_;
  Index session_;
};

SelectorFactory timed_factory(SelectorFactory inner, Recorder& recorder) {
  return [inner = std::move(inner), &recorder](Index layer, Index head, Index head_dim) {
    const Index session = recorder.next_session();
    return std::unique_ptr<KVSelector>(
        std::make_unique<TimedSelector>(inner(layer, head, head_dim), recorder, session));
  };
}

// ---------------------------------------------------------------------------
// One drain
// ---------------------------------------------------------------------------

void hash_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
}

template <typename T>
void hash_value(std::uint64_t& h, T value) {
  hash_bytes(h, &value, sizeof(value));
}

/// Virtual-clock outputs of one drain: deterministic for a given seed at
/// any worker count, traced or not.
struct SimOutputs {
  double recall = 0.0;
  double tok_per_s = 0.0;
  double ttft_p95_ms = 0.0;
  double itl_p95_ms = 0.0;
  std::uint64_t digest = 0;
};

/// Hashes every SessionRecord field, in retirement order, plus the four
/// virtual-clock metrics.
SimOutputs sim_outputs(const ServeMetrics& m) {
  SimOutputs out;
  out.recall = m.mean_recall();
  out.tok_per_s = m.throughput_tps();
  out.ttft_p95_ms = m.ttft_percentile(95.0);
  out.itl_p95_ms = m.inter_token_percentile(95.0);
  std::uint64_t h = 14695981039346656037ULL;
  for (const SessionRecord& r : m.records()) {
    hash_value(h, r.id);
    hash_value(h, r.prompt_len);
    hash_value(h, r.decode_len);
    hash_value(h, r.arrival_ms);
    hash_value(h, r.admit_ms);
    hash_value(h, r.prefill_done_ms);
    hash_value(h, r.first_token_ms);
    hash_value(h, r.finish_ms);
    hash_value(h, r.mean_recall);
    hash_value(h, r.recall_steps);
    hash_value(h, r.mean_coverage);
    hash_value(h, r.cache_hit_rate);
    hash_value(h, r.preemptions);
    hash_value(h, r.prefetch_hit_tokens);
    hash_value(h, r.prefetch_issued_tokens);
    hash_value(h, r.demand_fetched_tokens);
    hash_value(h, r.prefetch_canceled_mispredict_tokens);
    hash_value(h, r.prefetch_canceled_enforce_tokens);
    hash_value(h, r.prefetch_canceled_release_tokens);
    hash_value(h, r.aborted);
    hash_value(h, r.degraded_steps);
    hash_value(h, r.fault_retries);
    hash_value(h, r.fault_retry_ms);
    hash_value(h, r.dead_fetches);
  }
  hash_value(h, out.recall);
  hash_value(h, out.tok_per_s);
  hash_value(h, out.ttft_p95_ms);
  hash_value(h, out.itl_p95_ms);
  out.digest = h;
  return out;
}

struct DrainResult {
  std::vector<double> setup_s;  ///< the drain's own set-up, then its samples
  double drain_s = 0.0;
  std::vector<double> tick_ms;  ///< ticks that returned true
  double tick_total_ms = 0.0;   ///< every tick, the final one included
  SimOutputs sim;
  Index offered = 0;
  Index finished = 0;
  Index shed = 0;
  Index aborted = 0;
  bool records_ok = true;
  // Read-outs of the finished scheduler (per-layer table).
  double advance_ms = 0.0;
  double fanout_fraction = 0.0;
  double max_batch = 0.0;
  double cache_hit_rate = 0.0;
  double prefetch_hit_rate = 0.0;
  double prefetch_waste_rate = 0.0;
  Index preemptions = 0;
  double link_utilization = 0.0;
  double demand_stall_ms = 0.0;
  double link_drained_bytes = 0.0;
};

struct Plan {
  Workload workload;
  std::uint64_t seed = 0;
  SessionConfig session;
  ClusterKVConfig clusterkv;
};

/// What a drain needs before its first tick: the trace and the scheduler
/// (which keeps its own copy of the LatencyModel).
struct Setup {
  std::vector<ServeRequest> trace;
  std::unique_ptr<BatchScheduler> scheduler;
};

Setup build_setup(const Plan& plan, const SelectorFactory& factory) {
  Setup setup;
  setup.trace = make_trace(plan.workload, plan.seed);
  const LatencyModel latency(HardwareModel::ada6000(), ModelConfig::llama31_8b());
  setup.scheduler = std::make_unique<BatchScheduler>(
      setup.trace, factory, plan.session, latency,
      scheduler_config(plan.workload, plan.session, plan.clusterkv));
  return setup;
}

/// Share of a drain's own wall time its set-up samples may take, at most.
constexpr double kSetupShare = 0.05;

/// Sets up (timed), then drains the scheduler, timing every tick. With
/// `sample_setup`, a throwaway set-up is also built, timed and destroyed
/// before a tick whenever the samples so far took at most kSetupShare of
/// the drain's own time. Set-up takes microseconds, so that is nearly
/// every tick: one sample sees one short machine phase, and spreading the
/// samples over the whole drain lets their median see the same machine
/// the drain does. A set-up that grows (work moved out of the drain)
/// thins the samples out to one per drain instead of stretching the run.
/// The samples' time is excluded from the drain, and no throwaway exists
/// while a tick runs.
DrainResult run_drain(const Plan& plan, bool sample_setup, Recorder* recorder) {
  DrainResult result;
  SelectorFactory factory = make_clusterkv_factory(plan.clusterkv, plan.seed);
  if (recorder != nullptr) {
    factory = timed_factory(std::move(factory), *recorder);
  }
  auto begin = Clock::now();
  Setup setup = build_setup(plan, factory);
  result.setup_s.push_back(seconds_since(begin));
  BatchScheduler& scheduler = *setup.scheduler;

  const auto drain_begin = Clock::now();
  double sampling_s = 0.0;
  std::int64_t tick = 0;
  while (true) {
    if (sample_setup &&
        sampling_s <= kSetupShare * (seconds_since(drain_begin) - sampling_s)) {
      const auto sample_begin = Clock::now();
      {
        const Setup sample = build_setup(plan, factory);
        result.setup_s.push_back(seconds_since(sample_begin));
      }
      sampling_s += seconds_since(sample_begin);
    }
    if (recorder != nullptr) {
      recorder->set_tick(tick);
    }
    begin = Clock::now();
    const bool more = scheduler.tick();
    const auto end = Clock::now();
    const double ms = static_cast<double>(ns_between(begin, end)) / 1e6;
    result.tick_total_ms += ms;
    if (recorder != nullptr) {
      recorder->record(SpanKind::kTick, begin, end, -1, tick);
    }
    if (!more) {
      break;
    }
    result.tick_ms.push_back(ms);
    ++tick;
  }
  result.drain_s = seconds_since(drain_begin) - sampling_s;

  const ServeMetrics& m = scheduler.metrics();
  result.sim = sim_outputs(m);
  result.offered = static_cast<Index>(setup.trace.size());
  result.finished = m.sessions();
  result.shed = m.shed_sessions_total();
  result.aborted = m.fault_aborts_total();
  // Every offered request must retire whole: the trace is fault-free.
  std::map<Index, const ServeRequest*> by_id;
  for (const auto& request : setup.trace) {
    by_id[request.id] = &request;
  }
  for (const SessionRecord& r : m.records()) {
    const auto it = by_id.find(r.id);
    if (it == by_id.end() || r.prompt_len != it->second->prompt_len ||
        r.decode_len != it->second->decode_len || r.aborted) {
      result.records_ok = false;
    }
  }
  if (result.finished + result.shed != result.offered ||
      !(result.sim.recall > 0.0 && result.sim.recall <= 1.0) ||
      !(result.sim.tok_per_s > 0.0)) {
    result.records_ok = false;
  }
  result.advance_ms = m.advance_wall_ms_total();
  result.fanout_fraction = m.fanout_fraction();
  result.max_batch = m.concurrency().max();
  result.cache_hit_rate = m.mean_cache_hit_rate();
  result.prefetch_hit_rate = m.prefetch_hit_rate();
  result.prefetch_waste_rate = m.prefetch_waste_rate();
  result.preemptions = m.total_preemptions();
  result.link_utilization =
      m.makespan_ms() > 0.0 ? m.link_busy_ms_total() / m.makespan_ms() : 0.0;
  result.demand_stall_ms = m.demand_stall_ms_total();
  result.link_drained_bytes = m.link_drained_bytes_total();
  return result;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Times the procedural context synthesis of every request outside the
/// scheduler: the same constructor Session runs at admission, three times
/// per request, keeping the median.
double synthesis_ms(const Plan& plan, Recorder* recorder, std::int64_t* tokens) {
  const auto trace = make_trace(plan.workload, plan.seed);
  double total_ms = 0.0;
  *tokens = 0;
  for (const auto& request : trace) {
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
      const auto begin = Clock::now();
      const ProceduralContextModel model(plan.session.shape, plan.session.params,
                                         request.seed, request.prompt_len);
      const auto end = Clock::now();
      reps.push_back(static_cast<double>(ns_between(begin, end)) / 1e6);
      if (recorder != nullptr) {
        recorder->record(SpanKind::kSynthesis, begin, end, request.id, request.prompt_len);
      }
    }
    total_ms += median(reps);
    *tokens += request.prompt_len;
  }
  return total_ms;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

/// Highest percentile of a fixed ladder with at least ten samples beyond
/// it; depends only on the sample count, which is the same for every drain
/// of a run.
double tail_percentile(std::size_t n) {
  double best = 50.0;
  for (const double p : {75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9}) {
    if ((1.0 - p / 100.0) * static_cast<double>(n) >= 10.0) {
      best = p;
    }
  }
  return best;
}

double percentile_of(std::vector<double> values, double p) {
  return values.empty() ? 0.0 : percentile(values, p);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  std::ostringstream s;
  s << std::setprecision(17) << v;
  return s.str();
}

/// Ordered metric list: name -> (value, unit).
struct MetricList {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      out << (i == 0 ? "" : ", ") << json_string(items[i].first)
          << ": {\"value\": " << json_number(items[i].second.first)
          << ", \"unit\": " << json_string(items[i].second.second) << "}";
    }
    out << "}";
    return out.str();
  }
};

/// Chrome trace-event JSON of one traced drain: the tick spans on track 0,
/// each session's selector spans on track 1 + session, the out-of-band
/// synthesis spans on their own track. Spans never overlap within a track
/// (one worker), so per-track B/E pairs in record order are balanced and
/// time-ordered, which tools/check_trace.py verifies.
void write_chrome_trace(const Recorder& recorder, const std::string& path,
                        const std::string& workload) {
  constexpr std::int64_t kSynthesisTrack = std::int64_t{1} << 19;
  std::map<std::int64_t, std::vector<const Span*>> tracks;
  for (const Span& span : recorder.spans()) {
    std::int64_t track = 0;
    if (span.kind == SpanKind::kSynthesis) {
      track = kSynthesisTrack;
    } else if (span.session >= 0) {
      track = 1 + span.session;
    }
    tracks[track].push_back(&span);
  }
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_events\": 0, "
         "\"clock\": \"host steady_clock\", \"workload\": "
      << json_string(workload) << "},\n\"traceEvents\": [\n";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    out << (first ? "" : ",\n") << event;
    first = false;
  };
  for (const auto& [track, spans] : tracks) {
    const std::string label = track == 0 ? "scheduler ticks"
                              : track == kSynthesisTrack
                                  ? "synthesis (timed outside the scheduler)"
                                  : "session " + std::to_string(track - 1);
    emit("{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": " +
         std::to_string(track) + ", \"args\": {\"name\": " + json_string(label) + "}}");
    for (const Span* span : spans) {
      const std::string common = ", \"pid\": 1, \"tid\": " + std::to_string(track);
      const std::string name = json_string(span_name(span->kind));
      emit("{\"ph\": \"B\", \"name\": " + name + common +
           ", \"ts\": " + json_number(static_cast<double>(span->begin_ns) / 1e3) +
           ", \"args\": {\"tick\": " + std::to_string(span->tick) +
           ", \"session\": " + std::to_string(span->session) +
           ", \"work\": " + std::to_string(span->work) + "}}");
      emit("{\"ph\": \"E\", \"name\": " + name + common +
           ", \"ts\": " + json_number(static_cast<double>(span->end_ns) / 1e3) + "}");
    }
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int workers = 1;         ///< pinned pool size: min(4, hardware threads)
  std::string spans_path;  ///< traced runs' Chrome trace, next to the binary
};

constexpr double kMsPerNs = 1e-6;
/// Timed drains a run makes however short --seconds is.
constexpr int kMinDrains = 3;
/// The tail percentile is the highest one with at least ten ticks beyond
/// it in this many drains' ticks (a 30 s run makes 12-25 drains).
constexpr std::size_t kTailDrains = 10;

/// Checks a drain against the run's reference and tallies failures:
/// shed and aborted sessions, and every session of a drain whose digest
/// or records disagree with the reference drain.
struct Tally {
  Index attempted = 0;
  Index failed = 0;
  Index finished = 0;
  Index shed = 0;
  Index aborted = 0;
  Index digest_mismatches = 0;
  void add(const DrainResult& d, std::uint64_t reference) {
    attempted += d.offered;
    finished += d.finished;
    shed += d.shed;
    aborted += d.aborted;
    const bool mismatch = d.sim.digest != reference || !d.records_ok;
    digest_mismatches += mismatch ? 1 : 0;
    failed += mismatch ? d.offered : d.shed + d.aborted;
  }
};

std::string hex(std::uint64_t v) {
  std::ostringstream s;
  s << std::hex << std::setw(16) << std::setfill('0') << v;
  return s.str();
}

std::string common_info(const Options& opt, const Tally& tally, std::uint64_t digest,
                        int drains) {
  std::ostringstream s;
  s << "\"workload\": " << json_string(opt.workload) << ", \"seed\": " << opt.seed
    << ", \"workers\": " << opt.workers << ", \"drains\": " << drains
    << ", \"sessions_offered\": " << tally.attempted
    << ", \"sessions_finished\": " << tally.finished
    << ", \"sessions_shed\": " << tally.shed
    << ", \"sessions_aborted\": " << tally.aborted
    << ", \"digest_mismatches\": " << tally.digest_mismatches
    << ", \"digest\": " << json_string(hex(digest))
    << ", \"build_type\": " << json_string(CKV_PB_BUILD_TYPE)
    << ", \"lto\": " << (CKV_PB_LTO ? "true" : "false")
    << ", \"native_arch\": " << (CKV_PB_NATIVE_ARCH ? "true" : "false")
    << ", \"compiler\": " << json_string(CKV_PB_COMPILER);
  return s.str();
}

/// End-to-end run: an untimed warm-up drain at the pinned worker count
/// (the first parallel drain of a process pays for thread start-up and
/// per-thread allocator arenas) fixes the reference digest, then timed
/// set-up + drain pairs until --seconds have passed. Both tick percentiles
/// pool every timed drain. The tail percentile is fixed by kTailDrains
/// drains' tick count (the count is the same for every drain of a seed),
/// so it does not move with speed. It lands among each drain's few
/// structurally heavy ticks (admission with synthesis, prefill chunks),
/// whose time is compute rather than the host's scheduling noise: lower
/// percentiles sat on the boundary between those ticks and the rest and
/// flipped between the two from run to run.
int run_untraced(const Plan& plan, const Options& opt) {
  set_parallel_workers(opt.workers);
  const DrainResult warmup = run_drain(plan, false, nullptr);
  const std::uint64_t reference = warmup.sim.digest;

  Tally tally;
  std::vector<double> drains;
  std::vector<double> setups;
  std::vector<double> ticks;
  const double tail_p = tail_percentile(warmup.tick_ms.size() * kTailDrains);
  const auto start = Clock::now();
  while (static_cast<int>(drains.size()) < kMinDrains ||
         seconds_since(start) < opt.seconds) {
    const DrainResult d = run_drain(plan, true, nullptr);
    tally.add(d, reference);
    if (!warmup.records_ok) {
      tally.failed += d.offered;
    }
    drains.push_back(d.drain_s);
    setups.insert(setups.end(), d.setup_s.begin(), d.setup_s.end());
    ticks.insert(ticks.end(), d.tick_ms.begin(), d.tick_ms.end());
  }

  MetricList metrics;
  metrics.add("drain_wall_s", median(drains), "s");
  metrics.add("tick_wall_ms_p50", percentile_of(ticks, 50.0), "ms");
  metrics.add("tick_wall_ms_tail", percentile_of(ticks, tail_p), "ms");
  metrics.add("setup_s", median(setups), "s");
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  metrics.add("served_share",
              1.0 - static_cast<double>(tally.failed) /
                        static_cast<double>(std::max<Index>(1, tally.attempted)),
              "share");
  metrics.add("recall_at_b", warmup.sim.recall, "share");
  metrics.add("sim_tok_per_s", warmup.sim.tok_per_s, "tok/s");
  metrics.add("sim_ttft_ms_p95", warmup.sim.ttft_p95_ms, "ms");
  metrics.add("sim_itl_ms_p95", warmup.sim.itl_p95_ms, "ms");

  const bool correct = tally.failed == 0 && warmup.records_ok;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metrics.json() << ", \"info\": {"
            << common_info(opt, tally, reference, static_cast<int>(drains.size()))
            << ", \"ticks_per_drain\": " << warmup.tick_ms.size()
            << ", \"ticks_timed\": " << ticks.size() << ", \"tick_ms_p10_p25_p75_p90\": ["
            << json_number(percentile_of(ticks, 10.0)) << ", "
            << json_number(percentile_of(ticks, 25.0)) << ", "
            << json_number(percentile_of(ticks, 75.0)) << ", "
            << json_number(percentile_of(ticks, 90.0)) << "]"
            << ", \"tail_percentile\": " << json_number(tail_p)
            << ", \"drain_wall_s_all\": [";
  for (std::size_t i = 0; i < drains.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << json_number(drains[i]);
  }
  std::cout << "]}}" << std::endl;
  return 0;
}

/// Layer table of one traced drain at one worker.
struct LayerTable {
  DrainResult drain;
  double synth_ms = 0.0;
  std::int64_t synth_tokens = 0;
  KindTotals cluster;
  KindTotals cluster_prefill;
  KindTotals select;
  KindTotals release;
  KindTotals cancel_enforce;
  KindTotals cancel_retire;
  std::int64_t prompt_tokens = 0;
};

KindTotals sum(const KindTotals& a, const KindTotals& b) {
  return {a.calls + b.calls, a.busy_ns + b.busy_ns, a.work + b.work};
}

LayerTable traced_drain(const Plan& plan, const Options& opt, bool keep_spans) {
  Recorder recorder(plan.session.shape.total_heads(), keep_spans);
  LayerTable t;
  t.drain = run_drain(plan, false, &recorder);
  t.synth_ms = synthesis_ms(plan, &recorder, &t.synth_tokens);
  t.cluster_prefill = sum(recorder.totals(SpanKind::kObservePrefill),
                          recorder.totals(SpanKind::kObservePrefillChunk));
  t.cluster = sum(t.cluster_prefill, recorder.totals(SpanKind::kObserveDecode));
  t.select = recorder.totals(SpanKind::kSelect);
  t.release = recorder.totals(SpanKind::kRelease);
  t.cancel_enforce = recorder.totals(SpanKind::kCancelEnforce);
  t.cancel_retire = recorder.totals(SpanKind::kCancelRetire);
  t.prompt_tokens = recorder.prompt_tokens;
  if (keep_spans) {
    write_chrome_trace(recorder, opt.spans_path, opt.workload);
  }
  return t;
}

double ms(const KindTotals& k) { return static_cast<double>(k.busy_ns) * kMsPerNs; }

double per(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Per-layer run. The warm-up drain runs at the pinned worker count and
/// fixes the reference digest, which every later drain must reproduce:
/// one-worker, traced and untraced alike. Then, at one worker so busy
/// times add up, untraced and traced drains alternate until --seconds have
/// passed (the median traced drain supplies the layer table, the untraced
/// ones the tracing overhead); a last untraced drain at the pinned worker
/// count measures the pool's load balance.
int run_traced(const Plan& plan, const Options& opt) {
  set_parallel_workers(opt.workers);
  const DrainResult warmup = run_drain(plan, false, nullptr);
  const std::uint64_t reference = warmup.sim.digest;

  set_parallel_workers(1);
  Tally tally;
  std::vector<double> untraced;
  std::vector<LayerTable> traced;
  const auto start = Clock::now();
  while (traced.empty() || seconds_since(start) < opt.seconds) {
    const DrainResult plain = run_drain(plan, false, nullptr);
    tally.add(plain, reference);
    untraced.push_back(plain.drain_s);
    traced.push_back(traced_drain(plan, opt, traced.empty()));
    tally.add(traced.back().drain, reference);
  }
  std::vector<std::size_t> order(traced.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return traced[a].drain.drain_s < traced[b].drain.drain_s;
  });
  const LayerTable& t = traced[order[order.size() / 2]];
  std::vector<double> traced_walls;
  for (const auto& table : traced) {
    traced_walls.push_back(table.drain.drain_s);
  }

  set_parallel_workers(opt.workers);
  reset_parallel_worker_utilization();
  const DrainResult wide = run_drain(plan, false, nullptr);
  tally.add(wide, reference);
  const auto utilization = parallel_worker_utilization();
  double max_indices = 0.0;
  double sum_indices = 0.0;
  for (int slot = 0; slot < opt.workers && slot < static_cast<int>(utilization.size());
       ++slot) {
    const double indices = static_cast<double>(utilization[slot].indices);
    max_indices = std::max(max_indices, indices);
    sum_indices += indices;
  }
  const double imbalance = per(max_indices, sum_indices / static_cast<double>(opt.workers));

  // Additive decomposition of the traced drain (see RATIONALE.md):
  // enforcement's release/cancel calls run inside the advance window
  // (commit phase), retirement's cancels and synthesis outside it. The
  // advance window also holds the whole commit phase (metrics, transfer
  // engine enqueue/resolve, ledger check, enforcement's victim sort), so
  // "oracle" is the engine step plus that scheduler bookkeeping.
  const double tick_ms = t.drain.tick_total_ms;
  const double advance_ms = t.drain.advance_ms;
  const double kv_in_advance_ms = ms(t.release) + ms(t.cancel_enforce);
  const double oracle_ms = advance_ms - ms(t.cluster) - ms(t.select) - kv_in_advance_ms;
  const double serial_ms = tick_ms - advance_ms - ms(t.cancel_retire) - t.synth_ms;
  const double drain_ms = t.drain.drain_s * 1e3;
  const double residual_ms = drain_ms - tick_ms;
  const KindTotals cancel = sum(t.cancel_enforce, t.cancel_retire);

  MetricList metrics;
  metrics.add("core.cluster.ms", ms(t.cluster), "ms");
  metrics.add("core.cluster.ns_per_prompt_token",
              per(static_cast<double>(t.cluster_prefill.busy_ns),
                  static_cast<double>(t.prompt_tokens)),
              "ns");
  metrics.add("core.cluster.ns_per_mac",
              per(static_cast<double>(t.cluster.busy_ns), static_cast<double>(t.cluster.work)),
              "ns");
  metrics.add("core.select.calls", static_cast<double>(t.select.calls), "count");
  metrics.add("core.select.ms", ms(t.select), "ms");
  metrics.add("core.select.ns_per_call",
              per(static_cast<double>(t.select.busy_ns), static_cast<double>(t.select.calls)),
              "ns");
  metrics.add("core.select.ns_per_centroid",
              per(static_cast<double>(t.select.busy_ns), static_cast<double>(t.select.work)),
              "ns");
  metrics.add("core.select.cache_hit_rate", t.drain.cache_hit_rate, "share");
  metrics.add("core.prefetch.hit_rate", t.drain.prefetch_hit_rate, "share");
  metrics.add("core.prefetch.waste_rate", t.drain.prefetch_waste_rate, "share");
  metrics.add("model.oracle_ms", oracle_ms, "ms");
  metrics.add("model.synth_ms", t.synth_ms, "ms");
  metrics.add("model.synth_ns_per_token",
              per(t.synth_ms * 1e6, static_cast<double>(t.synth_tokens)), "ns");
  metrics.add("kvcache.ms", ms(t.release) + ms(cancel), "ms");
  metrics.add("kvcache.release.calls", static_cast<double>(t.release.calls), "count");
  metrics.add("kvcache.release.ms", ms(t.release), "ms");
  metrics.add("kvcache.release.tokens", static_cast<double>(t.release.work), "count");
  metrics.add("kvcache.cancel.calls", static_cast<double>(cancel.calls), "count");
  metrics.add("kvcache.cancel.ms", ms(cancel), "ms");
  metrics.add("kvcache.cancel.fetches", static_cast<double>(cancel.work), "count");
  metrics.add("kvcache.preemptions", static_cast<double>(t.drain.preemptions), "count");
  metrics.add("serve.ticks", static_cast<double>(t.drain.tick_ms.size()), "count");
  metrics.add("serve.tick_ms", tick_ms, "ms");
  metrics.add("serve.advance_ms", advance_ms, "ms");
  metrics.add("serve.serial_ms", serial_ms, "ms");
  metrics.add("serve.fanout_fraction", t.drain.fanout_fraction, "share");
  metrics.add("serve.max_batch", t.drain.max_batch, "count");
  metrics.add("sim.link_utilization", t.drain.link_utilization, "share");
  metrics.add("sim.demand_stall_ms", t.drain.demand_stall_ms, "ms");
  metrics.add("sim.link_drained_bytes", t.drain.link_drained_bytes, "bytes");
  metrics.add("parallel.workers", static_cast<double>(opt.workers), "count");
  metrics.add("parallel.imbalance", imbalance, "ratio");
  metrics.add("obs.trace_overhead_s", median(traced_walls) - median(untraced), "s");
  metrics.add("layers.drain_ms", drain_ms, "ms");
  metrics.add("layers.residual_ms", residual_ms, "ms");

  const bool correct = tally.failed == 0 && warmup.records_ok;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metrics.json() << ", \"info\": {"
            << common_info(opt, tally, reference, static_cast<int>(traced.size()))
            << ", \"traced_digest\": " << json_string(hex(t.drain.sim.digest))
            << ", \"layer_workers\": 1"
            << ", \"kvcache_in_advance_ms\": " << json_number(kv_in_advance_ms)
            << ", \"kvcache_retire_ms\": " << json_number(ms(t.cancel_retire))
            << ", \"spans\": " << json_string(opt.spans_path)
            << "}}" << std::endl;
  return 0;
}

int usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: ckv_perfbench --workload <chat_decode|contended_tiered> "
               "--seed N --seconds S --trace 0|1\n";
  return 2;
}

/// Pool size of every timed drain: min(4, hardware threads).
int pinned_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1U, 4U));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) {
        return usage("missing value for " + flag);
      }
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!(opt.seconds > 0.0)) {
    return usage("--seconds must be positive");
  }
  Plan plan;
  bool found = false;
  for (const Workload& w : workloads()) {
    if (w.name == opt.workload) {
      plan.workload = w;
      found = true;
    }
  }
  if (!found) {
    return usage("unknown workload '" + opt.workload + "'");
  }
  opt.workers = pinned_workers();
  opt.spans_path = (std::filesystem::path(argv[0]).parent_path() /
                    ("spans_" + opt.workload + "_" + std::to_string(opt.seed) + ".json"))
                       .string();
  plan.seed = opt.seed;
  plan.session = session_config();
  plan.clusterkv = clusterkv_config();
  try {
    return opt.trace ? run_traced(plan, opt) : run_untraced(plan, opt);
  } catch (const std::exception& e) {
    std::cerr << "ckv_perfbench: " << e.what() << "\n";
    return 1;
  }
}
