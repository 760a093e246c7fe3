// Observability stack: tracer ring semantics, metrics registry
// (log-linear histograms), ServeMetrics aggregate equivalence, and the
// end-to-end contracts the exporters rely on — virtual-clock trace fields
// deterministic across worker counts, and prefetch waste fully attributed
// to a cancellation reason.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/clusterkv_engine.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/trace.hpp"
#include "worker_guard.hpp"

namespace ckv {
namespace {

/// The tracer is a process-global singleton: every test that enables it
/// must leave it disabled, pass or fail.
struct TracerGuard {
  TracerGuard() = default;
  TracerGuard(const TracerGuard&) = delete;
  TracerGuard& operator=(const TracerGuard&) = delete;
  ~TracerGuard() { obs::tracer().disable(); }
};

TEST(Tracer, DisabledRecordsNothing) {
  auto& tr = obs::tracer();
  ASSERT_FALSE(tr.enabled());
  tr.instant("never");
  tr.begin("never");
  tr.end("never");
  tr.counter("never", 1);
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.capacity(), 0u);
  EXPECT_EQ(tr.dropped(), 0u);
  EXPECT_TRUE(tr.events().empty());
}

TEST(Tracer, RingOverflowDropsOldest) {
  TracerGuard guard;
  auto& tr = obs::tracer();
  tr.enable(/*capacity=*/4);
  tr.set_track(0);
  for (int i = 0; i < 6; ++i) {
    tr.set_virtual_now_ms(static_cast<double>(i));
    const std::string name = "e" + std::to_string(i);
    tr.instant(name.c_str());
  }
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.capacity(), 4u);
  EXPECT_EQ(tr.dropped(), 2u);
  const auto events = tr.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: e0 and e1 were overwritten.
  EXPECT_EQ(tr.name_of(events.front().name), "e2");
  EXPECT_EQ(tr.name_of(events.back().name), "e5");
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].virtual_us, events[i].virtual_us);
  }
}

TEST(Tracer, SpansCarryArgsAndAmbientContext) {
  TracerGuard guard;
  auto& tr = obs::tracer();
  tr.enable();
  tr.set_track(7);
  tr.set_virtual_now_ms(1.5);
  tr.begin("work", {{"items", 3}});
  tr.set_virtual_now_ms(2.5);
  tr.end("work");
  const auto events = tr.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, obs::TraceEvent::Phase::kBegin);
  EXPECT_EQ(events[0].track, 7);
  EXPECT_DOUBLE_EQ(events[0].virtual_us, 1500.0);
  EXPECT_EQ(tr.name_of(events[0].arg_names[0]), "items");
  EXPECT_EQ(events[0].args[0], 3);
  EXPECT_EQ(events[1].phase, obs::TraceEvent::Phase::kEnd);
  EXPECT_DOUBLE_EQ(events[1].virtual_us, 2500.0);
}

TEST(Tracer, ChromeExportIsBalancedJson) {
  TracerGuard guard;
  auto& tr = obs::tracer();
  tr.enable();
  tr.set_track_name(0, "scheduler");
  tr.set_virtual_now_ms(0.0);
  tr.begin("tick");
  tr.instant("mark", {{"n", 1}});
  tr.set_virtual_now_ms(1.0);
  tr.end("tick");
  std::ostringstream out;
  tr.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
  // Braces and brackets balance (cheap well-formedness check; the CI runs
  // tools/check_trace.py against real traces for the full contract).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Histogram, BucketBoundsContainRecordedValues) {
  for (const double v : {1e-6, 0.37, 0.5, 1.0, 3.7, 1234.5, 1e9}) {
    obs::Histogram hist;
    hist.record(v);
    ASSERT_EQ(hist.buckets().size(), 1u);
    const auto [key, count] = *hist.buckets().begin();
    EXPECT_EQ(count, 1);
    EXPECT_LE(obs::Histogram::bucket_lower(key), v);
    EXPECT_GT(obs::Histogram::bucket_upper(key), v);
  }
}

TEST(Histogram, NonPositiveValuesLandInUnderflowBucket) {
  obs::Histogram hist;
  hist.record(0.0);
  hist.record(-5.0);
  ASSERT_EQ(hist.buckets().size(), 1u);
  EXPECT_EQ(hist.buckets().begin()->first, obs::Histogram::kUnderflowKey);
  EXPECT_EQ(hist.count(), 2);
  EXPECT_DOUBLE_EQ(hist.min(), -5.0);
}

TEST(Histogram, PercentilesClampToObservedRange) {
  obs::Histogram hist;
  for (int i = 1; i <= 1000; ++i) {
    hist.record(static_cast<double>(i));
  }
  EXPECT_EQ(hist.count(), 1000);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 1000.0);
  // Log-linear buckets at 8 sub-buckets/octave: <= ~9% relative error.
  EXPECT_NEAR(hist.percentile(50.0), 500.0, 50.0);
  EXPECT_NEAR(hist.percentile(99.0), 990.0, 99.0);
  // Single sample: every percentile is that sample.
  obs::Histogram one;
  one.record(42.0);
  EXPECT_DOUBLE_EQ(one.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(100.0), 42.0);
}

TEST(MetricsRegistry, InstrumentsAccumulateAndExport) {
  obs::MetricsRegistry registry;
  registry.counter("a.count").add(std::int64_t{3});
  registry.counter("a.count").add(std::int64_t{4});
  registry.gauge("a.depth").set(2.0);
  registry.gauge("a.depth").set(5.0);
  registry.histogram("a.lat").record(10.0);
  EXPECT_EQ(registry.counter("a.count").as_int(), 7);
  EXPECT_DOUBLE_EQ(registry.gauge("a.depth").last(), 5.0);
  EXPECT_DOUBLE_EQ(registry.gauge("a.depth").stat().max(), 5.0);
  std::ostringstream json;
  registry.write_json(json);
  EXPECT_NE(json.str().find("\"a.count\": 7"), std::string::npos);
  EXPECT_NE(json.str().find("\"a.lat\""), std::string::npos);
  std::ostringstream csv;
  registry.write_csv(csv);
  EXPECT_NE(csv.str().find("counter,a.count,value,7"), std::string::npos);
}

/// Regression for the registry rewiring of ServeMetrics: every public
/// aggregate must match a hand computation on a known record set — the
/// rewrite moved storage, not semantics.
TEST(ServeMetricsRegistry, AggregatesMatchHandComputation) {
  ServeMetrics metrics;
  SessionRecord a;
  a.id = 0;
  a.prompt_len = 100;
  a.decode_len = 10;
  a.arrival_ms = 0.0;
  a.admit_ms = 5.0;
  a.prefill_done_ms = 20.0;
  a.first_token_ms = 30.0;
  a.finish_ms = 120.0;
  a.mean_recall = 0.5;
  a.recall_steps = 10;
  a.preemptions = 1;
  a.prefetch_issued_tokens = 100;
  a.prefetch_hit_tokens = 40;
  a.demand_fetched_tokens = 20;
  a.prefetch_canceled_mispredict_tokens = 50;
  a.prefetch_canceled_enforce_tokens = 10;
  a.prefetch_canceled_release_tokens = 0;
  SessionRecord b = a;
  b.id = 1;
  b.arrival_ms = 10.0;
  b.admit_ms = 15.0;
  b.prefill_done_ms = 40.0;
  b.first_token_ms = 50.0;
  b.finish_ms = 200.0;
  b.mean_recall = 0.9;
  b.recall_steps = 30;
  b.preemptions = 0;
  metrics.record_session(a);
  metrics.record_session(b);
  metrics.record_tick(1.0, 2, 3);
  metrics.record_tick(1.0, 1, 5);
  metrics.record_repair(0.5);
  metrics.record_repair(0.0);  // zero-cost ticks are not repair ticks

  EXPECT_EQ(metrics.sessions(), 2);
  EXPECT_EQ(metrics.total_tokens(), 20);
  EXPECT_EQ(metrics.total_preemptions(), 1);
  EXPECT_DOUBLE_EQ(metrics.makespan_ms(), 200.0);
  EXPECT_DOUBLE_EQ(metrics.throughput_tps(), 20.0 / 0.2);
  // Step-weighted recall: (0.5*10 + 0.9*30) / 40.
  EXPECT_DOUBLE_EQ(metrics.mean_recall(), 0.8);
  EXPECT_EQ(metrics.recall_steps_total(), 40);
  EXPECT_DOUBLE_EQ(metrics.mean_queue_wait_ms(), 5.0);
  EXPECT_DOUBLE_EQ(metrics.ttft_percentile(0.0), 30.0);
  EXPECT_DOUBLE_EQ(metrics.ttft_percentile(100.0), 40.0);
  EXPECT_DOUBLE_EQ(metrics.prefetch_hit_rate(), 80.0 / 120.0);
  EXPECT_DOUBLE_EQ(metrics.prefetch_waste_rate(), 120.0 / 200.0);
  EXPECT_DOUBLE_EQ(
      metrics.prefetch_waste_rate(obs::FetchCancelReason::kMisprediction),
      100.0 / 200.0);
  EXPECT_DOUBLE_EQ(
      metrics.prefetch_waste_rate(obs::FetchCancelReason::kEnforcement),
      20.0 / 200.0);
  EXPECT_DOUBLE_EQ(
      metrics.prefetch_waste_rate(obs::FetchCancelReason::kSessionRelease), 0.0);
  EXPECT_DOUBLE_EQ(metrics.repair_ms_total(), 0.5);
  EXPECT_EQ(metrics.repair_ticks(), 1);
  EXPECT_EQ(metrics.max_queue_depth(), 5);
  EXPECT_DOUBLE_EQ(metrics.concurrency().max(), 2.0);
  // The same numbers are visible through the registry export surface.
  EXPECT_EQ(metrics.registry().counter("serve.tokens_generated").as_int(), 20);
  EXPECT_EQ(
      metrics.registry().counter("serve.prefetch_canceled_mispredict_tokens")
          .as_int(),
      100);
}

SessionConfig obs_session_config() {
  SessionConfig config;
  config.shape.num_layers = 1;
  config.shape.num_heads = 2;
  config.shape.head_dim = 32;
  config.params.head_dim = 32;
  config.params.num_topics = 16;
  config.engine.budget = 48;
  config.engine.full_attention_layers = 0;
  return config;
}

ClusterKVConfig obs_ckv_config() {
  ClusterKVConfig config;
  config.sink_tokens = 8;
  config.tokens_per_cluster = 20;
  config.decode_interval = 8;
  config.decode_clusters = 2;
  config.cache_depth = 1;
  config.prefetch_clusters = 4;
  return config;
}

ServeMethod obs_method() {
  return {LatencyModel::Method::kClusterKV, obs_ckv_config(), 11};
}

BatchSchedulerConfig obs_scheduler_config(const SessionConfig& session) {
  BatchSchedulerConfig config;
  config.prefill_chunk_tokens = 64;
  // Tight budget so enforcement fires and contributes enforcement-reason
  // cancels to the attribution identity.
  config.fast_tier_budget_bytes = static_cast<std::int64_t>(
      2.0 * 300.0 * session_token_bytes(session) *
      static_cast<double>(session.shape.total_heads()));
  config.admission_overcommit = 1.5;
  return config;
}

std::vector<ServeRequest> obs_trace(Index n) {
  std::vector<ServeRequest> trace;
  for (Index i = 0; i < n; ++i) {
    ServeRequest request;
    request.id = i;
    request.arrival_ms = 40.0 * static_cast<double>(i);
    request.prompt_len = 260 + 30 * i;
    request.decode_len = 12;
    request.seed = derive_seed(99, "obs/" + std::to_string(i));
    trace.push_back(request);
  }
  return trace;
}

void run_obs_fleet(BatchScheduler& scheduler) { scheduler.run(); }

/// Once every session has retired, each record's issued speculative
/// fetches are fully explained: hits plus the three cancellation reasons.
TEST(WasteAttribution, ComponentsSumToIssuedMinusHits) {
  const auto session = obs_session_config();
  BatchScheduler scheduler(
      obs_trace(4), obs_method(), session,
      LatencyModel(HardwareModel::ada6000(), ModelConfig::llama31_8b()),
      obs_scheduler_config(session));
  run_obs_fleet(scheduler);
  const auto& m = scheduler.metrics();
  ASSERT_EQ(m.sessions(), 4);
  ASSERT_GT(m.prefetch_issued_total(), 0);
  std::int64_t canceled_total = 0;
  for (const auto& record : m.records()) {
    const std::int64_t attributed = record.prefetch_canceled_mispredict_tokens +
                                    record.prefetch_canceled_enforce_tokens +
                                    record.prefetch_canceled_release_tokens;
    EXPECT_EQ(attributed,
              record.prefetch_issued_tokens - record.prefetch_hit_tokens)
        << "session " << record.id;
    canceled_total += attributed;
  }
  EXPECT_EQ(canceled_total,
            m.prefetch_canceled_total(obs::FetchCancelReason::kMisprediction) +
                m.prefetch_canceled_total(obs::FetchCancelReason::kEnforcement) +
                m.prefetch_canceled_total(
                    obs::FetchCancelReason::kSessionRelease));
  const double total_waste = m.prefetch_waste_rate();
  const double attributed_waste =
      m.prefetch_waste_rate(obs::FetchCancelReason::kMisprediction) +
      m.prefetch_waste_rate(obs::FetchCancelReason::kEnforcement) +
      m.prefetch_waste_rate(obs::FetchCancelReason::kSessionRelease);
  EXPECT_NEAR(attributed_waste, total_waste, 1e-12);
}

/// Virtual-clock trace fields must not depend on the worker count: the
/// kernels are bit-deterministic across workers, and wall time never
/// feeds the virtual clock. Events compare per track, in emission order
/// within the track (the order write_chrome_trace exports): inside a
/// fanned-out wave, leaf events of different sessions (fetch-issue,
/// demand-fetch, repair-pass, ...) interleave in the ring in wall-clock
/// order, but each session's own track is written by one thread at a
/// time. Worker-track events (advance spans and score instants, tracks >=
/// kWorkerTrackBase) are the one deliberate exception — which pool slot
/// runs which session is a wall-schedule fact — so they are compared as a
/// track-agnostic multiset.
TEST(TraceDeterminism, VirtualClockFieldsIdenticalAcrossWorkerCounts) {
  WorkerGuard worker_guard;
  TracerGuard tracer_guard;
  const auto session = obs_session_config();
  const auto scheduler_config = obs_scheduler_config(session);
  const LatencyModel latency(HardwareModel::ada6000(), ModelConfig::llama31_8b());

  struct Snapshot {
    std::string name;
    obs::TraceEvent::Phase phase;
    std::int64_t track;
    double virtual_us;
    std::int64_t args[2];
  };
  const auto run_traced = [&](int workers) {
    set_parallel_workers(workers);
    auto& tr = obs::tracer();
    tr.enable();
    BatchScheduler scheduler(obs_trace(3), obs_method(), session, latency,
                             scheduler_config);
    run_obs_fleet(scheduler);
    std::vector<Snapshot> out;
    for (const auto& event : tr.events()) {
      out.push_back({std::string(tr.name_of(event.name)), event.phase,
                     event.track, event.virtual_us,
                     {event.args[0], event.args[1]}});
    }
    tr.disable();
    return out;
  };

  const auto serial = run_traced(1);
  const auto parallel = run_traced(4);
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), parallel.size());

  const auto split_worker_events = [](const std::vector<Snapshot>& events) {
    std::pair<std::vector<Snapshot>, std::vector<Snapshot>> out;
    for (const auto& e : events) {
      (e.track >= obs::kWorkerTrackBase ? out.second : out.first).push_back(e);
    }
    const auto by_track = [](const Snapshot& a, const Snapshot& b) {
      return a.track < b.track;
    };
    std::stable_sort(out.first.begin(), out.first.end(), by_track);
    return out;
  };
  const auto [serial_sem, serial_worker] = split_worker_events(serial);
  const auto [parallel_sem, parallel_worker] = split_worker_events(parallel);

  ASSERT_EQ(serial_sem.size(), parallel_sem.size());
  for (std::size_t i = 0; i < serial_sem.size(); ++i) {
    EXPECT_EQ(serial_sem[i].name, parallel_sem[i].name) << "event " << i;
    EXPECT_EQ(serial_sem[i].phase, parallel_sem[i].phase) << "event " << i;
    EXPECT_EQ(serial_sem[i].track, parallel_sem[i].track) << "event " << i;
    EXPECT_DOUBLE_EQ(serial_sem[i].virtual_us, parallel_sem[i].virtual_us)
        << "event " << i;
    EXPECT_EQ(serial_sem[i].args[0], parallel_sem[i].args[0]) << "event " << i;
    EXPECT_EQ(serial_sem[i].args[1], parallel_sem[i].args[1]) << "event " << i;
  }

  // The same sessions advance in the same virtual windows regardless of
  // which slot ran them: sorting away the wall-schedule dimensions (track,
  // emission order) must leave identical worker-span multisets.
  ASSERT_EQ(serial_worker.size(), parallel_worker.size());
  const auto worker_key = [](const Snapshot& e) {
    return std::make_tuple(e.name, e.phase, e.virtual_us, e.args[0], e.args[1]);
  };
  auto serial_sorted = serial_worker;
  auto parallel_sorted = parallel_worker;
  const auto by_key = [&](const Snapshot& a, const Snapshot& b) {
    return worker_key(a) < worker_key(b);
  };
  std::sort(serial_sorted.begin(), serial_sorted.end(), by_key);
  std::sort(parallel_sorted.begin(), parallel_sorted.end(), by_key);
  for (std::size_t i = 0; i < serial_sorted.size(); ++i) {
    EXPECT_EQ(worker_key(serial_sorted[i]), worker_key(parallel_sorted[i]))
        << "worker event " << i;
  }
}

/// The preempt -> resume edge: on every session track the two instants
/// alternate starting with a preempt (back-to-back preempts are allowed —
/// a session can be preempted again before it next makes progress), and
/// the traced fleet resumes at least once. Both edges are emitted in the
/// serial commit phase, so the contract holds at any worker count.
TEST(TraceEdges, ResumeFollowsPreemptOnEverySessionTrack) {
  WorkerGuard worker_guard;
  TracerGuard tracer_guard;
  const auto session = obs_session_config();
  const auto ckv = obs_ckv_config();
  const LatencyModel latency(HardwareModel::ada6000(), ModelConfig::llama31_8b());
  // Tighter than the shared obs budget: room for a few residual floors but
  // not for the admitted working sets, so enforcement must preempt.
  BatchSchedulerConfig config = obs_scheduler_config(session);
  config.fast_tier_budget_bytes =
      session_context_bytes(session, 3 * ckv.sink_tokens + 3 * ckv.tokens_per_cluster);
  config.admission_overcommit = 4.0;
  for (const int workers : {1, 4}) {
    set_parallel_workers(workers);
    auto& tr = obs::tracer();
    tr.enable();
    BatchScheduler scheduler(obs_trace(4), obs_method(), session, latency, config);
    run_obs_fleet(scheduler);
    EXPECT_GT(scheduler.metrics().total_preemptions(), 0) << workers << " workers";
    std::map<std::int64_t, std::string> last_edge;  // per session track
    Index resumes = 0;
    for (const auto& event : tr.events()) {
      const std::string name(tr.name_of(event.name));
      if (event.phase != obs::TraceEvent::Phase::kInstant ||
          (name != "preempt" && name != "resume")) {
        continue;
      }
      if (name == "resume") {
        EXPECT_EQ(last_edge[event.track], "preempt")
            << "track " << event.track << " at " << workers << " workers";
        ++resumes;
      }
      last_edge[event.track] = name;
    }
    EXPECT_GT(resumes, 0) << workers << " workers";
    tr.disable();
  }
}

/// Under a binding ClusterKV budget a tick's prefill chunks share one wave
/// and each decoder advances and commits on its own: enforcement takes
/// nothing from a session before its first token, so the chunks may commit
/// in any order, while a decode step's growth has no bound the scheduler
/// could check. Every advance span on a worker track must therefore end
/// where its session's track records a prefill chunk. The wave is not held
/// to the budget headroom: a burst of twelve sessions in 16-token chunks
/// (shorter than a cluster, so each chunk's pending tokens stay on the fast
/// tier) under a 300-token budget preempts, and some tick whose prefill
/// chunks all ran in a multi-item wave enforces the budget before any of
/// its decode steps commits. The score pass still fans every decoder out:
/// each decode step leaves one `score` instant on a worker track.
TEST(WaveFanOut, OnlyPrefillChunksShareAWaveUnderAClusterKVBudget) {
  WorkerGuard worker_guard;
  TracerGuard tracer_guard;
  const auto session = obs_session_config();
  const LatencyModel latency(HardwareModel::ada6000(), ModelConfig::llama31_8b());
  BatchSchedulerConfig config = obs_scheduler_config(session);
  config.fast_tier_budget_bytes = session_context_bytes(session, 300);
  config.prefill_chunk_tokens = 16;
  auto trace = obs_trace(12);
  for (auto& request : trace) {
    request.arrival_ms = 0.0;
  }
  set_parallel_workers(4);
  auto& tr = obs::tracer();
  tr.enable();
  BatchScheduler scheduler(trace, obs_method(), session, latency, config);
  run_obs_fleet(scheduler);
  EXPECT_GT(scheduler.metrics().total_preemptions(), 0) << "the budget never bound";

  // Commit instants and ended worker advances, keyed (session track, virtual us).
  std::map<std::pair<std::int64_t, double>, std::string> commits;
  std::vector<std::pair<std::int64_t, double>> advances;
  std::map<std::int64_t, std::int64_t> open_advance;  // worker track -> session
  // Per tick (completion virtual us): its prefill chunks and wave advances,
  // and whether enforcement acted before its first decode step committed.
  std::map<double, Index> tick_chunks;
  std::map<double, Index> tick_advances;
  std::map<double, bool> tick_decoded;
  std::map<double, bool> tick_enforced_in_prefill;
  Index decode_steps = 0;
  Index worker_scores = 0;
  for (const auto& event : tr.events()) {
    const std::string name(tr.name_of(event.name));
    decode_steps += name == "decode-step" ? 1 : 0;
    worker_scores += name == "score" && event.track >= obs::kWorkerTrackBase ? 1 : 0;
    if (name == "prefill-chunk" || name == "decode-step") {
      commits[{event.track, event.virtual_us}] = name;
      tick_chunks[event.virtual_us] += name == "prefill-chunk" ? 1 : 0;
      tick_decoded[event.virtual_us] |= name == "decode-step";
    } else if (name == "enforce-cancel" || name == "preempt") {
      tick_enforced_in_prefill[event.virtual_us] |= !tick_decoded[event.virtual_us];
    } else if (name == "advance" && event.phase == obs::TraceEvent::Phase::kBegin) {
      open_advance[event.track] = event.args[0];
    } else if (name == "advance" && event.phase == obs::TraceEvent::Phase::kEnd) {
      advances.emplace_back(1 + open_advance.at(event.track), event.virtual_us);
      ++tick_advances[event.virtual_us];
    }
  }
  ASSERT_FALSE(advances.empty()) << "no prefill chunks shared a wave";
  Index decoders = 0;
  for (const auto& key : advances) {
    const auto it = commits.find(key);
    ASSERT_NE(it, commits.end()) << "advance without a commit on track " << key.first;
    decoders += it->second == "decode-step" ? 1 : 0;
  }
  EXPECT_EQ(decoders, 0) << "of " << advances.size() << " worker-track advances";
  EXPECT_GT(decode_steps, 0);
  EXPECT_EQ(worker_scores, decode_steps);
  Index overrun_waves = 0;
  for (const auto& [tick_us, chunks] : tick_chunks) {
    if (chunks >= 2 && tick_advances[tick_us] == chunks &&
        tick_enforced_in_prefill[tick_us]) {
      ++overrun_waves;
    }
  }
  EXPECT_GT(overrun_waves, 0) << "no multi-item wave outgrew the budget headroom";
}

/// Per-worker utilization: the serial path bills slot 0; total indices
/// are conserved regardless of how chunks spread over slots.
TEST(WorkerUtilization, CountsChunksAndIndices) {
  WorkerGuard worker_guard;
  reset_parallel_worker_utilization();
  set_parallel_workers(1);
  parallel_for_range(0, 100, 10, [](Index, Index) {});
  auto util = parallel_worker_utilization();
  ASSERT_FALSE(util.empty());
  EXPECT_EQ(util[0].chunks, 10);
  EXPECT_EQ(util[0].indices, 100);

  reset_parallel_worker_utilization();
  set_parallel_workers(4);
  parallel_for_range(0, 1000, 10, [](Index, Index) {});
  util = parallel_worker_utilization();
  std::int64_t chunks = 0;
  std::int64_t indices = 0;
  for (const auto& slot : util) {
    chunks += slot.chunks;
    indices += slot.indices;
  }
  EXPECT_EQ(chunks, 100);
  EXPECT_EQ(indices, 1000);
}

}  // namespace
}  // namespace ckv
