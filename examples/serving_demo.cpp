// Serving demo: a small fleet of concurrent users over per-session
// ClusterKV engines, scheduled by the continuous-batching runtime.
//
// This example walks the serving API end to end:
//   1. generate a Poisson trace of requests (arrival times, prompt and
//      generation lengths),
//   2. state the serving method once — ClusterKV, its knobs and the
//      k-means seed — and build a BatchScheduler over it with a
//      constrained global fast-tier budget,
//   3. tick it manually and watch sessions move through their lifecycle
//      (queued -> prefilling -> decoding -> finished) while the scheduler
//      arbitrates HBM residency across them,
//   4. print the per-session and fleet-level metrics.
//
// Build & run:  cmake --build build && ./build/serving_demo
#include <iostream>

#include "core/clusterkv_engine.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/trace.hpp"
#include "util/table.hpp"

using namespace ckv;

int main() {
  // 1. Eight users arriving at ~8 requests/second, each with a ~0.5k-token
  //    prompt and a short generation.
  TraceConfig trace_config;
  trace_config.num_requests = 8;
  trace_config.offered_rps = 8.0;
  trace_config.prompt_len_min = 400;
  trace_config.prompt_len_max = 600;
  trace_config.decode_len_min = 8;
  trace_config.decode_len_max = 16;
  const auto trace = make_poisson_trace(trace_config, 7);

  // 2. Per-session engines: a 1-layer x 2-head slice, 96-token KV budget,
  //    ClusterKV with a fine cluster granularity for these short contexts.
  SessionConfig session_config;
  session_config.shape.num_layers = 1;
  session_config.shape.num_heads = 2;
  session_config.shape.head_dim = 64;
  session_config.params.head_dim = 64;
  session_config.engine.budget = 96;
  session_config.engine.full_attention_layers = 0;

  ClusterKVConfig ckv;
  ckv.tokens_per_cluster = 20;
  ckv.decode_interval = 16;
  ckv.decode_clusters = 2;
  // One value states the method: every session's engines are built from
  // it, and the scheduler reads the same knobs for its admission floors
  // and its virtual-clock bills (cross-chunk cluster repair runs inside
  // the engines by default, and its cost lands on the clock at the final
  // prefill chunk).
  const ServeMethod method{LatencyModel::Method::kClusterKV, ckv, 2025};

  BatchSchedulerConfig scheduler_config;
  // Budget: ~3 ClusterKV working sets — the whole fleet could never pin
  // its full contexts (8 x ~500 tokens), recallable compression is what
  // makes the batch fit.
  const Index per_token = session_token_bytes(session_config);
  const Index floor_tokens = ckv.sink_tokens + ckv.decode_interval +
                             ckv.cache_depth * session_config.engine.budget;
  scheduler_config.fast_tier_budget_bytes =
      3 * floor_tokens * per_token * session_config.shape.total_heads();
  // The knobs below are the full scheduler surface (docs/SCHEDULING.md):
  // overcommit lets admission reserve past the budget (preemption keeps
  // actual residency under it), chunked prefill bounds how long one
  // admission can stall the running batch.
  scheduler_config.admission_overcommit = 1.5;
  scheduler_config.prefill_chunk_tokens = 128;
  scheduler_config.max_running = 0;  // unlimited; the byte budget gates

  const LatencyModel latency(HardwareModel::ada6000(), ModelConfig::llama31_8b());
  BatchScheduler scheduler(trace, method, session_config, latency, scheduler_config);

  // 3. Tick manually to watch the runtime arbitrate. Prefilling sessions
  //    consume one 128-token chunk per tick while decoding sessions keep
  //    producing tokens — no admission stalls the batch for a whole prompt.
  std::cout << "tick  t (ms)    queued  prefilling  decoding  finished  "
            << "fast-tier (KiB / "
            << scheduler_config.fast_tier_budget_bytes / 1024 << " KiB budget)\n";
  while (scheduler.tick()) {
    Index prefilling = 0;
    for (const auto& session : scheduler.running()) {
      prefilling += session->state() == SessionState::kPrefilling ? 1 : 0;
    }
    std::cout << "  " << scheduler.ticks() << "\t" << static_cast<long>(scheduler.now_ms())
              << "\t  " << scheduler.queued_count() << "\t    " << prefilling
              << "\t      " << scheduler.running_count() - prefilling << "\t    "
              << scheduler.finished_count() << "\t    "
              << scheduler.fast_tier_bytes() / 1024 << "\n";
  }

  // 4. Per-session records: every user kept their recall metrics.
  const auto& metrics = scheduler.metrics();
  TextTable table({"session", "prompt", "decode", "wait (ms)", "prefill (ms)",
                   "TTFT (ms)", "ITL (ms)", "preempt", "hit rate", "recall@B"});
  for (const auto& record : metrics.records()) {
    table.add_row({std::to_string(record.id), std::to_string(record.prompt_len),
                   std::to_string(record.decode_len),
                   format_double(record.queue_wait_ms(), 0),
                   format_double(record.prefill_ms(), 0),
                   format_double(record.ttft_ms(), 0),
                   format_double(record.inter_token_ms(), 1),
                   std::to_string(record.preemptions),
                   format_double(record.cache_hit_rate, 2),
                   format_double(record.mean_recall, 3)});
  }
  std::cout << "\n" << table.to_string();
  std::cout << "\nfleet: " << format_double(metrics.throughput_tps(), 1)
            << " tok/s sustained, peak occupancy "
            << metrics.peak_occupancy_bytes() / 1024 << " KiB, "
            << metrics.total_preemptions() << " preemptions\n";
  return 0;
}
