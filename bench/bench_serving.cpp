// Multi-session serving bench: sustained decode throughput and latency
// percentiles vs. offered load, ClusterKV against the full-KV and Quest
// baselines under one shared fast-tier (HBM) byte budget.
//
// This is where recallable compression pays off beyond single-sequence
// latency (Fig. 12/13): a ClusterKV session only pins its sinks, pending
// tokens and the cluster-cache window in HBM, so the same budget admits
// several times more concurrent sessions, which amortizes the dominant
// weight-streaming cost of every decode tick. Full KV and Quest pin the
// whole context and queue instead.
//
// Four ClusterKV rows isolate the chunked-prefill and fetch-overlap
// trade-offs. Every one bills its slow->fast fetches through the transfer
// engine (sim/transfer_engine): one bandwidth-contended wire at
// --link-gbps shared by every running session, which the dm-stall /
// link-util / late-pf columns report.
//   "ClusterKV (prefetch)" — chunked prefill + repair + async cluster
//                            prefetch: predicted next-step clusters fetch
//                            slow->fast overlapped with the current
//                            step's attention (the serving default);
//   "ClusterKV (repair)"   — same, but every cache miss fetches
//                            synchronously inside select();
//   "ClusterKV (chunked)"  — chunked prefill, repair off: the recall
//                            regression the repair pass exists to fix;
//   "ClusterKV (inline)"   — whole-prompt prefill per admission tick
//                            (prefill_chunk_tokens = 0): one-shot
//                            clustering, the recall ceiling, at the price
//                            of tail TTFT (see docs/SCHEDULING.md).
//
// `--check-recall` runs a reduced version of the comparison and exits
// non-zero if chunked+repair recall@B falls below the committed floor or
// costs more than the committed throughput margin — the CI guard against
// the chunk-locality recall regression silently returning.
//
// `--check-prefetch` guards the prefetch row the same way: prefetch hit
// rate must hold the committed floor, throughput must be no worse than
// the sync-fetch row, and selection must be bit-identical to sync
// (prefetch is latency-only — equal recall@B on the same denominator and
// an equal cache hit rate, since it moves *when* bytes cross, not
// whether).
//
// Every random stream in this bench derives from one `--seed` (trace
// arrivals/lengths, per-request procedural contexts, per-head k-means
// sampling), so the CI guards are exactly reproducible and cannot flake.
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/clusterkv_engine.hpp"
#include "obs/trace.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/trace.hpp"
#include "sim/latency_model.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace ckv;

struct ServingSetup {
  SessionConfig session;
  ClusterKVConfig clusterkv;
  TraceConfig trace;
  std::int64_t fast_budget_bytes = 0;
  std::uint64_t seed = 2025;
  /// Modeled slow->fast link bandwidth for every ClusterKV row
  /// (--link-gbps); 0 picks the hardware model's gather rate.
  double link_gbps = 0.0;
};

/// Prefetch depth of the serving default: the budget selects ~6 clusters
/// per step at 20-token granularity, so covering the ~10 clusters at and
/// just below the selection cutoff catches most step-to-step rotation
/// (the trimmed cluster's tail and jitter flip-flops; focus drift to a
/// brand-new topic is inherently unpredictable). Waste is cheap — issued
/// bytes drain behind every demand byte on the wire and bill no stall of
/// their own — so depth errs generous.
constexpr Index kPrefetchClusters = 10;
constexpr double kPrefetchPriorWeight = 1.0;
constexpr double kPrefetchPriorDecay = 0.8;

ServingSetup make_setup(std::uint64_t seed) {
  ServingSetup setup;
  setup.seed = seed;
  setup.session.shape.num_layers = 1;
  setup.session.shape.num_heads = 2;
  setup.session.shape.head_dim = 64;
  setup.session.params.head_dim = 64;
  setup.session.engine.budget = 128;
  setup.session.engine.full_attention_layers = 0;

  setup.clusterkv = bench::paper_clusterkv();
  setup.clusterkv.decode_interval = 32;  // serving decodes are short; keep
  setup.clusterkv.decode_clusters = 2;   // the pending buffer proportionate
  setup.clusterkv.tokens_per_cluster = 20;  // L/80 is too coarse at ~1k tokens

  // Long-prompt mix: uniform 150..1800 gives every trace a blend of
  // interactive short requests and long-document admissions — the regime
  // where inline prefill makes short sessions pay for long ones.
  setup.trace.num_requests = 16;
  setup.trace.prompt_len_min = 150;
  setup.trace.prompt_len_max = 1800;
  setup.trace.decode_len_min = 16;
  setup.trace.decode_len_max = 32;

  // Global HBM budget: ~2.5 mean full contexts. Full KV can overlap two or
  // three sessions; the ClusterKV working set (sinks + pending + cache
  // window) is ~6x smaller, so it batches most of the fleet.
  const Index mean_context =
      (setup.trace.prompt_len_min + setup.trace.prompt_len_max) / 2 +
      (setup.trace.decode_len_min + setup.trace.decode_len_max) / 2;
  const Index per_token = session_token_bytes(setup.session);
  setup.fast_budget_bytes = static_cast<std::int64_t>(
      2.2 * static_cast<double>(mean_context * per_token *
                                setup.session.shape.total_heads()));
  return setup;
}

struct MethodRun {
  std::string name;
  ServeMethod serve;
  BatchSchedulerConfig scheduler;
};

std::vector<MethodRun> serving_methods(const ServingSetup& setup,
                                       bool clusterkv_only = false) {
  std::vector<MethodRun> methods;
  const auto clusterkv = [&](const ClusterKVConfig& config) {
    return ServeMethod{LatencyModel::Method::kClusterKV, config, setup.seed};
  };

  BatchSchedulerConfig ckv_config;
  ckv_config.admission_overcommit = 1.5;
  ckv_config.fast_tier_budget_bytes = setup.fast_budget_bytes;
  ckv_config.prefill_chunk_tokens = 256;  // ~3-7 chunks per long prompt
  ckv_config.link_gbps = setup.link_gbps;

  // Serving default: repair + async cluster prefetch. Same engine seed
  // and clustering knobs as the sync row — selection is bit-identical,
  // only fetch latency moves (the --check-prefetch guard pins this).
  ClusterKVConfig prefetch_ckv = setup.clusterkv;
  prefetch_ckv.prefetch_clusters = kPrefetchClusters;
  prefetch_ckv.prefetch_prior_weight = kPrefetchPriorWeight;
  prefetch_ckv.prefetch_prior_decay = kPrefetchPriorDecay;
  methods.push_back({"ClusterKV (prefetch)", clusterkv(prefetch_ckv), ckv_config});

  methods.push_back({"ClusterKV (repair)", clusterkv(setup.clusterkv), ckv_config});

  // Repair off: the chunk-local clustering recall regression, isolated.
  ClusterKVConfig no_repair = setup.clusterkv;
  no_repair.repair_refine_iterations = 0;
  methods.push_back({"ClusterKV (chunked)", clusterkv(no_repair), ckv_config});

  // Same method, inline (whole-prompt-per-tick) prefill: isolates what
  // chunking buys — queued/running sessions stop paying a full foreign
  // prefill per admission, so tail TTFT drops at equal throughput. One
  // clustering batch per prompt also makes repair a no-op, so this row is
  // the one-shot recall ceiling.
  BatchSchedulerConfig inline_config = ckv_config;
  inline_config.prefill_chunk_tokens = 0;
  methods.push_back({"ClusterKV (inline)", clusterkv(no_repair), inline_config});
  if (clusterkv_only) {
    return methods;
  }

  BatchSchedulerConfig baseline_config;
  baseline_config.fast_tier_budget_bytes = setup.fast_budget_bytes;
  methods.push_back(
      {"Quest", ServeMethod{LatencyModel::Method::kQuest, {}, 0}, baseline_config});
  methods.push_back(
      {"Full KV", ServeMethod{LatencyModel::Method::kFullKV, {}, 0}, baseline_config});
  return methods;
}

/// p95 TTFT over the interactive class (prompt <= threshold): the
/// sessions that queue behind long admissions and whose first token
/// chunked prefill is supposed to protect.
double short_session_ttft_p95(const ServeMetrics& metrics, Index threshold) {
  std::vector<double> values;
  for (const auto& record : metrics.records()) {
    if (record.prompt_len <= threshold) {
      values.push_back(record.ttft_ms());
    }
  }
  return values.empty() ? 0.0 : percentile(values, 95.0);
}

/// Committed floors for the --check-recall CI guard: chunked+repair must
/// hold this much recall@B on the bench mix, at no more than this relative
/// throughput cost vs. chunked-without-repair.
constexpr double kRepairRecallFloor = 0.45;
constexpr double kRepairThroughputMargin = 0.05;

/// Committed floor for the --check-prefetch CI guard: the share of fetch
/// traffic the predictor covers in flight on the serving mix.
constexpr double kPrefetchHitFloor = 0.6;

/// Budget scale of the prefetch guard relative to the main table's 2.2x
/// mean-context budget. Speculation needs HBM headroom: at the pinned
/// 2.2x budget the fleet working set sits exactly at the cap, so
/// enforcement (correctly) cancels most in-flight fetches before touching
/// resident KV, and the hit rate measures budget starvation rather than
/// the predictor (the main table's "pf hit" column shows that regime).
/// The guard scales the shared budget up so in-flight transfer buffers
/// fit — both rows run at the same scaled budget, keeping the
/// prefetch-vs-sync comparison apples-to-apples.
constexpr double kPrefetchGuardBudgetScale = 2.0;

/// CI smoke: one mid load, the ClusterKV rows only. Exits non-zero when
/// the repair row breaks either committed floor, so the chunk-locality
/// recall regression cannot silently return. The inline row does not feed
/// the pass/fail logic but is printed on purpose: when the guard trips,
/// the log must show whether repair drifted or the one-shot ceiling moved.
int check_recall(const ServingSetup& setup, const LatencyModel& latency) {
  TraceConfig trace_config = setup.trace;
  trace_config.offered_rps = 6.0;
  const auto trace = make_poisson_trace(trace_config, setup.seed);

  double repair_recall = 0.0;
  double repair_tps = 0.0;
  double chunked_recall = 0.0;
  double chunked_tps = 0.0;
  for (const auto& method : serving_methods(setup, /*clusterkv_only=*/true)) {
    BatchScheduler scheduler(trace, method.serve, setup.session, latency,
                             method.scheduler);
    scheduler.run();
    const auto& m = scheduler.metrics();
    std::cout << method.name << ": recall@B " << format_double(m.mean_recall(), 3)
              << ", tok/s " << format_double(m.throughput_tps(), 1)
              << ", repair cost " << format_double(m.repair_ms_total(), 1)
              << " ms over " << m.recall_steps_total() << " scored steps\n";
    if (method.name == "ClusterKV (repair)") {
      repair_recall = m.mean_recall();
      repair_tps = m.throughput_tps();
    } else if (method.name == "ClusterKV (chunked)") {
      chunked_recall = m.mean_recall();
      chunked_tps = m.throughput_tps();
    }
  }

  bool ok = true;
  if (repair_recall < kRepairRecallFloor) {
    std::cout << "FAIL: chunked+repair recall@B " << format_double(repair_recall, 3)
              << " < committed floor " << format_double(kRepairRecallFloor, 2) << "\n";
    ok = false;
  }
  if (repair_tps < chunked_tps * (1.0 - kRepairThroughputMargin)) {
    std::cout << "FAIL: repair costs more than "
              << format_double(kRepairThroughputMargin * 100.0, 0)
              << "% throughput (" << format_double(repair_tps, 1) << " vs "
              << format_double(chunked_tps, 1) << " tok/s)\n";
    ok = false;
  }
  if (ok) {
    std::cout << "OK: repair holds recall@B >= "
              << format_double(kRepairRecallFloor, 2) << " (chunked baseline "
              << format_double(chunked_recall, 3) << ") within the throughput "
              << "margin\n";
  }
  return ok ? 0 : 1;
}

/// CI smoke for async prefetch: one mid load, prefetch row vs the
/// sync-fetch repair row. Exits non-zero when the predictor misses the
/// committed hit-rate floor, when overlapping fetches somehow costs
/// throughput, or when selection quality moved at all — prefetch is
/// latency-only by construction, so recall@B, its step denominator and
/// the cache hit rate must match the sync row exactly.
int check_prefetch(const ServingSetup& base_setup, const LatencyModel& latency) {
  ServingSetup setup = base_setup;
  setup.fast_budget_bytes = static_cast<std::int64_t>(
      kPrefetchGuardBudgetScale * static_cast<double>(setup.fast_budget_bytes));
  TraceConfig trace_config = setup.trace;
  trace_config.offered_rps = 6.0;
  const auto trace = make_poisson_trace(trace_config, setup.seed);

  struct RowStats {
    double recall = 0.0;
    std::int64_t recall_steps = 0;
    double hit_rate = 0.0;
    double tps = 0.0;
    double prefetch_hit_rate = 0.0;
    double prefetch_waste = 0.0;
    double waste_mis = 0.0;
    double waste_enf = 0.0;
    double waste_rel = 0.0;
  };
  RowStats prefetch;
  RowStats sync;
  for (const auto& method : serving_methods(setup, /*clusterkv_only=*/true)) {
    if (method.name != "ClusterKV (prefetch)" && method.name != "ClusterKV (repair)") {
      continue;
    }
    BatchScheduler scheduler(trace, method.serve, setup.session, latency,
                             method.scheduler);
    scheduler.run();
    const auto& m = scheduler.metrics();
    RowStats row;
    row.recall = m.mean_recall();
    row.recall_steps = m.recall_steps_total();
    row.hit_rate = m.mean_cache_hit_rate();
    row.tps = m.throughput_tps();
    row.prefetch_hit_rate = m.prefetch_hit_rate();
    row.prefetch_waste = m.prefetch_waste_rate();
    row.waste_mis = m.prefetch_waste_rate(obs::FetchCancelReason::kMisprediction);
    row.waste_enf = m.prefetch_waste_rate(obs::FetchCancelReason::kEnforcement);
    row.waste_rel = m.prefetch_waste_rate(obs::FetchCancelReason::kSessionRelease);
    std::cout << method.name << ": prefetch hit rate "
              << format_double(row.prefetch_hit_rate, 3) << ", waste "
              << format_double(row.prefetch_waste, 3) << ", tok/s "
              << format_double(row.tps, 1) << ", recall@B "
              << format_double(row.recall, 3) << " over " << row.recall_steps
              << " scored steps, cache hit rate " << format_double(row.hit_rate, 3)
              << "\n";
    (method.name == "ClusterKV (prefetch)" ? prefetch : sync) = row;
  }

  bool ok = true;
  if (prefetch.prefetch_hit_rate < kPrefetchHitFloor) {
    std::cout << "FAIL: prefetch hit rate "
              << format_double(prefetch.prefetch_hit_rate, 3)
              << " < committed floor " << format_double(kPrefetchHitFloor, 2) << "\n";
    ok = false;
  }
  if (prefetch.tps < sync.tps) {
    std::cout << "FAIL: prefetch throughput " << format_double(prefetch.tps, 1)
              << " tok/s below the sync-fetch baseline " << format_double(sync.tps, 1)
              << " tok/s (overlapped fetches must never cost time)\n";
    ok = false;
  }
  // Waste attribution must explain the whole waste scalar: once every
  // session has retired, misprediction + enforcement + release cancels
  // account for every issued-but-unused fetch.
  {
    const double attributed =
        prefetch.waste_mis + prefetch.waste_enf + prefetch.waste_rel;
    std::cout << "waste attribution: mispredict "
              << format_double(prefetch.waste_mis, 3) << ", enforcement "
              << format_double(prefetch.waste_enf, 3) << ", release "
              << format_double(prefetch.waste_rel, 3) << " (total "
              << format_double(prefetch.prefetch_waste, 3) << ")\n";
    if (std::abs(attributed - prefetch.prefetch_waste) > 1e-12) {
      std::cout << "FAIL: waste attribution components sum to "
                << format_double(attributed, 6)
                << " but prefetch_waste_rate() is "
                << format_double(prefetch.prefetch_waste, 6)
                << " — some canceled fetch lost its reason\n";
      ok = false;
    }
  }
  if (std::abs(prefetch.recall - sync.recall) > 1e-12 ||
      prefetch.recall_steps != sync.recall_steps ||
      std::abs(prefetch.hit_rate - sync.hit_rate) > 1e-12) {
    std::cout << "FAIL: prefetch changed selection behavior (recall@B "
              << format_double(prefetch.recall, 6) << " vs "
              << format_double(sync.recall, 6) << ", steps " << prefetch.recall_steps
              << " vs " << sync.recall_steps << ", cache hit rate "
              << format_double(prefetch.hit_rate, 6) << " vs "
              << format_double(sync.hit_rate, 6)
              << ") — it must be latency-only\n";
    ok = false;
  }
  if (ok) {
    std::cout << "OK: prefetch covers "
              << format_double(prefetch.prefetch_hit_rate, 3)
              << " of fetch traffic in flight (floor "
              << format_double(kPrefetchHitFloor, 2) << ") at no throughput cost ("
              << format_double(prefetch.tps, 1) << " vs "
              << format_double(sync.tps, 1)
              << " tok/s sync) with selection bit-identical to sync\n";
  }
  return ok ? 0 : 1;
}

/// Committed bounds for the --check-faults CI guard (docs/ROBUSTNESS.md):
/// under the chaos preset the faulted prefetch row must keep this share of
/// its fault-free throughput, and under the harsher degraded-path leg the
/// share of decode steps served resident-only must stay below this
/// ceiling (degradation is a last resort, not the steady state).
constexpr double kFaultedThroughputFloor = 0.80;
constexpr double kDegradedRateCeiling = 0.10;
/// Failure rate of the harsher --check-faults leg: high enough that
/// retry exhaustion (dead fetches -> degraded steps) actually fires in a
/// 16-request run, which the milder chaos preset cannot guarantee.
constexpr double kHarshFetchFailureRate = 0.45;

/// Narrow link used by the contention leg of --check-transfer and the
/// determinism CI smoke: slow enough that 16 concurrent sessions pile a
/// visible demand backlog onto the wire.
constexpr double kContendedLinkGbps = 2.5;

/// Finds a named row config so guard runs reuse the exact table configs.
const MethodRun* find_method(const std::vector<MethodRun>& methods,
                             const std::string& name) {
  for (const auto& method : methods) {
    if (method.name == name) {
      return &method;
    }
  }
  return nullptr;
}

/// CI smoke for the transfer engine on the prefetch row, two legs (the
/// engine's single-session parity with LatencyModel::clusterkv_step is a
/// unit test, LatencyModel.ContendedFetchMatchesClusterKVTransferTerm):
///   1. contention — at a fixed narrow link the mean per-step demand
///      stall must grow when the fleet grows from 1 to 16 sessions;
///   2. bandwidth monotonicity — fleet throughput must be non-decreasing
///      in --link-gbps (a faster wire can never slow serving down).
int check_transfer(const ServingSetup& setup, const LatencyModel& latency) {
  const auto methods = serving_methods(setup, /*clusterkv_only=*/true);
  const MethodRun* prefetch = find_method(methods, "ClusterKV (prefetch)");
  if (prefetch == nullptr) {
    std::cout << "FAIL: bench rows renamed; --check-transfer needs the "
                 "prefetch row\n";
    return 1;
  }
  const auto run = [&](const TraceConfig& tc, double link_gbps) {
    BatchSchedulerConfig config = prefetch->scheduler;
    config.link_gbps = link_gbps;
    BatchScheduler scheduler(make_poisson_trace(tc, setup.seed), prefetch->serve,
                             setup.session, latency, config);
    scheduler.run();
    struct Out {
      double tps = 0.0;
      double stall_ms = 0.0;
      std::int64_t stall_steps = 0;
      double link_util = 0.0;
    } out;
    const auto& m = scheduler.metrics();
    out.tps = m.throughput_tps();
    out.stall_ms = m.demand_stall_ms_total();
    out.stall_steps = m.demand_stall_steps();
    out.link_util =
        m.makespan_ms() > 0.0 ? m.link_busy_ms_total() / m.makespan_ms() : 0.0;
    return out;
  };
  bool ok = true;

  TraceConfig solo_tc = setup.trace;
  solo_tc.num_requests = 1;
  solo_tc.offered_rps = 6.0;
  TraceConfig fleet_tc = setup.trace;
  fleet_tc.offered_rps = 1000.0;  // the whole fleet arrives at once
  const auto solo_narrow = run(solo_tc, kContendedLinkGbps);
  const auto fleet_narrow = run(fleet_tc, kContendedLinkGbps);
  const double solo_mean =
      solo_narrow.stall_steps > 0
          ? solo_narrow.stall_ms / static_cast<double>(solo_narrow.stall_steps)
          : 0.0;
  const double fleet_mean =
      fleet_narrow.stall_steps > 0
          ? fleet_narrow.stall_ms / static_cast<double>(fleet_narrow.stall_steps)
          : 0.0;
  std::cout << "contention @ " << format_double(kContendedLinkGbps, 1)
            << " GB/s: mean demand stall " << format_double(solo_mean, 3)
            << " ms/step solo -> " << format_double(fleet_mean, 3) << " ms/step at "
            << setup.trace.num_requests << " sessions (link util "
            << format_double(fleet_narrow.link_util, 2) << ")\n";
  if (fleet_mean <= solo_mean) {
    std::cout << "FAIL: demand stall did not grow with concurrent sessions — "
                 "the wire is not contended\n";
    ok = false;
  }

  double prev_tps = 0.0;
  double prev_gbps = 0.0;
  bool first = true;
  for (const double gbps : {2.5, 5.0, 10.0, 25.0}) {
    const auto out = run(fleet_tc, gbps);
    std::cout << "link " << format_double(gbps, 1) << " GB/s: "
              << format_double(out.tps, 2) << " tok/s, demand stall "
              << format_double(out.stall_ms, 1) << " ms\n";
    if (!first && out.tps + 1e-9 < prev_tps) {
      std::cout << "FAIL: throughput fell from " << format_double(prev_tps, 2)
                << " tok/s at " << format_double(prev_gbps, 1) << " GB/s to "
                << format_double(out.tps, 2) << " tok/s at "
                << format_double(gbps, 1) << " GB/s — must be non-decreasing "
                << "in link bandwidth\n";
      ok = false;
    }
    prev_tps = out.tps;
    prev_gbps = gbps;
    first = false;
  }

  if (ok) {
    std::cout << "OK: stalls grow with fleet size and throughput is monotone "
                 "in link bandwidth\n";
  }
  return ok ? 0 : 1;
}

/// One chaos-table row: the prefetch row's config under a seeded fault
/// plan, with the degradation ledger next to the usual quality columns.
struct FaultRow {
  double load = 0.0;
  double tps = 0.0;
  double fault_free_tps = 0.0;
  double retention = 0.0;  ///< tps / fault_free_tps
  std::int64_t faults = 0;
  std::int64_t retried_ok = 0;
  std::int64_t dead_fetches = 0;
  std::int64_t degraded_steps = 0;
  double degraded_rate = 0.0;  ///< degraded steps / committed decode steps
  double retry_ms = 0.0;
  std::int64_t aborts = 0;
  std::int64_t shed = 0;
  std::int64_t wire_retries = 0;
  std::int64_t wire_failures = 0;
  double recall = 0.0;
  std::int64_t sessions = 0;
};

std::int64_t decode_steps_total(const ServeMetrics& m) {
  std::int64_t steps = 0;
  for (const auto& record : m.records()) {
    steps += record.decode_len;
  }
  return steps;
}

FaultRow make_fault_row(double load, const ServeMetrics& m,
                        double fault_free_tps) {
  FaultRow row;
  row.load = load;
  row.tps = m.throughput_tps();
  row.fault_free_tps = fault_free_tps;
  row.retention = fault_free_tps > 0.0 ? row.tps / fault_free_tps : 0.0;
  row.faults = m.fault_fetch_faults_total();
  row.retried_ok = m.fault_retried_ok_total();
  row.dead_fetches = m.dead_fetches_total();
  row.degraded_steps = m.degraded_steps_total();
  const std::int64_t steps = decode_steps_total(m);
  row.degraded_rate =
      steps > 0 ? static_cast<double>(row.degraded_steps) /
                      static_cast<double>(steps)
                : 0.0;
  row.retry_ms = m.fault_retry_ms_total();
  row.aborts = m.fault_aborts_total();
  row.shed = m.shed_sessions_total();
  row.wire_retries = m.wire_retries_total();
  row.wire_failures = m.wire_failures_total();
  row.recall = m.mean_recall();
  row.sessions = static_cast<std::int64_t>(m.records().size());
  return row;
}

/// Runs the prefetch row once at the given load under the given fault plan
/// (or fault-free when the plan is disabled) and folds the metrics into a
/// FaultRow (ServeMetrics itself is pinned to its scheduler).
FaultRow run_fault_cell(const ServingSetup& setup, const LatencyModel& latency,
                        double load, const FaultPlan& plan, double fault_free_tps) {
  TraceConfig trace_config = setup.trace;
  trace_config.offered_rps = load;
  const auto methods = serving_methods(setup, /*clusterkv_only=*/true);
  const MethodRun* prefetch = find_method(methods, "ClusterKV (prefetch)");
  expects(prefetch != nullptr, "bench_serving: prefetch row missing");
  BatchSchedulerConfig config = prefetch->scheduler;
  config.fault_plan = plan;
  BatchScheduler scheduler(make_poisson_trace(trace_config, setup.seed),
                           prefetch->serve, setup.session, latency, config);
  scheduler.run();
  return make_fault_row(load, scheduler.metrics(), fault_free_tps);
}

/// Sanity identities every faulted run must satisfy; shared by the chaos
/// table (--faults) and the CI guard (--check-faults).
bool fault_identities_hold(const FaultRow& row) {
  bool ok = true;
  if (row.faults != row.retried_ok + row.dead_fetches) {
    std::cout << "FAIL: fault accounting leak — " << row.faults
              << " faulted fetches but " << row.retried_ok << " recovered + "
              << row.dead_fetches << " dead\n";
    ok = false;
  }
  if (row.dead_fetches != row.degraded_steps) {
    std::cout << "FAIL: every dead fetch must degrade exactly one step ("
              << row.dead_fetches << " dead vs " << row.degraded_steps
              << " degraded)\n";
    ok = false;
  }
  return ok;
}

/// CI chaos guard, two legs on the prefetch row at mid load:
///   1. chaos preset — the committed fault mix must retry-to-success or
///      degrade every injected fault (accounting identities), and the
///      faulted row must keep >= 80% of fault-free throughput;
///   2. harsh leg — a failure rate high enough to exhaust retries, so the
///      degraded resident-only path demonstrably runs, stays within the
///      committed degraded-step ceiling, and still finishes every session.
int check_faults(const ServingSetup& setup, const LatencyModel& latency,
                 std::uint64_t fault_seed) {
  bool ok = true;
  const double load = 6.0;
  const FaultRow free_row =
      run_fault_cell(setup, latency, load, FaultPlan{}, 0.0);

  const FaultPlan chaos = FaultPlan::chaos(fault_seed);
  const FaultRow chaos_row =
      run_fault_cell(setup, latency, load, chaos, free_row.tps);
  std::cout << "chaos leg: " << chaos_row.faults << " faulted fetches ("
            << chaos_row.retried_ok << " recovered, " << chaos_row.dead_fetches
            << " dead), " << chaos_row.wire_retries << " wire retries, "
            << chaos_row.aborts << " aborts, " << chaos_row.shed
            << " shed, tok/s " << format_double(chaos_row.tps, 1) << " vs "
            << format_double(chaos_row.fault_free_tps, 1)
            << " fault-free (retention "
            << format_double(chaos_row.retention, 3) << ")\n";
  ok = fault_identities_hold(chaos_row) && ok;
  if (chaos_row.faults == 0 && chaos_row.wire_retries == 0) {
    std::cout << "FAIL: chaos preset injected nothing — the fault path is "
                 "not exercised\n";
    ok = false;
  }
  if (chaos_row.retention < kFaultedThroughputFloor) {
    std::cout << "FAIL: faulted throughput retention "
              << format_double(chaos_row.retention, 3) << " < committed floor "
              << format_double(kFaultedThroughputFloor, 2) << "\n";
    ok = false;
  }

  FaultPlan harsh = chaos;
  harsh.fetch_failure_rate = kHarshFetchFailureRate;
  const FaultRow harsh_row =
      run_fault_cell(setup, latency, load, harsh, free_row.tps);
  std::cout << "harsh leg: " << harsh_row.dead_fetches << " dead fetches -> "
            << harsh_row.degraded_steps << " degraded steps (rate "
            << format_double(harsh_row.degraded_rate, 4) << "), "
            << harsh_row.sessions << " sessions finished\n";
  ok = fault_identities_hold(harsh_row) && ok;
  if (harsh_row.degraded_steps == 0) {
    std::cout << "FAIL: harsh leg never exhausted retries — the degraded "
                 "resident-only path is not exercised\n";
    ok = false;
  }
  if (harsh_row.degraded_rate > kDegradedRateCeiling) {
    std::cout << "FAIL: degraded-step rate "
              << format_double(harsh_row.degraded_rate, 4)
              << " > committed ceiling "
              << format_double(kDegradedRateCeiling, 2) << "\n";
    ok = false;
  }
  // Conservation: every offered request either retires through the normal
  // path (aborted or not) or was shed at admission — none vanish.
  for (const FaultRow* row : {&chaos_row, &harsh_row}) {
    if (row->sessions + row->shed !=
        static_cast<std::int64_t>(setup.trace.num_requests)) {
      std::cout << "FAIL: " << row->sessions << " retired + " << row->shed
                << " shed != " << setup.trace.num_requests << " offered\n";
      ok = false;
    }
  }
  if (ok) {
    std::cout << "OK: every injected fault recovered or degraded gracefully, "
              << "retention " << format_double(chaos_row.retention, 3)
              << " >= " << format_double(kFaultedThroughputFloor, 2)
              << ", degraded-step rate "
              << format_double(harsh_row.degraded_rate, 4) << " <= "
              << format_double(kDegradedRateCeiling, 2) << "\n";
  }
  return ok ? 0 : 1;
}

/// One table row, kept numeric for the BENCH_SERVING.json dump.
struct ServingRow {
  std::string method;
  double load = 0.0;
  double tps = 0.0;
  double max_batch = 0.0;
  double p50_ttft_ms = 0.0;
  double p95_ttft_ms = 0.0;
  double p95_ttft_short_ms = 0.0;
  double p50_itl_ms = 0.0;
  double p95_itl_ms = 0.0;
  double p99_step_itl_ms = 0.0;
  double queue_wait_ms = 0.0;
  Index max_queue_depth = 0;
  Index preemptions = 0;
  double repair_ms = 0.0;
  double hit_rate = 0.0;
  bool has_prefetch = false;
  double pf_hit = 0.0;
  double pf_waste = 0.0;
  double pf_waste_mis = 0.0;
  double pf_waste_enf = 0.0;
  double pf_waste_rel = 0.0;
  double recall = 0.0;
  // Transfer-engine columns (zero for methods without a modeled wire).
  bool has_engine = false;
  double demand_stall_ms = 0.0;
  double link_utilization = 0.0;
  std::int64_t late_pf_tokens = 0;
};

/// Quality/billing columns for one finished scheduler — everything here
/// rides the virtual clock, so it is byte-identical at every worker count.
ServingRow make_serving_row(const std::string& name, double load,
                            const ServeMetrics& m) {
  ServingRow row;
  row.method = name;
  row.load = load;
  row.tps = m.throughput_tps();
  row.max_batch = m.concurrency().max();
  row.p50_ttft_ms = m.ttft_percentile(50.0);
  row.p95_ttft_ms = m.ttft_percentile(95.0);
  row.p95_ttft_short_ms = short_session_ttft_p95(m, 600);
  row.p50_itl_ms = m.inter_token_percentile(50.0);
  row.p95_itl_ms = m.inter_token_percentile(95.0);
  row.p99_step_itl_ms = m.inter_token_gap_p99_ms();
  row.queue_wait_ms = m.mean_queue_wait_ms();
  row.max_queue_depth = m.max_queue_depth();
  row.preemptions = m.total_preemptions();
  row.repair_ms = m.repair_ms_total();
  row.hit_rate = m.mean_cache_hit_rate();
  row.has_prefetch = m.prefetch_issued_total() > 0;
  if (row.has_prefetch) {
    row.pf_hit = m.prefetch_hit_rate();
    row.pf_waste = m.prefetch_waste_rate();
    row.pf_waste_mis = m.prefetch_waste_rate(obs::FetchCancelReason::kMisprediction);
    row.pf_waste_enf = m.prefetch_waste_rate(obs::FetchCancelReason::kEnforcement);
    row.pf_waste_rel = m.prefetch_waste_rate(obs::FetchCancelReason::kSessionRelease);
  }
  row.recall = m.mean_recall();
  row.has_engine = m.demand_stall_steps() > 0 || m.link_drained_bytes_total() > 0.0;
  if (row.has_engine) {
    row.demand_stall_ms = m.demand_stall_ms_total();
    row.link_utilization =
        m.makespan_ms() > 0.0 ? m.link_busy_ms_total() / m.makespan_ms() : 0.0;
    row.late_pf_tokens = m.late_prefetch_tokens_total();
  }
  return row;
}

std::string json_number(double v) {
  std::ostringstream s;
  s << v;
  return s.str();
}

/// Every array carries only virtual-clock quality/billing columns — CI
/// byte-diffs them across worker counts, so no host timestamp may enter.
void write_json(const std::vector<ServingRow>& rows,
                const std::vector<ServingRow>& sweep,
                const std::vector<FaultRow>& fault_rows, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ServingRow& r = rows[i];
    out << "    {\"method\": \"" << r.method << "\", \"load_rps\": "
        << json_number(r.load) << ", \"tok_per_s\": " << json_number(r.tps)
        << ", \"max_batch\": " << json_number(r.max_batch)
        << ", \"p50_ttft_ms\": " << json_number(r.p50_ttft_ms)
        << ", \"p95_ttft_ms\": " << json_number(r.p95_ttft_ms)
        << ", \"p95_ttft_short_ms\": " << json_number(r.p95_ttft_short_ms)
        << ", \"p50_itl_ms\": " << json_number(r.p50_itl_ms)
        << ", \"p95_itl_ms\": " << json_number(r.p95_itl_ms)
        << ", \"p99_step_itl_ms\": " << json_number(r.p99_step_itl_ms)
        << ", \"queue_wait_ms\": " << json_number(r.queue_wait_ms)
        << ", \"max_queue_depth\": " << r.max_queue_depth
        << ", \"preemptions\": " << r.preemptions
        << ", \"repair_ms\": " << json_number(r.repair_ms)
        << ", \"cache_hit_rate\": " << json_number(r.hit_rate)
        << ", \"prefetch_hit_rate\": "
        << (r.has_prefetch ? json_number(r.pf_hit) : "null")
        << ", \"prefetch_waste_rate\": "
        << (r.has_prefetch ? json_number(r.pf_waste) : "null")
        << ", \"prefetch_waste_mispredict\": "
        << (r.has_prefetch ? json_number(r.pf_waste_mis) : "null")
        << ", \"prefetch_waste_enforce\": "
        << (r.has_prefetch ? json_number(r.pf_waste_enf) : "null")
        << ", \"prefetch_waste_release\": "
        << (r.has_prefetch ? json_number(r.pf_waste_rel) : "null")
        << ", \"demand_stall_ms\": "
        << (r.has_engine ? json_number(r.demand_stall_ms) : "null")
        << ", \"link_utilization\": "
        << (r.has_engine ? json_number(r.link_utilization) : "null")
        << ", \"late_prefetch_tokens\": "
        << (r.has_engine ? std::to_string(r.late_pf_tokens) : "null")
        << ", \"recall_at_b\": " << json_number(r.recall) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"link_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ServingRow& r = sweep[i];
    out << "    {\"link_gbps\": " << json_number(r.load)
        << ", \"tok_per_s\": " << json_number(r.tps)
        << ", \"demand_stall_ms\": " << json_number(r.demand_stall_ms)
        << ", \"link_utilization\": " << json_number(r.link_utilization)
        << ", \"late_prefetch_tokens\": " << r.late_pf_tokens
        << ", \"p95_itl_ms\": " << json_number(r.p95_itl_ms) << "}"
        << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ]";
  // Only present under --faults, so the fault-free JSON stays byte-for-byte
  // what it was before fault injection existed.
  if (!fault_rows.empty()) {
    out << ",\n  \"fault_rows\": [\n";
    for (std::size_t i = 0; i < fault_rows.size(); ++i) {
      const FaultRow& r = fault_rows[i];
      out << "    {\"load_rps\": " << json_number(r.load)
          << ", \"tok_per_s\": " << json_number(r.tps)
          << ", \"fault_free_tok_per_s\": " << json_number(r.fault_free_tps)
          << ", \"throughput_retention\": " << json_number(r.retention)
          << ", \"fault_fetch_faults\": " << r.faults
          << ", \"retry_recovered\": " << r.retried_ok
          << ", \"dead_fetches\": " << r.dead_fetches
          << ", \"degraded_steps\": " << r.degraded_steps
          << ", \"degraded_rate\": " << json_number(r.degraded_rate)
          << ", \"retry_ms\": " << json_number(r.retry_ms)
          << ", \"aborts\": " << r.aborts << ", \"shed_sessions\": " << r.shed
          << ", \"wire_retries\": " << r.wire_retries
          << ", \"wire_failures\": " << r.wire_failures
          << ", \"recall_at_b\": " << json_number(r.recall) << "}"
          << (i + 1 < fault_rows.size() ? "," : "") << "\n";
    }
    out << "  ]";
  }
  out << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "bench_serving — multi-tenant throughput/latency/recall comparison");
  args.add_switch("json",
                  "also write BENCH_SERVING.json to the working directory "
                  "(machine-readable serving trajectory across PRs)");
  args.add_option("trace", "",
                  "write a Chrome trace-event JSON of the ClusterKV "
                  "(prefetch) row at 6 req/s (Perfetto-loadable)");
  args.add_switch("check-recall",
                  "CI smoke: fail if chunked+repair recall@B drops below the "
                  "committed floor or exceeds the throughput margin");
  args.add_switch("check-prefetch",
                  "CI smoke: fail if the async-prefetch hit rate drops below "
                  "the committed floor, throughput falls below sync fetch, or "
                  "selection is not bit-identical to sync");
  args.add_switch("check-transfer",
                  "CI smoke: fail if the prefetch row's demand stall does not "
                  "grow with fleet size, or if its throughput is not "
                  "monotone in link bandwidth");
  args.add_switch("faults",
                  "also run the seeded chaos rows: the prefetch row's config "
                  "under FaultPlan::chaos(--fault-seed) at every load, with "
                  "the degradation ledger as extra columns and a fault_rows "
                  "array in the JSON");
  args.add_switch("check-faults",
                  "CI chaos guard: fail if fault accounting leaks, if the "
                  "faulted prefetch row keeps < 80% of fault-free throughput, "
                  "if the degraded resident-only path never runs under the "
                  "harsh leg, or if its rate exceeds the committed ceiling");
  args.add_option("fault-seed", "7777",
                  "seed of the deterministic fault plan used by --faults and "
                  "--check-faults");
  args.add_option("link-gbps", "0",
                  "modeled slow->fast link bandwidth for every ClusterKV row "
                  "(GB/s; 0 = the hardware model's gather rate)");
  args.add_option("seed", "2025",
                  "experiment seed; every RNG in this bench (trace, contexts, "
                  "clustering) derives from it");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n" << args.help();
    return 2;
  }

  auto setup = make_setup(static_cast<std::uint64_t>(args.get_index("seed")));
  setup.link_gbps = args.get_double_in("link-gbps", 0.0, 1e6);
  const LatencyModel latency(HardwareModel::ada6000(), ModelConfig::llama31_8b());
  if (args.get_switch("check-recall")) {
    return check_recall(setup, latency);
  }
  if (args.get_switch("check-prefetch")) {
    return check_prefetch(setup, latency);
  }
  if (args.get_switch("check-transfer")) {
    return check_transfer(setup, latency);
  }
  const auto fault_seed = static_cast<std::uint64_t>(args.get_index("fault-seed"));
  if (args.get_switch("check-faults")) {
    return check_faults(setup, latency, fault_seed);
  }

  bench::print_header("Serving: throughput & latency vs offered load",
                      "multi-tenant extension of Fig. 12/13 (§V-C) under a "
                      "shared fast-tier budget");

  std::cout << "sessions: " << setup.trace.num_requests
            << ", fast-tier budget: " << setup.fast_budget_bytes / 1024
            << " KiB (slice scale), per-session KV budget: "
            << setup.session.engine.budget << " tokens\n\n";

  TextTable table({"method", "load (req/s)", "tok/s", "max batch", "p50 TTFT (s)",
                   "p95 TTFT (s)", "p95 TTFT short (s)", "p50 ITL (ms)",
                   "p95 ITL (ms)", "p99 step ITL (ms)", "queue wait (s)",
                   "max queue", "preempt", "repair (ms)", "hit rate", "pf hit",
                   "pf waste", "pf mis", "pf enf", "pf rel", "dm stall (s)",
                   "link util", "late pf", "recall@B"});

  const std::string trace_path = args.get_string("trace");
  // Cells are independent simulations (own scheduler, own engines, own
  // metrics registry), so a load's methods run concurrently on host
  // threads — results stay byte-identical because every reported column
  // rides the per-scheduler virtual clock, not the host clock. Tracing
  // forces the serial sweep: the tracer ring is process-global, and a
  // concurrent cell would interleave foreign events into the trace.
  const bool threaded_cells = trace_path.empty();
  std::vector<ServingRow> rows;
  for (const double load : {2.0, 6.0, 12.0}) {
    TraceConfig trace_config = setup.trace;
    trace_config.offered_rps = load;
    const auto trace = make_poisson_trace(trace_config, setup.seed);
    const auto methods = serving_methods(setup);
    std::vector<ServingRow> load_rows(methods.size());
    std::vector<std::exception_ptr> cell_errors(methods.size());
    const auto run_cell = [&](std::size_t mi) {
      try {
        const auto& method = methods[mi];
        const bool traced = !trace_path.empty() && load == 6.0 &&
                            method.name == "ClusterKV (prefetch)";
        if (traced) {
          obs::tracer().enable();
        }
        BatchScheduler scheduler(trace, method.serve, setup.session, latency,
                                 method.scheduler);
        scheduler.run();
        if (traced) {
          std::ofstream out(trace_path);
          obs::tracer().write_chrome_trace(out);
          obs::tracer().disable();
          std::cerr << "  [trace] " << trace_path << "\n";
        }
        load_rows[mi] = make_serving_row(method.name, load, scheduler.metrics());
      } catch (...) {
        cell_errors[mi] = std::current_exception();
      }
    };
    if (threaded_cells) {
      // Deliberate bench-cell concurrency: cells are independent
      // schedulers; their engine work still goes through the pool.
      // ckv-lint: allow(raw-thread) -- bench harness cells
      std::vector<std::thread> cells;
      cells.reserve(methods.size());
      for (std::size_t mi = 0; mi < methods.size(); ++mi) {
        cells.emplace_back(run_cell, mi);
      }
      for (auto& cell : cells) {
        cell.join();
      }
    } else {
      for (std::size_t mi = 0; mi < methods.size(); ++mi) {
        run_cell(mi);
      }
    }
    for (std::size_t mi = 0; mi < methods.size(); ++mi) {
      if (cell_errors[mi] != nullptr) {
        std::rethrow_exception(cell_errors[mi]);
      }
      const ServingRow& row = load_rows[mi];
      rows.push_back(row);
      table.add_row({row.method, format_double(load, 1),
                     format_double(row.tps, 1),
                     format_double(row.max_batch, 0),
                     format_double(row.p50_ttft_ms / 1000.0, 2),
                     format_double(row.p95_ttft_ms / 1000.0, 2),
                     format_double(row.p95_ttft_short_ms / 1000.0, 2),
                     format_double(row.p50_itl_ms, 1),
                     format_double(row.p95_itl_ms, 1),
                     format_double(row.p99_step_itl_ms, 1),
                     format_double(row.queue_wait_ms / 1000.0, 2),
                     std::to_string(row.max_queue_depth),
                     std::to_string(row.preemptions),
                     format_double(row.repair_ms, 1),
                     format_double(row.hit_rate, 2),
                     row.has_prefetch ? format_double(row.pf_hit, 2) : "-",
                     row.has_prefetch ? format_double(row.pf_waste, 2) : "-",
                     row.has_prefetch ? format_double(row.pf_waste_mis, 2) : "-",
                     row.has_prefetch ? format_double(row.pf_waste_enf, 2) : "-",
                     row.has_prefetch ? format_double(row.pf_waste_rel, 2) : "-",
                     row.has_engine
                         ? format_double(row.demand_stall_ms / 1000.0, 2)
                         : "-",
                     row.has_engine ? format_double(row.link_utilization, 2)
                                    : "-",
                     row.has_engine ? std::to_string(row.late_pf_tokens) : "-",
                     format_double(row.recall, 3)});
    }
  }
  std::cout << table.to_string();

  // Link-bandwidth sweep: the prefetch row at the top load across a range
  // of wire rates. The whole point of modeling the wire explicitly — the
  // same fleet degrades as the shared link narrows, which no per-session
  // transfer term can show. Virtual-clock columns only, so the sweep is
  // byte-identical at every worker count and safe to keep in the JSON.
  std::vector<ServingRow> sweep_rows;
  {
    const double sweep_load = 12.0;
    TraceConfig trace_config = setup.trace;
    trace_config.offered_rps = sweep_load;
    const auto trace = make_poisson_trace(trace_config, setup.seed);
    const auto methods = serving_methods(setup, /*clusterkv_only=*/true);
    const MethodRun* prefetch = find_method(methods, "ClusterKV (prefetch)");
    TextTable sweep_table({"link (GB/s)", "tok/s", "dm stall (s)", "link util",
                           "late pf", "p95 ITL (ms)"});
    for (const double gbps : {2.5, 5.0, 10.0, 25.0}) {
      BatchSchedulerConfig config = prefetch->scheduler;
      config.link_gbps = gbps;
      BatchScheduler scheduler(trace, prefetch->serve, setup.session, latency, config);
      scheduler.run();
      ServingRow row = make_serving_row(prefetch->name, gbps, scheduler.metrics());
      sweep_table.add_row({format_double(gbps, 1), format_double(row.tps, 1),
                           format_double(row.demand_stall_ms / 1000.0, 2),
                           format_double(row.link_utilization, 2),
                           std::to_string(row.late_pf_tokens),
                           format_double(row.p95_itl_ms, 1)});
      sweep_rows.push_back(row);
    }
    std::cout << "\nLink-bandwidth sweep (ClusterKV (prefetch) @ "
              << format_double(sweep_load, 0)
              << " req/s): contention degradation as the shared slow->fast "
                 "wire narrows\n"
              << sweep_table.to_string();
  }

  // Chaos rows: the prefetch config under the seeded fault plan, one row
  // per load, against the fault-free prefetch row from the main table. The
  // degradation column ("degr rate") is the share of decode steps served
  // resident-only because a demand fetch exhausted its retries.
  std::vector<FaultRow> fault_rows;
  if (args.get_switch("faults")) {
    const FaultPlan chaos = FaultPlan::chaos(fault_seed);
    TextTable fault_table({"load (req/s)", "tok/s", "fault-free", "retention",
                           "faults", "recovered", "dead", "degr rate",
                           "retry (ms)", "aborts", "shed", "wire retry",
                           "wire fail", "recall@B"});
    for (const double load : {2.0, 6.0, 12.0}) {
      double fault_free_tps = 0.0;
      for (const ServingRow& row : rows) {
        if (row.method == "ClusterKV (prefetch)" && row.load == load) {
          fault_free_tps = row.tps;
        }
      }
      const FaultRow row =
          run_fault_cell(setup, latency, load, chaos, fault_free_tps);
      fault_table.add_row(
          {format_double(load, 1), format_double(row.tps, 1),
           format_double(row.fault_free_tps, 1), format_double(row.retention, 3),
           std::to_string(row.faults), std::to_string(row.retried_ok),
           std::to_string(row.dead_fetches), format_double(row.degraded_rate, 4),
           format_double(row.retry_ms, 1), std::to_string(row.aborts),
           std::to_string(row.shed), std::to_string(row.wire_retries),
           std::to_string(row.wire_failures), format_double(row.recall, 3)});
      fault_rows.push_back(row);
    }
    std::cout << "\nChaos rows (ClusterKV (prefetch) under FaultPlan::chaos("
              << fault_seed
              << ")): transient fetch faults retried with backoff, exhausted "
                 "retries degrade to resident-only selection, plus link "
                 "brownouts, mid-decode aborts and admission bursts\n"
              << fault_table.to_string();
  }

  if (args.get_switch("json")) {
    write_json(rows, sweep_rows, fault_rows, "BENCH_SERVING.json");
    std::cout << "wrote BENCH_SERVING.json\n";
  }
  return 0;
}
