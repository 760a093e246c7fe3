// ckv — command-line driver for the ClusterKV reproduction.
//
//   ckv recall    --context 8192 --budget 512 --method clusterkv
//   ckv latency   --model llama31-8b --prompt 32768 --decode 512 --budget 1024
//   ckv cache     --context 8192 --budget 1024 --depth 1 --steps 64
//   ckv longbench --budget 1024 [--csv]
//   ckv ppl       --max-len 8192 --budget 512
//   ckv serve     --sessions 12 --rps 6 --method clusterkv --budget-mult 2.5
//
// Run `ckv <command> --help` for the command's options.
#include <fstream>
#include <iostream>

#include "baselines/full_kv.hpp"
#include "baselines/h2o.hpp"
#include "baselines/infinigen.hpp"
#include "baselines/quest.hpp"
#include "baselines/streaming_llm.hpp"
#include "core/clusterkv_engine.hpp"
#include "model/decode_engine.hpp"
#include "obs/trace.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/trace.hpp"
#include "sim/latency_model.hpp"
#include "util/args.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "workload/longbench.hpp"
#include "workload/pg19.hpp"

namespace {

using namespace ckv;

SelectorFactory make_method(const std::string& name, std::uint64_t seed,
                            Index budget) {
  if (name == "clusterkv") {
    return make_clusterkv_factory(ClusterKVConfig{}, seed);
  }
  if (name == "quest") {
    return make_quest_factory();
  }
  if (name == "infinigen") {
    return make_infinigen_factory();
  }
  if (name == "h2o") {
    H2OConfig config;
    config.budget = budget;
    return make_h2o_factory(config);
  }
  if (name == "window" || name == "streamingllm") {
    return make_streaming_llm_factory();
  }
  if (name == "full") {
    return make_full_kv_factory();
  }
  throw std::invalid_argument(
      "unknown method '" + name +
      "' (expected clusterkv|quest|infinigen|h2o|window|full)");
}

ModelConfig make_model(const std::string& name) {
  if (name == "llama31-8b") {
    return ModelConfig::llama31_8b();
  }
  if (name == "glm4-9b") {
    return ModelConfig::glm4_9b();
  }
  if (name == "opt-6.7b") {
    return ModelConfig::opt_6_7b();
  }
  throw std::invalid_argument("unknown model '" + name +
                              "' (expected llama31-8b|glm4-9b|opt-6.7b)");
}

void emit(const TextTable& table, bool csv) {
  std::cout << (csv ? table.to_csv() : table.to_string());
}

int run_recall(int argc, const char* const* argv) {
  ArgParser args("ckv recall — recall/coverage of one method on one context");
  args.add_option("context", "8192", "context length (tokens)");
  args.add_option("budget", "512", "KV cache budget (tokens)");
  args.add_option("method", "clusterkv", "clusterkv|quest|infinigen|h2o|window|full");
  args.add_option("steps", "24", "decode steps to average over");
  args.add_option("heads", "4", "KV heads in the simulation slice");
  args.add_option("seed", "1", "experiment seed");
  args.add_switch("csv", "emit CSV instead of an aligned table");
  args.parse(argc, argv);

  SimShape shape;
  shape.num_layers = 1;
  shape.num_heads = args.get_index("heads");
  shape.head_dim = 64;
  ProceduralParams params;
  params.head_dim = 64;
  ProceduralContextModel model(
      shape, params, static_cast<std::uint64_t>(args.get_index("seed")),
      args.get_index("context"));
  DecodeEngineConfig config;
  config.budget = args.get_index("budget");
  config.full_attention_layers = 0;
  config.attention_feedback = args.get_string("method") == "h2o";
  DecodeEngine engine(
      model,
      make_method(args.get_string("method"),
                  static_cast<std::uint64_t>(args.get_index("seed")), config.budget),
      config);
  engine.run_prefill();
  for (Index s = 0; s < args.get_index("steps"); ++s) {
    engine.decode_step(s);
  }
  TextTable table({"method", "context", "budget", "recall@B", "coverage",
                   "cache hits", "fetched"});
  table.add_row({args.get_string("method"), args.get_string("context"),
                 args.get_string("budget"),
                 format_double(engine.mean_recall(), 3),
                 format_double(engine.mean_coverage(), 3),
                 std::to_string(engine.total_cache_hits()),
                 std::to_string(engine.total_fetched())});
  emit(table, args.get_switch("csv"));
  return 0;
}

int run_latency(int argc, const char* const* argv) {
  ArgParser args("ckv latency — analytic end-to-end latency (Fig. 12 model)");
  args.add_option("model", "llama31-8b", "llama31-8b|glm4-9b|opt-6.7b");
  args.add_option("prompt", "32768", "prompt length P");
  args.add_option("decode", "512", "decode length D");
  args.add_option("budget", "1024", "KV budget for compressed methods");
  args.add_option("miss-rate", "0.37", "ClusterKV cache miss rate");
  args.add_switch("csv", "emit CSV instead of an aligned table");
  args.parse(argc, argv);

  const LatencyModel model(HardwareModel::ada6000(),
                           make_model(args.get_string("model")));
  TextTable table({"method", "prefill (s)", "decode (s)", "total (s)", "tok/s"});
  const Index decode_len = args.get_index("decode");
  for (const auto method :
       {LatencyModel::Method::kFullKV, LatencyModel::Method::kClusterKV,
        LatencyModel::Method::kQuest, LatencyModel::Method::kInfiniGen}) {
    LatencyModel::RunParams run;
    run.method = method;
    run.prompt_len = args.get_index("prompt");
    run.decode_len = decode_len;
    run.budget = args.get_index("budget");
    run.clusterkv_miss_rate = args.get_double("miss-rate");
    const auto latency = model.run_latency(run);
    table.add_row({to_string(method), format_double(latency.prefill_ms / 1000.0, 2),
                   format_double(latency.decode_ms / 1000.0, 2),
                   format_double(latency.total_ms() / 1000.0, 2),
                   format_double(latency.decode_throughput_tps(decode_len), 1)});
  }
  emit(table, args.get_switch("csv"));
  return 0;
}

int run_cache(int argc, const char* const* argv) {
  ArgParser args("ckv cache — cluster-cache hit rates (§IV-D)");
  args.add_option("context", "8192", "context length (tokens)");
  args.add_option("budget", "1024", "KV cache budget");
  args.add_option("depth", "1", "cache depth R");
  args.add_option("steps", "64", "decode steps");
  args.add_option("seed", "1", "experiment seed");
  args.add_switch("csv", "emit CSV instead of an aligned table");
  args.parse(argc, argv);

  SimShape shape;
  shape.num_layers = 1;
  shape.num_heads = 4;
  shape.head_dim = 64;
  ProceduralParams params;
  params.head_dim = 64;
  ProceduralContextModel model(
      shape, params, static_cast<std::uint64_t>(args.get_index("seed")),
      args.get_index("context"));
  ClusterKVConfig config;
  config.cache_depth = args.get_index("depth");
  DecodeEngineConfig engine_config;
  engine_config.budget = args.get_index("budget");
  engine_config.full_attention_layers = 0;
  DecodeEngine engine(model,
                      make_clusterkv_factory(
                          config, static_cast<std::uint64_t>(args.get_index("seed"))),
                      engine_config);
  engine.run_prefill();
  for (Index s = 0; s < args.get_index("steps"); ++s) {
    engine.decode_step(s);
  }
  const double total =
      static_cast<double>(engine.total_cache_hits() + engine.total_fetched());
  TextTable table({"R", "hit rate", "hits", "fetched"});
  table.add_row({args.get_string("depth"),
                 format_double(total == 0.0 ? 0.0
                                            : 100.0 * engine.total_cache_hits() / total,
                               1) +
                     "%",
                 std::to_string(engine.total_cache_hits()),
                 std::to_string(engine.total_fetched())});
  emit(table, args.get_switch("csv"));
  return 0;
}

int run_longbench(int argc, const char* const* argv) {
  ArgParser args("ckv longbench — synthetic LongBench suite (Fig. 9 workload)");
  args.add_option("budget", "1024", "KV cache budget");
  args.add_option("method", "clusterkv", "clusterkv|quest|infinigen|h2o|window|full");
  args.add_option("seed", "2025", "experiment seed");
  args.add_switch("small", "use the short-context suite (fast)");
  args.add_switch("csv", "emit CSV instead of an aligned table");
  args.parse(argc, argv);

  TaskRunOptions options;
  options.shape.num_layers = 2;
  options.shape.num_heads = 2;
  options.shape.head_dim = 64;
  options.params.head_dim = 64;
  options.budget = args.get_index("budget");
  options.full_attention_layers = 1;
  options.seed = static_cast<std::uint64_t>(args.get_index("seed"));
  options.attention_feedback = args.get_string("method") == "h2o";

  const auto suite =
      args.get_switch("small") ? longbench_suite_small() : longbench_suite();
  const auto factory = make_method(args.get_string("method"), options.seed,
                                   options.budget);
  TextTable table({"task", "metric", "context", "score", "quality"});
  for (const auto& task : suite) {
    const auto result = run_longbench_task(task, factory, options);
    table.add_row({task.name, task.metric, std::to_string(task.context_len),
                   format_double(result.score, 2), format_double(result.quality, 3)});
  }
  emit(table, args.get_switch("csv"));
  return 0;
}

int run_ppl(int argc, const char* const* argv) {
  ArgParser args("ckv ppl — streaming perplexity (Fig. 10 workload)");
  args.add_option("max-len", "8192", "longest input length");
  args.add_option("budget", "512", "KV cache budget");
  args.add_option("method", "clusterkv", "clusterkv|quest|infinigen|full");
  args.add_option("stride", "1024", "evaluation stride");
  args.add_switch("csv", "emit CSV instead of an aligned table");
  args.parse(argc, argv);

  PG19Config config;
  config.max_len = args.get_index("max-len");
  config.prompt_len = std::min<Index>(1024, config.max_len / 2);
  config.eval_stride = args.get_index("stride");
  config.budget = args.get_index("budget");
  SimShape shape;
  shape.num_layers = 2;
  shape.num_heads = 2;
  shape.head_dim = 64;
  ProceduralParams params;
  params.head_dim = 64;

  const auto points = run_pg19(make_method(args.get_string("method"), 7, config.budget),
                               config, shape, params);
  TextTable table({"input length", "perplexity"});
  for (const auto& p : points) {
    table.add_row({std::to_string(p.input_len), format_double(p.perplexity, 2)});
  }
  emit(table, args.get_switch("csv"));
  return 0;
}

int run_serve(int argc, const char* const* argv) {
  ArgParser args("ckv serve — multi-session continuous batching under a "
                 "shared fast-tier budget");
  args.add_option("sessions", "12", "number of requests in the trace");
  args.add_option("rps", "6", "offered load (requests per second; 0 = all at t=0)");
  args.add_option("prompt", "900", "mean prompt length (+-20%)");
  args.add_option("decode", "24", "mean generation length (+-33%)");
  args.add_option("budget", "128", "per-session KV cache budget (tokens)");
  args.add_option("method", "clusterkv", "clusterkv|quest|full");
  args.add_option("budget-mult", "2.5",
                  "global fast-tier budget as a multiple of one mean full context");
  args.add_option("overcommit", "1",
                  "admission overcommit factor (clusterkv only; >= 1; "
                  "reservations may sum to budget x overcommit, preemption "
                  "keeps actual residency under budget)");
  args.add_option("prefill-chunk", "256",
                  "prompt tokens prefilled per tick (chunked prefill; 0 = "
                  "whole prompt in one tick)");
  args.add_option("repair-threshold", "0.8",
                  "cross-chunk repair: min centroid similarity for an "
                  "adjacent-batch merge (clusterkv only; -1 merges every "
                  "adjacent pair)");
  args.add_option("repair-refine", "4",
                  "cross-chunk repair: k-means refinement iterations per "
                  "merged group (0 disables repair)");
  args.add_option("repair-interval", "0",
                  "also repair every N generated tokens (0 = post-prefill "
                  "repair only)");
  args.add_option("prefetch-clusters", "0",
                  "async prefetch: clusters fetched speculatively per decode "
                  "step, overlapping the step's attention (clusterkv only; "
                  "0 = synchronous fetches)");
  args.add_option("prefetch-prior-weight", "0.5",
                  "async prefetch: weight of the recency/frequency prior in "
                  "the prediction blend");
  args.add_option("prefetch-prior-decay", "0.5",
                  "async prefetch: per-step EMA decay of the prior (in [0, 1))");
  args.add_option("link-gbps", "0",
                  "bandwidth of the modeled slow->fast link that every "
                  "session's demand misses and speculative prefetches "
                  "contend for (sim/transfer_engine; clusterkv only; GB/s, "
                  "0 = the hardware model's gather rate)");
  args.add_option("max-running", "0",
                  "hard cap on concurrently running sessions (0 = unlimited)");
  args.add_option("fault-plan", "off",
                  "deterministic fault injection (docs/ROBUSTNESS.md): 'off' "
                  "or 'chaos' (seeded transient fetch failures with retry/"
                  "backoff, link brownouts, mid-decode aborts, admission "
                  "bursts with load shedding); clusterkv only");
  args.add_option("fault-seed", "7777",
                  "seed of the --fault-plan chaos schedule (replayable: the "
                  "same seed gives a byte-identical run at any CKV_THREADS)");
  args.add_switch("serial-tick",
                  "advance sessions one at a time on the scheduler thread "
                  "instead of fanning a tick out to the worker pool (results "
                  "are byte-identical either way — this knob trades wall "
                  "time for a single-threaded schedule, e.g. for debugging; "
                  "worker count itself comes from CKV_THREADS)");
  args.add_option("seed", "2025", "experiment seed");
  args.add_option("trace", "",
                  "write a Chrome trace-event JSON of the run (virtual-clock "
                  "spans; load in Perfetto / chrome://tracing)");
  args.add_option("metrics-out", "",
                  "dump the metrics registry after the run (.csv emits CSV, "
                  "anything else flat JSON)");
  args.add_switch("csv", "emit CSV instead of an aligned table");
  args.parse(argc, argv);

  const std::string method = args.get_string("method");
  const Index prompt = args.get_index("prompt");
  const Index decode = args.get_index("decode");

  TraceConfig trace_config;
  trace_config.num_requests = args.get_index("sessions");
  trace_config.offered_rps = args.get_double("rps");
  trace_config.prompt_len_min = std::max<Index>(1, prompt * 8 / 10);
  trace_config.prompt_len_max = prompt * 12 / 10;
  trace_config.decode_len_min = std::max<Index>(1, decode * 2 / 3);
  trace_config.decode_len_max = decode * 4 / 3;
  const auto seed = static_cast<std::uint64_t>(args.get_index("seed"));
  const auto trace = make_poisson_trace(trace_config, seed);

  SessionConfig session_config;
  session_config.shape.num_layers = 1;
  session_config.shape.num_heads = 2;
  session_config.shape.head_dim = 64;
  session_config.params.head_dim = 64;
  session_config.engine.budget = args.get_index("budget");
  session_config.engine.full_attention_layers = 0;

  ClusterKVConfig ckv;
  ckv.tokens_per_cluster = 20;
  ckv.decode_interval = 32;
  ckv.decode_clusters = 2;
  ckv.repair_merge_threshold = args.get_double_in("repair-threshold", -1.0, 1.0);
  ckv.repair_refine_iterations = args.get_index("repair-refine");
  ckv.repair_decode_interval = args.get_index("repair-interval");
  ckv.prefetch_clusters = args.get_index("prefetch-clusters");
  ckv.prefetch_prior_weight = args.get_double_in("prefetch-prior-weight", 0.0, 100.0);
  ckv.prefetch_prior_decay =
      args.get_double_in("prefetch-prior-decay", 0.0, 0.999999);

  // The ClusterKV knobs ride along for every method, so an out-of-range
  // one is rejected even when the method never reads it.
  ServeMethod serve_method{LatencyModel::Method::kClusterKV, ckv, seed};
  if (method == "quest") {
    serve_method.method = LatencyModel::Method::kQuest;
  } else if (method == "full") {
    serve_method.method = LatencyModel::Method::kFullKV;
  } else if (method != "clusterkv") {
    throw std::invalid_argument("unknown method '" + method +
                                "' (expected clusterkv|quest|full)");
  }
  BatchSchedulerConfig scheduler_config;
  scheduler_config.admission_overcommit = args.get_double("overcommit");
  if (method != "clusterkv" && args.get_double("overcommit") != 1.0) {
    throw std::invalid_argument(
        "--overcommit only applies to clusterkv (untiered methods cannot "
        "be preempted back under budget)");
  }
  if (method != "clusterkv" && args.get_index("prefetch-clusters") != 0) {
    throw std::invalid_argument(
        "--prefetch-clusters only applies to clusterkv (other methods have "
        "no cluster cache to prefetch into)");
  }
  const double link_gbps = args.get_double_in("link-gbps", 0.0, 1e6);
  if (method != "clusterkv" && link_gbps != 0.0) {
    throw std::invalid_argument(
        "--link-gbps only applies to clusterkv (other methods have no "
        "modeled slow->fast wire)");
  }
  const std::string fault_plan = args.get_string("fault-plan");
  if (fault_plan == "chaos") {
    if (method != "clusterkv") {
      throw std::invalid_argument(
          "--fault-plan chaos needs clusterkv (the fault model targets the "
          "tiered fetch path and the modeled wire)");
    }
    scheduler_config.fault_plan = FaultPlan::chaos(
        static_cast<std::uint64_t>(args.get_index("fault-seed")));
  } else if (fault_plan != "off") {
    throw std::invalid_argument("unknown --fault-plan '" + fault_plan +
                                "' (expected off|chaos)");
  }
  scheduler_config.link_gbps = link_gbps;
  const double budget_bytes =
      args.get_double("budget-mult") *
      static_cast<double>((prompt + decode) * session_token_bytes(session_config) *
                          session_config.shape.total_heads());
  // The cast below is undefined for a value int64 cannot hold.
  if (!(budget_bytes >= -0x1p63 && budget_bytes < 0x1p63)) {
    throw std::invalid_argument("--budget-mult " + args.get_string("budget-mult") +
                                " gives a fast-tier budget outside the int64 "
                                "byte range");
  }
  scheduler_config.fast_tier_budget_bytes = static_cast<std::int64_t>(budget_bytes);
  scheduler_config.prefill_chunk_tokens = args.get_index("prefill-chunk");
  scheduler_config.max_running = args.get_index("max-running");
  scheduler_config.parallel_tick = !args.get_switch("serial-tick");

  const std::string trace_path = args.get_string("trace");
  const std::string metrics_path = args.get_string("metrics-out");
  if (!trace_path.empty()) {
    obs::tracer().enable();
  }

  const LatencyModel latency(HardwareModel::ada6000(),
                             make_model("llama31-8b"));
  BatchScheduler scheduler(trace, serve_method, session_config, latency,
                           scheduler_config);
  scheduler.run();

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      throw std::runtime_error("cannot open trace file '" + trace_path + "'");
    }
    obs::tracer().write_chrome_trace(out);
    obs::tracer().disable();
    std::cerr << "trace: " << trace_path << "\n";
  }
  if (!metrics_path.empty()) {
    // Fold driver-side worker utilization into the registry so one dump
    // covers the serving stack and the kernel pool underneath it.
    auto& registry = scheduler.metrics().registry();
    const auto workers = parallel_worker_utilization();
    for (std::size_t slot = 0; slot < workers.size(); ++slot) {
      const std::string prefix = "parallel.worker" + std::to_string(slot);
      registry.counter(prefix + ".chunks").add(workers[slot].chunks);
      registry.counter(prefix + ".indices").add(workers[slot].indices);
    }
    std::ofstream out(metrics_path);
    if (!out) {
      throw std::runtime_error("cannot open metrics file '" + metrics_path +
                               "'");
    }
    const bool as_csv = metrics_path.size() >= 4 &&
                        metrics_path.compare(metrics_path.size() - 4, 4,
                                             ".csv") == 0;
    if (as_csv) {
      registry.write_csv(out);
    } else {
      registry.write_json(out);
    }
    std::cerr << "metrics: " << metrics_path << "\n";
  }

  const auto& m = scheduler.metrics();
  TextTable table({"method", "sessions", "rps", "tok/s", "max batch",
                   "p50 TTFT (s)", "p95 TTFT (s)", "p95 prefill (s)",
                   "p50 ITL (ms)", "p95 ITL (ms)",
                   "wait (s)", "preempt", "repair (ms)", "hit rate", "pf hit",
                   "recall@B", "fanout", "adv wall (ms)"});
  table.add_row({method, std::to_string(m.sessions()), args.get_string("rps"),
                 format_double(m.throughput_tps(), 1),
                 format_double(m.concurrency().max(), 0),
                 format_double(m.ttft_percentile(50.0) / 1000.0, 2),
                 format_double(m.ttft_percentile(95.0) / 1000.0, 2),
                 format_double(m.prefill_percentile(95.0) / 1000.0, 2),
                 format_double(m.inter_token_percentile(50.0), 1),
                 format_double(m.inter_token_percentile(95.0), 1),
                 format_double(m.mean_queue_wait_ms() / 1000.0, 2),
                 std::to_string(m.total_preemptions()),
                 format_double(m.repair_ms_total(), 1),
                 format_double(m.mean_cache_hit_rate(), 2),
                 m.prefetch_issued_total() > 0
                     ? format_double(m.prefetch_hit_rate(), 2)
                     : "-",
                 format_double(m.mean_recall(), 3),
                 format_double(m.fanout_fraction(), 2),
                 format_double(m.advance_wall_ms_total(), 0)});
  emit(table, args.get_switch("csv"));
  if (fault_plan == "chaos") {
    // Degradation ledger for the chaos run (separate from the main table so
    // a fault-free run's output is byte-identical to pre-fault builds).
    TextTable fault_table({"faulted fetches", "recovered", "dead", "degraded",
                           "retry (ms)", "aborts", "shed", "wire retry",
                           "wire fail"});
    fault_table.add_row({std::to_string(m.fault_fetch_faults_total()),
                         std::to_string(m.fault_retried_ok_total()),
                         std::to_string(m.dead_fetches_total()),
                         std::to_string(m.degraded_steps_total()),
                         format_double(m.fault_retry_ms_total(), 1),
                         std::to_string(m.fault_aborts_total()),
                         std::to_string(m.shed_sessions_total()),
                         std::to_string(m.wire_retries_total()),
                         std::to_string(m.wire_failures_total())});
    emit(fault_table, args.get_switch("csv"));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: ckv <recall|latency|cache|longbench|ppl|serve> [--help] [options]\n";
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "recall") {
      return run_recall(argc - 1, argv + 1);
    }
    if (command == "latency") {
      return run_latency(argc - 1, argv + 1);
    }
    if (command == "cache") {
      return run_cache(argc - 1, argv + 1);
    }
    if (command == "longbench") {
      return run_longbench(argc - 1, argv + 1);
    }
    if (command == "ppl") {
      return run_ppl(argc - 1, argv + 1);
    }
    if (command == "serve") {
      return run_serve(argc - 1, argv + 1);
    }
    std::cerr << "unknown command '" << command << "'\n" << usage;
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
