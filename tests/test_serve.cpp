#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/full_kv.hpp"
#include "core/clusterkv_engine.hpp"
#include "obs/trace.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/request_queue.hpp"
#include "serve/session.hpp"
#include "serve/trace.hpp"
#include "worker_guard.hpp"

namespace ckv {
namespace {

SessionConfig small_session_config() {
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

ClusterKVConfig small_ckv_config() {
  ClusterKVConfig config;
  config.sink_tokens = 8;
  config.tokens_per_cluster = 40;
  config.decode_interval = 8;
  config.decode_clusters = 2;
  config.cache_depth = 1;
  return config;
}

ServeMethod clusterkv_method(const ClusterKVConfig& ckv, std::uint64_t seed) {
  return {LatencyModel::Method::kClusterKV, ckv, seed};
}

const ServeMethod kFullKVMethod{LatencyModel::Method::kFullKV, {}, 0};

std::vector<ServeRequest> fixed_trace(Index n, Index prompt_len, Index decode_len,
                                      double gap_ms) {
  std::vector<ServeRequest> trace;
  for (Index i = 0; i < n; ++i) {
    ServeRequest request;
    request.id = i;
    request.arrival_ms = gap_ms * static_cast<double>(i);
    request.prompt_len = prompt_len;
    request.decode_len = decode_len;
    request.seed = derive_seed(99, "trace/" + std::to_string(i));
    trace.push_back(request);
  }
  return trace;
}

LatencyModel test_latency() {
  return LatencyModel(HardwareModel::ada6000(), ModelConfig::llama31_8b());
}

TEST(RequestQueue, OrdersByArrival) {
  RequestQueue queue;
  ServeRequest late{0, 50.0, 10, 5, 1};
  ServeRequest early{1, 10.0, 10, 5, 2};
  queue.push(late);
  queue.push(early);
  EXPECT_EQ(queue.front().id, 1);
  EXPECT_FALSE(queue.has_arrival(5.0));
  EXPECT_TRUE(queue.has_arrival(10.0));
  EXPECT_DOUBLE_EQ(queue.next_arrival_ms(), 10.0);
  EXPECT_EQ(queue.pop().id, 1);
  EXPECT_EQ(queue.pop().id, 0);
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(std::isinf(queue.next_arrival_ms()));
}

TEST(RequestQueue, RejectsBadRequests) {
  RequestQueue queue;
  EXPECT_THROW(queue.push(ServeRequest{0, 0.0, 0, 5, 1}), std::invalid_argument);
  EXPECT_THROW(queue.push(ServeRequest{0, 0.0, 5, 0, 1}), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(queue.front()), std::invalid_argument);
}

TEST(Trace, PoissonTraceIsReproducibleAndMonotone) {
  TraceConfig config;
  config.num_requests = 12;
  config.offered_rps = 10.0;
  config.prompt_len_min = 100;
  config.prompt_len_max = 200;
  config.decode_len_min = 4;
  config.decode_len_max = 8;
  const auto a = make_poisson_trace(config, 7);
  const auto b = make_poisson_trace(config, 7);
  ASSERT_EQ(a.size(), 12u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms);
    EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_GE(a[i].prompt_len, 100);
    EXPECT_LE(a[i].prompt_len, 200);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_ms, a[i - 1].arrival_ms);
    }
  }
  const auto c = make_poisson_trace(config, 8);
  EXPECT_NE(a[1].arrival_ms, c[1].arrival_ms);
}

TEST(Trace, ZeroRateArrivesAtOnce) {
  TraceConfig config;
  config.num_requests = 5;
  config.offered_rps = 0.0;
  const auto trace = make_poisson_trace(config, 3);
  for (const auto& request : trace) {
    EXPECT_DOUBLE_EQ(request.arrival_ms, 0.0);
  }
  config.offered_rps = -1.0;  // 0 is the all-at-once boundary; below is invalid
  EXPECT_THROW(make_poisson_trace(config, 3), std::invalid_argument);
}

TEST(Session, LifecycleAndTimestamps) {
  const auto config = small_session_config();
  ServeRequest request{0, 5.0, 200, 4, 11};
  Session session(request, make_clusterkv_factory(small_ckv_config(), 1), config);
  EXPECT_EQ(session.state(), SessionState::kQueued);
  EXPECT_THROW(session.decode_next(1.0), std::invalid_argument);
  EXPECT_THROW(session.run_prefill(1.0), std::invalid_argument);  // before arrival

  session.run_prefill(20.0);
  EXPECT_EQ(session.state(), SessionState::kDecoding);
  EXPECT_DOUBLE_EQ(session.record().admit_ms, 20.0);
  EXPECT_DOUBLE_EQ(session.record().first_token_ms, -1.0);

  session.decode_next(30.0);
  EXPECT_DOUBLE_EQ(session.record().first_token_ms, 30.0);
  session.decode_next(40.0);
  session.decode_next(50.0);
  EXPECT_EQ(session.state(), SessionState::kDecoding);
  EXPECT_DOUBLE_EQ(session.record().finish_ms, -1.0);
  session.decode_next(60.0);
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(session.tokens_generated(), 4);
  EXPECT_DOUBLE_EQ(session.record().finish_ms, 60.0);
  EXPECT_THROW(session.decode_next(70.0), std::invalid_argument);
}

// Session::record() builds the SessionRecord the scheduler retires. A
// session aborted mid-decode reports the tokens it produced as decode_len,
// its waste attribution is the selector bank's per-reason cancel totals,
// and its timestamps tile TTFT. The session is driven the way the
// scheduler drives it under a fault plan: fetch outcomes before each step,
// an enforcement cancel mid-decode, the abort roll after each step and the
// release cancel at retirement.
TEST(Session, RecordOfSessionAbortedUnderFaultPlan) {
  const auto config = small_session_config();
  ClusterKVConfig ckv = small_ckv_config();
  ckv.prefetch_clusters = 3;
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 7;
  plan.fetch_failure_rate = 0.5;
  plan.fetch_max_retries = 1;
  plan.abort_rate = 0.1;
  const FaultInjector faults(plan);
  const ServeRequest request{3, 5.0, 300, 40, 17};
  Session session(request, make_clusterkv_factory(ckv, 9), config);
  session.admit(10.0);
  session.prefill_next(128, 12.0);
  session.prefill_next(0, 14.0);
  double now_ms = 20.0;
  bool enforced = false;
  while (!session.finished()) {
    const auto fetch = faults.fetch_outcome(request.id, session.tokens_generated());
    session.note_fault_retries(fetch.retries, fetch.penalty_ms);
    if (fetch.dead) {
      session.note_dead_fetch();
      session.degrade_next_step();
    }
    const StepResult step = session.decode_next(now_ms);
    if (!enforced && step.tokens_prefetch_issued > 0) {
      enforced = session.cancel_prefetches(obs::FetchCancelReason::kEnforcement) > 0;
    }
    if (!session.finished() &&
        faults.abort_fires(request.id, session.tokens_generated())) {
      session.abort(now_ms);
    }
    now_ms += 10.0;
  }
  session.cancel_prefetches(obs::FetchCancelReason::kSessionRelease);

  const SessionRecord record = session.record();
  ASSERT_TRUE(record.aborted);
  EXPECT_EQ(record.decode_len, session.tokens_generated());
  EXPECT_LT(record.decode_len, request.decode_len);
  EXPECT_GT(record.dead_fetches, 0);
  EXPECT_EQ(record.degraded_steps, record.dead_fetches);
  EXPECT_GT(record.fault_retries, 0);

  using Reason = obs::FetchCancelReason;
  const auto canceled = [&session](Reason reason) {
    std::int64_t total = 0;
    auto& bank = session.engine().selectors();
    for (Index l = 0; l < bank.num_layers(); ++l) {
      for (Index h = 0; h < bank.num_heads(); ++h) {
        total += bank.at(l, h).prefetch_canceled_tokens(reason);
      }
    }
    return total;
  };
  EXPECT_EQ(record.prefetch_canceled_mispredict_tokens,
            canceled(Reason::kMisprediction));
  EXPECT_EQ(record.prefetch_canceled_enforce_tokens, canceled(Reason::kEnforcement));
  EXPECT_EQ(record.prefetch_canceled_release_tokens, canceled(Reason::kSessionRelease));
  EXPECT_GT(record.prefetch_canceled_enforce_tokens, 0);
  EXPECT_GT(record.prefetch_canceled_release_tokens, 0);
  // Every issued fetch resolved: it landed as a hit or was canceled.
  EXPECT_EQ(record.prefetch_canceled_mispredict_tokens +
                record.prefetch_canceled_enforce_tokens +
                record.prefetch_canceled_release_tokens,
            record.prefetch_issued_tokens - record.prefetch_hit_tokens);

  EXPECT_DOUBLE_EQ(record.arrival_ms, 5.0);
  EXPECT_DOUBLE_EQ(record.admit_ms, 10.0);
  EXPECT_DOUBLE_EQ(record.prefill_done_ms, 14.0);
  EXPECT_DOUBLE_EQ(record.first_token_ms, 20.0);
  EXPECT_DOUBLE_EQ(record.finish_ms,
                   20.0 + 10.0 * static_cast<double>(record.decode_len - 1));
  EXPECT_DOUBLE_EQ(record.ttft_ms(), record.queue_wait_ms() + record.prefill_ms() +
                                         record.first_decode_wait_ms());
  ServeMetrics metrics;
  EXPECT_NO_THROW(metrics.record_session(record));  // the ordering checks pass
}

// A decode step's inter-token gap runs from the session's previous
// progress to the step's completion. The first token's wait is TTFT, so
// that step reports -1; a preemption in between is not progress.
TEST(Session, StepGapMeasuresFromPreviousProgress) {
  const auto config = small_session_config();
  Session session(ServeRequest{0, 0.0, 300, 6, 11},
                  make_clusterkv_factory(small_ckv_config(), 1), config);
  EXPECT_DOUBLE_EQ(session.step_gap_ms(), -1.0);
  session.admit(1.0);
  session.prefill_next(0, 4.0);
  session.decode_next(10.0);
  EXPECT_DOUBLE_EQ(session.step_gap_ms(), -1.0);
  session.decode_next(13.5);
  EXPECT_DOUBLE_EQ(session.step_gap_ms(), 3.5);
  ASSERT_GT(session.release_fast_tier(), 0);
  session.decode_next(20.0);
  EXPECT_DOUBLE_EQ(session.step_gap_ms(), 6.5);
}

// degrade_next_step serves exactly one resident-only step and counts it
// once; the session disarms its selectors after that step's selection, so
// the next step demand-fetches again without any caller clearing the flag.
TEST(Session, DegradedStepIsOneResidentOnlyStep) {
  const auto config = small_session_config();
  Session session(ServeRequest{0, 0.0, 400, 6, 12},
                  make_clusterkv_factory(small_ckv_config(), 2), config);
  session.run_prefill(0.0);
  session.decode_next(1.0);
  ASSERT_GT(session.release_fast_tier(), 0);  // every clustered token is slow
  session.degrade_next_step();
  const StepResult degraded = session.decode_next(2.0);
  EXPECT_EQ(degraded.tokens_fetched, 0);
  EXPECT_EQ(degraded.tokens_prefetch_issued, 0);
  EXPECT_EQ(session.record().degraded_steps, 1);
  session.release_fast_tier();  // a cleared window again
  const StepResult next = session.decode_next(3.0);
  EXPECT_GT(next.tokens_fetched, 0);
  EXPECT_EQ(session.record().degraded_steps, 1);
}

TEST(Session, FastResidencyIsBoundedAndReleasable) {
  const auto config = small_session_config();
  ServeRequest request{0, 0.0, 400, 6, 12};
  Session session(request, make_clusterkv_factory(small_ckv_config(), 2), config);
  session.run_prefill(0.0);
  // After prefill, clustered tokens are offloaded: only sinks remain fast.
  const Index per_token = session_token_bytes(config);
  EXPECT_EQ(session.fast_resident_bytes(),
            small_ckv_config().sink_tokens * per_token * config.shape.total_heads());

  session.decode_next(1.0);
  EXPECT_GT(session.fast_resident_bytes(),
            small_ckv_config().sink_tokens * per_token * config.shape.total_heads());

  const Index moved = session.release_fast_tier();
  EXPECT_GT(moved, 0);
  EXPECT_EQ(session.preemptions(), 1);
  // Post-release: only sinks + the pending decode token stay fast.
  EXPECT_EQ(session.fast_resident_bytes(),
            (small_ckv_config().sink_tokens + 1) * per_token *
                config.shape.total_heads());
  // The session keeps decoding after preemption (recallable compression).
  const auto step = session.decode_next(2.0);
  EXPECT_GT(step.tokens_fetched, 0);
}

TEST(Session, FullKVPinsWholeContext) {
  const auto config = small_session_config();
  ServeRequest request{0, 0.0, 150, 3, 13};
  Session session(request, make_full_kv_factory(), config);
  session.run_prefill(0.0);
  EXPECT_EQ(session.fast_resident_bytes(), session_context_bytes(config, 150));
  EXPECT_EQ(session.release_fast_tier(), 0);  // nothing reclaimable
  EXPECT_EQ(session.preemptions(), 0);
  session.decode_next(1.0);
  EXPECT_EQ(session.fast_resident_bytes(), session_context_bytes(config, 151));
}

// The two scheduler acceptance invariants: the global fast-tier residency
// never exceeds the configured budget at any tick boundary, and sink
// tokens of admitted sessions are never offloaded.
TEST(BatchScheduler, BudgetAndSinkInvariantsHold) {
  const auto session_config = small_session_config();
  auto ckv = small_ckv_config();
  // Fine clusters keep the mid-prefill pending buffer (and thus the
  // admission residual floor) small, so overcommit can actually pile
  // sessions on and force preemption.
  ckv.tokens_per_cluster = 16;
  // Aggressive periodic repair so passes land *between* the invariant
  // checks below: budget and sink invariants must hold mid-repair too.
  ckv.repair_decode_interval = 2;
  BatchSchedulerConfig config;
  // Tight budget + overcommit so admission piles sessions on and
  // enforcement has to preempt; small chunks so the invariants are
  // exercised mid-prefill, not just between whole-prompt admissions.
  const Index per_token = session_token_bytes(session_config);
  const Index floor_tokens = ckv.sink_tokens + ckv.decode_interval +
                             ckv.cache_depth * session_config.engine.budget;
  config.fast_tier_budget_bytes =
      2 * floor_tokens * per_token * session_config.shape.total_heads();
  config.admission_overcommit = 2.0;
  config.prefill_chunk_tokens = 64;

  BatchScheduler scheduler(fixed_trace(6, 300, 6, 1.0),
                           clusterkv_method(ckv, 5), session_config,
                           test_latency(), config);
  bool saw_mid_prefill = false;
  while (scheduler.tick()) {
    for (const auto& session : scheduler.running()) {
      saw_mid_prefill |= session->state() == SessionState::kPrefilling;
    }
    EXPECT_LE(scheduler.fast_tier_bytes(), config.fast_tier_budget_bytes);
    // The O(1) ledger (which fast_tier_bytes reads in tiered mode) must
    // agree with an independent re-sum over every running session.
    std::int64_t summed = 0;
    for (const auto& session : scheduler.running()) {
      summed += session->fast_resident_bytes();
    }
    EXPECT_EQ(scheduler.ledger().bytes(), summed);
    for (const auto& session : scheduler.running()) {
      auto& bank = session->engine().selectors();
      for (Index l = 0; l < bank.num_layers(); ++l) {
        for (Index h = 0; h < bank.num_heads(); ++h) {
          const auto* engine = dynamic_cast<const ClusterKVEngine*>(&bank.at(l, h));
          ASSERT_NE(engine, nullptr);
          for (Index s = 0; s < engine->sink_count(); ++s) {
            EXPECT_TRUE(engine->tiered_store().is_fast_resident(s))
                << "sink " << s << " offloaded";
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_mid_prefill);  // chunking actually spread prefill over ticks
  EXPECT_EQ(scheduler.finished_count(), 6);
  EXPECT_EQ(scheduler.metrics().sessions(), 6);
  EXPECT_EQ(scheduler.metrics().total_tokens(), 6 * 6);
  EXPECT_GT(scheduler.metrics().total_preemptions(), 0);
  EXPECT_EQ(scheduler.ledger().bytes(), 0);  // all sessions retired
  // Periodic repair actually ran and was billed on the virtual clock.
  EXPECT_GT(scheduler.metrics().repair_ms_total(), 0.0);
  EXPECT_GT(scheduler.metrics().repair_ticks(), 0);
}

TEST(BatchScheduler, ConstrainedBudgetForcesQueueing) {
  const auto session_config = small_session_config();
  const auto ckv = small_ckv_config();
  BatchSchedulerConfig config;
  const Index per_token = session_token_bytes(session_config);
  const Index floor_tokens = ckv.sink_tokens + ckv.decode_interval +
                             ckv.cache_depth * session_config.engine.budget;
  // Exactly one session fits: the rest must queue.
  config.fast_tier_budget_bytes =
      floor_tokens * per_token * session_config.shape.total_heads() + 1;

  BatchScheduler scheduler(fixed_trace(3, 250, 4, 0.0),
                           clusterkv_method(ckv, 6), session_config,
                           test_latency(), config);
  Index max_running = 0;
  while (scheduler.tick()) {
    max_running = std::max(max_running, scheduler.running_count());
    EXPECT_LE(scheduler.fast_tier_bytes(), config.fast_tier_budget_bytes);
  }
  EXPECT_EQ(max_running, 1);
  EXPECT_EQ(scheduler.finished_count(), 3);
  // Sessions 2 and 3 arrived at t=0 but had to wait for residency.
  EXPECT_GT(scheduler.metrics().queue_wait_percentile(95.0), 0.0);
  EXPECT_DOUBLE_EQ(scheduler.metrics().queue_wait_percentile(0.0), 0.0);
}

TEST(BatchScheduler, UnlimitedBudgetRunsAllConcurrently) {
  const auto session_config = small_session_config();
  const auto ckv = small_ckv_config();
  BatchSchedulerConfig config;
  config.fast_tier_budget_bytes = 0;  // unlimited

  BatchScheduler scheduler(fixed_trace(4, 200, 5, 0.0),
                           clusterkv_method(ckv, 7), session_config,
                           test_latency(), config);
  scheduler.tick();
  EXPECT_EQ(scheduler.running_count(), 4);
  scheduler.run();
  EXPECT_EQ(scheduler.finished_count(), 4);
  EXPECT_EQ(scheduler.metrics().total_preemptions(), 0);
}

TEST(BatchScheduler, RejectsImpossibleRequests) {
  const auto session_config = small_session_config();
  BatchSchedulerConfig config;
  config.fast_tier_budget_bytes = 1024;  // smaller than any full context
  EXPECT_THROW(BatchScheduler(fixed_trace(1, 300, 4, 0.0), kFullKVMethod,
                              session_config, test_latency(), config),
               std::invalid_argument);
}

TEST(BatchScheduler, TieredResidencyRequiresTieredFactory) {
  // SelectorFactory constructor: the mirrors say ClusterKV, but an
  // untiered factory would leave the ledger at zero and silently void
  // budget enforcement; admission must catch the mismatch instead.
  const auto session_config = small_session_config();
  BatchSchedulerConfig config;
  config.method = LatencyModel::Method::kClusterKV;
  config.tiered_residency = true;
  config.fast_tier_budget_bytes = 1 << 20;
  BatchScheduler scheduler(fixed_trace(1, 100, 4, 0.0), make_full_kv_factory(),
                           session_config, test_latency(), config);
  EXPECT_THROW(scheduler.tick(), std::logic_error);
}

/// A tiered selector that breaks the premise prefill waves rest on: it
/// keeps every prompt token fast-resident, reports it through the ledger
/// like a tiered store, and gives it all up on preemption.
class ResidentPromptSelector final : public KVSelector {
 public:
  explicit ResidentPromptSelector(Index head_dim)
      : token_bytes_(2 * head_dim * kKVElementBytes) {}

  [[nodiscard]] std::string name() const override { return "ResidentPrompt"; }
  [[nodiscard]] bool supports_chunked_prefill() const override { return true; }
  void observe_prefill(const Matrix& keys, const Matrix& values) override {
    observe_prefill_chunk(keys, values, /*last_chunk=*/true);
  }
  void observe_prefill_chunk(const Matrix& keys, const Matrix& /*values*/,
                             bool /*last_chunk*/) override {
    append(keys.rows());
  }
  void observe_decode(std::span<const float> /*key*/,
                      std::span<const float> /*value*/) override {
    append(1);
  }
  SelectionResult select(std::span<const float> /*query*/, Index budget) override {
    SelectionResult result;
    for (Index p = 0; p < std::min(budget, context_); ++p) {
      result.indices.push_back(p);
    }
    return result;
  }
  [[nodiscard]] Index context_size() const override { return context_; }
  [[nodiscard]] Index fast_resident_tokens() const override { return resident_; }
  Index release_fast_tier() override {
    const Index moved = resident_;
    add_resident(-moved);
    return moved;
  }
  void attach_fast_tier_ledger(FastTierLedger* ledger) override {
    if (ledger_ != nullptr) {
      ledger_->add(-resident_ * token_bytes_);
    }
    ledger_ = ledger;
    if (ledger_ != nullptr) {
      ledger_->add(resident_ * token_bytes_);
    }
  }

 private:
  void append(Index tokens) {
    context_ += tokens;
    add_resident(tokens);
  }
  void add_resident(Index tokens) {
    resident_ += tokens;
    if (ledger_ != nullptr) {
      ledger_->add(tokens * token_bytes_);
    }
  }

  Index token_bytes_;
  Index context_ = 0;
  Index resident_ = 0;
  FastTierLedger* ledger_ = nullptr;
};

// A tick's prefill chunks share one wave because enforcement can take
// nothing from a session before its first token. A selector that keeps
// its prompt fast-resident breaks that: once its chunks outgrow the
// budget, enforcement preempts the prefilling session, and the run must
// fail, naming the session and the tick.
TEST(BatchScheduler, EnforcementOnAPrefillingSessionFailsTheRun) {
  const auto session_config = small_session_config();
  BatchSchedulerConfig config;
  config.method = LatencyModel::Method::kClusterKV;
  config.tiered_residency = true;
  // Mirrors small enough that a 200-token prompt projects 60 tokens and a
  // residual of 12, so a 100-token budget admits it.
  config.sink_tokens = 4;
  config.decode_interval = 8;
  config.tokens_per_cluster = 8;
  config.fast_tier_budget_bytes = session_context_bytes(session_config, 100);
  config.prefill_chunk_tokens = 64;
  const SelectorFactory factory = [](Index, Index, Index head_dim) {
    return std::make_unique<ResidentPromptSelector>(head_dim);
  };
  BatchScheduler scheduler(fixed_trace(1, 200, 4, 0.0), factory, session_config,
                           test_latency(), config);
  EXPECT_TRUE(scheduler.tick());  // 64 resident tokens fit the budget
  try {
    scheduler.tick();  // 128 do not
    ADD_FAILURE() << "enforcement preempted a prefilling session silently";
  } catch (const std::logic_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("session 0 before its first token, at tick 2"),
              std::string::npos)
        << message;
  }
}

TEST(BatchScheduler, OvercommitRequiresTieredResidency) {
  const auto session_config = small_session_config();
  BatchSchedulerConfig config;
  config.admission_overcommit = 1.5;
  EXPECT_THROW(BatchScheduler(fixed_trace(1, 100, 4, 0.0), kFullKVMethod,
                              session_config, test_latency(), config),
               std::invalid_argument);
}

TEST(BatchScheduler, PrefetchRequiresTieredResidency) {
  // SelectorFactory constructor: a ClusterKV run (prefetch included) must
  // say tiered_residency, or fast_tier_bytes() would skip the ledger and
  // the budget invariant would silently ignore transfers on the wire.
  const auto session_config = small_session_config();
  BatchSchedulerConfig config;
  config.method = LatencyModel::Method::kClusterKV;
  config.prefetch_clusters = 4;
  EXPECT_THROW(BatchScheduler(fixed_trace(1, 100, 4, 0.0),
                              make_clusterkv_factory(small_ckv_config(), 8),
                              session_config, test_latency(), config),
               std::invalid_argument);
}

// The ClusterKV knobs feed the admission floors and the bills as well as
// the engines, so ClusterKVConfig::validate() checks each
// at construction, whatever the method (negative counts, a zero flush
// cadence / cluster size, or a prefetch prior weight or decay outside its
// finite range, are typed errors), and a method without a serving selector
// has no factory.
TEST(ServeMethod, RejectsOutOfRangeClusterKVConfig) {
  using Method = LatencyModel::Method;
  const auto session_config = small_session_config();
  const auto build = [&](Method method, auto field, auto value) {
    ClusterKVConfig ckv = small_ckv_config();
    ckv.*field = value;
    BatchScheduler(fixed_trace(1, 100, 4, 0.0), ServeMethod{method, ckv, 8},
                   session_config, test_latency(), BatchSchedulerConfig{});
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const auto method : {Method::kClusterKV, Method::kQuest, Method::kFullKV}) {
    EXPECT_NO_THROW(build(method, &ClusterKVConfig::sink_tokens, 0));
    EXPECT_NO_THROW(build(method, &ClusterKVConfig::prefetch_prior_weight, 0.0));
    EXPECT_NO_THROW(build(method, &ClusterKVConfig::prefetch_prior_decay, 0.0));
    EXPECT_NO_THROW(build(method, &ClusterKVConfig::kmeans_max_iterations, 0));
    // A never-selected cluster's prefetch score would be inf * 0 = NaN.
    EXPECT_THROW(build(method, &ClusterKVConfig::prefetch_prior_weight, kInf),
                 std::invalid_argument);
    EXPECT_THROW(build(method, &ClusterKVConfig::prefetch_prior_weight, kNaN),
                 std::invalid_argument);
    EXPECT_THROW(build(method, &ClusterKVConfig::prefetch_prior_weight, -0.5),
                 std::invalid_argument);
    EXPECT_THROW(build(method, &ClusterKVConfig::prefetch_prior_decay, 1.0),
                 std::invalid_argument);
    EXPECT_THROW(build(method, &ClusterKVConfig::prefetch_prior_decay, kNaN),
                 std::invalid_argument);
    EXPECT_THROW(build(method, &ClusterKVConfig::prefetch_prior_decay, -0.1),
                 std::invalid_argument);
    EXPECT_THROW(build(method, &ClusterKVConfig::kmeans_max_iterations, -1),
                 std::invalid_argument);
    EXPECT_THROW(build(method, &ClusterKVConfig::fixed_cluster_count, -1),
                 std::invalid_argument);
    EXPECT_THROW(build(method, &ClusterKVConfig::sink_tokens, -1), std::invalid_argument);
    EXPECT_THROW(build(method, &ClusterKVConfig::cache_depth, -1), std::invalid_argument);
    EXPECT_THROW(build(method, &ClusterKVConfig::repair_refine_iterations, -1),
                 std::invalid_argument);
    EXPECT_THROW(build(method, &ClusterKVConfig::repair_decode_interval, -3),
                 std::invalid_argument);
    EXPECT_THROW(build(method, &ClusterKVConfig::prefetch_clusters, -1),
                 std::invalid_argument);
    EXPECT_THROW(build(method, &ClusterKVConfig::decode_interval, 0),
                 std::invalid_argument);
    EXPECT_THROW(build(method, &ClusterKVConfig::tokens_per_cluster, 0),
                 std::invalid_argument);
  }
  EXPECT_THROW(build(Method::kInfiniGen, &ClusterKVConfig::sink_tokens, 0),
               std::invalid_argument);
}

// The chunked-prefill payoff: a short request that arrives while a
// long-prompt session is being admitted gets its first token without
// waiting for the whole foreign prefill — its TTFT is bounded by chunk
// ticks instead of the full prompt.
TEST(BatchScheduler, ChunkedPrefillBoundsQueuedTTFT) {
  const auto session_config = small_session_config();
  const auto ckv = small_ckv_config();
  // Request 0: long prompt, arrives first. Request 1: short, arrives just
  // after — in inline mode its whole service waits behind 0's prefill.
  std::vector<ServeRequest> trace;
  trace.push_back({0, 0.0, 1200, 8, derive_seed(4, "long")});
  trace.push_back({1, 1.0, 64, 4, derive_seed(4, "short")});

  auto run = [&](Index chunk_tokens) {
    BatchSchedulerConfig config;
    config.prefill_chunk_tokens = chunk_tokens;
    BatchScheduler scheduler(trace, clusterkv_method(ckv, 11),
                             session_config, test_latency(), config);
    scheduler.run();
    EXPECT_EQ(scheduler.finished_count(), 2);
    double short_ttft = -1.0;
    for (const auto& record : scheduler.metrics().records()) {
      if (record.id == 1) {
        short_ttft = record.ttft_ms();
        // The TTFT split must tile the whole interval.
        EXPECT_NEAR(record.ttft_ms(),
                    record.queue_wait_ms() + record.prefill_ms() +
                        record.first_decode_wait_ms(),
                    1e-9);
      }
    }
    return short_ttft;
  };

  const double inline_ttft = run(0);     // whole prompt in one tick
  const double chunked_ttft = run(128);  // ten chunks, decode interleaved
  ASSERT_GE(inline_ttft, 0.0);
  ASSERT_GE(chunked_ttft, 0.0);
  // The short session no longer pays for the long prompt's admission; at
  // 128-token chunks it should see well under half the inline TTFT.
  EXPECT_LT(chunked_ttft, 0.5 * inline_ttft);
}

// The budget invariant must hold on every tick *of a chunked prefill*,
// with a session mid-prefill, not only between whole-prompt admissions.
TEST(BatchScheduler, BudgetHoldsOnEveryChunkedPrefillTick) {
  const auto session_config = small_session_config();
  const auto ckv = small_ckv_config();
  BatchSchedulerConfig config;
  const Index per_token = session_token_bytes(session_config);
  const Index floor_tokens =
      ckv.sink_tokens + std::max(ckv.decode_interval, ckv.tokens_per_cluster) +
      ckv.cache_depth * session_config.engine.budget;
  config.fast_tier_budget_bytes =
      floor_tokens * per_token * session_config.shape.total_heads() + 1;
  config.prefill_chunk_tokens = 40;

  BatchScheduler scheduler(fixed_trace(2, 600, 4, 0.0),
                           clusterkv_method(ckv, 12), session_config,
                           test_latency(), config);
  Index prefill_ticks = 0;
  while (scheduler.tick()) {
    for (const auto& session : scheduler.running()) {
      if (session->state() == SessionState::kPrefilling) {
        ++prefill_ticks;
        // Mid-prefill residency stays at the irreducible floor: sinks +
        // the pending (not yet clustered) prompt tail; clustered chunks
        // are offloaded eagerly.
        EXPECT_LE(session->fast_resident_bytes(),
                  (ckv.sink_tokens + ckv.tokens_per_cluster) * per_token *
                      session_config.shape.total_heads());
      }
    }
    EXPECT_LE(scheduler.fast_tier_bytes(), config.fast_tier_budget_bytes);
  }
  EXPECT_GT(prefill_ticks, 5);  // 600 tokens / 40-token chunks, two sessions
  EXPECT_EQ(scheduler.finished_count(), 2);
}

// Preemption landing mid-prefill is safe: clustered chunks are already on
// the slow tier (nothing reclaimable beyond the cache window), sinks and
// the pending tail stay fast, and the session resumes its remaining
// chunks and decodes by refetching on demand.
TEST(Session, ResumeAfterPreemptionMidPrefill) {
  const auto config = small_session_config();
  const auto ckv = small_ckv_config();
  ServeRequest request{0, 0.0, 400, 4, 21};
  Session session(request, make_clusterkv_factory(ckv, 13), config);
  session.admit(0.0);
  EXPECT_EQ(session.state(), SessionState::kPrefilling);
  EXPECT_EQ(session.prefill_next(100, 1.0), 100);
  EXPECT_EQ(session.state(), SessionState::kPrefilling);
  EXPECT_EQ(session.prefill_tokens_done(), 100);

  const Index per_token = session_token_bytes(config);
  const std::int64_t resident_before = session.fast_resident_bytes();
  // Eager per-chunk offload means the irreducible set is all that is
  // fast; preemption finds nothing to move and does not count itself.
  EXPECT_LE(resident_before, (ckv.sink_tokens + ckv.tokens_per_cluster) *
                                 per_token * config.shape.total_heads());
  EXPECT_EQ(session.release_fast_tier(), 0);
  EXPECT_EQ(session.preemptions(), 0);
  EXPECT_EQ(session.fast_resident_bytes(), resident_before);

  // Resume: the remaining chunks complete prefill and decode refetches
  // preempted clusters from the slow tier.
  EXPECT_EQ(session.prefill_next(300, 2.0), 300);
  EXPECT_EQ(session.state(), SessionState::kDecoding);
  EXPECT_DOUBLE_EQ(session.record().prefill_done_ms, 2.0);
  // Prefill is over; further chunk calls are a state-machine violation.
  EXPECT_THROW(session.prefill_next(1, 3.0), std::invalid_argument);
  const auto step = session.decode_next(4.0);
  EXPECT_GT(step.tokens_fetched, 0);
  EXPECT_DOUBLE_EQ(session.record().first_token_ms, 4.0);
}

TEST(BatchScheduler, ClusterKVOutservesFullKVAtEqualBudget) {
  const auto session_config = small_session_config();
  const auto ckv = small_ckv_config();
  const auto trace = fixed_trace(8, 400, 8, 2.0);
  const Index per_token = session_token_bytes(session_config);
  // Budget fits ~2 full-KV contexts but many ClusterKV working sets.
  const std::int64_t budget = static_cast<std::int64_t>(2.2 * 408.0) * per_token *
                              session_config.shape.total_heads();

  BatchSchedulerConfig config;
  config.fast_tier_budget_bytes = budget;
  BatchScheduler full(trace, kFullKVMethod, session_config, test_latency(), config);
  full.run();

  BatchScheduler clustered(trace, clusterkv_method(ckv, 9), session_config,
                           test_latency(), config);
  clustered.run();

  EXPECT_EQ(full.finished_count(), 8);
  EXPECT_EQ(clustered.finished_count(), 8);
  EXPECT_GT(clustered.metrics().throughput_tps(), full.metrics().throughput_tps());
  // Per-session quality metrics still come out of the serving path. A
  // ~12% budget on the coarse test slice lands near 0.37 recall; the bar
  // here is that the signal flows, is materially better than chance
  // (budget/context), and coverage holds up.
  EXPECT_GT(clustered.metrics().mean_recall(), 0.25);
  EXPECT_GT(clustered.metrics().mean_coverage(), 0.4);
  EXPECT_GT(clustered.metrics().mean_cache_hit_rate(), 0.0);
  // Full KV is exact by construction.
  EXPECT_NEAR(full.metrics().mean_recall(), 1.0, 1e-9);
}

// The post-prefill repair bill keys off prefill_flush_plan, a replay of
// the engine's own prefill_flush decisions over token counts; it must
// agree with batch registration in the corner cases (short prompts, short
// tails, chunks smaller than the clustering window) or the virtual clock
// charges work that never ran.
TEST(BatchScheduler, PrefillFlushPlanMirrorsEngineBatches) {
  auto ckv = small_ckv_config();
  ckv.tokens_per_cluster = 20;
  ckv.sink_tokens = 16;

  // Single-batch prompt: no repair.
  EXPECT_EQ(prefill_flush_plan(ckv, 18, 256), 1);
  // Multi-chunk prompt with a short tail: the tail is a batch of its own,
  // so repair does real work.
  EXPECT_EQ(prefill_flush_plan(ckv, 270, 256), 2);
  EXPECT_EQ(prefill_flush_plan(ckv, 276 + 16, 256), 2);
  // A prompt of sinks alone registers nothing.
  EXPECT_EQ(prefill_flush_plan(ckv, 16, 256), 0);

  // Chunks smaller than the clustering window: pending accumulates across
  // chunks (with no sinks, 56 = 16 + 16 flushes 32, then 16 + 8 flushes
  // 24).
  ClusterKVConfig no_sinks = ckv;
  no_sinks.sink_tokens = 0;
  EXPECT_EQ(prefill_flush_plan(no_sinks, 56, 16), 2);
}

// The repair bill must charge exactly the passes the engines run. For one
// session at a time, a tick bills a repair pass exactly when every head
// of the session emitted a repair-pass instant during it: after the final
// prompt chunk of a multi-batch prompt, and at repair-interval tokens
// once a decode flush has registered a batch since the last pass —
// whether the repair interval is shorter or longer than the flush
// cadence, after a one-batch prompt, or after a prompt of sinks alone.
TEST(BatchScheduler, RepairBillMatchesEnginePasses) {
  struct TracerOff {
    ~TracerOff() { obs::tracer().disable(); }
  } tracer_off;
  struct Case {
    Index decode_interval;
    Index repair_decode_interval;
    Index prompt_len;
    Index chunk;  ///< 0 = inline prefill (a one-batch prompt)
  };
  const Case cases[] = {
      {8, 3, 300, 64},   // repair interval shorter than the flush cadence
      {8, 8, 300, 64},   // equal to it
      {8, 20, 300, 64},  // longer, and not a multiple
      {6, 4, 300, 0},    // one-batch prompt: no post-prefill pass
      {8, 3, 6, 64},     // sinks alone: the first decode flush is batch one
      {8, 0, 300, 64},   // post-prefill pass only
  };
  const auto session_config = small_session_config();
  const Index heads = session_config.shape.total_heads();
  for (const Case& c : cases) {
    SCOPED_TRACE("decode_interval " + std::to_string(c.decode_interval) +
                 ", repair interval " + std::to_string(c.repair_decode_interval) +
                 ", prompt " + std::to_string(c.prompt_len) + ", chunk " +
                 std::to_string(c.chunk));
    auto ckv = small_ckv_config();
    ckv.decode_interval = c.decode_interval;
    ckv.repair_decode_interval = c.repair_decode_interval;
    BatchSchedulerConfig config;
    config.prefill_chunk_tokens = c.chunk;
    auto& tr = obs::tracer();
    tr.enable();
    BatchScheduler scheduler(fixed_trace(1, c.prompt_len, 40, 0.0),
                             clusterkv_method(ckv, 9), session_config,
                             test_latency(), config);
    const auto passes_so_far = [&tr] {
      Index passes = 0;
      for (const auto& event : tr.events()) {
        passes += tr.name_of(event.name) == "repair-pass" ? 1 : 0;
      }
      return passes;
    };
    Index passes = 0;
    Index billed = 0;
    while (scheduler.tick()) {
      const Index new_passes = passes_so_far() - passes;
      const Index new_billed = scheduler.metrics().repair_ticks() - billed;
      EXPECT_EQ(new_passes, heads * new_billed) << "tick at " << scheduler.now_ms();
      passes += new_passes;
      billed += new_billed;
    }
    EXPECT_EQ(tr.dropped(), 0u);
    tr.disable();
    EXPECT_EQ(scheduler.finished_count(), 1);
    EXPECT_GT(billed, 0);
    EXPECT_EQ(passes, heads * billed);
  }
}

// The recall@B comparison between scheduling modes is only meaningful on
// one shared denominator: the same trace decodes the same tokens at the
// same contexts, so the selection-forced step count feeding the aggregate
// must be identical whether prefill was chunked or inline, repaired or
// not. This is the audit that keeps chunked-vs-inline recall rows
// apples-to-apples in bench_serving.
TEST(ServeMetrics, RecallDenominatorIdenticalAcrossSchedulerModes) {
  const auto session_config = small_session_config();
  const auto ckv = small_ckv_config();
  const auto trace = fixed_trace(4, 300, 6, 1.0);

  auto run = [&](Index chunk_tokens, Index refine_iterations) {
    auto no_repair = ckv;
    no_repair.repair_refine_iterations = refine_iterations;
    BatchSchedulerConfig config;
    config.prefill_chunk_tokens = chunk_tokens;
    BatchScheduler scheduler(trace, clusterkv_method(no_repair, 31),
                             session_config, test_latency(), config);
    scheduler.run();
    return scheduler;
  };

  const auto chunked = run(128, 4).metrics().recall_steps_total();
  const auto chunked_no_repair = run(128, 0).metrics().recall_steps_total();
  const auto inline_prefill = run(0, 0).metrics().recall_steps_total();
  // Prompt 300 > budget 48: every decode step is selection-forced, so the
  // denominator is exactly sessions x decode_len in every mode.
  EXPECT_EQ(chunked, 4 * 6);
  EXPECT_EQ(chunked, chunked_no_repair);
  EXPECT_EQ(chunked, inline_prefill);
}

TEST(ServeMetrics, MeanRecallWeightsByRecallSteps) {
  ServeMetrics metrics;
  SessionRecord a;
  a.decode_len = 1;
  a.first_token_ms = a.finish_ms = 1.0;
  a.mean_recall = 1.0;
  a.recall_steps = 1;
  metrics.record_session(a);
  SessionRecord b = a;
  b.id = 1;
  b.mean_recall = 0.5;
  b.recall_steps = 3;
  metrics.record_session(b);
  // Step-weighted: (1.0*1 + 0.5*3) / 4, not the per-session mean 0.75.
  EXPECT_NEAR(metrics.mean_recall(), 0.625, 1e-12);
  EXPECT_EQ(metrics.recall_steps_total(), 4);
  // A session with no selection-forced steps carries no weight at all.
  SessionRecord trivial = a;
  trivial.id = 2;
  trivial.mean_recall = 0.0;
  trivial.recall_steps = 0;
  metrics.record_session(trivial);
  EXPECT_NEAR(metrics.mean_recall(), 0.625, 1e-12);
  // And a fleet where *nothing* was ever dropped is vacuously lossless —
  // its empty-stat 0.0 placeholders must not read as zero recall.
  ServeMetrics lossless;
  lossless.record_session(trivial);
  EXPECT_DOUBLE_EQ(lossless.mean_recall(), 1.0);
  EXPECT_DOUBLE_EQ(ServeMetrics{}.mean_recall(), 0.0);
}

TEST(ServeMetrics, PrefetchRatesAreTokenWeighted) {
  ServeMetrics metrics;
  SessionRecord a;
  a.decode_len = 1;
  a.first_token_ms = a.finish_ms = 1.0;
  a.prefetch_issued_tokens = 100;
  a.prefetch_hit_tokens = 60;
  a.demand_fetched_tokens = 40;
  metrics.record_session(a);
  SessionRecord b = a;
  b.id = 1;
  b.prefetch_issued_tokens = 0;  // prefetch off for this session
  b.prefetch_hit_tokens = 0;
  b.demand_fetched_tokens = 100;
  metrics.record_session(b);
  // Token-weighted, not per-session: 60 / (60 + 140).
  EXPECT_NEAR(metrics.prefetch_hit_rate(), 0.3, 1e-12);
  EXPECT_NEAR(metrics.prefetch_waste_rate(), 0.4, 1e-12);
  EXPECT_EQ(metrics.prefetch_issued_total(), 100);
  EXPECT_EQ(metrics.prefetch_hits_total(), 60);

  // A fleet with no fetch traffic at all has nothing to overlap:
  // vacuously 1.0 (mirrors mean_recall's lossless convention).
  ServeMetrics no_traffic;
  SessionRecord quiet = a;
  quiet.prefetch_issued_tokens = 0;
  quiet.prefetch_hit_tokens = 0;
  quiet.demand_fetched_tokens = 0;
  no_traffic.record_session(quiet);
  EXPECT_DOUBLE_EQ(no_traffic.prefetch_hit_rate(), 1.0);
  EXPECT_DOUBLE_EQ(no_traffic.prefetch_waste_rate(), 0.0);
  EXPECT_DOUBLE_EQ(ServeMetrics{}.prefetch_hit_rate(), 0.0);
}

TEST(ServeMetrics, RepairCostAccumulates) {
  ServeMetrics metrics;
  metrics.record_repair(0.0);  // nothing billed: not a repair tick
  metrics.record_repair(1.5);
  metrics.record_repair(0.5);
  EXPECT_DOUBLE_EQ(metrics.repair_ms_total(), 2.0);
  EXPECT_EQ(metrics.repair_ticks(), 2);
  EXPECT_THROW(metrics.record_repair(-1.0), std::invalid_argument);
}

TEST(ServeMetrics, AggregatesAndValidates) {
  ServeMetrics metrics;
  SessionRecord a;
  a.id = 0;
  a.decode_len = 5;
  a.arrival_ms = 0.0;
  a.admit_ms = 10.0;
  a.prefill_done_ms = 24.0;
  a.first_token_ms = 30.0;
  a.finish_ms = 70.0;
  a.mean_recall = 0.8;
  a.recall_steps = 5;
  a.cache_hit_rate = 0.5;
  metrics.record_session(a);

  SessionRecord b = a;
  b.id = 1;
  b.arrival_ms = 20.0;
  b.admit_ms = 20.0;
  b.prefill_done_ms = 44.0;
  b.first_token_ms = 50.0;
  b.finish_ms = 90.0;
  b.mean_recall = 0.6;
  metrics.record_session(b);

  EXPECT_EQ(metrics.sessions(), 2);
  EXPECT_EQ(metrics.total_tokens(), 10);
  EXPECT_DOUBLE_EQ(metrics.makespan_ms(), 90.0);
  EXPECT_NEAR(metrics.throughput_tps(), 10.0 / 0.09, 1e-9);
  EXPECT_DOUBLE_EQ(metrics.mean_queue_wait_ms(), 5.0);
  EXPECT_NEAR(metrics.mean_recall(), 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(metrics.ttft_percentile(0.0), 30.0);
  EXPECT_DOUBLE_EQ(metrics.ttft_percentile(100.0), 30.0);  // both TTFT = 30
  EXPECT_DOUBLE_EQ(metrics.inter_token_percentile(100.0), 10.0);
  // The TTFT split: queue + prefill + first-decode wait tile the TTFT.
  EXPECT_DOUBLE_EQ(a.prefill_ms(), 14.0);
  EXPECT_DOUBLE_EQ(a.first_decode_wait_ms(), 6.0);
  EXPECT_DOUBLE_EQ(a.queue_wait_ms() + a.prefill_ms() + a.first_decode_wait_ms(),
                   a.ttft_ms());
  EXPECT_DOUBLE_EQ(metrics.prefill_percentile(100.0), 24.0);
  EXPECT_DOUBLE_EQ(metrics.first_decode_wait_percentile(0.0), 6.0);

  SessionRecord bad = a;
  bad.first_token_ms = 5.0;  // before admission
  EXPECT_THROW(metrics.record_session(bad), std::invalid_argument);
  SessionRecord unprefilled = a;
  unprefilled.prefill_done_ms = 5.0;  // prefill "done" before admission
  EXPECT_THROW(metrics.record_session(unprefilled), std::invalid_argument);
}

// ---- parallel-tick determinism harness -------------------------------------

/// Mixed-length fleet for the determinism sweeps: staggered arrivals, a
/// blend of short and long prompts, uneven decode lengths — enough shape
/// variety that chunk counts, repair triggers and prefetch churn all
/// differ per session.
std::vector<ServeRequest> varied_trace() {
  const Index prompts[] = {90, 260, 150, 300, 120, 210};
  const Index decodes[] = {5, 8, 6, 4, 7, 6};
  std::vector<ServeRequest> trace;
  for (Index i = 0; i < 6; ++i) {
    ServeRequest request;
    request.id = i;
    request.arrival_ms = 25.0 * static_cast<double>(i);
    request.prompt_len = prompts[i];
    request.decode_len = decodes[i];
    request.seed = derive_seed(7, "det/" + std::to_string(i));
    trace.push_back(request);
  }
  return trace;
}

/// Every aggregate the serving bench reports, captured for bitwise
/// comparison. No tolerance anywhere: the parallel tick's contract is
/// byte-identity, and a near-miss is a broken contract, not noise.
struct FleetSnapshot {
  std::vector<SessionRecord> records;
  double tps = 0.0;
  double makespan = 0.0;
  double p50_ttft = 0.0;
  double p95_ttft = 0.0;
  double p50_itl = 0.0;
  double p95_itl = 0.0;
  double p99_gap = 0.0;
  double queue_wait = 0.0;
  double recall = 0.0;
  double coverage = 0.0;
  double hit_rate = 0.0;
  double pf_hit = 0.0;
  double pf_waste = 0.0;
  double pf_mis = 0.0;
  double pf_enf = 0.0;
  double pf_rel = 0.0;
  double repair_total = 0.0;
  double conc_max = 0.0;
  double stall_total = 0.0;
  double link_drained = 0.0;
  double link_busy = 0.0;
  std::int64_t stall_steps = 0;
  std::int64_t late_pf = 0;
  std::int64_t tokens = 0;
  std::int64_t issued = 0;
  std::int64_t hits = 0;
  std::int64_t peak_occ = 0;
  Index preemptions = 0;
  Index max_queue = 0;
  Index repair_tick_count = 0;
  // Fault/degradation aggregates (all zero on fault-free runs; under a
  // fault plan they are part of the byte-identity contract like any other
  // virtual-clock aggregate).
  std::int64_t fault_faults = 0;
  std::int64_t fault_recovered = 0;
  std::int64_t fault_dead = 0;
  std::int64_t fault_retries = 0;
  double fault_retry_ms = 0.0;
  std::int64_t degraded_steps = 0;
  std::int64_t fault_aborts = 0;
  std::int64_t shed_sessions = 0;
  std::int64_t wire_retries = 0;
  std::int64_t wire_failures = 0;
};

FleetSnapshot take_snapshot(const ServeMetrics& m) {
  FleetSnapshot s;
  s.records = m.records();
  s.tps = m.throughput_tps();
  s.makespan = m.makespan_ms();
  s.p50_ttft = m.ttft_percentile(50.0);
  s.p95_ttft = m.ttft_percentile(95.0);
  s.p50_itl = m.inter_token_percentile(50.0);
  s.p95_itl = m.inter_token_percentile(95.0);
  s.p99_gap = m.inter_token_gap_p99_ms();
  s.queue_wait = m.mean_queue_wait_ms();
  s.recall = m.mean_recall();
  s.coverage = m.mean_coverage();
  s.hit_rate = m.mean_cache_hit_rate();
  s.pf_hit = m.prefetch_hit_rate();
  s.pf_waste = m.prefetch_waste_rate();
  s.pf_mis = m.prefetch_waste_rate(obs::FetchCancelReason::kMisprediction);
  s.pf_enf = m.prefetch_waste_rate(obs::FetchCancelReason::kEnforcement);
  s.pf_rel = m.prefetch_waste_rate(obs::FetchCancelReason::kSessionRelease);
  s.repair_total = m.repair_ms_total();
  s.conc_max = m.concurrency().max();
  s.stall_total = m.demand_stall_ms_total();
  s.stall_steps = m.demand_stall_steps();
  s.link_drained = m.link_drained_bytes_total();
  s.link_busy = m.link_busy_ms_total();
  s.late_pf = m.late_prefetch_tokens_total();
  s.tokens = m.total_tokens();
  s.issued = m.prefetch_issued_total();
  s.hits = m.prefetch_hits_total();
  s.peak_occ = m.peak_occupancy_bytes();
  s.preemptions = m.total_preemptions();
  s.max_queue = m.max_queue_depth();
  s.repair_tick_count = m.repair_ticks();
  s.fault_faults = m.fault_fetch_faults_total();
  s.fault_recovered = m.fault_retried_ok_total();
  s.fault_dead = m.dead_fetches_total();
  s.fault_retries = m.fault_retries_total();
  s.fault_retry_ms = m.fault_retry_ms_total();
  s.degraded_steps = m.degraded_steps_total();
  s.fault_aborts = m.fault_aborts_total();
  s.shed_sessions = m.shed_sessions_total();
  s.wire_retries = m.wire_retries_total();
  s.wire_failures = m.wire_failures_total();
  return s;
}

void expect_snapshots_identical(const FleetSnapshot& a, const FleetSnapshot& b,
                                const std::string& label) {
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const SessionRecord& ra = a.records[i];
    const SessionRecord& rb = b.records[i];
    const std::string where = label + " record " + std::to_string(i);
    EXPECT_EQ(ra.id, rb.id) << where;
    EXPECT_EQ(ra.prompt_len, rb.prompt_len) << where;
    EXPECT_EQ(ra.decode_len, rb.decode_len) << where;
    EXPECT_EQ(ra.arrival_ms, rb.arrival_ms) << where;
    EXPECT_EQ(ra.admit_ms, rb.admit_ms) << where;
    EXPECT_EQ(ra.prefill_done_ms, rb.prefill_done_ms) << where;
    EXPECT_EQ(ra.first_token_ms, rb.first_token_ms) << where;
    EXPECT_EQ(ra.finish_ms, rb.finish_ms) << where;
    EXPECT_EQ(ra.mean_recall, rb.mean_recall) << where;
    EXPECT_EQ(ra.recall_steps, rb.recall_steps) << where;
    EXPECT_EQ(ra.mean_coverage, rb.mean_coverage) << where;
    EXPECT_EQ(ra.cache_hit_rate, rb.cache_hit_rate) << where;
    EXPECT_EQ(ra.preemptions, rb.preemptions) << where;
    EXPECT_EQ(ra.prefetch_hit_tokens, rb.prefetch_hit_tokens) << where;
    EXPECT_EQ(ra.prefetch_issued_tokens, rb.prefetch_issued_tokens) << where;
    EXPECT_EQ(ra.demand_fetched_tokens, rb.demand_fetched_tokens) << where;
    EXPECT_EQ(ra.prefetch_canceled_mispredict_tokens,
              rb.prefetch_canceled_mispredict_tokens)
        << where;
    EXPECT_EQ(ra.prefetch_canceled_enforce_tokens,
              rb.prefetch_canceled_enforce_tokens)
        << where;
    EXPECT_EQ(ra.prefetch_canceled_release_tokens,
              rb.prefetch_canceled_release_tokens)
        << where;
    EXPECT_EQ(ra.aborted, rb.aborted) << where;
    EXPECT_EQ(ra.degraded_steps, rb.degraded_steps) << where;
    EXPECT_EQ(ra.fault_retries, rb.fault_retries) << where;
    EXPECT_EQ(ra.fault_retry_ms, rb.fault_retry_ms) << where;
    EXPECT_EQ(ra.dead_fetches, rb.dead_fetches) << where;
  }
  EXPECT_EQ(a.tps, b.tps) << label;
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.p50_ttft, b.p50_ttft) << label;
  EXPECT_EQ(a.p95_ttft, b.p95_ttft) << label;
  EXPECT_EQ(a.p50_itl, b.p50_itl) << label;
  EXPECT_EQ(a.p95_itl, b.p95_itl) << label;
  EXPECT_EQ(a.p99_gap, b.p99_gap) << label;
  EXPECT_EQ(a.queue_wait, b.queue_wait) << label;
  EXPECT_EQ(a.recall, b.recall) << label;
  EXPECT_EQ(a.coverage, b.coverage) << label;
  EXPECT_EQ(a.hit_rate, b.hit_rate) << label;
  EXPECT_EQ(a.pf_hit, b.pf_hit) << label;
  EXPECT_EQ(a.pf_waste, b.pf_waste) << label;
  EXPECT_EQ(a.pf_mis, b.pf_mis) << label;
  EXPECT_EQ(a.pf_enf, b.pf_enf) << label;
  EXPECT_EQ(a.pf_rel, b.pf_rel) << label;
  EXPECT_EQ(a.repair_total, b.repair_total) << label;
  EXPECT_EQ(a.conc_max, b.conc_max) << label;
  EXPECT_EQ(a.stall_total, b.stall_total) << label;
  EXPECT_EQ(a.stall_steps, b.stall_steps) << label;
  EXPECT_EQ(a.link_drained, b.link_drained) << label;
  EXPECT_EQ(a.link_busy, b.link_busy) << label;
  EXPECT_EQ(a.late_pf, b.late_pf) << label;
  EXPECT_EQ(a.tokens, b.tokens) << label;
  EXPECT_EQ(a.issued, b.issued) << label;
  EXPECT_EQ(a.hits, b.hits) << label;
  EXPECT_EQ(a.peak_occ, b.peak_occ) << label;
  EXPECT_EQ(a.preemptions, b.preemptions) << label;
  EXPECT_EQ(a.max_queue, b.max_queue) << label;
  EXPECT_EQ(a.repair_tick_count, b.repair_tick_count) << label;
  EXPECT_EQ(a.fault_faults, b.fault_faults) << label;
  EXPECT_EQ(a.fault_recovered, b.fault_recovered) << label;
  EXPECT_EQ(a.fault_dead, b.fault_dead) << label;
  EXPECT_EQ(a.fault_retries, b.fault_retries) << label;
  EXPECT_EQ(a.fault_retry_ms, b.fault_retry_ms) << label;
  EXPECT_EQ(a.degraded_steps, b.degraded_steps) << label;
  EXPECT_EQ(a.fault_aborts, b.fault_aborts) << label;
  EXPECT_EQ(a.shed_sessions, b.shed_sessions) << label;
  EXPECT_EQ(a.wire_retries, b.wire_retries) << label;
  EXPECT_EQ(a.wire_failures, b.wire_failures) << label;
}

/// Drains `trace` with `method` at 1, 2 and 8 pool workers, expects every
/// run's snapshot to equal the one-worker run's, and returns that snapshot.
FleetSnapshot expect_fleet_identical(const std::vector<ServeRequest>& trace,
                                     const ServeMethod& method,
                                     const SessionConfig& session,
                                     const BatchSchedulerConfig& config,
                                     const std::string& label) {
  const auto drain = [&](const BatchSchedulerConfig& run_config) {
    BatchScheduler scheduler(trace, method, session, test_latency(), run_config);
    scheduler.run();
    // A faulted run may shed queued arrivals under sustained overload;
    // retired plus shed must still conserve the offered trace.
    EXPECT_EQ(static_cast<std::int64_t>(scheduler.finished_count()) +
                  scheduler.metrics().shed_sessions_total(),
              static_cast<std::int64_t>(trace.size()))
        << label;
    return take_snapshot(scheduler.metrics());
  };
  set_parallel_workers(1);
  const FleetSnapshot baseline = drain(config);
  for (const int workers : {2, 8}) {
    set_parallel_workers(workers);
    expect_snapshots_identical(baseline, drain(config),
                               label + " @ " + std::to_string(workers) + " workers");
  }
  return baseline;
}

/// The tentpole contract: every quality and billing column is bit-identical
/// whether a tick's synthesis, advance wave and score pass run on 1, 2 or
/// 8 pool workers — across the scheduling modes the serving bench
/// compares, with and without a contended budget (under the contended
/// budget the wave holds every prefill chunk of the tick, with no headroom
/// rule, and each decoder advances and commits alone; the unlimited sweep
/// fans out whole batches). The
/// SelectorFactory constructor, handed the same knobs through its mirror
/// fields, must replay every ServeMethod run too.
TEST(FleetDeterminism, MetricsAndRecordsIdenticalAcrossWorkerCounts) {
  WorkerGuard worker_guard;
  const auto session = small_session_config();

  struct Variant {
    std::string name;
    ClusterKVConfig ckv;
    BatchSchedulerConfig config;
  };
  std::vector<Variant> variants;
  {
    const ClusterKVConfig base_ckv = small_ckv_config();
    BatchSchedulerConfig base;
    base.prefill_chunk_tokens = 64;
    variants.push_back({"chunked", base_ckv, base});

    BatchSchedulerConfig inline_cfg = base;
    inline_cfg.prefill_chunk_tokens = 0;
    variants.push_back({"inline", base_ckv, inline_cfg});

    ClusterKVConfig repair_ckv = base_ckv;
    repair_ckv.repair_refine_iterations = 2;
    repair_ckv.repair_decode_interval = 6;
    variants.push_back({"repair", repair_ckv, base});

    ClusterKVConfig prefetch_ckv = base_ckv;
    prefetch_ckv.prefetch_clusters = 3;
    prefetch_ckv.prefetch_prior_decay = 0.5;
    variants.push_back({"prefetch", prefetch_ckv, base});

    // Prefetch on a deliberately narrow link: the transfer engine's wire
    // backlog, late-prefetch conversion and per-tick stall billing all
    // engage, and every one of them must replay byte-identically from the
    // serial commit phase at any worker count.
    BatchSchedulerConfig narrow_cfg = base;
    narrow_cfg.link_gbps = 0.5;
    variants.push_back({"narrow-link", prefetch_ckv, narrow_cfg});

    // Narrow-link config under the chaos fault plan: retry billing, wire
    // retries, brownouts, degraded steps, aborts and shedding must all
    // replay byte-identically — the fault schedule is part of the virtual
    // clock, not of the host's thread interleaving.
    BatchSchedulerConfig faulted_cfg = narrow_cfg;
    faulted_cfg.fault_plan = FaultPlan::chaos(7);
    variants.push_back({"faulted", prefetch_ckv, faulted_cfg});
  }

  const auto trace = varied_trace();
  // ~1.3 mean contexts: tight enough that enforcement and preemption fire
  // (the contended path), loose enough that every request stays admissible.
  const std::int64_t capped =
      static_cast<std::int64_t>(1.3 * 190.0) * session_token_bytes(session) *
      session.shape.total_heads();

  for (const auto& variant : variants) {
    for (const std::int64_t budget : {std::int64_t{0}, capped}) {
      BatchSchedulerConfig config = variant.config;
      config.fast_tier_budget_bytes = budget;
      if (budget > 0) {
        config.admission_overcommit = 1.5;
      }
      const std::string label = variant.name + (budget > 0 ? "/capped" : "/unlimited");
      const FleetSnapshot baseline = expect_fleet_identical(
          trace, clusterkv_method(variant.ckv, 7), session, config, label);
      // The SelectorFactory constructor, its mirrors copied from the
      // variant's ClusterKVConfig, must replay the ServeMethod run.
      BatchSchedulerConfig mirrored = config;
      mirrored.method = LatencyModel::Method::kClusterKV;
      mirrored.tiered_residency = true;
      mirrored.sink_tokens = variant.ckv.sink_tokens;
      mirrored.decode_interval = variant.ckv.decode_interval;
      mirrored.cache_depth = variant.ckv.cache_depth;
      mirrored.tokens_per_cluster = variant.ckv.tokens_per_cluster;
      mirrored.repair_refine_iterations = variant.ckv.repair_refine_iterations;
      mirrored.repair_decode_interval = variant.ckv.repair_decode_interval;
      mirrored.prefetch_clusters = variant.ckv.prefetch_clusters;
      BatchScheduler adapter(trace, make_clusterkv_factory(variant.ckv, 7), session,
                             test_latency(), mirrored);
      adapter.run();
      expect_snapshots_identical(baseline, take_snapshot(adapter.metrics()),
                                 label + " via SelectorFactory");
    }
  }
}

// The scheduler records one gap per decode step after a session's first,
// so a fleet's gaps telescope: their count is the tokens past each
// session's first, and their sum is each session's first-to-last token
// span. Holds with preemptions (a tight, overcommitted budget) and with
// aborts and degraded steps (a fault plan).
TEST(BatchScheduler, DecodeGapsTelescopeToEachSessionsDecodeSpan) {
  const auto session = small_session_config();
  ClusterKVConfig ckv = small_ckv_config();
  ckv.tokens_per_cluster = 16;  // a small residual floor admits more sessions
  ckv.prefetch_clusters = 3;
  const Index floor_tokens =
      ckv.sink_tokens + ckv.decode_interval + ckv.cache_depth * session.engine.budget;
  for (const bool faulted : {false, true}) {
    BatchSchedulerConfig config;
    config.prefill_chunk_tokens = 64;
    config.fast_tier_budget_bytes =
        2 * floor_tokens * session_token_bytes(session) * session.shape.total_heads();
    config.admission_overcommit = 2.0;
    if (faulted) {
      config.fault_plan.enabled = true;
      config.fault_plan.seed = 3;
      config.fault_plan.fetch_failure_rate = 0.5;
      config.fault_plan.fetch_max_retries = 1;
      config.fault_plan.abort_rate = 0.05;
    }
    BatchScheduler scheduler(fixed_trace(6, 300, 12, 1.0), clusterkv_method(ckv, 5),
                             session, test_latency(), config);
    scheduler.run();
    const ServeMetrics& metrics = scheduler.metrics();
    EXPECT_GT(metrics.total_preemptions(), 0) << faulted;
    std::int64_t gaps = 0;
    double span_ms = 0.0;
    for (const SessionRecord& record : metrics.records()) {
      gaps += record.decode_len - 1;
      span_ms += record.finish_ms - record.first_token_ms;
    }
    const obs::Histogram& hist =
        metrics.registry().histograms().at("serve.inter_token_ms");
    EXPECT_EQ(hist.count(), gaps) << faulted;
    EXPECT_NEAR(hist.sum(), span_ms, 1e-9 * span_ms) << faulted;
    if (faulted) {
      EXPECT_GT(metrics.fault_aborts_total(), 0);
      EXPECT_GT(metrics.degraded_steps_total(), 0);
    }
  }
}

/// Every arrival at t = 0: the first tick admits several sessions at once,
/// so their contexts synthesize in one parallel pass, and under the capped
/// budget enforcement fires between the advance wave and the score pass.
std::vector<ServeRequest> burst_trace() {
  auto trace = varied_trace();
  for (auto& request : trace) {
    request.arrival_ms = 0.0;
  }
  return trace;
}

TEST(FleetDeterminism, AdmissionBurstIdenticalAcrossWorkerCounts) {
  WorkerGuard worker_guard;
  const auto session = small_session_config();
  const auto trace = burst_trace();
  ClusterKVConfig ckv = small_ckv_config();
  // Fine clusters shrink the admission residual, so overcommit piles the
  // whole burst on and enforcement has to preempt.
  ckv.tokens_per_cluster = 16;
  ckv.prefetch_clusters = 3;
  ckv.prefetch_prior_decay = 0.5;
  BatchSchedulerConfig config;
  config.prefill_chunk_tokens = 64;
  config.link_gbps = 0.5;
  config.admission_overcommit = 2.0;
  config.fast_tier_budget_bytes = static_cast<std::int64_t>(1.3 * 190.0) *
                                  session_token_bytes(session) *
                                  session.shape.total_heads();
  {
    // The leg is not vacuous: the burst tick admits more than one session.
    BatchScheduler probe(trace, clusterkv_method(ckv, 7), session, test_latency(),
                         config);
    probe.tick();
    EXPECT_GT(probe.running_count(), 1);
  }
  const FleetSnapshot capped = expect_fleet_identical(
      trace, clusterkv_method(ckv, 7), session, config, "burst/capped");
  EXPECT_GT(capped.preemptions, 0) << "enforcement never preempted";
  EXPECT_GT(capped.pf_enf, 0.0) << "enforcement never canceled a prefetch";
  config.fast_tier_budget_bytes = 0;
  config.admission_overcommit = 1.0;
  expect_fleet_identical(trace, clusterkv_method(ckv, 7), session, config,
                         "burst/unlimited");
}

/// The untiered methods: Quest and Full KV pin whole contexts, so the
/// capped leg only queues admissions, and both traces run both legs.
TEST(FleetDeterminism, QuestAndFullKVIdenticalAcrossWorkerCounts) {
  WorkerGuard worker_guard;
  const auto session = small_session_config();
  // The longest varied_trace context is 304 tokens; 400 fits one at a time.
  const std::int64_t capped =
      400 * session_token_bytes(session) * session.shape.total_heads();
  for (const auto method :
       {LatencyModel::Method::kQuest, LatencyModel::Method::kFullKV}) {
    const ServeMethod serve{method, small_ckv_config(), 7};
    const std::string name =
        method == LatencyModel::Method::kQuest ? "quest" : "full-kv";
    for (const auto& [trace_name, trace] :
         {std::pair{std::string("staggered"), varied_trace()},
          std::pair{std::string("burst"), burst_trace()}}) {
      for (const std::int64_t budget : {std::int64_t{0}, capped}) {
        BatchSchedulerConfig config;
        config.prefill_chunk_tokens = 64;
        config.fast_tier_budget_bytes = budget;
        expect_fleet_identical(trace, serve, session, config,
                               name + "/" + trace_name +
                                   (budget > 0 ? "/capped" : "/unlimited"));
      }
    }
  }
}

/// Fairness regression at max_running saturation: the round-robin rotation
/// must give every running session exactly one advancement per tick,
/// schedulers ticking in lockstep at 1 and 8 pool workers must agree on
/// per-session progress at every tick boundary, and no session may stall
/// while it is running.
TEST(FleetDeterminism, RoundRobinProgressIdenticalSerialVsParallel) {
  WorkerGuard worker_guard;
  const auto session = small_session_config();
  const ClusterKVConfig ckv = small_ckv_config();
  BatchSchedulerConfig config;
  config.prefill_chunk_tokens = 48;
  config.max_running = 3;  // saturated: half the fleet queues behind the cap

  const auto trace = varied_trace();
  BatchScheduler serial(trace, clusterkv_method(ckv, 7), session, test_latency(), config);
  BatchScheduler parallel(trace, clusterkv_method(ckv, 7), session, test_latency(),
                          config);

  // Per-session progress (prompt tokens prefilled + tokens generated) of
  // the running set, keyed by request id.
  const auto progress = [](const BatchScheduler& scheduler) {
    std::map<Index, Index> out;
    for (const auto& running : scheduler.running()) {
      out[running->request().id] =
          running->prefill_tokens_done() + running->tokens_generated();
    }
    return out;
  };

  std::map<Index, Index> last_progress;
  bool serial_more = true;
  bool parallel_more = true;
  Index ticks = 0;
  while (serial_more || parallel_more) {
    set_parallel_workers(1);
    serial_more = serial.tick();
    set_parallel_workers(8);
    parallel_more = parallel.tick();
    EXPECT_EQ(serial_more, parallel_more) << "tick " << ticks;
    EXPECT_EQ(serial.now_ms(), parallel.now_ms()) << "tick " << ticks;
    EXPECT_EQ(serial.running_count(), parallel.running_count())
        << "tick " << ticks;
    const auto serial_progress = progress(serial);
    EXPECT_EQ(serial_progress, progress(parallel)) << "tick " << ticks;
    ASSERT_LE(serial.running_count(), config.max_running) << "tick " << ticks;
    // No starvation: every session that was running last tick and is
    // still running made strict progress this tick.
    for (const auto& [id, done] : serial_progress) {
      const auto it = last_progress.find(id);
      if (it != last_progress.end()) {
        EXPECT_GT(done, it->second) << "session " << id << " starved at tick "
                                    << ticks;
      }
    }
    last_progress = serial_progress;
    ++ticks;
  }
  EXPECT_EQ(serial.finished_count(), static_cast<Index>(trace.size()));
  EXPECT_EQ(parallel.finished_count(), static_cast<Index>(trace.size()));
  expect_snapshots_identical(take_snapshot(serial.metrics()),
                             take_snapshot(parallel.metrics()),
                             "1 vs 8 workers");
}

// ---- transfer-engine serving behavior --------------------------------------

ClusterKVConfig prefetch_engine_ckv() {
  ClusterKVConfig ckv = small_ckv_config();
  ckv.prefetch_clusters = 3;
  ckv.prefetch_prior_decay = 0.5;
  return ckv;
}

FleetSnapshot run_engine_fleet(const std::vector<ServeRequest>& trace,
                               double link_gbps) {
  const auto session = small_session_config();
  const ClusterKVConfig ckv = prefetch_engine_ckv();
  BatchSchedulerConfig config;
  config.link_gbps = link_gbps;
  BatchScheduler scheduler(trace, clusterkv_method(ckv, 7), session,
                           test_latency(), config);
  scheduler.run();
  EXPECT_EQ(scheduler.finished_count(), static_cast<Index>(trace.size()));
  return take_snapshot(scheduler.metrics());
}

/// The engine's reason to exist: shrinking the modeled wire makes the
/// shared-queue backlog visible as demand stall and stretches the fleet
/// makespan, while a generous wire leaves transfers effectively free.
TEST(TransferEngineServe, StallGrowsAsLinkNarrows) {
  const auto trace = varied_trace();
  const FleetSnapshot wide = run_engine_fleet(trace, 50.0);
  const FleetSnapshot narrow = run_engine_fleet(trace, 0.05);
  EXPECT_GT(narrow.stall_total, wide.stall_total);
  EXPECT_GE(narrow.makespan, wide.makespan);
  EXPECT_GT(narrow.stall_steps, 0);
  // The wire actually carried traffic in both runs.
  EXPECT_GT(wide.link_drained, 0.0);
  EXPECT_GT(narrow.link_busy, 0.0);
}

/// Contention comes from queue position: with more sessions decoding
/// concurrently, later decoders bill the demand bytes queued ahead of
/// them, so the per-step demand stall grows with fleet size even though
/// each session's own traffic is unchanged.
TEST(TransferEngineServe, MeanStallGrowsWithConcurrentSessions) {
  const FleetSnapshot solo = run_engine_fleet(fixed_trace(1, 200, 6, 0.0), 1.0);
  const FleetSnapshot fleet = run_engine_fleet(fixed_trace(6, 200, 6, 0.0), 1.0);
  ASSERT_GT(solo.stall_steps, 0);
  ASSERT_GT(fleet.stall_steps, 0);
  const double solo_mean =
      solo.stall_total / static_cast<double>(solo.stall_steps);
  const double fleet_mean =
      fleet.stall_total / static_cast<double>(fleet.stall_steps);
  EXPECT_GT(fleet_mean, solo_mean);
  EXPECT_GT(fleet.stall_total, solo.stall_total);
}

/// Guard rails on the config surface: the engine models ClusterKV's
/// slow->fast path, so a link rate means nothing for any other method.
TEST(TransferEngineServe, ConfigValidation) {
  const auto session = small_session_config();
  const ClusterKVConfig ckv = prefetch_engine_ckv();
  const auto trace = fixed_trace(1, 64, 2, 0.0);

  BatchSchedulerConfig bad_link;
  bad_link.link_gbps = -1.0;
  EXPECT_THROW(BatchScheduler(trace, clusterkv_method(ckv, 7), session,
                              test_latency(), bad_link),
               std::invalid_argument);

  BatchSchedulerConfig quest_link;
  quest_link.link_gbps = 5.0;
  EXPECT_THROW(BatchScheduler(trace, ServeMethod{LatencyModel::Method::kQuest, ckv, 7},
                              session, test_latency(), quest_link),
               std::invalid_argument);
}

}  // namespace
}  // namespace ckv
