// Continuous-batching scheduler over per-session ClusterKV engines, with
// vLLM-style chunked prefill. tick() runs nine ordered passes, open_tick
// through sample_counters, over one TickState; docs/ARCHITECTURE.md's pass
// table lists what each reads and writes, and docs/SCHEDULING.md documents
// the scheduling model (cost accounting, enforcement, fan-out, knobs).
//
// The virtual clock composes sim/latency_model step costs, so tick
// durations reflect the full-size model the slice stands in for; residency
// bytes stay at slice scale, matching the configured budget.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "kvcache/tiered_store.hpp"
#include "metrics/serve_metrics.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_method.hpp"
#include "serve/session.hpp"
#include "sim/fault_injector.hpp"
#include "sim/latency_model.hpp"
#include "sim/transfer_engine.hpp"
#include "util/common.hpp"
#include "util/thread_safety.hpp"

namespace ckv {

struct BatchSchedulerConfig {
  /// Global fast-tier (HBM) byte budget summed over all running sessions'
  /// residency, at slice scale. 0 = unlimited.
  std::int64_t fast_tier_budget_bytes = 0;
  /// Hard cap on concurrently running sessions (0 = unlimited).
  Index max_running = 0;
  /// Admission overcommit: reservations may sum to budget * overcommit
  /// while *actual* residency is still enforced to the plain budget by
  /// preempting cold sessions. 1.0 = reserve true peaks (no preemption
  /// ever needed); > 1.0 trades preemption churn for utilization. Only
  /// meaningful for ClusterKV — untiered sessions cannot release anything,
  /// so overcommitting them would make the budget unenforceable.
  double admission_overcommit = 1.0;
  /// Prompt tokens a prefilling session consumes per tick. Small chunks
  /// bound how long one admission can stall the running batch's decode
  /// steps (TTFT of everyone else); 0 runs the whole prompt as a single
  /// chunk in one tick (the inline-prefill baseline).
  Index prefill_chunk_tokens = 256;
  /// Bandwidth (GB/s) of the one modeled slow->fast wire every kClusterKV
  /// fetch crosses (sim/transfer_engine): each tick's demand stall is the
  /// engine's completion time for the fleet's queued demand bytes (drain
  /// order demand > speculative, FIFO within a class), so concurrent
  /// sessions' misses and prefetches contend for it. 0 = the hardware
  /// model's pcie_gather_gbps; sweeping it down makes contention bite.
  /// Other methods have no modeled wire and reject a nonzero value.
  double link_gbps = 0.0;
  /// Deterministic fault injection (docs/ROBUSTNESS.md). Disabled by
  /// default: every fault branch in the scheduler is gated on the plan,
  /// so a disabled plan reproduces the fault-free schedule byte for
  /// byte. When enabled, requires a ClusterKV method (the degradation
  /// fallback is resident-only cluster selection).
  FaultPlan fault_plan;

  // ---- SelectorFactory-constructor mirrors ----
  // Only the SelectorFactory constructor reads these: it builds its
  // ServeMethod from them, with the other ClusterKVConfig knobs at their
  // defaults. The ServeMethod constructor ignores them. They go with that
  // constructor once perfbench constructs through ServeMethod.
  LatencyModel::Method method = LatencyModel::Method::kClusterKV;
  bool tiered_residency = false;  ///< must equal (method == kClusterKV)
  Index sink_tokens = 16;
  Index decode_interval = 320;
  Index cache_depth = 1;
  Index tokens_per_cluster = 80;
  Index repair_refine_iterations = 4;
  Index repair_decode_interval = 0;
  Index prefetch_clusters = 0;
  bool use_transfer_engine = false;  ///< ignored; rejected unless kClusterKV
};

class BatchScheduler {
 public:
  /// Serves `trace` with `method`: every session's selectors come from
  /// method.factory(), and every ClusterKV knob the scheduler bills or
  /// projects with is read from method.clusterkv. Throws
  /// std::invalid_argument for an invalid method or config, or a request
  /// that could never be admitted.
  BatchScheduler(std::vector<ServeRequest> trace, ServeMethod method,
                 SessionConfig session_config, LatencyModel latency,
                 BatchSchedulerConfig config);

  /// Adapter for a driver that decorates the selector factory: the method
  /// and its ClusterKV knobs come from the config's mirror fields, and
  /// `factory` must build that method's selectors. Throws
  /// std::invalid_argument unless tiered_residency == (method ==
  /// kClusterKV); a factory that does not match the mirrored method is
  /// caught when its first session finishes prefill (std::logic_error).
  BatchScheduler(std::vector<ServeRequest> trace, SelectorFactory factory,
                 SessionConfig session_config, LatencyModel latency,
                 BatchSchedulerConfig config);

  /// Runs one tick's passes (see the file comment). Returns true while
  /// sessions remain (queued or running). The budget invariant holds at
  /// every return, including while sessions are mid-prefill.
  bool tick();

  /// Ticks until every request has finished.
  void run();

  /// Current virtual time (ms) on the scheduler's clock.
  [[nodiscard]] double now_ms() const noexcept {
    const ExclusiveLock serial(serial_phase_);
    return now_ms_;
  }
  /// Admitted, unfinished sessions (prefilling + decoding).
  [[nodiscard]] Index running_count() const noexcept {
    const ExclusiveLock serial(serial_phase_);
    return static_cast<Index>(running_.size());
  }
  /// Requests still waiting for admission.
  [[nodiscard]] Index queued_count() const noexcept {
    const ExclusiveLock serial(serial_phase_);
    return queue_.size();
  }
  /// Sessions retired so far.
  [[nodiscard]] Index finished_count() const noexcept {
    const ExclusiveLock serial(serial_phase_);
    return finished_count_;
  }
  /// Ticks executed so far.
  [[nodiscard]] Index ticks() const noexcept {
    const ExclusiveLock serial(serial_phase_);
    return ticks_;
  }

  /// Global fast-tier footprint right now, summed over running sessions:
  /// resident bytes plus bytes reserved by in-flight prefetches — an
  /// async copy owns its destination from issue to completion, so the
  /// budget invariant covers transfers in flight.
  [[nodiscard]] std::int64_t fast_tier_bytes() const;

  /// O(1) residency of the tiered per-head stores (cross-check for the
  /// summed value; equals fast_tier_bytes() when every method is tiered).
  [[nodiscard]] const FastTierLedger& ledger() const noexcept { return ledger_; }

  [[nodiscard]] const ServeMetrics& metrics() const noexcept {
    const ExclusiveLock serial(serial_phase_);
    return metrics_;
  }
  /// Mutable access for exporters that append driver-side instruments
  /// (e.g. parallel.worker<i>.* counters) before dumping the registry.
  [[nodiscard]] ServeMetrics& metrics() noexcept {
    const ExclusiveLock serial(serial_phase_);
    return metrics_;
  }
  /// Running sessions, admission order (testing hook: invariant checks
  /// walk these to assert sink residency).
  [[nodiscard]] const std::vector<std::unique_ptr<Session>>& running() const noexcept {
    const ExclusiveLock serial(serial_phase_);
    return running_;
  }

 private:
  BatchScheduler(std::vector<ServeRequest> trace, ServeMethod method,
                 SelectorFactory factory, SessionConfig session_config,
                 LatencyModel latency, BatchSchedulerConfig config);

  /// One session's advancement this tick, carried from plan_batch through
  /// the (possibly parallel) advance phase into the serial commit phase.
  struct AdvanceItem {
    Session* session = nullptr;
    bool prefilling = false;
    Index chunk = 0;  ///< prefill chunk tokens (prefillers only)
    /// Decoders only: the selection half's traffic counts (the commit
    /// phase bills from them; quality is scored in the score pass).
    StepResult step;
  };

  /// The state one tick's passes share; every tick builds a fresh one.
  struct TickState {
    /// Brownout factor sampled at the tick's opening (1 when fault-free).
    /// It scales both the stall billing and the wire's drain for this
    /// tick's window, so billed time and modeled wire time degrade together.
    double link_rate_factor = 1.0;
    /// Advancement order: the prefill items, then the decode items, each in
    /// round-robin order; items[0, prefill_count) are the prefillers.
    std::vector<AdvanceItem> items;
    std::size_t prefill_count = 0;
    double tick_ms = 0.0;       ///< billed duration of every phase
    double decode_ms = 0.0;     ///< decode share of tick_ms
    double prefill_ms = 0.0;    ///< prefill share of tick_ms
    double repair_ms = 0.0;     ///< repair share of tick_ms
    double completed_ms = 0.0;  ///< now_ms_ + tick_ms
  };

  // ---- the tick's passes, in order (docs/ARCHITECTURE.md's pass table) ----

  void open_tick(TickState& t) CKV_REQUIRES(serial_phase_);
  void admit_arrivals() CKV_REQUIRES(serial_phase_);
  void plan_batch(TickState& t) CKV_REQUIRES(serial_phase_);
  void bill(TickState& t) CKV_REQUIRES(serial_phase_);
  void trace_phases(const TickState& t) CKV_REQUIRES(serial_phase_);
  void advance_and_commit(TickState& t) CKV_REQUIRES(serial_phase_);
  /// Advances the engine's wire to `until_ms` (no-op without an engine),
  /// records per-tick drain metrics and emits the transfer-track spans.
  void sync_wire(double until_ms) CKV_REQUIRES(serial_phase_);
  void retire_finished() CKV_REQUIRES(serial_phase_);
  void sample_counters() CKV_REQUIRES(serial_phase_);

  // ---- pass helpers ----

  /// Brings the fast tier back under the budget, coldest sessions first
  /// (`just_stepped` last): in-flight prefetches, then resident KV. Fails
  /// `ensures`, naming the session and the tick, if it takes anything from
  /// a session with no generated token, the premise that lets a tick's
  /// prefill chunks commit as one wave.
  void enforce_budget(Session* just_stepped) CKV_REQUIRES(serial_phase_);
  /// Runs one item's prefill chunk / decode-step selection half at
  /// `completed_ms`, setting the calling thread's tracer context to the
  /// session's track (safe from pool workers — the ambient context is
  /// per-thread).
  ///
  /// Deliberately *not* CKV_REQUIRES(serial_phase_): pool workers run it
  /// concurrently, and the analysis proves it touches no serial-phase
  /// state (any new read of a CKV_GUARDED_BY(serial_phase_) member here is
  /// a clang CI error — the compile-time form of "workers stay out of the
  /// commit phase"). The synthesis body in admit_arrivals and the score
  /// body in advance_and_commit are unannotated lambdas under the same
  /// rule.
  void advance_item(AdvanceItem& item, double completed_ms);
  /// The item's order-sensitive tail, serial-only: trace edges, metrics,
  /// the ledger cross-check and the budget-enforcement checkpoint, in item
  /// order.
  void commit_item(AdvanceItem& item, double completed_ms)
      CKV_REQUIRES(serial_phase_);
  /// fast_tier_bytes() for callers already inside the serial phase.
  [[nodiscard]] std::int64_t fast_tier_bytes_locked() const
      CKV_REQUIRES(serial_phase_);
  /// Whether budget enforcement can act: a budget is set and the method
  /// is tiered. Admission reserves every untiered context whole, at
  /// overcommit 1, so its checkpoints never fire.
  [[nodiscard]] bool enforceable() const noexcept {
    return config_.fast_tier_budget_bytes > 0 && method_.tiered();
  }
  /// Sheds the blocked queue head when the fault plan's shed bound says
  /// its wait is hopeless; returns true when a request was dropped (the
  /// admission loop then re-examines the new head).
  bool shed_blocked_head() CKV_REQUIRES(serial_phase_);
  /// Peak fast-tier bytes a request can pin once admitted.
  [[nodiscard]] std::int64_t projected_bytes(const ServeRequest& request) const;
  /// Irreducible bytes a session holds even after release_fast_tier
  /// (sinks + pending for tiered methods, the whole context otherwise) —
  /// admission keeps the sum of these under the plain budget so
  /// enforcement can always succeed, regardless of overcommit.
  [[nodiscard]] std::int64_t residual_bytes(const ServeRequest& request) const;
  /// Latency-model step cost for one session at its current context.
  [[nodiscard]] StepBreakdown step_cost(const Session& session) const;
  /// Latency-model cost of one `chunk_tokens` prefill chunk for a
  /// prefilling session (causal-prefix attention + GEMM compute, plus the
  /// chunk's k-means cost, clustering_cost_ms, for ClusterKV).
  [[nodiscard]] double prefill_chunk_cost_ms(const Session& session,
                                             Index chunk_tokens) const;
  /// Chunk size a prefilling session consumes this tick (remaining prompt
  /// capped by prefill_chunk_tokens; the whole remainder when 0).
  [[nodiscard]] Index next_chunk_tokens(const Session& session) const;

  // ---- transfer engine (every kClusterKV run) ----

  /// Model-scale wire bytes of one head-summed step-token count unit
  /// (StepResult counts sum over layers x heads of the slice, so one full
  /// token's fetch equals total_heads of them).
  [[nodiscard]] double model_bytes_per_step_token() const;
  /// Demand bytes this decoder is projected to put on the wire this step
  /// (its measured demand rate x attended tokens, model scale) — the
  /// stall-billing input, a pure function of pre-tick state.
  [[nodiscard]] double projected_demand_bytes(const Session& session) const;
  /// Decode-commit engine bookkeeping: resolves the session's outstanding
  /// speculation against the step's observed hits (late hits re-enqueue as
  /// demand), enqueues the step's demand misses, and issues this step's
  /// speculative traffic.
  void resolve_session_transfers(Session& session, const StepResult& step)
      CKV_REQUIRES(serial_phase_);
  /// Drops the session's outstanding speculative request from the engine
  /// (mirrors Session::cancel_prefetches at the wire level).
  void cancel_session_spec(Session& session) CKV_REQUIRES(serial_phase_);

  /// The tick's serial phase as a compile-time capability: everything a
  /// worker must not touch while a fan-out is in flight is
  /// CKV_GUARDED_BY(serial_phase_). tick() claims it for the tick body;
  /// the pool bodies (advance_item, the synthesis and score lambdas) do
  /// not, so the clang -Wthread-safety leg statically separates the
  /// parallel passes from the serial commit phase. No runtime lock — ticks
  /// are single-threaded by contract; this makes the contract checkable.
  mutable ExclusiveContext serial_phase_;

  RequestQueue queue_ CKV_GUARDED_BY(serial_phase_);
  ServeMethod method_;
  SelectorFactory factory_;
  SessionConfig session_config_;
  LatencyModel latency_;
  BatchSchedulerConfig config_;

  std::vector<std::unique_ptr<Session>> running_ CKV_GUARDED_BY(serial_phase_);
  /// Not guarded: workers' stores feed it through commutative relaxed
  /// atomics during the fan-out (see FastTierLedger).
  FastTierLedger ledger_;
  ServeMetrics metrics_ CKV_GUARDED_BY(serial_phase_);
  double now_ms_ CKV_GUARDED_BY(serial_phase_) = 0.0;
  Index ticks_ CKV_GUARDED_BY(serial_phase_) = 0;
  Index finished_count_ CKV_GUARDED_BY(serial_phase_) = 0;
  Index round_robin_offset_ CKV_GUARDED_BY(serial_phase_) = 0;
  /// The contended slow->fast wire (null unless the method is ClusterKV).
  /// All engine state advances in the serial phase on the virtual clock.
  std::unique_ptr<TransferEngine> transfer_engine_ CKV_GUARDED_BY(serial_phase_);
  /// Effective engine link rate (GB/s) — config_.link_gbps or the
  /// hardware gather rate; cached so billing and the engine agree exactly.
  double transfer_link_gbps_ = 0.0;
  /// Pure-hash fault oracle (null unless config_.fault_plan.enabled) —
  /// every fault branch in the tick gates on this pointer, so the
  /// fault-free path is the pre-fault code verbatim.
  std::unique_ptr<FaultInjector> fault_injector_;
};

}  // namespace ckv
