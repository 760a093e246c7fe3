// One serving session: a per-request procedural context plus its own
// DecodeEngine (per-head selector state) and lifecycle. The scheduler owns
// the virtual clock; the session records the timestamps it is handed,
// reports its own inter-token gaps and SessionRecord, and exposes the
// fast-tier residency hooks the global budget arbitration needs (sum over
// its per-head stores, release-on-preemption).
//
// Lifecycle: kQueued -> (admit) kPrefilling -> kDecoding -> kFinished.
// Prefill is chunked: admit() only transitions the state; prefill_next()
// consumes one prompt chunk per call, so the scheduler can interleave a
// long admission with other sessions' decode steps. Preemption does not
// change state (and may land mid-prefill): it only moves reclaimable KV
// to the slow tier; the session keeps going and refetches on demand.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "metrics/serve_metrics.hpp"
#include "model/decode_engine.hpp"
#include "model/procedural.hpp"
#include "serve/request_queue.hpp"
#include "util/common.hpp"

namespace ckv {

enum class SessionState { kQueued, kPrefilling, kDecoding, kFinished };

[[nodiscard]] const char* to_string(SessionState state) noexcept;

struct SessionConfig {
  SimShape shape;            ///< simulation slice every session runs
  ProceduralParams params;   ///< procedural context statistics
  DecodeEngineConfig engine; ///< budget etc. for the per-session engine
  /// fp16-equivalent residency accounting. BatchScheduler rejects a
  /// ClusterKV ServeMethod whose ClusterKVConfig::element_bytes differs:
  /// the tiered stores' ledger counts at the engine's width.
  Index element_bytes = 2;
};

/// Bytes of one token's KV entry (key + value) for one head at the
/// config's accounting width — the single source for all serving byte
/// math (sessions, scheduler projections, bench budget sizing).
[[nodiscard]] inline Index session_token_bytes(const SessionConfig& config) noexcept {
  return 2 * config.shape.head_dim * config.element_bytes;
}

/// Bytes of `tokens` context tokens held fast across every layer and head.
[[nodiscard]] inline std::int64_t session_context_bytes(const SessionConfig& config,
                                                        Index tokens) noexcept {
  return static_cast<std::int64_t>(tokens) * session_token_bytes(config) *
         config.shape.total_heads();
}

class Session {
 public:
  /// Synthesizes the request's context: the whole prompt's KV for every
  /// layer and head (ProceduralContextModel, the dominant cost of building
  /// a session), each stream sized once for prompt_len + decode_len tokens.
  /// A pure function of (request, config), so a scheduler may build many
  /// admitted sessions' models concurrently.
  [[nodiscard]] static std::unique_ptr<ProceduralContextModel> synthesize(
      const ServeRequest& request, const SessionConfig& config);

  /// Builds the session around a context model from synthesize(request,
  /// config) and creates its engine (selector state per layer/head comes
  /// from the factory, called in layer-major order). Selector state is
  /// built lazily: the prompt reaches it chunk by chunk in prefill_next.
  Session(const ServeRequest& request, std::unique_ptr<ProceduralContextModel> model,
          const SelectorFactory& factory, const SessionConfig& config);

  /// Synthesizes the context (see synthesize), then builds the session.
  Session(const ServeRequest& request, const SelectorFactory& factory,
          const SessionConfig& config);

  /// The request this session serves (lengths, arrival time, seed).
  [[nodiscard]] const ServeRequest& request() const noexcept { return request_; }
  /// Current lifecycle state (see the diagram in docs/ARCHITECTURE.md).
  [[nodiscard]] SessionState state() const noexcept { return state_; }
  /// Generated tokens so far (0 until the first decode step).
  [[nodiscard]] Index tokens_generated() const noexcept {
    return engine_->steps_completed();
  }
  /// True once decode_len tokens have been generated.
  [[nodiscard]] bool finished() const noexcept {
    return state_ == SessionState::kFinished;
  }

  /// Admits the session (kQueued -> kPrefilling) without touching the
  /// prompt. `now_ms` is the admission timestamp on the scheduler's clock
  /// (queue wait = now - arrival); feeding the prompt is prefill_next's
  /// job, one chunk per tick.
  void admit(double now_ms);

  /// Consumes the next prompt chunk of at most `chunk_tokens` tokens
  /// (0 = the whole remaining prompt); `completed_ms` is when the chunk's
  /// work lands on the virtual clock. Returns tokens consumed. The final
  /// chunk transitions kPrefilling -> kDecoding and stamps
  /// prefill_done_ms. Only valid while prefilling.
  Index prefill_next(Index chunk_tokens, double completed_ms);

  /// Convenience for single-shot admission (tests, non-serving drivers):
  /// admit() + one whole-prompt chunk, both stamped `now_ms`.
  void run_prefill(double now_ms);

  /// Runs one decode step; `completed_ms` is when the token lands on the
  /// virtual clock (the scheduler knows the tick cost, the session does
  /// not). Transitions to kFinished after decode_len steps. Only valid
  /// once prefill completed. Equals select_next(completed_ms) followed by
  /// score_step().
  StepResult decode_next(double completed_ms);

  /// The selection half of the next decode step (DecodeEngine::select_step)
  /// with the step's lifecycle effects: the inter-token gap, timestamps,
  /// the kFinished transition and the disarm of a degraded step. Returns
  /// the traffic counts; the step stays pending until score_step.
  StepResult select_next(double completed_ms);

  /// Scores the pending step (DecodeEngine::score_step): reads only this
  /// session's context model and stashed selections, never its residency,
  /// and is valid after the session finished or aborted on that step.
  StepResult score_step() { return engine_->score_step(); }

  /// Mid-decode cancellation (fault injection / client disconnect): ends
  /// the session now (kDecoding -> kFinished) with whatever it generated.
  /// Requires at least one generated token so finish/first-token
  /// timestamps stay ordered; the scheduler retires the session through
  /// the normal path (release, ledger detach, record) afterwards.
  void abort(double now_ms);

  /// The session's serving record: timestamps (-1 for a lifecycle edge
  /// not reached yet), selection quality, traffic, waste attribution
  /// summed over the selector bank, and fault counts. An aborted
  /// session's decode_len is the tokens it produced, so throughput and
  /// inter-token math count real tokens, not the never-reached target.
  [[nodiscard]] SessionRecord record() const;

  /// Prompt tokens fed to the engine so far (== prompt_len once decoding).
  [[nodiscard]] Index prefill_tokens_done() const noexcept {
    return engine_->prefill_tokens_done();
  }

  // ---- fast-tier residency ----

  /// Attaches a shared ledger to every tiered per-head store (no-op for
  /// untiered methods, which is why the scheduler also sums sessions).
  void attach_fast_tier_ledger(FastTierLedger* ledger);

  /// Fast-tier bytes this session currently holds, summed over all
  /// per-head selectors at the configured element width.
  [[nodiscard]] std::int64_t fast_resident_bytes() const;

  /// Preemption: every per-head selector releases its reclaimable fast KV
  /// (sinks and pending tokens stay). Returns total tokens offloaded.
  Index release_fast_tier();

  /// Drops every per-head selector's in-flight speculative fetches
  /// (reserved bytes free, resident KV and cache windows untouched) — the
  /// scheduler's first, cheapest enforcement lever (kEnforcement), also
  /// called at retirement with kSessionRelease so every issued fetch
  /// resolves through an attributed path. Not counted as a preemption.
  /// Returns fetches canceled.
  Index cancel_prefetches(obs::FetchCancelReason reason =
                              obs::FetchCancelReason::kEnforcement);

  /// Times release_fast_tier actually moved tokens (preemption count).
  [[nodiscard]] Index preemptions() const noexcept { return preemptions_; }

  // ---- fault injection (all zero / no-ops on the fault-free path) ----

  /// Degrades the next decode step and counts it: every per-head selector
  /// falls back to resident-only selection and issues no slow-tier
  /// traffic for that one step. select_next disarms them again.
  void degrade_next_step();

  /// Accumulates billed fetch-retry attempts and their backoff stall.
  void note_fault_retries(Index retries, double penalty_ms) {
    fault_retries_ += retries;
    fault_retry_ms_ += penalty_ms;
  }
  /// Counts one demand fetch declared dead (retries/deadline exhausted).
  void note_dead_fetch() { ++dead_fetches_; }

  // ---- scheduler bookkeeping (held here so it retires with the session) ----

  /// True on the first call after a preemption moved preemptions() past
  /// the count last reported: the scheduler's preempt -> resume edge.
  [[nodiscard]] bool take_resume() noexcept {
    const bool resumed = preemptions_ > resumed_preemptions_;
    resumed_preemptions_ = preemptions_;
    return resumed;
  }
  /// Replaces the id of the session's outstanding speculative request on
  /// the scheduler's transfer engine (0 = none) and returns the previous
  /// one. A request is issued at a decode commit and resolved into hits,
  /// late hits or refunded waste at the next, unless enforcement or
  /// retirement cancels it first.
  std::uint64_t exchange_spec_transfer(std::uint64_t id) noexcept {
    return std::exchange(spec_transfer_id_, id);
  }

  // ---- timing (scheduler-assigned virtual timestamps, ms) ----

  /// When the request entered the queue (copied from the request).
  [[nodiscard]] double arrival_ms() const noexcept { return request_.arrival_ms; }
  /// Last time this session made progress (decode step or prefill chunk);
  /// the scheduler's coldness key for preemption victim choice.
  [[nodiscard]] double last_step_ms() const noexcept { return last_step_ms_; }
  /// The latest decode step's inter-token gap: virtual ms from the
  /// session's previous progress (decode step or prefill chunk; a
  /// preemption is not progress) to the step's completion. -1 before the
  /// first step and on the step that yields the first token, whose wait
  /// is TTFT's first-decode wait, not ITL.
  [[nodiscard]] double step_gap_ms() const noexcept { return step_gap_ms_; }

  // ---- traffic ----

  /// Share of selected-token traffic fetched synchronously: the rate the
  /// scheduler projects demand wire bytes with (equals 1 - the record's
  /// cache_hit_rate with prefetch off). 1.0 before any selection, mirroring
  /// that hit rate's pessimism.
  [[nodiscard]] double demand_miss_rate() const;

  /// The per-session decode engine (selector state; testing/metrics hook).
  [[nodiscard]] DecodeEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] const DecodeEngine& engine() const noexcept { return *engine_; }

 private:
  ServeRequest request_;
  SessionConfig config_;
  std::unique_ptr<ProceduralContextModel> model_;
  std::unique_ptr<DecodeEngine> engine_;
  SessionState state_ = SessionState::kQueued;
  double admit_ms_ = -1.0;
  double prefill_done_ms_ = -1.0;
  double first_token_ms_ = -1.0;
  double finish_ms_ = -1.0;
  double last_step_ms_ = -1.0;
  double step_gap_ms_ = -1.0;
  Index preemptions_ = 0;
  Index resumed_preemptions_ = 0;
  std::uint64_t spec_transfer_id_ = 0;
  bool aborted_ = false;
  bool degraded_armed_ = false;  ///< the next select_next disarms the bank
  Index degraded_steps_ = 0;
  Index fault_retries_ = 0;
  double fault_retry_ms_ = 0.0;
  Index dead_fetches_ = 0;
};

}  // namespace ckv
