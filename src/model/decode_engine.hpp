// Runs one compression method over a procedural context: prefill feeds all
// per-head selectors, then each decode step selects tokens per head and
// scores the selection against the exact attention scores. This is the
// measurement harness behind Fig. 9/11 and §V-C.
//
// A decode step has two halves. The selection half (select_step) appends
// the generated token, feeds it to the selectors and runs select on every
// head — the only part that touches a selector's tiered store and the
// source of the step's traffic counts. The scoring half (score_step) is
// the exact-attention oracle: recall@B and coverage against the exact
// scores, plus the attention feedback when configured. It reads only this
// engine's context model and the selections stashed by the selection half,
// so a scheduler may run residency changes (enforcement, degraded-mode
// resets) between the halves and score many sessions' steps concurrently.
// decode_step is the composition of the two.
#pragma once

#include <optional>
#include <vector>

#include "model/procedural.hpp"
#include "model/selector_bank.hpp"
#include "tensor/stats.hpp"
#include "util/common.hpp"

namespace ckv {

struct DecodeEngineConfig {
  Index budget = 1024;
  /// Leading layers that always use the full KV cache — the paper disables
  /// selection on the first two layers for every method (§V-A); scaled
  /// simulation slices scale this down proportionally.
  Index full_attention_layers = 1;
  /// Feeds attention probabilities back to selectors (H2O needs it).
  bool attention_feedback = false;
};

/// Aggregated measurements of one decode step across selection-active
/// layers/heads.
struct StepResult {
  double mean_recall = 0.0;    ///< |I_T ∩ I_true| / B, Fig. 11 metric
  double mean_coverage = 0.0;  ///< attention mass captured by I_T
  Index tokens_selected = 0;
  Index tokens_fetched = 0;  ///< slow-tier fetches (cache misses)
  Index tokens_cache_hit = 0;
  Index tokens_prefetch_hit = 0;     ///< fetches covered by async prefetch
  Index tokens_prefetch_issued = 0;  ///< speculative fetches issued this step
};

class DecodeEngine {
 public:
  DecodeEngine(ProceduralContextModel& model, const SelectorFactory& factory,
               const DecodeEngineConfig& config);

  /// Feeds the whole prompt KV to every selector in one shot: one
  /// prefill_chunk over the whole prompt. Must be called exactly once,
  /// before the first decode_step, and must not be mixed with
  /// prefill_chunk.
  void run_prefill();

  /// Feeds the next at most `max_tokens` prompt rows to every selector —
  /// the re-entrant chunked-prefill mirror of select_next(), letting a
  /// scheduler interleave one prompt chunk per tick with other sessions'
  /// decode steps. Chunk-aware selectors (supports_chunked_prefill())
  /// receive each slice as it lands; chunk-oblivious ones get one
  /// whole-prompt observe_prefill when the final chunk arrives. Returns
  /// tokens consumed (0 once the prompt is exhausted); prefilled() turns
  /// true with the final chunk.
  Index prefill_chunk(Index max_tokens);

  /// Prompt tokens consumed by prefill so far (== prompt_len once
  /// prefilled() is true).
  [[nodiscard]] Index prefill_tokens_done() const noexcept { return prefill_done_; }

  /// Executes decode step `step` (0-based, strictly increasing): appends
  /// one generated token, selects, scores the selection against exact
  /// attention, and returns the step's measurements. Equals
  /// select_step(step) followed by score_step().
  StepResult decode_step(Index step);

  /// The selection half of decode step `step` (see the file comment).
  /// Returns the traffic counts; the quality fields stay at their
  /// defaults. Throws std::invalid_argument while a previous step is
  /// still unscored.
  StepResult select_step(Index step);

  /// select_step for the next step — the re-entry point for interleaved
  /// multi-session scheduling, where each session's engine advances
  /// independently one step per scheduler tick.
  StepResult select_next() { return select_step(next_step_); }

  /// The scoring half of the pending step (see the file comment), folded
  /// into the recall / coverage statistics. Returns the full step result,
  /// traffic counts included. With attention_feedback on it also feeds each
  /// head's attention over its selected positions (softmax of the first
  /// group member's exact scores) back to the selector (observe_attention)
  /// before the next selection. Throws std::invalid_argument when no step
  /// is pending.
  StepResult score_step();

  [[nodiscard]] bool prefilled() const noexcept { return prefilled_; }
  [[nodiscard]] Index steps_completed() const noexcept { return next_step_; }

  /// Recall/coverage statistics aggregate only *meaningful* steps — steps
  /// where the context exceeded the budget, so the selector actually had
  /// to drop tokens. Steps whose whole context fits the budget recall 1.0
  /// trivially and would dilute any cross-method or cross-schedule
  /// comparison; they are excluded, and recall_steps() exposes the shared
  /// denominator so aggregations can weight sessions comparably.
  [[nodiscard]] const RunningStat& recall_stat() const noexcept { return recall_; }
  /// Number of meaningful (selection-forced) steps recall_stat covers.
  [[nodiscard]] Index recall_steps() const noexcept { return recall_.count(); }
  /// Recall/coverage with vacuous semantics: when no step ever forced the
  /// selector to drop a token there is nothing to miss, so both are 1.0 —
  /// not the empty-stat 0.0, which would make a lossless run read as
  /// catastrophic. Reporting surfaces should use these over the raw stats.
  [[nodiscard]] double mean_recall() const noexcept {
    return recall_.count() > 0 ? recall_.mean() : 1.0;
  }
  [[nodiscard]] double mean_coverage() const noexcept {
    return coverage_.count() > 0 ? coverage_.mean() : 1.0;
  }
  [[nodiscard]] const RunningStat& coverage_stat() const noexcept { return coverage_; }
  /// Traffic totals count every selected step (they update in select_step).
  [[nodiscard]] std::int64_t total_fetched() const noexcept { return total_fetched_; }
  [[nodiscard]] std::int64_t total_cache_hits() const noexcept {
    return total_cache_hits_;
  }
  /// Fetches whose latency async prefetch overlapped (subset of
  /// total_fetched; 0 for methods without prefetch).
  [[nodiscard]] std::int64_t total_prefetch_hits() const noexcept {
    return total_prefetch_hits_;
  }
  /// Speculative fetches issued in total (hits + waste).
  [[nodiscard]] std::int64_t total_prefetch_issued() const noexcept {
    return total_prefetch_issued_;
  }
  [[nodiscard]] SelectorBank& selectors() noexcept { return bank_; }
  [[nodiscard]] const DecodeEngineConfig& config() const noexcept { return config_; }

 private:
  ProceduralContextModel& model_;
  DecodeEngineConfig config_;
  SelectorBank bank_;
  bool prefilled_ = false;
  Index prefill_done_ = 0;
  Index next_step_ = 0;
  /// What the selection half hands the scoring half.
  struct PendingStep {
    Index step = 0;
    StepResult traffic;  ///< the selection half's counts
    /// Selected positions per layer-major head; empty on full-attention
    /// layers, which attend the whole context.
    std::vector<std::vector<Index>> selected;
  };
  std::optional<PendingStep> pending_;
  RunningStat recall_;
  RunningStat coverage_;
  std::int64_t total_fetched_ = 0;
  std::int64_t total_cache_hits_ = 0;
  std::int64_t total_prefetch_hits_ = 0;
  std::int64_t total_prefetch_issued_ = 0;
};

}  // namespace ckv
