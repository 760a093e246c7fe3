// Procedural context model: generates per-head key/value/query streams
// with the statistical structure the paper's method exploits and its
// evaluation measures (DESIGN.md §2):
//   * keys form semantic clusters ("topics") in direction space (§III-A:
//     nearby keys have correlated attention weights);
//   * the initial tokens are attention sinks — far outliers that queries
//     weakly align with (§III-B keeps the first 16 tokens out of
//     clustering);
//   * a few channels carry large-magnitude outliers with per-token jitter
//     (the KIVI observation that motivates cosine distance);
//   * token importance drifts across decode steps because the query's
//     topic focus wanders (Fig. 3a) or is pinned to planted evidence
//     positions by a workload (needle tasks).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"
#include "model/model_config.hpp"
#include "util/common.hpp"

namespace ckv {

struct ProceduralParams {
  Index head_dim = 64;
  Index num_topics = 64;          ///< semantic clusters per head
  /// Per-token probability the topic changes. High by default: semantically
  /// similar tokens are positionally *scattered* (Fig. 2 / Fig. 3b — pages
  /// of 16 hold only 1-2 important tokens), in short runs of ~2-3 tokens.
  double topic_change_prob = 0.4;
  double key_noise = 0.35;        ///< in-cluster direction spread
  double key_scale_sigma = 0.25;  ///< lognormal sigma of key magnitudes
  Index sink_tokens = 4;          ///< intrinsic sink tokens at sequence start
  double sink_scale = 3.0;        ///< sink key magnitude
  double sink_alignment = 0.12;   ///< query component along the sink direction
  Index outlier_channels = 4;     ///< channels with large-magnitude offsets
  double outlier_offset = 1.25;   ///< mean offset on outlier channels (KIVI effect)
  double outlier_jitter = 0.4;    ///< per-token multiplicative jitter on outliers
  double query_noise = 0.35;      ///< query direction noise
  double query_scale = 8.0;       ///< attention score sharpness (pre-softmax units)
  Index focus_width = 3;          ///< topics a query attends simultaneously
  double focus_drift_prob = 0.25; ///< per-step probability the focus shifts
  double value_noise = 0.5;       ///< value spread around the topic value dir
  /// Query heads sharing this KV head (GQA group size; 1 = MHA). Group
  /// members share the focus process but carry independent query noise.
  Index queries_per_kv = 1;
};

/// One attention head's generated context: keys/values for the prompt and
/// any generated tokens, plus a deterministic query stream driven by a
/// topic-focus process.
class HeadStream {
 public:
  /// Synthesizes the prompt's keys/values. `capacity` is the context
  /// length the stream will reach (prompt + generated tokens): keys,
  /// values and queries reserve it up front so decode appends never
  /// reallocate. It is a sizing hint only — values never depend on it,
  /// and a stream may grow past it.
  HeadStream(const ProceduralParams& params, Rng rng, Index prompt_len,
             Index capacity = 0);

  [[nodiscard]] Index size() const noexcept { return keys_.rows(); }
  [[nodiscard]] Index prompt_len() const noexcept { return prompt_len_; }
  [[nodiscard]] const Matrix& keys() const noexcept { return keys_; }
  [[nodiscard]] const Matrix& values() const noexcept { return values_; }
  [[nodiscard]] Index topic_of(Index position) const;

  /// Extends the context by one generated token (continues the topic
  /// process, appends its key/value).
  void append_generated();

  /// The decode query for the given step and query-group member
  /// (sub_query < queries_per_kv). Steps materialize in order (the focus
  /// process is causal); results are memoized so re-reads are free.
  [[nodiscard]] std::vector<float> query(Index step, Index sub_query = 0);

  /// Pins the focus process on the topics of the given *positions* for
  /// steps in [step_begin, step_end) — how workloads plant needle
  /// evidence. Must be called before those steps are first queried.
  void pin_focus(Index step_begin, Index step_end, std::span<const Index> positions);

  /// Raw attention scores q . k_i / sqrt(d) over the whole context, or
  /// over the first `prefix_len` tokens when given (prefix_len < 0 = all).
  [[nodiscard]] std::vector<float> attention_scores(std::span<const float> query,
                                                    Index prefix_len = -1) const;

  [[nodiscard]] const ProceduralParams& params() const noexcept { return params_; }

 private:
  void append_token(Index position);
  void materialize_next_query();
  [[nodiscard]] std::vector<Index> focus_for_step(Index step);
  [[nodiscard]] std::vector<float> make_key(Index topic);
  [[nodiscard]] std::vector<float> make_value(Index topic);

  ProceduralParams params_;
  Rng topic_rng_;
  Rng key_rng_;
  Rng query_rng_;
  Index prompt_len_;

  Matrix topic_dirs_;        ///< num_topics x d unit directions (keys)
  Matrix value_dirs_;        ///< num_topics x d unit directions (values)
  std::vector<float> sink_dir_;
  std::vector<Index> outlier_channel_ids_;
  std::vector<float> outlier_channel_offset_;

  std::vector<Index> topic_assignment_;  ///< per position
  Matrix keys_;
  Matrix values_;

  std::vector<Index> current_focus_;
  std::vector<std::vector<Index>> focus_by_step_;  ///< memoized focus sets
  std::vector<Matrix> queries_;  ///< memoized queries, one matrix per sub-query
  std::vector<Rng> sub_query_rngs_;
  struct PinnedRange {
    Index begin;
    Index end;
    std::vector<Index> topics;
  };
  std::vector<PinnedRange> pinned_;
};

/// The full simulation slice: layers x heads independent HeadStreams that
/// advance in lockstep.
class ProceduralContextModel {
 public:
  /// Synthesizes every head's prompt. The heads are independent (each
  /// derives its own seed from `seed` and its layer/head tag), so they are
  /// built with parallel_for; a call from inside a parallel body builds
  /// them inline. Bit-identical at every worker count. `capacity` is the
  /// per-head sizing hint of HeadStream.
  ProceduralContextModel(const SimShape& shape, const ProceduralParams& params,
                         std::uint64_t seed, Index prompt_len, Index capacity = 0);

  [[nodiscard]] const SimShape& shape() const noexcept { return shape_; }
  [[nodiscard]] Index prompt_len() const noexcept { return prompt_len_; }
  [[nodiscard]] Index context_len() const;  ///< prompt + generated so far

  [[nodiscard]] HeadStream& head(Index layer, Index head);
  [[nodiscard]] const HeadStream& head(Index layer, Index head) const;

  /// Appends one generated token to every head.
  void append_generated();

  /// Pins every head's focus to the topics covering `positions` for the
  /// given step range (needle planting).
  void pin_focus(Index step_begin, Index step_end, std::span<const Index> positions);

 private:
  SimShape shape_;
  Index prompt_len_;
  std::vector<std::unique_ptr<HeadStream>> heads_;  ///< layer-major
};

}  // namespace ckv
