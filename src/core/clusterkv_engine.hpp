// The ClusterKV method end to end for one attention head (Fig. 5):
// semantic clustering after prefill, incremental clustering of generated
// tokens every m steps, cluster-granularity selection + indexing per
// decode step, and the R-step cluster cache over a tiered KV store.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cluster_cache.hpp"
#include "core/centroid_store.hpp"
#include "core/cluster_prefetch.hpp"
#include "core/cluster_repair.hpp"
#include "core/distance.hpp"
#include "core/kmeans.hpp"
#include "core/kv_selector.hpp"
#include "kvcache/tiered_store.hpp"
#include "tensor/rng.hpp"
#include "util/common.hpp"

namespace ckv {

/// All ClusterKV knobs with the paper's defaults.
struct ClusterKVConfig {
  Index sink_tokens = 16;          ///< always-retained initial tokens (§III-B)
  Index tokens_per_cluster = 80;   ///< C0 = L / 80
  Index decode_interval = 320;     ///< m: cluster every m generated tokens
  Index decode_clusters = 4;       ///< C+: clusters per decode batch
  Index cache_depth = 1;           ///< R of the cluster cache (§IV-D)
  DistanceMetric cluster_metric = DistanceMetric::kCosine;  ///< §III-B
  Index kmeans_max_iterations = 20;
  KMeansInit kmeans_init = KMeansInit::kRandomSample;  ///< §III-B default
  Index element_bytes = 2;         ///< fp16-equivalent byte accounting
  /// When positive, the cluster count of every prefill flush (Fig. 11b
  /// ablation); 0 uses pending tokens / tokens_per_cluster.
  Index fixed_cluster_count = 0;

  // ---- cross-chunk cluster repair (chunked-prefill recall recovery) ----
  // Chunked prefill clusters each prompt chunk locally, which costs
  // selection recall vs. one-shot clustering (docs/SCHEDULING.md). A
  // bounded repair pass after the final prompt chunk merges adjacent-batch
  // clusters whose centroids agree and re-clusters the merged groups —
  // metadata only, never touching KV placement, sinks or pending tokens.
  /// Minimum centroid similarity (cluster_metric) for an adjacent-batch
  /// merge; -1 merges every adjacent pair (exhaustive repair).
  double repair_merge_threshold = 0.8;
  /// Refinement iterations per merged group; 0 disables repair entirely.
  Index repair_refine_iterations = 4;
  /// Also repair every this many generated tokens, folding decode-side
  /// cluster batches back into the prompt's semantic groups (0 = repair
  /// after prefill only).
  Index repair_decode_interval = 0;

  // ---- async cluster prefetch (§IV-B overlap of slow->fast fetches) ----
  // After each selection the engine predicts the clusters the next step
  // will select (core/cluster_prefetch) and issues their fetches so the
  // copies overlap the current step's attention instead of stalling the
  // next select(). Latency-only: selection results are bit-identical to
  // synchronous fetching.
  /// Clusters prefetched per decode step (0 = synchronous fetches only).
  Index prefetch_clusters = 0;
  /// Weight of the recency/frequency prior in the prediction blend.
  double prefetch_prior_weight = 0.5;
  /// Per-step EMA decay of the prior.
  double prefetch_prior_decay = 0.5;

  /// Range-checks the knobs; throws std::invalid_argument naming the
  /// offending field. The engine constructor and the serving scheduler
  /// both call it, so a serving run rejects a bad knob for every method.
  void validate() const;
};

/// What chunked prefill does with its pending prompt tokens once a chunk
/// lands: they cluster when tokens_per_cluster of them are buffered or the
/// prompt ends, and an end-of-prompt tail shorter than that folds into the
/// preceding batch when there is one.
enum class PrefillFlush : std::uint8_t { kWait, kFlush, kFoldTail };
[[nodiscard]] PrefillFlush prefill_flush(const ClusterKVConfig& config, Index pending,
                                         bool last_chunk, bool has_batch) noexcept;

/// The clustering batches a prompt registers when prefilled in
/// `chunk_tokens`-token chunks (0 = one whole-prompt chunk): the engine's
/// prefill_flush decisions replayed over token counts alone. The serving
/// scheduler bills the post-prefill repair pass and the tail fold from it.
struct PrefillFlushPlan {
  Index batches = 0;        ///< clustering batches registered by prefill
  bool tail_folds = false;  ///< final tail re-clusters with the last batch
};
[[nodiscard]] PrefillFlushPlan prefill_flush_plan(const ClusterKVConfig& config,
                                                  Index prompt_len, Index chunk_tokens);

class ClusterKVEngine : public KVSelector {
 public:
  ClusterKVEngine(Index head_dim, const ClusterKVConfig& config, Rng rng);

  [[nodiscard]] std::string name() const override { return "ClusterKV"; }

  void observe_prefill(const Matrix& keys, const Matrix& values) override;

  [[nodiscard]] bool supports_chunked_prefill() const override { return true; }

  /// Incremental prefill: appends one prompt slice, extends the sink
  /// prefix while the context is still all-sink, and accumulates the rest
  /// as pending tokens that cluster at prompt granularity whenever at
  /// least tokens_per_cluster of them are buffered (prefill_flush; the
  /// last chunk flushes the remainder, so decode starts fully clustered).
  /// Chunk boundaries are scheduler artifacts and never force undersized
  /// clusters: an end-of-prompt tail shorter than tokens_per_cluster folds
  /// into the preceding batch's clustering window instead of becoming a
  /// degenerate cluster of its own, and when repair is enabled the final
  /// chunk runs one cross-chunk repair pass. observe_prefill is the
  /// one-chunk case.
  void observe_prefill_chunk(const Matrix& keys, const Matrix& values,
                             bool last_chunk) override;

  void observe_decode(std::span<const float> key,
                      std::span<const float> value) override;
  SelectionResult select(std::span<const float> query, Index budget) override;
  [[nodiscard]] Index context_size() const override;

  /// Forces clustering of any pending decode tokens (end-of-generation
  /// flush; also lets tests exercise partial batches). A no-op with zero
  /// pending tokens; a partial batch smaller than decode_clusters gets at
  /// most one cluster per token and never registers empty clusters.
  void flush_pending();

  // ---- fast-tier residency (serving scheduler hooks) ----

  [[nodiscard]] Index fast_resident_tokens() const override {
    return tiered_.fast_resident_count();
  }

  /// Offloads every fast-resident token except the attention sinks and the
  /// not-yet-clustered pending tokens (both are irreducible: select()
  /// assumes they are fast-resident), cancels any in-flight prefetches
  /// (their reserved bytes are freed too), and forgets the cluster-cache
  /// window so later steps refetch honestly. Returns tokens *moved* only:
  /// canceled speculation is excluded, so a cancel-only release does not
  /// read as a preemption and the count matches a sync-fetch run exactly.
  Index release_fast_tier() override;

  void attach_fast_tier_ledger(FastTierLedger* ledger) override {
    tiered_.attach_ledger(ledger);
  }

  /// Graceful degradation: while set, select() restricts cluster
  /// candidates to clusters whose every token is already fast-resident
  /// and issues no slow-tier traffic at all (no demand fetches, no
  /// speculation). Sinks and pending tokens stay attended — they are
  /// resident by construction — so budget/sink invariants hold exactly.
  /// A serving session sets this for the one step whose demand fetch died
  /// and clears it right after that step's selection.
  void set_degraded_step(bool degraded) override { degraded_step_ = degraded; }

  /// Drops every in-flight prefetch and frees its reserved bytes; the
  /// issued traffic counts as wasted, attributed to `reason`. Called by
  /// budget enforcement before any real preemption (kEnforcement), by
  /// release_fast_tier itself, by retirement (kSessionRelease), and by the
  /// end-of-prompt tail fold, which passes kMisprediction since the
  /// speculation is simply obsolete. A repair rebuild leaves fetches in
  /// flight: they are addressed by position, so new cluster ids do not
  /// touch them. Returns fetches dropped.
  Index cancel_prefetches(obs::FetchCancelReason reason =
                              obs::FetchCancelReason::kEnforcement) override {
    return tiered_.cancel_all_fetches(reason);
  }

  /// Per-reason canceled-speculation totals from the tiered store.
  [[nodiscard]] std::int64_t prefetch_canceled_tokens(
      obs::FetchCancelReason reason) const override {
    return tiered_.stats().tokens_prefetch_canceled_by[static_cast<int>(reason)];
  }

  [[nodiscard]] const ClusterPrefetcher& prefetcher() const noexcept {
    return prefetcher_;
  }

  [[nodiscard]] const CentroidStore& centroid_store() const noexcept {
    return centroids_;
  }
  /// Read-only: select() steps the window and the store together, which
  /// keeps every window token fast-resident.
  [[nodiscard]] const ClusterCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const TieredKVStore& tiered_store() const noexcept { return tiered_; }
  [[nodiscard]] const ClusterKVConfig& config() const noexcept { return config_; }
  [[nodiscard]] Index sink_count() const noexcept { return sink_count_; }
  [[nodiscard]] Index pending_count() const noexcept {
    return static_cast<Index>(pending_positions_.size());
  }

  /// Total k-means assignment work performed so far, in multiply-accumulate
  /// ops (for §III-D Concern 1 accounting in the latency model).
  [[nodiscard]] std::int64_t clustering_flops() const noexcept {
    return clustering_flops_;
  }

  // ---- cross-chunk cluster repair ----

  /// True when the config enables the repair pass at all.
  [[nodiscard]] bool repair_enabled() const noexcept {
    return config_.repair_refine_iterations > 0;
  }

  /// Runs one repair pass right now (the engine also triggers this itself
  /// after the final prompt chunk and every repair_decode_interval decode
  /// tokens). Rewrites centroid/label metadata only: fast-tier residency,
  /// sinks and pending tokens are untouched, so scheduler invariants hold
  /// mid-repair. A no-op with fewer than two clustering batches.
  RepairOutcome repair_now();

  /// Repair passes that actually changed the clustering.
  [[nodiscard]] Index repair_passes() const noexcept { return repair_passes_; }

  /// Total repair work so far (pair scoring + refinement MACs), mirrored
  /// analytically by LatencyModel::repair_ms.
  [[nodiscard]] std::int64_t repair_flops() const noexcept { return repair_flops_; }

 private:
  void cluster_range(Index begin, Index end, Index cluster_count);
  /// Clusters the pending positions into at most `cluster_count` clusters
  /// and clears them (shared by the decode-interval flush and the chunked
  /// prefill path, which differ only in the cluster count they request).
  void flush_pending_clusters(Index cluster_count);

  /// One registered clustering batch (a flushed pending window): repair
  /// treats consecutive batches as adjacent chunks, and the end-of-prompt
  /// tail fold re-clusters the last batch together with a short tail.
  struct ClusterBatch {
    Index first_cluster = 0;  ///< id of the batch's first cluster
    Index begin_pos = 0;      ///< first token position of the batch
  };

  ClusterKVConfig config_;
  Rng rng_;
  TieredKVStore tiered_;
  CentroidStore centroids_;
  ClusterCache cache_;
  ClusterPrefetcher prefetcher_;
  Index sink_count_ = 0;
  std::vector<Index> pending_positions_;  ///< generated, not yet clustered
  std::vector<ClusterBatch> batches_;     ///< registration-order flush batches
  Index decode_steps_ = 0;                ///< observe_decode calls so far
  bool degraded_step_ = false;            ///< resident-only selection mode
  Index repair_passes_ = 0;
  std::int64_t clustering_flops_ = 0;
  std::int64_t repair_flops_ = 0;
};

/// Factory adapter for the decode engine.
SelectorFactory make_clusterkv_factory(const ClusterKVConfig& config,
                                       std::uint64_t seed);

}  // namespace ckv
