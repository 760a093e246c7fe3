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
  /// When positive, the cluster count of every prefill flush (Fig. 11b
  /// ablation); 0 uses pending tokens / tokens_per_cluster.
  Index fixed_cluster_count = 0;

  // ---- cross-chunk cluster repair (chunked-prefill recall recovery) ----
  // Chunked prefill clusters each prompt chunk locally, which costs
  // selection recall vs. one-shot clustering (docs/SCHEDULING.md). A
  // repair pass after the final prompt chunk re-clusters every clustered
  // token jointly with a few warm-started k-means iterations — metadata
  // only, never touching KV placement, sinks or pending tokens.
  /// Refinement iterations of one pass; 0 disables repair entirely.
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

/// Whether chunked prefill clusters its `pending` prompt tokens once a
/// chunk lands: when tokens_per_cluster of them are buffered or the prompt
/// ends. A short end-of-prompt tail becomes a batch of its own, which the
/// post-prefill repair pass absorbs.
[[nodiscard]] bool prefill_flush(const ClusterKVConfig& config, Index pending,
                                 bool last_chunk) noexcept;

/// The clustering batches a prompt registers when prefilled in
/// `chunk_tokens`-token chunks (0 = one whole-prompt chunk): the engine's
/// prefill_flush decisions replayed over token counts alone. The serving
/// scheduler bills the post-prefill repair pass from it.
[[nodiscard]] Index prefill_flush_plan(const ClusterKVConfig& config, Index prompt_len,
                                       Index chunk_tokens);

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
  /// When repair is enabled the final chunk runs one cross-chunk repair
  /// pass, which also absorbs an end-of-prompt tail shorter than
  /// tokens_per_cluster. observe_prefill is the one-chunk case.
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
  /// release_fast_tier itself and by retirement (kSessionRelease). A
  /// repair rebuild leaves fetches in flight: they are addressed by
  /// position, so new cluster ids do not touch them. Returns fetches
  /// dropped.
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
  /// tokens): one joint k-means refinement over every clustered token.
  /// Rewrites centroid/label metadata only: fast-tier residency, sinks and
  /// pending tokens are untouched, so scheduler invariants hold
  /// mid-repair. Skipped, returning false, unless at least two clustering
  /// batches were registered since the last pass (the repaired clusters
  /// count as one).
  bool repair_now();

  /// Repair passes that ran.
  [[nodiscard]] Index repair_passes() const noexcept { return repair_passes_; }

  /// Total repair work so far (k-means assignment MACs), billed by the
  /// serving scheduler as LatencyModel::clustering_cost_ms per pass.
  [[nodiscard]] std::int64_t repair_flops() const noexcept { return repair_flops_; }

 private:
  void cluster_range(Index begin, Index end, Index cluster_count);
  /// Clusters the pending positions into at most `cluster_count` clusters
  /// and clears them (shared by the decode-interval flush and the chunked
  /// prefill path, which differ only in the cluster count they request).
  void flush_pending_clusters(Index cluster_count);

  ClusterKVConfig config_;
  Rng rng_;
  TieredKVStore tiered_;
  CentroidStore centroids_;
  ClusterCache cache_;
  ClusterPrefetcher prefetcher_;
  Index sink_count_ = 0;
  std::vector<Index> pending_positions_;  ///< generated, not yet clustered
  Index batches_since_repair_ = 0;        ///< clustering batches since the last pass
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
