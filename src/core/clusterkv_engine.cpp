#include "core/clusterkv_engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/cluster_repair.hpp"
#include "core/kernels.hpp"
#include "core/kmeans.hpp"
#include "core/selector_index.hpp"

namespace ckv {

void ClusterKVConfig::validate() const {
  expects(sink_tokens >= 0, "ClusterKVConfig: sink_tokens must be >= 0");
  expects(tokens_per_cluster > 0, "ClusterKVConfig: tokens_per_cluster must be > 0");
  expects(decode_interval > 0, "ClusterKVConfig: decode_interval must be > 0");
  expects(decode_clusters > 0, "ClusterKVConfig: decode_clusters must be > 0");
  expects(cache_depth >= 0, "ClusterKVConfig: cache_depth must be >= 0");
  expects(repair_refine_iterations >= 0,
          "ClusterKVConfig: repair_refine_iterations must be >= 0");
  expects(repair_decode_interval >= 0,
          "ClusterKVConfig: repair_decode_interval must be >= 0");
  expects(prefetch_clusters >= 0, "ClusterKVConfig: prefetch_clusters must be >= 0");
  // An infinite weight scores a never-selected cluster inf * 0 = NaN, which
  // breaks the prefetcher's ranking order.
  expects(std::isfinite(prefetch_prior_weight) && prefetch_prior_weight >= 0.0,
          "ClusterKVConfig: prefetch_prior_weight must be finite and >= 0");
  expects(prefetch_prior_decay >= 0.0 && prefetch_prior_decay < 1.0,
          "ClusterKVConfig: prefetch_prior_decay must be in [0, 1)");
  expects(kmeans_max_iterations >= 0,
          "ClusterKVConfig: kmeans_max_iterations must be >= 0");
  expects(fixed_cluster_count >= 0, "ClusterKVConfig: fixed_cluster_count must be >= 0");
}

bool prefill_flush(const ClusterKVConfig& config, Index pending,
                   bool last_chunk) noexcept {
  return pending > 0 && (last_chunk || pending >= config.tokens_per_cluster);
}

Index prefill_flush_plan(const ClusterKVConfig& config, Index prompt_len,
                         Index chunk_tokens) {
  Index batches = 0;
  const Index chunk = chunk_tokens > 0 ? chunk_tokens : prompt_len;
  Index pending = 0;
  for (Index done = 0; done < prompt_len;) {
    const Index end = std::min<Index>(done + chunk, prompt_len);
    // Sinks never pend: the sink prefix spans [0, min(sink_tokens, end)).
    pending += end - std::max<Index>(done, std::min<Index>(config.sink_tokens, end));
    done = end;
    if (prefill_flush(config, pending, done == prompt_len)) {
      ++batches;
      pending = 0;
    }
  }
  return batches;
}

ClusterKVEngine::ClusterKVEngine(Index head_dim, const ClusterKVConfig& config,
                                 Rng rng)
    : config_(config),
      rng_(std::move(rng)),
      tiered_(head_dim),
      centroids_(head_dim),
      cache_(config.cache_depth),
      prefetcher_(ClusterPrefetchConfig{config.prefetch_clusters,
                                        config.prefetch_prior_weight,
                                        config.prefetch_prior_decay}) {
  config.validate();
}

void ClusterKVEngine::cluster_range(Index begin, Index end, Index cluster_count) {
  if (begin >= end) {
    return;
  }
  const Matrix block_keys = tiered_.store().keys().row_slice(begin, end);
  KMeansConfig kconfig;
  kconfig.num_clusters = std::max<Index>(1, std::min<Index>(cluster_count, end - begin));
  kconfig.metric = config_.cluster_metric;
  kconfig.max_iterations = config_.kmeans_max_iterations;
  kconfig.init = config_.kmeans_init;
  const auto result = kmeans_cluster(block_keys, kconfig, rng_);
  clustering_flops_ += result.iterations *
                       assignment_flops(end - begin, kconfig.num_clusters,
                                        tiered_.store().head_dim());

  // kmeans_cluster compacts degenerate empty clusters away itself, so the
  // result registers directly: every cluster is non-empty and the
  // size/offset indexing invariants hold.
  centroids_.add_clusters(result.centroids, result.labels, begin);
  ++batches_since_repair_;
  // Clustered tokens move to the slow tier (Fig. 5: offload K & V); they
  // come back through the cluster cache on demand.
  tiered_.offload_to_slow(begin, end);
}

bool ClusterKVEngine::repair_now() {
  if (batches_since_repair_ < 2) {
    return false;
  }
  ClusterRepairConfig repair;
  repair.refine_iterations = std::max<Index>(1, config_.repair_refine_iterations);
  repair.tokens_per_cluster = config_.tokens_per_cluster;
  repair.metric = config_.cluster_metric;
  const std::int64_t flops =
      repair_clusters(centroids_, tiered_.store().keys(), sink_count_, repair);
  repair_flops_ += flops;
  ++repair_passes_;
  // The repaired clusters form one batch: a later pass (periodic decode
  // repair) runs once a decode flush has registered another.
  batches_since_repair_ = 1;
  obs::tracer().instant("repair-pass",
                        {{"flops", flops}, {"clusters", centroids_.cluster_count()}});
  // In-flight prefetches survive the rebuild (they are addressed by
  // position), but the prediction prior is keyed by the dead cluster ids.
  prefetcher_.on_rebuild(centroids_.cluster_count());
  return true;
}

void ClusterKVEngine::observe_prefill(const Matrix& keys, const Matrix& values) {
  expects(tiered_.size() == 0, "ClusterKVEngine: observe_prefill must come first");
  observe_prefill_chunk(keys, values, /*last_chunk=*/true);
}

void ClusterKVEngine::observe_prefill_chunk(const Matrix& keys, const Matrix& values,
                                            bool last_chunk) {
  const Index begin = tiered_.size();
  tiered_.append_block(keys, values);
  const Index end = tiered_.size();
  // The sink prefix can span chunks when the first chunk is smaller than
  // sink_tokens: keep extending it while every prior token is a sink.
  if (sink_count_ == begin) {
    sink_count_ = std::min<Index>(config_.sink_tokens, end);
  }
  for (Index p = std::max<Index>(begin, sink_count_); p < end; ++p) {
    pending_positions_.push_back(p);
  }
  if (prefill_flush(config_, pending_count(), last_chunk)) {
    flush_pending_clusters(
        config_.fixed_cluster_count > 0
            ? config_.fixed_cluster_count
            : default_cluster_count(pending_count(), config_.tokens_per_cluster));
  }
  if (last_chunk && repair_enabled()) {
    repair_now();
  }
}

void ClusterKVEngine::observe_decode(std::span<const float> key,
                                     std::span<const float> value) {
  tiered_.append(key, value);
  pending_positions_.push_back(tiered_.size() - 1);
  if (static_cast<Index>(pending_positions_.size()) >= config_.decode_interval) {
    flush_pending();
  }
  ++decode_steps_;
  if (repair_enabled() && config_.repair_decode_interval > 0 &&
      decode_steps_ % config_.repair_decode_interval == 0) {
    // Periodic repair folds decode-side cluster batches back into the
    // prompt's semantic groups (metadata only; the pending tail and
    // residency are untouched, so this is preemption-safe mid-decode).
    repair_now();
  }
}

void ClusterKVEngine::flush_pending() { flush_pending_clusters(config_.decode_clusters); }

void ClusterKVEngine::flush_pending_clusters(Index cluster_count) {
  if (pending_positions_.empty()) {
    return;  // zero pending: no clusters, no clustering_flops_ charged
  }
  const Index begin = pending_positions_.front();
  const Index end = pending_positions_.back() + 1;
  // cluster_range clamps the cluster count to the token count, so a
  // partial batch gets at most one cluster per token and its flop billing
  // covers the clamped problem, not phantom centroids.
  cluster_range(begin, end, cluster_count);
  pending_positions_.clear();
}

Index ClusterKVEngine::release_fast_tier() {
  // Pending decode tokens are the contiguous tail past the last flush;
  // everything clustered and non-sink is reclaimable. In-flight prefetches
  // are dropped first: a preemption landing mid-fetch frees the reserved
  // bytes along with the resident ones. Only *moved* tokens are returned —
  // dropping speculation alone is not a preemption (callers count
  // preemptions off this value, and a sync-fetch run must count the same).
  cancel_prefetches(obs::FetchCancelReason::kEnforcement);
  const Index pending_begin =
      pending_positions_.empty() ? tiered_.size() : pending_positions_.front();
  std::vector<Index> victims;
  for (const Index p : tiered_.fast_positions()) {
    if (p >= sink_count_ && p < pending_begin) {
      victims.push_back(p);
    }
  }
  const Index moved = tiered_.offload_positions(victims);
  cache_.clear_window();
  return moved;
}

SelectionResult ClusterKVEngine::select(std::span<const float> query, Index budget) {
  expects(budget >= 0, "ClusterKVEngine::select: budget must be non-negative");
  SelectionResult result;

  // Sinks and not-yet-clustered decode tokens are always attended: they are
  // fast-tier resident by construction (§III-B retains the first 16 tokens;
  // pending tokens have not been offloaded yet).
  std::vector<Index> indices;
  for (Index s = 0; s < sink_count_; ++s) {
    indices.push_back(s);
  }
  indices.insert(indices.end(), pending_positions_.begin(), pending_positions_.end());

  const Index always_on = static_cast<Index>(indices.size());
  const Index cluster_budget = std::max<Index>(0, budget - always_on);

  if (centroids_.cluster_count() > 0 && cluster_budget > 0) {
    const auto scores = centroids_.scores(query);
    ClusterSelection selection;
    if (degraded_step_) {
      // Degraded (fault) step: the slow tier is unreachable, so selection
      // runs over a filtered parallel view of only the clusters whose
      // every token is already fast-resident — filtering *before*
      // select_clusters keeps the budget/trim arithmetic identical to a
      // normal step over a smaller candidate set, and guarantees the
      // cache step below finds nothing to fetch. In-flight prefetches are
      // excluded too (an in-flight token is not yet resident).
      const auto sizes = centroids_.cluster_sizes();
      std::vector<float> kept_scores;
      std::vector<Index> kept_sizes;
      std::vector<Index> kept_ids;
      for (Index c = 0; c < centroids_.cluster_count(); ++c) {
        bool resident = true;
        for (const Index token : centroids_.tokens_of(c)) {
          if (!tiered_.is_fast_resident(token)) {
            resident = false;
            break;
          }
        }
        if (resident) {
          kept_scores.push_back(scores[static_cast<std::size_t>(c)]);
          kept_sizes.push_back(sizes[static_cast<std::size_t>(c)]);
          kept_ids.push_back(c);
        }
      }
      selection = select_clusters(kept_scores, kept_sizes, cluster_budget);
      for (Index& c : selection.clusters) {
        c = kept_ids[static_cast<std::size_t>(c)];  // back to real ids
      }
    } else {
      selection =
          select_clusters(scores, centroids_.cluster_sizes(), cluster_budget);
    }
    const auto indexed = gather_selected_tokens(centroids_, selection, cluster_budget);

    // Resolve the prefetches issued after the previous step against the
    // store: window misses already in flight land (their copy overlapped
    // the intervening compute), every other in-flight fetch was a
    // misprediction and cancels. Only the remaining demand misses stall
    // this step. Window tokens are always fast-resident, so no in-flight
    // token can be a window hit.
    const auto cache_step = cache_.step(indexed.token_positions);
    const Index landed = tiered_.complete_fetch(cache_step.missing_tokens);
    tiered_.cancel_all_fetches(obs::FetchCancelReason::kMisprediction);
    tiered_.ensure_resident(cache_step.missing_tokens);
    tiered_.drop_from_fast(cache_step.evicted_tokens);

    indices.insert(indices.end(), indexed.token_positions.begin(),
                   indexed.token_positions.end());
    result.representations_scored = centroids_.cluster_count();
    if (degraded_step_) {
      // No byte crossed the wire: every attended token was fast-resident
      // (window misses here are cache-window bookkeeping over resident
      // tokens, e.g. after a cleared window — ensure_resident moved
      // nothing). Billing them as fetches would charge phantom traffic.
      result.tokens_fetched = 0;
      result.tokens_cache_hit = cache_step.hits + cache_step.misses;
      result.tokens_prefetch_hit = 0;
    } else {
      result.tokens_fetched = cache_step.misses;
      result.tokens_cache_hit = cache_step.hits;
      result.tokens_prefetch_hit = landed;
    }

    if (prefetcher_.enabled() && !degraded_step_) {
      // Predict the next step's clusters from this query's scores plus
      // the recency/frequency prior, and issue their fetches so the
      // copies overlap this step's attention. Pure metadata: neither the
      // prediction nor the issued fetches influence any future selection.
      // Only clusters whose every token is already window-resident are
      // excluded as candidates — the *trimmed* last cluster stays in,
      // because the next step's shifted trim boundary over the same
      // cluster is one of the likeliest miss sources (begin_fetch skips
      // the fast-resident prefix, so only its tail is actually fetched).
      prefetcher_.observe_selection(selection.clusters, centroids_.cluster_count());
      std::vector<Index> fully_resident;
      for (const auto& [cluster, taken] : indexed.per_cluster) {
        if (static_cast<Index>(taken.size()) == centroids_.size_of(cluster)) {
          fully_resident.push_back(cluster);
        }
      }
      std::vector<Index> speculative;
      for (const Index cluster : prefetcher_.predict(scores, fully_resident)) {
        const auto tokens = centroids_.tokens_of(cluster);
        speculative.insert(speculative.end(), tokens.begin(), tokens.end());
      }
      result.tokens_prefetch_issued += tiered_.begin_fetch(speculative);
    }
  }

  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  result.indices = std::move(indices);
  return result;
}

Index ClusterKVEngine::context_size() const { return tiered_.size(); }

SelectorFactory make_clusterkv_factory(const ClusterKVConfig& config,
                                       std::uint64_t seed) {
  return [config, seed](Index layer, Index head, Index head_dim) {
    const auto tag = "clusterkv/l" + std::to_string(layer) + "/h" + std::to_string(head);
    return std::make_unique<ClusterKVEngine>(head_dim, config,
                                             Rng(derive_seed(seed, tag)));
  };
}

}  // namespace ckv
