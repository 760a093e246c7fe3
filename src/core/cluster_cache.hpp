// Cluster-granularity cache of selected KV (§IV-D). The fast tier retains
// the tokens selected during the last R decoding steps, keyed by cluster
// label; at each step, only tokens of clusters absent from the window are
// fetched from the slow tier. On top of the window the cache tracks
// *in-flight prefetches*: tokens whose slow->fast copy was issued
// speculatively after the previous step (core/cluster_prefetch) and
// resolves at the next step — selected in-flight tokens land as prefetch
// hits, the rest are wasted and canceled.
//
// Residency is indexed by token position: beside the window's step entries
// the cache keeps, per position, a count of the window entries' references
// to it (resident iff nonzero) and an in-flight flag — five bytes per token
// per head, grown on demand up to the largest position seen. A step
// classifies each selected token with two array reads, and evictions come
// straight from the entry leaving the window (a position is evicted when
// its count drops to zero), so no per-step set of the window is built.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace ckv {

class ClusterCache {
 public:
  /// One step's selection: each chosen cluster with the token positions
  /// taken from it.
  using Selection = std::vector<std::pair<Index, std::vector<Index>>>;

  /// depth = R (0 disables caching: every selected token misses).
  explicit ClusterCache(Index depth);

  struct StepResult {
    /// Demand fetches: selected tokens neither window-resident nor covered
    /// by an in-flight prefetch; must be fetched synchronously.
    std::vector<Index> missing_tokens;
    /// Selected tokens whose prefetch was in flight: their copy lands now
    /// (TieredKVStore::complete_fetch) with the latency already overlapped.
    std::vector<Index> prefetched_tokens;
    /// In-flight tokens the step did *not* select: the prediction missed;
    /// cancel their fetches (TieredKVStore::cancel_fetch).
    std::vector<Index> wasted_tokens;
    std::vector<Index> evicted_tokens;  ///< left the R-step window; drop from fast
    Index hits = 0;    ///< tokens served from the window
    /// Tokens fetched from the slow tier this step (demand + prefetch
    /// hits). Identical to the no-prefetch run on the same selection
    /// stream: prefetch moves *when* bytes cross, never whether.
    Index misses = 0;
    Index prefetch_hits = 0;  ///< the subset of misses covered in flight
  };

  /// Processes one decoding step's selection: `selected` lists each chosen
  /// cluster with the token positions taken from it (trimmed last cluster
  /// included as its partial list). Returns hit/miss breakdown (resolving
  /// every in-flight prefetch as hit or waste) and updates the window. A
  /// token repeated within the selection counts once per occurrence; only
  /// its first occurrence can claim an in-flight prefetch. Throws
  /// std::invalid_argument (leaving the cache unchanged) for a negative
  /// token position.
  StepResult step(const Selection& selected);

  /// Records one step's issued prefetches: each candidate lists a cluster
  /// and the tokens to fetch from it; tokens already window-resident or
  /// in flight (including earlier in this batch) are skipped. Returns the
  /// flat token list actually recorded, ascending (the exact set to hand
  /// TieredKVStore::begin_fetch, so cache- and store-side in-flight state
  /// never diverge). Throws std::invalid_argument (leaving the cache
  /// unchanged) for a negative cluster id or token position.
  std::vector<Index> issue_fetches(
      std::span<const std::pair<Index, std::span<const Index>>> candidates);

  /// Single-cluster convenience wrapper over issue_fetches.
  std::vector<Index> issue_fetch(Index cluster, std::span<const Index> tokens);

  /// Drops every in-flight entry (preemption / teardown; the prediction
  /// never resolves) and returns the affected tokens so the caller can
  /// cancel the store-side fetches. Counts them as wasted.
  std::vector<Index> cancel_fetches();

  /// In-flight tokens grouped by cluster id (deterministic order).
  [[nodiscard]] const std::map<Index, std::vector<Index>>& in_flight()
      const noexcept {
    return in_flight_;
  }
  [[nodiscard]] Index in_flight_tokens() const noexcept;

  [[nodiscard]] Index depth() const noexcept { return depth_; }

  /// Lifetime token-level hit rate: hits / (hits + misses); 0 before any
  /// lookup.
  [[nodiscard]] double hit_rate() const noexcept;

  [[nodiscard]] std::int64_t total_hits() const noexcept { return total_hits_; }
  [[nodiscard]] std::int64_t total_misses() const noexcept { return total_misses_; }
  [[nodiscard]] std::int64_t total_prefetch_hits() const noexcept {
    return total_prefetch_hits_;
  }
  [[nodiscard]] std::int64_t total_prefetch_issued() const noexcept {
    return total_prefetch_issued_;
  }
  [[nodiscard]] std::int64_t total_prefetch_wasted() const noexcept {
    return total_prefetch_wasted_;
  }
  [[nodiscard]] Index steps() const noexcept { return steps_; }

  /// Tokens currently resident by virtue of the window, ascending (testing
  /// hook).
  [[nodiscard]] std::vector<Index> resident_tokens() const;

  void reset_counters() noexcept;

  /// Forgets the R-step window without touching lifetime counters. Used
  /// when a scheduler offloads the cached tokens behind the cache's back
  /// (preemption): the next step then misses and refetches honestly.
  /// In-flight prefetches are *not* dropped here — callers that also tear
  /// down store-side fetches drain cancel_fetches() explicitly.
  void clear_window() noexcept;

  /// Relabels the window after a cluster-repair rebuild: every cached
  /// token keeps its residency (the resident token set is unchanged, so
  /// repair never moves KV) but is regrouped under the cluster that
  /// `token_to_cluster[position]` now assigns it. In-flight prefetch
  /// entries are relabeled the same way — a repair landing between fetch
  /// issue and completion must not strand them under dead cluster ids
  /// (their store-side reservation would leak and the next step would
  /// treat covered tokens as demand misses). Every window or in-flight
  /// token must map to a valid cluster — repair rebuilds all clustered
  /// tokens and sinks/pending never enter the window; otherwise throws
  /// std::invalid_argument with the cache unchanged. Counters untouched.
  void remap_window(std::span<const Index> token_to_cluster);

 private:
  /// Grows the per-position arrays to cover [0, end).
  void cover(Index end);
  /// Adds `delta` to window_count_ for every token reference in `entry`.
  void count_entry(const Selection& entry, std::int32_t delta) noexcept;

  Index depth_;
  std::deque<Selection> window_;  ///< newest step first, at most depth_ long
  std::map<Index, std::vector<Index>> in_flight_;  ///< cluster -> tokens
  /// Per position: references to it across window_ entries (resident iff
  /// nonzero); a token repeated within an entry counts once per repeat.
  std::vector<std::int32_t> window_count_;
  /// Per position: 1 iff the token is listed in in_flight_.
  std::vector<std::uint8_t> in_flight_flag_;
  std::int64_t total_hits_ = 0;
  std::int64_t total_misses_ = 0;
  std::int64_t total_prefetch_hits_ = 0;
  std::int64_t total_prefetch_issued_ = 0;
  std::int64_t total_prefetch_wasted_ = 0;
  Index steps_ = 0;
};

}  // namespace ckv
