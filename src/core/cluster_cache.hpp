// Cluster-granularity cache of selected KV (§IV-D). The fast tier retains
// the tokens selected during the last R decoding steps, keyed by cluster
// label; at each step, only tokens of clusters absent from the window are
// fetched from the slow tier. The cache holds only that window: where a
// token's KV lives (slow, fast, or on the link under a speculative fetch)
// is TieredKVStore's record, and the engine resolves a step's misses
// against it.
//
// Residency is indexed by token position: beside the window's step entries
// the cache keeps, per position, a count of the window entries' references
// to it (resident iff nonzero) — four bytes per token per head, grown on
// demand up to the largest position seen. A step classifies each selected
// token with one array read, and evictions come straight from the entry
// leaving the window (a position is evicted when its count drops to zero),
// so no per-step set of the window is built.
#pragma once

#include <cstdint>
#include <deque>
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
    /// Selected tokens absent from the window, ascending and unique: the
    /// caller lands those already in flight and demand-fetches the rest.
    std::vector<Index> missing_tokens;
    std::vector<Index> evicted_tokens;  ///< left the R-step window; drop from fast
    Index hits = 0;    ///< tokens served from the window
    Index misses = 0;  ///< selected tokens outside the window
  };

  /// Processes one decoding step's selection: `selected` lists each chosen
  /// cluster with the token positions taken from it (trimmed last cluster
  /// included as its partial list). Returns the hit/miss breakdown and
  /// updates the window. A token repeated within the selection counts once
  /// per occurrence. Throws std::invalid_argument (leaving the cache
  /// unchanged) for a negative token position.
  StepResult step(const Selection& selected);

  [[nodiscard]] Index depth() const noexcept { return depth_; }

  /// Lifetime token-level hit rate: hits / (hits + misses); 0 before any
  /// lookup.
  [[nodiscard]] double hit_rate() const noexcept;

  [[nodiscard]] std::int64_t total_hits() const noexcept { return total_hits_; }
  [[nodiscard]] std::int64_t total_misses() const noexcept { return total_misses_; }
  [[nodiscard]] Index steps() const noexcept { return steps_; }

  /// Tokens currently resident by virtue of the window, ascending (testing
  /// hook).
  [[nodiscard]] std::vector<Index> resident_tokens() const;

  void reset_counters() noexcept;

  /// Forgets the R-step window without touching lifetime counters. Used
  /// when a scheduler offloads the cached tokens behind the cache's back
  /// (preemption): the next step then misses and refetches honestly.
  void clear_window() noexcept;

  /// Relabels the window after a cluster-repair rebuild: every cached
  /// token keeps its residency (the resident token set is unchanged, so
  /// repair never moves KV) but is regrouped under the cluster that
  /// `token_to_cluster[position]` now assigns it. Every window token must
  /// map to a valid cluster — repair rebuilds all clustered tokens and
  /// sinks/pending never enter the window; otherwise throws
  /// std::invalid_argument with the cache unchanged. Counters untouched.
  void remap_window(std::span<const Index> token_to_cluster);

 private:
  /// Adds `delta` to window_count_ for every token reference in `entry`.
  void count_entry(const Selection& entry, std::int32_t delta) noexcept;

  Index depth_;
  std::deque<Selection> window_;  ///< newest step first, at most depth_ long
  /// Per position: references to it across window_ entries (resident iff
  /// nonzero); a token repeated within an entry counts once per repeat.
  std::vector<std::int32_t> window_count_;
  std::int64_t total_hits_ = 0;
  std::int64_t total_misses_ = 0;
  Index steps_ = 0;
};

}  // namespace ckv
