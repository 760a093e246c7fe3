#include "core/cluster_cache.hpp"

#include <algorithm>

namespace ckv {

ClusterCache::ClusterCache(Index depth) : depth_(depth) {
  expects(depth >= 0, "ClusterCache: depth must be non-negative");
}

std::vector<Index> ClusterCache::resident_tokens() const {
  std::vector<Index> resident;
  for (Index p = 0; p < static_cast<Index>(window_count_.size()); ++p) {
    if (window_count_[static_cast<std::size_t>(p)] > 0) {
      resident.push_back(p);
    }
  }
  return resident;
}

ClusterCache::StepResult ClusterCache::step(std::span<const Index> selected) {
  Index end = 0;
  for (const Index token : selected) {
    expects(token >= 0, "ClusterCache::step: negative token position");
    end = std::max(end, token + 1);
  }
  if (end > static_cast<Index>(window_count_.size())) {
    window_count_.resize(static_cast<std::size_t>(end), 0);
  }

  StepResult result;
  for (const Index token : selected) {
    if (window_count_[static_cast<std::size_t>(token)] > 0) {
      ++result.hits;
    } else {
      ++result.misses;
      result.missing_tokens.push_back(token);
    }
  }

  // Depth 0 caches nothing: the entry would leave the window in the step
  // that pushed it, so it is never counted and nothing is evicted.
  if (depth_ > 0) {
    window_.emplace_front(selected.begin(), selected.end());
    for (const Index token : selected) {
      ++window_count_[static_cast<std::size_t>(token)];
    }
    while (static_cast<Index>(window_.size()) > depth_) {
      // Only the leaving entry can evict: a position whose last reference
      // it held drops out of the window.
      for (const Index token : window_.back()) {
        if (--window_count_[static_cast<std::size_t>(token)] == 0) {
          result.evicted_tokens.push_back(token);
        }
      }
      window_.pop_back();
    }
  }
  std::sort(result.evicted_tokens.begin(), result.evicted_tokens.end());
  std::sort(result.missing_tokens.begin(), result.missing_tokens.end());
  result.missing_tokens.erase(
      std::unique(result.missing_tokens.begin(), result.missing_tokens.end()),
      result.missing_tokens.end());

  total_hits_ += result.hits;
  total_misses_ += result.misses;
  ++steps_;
  return result;
}

void ClusterCache::clear_window() noexcept {
  for (const std::vector<Index>& entry : window_) {
    for (const Index token : entry) {
      window_count_[static_cast<std::size_t>(token)] = 0;
    }
  }
  window_.clear();
}

double ClusterCache::hit_rate() const noexcept {
  const std::int64_t total = total_hits_ + total_misses_;
  return total == 0 ? 0.0 : static_cast<double>(total_hits_) / static_cast<double>(total);
}

void ClusterCache::reset_counters() noexcept {
  total_hits_ = 0;
  total_misses_ = 0;
  steps_ = 0;
}

}  // namespace ckv
