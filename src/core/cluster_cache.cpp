#include "core/cluster_cache.hpp"

#include <algorithm>
#include <map>

namespace ckv {

ClusterCache::ClusterCache(Index depth) : depth_(depth) {
  expects(depth >= 0, "ClusterCache: depth must be non-negative");
}

void ClusterCache::count_entry(const Selection& entry, std::int32_t delta) noexcept {
  for (const auto& [cluster, tokens] : entry) {
    for (const Index token : tokens) {
      window_count_[static_cast<std::size_t>(token)] += delta;
    }
  }
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

ClusterCache::StepResult ClusterCache::step(const Selection& selected) {
  Index end = 0;
  for (const auto& [cluster, tokens] : selected) {
    for (const Index token : tokens) {
      expects(token >= 0, "ClusterCache::step: negative token position");
      end = std::max(end, token + 1);
    }
  }
  if (end > static_cast<Index>(window_count_.size())) {
    window_count_.resize(static_cast<std::size_t>(end), 0);
  }

  StepResult result;
  for (const auto& [cluster, tokens] : selected) {
    for (const Index token : tokens) {
      if (window_count_[static_cast<std::size_t>(token)] > 0) {
        ++result.hits;
      } else {
        ++result.misses;
        result.missing_tokens.push_back(token);
      }
    }
  }

  // Depth 0 caches nothing: the entry would leave the window in the step
  // that pushed it, so it is never counted and nothing is evicted.
  if (depth_ > 0) {
    window_.push_front(selected);
    count_entry(window_.front(), 1);
    while (static_cast<Index>(window_.size()) > depth_) {
      // Only the leaving entry can evict: a position whose last reference
      // it held drops out of the window.
      for (const auto& [cluster, tokens] : window_.back()) {
        for (const Index token : tokens) {
          if (--window_count_[static_cast<std::size_t>(token)] == 0) {
            result.evicted_tokens.push_back(token);
          }
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
  for (const Selection& entry : window_) {
    for (const auto& [cluster, tokens] : entry) {
      for (const Index token : tokens) {
        window_count_[static_cast<std::size_t>(token)] = 0;
      }
    }
  }
  window_.clear();
}

void ClusterCache::remap_window(std::span<const Index> token_to_cluster) {
  // Relabel everything before touching any state, so a token without a
  // cluster leaves the cache unchanged.
  std::deque<Selection> window;
  for (const Selection& entry : window_) {
    std::map<Index, std::vector<Index>> regrouped;
    for (const auto& [cluster, tokens] : entry) {
      for (const Index token : tokens) {
        expects(token >= 0 && token < static_cast<Index>(token_to_cluster.size()) &&
                    token_to_cluster[static_cast<std::size_t>(token)] >= 0,
                "ClusterCache::remap_window: cached token lost its cluster");
        regrouped[token_to_cluster[static_cast<std::size_t>(token)]].push_back(token);
      }
    }
    for (auto& [cluster, tokens] : regrouped) {
      std::sort(tokens.begin(), tokens.end());
      tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    }
    window.emplace_back(regrouped.begin(), regrouped.end());
  }
  // Regrouping drops repeats within an entry, so the reference counts are
  // rebuilt; the set of resident positions is unchanged.
  for (const Selection& entry : window_) {
    count_entry(entry, -1);
  }
  window_ = std::move(window);
  for (const Selection& entry : window_) {
    count_entry(entry, 1);
  }
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
