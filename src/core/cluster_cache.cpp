#include "core/cluster_cache.hpp"

#include <algorithm>

namespace ckv {

ClusterCache::ClusterCache(Index depth) : depth_(depth) {
  expects(depth >= 0, "ClusterCache: depth must be non-negative");
}

void ClusterCache::cover(Index end) {
  if (end > static_cast<Index>(window_count_.size())) {
    window_count_.resize(static_cast<std::size_t>(end), 0);
    in_flight_flag_.resize(static_cast<std::size_t>(end), 0);
  }
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
  cover(end);

  StepResult result;
  for (const auto& [cluster, tokens] : selected) {
    for (const Index token : tokens) {
      const auto p = static_cast<std::size_t>(token);
      if (window_count_[p] > 0) {
        ++result.hits;
      } else if (in_flight_flag_[p] != 0) {
        // Covered by a speculative fetch issued after the previous step:
        // the bytes cross PCIe either way (it is a miss), but the copy
        // overlapped the intervening compute instead of stalling now.
        ++result.misses;
        ++result.prefetch_hits;
        result.prefetched_tokens.push_back(token);
        in_flight_flag_[p] = 0;
      } else {
        ++result.misses;
        result.missing_tokens.push_back(token);
      }
    }
  }
  // In-flight entries live exactly one step: whatever this selection did
  // not claim was a prediction miss.
  for (const auto& [cluster, tokens] : in_flight_) {
    for (const Index token : tokens) {
      auto& flag = in_flight_flag_[static_cast<std::size_t>(token)];
      if (flag != 0) {
        result.wasted_tokens.push_back(token);
        flag = 0;
      }
    }
  }
  std::sort(result.wasted_tokens.begin(), result.wasted_tokens.end());
  in_flight_.clear();

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
  // A claim clears the flag, so each prefetched token is listed once.
  std::sort(result.prefetched_tokens.begin(), result.prefetched_tokens.end());

  total_hits_ += result.hits;
  total_misses_ += result.misses;
  total_prefetch_hits_ += result.prefetch_hits;
  total_prefetch_wasted_ += static_cast<std::int64_t>(result.wasted_tokens.size());
  ++steps_;
  return result;
}

std::vector<Index> ClusterCache::issue_fetches(
    std::span<const std::pair<Index, std::span<const Index>>> candidates) {
  Index end = 0;
  for (const auto& [cluster, tokens] : candidates) {
    expects(cluster >= 0, "ClusterCache::issue_fetches: negative cluster id");
    for (const Index token : tokens) {
      expects(token >= 0, "ClusterCache::issue_fetches: negative token position");
      end = std::max(end, token + 1);
    }
  }
  cover(end);

  std::vector<Index> all_issued;
  for (const auto& [cluster, tokens] : candidates) {
    std::vector<Index> issued;
    for (const Index token : tokens) {
      const auto p = static_cast<std::size_t>(token);
      if (window_count_[p] == 0 && in_flight_flag_[p] == 0) {
        in_flight_flag_[p] = 1;
        issued.push_back(token);
      }
    }
    if (issued.empty()) {
      continue;
    }
    auto& entry = in_flight_[cluster];
    entry.insert(entry.end(), issued.begin(), issued.end());
    std::sort(entry.begin(), entry.end());
    total_prefetch_issued_ += static_cast<std::int64_t>(issued.size());
    all_issued.insert(all_issued.end(), issued.begin(), issued.end());
  }
  std::sort(all_issued.begin(), all_issued.end());
  return all_issued;
}

std::vector<Index> ClusterCache::issue_fetch(Index cluster,
                                             std::span<const Index> tokens) {
  const std::pair<Index, std::span<const Index>> candidate{cluster, tokens};
  return issue_fetches(std::span{&candidate, 1});
}

std::vector<Index> ClusterCache::cancel_fetches() {
  std::vector<Index> canceled;
  for (const auto& [cluster, tokens] : in_flight_) {
    for (const Index token : tokens) {
      in_flight_flag_[static_cast<std::size_t>(token)] = 0;
    }
    canceled.insert(canceled.end(), tokens.begin(), tokens.end());
  }
  in_flight_.clear();
  std::sort(canceled.begin(), canceled.end());
  total_prefetch_wasted_ += static_cast<std::int64_t>(canceled.size());
  return canceled;
}

Index ClusterCache::in_flight_tokens() const noexcept {
  Index count = 0;
  for (const auto& [cluster, tokens] : in_flight_) {
    count += static_cast<Index>(tokens.size());
  }
  return count;
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
  const auto relabel = [&token_to_cluster](const Selection& groups) {
    std::map<Index, std::vector<Index>> regrouped;
    for (const auto& [cluster, tokens] : groups) {
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
    return regrouped;
  };

  // Relabel everything before touching any state, so a token without a
  // cluster leaves the cache unchanged.
  std::deque<Selection> window;
  for (const Selection& entry : window_) {
    const auto regrouped = relabel(entry);
    window.emplace_back(regrouped.begin(), regrouped.end());
  }
  // In-flight prefetches survive a repair rebuild under their new labels:
  // the issued copies are position-addressed, so only the grouping key
  // changes. Leaving them under the old ids would strand their store-side
  // reservations and turn covered tokens into demand misses.
  auto in_flight = relabel(Selection(in_flight_.begin(), in_flight_.end()));

  // Regrouping drops repeats within an entry, so the reference counts are
  // rebuilt; the set of resident positions is unchanged.
  for (const Selection& entry : window_) {
    count_entry(entry, -1);
  }
  window_ = std::move(window);
  for (const Selection& entry : window_) {
    count_entry(entry, 1);
  }
  in_flight_ = std::move(in_flight);
}

double ClusterCache::hit_rate() const noexcept {
  const std::int64_t total = total_hits_ + total_misses_;
  return total == 0 ? 0.0 : static_cast<double>(total_hits_) / static_cast<double>(total);
}

void ClusterCache::reset_counters() noexcept {
  total_hits_ = 0;
  total_misses_ = 0;
  total_prefetch_hits_ = 0;
  total_prefetch_issued_ = 0;
  total_prefetch_wasted_ = 0;
  steps_ = 0;
}

}  // namespace ckv
