#include "tensor/topk.hpp"

#include <algorithm>
#include <numeric>

namespace ckv {

namespace {

std::vector<Index> iota_indices(std::size_t n) {
  std::vector<Index> idx(n);
  std::iota(idx.begin(), idx.end(), Index{0});
  return idx;
}

}  // namespace

std::vector<Index> top_k_indices(std::span<const float> scores, Index k) {
  expects(k >= 0, "top_k_indices: k must be non-negative");
  k = std::min<Index>(k, static_cast<Index>(scores.size()));
  auto idx = iota_indices(scores.size());
  const auto greater = [&scores](Index a, Index b) {
    const float sa = scores[static_cast<std::size_t>(a)];
    const float sb = scores[static_cast<std::size_t>(b)];
    if (sa != sb) {
      return sa > sb;
    }
    return a < b;
  };
  // (score desc, index asc) is a strict total order over non-NaN scores,
  // so the top-k set and its order are unique: selecting the k-th element
  // and sorting the prefix returns exactly what partial_sort would, in
  // O(n + k log k).
  const auto kth = idx.begin() + static_cast<std::ptrdiff_t>(k);
  std::nth_element(idx.begin(), kth, idx.end(), greater);
  idx.resize(static_cast<std::size_t>(k));
  std::sort(idx.begin(), idx.end(), greater);
  return idx;
}

std::vector<Index> argsort_descending(std::span<const float> scores) {
  auto idx = iota_indices(scores.size());
  std::sort(idx.begin(), idx.end(), [&scores](Index a, Index b) {
    const float sa = scores[static_cast<std::size_t>(a)];
    const float sb = scores[static_cast<std::size_t>(b)];
    if (sa != sb) {
      return sa > sb;
    }
    return a < b;
  });
  return idx;
}

std::vector<Index> argsort_ascending(std::span<const float> scores) {
  auto idx = iota_indices(scores.size());
  std::sort(idx.begin(), idx.end(), [&scores](Index a, Index b) {
    const float sa = scores[static_cast<std::size_t>(a)];
    const float sb = scores[static_cast<std::size_t>(b)];
    if (sa != sb) {
      return sa < sb;
    }
    return a < b;
  });
  return idx;
}

}  // namespace ckv
