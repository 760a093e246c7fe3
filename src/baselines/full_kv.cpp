#include "baselines/full_kv.hpp"

#include <numeric>

namespace ckv {

void FullKVSelector::observe_prefill(const Matrix& keys, const Matrix& /*values*/) {
  tokens_ += keys.rows();
}

void FullKVSelector::observe_decode(std::span<const float> /*key*/,
                                    std::span<const float> /*value*/) {
  ++tokens_;
}

SelectionResult FullKVSelector::select(std::span<const float> /*query*/,
                                       Index /*budget*/) {
  SelectionResult result;
  result.indices.resize(static_cast<std::size_t>(tokens_));
  std::iota(result.indices.begin(), result.indices.end(), Index{0});
  return result;
}

SelectorFactory make_full_kv_factory() {
  return [](Index /*layer*/, Index /*head*/, Index /*head_dim*/) {
    return std::make_unique<FullKVSelector>();
  };
}

}  // namespace ckv
