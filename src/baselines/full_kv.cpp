#include "baselines/full_kv.hpp"

#include <numeric>

namespace ckv {

FullKVSelector::FullKVSelector(Index head_dim) : store_(head_dim) {}

void FullKVSelector::observe_prefill(const Matrix& keys, const Matrix& values) {
  store_.append_block(keys, values);
}

void FullKVSelector::observe_decode(std::span<const float> key,
                                    std::span<const float> value) {
  store_.append(key, value);
}

SelectionResult FullKVSelector::select(std::span<const float> /*query*/,
                                       Index /*budget*/) {
  SelectionResult result;
  result.indices.resize(static_cast<std::size_t>(store_.size()));
  std::iota(result.indices.begin(), result.indices.end(), Index{0});
  return result;
}

SelectorFactory make_full_kv_factory() {
  return [](Index /*layer*/, Index /*head*/, Index head_dim) {
    return std::make_unique<FullKVSelector>(head_dim);
  };
}

}  // namespace ckv
