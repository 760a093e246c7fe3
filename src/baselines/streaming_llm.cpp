#include "baselines/streaming_llm.hpp"

#include <algorithm>

namespace ckv {

StreamingLLMSelector::StreamingLLMSelector(Index head_dim,
                                           const StreamingLLMConfig& config)
    : config_(config), store_(head_dim) {
  expects(config.sink_tokens >= 0, "StreamingLLMSelector: sinks must be >= 0");
}

void StreamingLLMSelector::observe_prefill(const Matrix& keys, const Matrix& values) {
  store_.append_block(keys, values);
}

void StreamingLLMSelector::observe_decode(std::span<const float> key,
                                          std::span<const float> value) {
  store_.append(key, value);
}

SelectionResult StreamingLLMSelector::select(std::span<const float> /*query*/,
                                             Index budget) {
  expects(budget >= 0, "StreamingLLMSelector::select: budget must be non-negative");
  SelectionResult result;
  const Index n = store_.size();
  const Index sinks = std::min<Index>(config_.sink_tokens, n);
  const Index window = std::max<Index>(0, budget - sinks);
  const Index window_begin = std::max<Index>(sinks, n - window);
  for (Index t = 0; t < sinks; ++t) {
    result.indices.push_back(t);
  }
  for (Index t = window_begin; t < n; ++t) {
    result.indices.push_back(t);
  }
  return result;
}

SelectorFactory make_streaming_llm_factory(const StreamingLLMConfig& config) {
  return [config](Index /*layer*/, Index /*head*/, Index head_dim) {
    return std::make_unique<StreamingLLMSelector>(head_dim, config);
  };
}

}  // namespace ckv
