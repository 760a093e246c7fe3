// StreamingLLM baseline (Xiao et al., ICLR'24): fixed pattern keeping the
// attention-sink tokens plus a sliding window of the most recent tokens.
// Non-recallable; the simplest member of the Fig. 1b family.
#pragma once

#include "core/kv_selector.hpp"

namespace ckv {

struct StreamingLLMConfig {
  Index sink_tokens = 16;  ///< aligned with ClusterKV's retained sinks
};

class StreamingLLMSelector : public KVSelector {
 public:
  explicit StreamingLLMSelector(const StreamingLLMConfig& config);

  [[nodiscard]] std::string name() const override { return "StreamingLLM"; }

  void observe_prefill(const Matrix& keys, const Matrix& values) override;
  void observe_decode(std::span<const float> key,
                      std::span<const float> value) override;
  SelectionResult select(std::span<const float> query, Index budget) override;
  [[nodiscard]] bool is_recallable() const override { return false; }
  [[nodiscard]] Index context_size() const override { return tokens_; }

 private:
  StreamingLLMConfig config_;
  Index tokens_ = 0;
};

/// Factory adapter for the decode engine.
SelectorFactory make_streaming_llm_factory(const StreamingLLMConfig& config = {});

}  // namespace ckv
