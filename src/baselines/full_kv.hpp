// Full KV cache baseline: attends every stored token. The accuracy upper
// bound and the latency lower bound every compression method is measured
// against.
#pragma once

#include "core/kv_selector.hpp"

namespace ckv {

class FullKVSelector : public KVSelector {
 public:
  [[nodiscard]] std::string name() const override { return "Full KV"; }

  void observe_prefill(const Matrix& keys, const Matrix& values) override;
  void observe_decode(std::span<const float> key,
                      std::span<const float> value) override;
  SelectionResult select(std::span<const float> query, Index budget) override;
  [[nodiscard]] Index context_size() const override { return tokens_; }

 private:
  Index tokens_ = 0;
};

/// Factory adapter for the decode engine.
SelectorFactory make_full_kv_factory();

}  // namespace ckv
