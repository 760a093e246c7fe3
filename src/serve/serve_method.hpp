// The serving method as one value: which selector every session runs
// (ClusterKV, Quest or Full KV), ClusterKV's knobs and the k-means seed.
// The scheduler reads every ClusterKV knob it bills or projects with
// (admission floors, step costs, the repair bill) from the same
// ClusterKVConfig the factory hands every engine, so the two cannot
// disagree.
#pragma once

#include <cstdint>

#include "core/clusterkv_engine.hpp"
#include "core/kv_selector.hpp"
#include "sim/latency_model.hpp"

namespace ckv {

struct ServeMethod {
  /// Selector and latency composition: kClusterKV, kQuest or kFullKV, the
  /// methods with a serving selector.
  LatencyModel::Method method = LatencyModel::Method::kClusterKV;
  /// ClusterKV's knobs; validated for every method.
  ClusterKVConfig clusterkv;
  /// Seed of every session's per-head k-means sampling.
  std::uint64_t seed = 0;

  /// Only ClusterKV keeps a tiered store: admission projects its bounded
  /// working set, the ledger sums its residency and enforcement can
  /// preempt it. Every other method pins the whole context.
  [[nodiscard]] bool tiered() const noexcept {
    return method == LatencyModel::Method::kClusterKV;
  }

  /// Throws std::invalid_argument for a method without a serving selector
  /// or an out-of-range ClusterKVConfig.
  void validate() const;

  /// The per-head selector factory of every session's engine (validates
  /// first).
  [[nodiscard]] SelectorFactory factory() const;
};

}  // namespace ckv
