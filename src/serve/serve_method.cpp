#include "serve/serve_method.hpp"

#include "baselines/full_kv.hpp"
#include "baselines/quest.hpp"

namespace ckv {

void ServeMethod::validate() const {
  expects(method == LatencyModel::Method::kClusterKV ||
              method == LatencyModel::Method::kQuest ||
              method == LatencyModel::Method::kFullKV,
          "ServeMethod: method must be kClusterKV, kQuest or kFullKV (the "
          "methods with a serving selector)");
  clusterkv.validate();
}

SelectorFactory ServeMethod::factory() const {
  validate();
  if (method == LatencyModel::Method::kClusterKV) {
    return make_clusterkv_factory(clusterkv, seed);
  }
  return method == LatencyModel::Method::kQuest ? make_quest_factory()
                                                : make_full_kv_factory();
}

}  // namespace ckv
