#include "sim/latency_model.hpp"

#include <algorithm>
#include <cmath>

namespace ckv {

LatencyModel::LatencyModel(const HardwareModel& hw, const ModelConfig& model)
    : hw_(hw), model_(model) {
  expects(model.num_layers > 0, "LatencyModel: model must have layers");
}

double LatencyModel::hbm_ms(double bytes, double efficiency) const noexcept {
  const double gbps = hw_.hbm_gbps * efficiency;
  return bytes / (gbps * 1e6);  // bytes / (GB/s) -> ms
}

double LatencyModel::common_overhead_ms() const noexcept {
  return hw_.per_step_overhead_ms +
         static_cast<double>(model_.num_layers) * hw_.per_layer_launch_us / 1000.0;
}

double LatencyModel::prefill_ms(Index prompt_len) const {
  return prefill_chunk_ms(0, prompt_len);
}

double LatencyModel::prefill_chunk_ms(Index chunk_begin, Index chunk_tokens) const {
  expects(chunk_begin >= 0, "LatencyModel::prefill_chunk_ms: negative begin");
  expects(chunk_tokens > 0, "LatencyModel::prefill_chunk_ms: chunk must be positive");
  const double c = static_cast<double>(chunk_tokens);
  const double b = static_cast<double>(chunk_begin);
  const double gemm_flops = 2.0 * static_cast<double>(model_.param_count) * c;
  // Causal attention (QK^T and PV) of the chunk's queries: query i attends
  // b + i keys, so the chunk totals c*b + c^2/2 score/value positions and
  // the chunks of one prompt sum to its whole-prompt cost.
  const double attn_flops = 4.0 * (c * b + 0.5 * c * c) *
                            static_cast<double>(model_.hidden_dim) *
                            static_cast<double>(model_.num_layers);
  const double tflops = hw_.compute_tflops * hw_.prefill_flops_efficiency;
  return (gemm_flops + attn_flops) / (tflops * 1e9);  // flops / (Tflop/s) -> ms
}

double LatencyModel::clustering_cost_ms(Index prompt_len, Index iterations,
                                        Index tokens_per_cluster) const {
  const double clusters = std::max<double>(
      1.0, static_cast<double>(prompt_len) / static_cast<double>(tokens_per_cluster));
  const double flops = 2.0 * static_cast<double>(iterations) * clusters *
                       static_cast<double>(prompt_len) *
                       static_cast<double>(model_.head_dim) *
                       static_cast<double>(model_.num_kv_heads) *
                       static_cast<double>(model_.num_layers);
  const double tflops = hw_.compute_tflops * hw_.clustering_flops_efficiency;
  return flops / (tflops * 1e9);
}

StepBreakdown LatencyModel::full_kv_step(Index context_len) const {
  StepBreakdown b;
  b.weights_ms = hbm_ms(static_cast<double>(model_.weight_bytes(kFp16ElemBytes)),
                        hw_.weight_bw_efficiency);
  b.kv_read_ms =
      hbm_ms(static_cast<double>(context_len) *
                 static_cast<double>(model_.kv_bytes_per_token(kFp16ElemBytes)),
             hw_.attention_bw_efficiency);
  b.overhead_ms = common_overhead_ms();
  return b;
}

StepBreakdown LatencyModel::clusterkv_step(Index context_len, Index budget,
                                           double miss_rate, Index clusters) const {
  expects(miss_rate >= 0.0 && miss_rate <= 1.0,
          "LatencyModel::clusterkv_step: miss_rate must be in [0, 1]");
  StepBreakdown b;
  b.weights_ms = hbm_ms(static_cast<double>(model_.weight_bytes(kFp16ElemBytes)),
                        hw_.weight_bw_efficiency);
  const double attended = static_cast<double>(std::min<Index>(budget, context_len));
  b.kv_read_ms = hbm_ms(attended * static_cast<double>(
                                       model_.kv_bytes_per_token(kFp16ElemBytes)),
                        hw_.attention_bw_efficiency);
  // Centroid scoring: clusters x head_dim MACs per KV head per layer, plus
  // reading the centroids once.
  const double centroid_flops = 2.0 * static_cast<double>(clusters) *
                                static_cast<double>(model_.head_dim) *
                                static_cast<double>(model_.num_kv_heads) *
                                static_cast<double>(model_.num_layers);
  b.selection_ms = centroid_flops / (hw_.compute_tflops * 1e9);
  b.metadata_ms = hbm_ms(static_cast<double>(clusters) *
                             static_cast<double>(model_.head_dim) * kFp16ElemBytes *
                             static_cast<double>(model_.num_kv_heads) *
                             static_cast<double>(model_.num_layers),
                         hw_.attention_bw_efficiency);
  // Cache misses cross PCIe as scattered per-cluster gathers, partially
  // hidden under compute.
  const double miss_bytes =
      miss_rate * attended *
      static_cast<double>(model_.kv_bytes_per_token(kFp16ElemBytes));
  b.transfer_ms =
      (1.0 - hw_.transfer_overlap) * miss_bytes / (hw_.pcie_gather_gbps * 1e6);
  b.overhead_ms = common_overhead_ms();
  return b;
}

StepBreakdown LatencyModel::quest_step(Index context_len, Index budget,
                                       Index page_size) const {
  expects(page_size > 0, "LatencyModel::quest_step: page_size must be positive");
  StepBreakdown b;
  b.weights_ms = hbm_ms(static_cast<double>(model_.weight_bytes(kFp16ElemBytes)),
                        hw_.weight_bw_efficiency);
  const double attended = static_cast<double>(std::min<Index>(budget, context_len));
  b.kv_read_ms = hbm_ms(attended * static_cast<double>(
                                       model_.kv_bytes_per_token(kFp16ElemBytes)),
                        hw_.attention_bw_efficiency);
  // Page metadata: per-channel max and min vectors per page per KV head.
  // A partial trailing page stores full min/max vectors and is scored like
  // any other, so the page count rounds up.
  const double pages =
      std::ceil(static_cast<double>(context_len) / static_cast<double>(page_size));
  const double metadata_bytes = pages * 2.0 * static_cast<double>(model_.head_dim) *
                                kFp16ElemBytes *
                                static_cast<double>(model_.num_kv_heads) *
                                static_cast<double>(model_.num_layers);
  b.metadata_ms = hbm_ms(metadata_bytes, hw_.attention_bw_efficiency);
  const double score_flops = 2.0 * pages * 2.0 * static_cast<double>(model_.head_dim) *
                             static_cast<double>(model_.num_kv_heads) *
                             static_cast<double>(model_.num_layers);
  b.selection_ms = score_flops / (hw_.compute_tflops * 1e9);
  b.overhead_ms = common_overhead_ms();
  return b;
}

StepBreakdown LatencyModel::infinigen_step(Index context_len, Index budget,
                                           Index partial_dim) const {
  StepBreakdown b;
  b.weights_ms = hbm_ms(static_cast<double>(model_.weight_bytes(kFp16ElemBytes)),
                        hw_.weight_bw_efficiency);
  const double attended = static_cast<double>(std::min<Index>(budget, context_len));
  b.kv_read_ms = hbm_ms(attended * static_cast<double>(
                                       model_.kv_bytes_per_token(kFp16ElemBytes)),
                        hw_.attention_bw_efficiency);
  // Per-token partial scoring over the whole context (§II-C: cost scales
  // linearly with L), executed on the host management path.
  const double score_flops = 2.0 * static_cast<double>(context_len) *
                             static_cast<double>(partial_dim) *
                             static_cast<double>(model_.num_kv_heads) *
                             static_cast<double>(model_.num_layers);
  b.selection_ms = score_flops / (hw_.cpu_gflops * 1e6);
  b.sync_ms = hw_.host_sync_ms_per_layer * static_cast<double>(model_.num_layers);
  // Selected KV is fetched from host memory every step (no cluster cache);
  // speculation overlaps part of it.
  const double fetch_bytes =
      attended * static_cast<double>(model_.kv_bytes_per_token(kFp16ElemBytes));
  b.transfer_ms =
      (1.0 - hw_.transfer_overlap) * fetch_bytes / (hw_.pcie_gather_gbps * 1e6);
  b.overhead_ms = common_overhead_ms();
  return b;
}

StepBreakdown LatencyModel::full_kv_offload_step(Index context_len) const {
  StepBreakdown b;
  b.weights_ms = hbm_ms(static_cast<double>(model_.weight_bytes(kFp16ElemBytes)),
                        hw_.weight_bw_efficiency);
  // Whole KV cache streams over PCIe each step (contiguous transfers).
  const double kv_bytes = static_cast<double>(context_len) *
                          static_cast<double>(model_.kv_bytes_per_token(kFp16ElemBytes));
  b.transfer_ms = (1.0 - hw_.transfer_overlap) * kv_bytes / (hw_.pcie_gbps * 1e6);
  b.kv_read_ms = hbm_ms(kv_bytes, hw_.attention_bw_efficiency);
  b.overhead_ms = common_overhead_ms();
  return b;
}

RunLatency LatencyModel::run_latency(const RunParams& params) const {
  RunLatency run;
  run.prefill_ms = prefill_ms(params.prompt_len);
  if (params.method == Method::kClusterKV) {
    run.prefill_ms += clustering_cost_ms(params.prompt_len);
  }

  Index clusters = std::max<Index>(
      1, params.prompt_len / std::max<Index>(1, params.tokens_per_cluster));
  for (Index step = 0; step < params.decode_len; ++step) {
    const Index context = params.prompt_len + step + 1;
    StepBreakdown b;
    switch (params.method) {
      case Method::kFullKV:
        b = full_kv_step(context);
        break;
      case Method::kClusterKV:
        b = clusterkv_step(context, params.budget, params.clusterkv_miss_rate,
                           clusters);
        if (step > 0 && step % params.decode_interval == 0) {
          clusters += params.decode_clusters;
          // Decode-side clustering of m tokens into C+ clusters (§III-B),
          // amortized; small but accounted.
          const double flops = 2.0 * 10.0 * static_cast<double>(params.decode_clusters) *
                               static_cast<double>(params.decode_interval) *
                               static_cast<double>(model_.head_dim) *
                               static_cast<double>(model_.num_kv_heads) *
                               static_cast<double>(model_.num_layers);
          run.decode_ms +=
              flops / (hw_.compute_tflops * hw_.clustering_flops_efficiency * 1e9);
        }
        break;
      case Method::kQuest:
        b = quest_step(context, params.budget);
        break;
      case Method::kInfiniGen:
        b = infinigen_step(context, params.budget);
        break;
      case Method::kFullKVOffload:
        b = full_kv_offload_step(context);
        break;
    }
    run.decode_ms += b.total_ms();
  }
  return run;
}

std::string to_string(LatencyModel::Method method) {
  switch (method) {
    case LatencyModel::Method::kFullKV:
      return "Full KV";
    case LatencyModel::Method::kClusterKV:
      return "ClusterKV";
    case LatencyModel::Method::kQuest:
      return "Quest";
    case LatencyModel::Method::kInfiniGen:
      return "InfiniGen";
    case LatencyModel::Method::kFullKVOffload:
      return "InfiniGen (Full)";
  }
  return "unknown";
}

}  // namespace ckv
