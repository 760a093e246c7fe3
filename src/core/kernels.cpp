#include "core/kernels.hpp"

#include <algorithm>
#include <limits>

#include "tensor/vec_ops.hpp"
#include "util/parallel.hpp"

namespace ckv {

namespace {

/// Chunk size for pool dispatch: keep every chunk at roughly this many
/// multiply-accumulates so small batches stay serial and large ones split
/// into enough chunks to balance.
constexpr Index kGrainFlops = 1 << 16;

Index score_grain(Index work_per_item) noexcept {
  return std::max<Index>(1, kGrainFlops / std::max<Index>(1, work_per_item));
}

/// Per-centroid argmax adjustments reducing every metric to
/// argmax(dot * mult + bias): cosine multiplies by 1/|c| (the key norm is
/// constant per key and drops out), L2 subtracts |c|^2 / 2 (|k|^2 drops
/// out), inner product is the raw dot.
void argmax_adjustments(const Matrix& centroids, DistanceMetric metric,
                        std::vector<float>& mult, std::vector<float>& bias) {
  const std::size_t c_count = static_cast<std::size_t>(centroids.rows());
  mult.assign(c_count, 1.0f);
  bias.assign(c_count, 0.0f);
  if (metric == DistanceMetric::kInnerProduct) {
    return;
  }
  for (Index c = 0; c < centroids.rows(); ++c) {
    const double norm = norm2(centroids.row(c));
    if (metric == DistanceMetric::kCosine) {
      mult[static_cast<std::size_t>(c)] =
          norm > 0.0 ? static_cast<float>(1.0 / norm) : 0.0f;
    } else {
      bias[static_cast<std::size_t>(c)] = static_cast<float>(-0.5 * norm * norm);
    }
  }
}

}  // namespace

void batched_scores(const Matrix& rows, Index row_begin, Index row_end,
                    std::span<const float> query, DistanceMetric metric,
                    std::span<float> out, float scale) {
  expects(static_cast<Index>(query.size()) == rows.cols(),
          "batched_scores: query width mismatch");
  expects(row_begin >= 0 && row_begin <= row_end && row_end <= rows.rows(),
          "batched_scores: row range out of bounds");
  expects(static_cast<Index>(out.size()) == row_end - row_begin,
          "batched_scores: output size mismatch");
  if (row_begin == row_end) {
    return;
  }
  const Index dim = rows.cols();
  const float* base = rows.flat().data();  // hoisted: no per-row bounds check
  const auto row_at = [base, dim](Index r) {
    return std::span<const float>(base + r * dim, static_cast<std::size_t>(dim));
  };
  // The query norm is shared by every cosine score; compute it once.
  const float query_norm = metric == DistanceMetric::kCosine ? norm2_f32(query) : 0.0f;
  parallel_for_range(row_begin, row_end, score_grain(dim), [&](Index begin, Index end) {
    switch (metric) {
      case DistanceMetric::kInnerProduct:
        for (Index r = begin; r < end; ++r) {
          out[static_cast<std::size_t>(r - row_begin)] =
              dot_f32(query, row_at(r)) * scale;
        }
        break;
      case DistanceMetric::kCosine:
        for (Index r = begin; r < end; ++r) {
          const auto row = row_at(r);
          const float row_norm = norm2_f32(row);
          out[static_cast<std::size_t>(r - row_begin)] =
              query_norm == 0.0f || row_norm == 0.0f
                  ? 0.0f
                  : dot_f32(query, row) / (query_norm * row_norm) * scale;
        }
        break;
      case DistanceMetric::kL2:
        for (Index r = begin; r < end; ++r) {
          out[static_cast<std::size_t>(r - row_begin)] =
              -squared_l2_f32(query, row_at(r)) * scale;
        }
        break;
    }
  });
}

void batched_scores(const Matrix& rows, std::span<const float> query,
                    DistanceMetric metric, std::span<float> out, float scale) {
  batched_scores(rows, 0, rows.rows(), query, metric, out, scale);
}

void batched_dot_at(const Matrix& rows, std::span<const Index> positions,
                    std::span<const float> query, std::span<float> out, float scale) {
  expects(static_cast<Index>(query.size()) == rows.cols(),
          "batched_dot_at: query width mismatch");
  expects(out.size() == positions.size(), "batched_dot_at: output size mismatch");
  const Index n = static_cast<Index>(positions.size());
  for (const Index p : positions) {
    expects(p >= 0 && p < rows.rows(), "batched_dot_at: position out of range");
  }
  const Index dim = rows.cols();
  const float* base = rows.flat().data();
  parallel_for_range(0, n, score_grain(dim), [&](Index begin, Index end) {
    for (Index i = begin; i < end; ++i) {
      const std::span<const float> row(
          base + positions[static_cast<std::size_t>(i)] * dim,
          static_cast<std::size_t>(dim));
      out[static_cast<std::size_t>(i)] = dot_f32(query, row) * scale;
    }
  });
}

void batched_pair_scores(const Matrix& a, const Matrix& b,
                         std::span<const Index> pairs, DistanceMetric metric,
                         std::span<float> out) {
  expects(a.cols() == b.cols(), "batched_pair_scores: dim mismatch");
  expects(pairs.size() == static_cast<std::size_t>(a.rows()),
          "batched_pair_scores: one pair per row of a");
  expects(out.size() == pairs.size(), "batched_pair_scores: output size mismatch");
  for (const Index p : pairs) {
    expects(p >= 0 && p < b.rows(), "batched_pair_scores: pair index out of range");
  }
  parallel_for_range(0, a.rows(), score_grain(a.cols()), [&](Index begin, Index end) {
    for (Index i = begin; i < end; ++i) {
      const auto row_a = a.row(i);
      const auto row_b = b.row(pairs[static_cast<std::size_t>(i)]);
      float score = 0.0f;
      switch (metric) {
        case DistanceMetric::kInnerProduct:
          score = dot_f32(row_a, row_b);
          break;
        case DistanceMetric::kCosine: {
          const float na = norm2_f32(row_a);
          const float nb = norm2_f32(row_b);
          score = na == 0.0f || nb == 0.0f ? 0.0f : dot_f32(row_a, row_b) / (na * nb);
          break;
        }
        case DistanceMetric::kL2:
          score = -squared_l2_f32(row_a, row_b);
          break;
      }
      out[static_cast<std::size_t>(i)] = score;
    }
  });
}

std::vector<Index> batched_argmax(const Matrix& keys, const Matrix& centroids,
                                  DistanceMetric metric) {
  expects(keys.cols() == centroids.cols(), "batched_argmax: dim mismatch");
  expects(centroids.rows() > 0, "batched_argmax: need at least one centroid");
  const Index n = keys.rows();
  const Index c_count = centroids.rows();
  const Index dim = keys.cols();

  std::vector<float> mult;
  std::vector<float> bias;
  argmax_adjustments(centroids, metric, mult, bias);

  // GEMM-style tiling: the key chunk handed to each worker streams the
  // centroid block once per key; per-(key, centroid) reductions use the
  // fixed-lane dot_f32 walk, so a score is bit-identical however the keys
  // are chunked across workers.
  std::vector<Index> labels(static_cast<std::size_t>(n), 0);
  const float* centroid_base = centroids.flat().data();
  const Index grain = score_grain(c_count * dim);
  parallel_for_range(0, n, grain, [&](Index begin, Index end) {
    for (Index i = begin; i < end; ++i) {
      const auto key = keys.row(i);
      float best = -std::numeric_limits<float>::infinity();
      Index best_c = 0;
      for (Index c = 0; c < c_count; ++c) {
        const std::span<const float> cen(centroid_base + c * dim,
                                         static_cast<std::size_t>(dim));
        const float score = dot_f32(key, cen) * mult[static_cast<std::size_t>(c)] +
                            bias[static_cast<std::size_t>(c)];
        if (score > best) {
          best = score;
          best_c = c;
        }
      }
      labels[static_cast<std::size_t>(i)] = best_c;
    }
  });
  return labels;
}

void centroid_update(const Matrix& keys, std::span<const Index> labels,
                     const Matrix& previous, Index channel_partitions,
                     Matrix& centroids_out, std::vector<Index>& counts_out) {
  expects(static_cast<Index>(labels.size()) == keys.rows(),
          "centroid_update: labels size must match key rows");
  expects(channel_partitions > 0, "centroid_update: partitions must be positive");
  expects(previous.cols() == keys.cols(), "centroid_update: dim mismatch");
  const Index num_clusters = previous.rows();
  const Index dim = keys.cols();

  centroids_out = Matrix(num_clusters, dim);
  counts_out.assign(static_cast<std::size_t>(num_clusters), 0);

  for (const Index label : labels) {
    expects(label >= 0 && label < num_clusters, "centroid_update: label out of range");
    ++counts_out[static_cast<std::size_t>(label)];
  }

  // Mirrors the CUDA kernel's shape: the channel dimension is split into
  // `channel_partitions` chunks, and tokens are visited with a stride equal
  // to the number of concurrent "lanes" (one per chunk) so that adjacent
  // lanes touch distant (likely differently-labeled) tokens. One strided
  // walk accumulates every channel of the range it is given, so each
  // channel sums its tokens in the same order whatever the range split or
  // worker count, and the means are bit-identical. Every extra range costs
  // a full re-walk of the keys, so updates below the kernels' MAC grain run
  // as one serial walk over all channels, and larger ones split the
  // partitions into at most one contiguous range per worker.
  const Index chunk = (dim + channel_partitions - 1) / channel_partitions;
  const Index lanes = channel_partitions;
  const Index rows = keys.rows();
  const auto walk = [&](Index c_begin, Index c_end) {
    for (Index start = 0; start < lanes; ++start) {
      for (Index t = start; t < rows; t += lanes) {
        const auto key = keys.row(t);
        auto acc = centroids_out.row(labels[static_cast<std::size_t>(t)]);
        for (Index c = c_begin; c < c_end; ++c) {
          acc[static_cast<std::size_t>(c)] += key[static_cast<std::size_t>(c)];
        }
      }
    }
  };
  const Index workers = parallel_worker_count();
  const Index grain = std::max(score_grain(rows * chunk),
                               (channel_partitions + workers - 1) / workers);
  parallel_for_range(0, channel_partitions, grain, [&](Index part_begin,
                                                       Index part_end) {
    const Index c_begin = std::min(dim, part_begin * chunk);
    const Index c_end = std::min(dim, part_end * chunk);
    if (c_begin < c_end) {
      walk(c_begin, c_end);
    }
  });

  for (Index k = 0; k < num_clusters; ++k) {
    const Index n = counts_out[static_cast<std::size_t>(k)];
    auto row = centroids_out.row(k);
    if (n == 0) {
      copy_to(previous.row(k), row);
      continue;
    }
    const float inv = 1.0f / static_cast<float>(n);
    for (float& v : row) {
      v *= inv;
    }
  }
}

Index assignment_flops(Index num_keys, Index num_clusters, Index head_dim) noexcept {
  return num_keys * num_clusters * head_dim;
}

}  // namespace ckv
