// CPU re-implementations of the paper's CUDA kernels (§IV-B, Fig. 7),
// preserving their structure so the kernel-level design points remain
// benchmarkable: per-head parallel blocks, strided traversal of the token
// sequence (distant tokens land in different clusters, reducing conflicts
// on the accumulation slots), and channel-dimension partitioning P.
//
// The batched_scores / batched_argmax family below is the fused, SIMD
// form of every scoring loop in the codebase (clustering assignment,
// cluster selection, repair pair scoring, attention scores). All three
// distance metrics reduce to a dot product plus a per-row adjustment:
//   cosine: dot * (1 / (|q| |c|))
//   L2:     -|q - c|^2            (argmax form: dot - |c|^2 / 2)
//   IP:     dot
// Reductions use the fixed-lane accumulation of tensor/vec_ops (dot_f32),
// so a given (query, row) score is bit-identical regardless of batching,
// blocking, or thread count; large batches are chunked across the
// persistent worker pool (util/parallel). See docs/PERFORMANCE.md.
#pragma once

#include <span>
#include <vector>

#include "core/distance.hpp"
#include "tensor/matrix.hpp"
#include "util/common.hpp"

namespace ckv {

/// Scores one query against the row block [row_begin, row_end) of `rows`:
/// out[i] = similarity(metric, query, rows.row(row_begin + i)) * scale.
/// out.size() must equal row_end - row_begin. Matches the scalar
/// similarity() reference within float accumulation error (~1e-6 relative
/// for unit-scale vectors).
void batched_scores(const Matrix& rows, Index row_begin, Index row_end,
                    std::span<const float> query, DistanceMetric metric,
                    std::span<float> out, float scale = 1.0f);

/// Convenience overload over every row of `rows`.
void batched_scores(const Matrix& rows, std::span<const float> query,
                    DistanceMetric metric, std::span<float> out, float scale = 1.0f);

/// Gathered dot scores: out[i] = dot(query, rows.row(positions[i])) * scale.
/// The attention-score kernel over a selected token subset.
void batched_dot_at(const Matrix& rows, std::span<const Index> positions,
                    std::span<const float> query, std::span<float> out,
                    float scale = 1.0f);

/// One-to-one scores: out[i] = similarity(metric, a.row(i), b.row(pairs[i])).
/// The k-means fit kernel (each key against its assigned centroid).
void batched_pair_scores(const Matrix& a, const Matrix& b,
                         std::span<const Index> pairs, DistanceMetric metric,
                         std::span<float> out);

/// Assignment kernel: labels[i] = argmax_c similarity(metric, keys.row(i),
/// centroids.row(c)), ties broken toward the lower cluster id. GEMM-style:
/// key blocks stream the centroid matrix once per block, with the
/// per-centroid metric adjustment precomputed. Per-key results are
/// independent of blocking and thread count.
std::vector<Index> batched_argmax(const Matrix& keys, const Matrix& centroids,
                                  DistanceMetric metric);

/// Centroid update step mirroring Fig. 7: accumulates keys per cluster
/// into (centroids_out, counts_out) walking the sequence with the given
/// stride pattern and splitting channels into `channel_partitions` chunks.
/// centroids_out rows are the *means* of assigned keys on return; clusters
/// with no members keep their previous row (copied from `previous`).
/// P fixes the stride of the token walk (and so each channel's summation
/// order), not the number of walks: one walk covers all channels below the
/// 64Ki-MAC grain, and above it at most one contiguous channel range per
/// worker is walked on the pool. Means are bit-identical for every worker
/// count.
void centroid_update(const Matrix& keys, std::span<const Index> labels,
                     const Matrix& previous, Index channel_partitions,
                     Matrix& centroids_out, std::vector<Index>& counts_out);

/// Work estimate of one assignment step in multiply-accumulate operations
/// (the O(n_i * C * L * d) of §III-D Concern 1, per iteration).
Index assignment_flops(Index num_keys, Index num_clusters, Index head_dim) noexcept;

}  // namespace ckv
