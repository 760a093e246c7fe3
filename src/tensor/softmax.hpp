// Numerically stable softmax family plus the attention-output helper the
// PG19 harness and the tiny transformer attend through.
#pragma once

#include <span>
#include <vector>

#include "tensor/matrix.hpp"
#include "util/common.hpp"

namespace ckv {

/// In-place stable softmax; no-op on an empty span.
void softmax_in_place(std::span<float> x) noexcept;

/// Stable log-softmax copy.
std::vector<float> log_softmax(std::span<const float> x);

/// Shannon entropy (nats) of a probability vector.
double entropy(std::span<const float> probabilities);

/// out = sum_i softmax(scores)[i] * values.row(rows[i]). scores and rows
/// must have equal length; rows index into values. This is the
/// softmax(q K_S^T / sqrt(d)) V_S computation over a selected token subset.
void attention_output(std::span<const float> scores, std::span<const Index> rows,
                      const Matrix& values, std::span<float> out);

}  // namespace ckv
