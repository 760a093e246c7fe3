#include "tensor/softmax.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/vec_ops.hpp"

namespace ckv {

void softmax_in_place(std::span<float> x) noexcept {
  if (x.empty()) {
    return;
  }
  const float max_v = *std::max_element(x.begin(), x.end());
  double sum = 0.0;
  for (float& v : x) {
    v = std::exp(v - max_v);
    sum += static_cast<double>(v);
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (float& v : x) {
    v *= inv;
  }
}

std::vector<float> log_softmax(std::span<const float> x) {
  expects(!x.empty(), "log_softmax: input must not be empty");
  const float max_v = *std::max_element(x.begin(), x.end());
  double sum = 0.0;
  for (const float v : x) {
    sum += std::exp(static_cast<double>(v) - static_cast<double>(max_v));
  }
  const double log_z = static_cast<double>(max_v) + std::log(sum);
  std::vector<float> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = static_cast<float>(static_cast<double>(x[i]) - log_z);
  }
  return out;
}

double entropy(std::span<const float> probabilities) {
  double h = 0.0;
  for (const float p : probabilities) {
    if (p > 0.0f) {
      h -= static_cast<double>(p) * std::log(static_cast<double>(p));
    }
  }
  return h;
}

void attention_output(std::span<const float> scores, std::span<const Index> rows,
                      const Matrix& values, std::span<float> out) {
  expects(scores.size() == rows.size(), "attention_output: scores/rows mismatch");
  expects(static_cast<Index>(out.size()) == values.cols(),
          "attention_output: output width mismatch");
  fill(out, 0.0f);
  std::vector<float> probs(scores.begin(), scores.end());
  softmax_in_place(probs);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    axpy(probs[i], values.row(rows[i]), out);
  }
}

}  // namespace ckv
