#include "tensor/matrix.hpp"

#include <cmath>

namespace ckv {

Matrix::Matrix(Index rows, Index cols)
    : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows * cols), 0.0f) {
  expects(rows >= 0 && cols >= 0, "Matrix: dimensions must be non-negative");
}

Matrix::Matrix(Index rows, Index cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  expects(rows >= 0 && cols >= 0, "Matrix: dimensions must be non-negative");
  expects(static_cast<Index>(data_.size()) == rows * cols,
          "Matrix: data size must equal rows * cols");
}

std::span<float> Matrix::row(Index r) {
  expects(r >= 0 && r < rows_, "Matrix::row: index out of range");
  return std::span<float>(data_).subspan(static_cast<std::size_t>(r * cols_),
                                         static_cast<std::size_t>(cols_));
}

std::span<const float> Matrix::row(Index r) const {
  expects(r >= 0 && r < rows_, "Matrix::row: index out of range");
  return std::span<const float>(data_).subspan(static_cast<std::size_t>(r * cols_),
                                               static_cast<std::size_t>(cols_));
}

float& Matrix::at(Index r, Index c) {
  expects(r >= 0 && r < rows_ && c >= 0 && c < cols_, "Matrix::at: index out of range");
  return data_[static_cast<std::size_t>(r * cols_ + c)];
}

float Matrix::at(Index r, Index c) const {
  expects(r >= 0 && r < rows_ && c >= 0 && c < cols_, "Matrix::at: index out of range");
  return data_[static_cast<std::size_t>(r * cols_ + c)];
}

void Matrix::append_row(std::span<const float> values) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = static_cast<Index>(values.size());
  }
  expects(static_cast<Index>(values.size()) == cols_,
          "Matrix::append_row: width mismatch");
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

void Matrix::reserve_rows(Index rows) {
  expects(rows >= 0, "Matrix::reserve_rows: rows must be non-negative");
  expects(cols_ > 0, "Matrix::reserve_rows: width unknown (cols == 0)");
  data_.reserve(static_cast<std::size_t>(rows * cols_));
}

void Matrix::fill(float value) noexcept {
  for (float& x : data_) {
    x = value;
  }
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (Index r = 0; r < rows_; ++r) {
    for (Index c = 0; c < cols_; ++c) {
      out.at(c, r) = at(r, c);
    }
  }
  return out;
}

Matrix Matrix::row_slice(Index begin, Index end) const {
  expects(begin >= 0 && begin <= end && end <= rows_, "Matrix::row_slice: bad range");
  Matrix out(end - begin, cols_);
  for (Index r = begin; r < end; ++r) {
    auto src = row(r);
    auto dst = out.row(r - begin);
    for (Index c = 0; c < cols_; ++c) {
      dst[static_cast<std::size_t>(c)] = src[static_cast<std::size_t>(c)];
    }
  }
  return out;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  expects(a.cols() == b.rows(), "matmul: inner dimensions must match");
  Matrix out(a.rows(), b.cols());
  const Index m = a.rows();
  const Index k = a.cols();
  const Index n = b.cols();
  for (Index i = 0; i < m; ++i) {
    auto arow = a.row(i);
    auto orow = out.row(i);
    for (Index p = 0; p < k; ++p) {
      const float av = arow[static_cast<std::size_t>(p)];
      if (av == 0.0f) {
        continue;
      }
      auto brow = b.row(p);
      for (Index j = 0; j < n; ++j) {
        orow[static_cast<std::size_t>(j)] += av * brow[static_cast<std::size_t>(j)];
      }
    }
  }
  return out;
}

std::vector<float> matvec(const Matrix& m, std::span<const float> v) {
  expects(static_cast<Index>(v.size()) == m.cols(), "matvec: width mismatch");
  std::vector<float> out(static_cast<std::size_t>(m.rows()), 0.0f);
  for (Index r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < v.size(); ++c) {
      acc += static_cast<double>(row[c]) * static_cast<double>(v[c]);
    }
    out[static_cast<std::size_t>(r)] = static_cast<float>(acc);
  }
  return out;
}

std::vector<float> vecmat(std::span<const float> v, const Matrix& m) {
  expects(static_cast<Index>(v.size()) == m.rows(), "vecmat: height mismatch");
  std::vector<float> out(static_cast<std::size_t>(m.cols()), 0.0f);
  for (Index r = 0; r < m.rows(); ++r) {
    const float scale = v[static_cast<std::size_t>(r)];
    if (scale == 0.0f) {
      continue;
    }
    auto row = m.row(r);
    for (Index c = 0; c < m.cols(); ++c) {
      out[static_cast<std::size_t>(c)] += scale * row[static_cast<std::size_t>(c)];
    }
  }
  return out;
}

double frobenius_distance(const Matrix& a, const Matrix& b) {
  expects(a.rows() == b.rows() && a.cols() == b.cols(),
          "frobenius_distance: shape mismatch");
  double acc = 0.0;
  auto fa = a.flat();
  auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    const double d = static_cast<double>(fa[i]) - static_cast<double>(fb[i]);
    acc += d * d;
  }
  return std::sqrt(acc);
}

}  // namespace ckv
