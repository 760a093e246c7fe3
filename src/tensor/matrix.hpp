// Dense row-major float matrix. The only tensor rank the reproduction
// needs is 2 (per-head key/value blocks, weight matrices); higher-rank
// structure is expressed as containers of Matrix.
#pragma once

#include <span>
#include <vector>

#include "util/common.hpp"

namespace ckv {

/// Row-major dense matrix of float. Rows are the unit of access everywhere
/// (a row is one token's key/value vector or one centroid), exposed as
/// std::span so callers never touch raw pointers.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix initialized to zero.
  Matrix(Index rows, Index cols);

  /// Creates a matrix from preexisting row-major data (size must match).
  Matrix(Index rows, Index cols, std::vector<float> data);

  [[nodiscard]] Index rows() const noexcept { return rows_; }
  [[nodiscard]] Index cols() const noexcept { return cols_; }
  [[nodiscard]] Index size() const noexcept { return rows_ * cols_; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  [[nodiscard]] std::span<float> row(Index r);
  [[nodiscard]] std::span<const float> row(Index r) const;

  [[nodiscard]] float& at(Index r, Index c);
  [[nodiscard]] float at(Index r, Index c) const;

  [[nodiscard]] std::span<float> flat() noexcept { return data_; }
  [[nodiscard]] std::span<const float> flat() const noexcept { return data_; }

  /// Appends one row (vector length must equal cols; empty matrix adopts
  /// the incoming width). Used by growable per-head key stores.
  void append_row(std::span<const float> values);

  /// Reserves storage for `rows` rows at the current width (which must be
  /// known: cols > 0), so appending up to that many rows never reallocates.
  /// Growable stores whose final length is known size themselves once.
  void reserve_rows(Index rows);

  /// Sets every element to the given value.
  void fill(float value) noexcept;

  /// Returns the transposed copy.
  [[nodiscard]] Matrix transposed() const;

  /// Returns a copy of the row range [begin, end).
  [[nodiscard]] Matrix row_slice(Index begin, Index end) const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<float> data_;
};

/// out = a * b  (a: m x k, b: k x n, out: m x n).
Matrix matmul(const Matrix& a, const Matrix& b);

/// out[i] = dot(m.row(i), v). v.size() must equal m.cols().
std::vector<float> matvec(const Matrix& m, std::span<const float> v);

/// out[j] = dot(m.col(j), v) = (v^T m). v.size() must equal m.rows().
std::vector<float> vecmat(std::span<const float> v, const Matrix& m);

/// Frobenius norm of the difference (for test tolerances).
double frobenius_distance(const Matrix& a, const Matrix& b);

}  // namespace ckv
