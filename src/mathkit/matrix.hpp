#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace icoil::math {

/// Dense row-major matrix of doubles: the assembly format of the small
/// problems in this code base (tens to a few hundred rows). Solvers that
/// need the sparsity take it from here: QpSolver copies its matrices into
/// compressed rows and Ldlt stores only the fill of its factor.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from nested initializer lists: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  static Matrix diagonal(const std::vector<double>& d);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  Matrix transpose() const;
  Matrix operator+(const Matrix& o) const;
  Matrix operator-(const Matrix& o) const;
  Matrix operator*(const Matrix& o) const;
  Matrix operator*(double s) const;
  Matrix& operator+=(const Matrix& o);
  Matrix& operator*=(double s);

  /// y = M x
  std::vector<double> apply(const std::vector<double>& x) const;
  /// y = M^T x  (without forming the transpose)
  std::vector<double> apply_transpose(const std::vector<double>& x) const;

  /// Write `block` into this matrix with its top-left corner at (r, c).
  void set_block(std::size_t r, std::size_t c, const Matrix& block);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Vector helpers shared by the solvers.
double dot(const std::vector<double>& a, const std::vector<double>& b);
double norm_inf(const std::vector<double>& v);
double norm2(const std::vector<double>& v);
std::vector<double> add(const std::vector<double>& a, const std::vector<double>& b);
std::vector<double> sub(const std::vector<double>& a, const std::vector<double>& b);
std::vector<double> scale(const std::vector<double>& a, double s);

}  // namespace icoil::math
