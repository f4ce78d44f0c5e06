#pragma once

#include <optional>
#include <vector>

#include "mathkit/matrix.hpp"

namespace icoil::math {

/// LDL^T factorization of a symmetric quasi-definite matrix.
/// Used as the linear-system kernel of the ADMM QP solver, where the KKT
/// matrix (P + sigma*I + rho*A^T A) is symmetric positive definite.
///
/// Only the lower triangle of the input is read. L keeps the natural
/// variable order and stores only its nonzeros, by columns, and the
/// elimination and both triangular solves visit only those. Every sum runs
/// over the same ascending indices as the dense textbook loops, with the
/// terms that are exactly zero left out, so the factors and solutions are
/// bit-identical to the dense algorithm.
class Ldlt {
 public:
  /// Factorize `m` (must be square, symmetric). Returns std::nullopt when a
  /// pivot collapses below `pivot_tol` (matrix numerically singular).
  static std::optional<Ldlt> factorize(const Matrix& m, double pivot_tol = 1e-12);

  /// Solve M x = b for x.
  std::vector<double> solve(const std::vector<double>& b) const;
  /// Solve M x = b, overwriting `b` (size dim()) with x.
  void solve_in_place(std::vector<double>& b) const;

  std::size_t dim() const { return d_.size(); }
  /// Stored entries of the strictly lower triangle of L.
  std::size_t nonzeros() const { return col_row_.size(); }

 private:
  Ldlt() = default;
  // Strictly lower L by columns, rows ascending within each column.
  std::vector<std::size_t> col_start_, col_row_;
  std::vector<double> col_val_;
  std::vector<double> d_;  // diagonal
};

/// One-shot positive-definite solve; returns nullopt on singular systems.
std::optional<std::vector<double>> solve_spd(const Matrix& m,
                                             const std::vector<double>& b);

}  // namespace icoil::math
