#include "mathkit/ldlt.hpp"

#include <cmath>

namespace icoil::math {

std::optional<Ldlt> Ldlt::factorize(const Matrix& m, double pivot_tol) {
  if (m.rows() != m.cols()) return std::nullopt;
  const std::size_t n = m.rows();
  Ldlt f;
  f.d_.assign(n, 0.0);
  f.col_start_.assign(n + 1, 0);

  // Right-looking, column by column, on a column-major copy of the lower
  // triangle: w[c * n + r] holds m(r, c) minus the terms of the columns
  // eliminated so far. Entry (r, c) takes l(r,k) l(c,k) d(k) for every
  // k < c in ascending order, as the dense loops do; the terms left out
  // have a zero factor.
  std::vector<double> w(n * n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = c; r < n; ++r) w[c * n + r] = m(r, c);
  for (std::size_t k = 0; k < n; ++k) {
    const double dk = w[k * n + k];
    if (std::abs(dk) < pivot_tol) return std::nullopt;
    f.d_[k] = dk;
    const std::size_t begin = f.col_row_.size();
    for (std::size_t r = k + 1; r < n; ++r) {
      if (w[k * n + r] == 0.0) continue;
      f.col_row_.push_back(r);
      f.col_val_.push_back(w[k * n + r] / dk);
    }
    const std::size_t end = f.col_row_.size();
    f.col_start_[k + 1] = end;
    for (std::size_t p = begin; p < end; ++p) {
      const std::size_t c = f.col_row_[p];
      const double lck = f.col_val_[p];
      for (std::size_t q = p; q < end; ++q)
        w[c * n + f.col_row_[q]] -= f.col_val_[q] * lck * dk;
    }
  }
  return f;
}

void Ldlt::solve_in_place(std::vector<double>& x) const {
  const std::size_t n = d_.size();
  // Forward L y = b as a column scatter: each x[i] still takes its terms in
  // ascending k, but consecutive updates hit different entries instead of
  // queueing on one running sum. Then D z = y.
  for (std::size_t k = 0; k < n; ++k) {
    const double xk = x[k];
    for (std::size_t q = col_start_[k]; q < col_start_[k + 1]; ++q)
      x[col_row_[q]] -= col_val_[q] * xk;
    x[k] = xk / d_[k];
  }
  // Backward: L^T x = z, each x[ii] gathered over column ii of L.
  for (std::size_t ii = n; ii-- > 0;)
    for (std::size_t q = col_start_[ii]; q < col_start_[ii + 1]; ++q)
      x[ii] -= col_val_[q] * x[col_row_[q]];
}

std::vector<double> Ldlt::solve(const std::vector<double>& b) const {
  std::vector<double> x = b;
  solve_in_place(x);
  return x;
}

std::optional<std::vector<double>> solve_spd(const Matrix& m,
                                             const std::vector<double>& b) {
  auto f = Ldlt::factorize(m);
  if (!f) return std::nullopt;
  return f->solve(b);
}

}  // namespace icoil::math
