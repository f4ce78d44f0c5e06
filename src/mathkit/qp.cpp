#include "mathkit/qp.hpp"

#include <algorithm>
#include <cmath>

#include "mathkit/ldlt.hpp"

namespace icoil::math {

bool QpProblem::valid() const {
  const std::size_t n = q.size();
  const std::size_t m = l.size();
  if (p.rows() != n || p.cols() != n) return false;
  if (m > 0 && (a.rows() != m || a.cols() != n)) return false;
  if (u.size() != m) return false;
  for (std::size_t i = 0; i < m; ++i)
    if (l[i] > u[i]) return false;
  return true;
}

namespace {

/// Compressed sparse rows of a dense matrix, zeros dropped, columns
/// ascending within each row. Walking a row in order visits the nonzeros in
/// the order the dense loops do, and every sum starts at +0.0 as theirs do,
/// so the products are bit-identical to the dense ones.
struct Csr {
  std::vector<std::size_t> start;  ///< rows + 1 offsets into col/val
  std::vector<std::size_t> col;
  std::vector<double> val;

  explicit Csr(const Matrix& m) : start(m.rows() + 1, 0) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        if (m(r, c) == 0.0) continue;
        col.push_back(c);
        val.push_back(m(r, c));
      }
      start[r + 1] = col.size();
    }
  }

  std::size_t rows() const { return start.size() - 1; }

  /// y = M x, one row at a time.
  void apply(const std::vector<double>& x, std::vector<double>& y) const {
    for (std::size_t r = 0; r < rows(); ++r) {
      double acc = 0.0;
      for (std::size_t p = start[r]; p < start[r + 1]; ++p) acc += val[p] * x[col[p]];
      y[r] = acc;
    }
  }

  /// y = M^T v as a scatter in row order: each y[c] sums its terms over
  /// ascending r, the order of M.transpose().apply(v).
  void apply_transpose(const std::vector<double>& v, std::vector<double>& y) const {
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t r = 0; r < rows(); ++r)
      for (std::size_t p = start[r]; p < start[r + 1]; ++p) y[col[p]] += val[p] * v[r];
  }
};

}  // namespace

QpResult QpSolver::solve(const QpProblem& prob, const std::vector<double>* x0,
                         const std::vector<double>* y0) const {
  QpResult res;
  if (!prob.valid()) {
    res.status = QpStatus::kInvalidProblem;
    return res;
  }
  const std::size_t n = prob.num_vars();
  const std::size_t m = prob.num_constraints();

  double rho = settings_.rho;
  const double sigma = settings_.sigma;
  const double alpha = settings_.alpha;

  const Csr p(prob.p);
  std::vector<double> px(n);
  auto objective = [&](const std::vector<double>& x) {
    p.apply(x, px);
    return 0.5 * dot(x, px) + dot(prob.q, x);
  };

  // Unconstrained problem: a single regularized solve suffices.
  if (m == 0) {
    Matrix k = prob.p;
    for (std::size_t i = 0; i < n; ++i) k(i, i) += sigma;
    res.factorizations = 1;
    auto sol = solve_spd(k, scale(prob.q, -1.0));
    if (!sol) {
      res.status = QpStatus::kSingularKkt;
      return res;
    }
    res.x = std::move(*sol);
    res.y = {};
    res.status = QpStatus::kSolved;
    res.objective = objective(res.x);
    return res;
  }

  const Csr a(prob.a);

  // Per-row penalty: equality rows (l == u) converge far faster with a
  // much stiffer rho (the OSQP rule: rho_eq = 1e3 * rho).
  std::vector<double> rho_vec(m);
  Matrix k;
  auto build_kkt = [&](double rho_val) {
    for (std::size_t r = 0; r < m; ++r)
      rho_vec[r] = prob.l[r] == prob.u[r] ? 1e3 * rho_val : rho_val;
    // K = P + sigma I + A^T diag(rho_vec) A, from the sparse rows of A.
    k = prob.p;
    for (std::size_t i = 0; i < n; ++i) k(i, i) += sigma;
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t pi = a.start[r]; pi < a.start[r + 1]; ++pi) {
        const double w = rho_vec[r] * a.val[pi];
        for (std::size_t pj = a.start[r]; pj < a.start[r + 1]; ++pj)
          k(a.col[pi], a.col[pj]) += w * a.val[pj];
      }
    }
    ++res.factorizations;
    return Ldlt::factorize(k);
  };

  auto kkt = build_kkt(rho);
  if (!kkt) {
    res.status = QpStatus::kSingularKkt;
    return res;
  }

  // The iteration's workspace, allocated once per solve.
  std::vector<double> x = x0 && x0->size() == n ? *x0 : std::vector<double>(n, 0.0);
  std::vector<double> y = y0 && y0->size() == m ? *y0 : std::vector<double>(m, 0.0);
  std::vector<double> z(m), ax(m), rz_y(m), rhs(n), aty(n), r_dual_vec(n);
  a.apply(x, ax);
  for (std::size_t i = 0; i < m; ++i) z[i] = std::clamp(ax[i], prob.l[i], prob.u[i]);

  int iter = 0;
  for (iter = 1; iter <= settings_.max_iterations; ++iter) {
    // x-update:
    //   (P + sigma I + A^T R A) x+ = sigma x - q + A^T (R z - y)
    for (std::size_t i = 0; i < m; ++i) rz_y[i] = rho_vec[i] * z[i] - y[i];
    a.apply_transpose(rz_y, aty);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = sigma * x[i] - prob.q[i] + aty[i];
    kkt->solve_in_place(rhs);
    std::swap(x, rhs);

    // z-update with over-relaxation, then the y-update.
    a.apply(x, ax);
    for (std::size_t i = 0; i < m; ++i) {
      const double z_tilde = alpha * ax[i] + (1.0 - alpha) * z[i];
      const double z_next =
          std::clamp(z_tilde + y[i] / rho_vec[i], prob.l[i], prob.u[i]);
      y[i] += rho_vec[i] * (z_tilde - z_next);
      z[i] = z_next;
    }

    if (iter % settings_.check_interval != 0 && iter != settings_.max_iterations)
      continue;

    // Residuals (OSQP section 3.4); `ax` already holds A x.
    double r_prim = 0.0;
    for (std::size_t i = 0; i < m; ++i) r_prim = std::max(r_prim, std::abs(ax[i] - z[i]));
    p.apply(x, px);
    a.apply_transpose(y, aty);
    for (std::size_t i = 0; i < n; ++i)
      r_dual_vec[i] = px[i] + prob.q[i] + aty[i];
    const double r_dual = norm_inf(r_dual_vec);

    const double eps_prim =
        settings_.eps_abs +
        settings_.eps_rel * std::max(norm_inf(ax), norm_inf(z));
    const double eps_dual =
        settings_.eps_abs +
        settings_.eps_rel *
            std::max({norm_inf(px), norm_inf(aty), norm_inf(prob.q)});

    res.primal_residual = r_prim;
    res.dual_residual = r_dual;
    if (r_prim <= eps_prim && r_dual <= eps_dual) {
      res.status = QpStatus::kSolved;
      break;
    }

    // Adaptive rho (geometric update toward residual balance).
    if (settings_.adaptive_rho && r_dual > 0.0 && r_prim > 0.0) {
      const double ratio = std::sqrt(r_prim / r_dual);
      if (ratio > 5.0 || ratio < 0.2) {
        rho = std::clamp(rho * ratio, 1e-6, 1e6);
        kkt = build_kkt(rho);
        if (!kkt) {
          res.status = QpStatus::kSingularKkt;
          return res;
        }
      }
    }
  }

  if (res.status != QpStatus::kSolved) res.status = QpStatus::kMaxIterations;
  res.iterations = std::min(iter, settings_.max_iterations);
  res.objective = objective(x);
  res.x = std::move(x);
  res.y = std::move(y);
  return res;
}

}  // namespace icoil::math
