#pragma once

#include <optional>
#include <vector>

#include "mathkit/matrix.hpp"

namespace icoil::math {

/// Quadratic program in OSQP standard form:
///   minimize   0.5 x^T P x + q^T x
///   subject to l <= A x <= u
/// P must be symmetric positive semidefinite. Equality constraints are
/// expressed with l == u; one-sided constraints with +/- kQpInf.
struct QpProblem {
  Matrix p;                ///< n x n cost Hessian
  std::vector<double> q;   ///< n cost gradient
  Matrix a;                ///< m x n constraint matrix
  std::vector<double> l;   ///< m lower bounds
  std::vector<double> u;   ///< m upper bounds

  std::size_t num_vars() const { return q.size(); }
  std::size_t num_constraints() const { return l.size(); }
  /// Basic shape/consistency validation.
  bool valid() const;
};

inline constexpr double kQpInf = 1e20;

struct QpSettings {
  int max_iterations = 4000;
  double rho = 0.1;          ///< ADMM penalty
  double sigma = 1e-6;       ///< proximal regularization
  double alpha = 1.6;        ///< over-relaxation
  double eps_abs = 1e-4;
  double eps_rel = 1e-4;
  int check_interval = 25;   ///< residual check cadence
  bool adaptive_rho = true;
};

/// kMaxIterations still carries the last iterate in `x`/`y`: callers that
/// accept it (the MPC does) should count it, not treat it as solved.
enum class QpStatus { kSolved, kMaxIterations, kSingularKkt, kInvalidProblem };

struct QpResult {
  QpStatus status = QpStatus::kInvalidProblem;
  std::vector<double> x;       ///< primal solution
  std::vector<double> y;       ///< dual solution (Lagrange multipliers)
  double objective = 0.0;
  int iterations = 0;
  int factorizations = 0;      ///< KKT factorizations (1 + rho refactors)
  double primal_residual = 0.0;
  double dual_residual = 0.0;

  bool ok() const { return status == QpStatus::kSolved; }
};

/// ADMM solver implementing the OSQP algorithm (Stellato et al., "OSQP: an
/// operator splitting solver for quadratic programs") on the sparsity of
/// the problem. P and A are copied into compressed rows once per solve, the
/// KKT matrix P + sigma I + A^T R A is built from the nonzero pairs of each
/// row of A, and Ldlt factors it keeping only its fill. Every sum runs in
/// the order of the dense loops with the zero terms left out, so results
/// are bit-identical to the dense algorithm. Sized for the few-hundred-
/// variable QPs of the parking MPC. Supports warm starting via `x0`/`y0`.
class QpSolver {
 public:
  explicit QpSolver(QpSettings settings = {}) : settings_(settings) {}

  QpResult solve(const QpProblem& problem,
                 const std::vector<double>* x0 = nullptr,
                 const std::vector<double>* y0 = nullptr) const;

  const QpSettings& settings() const { return settings_; }

 private:
  QpSettings settings_;
};

}  // namespace icoil::math
