#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>

#include "mathkit/gemm.hpp"
#include "mathkit/ldlt.hpp"
#include "mathkit/matrix.hpp"
#include "mathkit/qp.hpp"
#include "mathkit/rng.hpp"
#include "mathkit/stats.hpp"
#include "mathkit/table.hpp"

namespace icoil::math {
namespace {

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, InitializerListAndAccess) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  const Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  const Matrix d = Matrix::diagonal({2, 3});
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
}

TEST(MatrixTest, TransposeRoundTrip) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  const Matrix tt = t.transpose();
  EXPECT_DOUBLE_EQ(tt(1, 2), 6.0);
}

TEST(MatrixTest, MultiplyKnownProduct) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, ApplyMatchesMultiply) {
  const Matrix a{{1, 2, 0}, {0, -1, 3}};
  const std::vector<double> x{1, 2, 3};
  const auto y = a.apply(x);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(MatrixTest, ApplyTransposeMatchesTransposeApply) {
  const Matrix a{{1, 2, 0}, {0, -1, 3}};
  const std::vector<double> x{2, -1};
  const auto y1 = a.apply_transpose(x);
  const auto y2 = a.transpose().apply(x);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(MatrixTest, SetBlock) {
  Matrix m(4, 4);
  m.set_block(1, 1, Matrix{{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(m(2, 2), 4.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, VectorHelpers) {
  const std::vector<double> a{1, -2, 3}, b{2, 2, 2};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0);
  EXPECT_DOUBLE_EQ(norm_inf(a), 3.0);
  EXPECT_NEAR(norm2(b), std::sqrt(12.0), 1e-12);
  EXPECT_DOUBLE_EQ(add(a, b)[1], 0.0);
  EXPECT_DOUBLE_EQ(sub(a, b)[0], -1.0);
  EXPECT_DOUBLE_EQ(scale(a, -1.0)[2], -3.0);
}

// ------------------------------------------------------------------ LDLT

TEST(LdltTest, SolvesSpdSystem) {
  const Matrix m{{4, 1, 0}, {1, 3, -1}, {0, -1, 2}};
  const std::vector<double> b{1, 2, 3};
  const auto x = solve_spd(m, b);
  ASSERT_TRUE(x.has_value());
  const auto r = m.apply(*x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(r[i], b[i], 1e-9);
}

TEST(LdltTest, FailsOnSingular) {
  const Matrix m{{1, 1}, {1, 1}};
  EXPECT_FALSE(Ldlt::factorize(m).has_value());
}

TEST(LdltTest, FailsOnNonSquare) {
  const Matrix m(2, 3);
  EXPECT_FALSE(Ldlt::factorize(m).has_value());
}

TEST(LdltTest, HandlesIndefiniteQuasiDefinite) {
  // Symmetric quasi-definite (positive then negative block) still factors.
  const Matrix m{{2, 1}, {1, -3}};
  const auto f = Ldlt::factorize(m);
  ASSERT_TRUE(f.has_value());
  const std::vector<double> b{1, 1};
  const auto x = f->solve(b);
  const auto r = m.apply(x);
  EXPECT_NEAR(r[0], 1.0, 1e-9);
  EXPECT_NEAR(r[1], 1.0, 1e-9);
}

class LdltRandomSpd : public ::testing::TestWithParam<int> {};

TEST_P(LdltRandomSpd, ResidualSmall) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const std::size_t n = 3 + static_cast<std::size_t>(GetParam()) % 8;
  // A^T A + I is SPD.
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  Matrix m = a.transpose() * a;
  for (std::size_t i = 0; i < n; ++i) m(i, i) += 1.0;
  std::vector<double> b(n);
  for (double& v : b) v = rng.normal();
  const auto x = solve_spd(m, b);
  ASSERT_TRUE(x.has_value());
  const auto r = sub(m.apply(*x), b);
  EXPECT_LT(norm_inf(r), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, LdltRandomSpd, ::testing::Range(0, 20));

// ------------------------------------------------ dense reference oracle

// The textbook dense LDL^T and ADMM loops the sparse solver must reproduce
// bit for bit: same operation order, every zero term included.
std::optional<std::vector<double>> dense_ldlt_solve(const Matrix& m,
                                                    std::vector<double> x) {
  const std::size_t n = m.rows();
  Matrix l = Matrix::identity(n);
  std::vector<double> d(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double dj = m(j, j);
    for (std::size_t k = 0; k < j; ++k) dj -= l(j, k) * l(j, k) * d[k];
    if (std::abs(dj) < 1e-12) return std::nullopt;
    d[j] = dj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = m(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= l(i, k) * l(j, k) * d[k];
      l(i, j) = v / dj;
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < i; ++k) x[i] -= l(i, k) * x[k];
  for (std::size_t i = 0; i < n; ++i) x[i] /= d[i];
  for (std::size_t ii = n; ii-- > 0;)
    for (std::size_t k = ii + 1; k < n; ++k) x[ii] -= l(k, ii) * x[k];
  return x;
}

QpResult dense_reference_qp(const QpProblem& prob, const QpSettings& s) {
  const std::size_t n = prob.num_vars(), m = prob.num_constraints();
  const Matrix at = prob.a.transpose();
  double rho = s.rho;
  auto rho_row = [&](std::size_t i) {
    return prob.l[i] == prob.u[i] ? 1e3 * rho : rho;
  };
  Matrix k;
  auto build_kkt = [&] {
    k = prob.p;
    for (std::size_t i = 0; i < n; ++i) k(i, i) += s.sigma;
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
          if (prob.a(r, i) != 0.0 && prob.a(r, j) != 0.0)
            k(i, j) += rho_row(r) * prob.a(r, i) * prob.a(r, j);
  };
  QpResult res;
  build_kkt();
  res.factorizations = 1;
  std::vector<double> x(n, 0.0), y(m, 0.0), z = prob.a.apply(x);
  for (std::size_t i = 0; i < m; ++i) z[i] = std::clamp(z[i], prob.l[i], prob.u[i]);
  int iter = 1;
  for (; iter <= s.max_iterations; ++iter) {
    std::vector<double> rz_y(m), rhs(n);
    for (std::size_t i = 0; i < m; ++i) rz_y[i] = rho_row(i) * z[i] - y[i];
    const std::vector<double> azy = at.apply(rz_y);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = s.sigma * x[i] - prob.q[i] + azy[i];
    x = *dense_ldlt_solve(k, rhs);
    const std::vector<double> ax = prob.a.apply(x);
    for (std::size_t i = 0; i < m; ++i) {
      const double zt = s.alpha * ax[i] + (1.0 - s.alpha) * z[i];
      const double zn = std::clamp(zt + y[i] / rho_row(i), prob.l[i], prob.u[i]);
      y[i] += rho_row(i) * (zt - zn);
      z[i] = zn;
    }
    if (iter % s.check_interval != 0 && iter != s.max_iterations) continue;
    const double r_prim = norm_inf(sub(ax, z));
    const std::vector<double> px = prob.p.apply(x), aty = at.apply(y);
    std::vector<double> r_dual_vec(n);
    for (std::size_t i = 0; i < n; ++i) r_dual_vec[i] = px[i] + prob.q[i] + aty[i];
    const double r_dual = norm_inf(r_dual_vec);
    if (r_prim <= s.eps_abs + s.eps_rel * std::max(norm_inf(ax), norm_inf(z)) &&
        r_dual <= s.eps_abs + s.eps_rel * std::max({norm_inf(px), norm_inf(aty),
                                                    norm_inf(prob.q)})) {
      res.status = QpStatus::kSolved;
      break;
    }
    const double ratio = std::sqrt(r_prim / r_dual);
    if (r_dual > 0.0 && r_prim > 0.0 && (ratio > 5.0 || ratio < 0.2)) {
      rho = std::clamp(rho * ratio, 1e-6, 1e6);
      build_kkt();
      ++res.factorizations;
    }
  }
  if (res.status != QpStatus::kSolved) res.status = QpStatus::kMaxIterations;
  res.iterations = std::min(iter, s.max_iterations);
  res.objective = 0.5 * dot(x, prob.p.apply(x)) + dot(prob.q, x);
  res.x = x;
  res.y = y;
  return res;
}

// A random sparse QP shaped like the MPC's: a banded cost, rows of 1-4
// nonzeros, equality rows, one-sided rows and boxes.
QpProblem random_sparse_qp(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(12, 40));
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(8, 60));
  QpProblem p;
  p.p = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    p.p(i, i) = rng.uniform(0.1, 3.0);
    if (i > 0 && rng.bernoulli(0.4)) {
      const double c = rng.uniform(-0.3, 0.3);
      p.p(i, i - 1) = c;
      p.p(i - 1, i) = c;
    }
  }
  p.q.resize(n);
  for (double& v : p.q) v = rng.normal();
  p.a = Matrix(m, n);
  p.l.resize(m);
  p.u.resize(m);
  for (std::size_t r = 0; r < m; ++r) {
    const int nnz = rng.uniform_int(1, 4);
    for (int e = 0; e < nnz; ++e)
      p.a(r, static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1))) =
          rng.normal();
    const double b = rng.normal();
    switch (rng.uniform_int(0, 2)) {
      case 0: p.l[r] = p.u[r] = b; break;
      case 1: p.l[r] = b; p.u[r] = kQpInf; break;
      default: p.l[r] = b - 1.0; p.u[r] = b + 1.0; break;
    }
  }
  return p;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(LdltTest, MatchesDenseFactorizationBitwise) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed + 40);
    // Sparse, diagonally dominant SPD: a band plus scattered entries,
    // mirrored, so the factor fills in between.
    const std::size_t n = 10 + seed * 3;
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (i - j > 2 && !rng.bernoulli(0.1)) continue;
        const double v = rng.uniform(-1.0, 1.0);
        m(i, j) = v;
        m(j, i) = v;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < n; ++j) row += std::abs(m(i, j));
      m(i, i) = row + rng.uniform(0.01, 0.5);
    }
    std::vector<double> b(n);
    for (double& v : b) v = rng.normal();
    const auto want = dense_ldlt_solve(m, b);
    const auto got = solve_spd(m, b);
    ASSERT_TRUE(want.has_value() && got.has_value());
    EXPECT_TRUE(same_bits(*got, *want)) << "seed " << seed;
  }
}

TEST(LdltTest, StoresOnlyTheFill) {
  // Tridiagonal: no fill, one stored entry per subdiagonal element.
  const std::size_t n = 30;
  Matrix tri(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    tri(i, i) = 4.0;
    if (i > 0) tri(i, i - 1) = tri(i - 1, i) = -1.0;
  }
  const auto band = Ldlt::factorize(tri);
  ASSERT_TRUE(band.has_value());
  EXPECT_EQ(band->nonzeros(), n - 1);

  // An arrow pointing up-left (dense first row and column) fills the whole
  // lower triangle in the natural order.
  Matrix arrow = Matrix::identity(n) * 2.0 * static_cast<double>(n);
  for (std::size_t i = 1; i < n; ++i) arrow(i, 0) = arrow(0, i) = 1.0;
  const auto full = Ldlt::factorize(arrow);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->nonzeros(), n * (n - 1) / 2);
}

TEST(QpTest, MatchesDenseAdmmBitwise) {
  const QpSettings settings;
  int refactored = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const QpProblem p = random_sparse_qp(seed);
    const QpResult want = dense_reference_qp(p, settings);
    const QpResult got = QpSolver(settings).solve(p);
    EXPECT_EQ(got.status, want.status) << "seed " << seed;
    EXPECT_EQ(got.iterations, want.iterations) << "seed " << seed;
    EXPECT_EQ(got.factorizations, want.factorizations) << "seed " << seed;
    EXPECT_TRUE(same_bits(got.x, want.x)) << "seed " << seed;
    EXPECT_TRUE(same_bits(got.y, want.y)) << "seed " << seed;
    EXPECT_TRUE(same_bits({got.objective}, {want.objective})) << "seed " << seed;
    refactored += want.factorizations > 1 ? 1 : 0;
  }
  // The adaptive-rho refactor path is part of what must match.
  EXPECT_GT(refactored, 0);
}

// -------------------------------------------------------------------- QP

TEST(QpTest, UnconstrainedQuadratic) {
  // min 0.5 x^T I x - [1,2]^T x  ->  x = (1, 2)
  QpProblem p;
  p.p = Matrix::identity(2);
  p.q = {-1, -2};
  p.a = Matrix(0, 2);
  const QpResult r = QpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 2.0, 1e-3);
}

TEST(QpTest, BoxConstrainedProjectsOntoBounds) {
  // min (x-5)^2 s.t. x <= 1
  QpProblem p;
  p.p = Matrix{{2}};
  p.q = {-10};
  p.a = Matrix{{1}};
  p.l = {-kQpInf};
  p.u = {1.0};
  const QpResult r = QpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
}

TEST(QpTest, EqualityConstraint) {
  // min x^2 + y^2 s.t. x + y = 2 -> (1, 1)
  QpProblem p;
  p.p = Matrix::identity(2) * 2.0;
  p.q = {0, 0};
  p.a = Matrix{{1, 1}};
  p.l = {2.0};
  p.u = {2.0};
  const QpResult r = QpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(QpTest, ActiveInequalityMixesWithEquality) {
  // min (x-3)^2 + (y+1)^2  s.t. x + y = 1, y >= 0  ->  x = 1, y = 0.
  QpProblem p;
  p.p = Matrix::identity(2) * 2.0;
  p.q = {-6.0, 2.0};
  p.a = Matrix{{1, 1}, {0, 1}};
  p.l = {1.0, 0.0};
  p.u = {1.0, kQpInf};
  const QpResult r = QpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 1.0, 5e-3);
  EXPECT_NEAR(r.x[1], 0.0, 5e-3);
}

TEST(QpTest, WarmStartReducesIterations) {
  QpProblem p;
  p.p = Matrix::identity(4) * 2.0;
  p.q = {-1, -2, -3, -4};
  p.a = Matrix::identity(4);
  p.l = {0, 0, 0, 0};
  p.u = {1, 1, 1, 1};
  QpSolver solver;
  const QpResult cold = solver.solve(p);
  ASSERT_TRUE(cold.ok());
  const QpResult warm = solver.solve(p, &cold.x, &cold.y);
  ASSERT_TRUE(warm.ok());
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(QpTest, ReportsCapAndFactorizations) {
  QpProblem p;
  p.p = Matrix::identity(2) * 2.0;
  p.q = {-6.0, 2.0};
  p.a = Matrix{{1, 1}, {0, 1}};
  p.l = {1.0, 0.0};
  p.u = {1.0, kQpInf};
  const QpResult solved = QpSolver().solve(p);
  ASSERT_TRUE(solved.ok());
  EXPECT_GE(solved.factorizations, 1);

  // Two iterations cannot converge: the result is the capped iterate, and
  // with a fixed rho the KKT matrix is factored exactly once.
  const QpResult capped =
      QpSolver(QpSettings{.max_iterations = 2, .adaptive_rho = false}).solve(p);
  EXPECT_EQ(capped.status, QpStatus::kMaxIterations);
  EXPECT_EQ(capped.iterations, 2);
  EXPECT_EQ(capped.factorizations, 1);
  EXPECT_EQ(capped.x.size(), 2u);
}

TEST(QpTest, RejectsInvalidProblem) {
  QpProblem p;  // empty everything but mismatched bounds
  p.p = Matrix::identity(2);
  p.q = {0, 0};
  p.a = Matrix{{1, 0}};
  p.l = {1.0};
  p.u = {0.0};  // l > u
  const QpResult r = QpSolver().solve(p);
  EXPECT_EQ(r.status, QpStatus::kInvalidProblem);
}

TEST(QpTest, SolutionSatisfiesConstraints) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 6;
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal() * 0.3;
    QpProblem p;
    p.p = a.transpose() * a;
    for (std::size_t i = 0; i < n; ++i) p.p(i, i) += 1.0;
    p.q.assign(n, 0.0);
    for (double& v : p.q) v = rng.normal();
    p.a = Matrix::identity(n);
    p.l.assign(n, -1.0);
    p.u.assign(n, 1.0);
    const QpResult r = QpSolver().solve(p);
    ASSERT_TRUE(r.ok());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(r.x[i], -1.0 - 1e-3);
      EXPECT_LE(r.x[i], 1.0 + 1e-3);
    }
  }
}

TEST(QpTest, ObjectiveNotWorseThanFeasibleGuess) {
  // Compare solver objective against an arbitrary feasible point.
  QpProblem p;
  p.p = Matrix{{2, 0}, {0, 4}};
  p.q = {-2, -8};
  p.a = Matrix::identity(2);
  p.l = {0, 0};
  p.u = {10, 10};
  const QpResult r = QpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  const std::vector<double> guess{0.5, 0.5};
  const double guess_obj = 0.5 * dot(guess, p.p.apply(guess)) + dot(p.q, guess);
  EXPECT_LE(r.objective, guess_obj + 1e-6);
}

// ----------------------------------------------------------------- stats

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatsTest, MergeMatchesCombined) {
  RunningStats a, b, all;
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const double v = rng.normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatsTest, EmptyStatsAreZero) {
  const RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StatsTest, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(StatsTest, Mean) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

// ------------------------------------------------------------------- RNG

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, ForkDiverges) {
  Rng a(9);
  Rng b = a.fork();
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.uniform() != b.uniform();
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// ------------------------------------------------------------------ gemm

// The dispatched blocked kernel promises BIT-identical results to the
// reference triple loop (see gemm.hpp): exercise full tiles, ragged edges
// in both m and n, and the accumulate path, in both precisions, with exact
// equality.
template <typename T, typename GemmFn, typename NaiveFn>
void check_gemm_matches_naive(GemmFn gemm, NaiveFn naive) {
  Rng rng(2024);
  const std::size_t sizes[] = {1, 2, 5, 6, 7, 13, 16, 31, 37, 64, 70};
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t m = sizes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(std::size(sizes)) - 1))];
    const std::size_t n = sizes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(std::size(sizes)) - 1))];
    const std::size_t k = sizes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(std::size(sizes)) - 1))];
    const bool accumulate = trial % 2 == 1;

    std::vector<T> a(m * k), b(k * n);
    std::vector<T> c_blocked(m * n), c_naive(m * n);
    for (auto& v : a) v = static_cast<T>(rng.normal());
    for (auto& v : b) v = static_cast<T>(rng.normal());
    for (std::size_t i = 0; i < m * n; ++i)
      c_blocked[i] = c_naive[i] = static_cast<T>(rng.normal());

    gemm(m, n, k, a.data(), k, b.data(), n, c_blocked.data(), n, accumulate);
    naive(m, n, k, a.data(), k, b.data(), n, c_naive.data(), n, accumulate);

    for (std::size_t i = 0; i < m * n; ++i)
      ASSERT_EQ(c_blocked[i], c_naive[i])
          << "m=" << m << " n=" << n << " k=" << k
          << " accumulate=" << accumulate << " elem " << i;
  }
}

TEST(GemmTest, BlockedMatchesNaiveBitwiseF32) {
  check_gemm_matches_naive<float>(&gemm_f32, &gemm_naive_f32);
}

TEST(GemmTest, BlockedMatchesNaiveBitwiseF64) {
  check_gemm_matches_naive<double>(&gemm_f64, &gemm_naive_f64);
}

TEST(GemmTest, KernelNameIsKnown) {
  const std::string name = gemm_kernel_name();
  EXPECT_TRUE(name == "avx2" || name == "portable") << name;
}

TEST(MatrixTest, ElementwiseOpsMatchManualLoops) {
  Rng rng(9);
  Matrix a(5, 7), b(5, 7);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(i, j) = rng.normal();
      b(i, j) = rng.normal();
    }
  const Matrix sum = a + b;
  const Matrix diff = a - b;
  const Matrix scaled = a * 2.5;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(sum(i, j), a(i, j) + b(i, j));
      EXPECT_EQ(diff(i, j), a(i, j) - b(i, j));
      EXPECT_EQ(scaled(i, j), a(i, j) * 2.5);
    }
}

TEST(MatrixTest, MultiplyMatchesNaiveGemm) {
  Rng rng(17);
  Matrix a(11, 23), b(23, 6);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.normal();
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
  const Matrix c = a * b;
  std::vector<double> av(a.rows() * a.cols()), bv(b.rows() * b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) av[i * a.cols() + j] = a(i, j);
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) bv[i * b.cols() + j] = b(i, j);
  std::vector<double> cv(a.rows() * b.cols());
  gemm_naive_f64(a.rows(), b.cols(), a.cols(), av.data(), a.cols(), bv.data(),
                 b.cols(), cv.data(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      EXPECT_EQ(c(i, j), cv[i * b.cols() + j]) << i << "," << j;
}

// ----------------------------------------------------------------- table

TEST(TableTest, PrintAlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row_numeric("b", {2.5}, 1);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, CsvOutput) {
  TextTable t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

}  // namespace
}  // namespace icoil::math
