// Micro-benchmarks of the substrates: the ADMM QP solver, LDLT, Reeds-Shepp
// word search, hybrid A*, the BEV rasterizer and the conv forward pass.
// These quantify where a CO frame's milliseconds go.

#include <benchmark/benchmark.h>

#include "co/heuristic.hpp"
#include "co/hybrid_astar.hpp"
#include "co/reeds_shepp.hpp"
#include "co/trajopt.hpp"
#include "sim/suite.hpp"
#include "il/batch_inferencer.hpp"
#include "il/observation.hpp"
#include "il/policy.hpp"
#include "mathkit/gemm.hpp"
#include "mathkit/ldlt.hpp"
#include "mathkit/qp.hpp"
#include "mathkit/rng.hpp"
#include "nn/layers.hpp"
#include "sensing/bev.hpp"
#include "world/scenario.hpp"
#include "world/world.hpp"

namespace {

using namespace icoil;

math::Matrix random_spd(std::size_t n, std::uint64_t seed) {
  math::Rng rng(seed);
  math::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal() * 0.3;
  math::Matrix m = a.transpose() * a;
  for (std::size_t i = 0; i < n; ++i) m(i, i) += 1.0;
  return m;
}

void BM_LdltFactorSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const math::Matrix m = random_spd(n, 3);
  std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::solve_spd(m, b));
  }
}
BENCHMARK(BM_LdltFactorSolve)->Arg(30)->Arg(90)->Arg(180)->Unit(benchmark::kMicrosecond);

void BM_QpBoxConstrained(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  math::QpProblem p;
  p.p = random_spd(n, 5);
  p.q.assign(n, -1.0);
  p.a = math::Matrix::identity(n);
  p.l.assign(n, -1.0);
  p.u.assign(n, 1.0);
  const math::QpSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
}
BENCHMARK(BM_QpBoxConstrained)->Arg(30)->Arg(90)->Unit(benchmark::kMicrosecond);

// One MPC solve (3 SQP rounds) among N moving agents scattered around the
// reference line: each agent near the horizon adds obstacle rows and slack
// columns to every round's QP, the traffic-sized problems of a mission.
void BM_TrajOptSolve(benchmark::State& state) {
  const co::TrajOptConfig config;
  const co::TrajOpt opt(config, vehicle::VehicleParams{});
  vehicle::State start;
  start.speed = 1.5;
  std::vector<co::TargetPoint> targets;
  for (int i = 1; i <= config.horizon; ++i) targets.push_back({{i * 0.25, 0.0, 0.0}, 1.5});
  math::Rng rng(11);
  std::vector<co::PredictedObstacle> agents;
  for (int i = 0; i < state.range(0); ++i)
    agents.push_back({geom::Obb{{rng.uniform(2.0, 10.0), rng.uniform(-3.5, 3.5)},
                                rng.uniform(-3.0, 3.0), 2.2, 0.9},
                      {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)}});
  co::TrajOptResult res;
  for (auto _ : state) {
    res = opt.solve(start, targets, agents);
    benchmark::DoNotOptimize(res);
  }
  state.counters["obstacle_rows"] = res.active_obstacle_constraints;
  state.counters["qp_iterations"] = res.qp_iterations;
  state.counters["qp_capped"] = res.qp_capped;
}
BENCHMARK(BM_TrajOptSolve)->Arg(0)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_ReedsSheppShortest(benchmark::State& state) {
  const co::ReedsShepp rs(3.5);
  math::Rng rng(7);
  for (auto _ : state) {
    const geom::Pose2 to{rng.uniform(-10, 10), rng.uniform(-10, 10),
                         rng.uniform(-3, 3)};
    benchmark::DoNotOptimize(rs.shortest_path({0, 0, 0}, to));
  }
}
BENCHMARK(BM_ReedsSheppShortest)->Unit(benchmark::kMicrosecond);

// The full search on two fixed problems: 0 = the canonical easy lot,
// 1 = the dense (4x clutter) crowded_lot cell bench_planner also sweeps.
void BM_HybridAStarPlan(benchmark::State& state) {
  world::ScenarioOptions options;
  std::uint64_t seed = 500;
  options.difficulty = world::Difficulty::kEasy;
  if (state.range(0) == 1) {
    options.generator = "crowded_lot";
    options.difficulty = world::Difficulty::kNormal;
    options.params.set("density", 4.0);
    seed = 300;
  }
  const world::Scenario sc = world::make_scenario(options, seed);
  std::vector<geom::Obb> obstacles;
  for (const auto& o : sc.obstacles)
    if (!o.dynamic()) obstacles.push_back(o.shape);
  const co::HybridAStar astar(co::HybridAStarConfig{}, vehicle::VehicleParams{});
  // One untimed plan first: it pays the process-wide cold build of the
  // Reeds-Shepp heuristic table, which would otherwise land in the first
  // timed iteration.
  benchmark::DoNotOptimize(
      astar.plan(sc.start_pose, sc.map.goal_pose, obstacles, sc.map.bounds));
  for (auto _ : state) {
    benchmark::DoNotOptimize(astar.plan(sc.start_pose, sc.map.goal_pose,
                                        obstacles, sc.map.bounds));
  }
}
BENCHMARK(BM_HybridAStarPlan)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- Planner heuristic substrates ---------------------------------------
// BM_RsLutValue vs BM_ReedsSheppShortest is the core trade of the cached
// heuristic: a table read (tens of ns) replacing a full RS word search
// (µs) per evaluation. BM_DijkstraCostMapBuild is the per-plan cost the
// obstacle-aware term adds before the first expansion.

void BM_RsLutValue(benchmark::State& state) {
  const auto lut = co::RsHeuristicLut::shared({});  // one-time build, cached
  math::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut->value_rel(
        rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-3.1, 3.1)));
  }
}
BENCHMARK(BM_RsLutValue)->Unit(benchmark::kNanosecond);

void BM_DijkstraCostMapBuild(benchmark::State& state) {
  sim::SuiteCell cell;
  cell.generator = "crowded_lot";
  cell.difficulty = world::Difficulty::kNormal;
  cell.params.set("density", static_cast<double>(state.range(0)));
  const world::Scenario sc = world::make_scenario(cell.options(), 300);
  std::vector<geom::Obb> obstacles;
  for (const auto& o : sc.obstacles)
    if (!o.dynamic()) obstacles.push_back(o.shape);
  const co::HybridAStarConfig config;
  const world::DistanceField field(sc.map.bounds, obstacles,
                                   config.costmap_resolution);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        co::DijkstraCostMap(field, sc.map.goal_pose.position, 1.0));
  }
}
BENCHMARK(BM_DijkstraCostMapBuild)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);

// Static clearance through both collision backends at growing obstacle
// count: the analytic OBB narrow phase scans every box, the grid backend
// answers from the distance field in O(1) outside its conservative band.
void BM_Clearance(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0));
  const bool use_grid = state.range(1) != 0;
  world::ScenarioOptions options;
  options.generator = "crowded_lot";
  options.difficulty = world::Difficulty::kNormal;
  options.params.set("density", density);
  const world::Scenario sc = world::make_scenario(options, 7);
  const world::World world{
      sc, {use_grid ? world::CollisionBackend::kGrid
                    : world::CollisionBackend::kAnalytic,
           world::DistanceField::kDefaultResolution}};
  const vehicle::BicycleModel model{vehicle::VehicleParams{}};
  math::Rng rng(99);
  std::vector<geom::Obb> fps;
  for (int i = 0; i < 512; ++i) {
    const geom::Aabb& b = sc.map.bounds;
    fps.push_back(model.footprint(geom::Pose2{
        rng.uniform(b.min.x, b.max.x), rng.uniform(b.min.y, b.max.y),
        rng.uniform(0.0, geom::kTwoPi)}));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.static_clearance(fps[i]));
    i = (i + 1) % fps.size();
  }
}
BENCHMARK(BM_Clearance)
    ->ArgsProduct({{1, 4, 10}, {0, 1}})  // {density, grid?}
    ->Unit(benchmark::kNanosecond);

void BM_BevRasterize(benchmark::State& state) {
  world::ScenarioOptions options;
  options.difficulty = world::Difficulty::kNormal;
  const world::World world{world::make_scenario(options, 5)};
  const sense::BevRasterizer raster(
      {static_cast<int>(state.range(0)), 19.2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(raster.render(world, {25.0, 8.0, 0.4}));
  }
}
BENCHMARK(BM_BevRasterize)->Arg(32)->Arg(48)->Arg(64)->Unit(benchmark::kMicrosecond);

// Square double GEMM through the dispatched (blocked, possibly SIMD) kernel
// vs the reference triple loop — the speedup here is what Matrix::operator*
// and the batched conv/dense forwards inherit.
void BM_GemmBlocked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  math::Rng rng(11);
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  std::vector<double> b(a.size()), c(a.size());
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    math::gemm_f64(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmBlocked)->Arg(32)->Arg(128)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_GemmNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  math::Rng rng(11);
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  std::vector<double> b(a.size()), c(a.size());
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    math::gemm_naive_f64(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmNaive)->Arg(32)->Arg(128)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_GemmBlockedF32(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  math::Rng rng(11);
  std::vector<float> a(static_cast<std::size_t>(n) * n);
  std::vector<float> b(a.size()), c(a.size());
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    math::gemm_f32(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmBlockedF32)->Arg(32)->Arg(128)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_ConvForward(benchmark::State& state) {
  nn::Conv2D conv(4, 8, 3, 1);
  math::Rng rng(1);
  conv.init(rng);
  nn::Tensor in({1, 4, 48, 48});
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(in));
  }
}
BENCHMARK(BM_ConvForward)->Unit(benchmark::kMicrosecond);

// The same conv through the allocation-free GEMM eval path.
void BM_ConvForwardEval(benchmark::State& state) {
  nn::Conv2D conv(4, 8, 3, 1);
  math::Rng rng(1);
  conv.init(rng);
  nn::Tensor in({1, 4, 48, 48});
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<float>(rng.uniform());
  nn::Tensor out;
  for (auto _ : state) {
    conv.forward_eval(in, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ConvForwardEval)->Unit(benchmark::kMicrosecond);

// Whole-policy batched forward via the BatchInferencer service: submit
// `batch` copies of one observation, run one tick. Reported per-second rate
// is ticks, so per-observation cost is time / batch.
void BM_PolicyForward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  il::IlPolicy policy{il::IlPolicyConfig(), 42u};
  world::ScenarioOptions opt;
  const world::World world{world::make_scenario(opt, 5)};
  const sense::BevRasterizer raster(policy.bev_spec());
  const sense::BevImage obs = il::make_observation(
      raster.render(world, world.scenario().start_pose), 0.3);
  il::BatchInferencer service(policy, 128);
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) service.submit(obs);
    service.run_tick();
    benchmark::DoNotOptimize(&service.result(0));
  }
  state.counters["obs_per_s"] = benchmark::Counter(
      static_cast<double>(batch), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PolicyForward)->Arg(1)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMicrosecond);

// Baseline the batched service competes against: N sequential single-
// observation infer() calls, each a batch of one through the same eval
// kernels.
void BM_PolicyInferSequential(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  il::IlPolicy policy{il::IlPolicyConfig(), 42u};
  world::ScenarioOptions opt;
  const world::World world{world::make_scenario(opt, 5)};
  const sense::BevRasterizer raster(policy.bev_spec());
  const sense::BevImage obs = il::make_observation(
      raster.render(world, world.scenario().start_pose), 0.3);
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i)
      benchmark::DoNotOptimize(policy.infer(obs));
  }
  state.counters["obs_per_s"] = benchmark::Counter(
      static_cast<double>(batch), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PolicyInferSequential)->Arg(1)->Arg(32)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
