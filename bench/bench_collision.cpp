// Collision-backend ablation: grid (distance field) vs analytic (OBB
// narrow phase) static collision on crowded_lot at increasing obstacle
// density. Three measurements per density level:
//
//   1. Query rate: static_collision + static_clearance over random poses
//      through both backends (queries/sec, plus the grid backend's
//      conservative clearance error against the analytic ground truth).
//   2. Episode wall time: the CO controller runs the same seeds under each
//      backend; mean wall seconds per episode.
//   3. Verdict parity: episode outcomes must match seed-for-seed — the grid
//      backend's certainly-free fast path falls back to the analytic narrow
//      phase inside its conservative band, so verdicts are exact by
//      construction and any mismatch is a bug, not noise.
//
// A final parity gate repeats (3) on the canonical scenario (the CI smoke
// gate). Results land in the `collision` block of a sim::RunReport.
//
// The flags are declared once in main(); a bad argument prints them all.
// Exit codes: 0 ok, 1 verdict mismatch between backends, 2 usage error,
// 3 I/O error.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/controller_registry.hpp"
#include "driver.hpp"
#include "geom/angles.hpp"
#include "mathkit/rng.hpp"
#include "mathkit/table.hpp"
#include "sim/report.hpp"
#include "sim/session.hpp"
#include "sim/suite.hpp"
#include "vehicle/kinematics.hpp"
#include "world/world.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Random vehicle footprints across the lot — the query workload. Poses are
/// deterministic per density so both backends (and reruns) see identical
/// work.
std::vector<icoil::geom::Obb> sample_footprints(
    const icoil::world::Scenario& scenario, int count, std::uint64_t seed) {
  const icoil::vehicle::BicycleModel model{icoil::vehicle::VehicleParams{}};
  const icoil::geom::Aabb& b = scenario.map.bounds;
  icoil::math::Rng rng(seed);
  std::vector<icoil::geom::Obb> fps;
  fps.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    icoil::vehicle::State s;
    s.pose.position = {rng.uniform(b.min.x, b.max.x),
                       rng.uniform(b.min.y, b.max.y)};
    s.pose.heading = rng.uniform(0.0, icoil::geom::kTwoPi);
    fps.push_back(model.footprint(s));
  }
  return fps;
}

struct QueryRates {
  double qps = 0.0;
  std::vector<double> clearances;  ///< per-footprint, cutoff-free
};

QueryRates measure_queries(const icoil::world::World& world,
                           const std::vector<icoil::geom::Obb>& footprints) {
  QueryRates out;
  out.clearances.reserve(footprints.size());
  // Warm pass fills caches so the timed pass measures steady state.
  volatile int sink = 0;
  for (const icoil::geom::Obb& fp : footprints)
    sink = sink + (world.static_collision(fp) ? 1 : 0);
  const auto t0 = std::chrono::steady_clock::now();
  for (const icoil::geom::Obb& fp : footprints) {
    sink = sink + (world.static_collision(fp) ? 1 : 0);
    out.clearances.push_back(world.static_clearance(fp));
  }
  const double elapsed = seconds_since(t0);
  out.qps = elapsed > 0.0
                ? 2.0 * static_cast<double>(footprints.size()) / elapsed
                : 0.0;
  return out;
}

struct EpisodeSweep {
  double mean_seconds = 0.0;
  std::vector<std::string> outcomes;  ///< per seed, sim::to_string
};

EpisodeSweep run_episodes(const icoil::world::Scenario& scenario,
                          icoil::world::CollisionBackend backend,
                          double resolution, int episodes,
                          std::uint64_t base_seed) {
  using namespace icoil;
  EpisodeSweep sweep;
  sim::SimConfig sim_config;
  sim_config.collision_backend = backend;
  sim_config.grid_resolution = resolution;
  const auto& registry = core::ControllerRegistry::instance();
  double total = 0.0;
  for (int e = 0; e < episodes; ++e) {
    // Fresh controller per episode: controllers are stateful and the timing
    // should include reference planning, as a real run pays it.
    std::unique_ptr<core::Controller> controller = registry.build("co");
    const auto t0 = std::chrono::steady_clock::now();
    sim::Session session(scenario, *controller, base_seed + e, sim_config);
    while (session.step() == sim::Session::Status::kRunning) {
    }
    total += seconds_since(t0);
    sweep.outcomes.push_back(sim::to_string(session.result().outcome));
  }
  sweep.mean_seconds = episodes > 0 ? total / episodes : 0.0;
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icoil;

  using bench::above;

  int episodes = 6;
  int queries = 20000;
  double resolution = world::DistanceField::kDefaultResolution;
  std::vector<double> densities = {1, 4, 10};
  bench::ReportOptions out;
  bool quick = false;
  bench::Flags flags("bench_collision");
  flags.value("--episodes", &episodes, "N",
              "episodes per backend per density (default 6)", above(0))
      .list("--densities", &densities, "LIST",
            "crowded_lot clutter multipliers (default 1,4,10)", above(0))
      .value("--queries", &queries, "N",
             "random poses per query-rate measurement (default 20000)",
             above(0))
      .value("--grid-resolution", &resolution, "X",
             "grid cell size [m] (default 0.15)", above(0))
      .value("--report", &out.path, "PATH", "write the RunReport JSON artifact")
      .flag("--quick", &quick, "smoke mode: 2 episodes, 4000 queries");
  if (const int code = flags.parse(argc, argv); code != bench::Flags::kRun)
    return code;
  if (quick) {
    episodes = std::min(episodes, 2);
    queries = std::min(queries, 4000);
  }

  constexpr std::uint64_t kScenarioSeed = 7;
  constexpr std::uint64_t kPoseSeed = 99;
  constexpr std::uint64_t kEpisodeSeed = 1000;

  sim::CollisionStats stats;
  stats.generator = "crowded_lot";
  stats.grid_resolution = resolution;

  bool all_verdicts_match = true;
  math::TextTable table({"density", "obstacles", "analytic q/s", "grid q/s",
                         "speedup", "co ep analytic [s]", "co ep grid [s]",
                         "clr err mean [m]", "clr err max [m]", "verdicts"});

  for (const double density : densities) {
    sim::SuiteCell cell;
    cell.generator = "crowded_lot";
    cell.difficulty = world::Difficulty::kNormal;
    cell.params.set("density", density);
    const world::Scenario scenario =
        world::make_scenario(cell.options(), kScenarioSeed);

    int statics = 0;
    for (const world::Obstacle& o : scenario.obstacles)
      if (!o.dynamic()) ++statics;

    const world::World analytic(scenario,
                                {world::CollisionBackend::kAnalytic, resolution});
    const world::World grid(scenario,
                            {world::CollisionBackend::kGrid, resolution});

    const auto footprints = sample_footprints(scenario, queries, kPoseSeed);
    const QueryRates a = measure_queries(analytic, footprints);
    const QueryRates g = measure_queries(grid, footprints);

    // Conservative clearance error: analytic minus grid, over footprints
    // both backends call free. Negative error would mean the grid bound is
    // NOT a lower bound — counted as a parity failure.
    double err_sum = 0.0, err_max = 0.0;
    int err_n = 0;
    bool bound_ok = true;
    for (std::size_t q = 0; q < footprints.size(); ++q) {
      const double av = a.clearances[q];
      const double gv = g.clearances[q];
      if (av <= 0.0 || gv <= 0.0) continue;        // in collision
      if (av >= geom::kMaxClearance) continue;     // no obstacle in range
      const double err = av - gv;
      if (err < -1e-9) bound_ok = false;
      err_sum += err;
      err_max = std::max(err_max, err);
      ++err_n;
    }

    const EpisodeSweep ea = run_episodes(
        scenario, world::CollisionBackend::kAnalytic, resolution, episodes,
        kEpisodeSeed);
    const EpisodeSweep eg = run_episodes(
        scenario, world::CollisionBackend::kGrid, resolution, episodes,
        kEpisodeSeed);

    sim::CollisionDensityRow row;
    row.density = density;
    row.obstacles = statics;
    row.analytic_qps = a.qps;
    row.grid_qps = g.qps;
    row.speedup = a.qps > 0.0 ? g.qps / a.qps : 0.0;
    row.analytic_episode_seconds = ea.mean_seconds;
    row.grid_episode_seconds = eg.mean_seconds;
    row.clearance_err_mean = err_n > 0 ? err_sum / err_n : 0.0;
    row.clearance_err_max = err_max;
    row.episodes = episodes;
    row.verdicts_match = bound_ok && ea.outcomes == eg.outcomes;
    all_verdicts_match = all_verdicts_match && row.verdicts_match;
    stats.rows.push_back(row);

    table.add_row({math::format_double(density, 1), std::to_string(statics),
                   math::format_double(a.qps, 0),
                   math::format_double(g.qps, 0),
                   math::format_double(row.speedup, 2) + "x",
                   math::format_double(ea.mean_seconds, 3),
                   math::format_double(eg.mean_seconds, 3),
                   math::format_double(row.clearance_err_mean, 3),
                   math::format_double(row.clearance_err_max, 3),
                   row.verdicts_match ? "match" : "MISMATCH"});
    std::fprintf(stderr, "[collision] density %.1fx done (%d statics)\n",
                 density, statics);
  }

  // CI parity gate: the canonical scenario's episode verdicts must be
  // identical under both backends.
  {
    sim::SuiteCell cell;  // defaults: canonical / easy / random start
    const world::Scenario scenario =
        world::make_scenario(cell.options(), kScenarioSeed);
    const EpisodeSweep ea = run_episodes(
        scenario, world::CollisionBackend::kAnalytic, resolution, episodes,
        kEpisodeSeed);
    const EpisodeSweep eg = run_episodes(
        scenario, world::CollisionBackend::kGrid, resolution, episodes,
        kEpisodeSeed);
    const bool match = ea.outcomes == eg.outcomes;
    all_verdicts_match = all_verdicts_match && match;
    std::fprintf(stderr, "[collision] canonical parity: %s\n",
                 match ? "match" : "MISMATCH");
  }

  std::printf("\nCollision backend ablation — crowded_lot, grid resolution "
              "%.2f m, %d queries, %d episodes/backend\n\n",
              resolution, queries, episodes);
  table.print(std::cout);

  sim::EvalConfig eval_config;
  eval_config.episodes = episodes;
  eval_config.base_seed = kEpisodeSeed;
  eval_config.sim.grid_resolution = resolution;
  sim::RunReport report;
  report.meta = bench::report_meta("collision", 1, eval_config);
  report.collision = stats;

  if (!all_verdicts_match)
    std::fprintf(stderr,
                 "bench_collision: FAIL — grid and analytic backends "
                 "disagreed (outcomes or clearance bound)\n");
  return bench::finish("bench_collision", report, out, all_verdicts_match);
}
