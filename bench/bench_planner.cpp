// Planner bench: the default hybrid-A* planner across the scenario
// generator families, with crowded_lot additionally swept over clutter
// density. Each cell also runs `legacy` — the frozen pre-refactor planner
// (bench/legacy_planner.hpp) — as the speedup and success reference. Three
// measurements per (family, density, planner):
//
//   1. Plan wall time over a fixed seed set (mean/max ms) plus the search
//      counters (expansions and RS-shot attempts per plan).
//   2. Success parity: every scenario the legacy planner solves must still
//      be solved by the current planner — its cached heuristic and search
//      core change node order, not completeness, so a drop is a bug (the
//      CI gate).
//   3. Deadline-hit rate: an optional second pass re-plans each scenario
//      under a core::FrameContext budget and counts tripped frames.
//
// Results land in the `planner` block of a sim::RunReport; `speedup` is the
// legacy planner's mean plan time on the cell divided by the planner's.
//
// The flags are declared once in main(); a bad argument prints them all.
// Exit codes: 0 ok, 1 success-parity failure, 2 usage error, 3 I/O error.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "driver.hpp"
#include "legacy_planner.hpp"
#include "co/hybrid_astar.hpp"
#include "mathkit/rng.hpp"
#include "mathkit/table.hpp"
#include "sim/evaluator.hpp"
#include "sim/report.hpp"
#include "sim/suite.hpp"
#include "world/scenario.hpp"

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One planning problem: the scenario's statics, bounds and start/goal.
/// Both planners run without a collision distance field, as the library
/// controllers do under the default analytic collision backend (World has
/// no field there, so CoController hands hybrid A* a null one).
struct Problem {
  icoil::geom::Pose2 start, goal;
  std::vector<icoil::geom::Obb> obstacles;
  icoil::geom::Aabb bounds;
};

Problem make_problem(const icoil::world::Scenario& scenario) {
  Problem p;
  p.start = scenario.start_pose;
  p.goal = scenario.map.goal_pose;
  p.bounds = scenario.map.bounds;
  for (const icoil::world::Obstacle& o : scenario.obstacles)
    if (!o.dynamic()) p.obstacles.push_back(o.shape);
  return p;
}

struct PlannerResult {
  icoil::sim::PlannerFamilyRow row;
  std::vector<bool> solved;  ///< per problem index
};

/// The outcome and search effort of one plan, whichever planner ran it.
struct Effort {
  bool solved = false;
  int expansions = 0;
  int rs_shots = 0;
  double cost = 0.0;  ///< solution cost; meaningful when solved
};

int g_reps = 3;           ///< --reps: timing repetitions per plan
bool g_per_plan = false;  ///< --per-plan: dump per-scenario lines to stderr

/// Times `plan` (Problem -> Effort) over every problem and fills the row's
/// timing and effort means under the name `name`.
template <class Plan>
PlannerResult time_planner(const std::vector<Problem>& problems,
                           const char* name, const Plan& plan) {
  PlannerResult out;
  double total_ms = 0.0, max_ms = 0.0;
  double total_exp = 0.0, total_shots = 0.0, total_cost = 0.0;
  for (const Problem& p : problems) {
    Effort effort;
    double ms = 0.0;
    // Both planners are deterministic, so every rep does identical work:
    // the minimum is the run least perturbed by the scheduler.
    for (int rep = 0; rep < g_reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      effort = plan(p);
      const double rep_ms = ms_since(t0);
      ms = rep == 0 ? rep_ms : std::min(ms, rep_ms);
    }
    if (g_per_plan)
      std::fprintf(stderr, "[plan] %-9s #%zu %s %.2f ms exp %d shots %d\n",
                   name, out.solved.size(), effort.solved ? "ok  " : "FAIL",
                   ms, effort.expansions, effort.rs_shots);
    total_ms += ms;
    max_ms = std::max(max_ms, ms);
    total_exp += effort.expansions;
    total_shots += effort.rs_shots;
    if (effort.solved) total_cost += effort.cost;
    out.solved.push_back(effort.solved);
    if (effort.solved) ++out.row.solved;
    ++out.row.plans;
  }

  const int n = out.row.plans;
  out.row.heuristic = name;
  out.row.plan_ms_mean = n > 0 ? total_ms / n : 0.0;
  out.row.plan_ms_max = max_ms;
  out.row.expansions_mean = n > 0 ? total_exp / n : 0.0;
  out.row.rs_shots_mean = n > 0 ? total_shots / n : 0.0;
  out.row.path_cost_mean = out.row.solved > 0 ? total_cost / out.row.solved : 0.0;
  return out;
}

/// The default hybrid-A* planner, plus the optional budgeted pass. The row
/// keeps the name of its heuristic, max(euclidean, RS table, Dijkstra).
PlannerResult run_planner(const std::vector<Problem>& problems,
                          double deadline_ms) {
  using namespace icoil;
  const co::HybridAStar astar(co::HybridAStarConfig{}, vehicle::VehicleParams{});

  // Warm pass: pays the one-time shared-LUT build (and touches the code
  // paths) outside the timed loop, as a long-lived process would.
  if (!problems.empty()) {
    const Problem& w = problems.front();
    (void)astar.plan(w.start, w.goal, w.obstacles, w.bounds);
  }

  PlannerResult out = time_planner(problems, "max", [&](const Problem& p) {
    co::PlanStats stats;
    const bool solved = astar.plan(p.start, p.goal, p.obstacles, p.bounds,
                                   nullptr, nullptr, &stats)
                            .has_value();
    return Effort{solved, stats.expansions, stats.rs_shot_attempts,
                  stats.solution_cost};
  });

  // Budgeted pass: same problems under a per-frame deadline; count plans
  // that tripped it (returned early without a path).
  if (deadline_ms > 0.0) {
    out.row.deadline_ms = deadline_ms;
    math::Rng rng(42);
    for (const Problem& p : problems) {
      core::FrameContext frame(rng, nullptr, deadline_ms);
      const auto path =
          astar.plan(p.start, p.goal, p.obstacles, p.bounds, &frame);
      if (!path.has_value() && frame.deadline_hit()) ++out.row.deadline_hits;
    }
  }
  return out;
}

/// The pre-refactor planner on the same problems: the speedup denominator
/// and success reference. No budgeted pass — the legacy loop predates
/// stats/deadline plumbing and is kept byte-for-byte faithful instead.
PlannerResult run_legacy(const std::vector<Problem>& problems) {
  using namespace icoil;
  const co::HybridAStarConfig config;  // planner defaults
  const vehicle::VehicleParams params;
  return time_planner(problems, "legacy", [&](const Problem& p) {
    bench::LegacyStats stats;
    const bool solved = bench::legacy_plan(config, params, p.start, p.goal,
                                           p.obstacles, p.bounds, nullptr,
                                           &stats);
    return Effort{solved, stats.expansions, stats.rs_shot_attempts,
                  stats.solution_cost};
  });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icoil;

  using bench::above;
  using bench::at_least;

  int plans = 10;
  double deadline_ms = 50.0;
  std::vector<double> densities = {1, 4};
  std::vector<std::string> families = {"canonical", "perpendicular",
                                       "parallel_street", "crowded_lot",
                                       "dynamic_gauntlet"};
  bench::ReportOptions out;
  bool quick = false;
  bench::Flags flags("bench_planner");
  flags.value("--plans", &plans, "N",
              "scenarios per (family, density) cell (default 10)", above(0))
      // The planners are deterministic, so spread across reps is scheduler
      // noise, not work: the per-plan time is the minimum of K runs.
      .value("--reps", &g_reps, "K",
             "timing repetitions per plan, minimum taken (default 3)",
             above(0))
      .list("--families", &families, "LIST",
            "generator families to run (default: all five)")
      .list("--densities", &densities, "LIST",
            "crowded_lot clutter multipliers (default 1,4)", above(0))
      .value("--frame-deadline-ms", &deadline_ms, "X",
             "budgeted-pass deadline (default 50; 0 = skip)", at_least(0))
      .value("--report", &out.path, "PATH", "write the RunReport JSON artifact")
      .flag("--per-plan", &g_per_plan, "print one line per plan to stderr")
      .flag("--quick", &quick, "smoke mode: 3 plans, no budgeted pass");
  if (const int code = flags.parse(argc, argv); code != bench::Flags::kRun)
    return code;
  if (quick) {
    plans = std::min(plans, 3);
    g_reps = 1;
    deadline_ms = 0.0;
  }

  constexpr std::uint64_t kScenarioSeed = 300;

  sim::PlannerStats stats;
  bool parity_ok = true;
  math::TextTable table({"family", "density", "planner", "solved",
                         "plan [ms]", "max [ms]", "expansions", "rs shots",
                         "cost", "speedup", "ddl hits"});

  for (const std::string& family : families) {
    // Density sweeps only the family whose generator reads it.
    const std::vector<double> family_densities =
        family == "crowded_lot" ? densities : std::vector<double>{1.0};
    for (const double density : family_densities) {
      sim::SuiteCell cell;
      cell.generator = family;
      cell.difficulty = world::Difficulty::kNormal;
      if (density != 1.0) cell.params.set("density", density);

      std::vector<Problem> problems;
      problems.reserve(static_cast<std::size_t>(plans));
      for (int s = 0; s < plans; ++s)
        problems.push_back(make_problem(
            world::make_scenario(cell.options(), kScenarioSeed + s)));

      auto emit = [&](PlannerResult& r, bool is_reference) {
        r.row.generator = family;
        r.row.density = density;
        stats.rows.push_back(r.row);
        table.add_row(
            {family, math::format_double(density, 1), r.row.heuristic,
             std::to_string(r.row.solved) + "/" + std::to_string(r.row.plans),
             math::format_double(r.row.plan_ms_mean, 2),
             math::format_double(r.row.plan_ms_max, 2),
             math::format_double(r.row.expansions_mean, 0),
             math::format_double(r.row.rs_shots_mean, 1),
             math::format_double(r.row.path_cost_mean, 1),
             is_reference ? std::string("1.00x")
                          : math::format_double(r.row.speedup, 2) + "x",
             r.row.deadline_ms > 0.0 ? std::to_string(r.row.deadline_hits)
                                     : "-"});
      };
      PlannerResult legacy = run_legacy(problems);
      emit(legacy, /*is_reference=*/true);

      PlannerResult r = run_planner(problems, deadline_ms);
      r.row.speedup = r.row.plan_ms_mean > 0.0
                          ? legacy.row.plan_ms_mean / r.row.plan_ms_mean
                          : 0.0;
      // Success parity: every scenario the pre-refactor planner solves must
      // stay solved.
      for (std::size_t i = 0; i < legacy.solved.size(); ++i) {
        if (legacy.solved[i] && !r.solved[i]) {
          parity_ok = false;
          std::fprintf(stderr,
                       "[planner] PARITY: %s density %.1f seed %llu "
                       "solved by legacy but not by %s\n",
                       family.c_str(), density,
                       static_cast<unsigned long long>(kScenarioSeed + i),
                       r.row.heuristic.c_str());
        }
      }
      emit(r, /*is_reference=*/false);
      std::fprintf(stderr, "[planner] %s density %.1fx done (%d plans)\n",
                   family.c_str(), density, plans);
    }
  }

  std::printf("\nHybrid-A* vs the legacy planner — %d plans per cell, "
              "budgeted pass %s\n\n",
              plans,
              deadline_ms > 0.0
                  ? (math::format_double(deadline_ms, 0) + " ms").c_str()
                  : "off");
  table.print(std::cout);

  sim::EvalConfig eval_config;
  eval_config.episodes = plans;
  eval_config.base_seed = kScenarioSeed;
  sim::RunReport report;
  report.meta = bench::report_meta("planner", 1, eval_config);
  report.planner = stats;

  if (!parity_ok)
    std::fprintf(stderr,
                 "bench_planner: FAIL — the planner lost a scenario the "
                 "legacy planner solves\n");
  return bench::finish("bench_planner", report, out, parity_ok);
}
