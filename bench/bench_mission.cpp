// Mission benchmark: multi-leg parking missions (enter -> cruise -> park ->
// dwell -> unpark -> exit) with behavior-driven traffic, per
// mission::MissionRegistry template. Each (template, mission index) pair is
// one TaskPool task with its own Mission instance and fresh controller, so
// the fan-out is embarrassingly parallel; per-mission seeds are fixed up
// front, which makes the run bit-deterministic across thread counts.
//
// Gates:
//   1. Determinism: every mission is re-run on a single-thread pool and the
//      MissionResult fingerprints must match the wide pool's bit-for-bit.
//   2. --quick (CI smoke): contested_lot rows must average >= 3 legs per
//      mission and force >= 1 replan — the template's reason to exist.
//   3. --baseline PATH: sim::compare_to_baseline over the mission rows
//      (success-ratio drop and replans-per-mission drift tolerances).
//
// Results land in the `mission` block of a sim::RunReport (schema v2).
// The flags are declared once in main(); a bad argument prints them all.
//
// Exit codes: 0 ok, 1 gate failure (determinism, quick gate or baseline
// regression), 2 usage error, 3 I/O error.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/controller_registry.hpp"
#include "core/task_pool.hpp"
#include "driver.hpp"
#include "mathkit/fnv.hpp"
#include "mathkit/table.hpp"
#include "mission/mission.hpp"
#include "sim/report.hpp"

namespace {

/// Nearest-rank percentile of an unsorted sample (q in [0,1]); 0 when empty.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Runs every (template, mission index) pair on a pool of `threads` workers.
/// Results are indexed template-major so the fold and the fingerprint digest
/// are independent of completion order.
std::vector<icoil::mission::MissionResult> run_missions(
    const std::vector<std::string>& templates, int missions,
    const std::string& method, std::uint64_t base_seed, int threads) {
  using namespace icoil;
  const auto total = templates.size() * static_cast<std::size_t>(missions);
  std::vector<mission::MissionResult> results(total);
  core::TaskPool pool(threads);
  for (std::size_t t = 0; t < templates.size(); ++t) {
    for (int m = 0; m < missions; ++m) {
      const std::size_t idx = t * static_cast<std::size_t>(missions) +
                              static_cast<std::size_t>(m);
      pool.submit([&, t, m, idx](const core::TaskPool::Context&) {
        const mission::MissionSpec& spec =
            mission::MissionRegistry::instance().at(templates[t]);
        // Fresh controller per mission: controllers are stateful and must
        // not be shared across concurrent missions.
        const std::unique_ptr<core::Controller> controller =
            core::ControllerRegistry::instance().build(method);
        mission::Mission mission(spec, base_seed + static_cast<std::uint64_t>(m));
        results[idx] = mission.run(*controller);
      });
    }
  }
  pool.wait_idle();
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icoil;
  using bench::above;
  using bench::at_least;

  std::vector<std::string> templates;
  int missions = 4;
  std::string method = "co";
  int seed = 9000;
  int threads = 0;
  bench::ReportOptions out;
  bool quick = false;
  const auto& registry = mission::MissionRegistry::instance();
  bench::Flags flags("bench_mission");
  flags.list("--templates", &templates, "LIST",
             "templates to run (default: all registered)")
      .value("--missions", &missions, "N", "missions per template (default 4)",
             above(0))
      .value("--method", &method, "NAME", "controller registry key (default co)")
      .value("--seed", &seed, "S",
             "base seed; mission m uses seed S+m (default 9000)", at_least(0))
      .value("--threads", &threads, "N",
             "pool width for the wide pass (default recommended)", at_least(0))
      .value("--report", &out.path, "PATH", "write the RunReport JSON artifact")
      .value("--baseline", &out.baseline_path, "PATH",
             "compare against a committed baseline report")
      .value("--success-tol", &out.tolerance.mission_success_drop, "X",
             "allowed mission success-ratio drop (default 0.02)", at_least(0))
      .value("--replan-tol", &out.tolerance.mission_replan_delta, "X",
             "allowed |replans/mission| drift (default 0.5)", at_least(0))
      .action("--list-templates", "print registered mission templates and exit",
              [&registry] {
                for (const std::string& name : registry.names())
                  std::printf("%-16s %s\n", name.c_str(),
                              registry.at(name).description.c_str());
              })
      .flag("--quick", &quick, "smoke mode: contested_lot only, 2 missions");
  if (const int code = flags.parse(argc, argv); code != bench::Flags::kRun)
    return code;

  if (templates.empty())
    templates = quick ? std::vector<std::string>{"contested_lot"}
                      : registry.names();
  if (quick) missions = std::min(missions, 2);
  for (const std::string& t : templates)
    if (registry.find(t) == nullptr)
      return flags.reject("unknown template \"" + t + "\"");
  const std::vector<std::string> known_methods =
      core::ControllerRegistry::instance().keys();
  if (std::find(known_methods.begin(), known_methods.end(), method) ==
      known_methods.end())
    return flags.reject("unknown method \"" + method + "\"");
  const auto base_seed = static_cast<std::uint64_t>(seed);

  // The wide pass deliberately ignores hardware concurrency: the gate is
  // "16 workers and 1 worker agree bit-for-bit", and a 16-worker pool on a
  // small machine still interleaves tasks — which is exactly the scheduling
  // nondeterminism the gate must prove irrelevant.
  const int total_jobs = static_cast<int>(templates.size()) * missions;
  const int wide_threads =
      threads > 0 ? threads : std::max(2, std::min(16, total_jobs * 2));

  std::fprintf(stderr, "[mission] wide pass: %d missions on %d threads\n",
               total_jobs, wide_threads);
  const std::vector<mission::MissionResult> wide =
      run_missions(templates, missions, method, base_seed, wide_threads);

  // Determinism gate: the same fan-out on a single worker must produce
  // bit-identical MissionResult fingerprints (wall clock excluded by
  // construction).
  std::fprintf(stderr, "[mission] narrow pass: %d missions on 1 thread\n",
               total_jobs);
  const std::vector<mission::MissionResult> narrow =
      run_missions(templates, missions, method, base_seed, 1);
  bool deterministic = true;
  for (std::size_t i = 0; i < wide.size(); ++i) {
    if (wide[i].fingerprint() != narrow[i].fingerprint()) {
      deterministic = false;
      std::fprintf(stderr,
                   "[mission] DETERMINISM MISMATCH %s seed %llu: "
                   "%016llx (x%d threads) vs %016llx (x1)\n",
                   wide[i].mission.c_str(),
                   static_cast<unsigned long long>(wide[i].seed),
                   static_cast<unsigned long long>(wide[i].fingerprint()),
                   wide_threads,
                   static_cast<unsigned long long>(narrow[i].fingerprint()));
    }
  }

  // Fold template-major rows.
  sim::MissionStats stats;
  math::TextTable table({"template", "method", "missions", "success", "legs/m",
                         "replans/m", "collisions", "timeouts", "park p50 [s]",
                         "exit p50 [s]", "wall mean [s]"});
  bool quick_gate_ok = true;
  for (std::size_t t = 0; t < templates.size(); ++t) {
    sim::MissionTemplateRow row;
    row.mission = templates[t];
    row.method = method;
    row.missions = missions;
    row.spec_fingerprint =
        mission::MissionRegistry::instance().at(templates[t]).fingerprint();
    math::Fnv1a digest;
    std::vector<double> park_times, exit_times;
    double wall_total = 0.0;
    for (int m = 0; m < missions; ++m) {
      const mission::MissionResult& r =
          wide[t * static_cast<std::size_t>(missions) +
               static_cast<std::size_t>(m)];
      digest.add_int(static_cast<std::int64_t>(r.fingerprint()));
      row.succeeded += r.success ? 1 : 0;
      row.legs += static_cast<int>(r.legs.size());
      row.replans += r.replans;
      for (const mission::LegResult& leg : r.legs) {
        if (leg.status != mission::LegStatus::kFailed) continue;
        if (leg.outcome == sim::Outcome::kCollision) ++row.collisions;
        if (leg.outcome == sim::Outcome::kTimeout) ++row.timeouts;
      }
      if (r.success) {
        park_times.push_back(r.park_time);
        exit_times.push_back(r.exit_time);
      }
      wall_total += r.wall_seconds;
    }
    row.success_ratio =
        static_cast<double>(row.succeeded) / static_cast<double>(missions);
    row.legs_per_mission =
        static_cast<double>(row.legs) / static_cast<double>(missions);
    row.replans_per_mission =
        static_cast<double>(row.replans) / static_cast<double>(missions);
    row.park_time_p50 = percentile(park_times, 0.50);
    row.park_time_p95 = percentile(park_times, 0.95);
    row.exit_time_p50 = percentile(exit_times, 0.50);
    row.exit_time_p95 = percentile(exit_times, 0.95);
    row.wall_seconds_mean = wall_total / static_cast<double>(missions);
    row.result_fingerprint = digest.value();

    // Quick gate: the contested template must actually contest — multi-leg
    // missions with at least one forced replan.
    if (quick && row.mission == "contested_lot" &&
        (row.legs_per_mission < 3.0 || row.replans < 1)) {
      quick_gate_ok = false;
      std::fprintf(stderr,
                   "[mission] QUICK GATE FAIL %s: legs/mission %.1f "
                   "(need >= 3), replans %d (need >= 1)\n",
                   row.mission.c_str(), row.legs_per_mission, row.replans);
    }

    table.add_row({row.mission, row.method, std::to_string(row.missions),
                   math::format_double(row.success_ratio, 2),
                   math::format_double(row.legs_per_mission, 1),
                   math::format_double(row.replans_per_mission, 2),
                   std::to_string(row.collisions),
                   std::to_string(row.timeouts),
                   math::format_double(row.park_time_p50, 1),
                   math::format_double(row.exit_time_p50, 1),
                   math::format_double(row.wall_seconds_mean, 1)});
    stats.rows.push_back(std::move(row));
  }

  std::printf("\nMission benchmark — %d missions/template, method %s, base "
              "seed %llu, %d threads (determinism checked vs 1)\n\n",
              missions, method.c_str(),
              static_cast<unsigned long long>(base_seed), wide_threads);
  table.print(std::cout);

  sim::EvalConfig eval_config;
  eval_config.episodes = missions;
  eval_config.base_seed = base_seed;
  sim::RunReport report;
  report.meta = bench::report_meta("mission", wide_threads, eval_config);
  report.mission = stats;

  if (!deterministic)
    std::fprintf(stderr,
                 "bench_mission: FAIL — results differ across thread counts\n");
  return bench::finish("bench_mission", report, out,
                       deterministic && quick_gate_ok);
}
