// The one bench driver: runs a named evaluation suite (table2 | fig8 | zoo)
// through sim::Evaluator, prints the aggregate table, and optionally writes
// a versioned sim::RunReport JSON artifact and/or gates the run against a
// committed baseline report (nonzero exit on success-rate or park-time
// regression beyond tolerance). Subsumes the duplicated main()s of the
// table2_success / fig8_sensitivity binaries, which remain as thin wrappers.
//
// Ctrl-C is clean: SIGINT trips a shared core::CancelToken, the evaluation
// fan-out drains, and the partial report is still written (meta.aborted)
// before the process exits 130.
//
// The flags are declared once below; a bad argument prints them all.
// Exit codes: 0 ok, 1 baseline regression, 2 usage error, 3 I/O error,
// 130 aborted by SIGINT (partial report written).

#include <cstdio>
#include <string>

#include "suite_runner.hpp"

int main(int argc, char** argv) {
  using namespace icoil;
  using bench::above;
  using bench::at_least;

  std::string which;
  bench::RunSuiteOptions opts;
  sim::BaselineTolerance& tol = opts.report.tolerance;
  bench::Flags flags("bench_suite", "[table2|fig8|zoo] [options]");
  flags.positional(&which, {"table2", "fig8", "zoo"})
      .value("--episodes", &opts.episodes, "N",
             "episodes per cell (default: suite-specific; ICOIL_EPISODES "
             "honoured)", above(0))
      .list("--methods", &opts.methods, "LIST",
            "controller registry keys (default: suite-specific)")
      .action("--list-methods", "print the registered method keys and exit",
              [] { bench::print_registered_methods(stdout); })
      .action("--list-generators",
              "print the registered scenario generators and exit",
              [] { bench::print_registered_generators(stdout); })
      .value("--collision-backend", &opts.collision_backend, "NAME",
             "static-collision backend: analytic | grid")
      .value("--grid-resolution", &opts.grid_resolution, "X",
             "grid backend cell size [m]", above(0))
      .value("--report", &opts.report.path, "PATH",
             "write the RunReport JSON artifact")
      .value("--baseline", &opts.report.baseline_path, "PATH",
             "load a reference RunReport and exit 1 on regression")
      .value("--success-tol", &tol.success_drop, "X",
             "allowed absolute success-ratio drop (default 0.02)", at_least(0))
      .value("--park-tol", &tol.park_time_slowdown, "X",
             "allowed relative park-time slowdown (default 0.10)", at_least(0))
      // A non-positive budget is a typo, not "no budget": rejected rather
      // than silently running without the wall-clock gate.
      .value("--budget", &opts.wall_budget, "S",
             "per-cell wall-clock budget [s]", above(0))
      .value("--frame-deadline-ms", &opts.frame_deadline_ms, "X",
             "per-frame controller budget [ms]", above(0))
      .flag("--per-episode", &opts.per_episode,
            "include per-episode records in the report")
      .value("--threads", &opts.threads, "N",
             "evaluator worker threads (0 = hardware)", at_least(0))
      .value("--csv", &opts.csv_path, "PATH", "also save the table as CSV")
      .flag("--quick", &opts.quick,
            "smoke mode: 2 episodes, CO only (no training); default suite zoo");
  if (const int code = flags.parse(argc, argv); code != bench::Flags::kRun)
    return code;

  if (which.empty()) {
    if (!opts.quick) return flags.reject("no suite named");
    which = "zoo";  // the smoke default: fast, no trained policy
  }

  // Ctrl-C trips the shared token; the suite drains and the partial report
  // is still written instead of the process dying mid-write.
  opts.abort = &bench::sigint_token();
  bench::install_sigint_handler();

  return bench::run_suite_command(which, opts);
}
