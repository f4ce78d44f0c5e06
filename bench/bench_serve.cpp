// Thin driver over the serve:: front-end subsystem. All serving-loop logic
// — session lifecycle, tick scheduling, admission control, load shedding,
// deadline autotuning, latency accounting — lives in serve::Frontend (and
// core::LatencyHistogram); this file only parses flags, runs one Frontend
// per load level, prints tables and assembles the RunReport.
//
// --sessions takes either one count (single run) or a comma list
// ("--sessions 1,10,100") which sweeps offered load level by level and
// reports frames/sec and tail latency vs. load, flagging the saturation
// knee (the last level whose throughput still grew meaningfully).
//
// Ctrl-C is clean: SIGINT trips a shared core::CancelToken that every
// session polls, episodes end as budget_exceeded, and the partial report —
// containing the load levels completed so far — is written (meta.aborted)
// before exit 130.
//
// The flags are declared once in main(); a bad argument prints them all.
// Exit codes: 0 ok, 2 usage error, 3 I/O error, 130 aborted by SIGINT.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/controller_registry.hpp"
#include "driver.hpp"
#include "mathkit/gemm.hpp"
#include "mathkit/table.hpp"
#include "serve/frontend.hpp"

namespace {

using namespace icoil;

struct ServeOptions {
  std::vector<int> session_levels;  ///< offered load levels, ascending
  serve::FrontendConfig frontend;   ///< shared knobs; sessions set per level
  bench::ReportOptions report;
  bool quick = false;
};

void print_single_run(const serve::FrontendResult& r) {
  const sim::ServeStats& stats = r.stats;
  math::TextTable table({"metric", "value"});
  table.add_row({"sessions offered", std::to_string(stats.offered)});
  table.add_row({"admitted", std::to_string(stats.admitted)});
  table.add_row({"queued", std::to_string(stats.queued)});
  table.add_row({"shed", std::to_string(stats.shed)});
  table.add_row({"workers", std::to_string(stats.threads)});
  table.add_row({"frames served", std::to_string(stats.frames)});
  table.add_row({"warmup frames", std::to_string(stats.warmup.count)});
  table.add_row({"wall time [s]", math::format_double(stats.wall_seconds, 2)});
  table.add_row({"frames/sec", math::format_double(stats.frames_per_second, 1)});
  table.add_row({"frame p50 [ms]", math::format_double(stats.frame.p50_ms, 2)});
  table.add_row({"frame p99 [ms]", math::format_double(stats.frame.p99_ms, 2)});
  table.add_row({"frame max [ms]", math::format_double(stats.frame.max_ms, 2)});
  table.add_row({"queue p99 [ms]", math::format_double(stats.queue.p99_ms, 2)});
  table.add_row({"deadline hits", std::to_string(stats.deadline_hits)});
  if (stats.tuning.has_value()) {
    const sim::ServeStats::Tuning& t = *stats.tuning;
    table.add_row({"tuned deadline min [ms]",
                   math::format_double(t.deadline_min_ms, 2)});
    table.add_row({"tuned deadline mean [ms]",
                   math::format_double(t.deadline_mean_ms, 2)});
    table.add_row({"tuned deadline max [ms]",
                   math::format_double(t.deadline_max_ms, 2)});
  }
  if (stats.batching.has_value()) {
    const sim::ServeStats::Batching& b = *stats.batching;
    table.add_row({"batch ticks", std::to_string(b.ticks)});
    table.add_row({"mean batch", math::format_double(b.mean_batch, 2)});
    table.add_row({"max batch", std::to_string(b.max_batch)});
    table.add_row({"gather [ms]", math::format_double(b.gather_seconds * 1e3, 1)});
    table.add_row({"forward [ms]", math::format_double(b.forward_seconds * 1e3, 1)});
    table.add_row({"scatter [ms]", math::format_double(b.scatter_seconds * 1e3, 1)});
  }
  table.add_row({"parked", std::to_string(r.aggregate.successes)});
  table.add_row({"collided", std::to_string(r.aggregate.collisions)});
  table.add_row({"timed out", std::to_string(r.aggregate.timeouts)});
  table.add_row({"over budget", std::to_string(r.aggregate.budget_exceeded)});
  table.print(std::cout);
}

void print_sweep(const std::vector<sim::ServeLoadLevel>& levels,
                 int knee_offered) {
  math::TextTable table({"offered", "admitted", "shed", "frames", "frames/sec",
                         "p50 [ms]", "p99 [ms]", "queue p99 [ms]",
                         "deadline hits", "knee"});
  for (const sim::ServeLoadLevel& level : levels)
    table.add_row({std::to_string(level.offered),
                   std::to_string(level.admitted), std::to_string(level.shed),
                   std::to_string(level.frames),
                   math::format_double(level.frames_per_second, 1),
                   math::format_double(level.frame_p50_ms, 2),
                   math::format_double(level.frame_p99_ms, 2),
                   math::format_double(level.queue_p99_ms, 2),
                   std::to_string(level.deadline_hits),
                   level.knee ? "<-- knee" : ""});
  table.print(std::cout);
  if (knee_offered > 0)
    std::printf("\nsaturation knee at offered load %d: adding sessions "
                "beyond it no longer buys throughput, only latency\n",
                knee_offered);
  else if (!levels.empty())
    std::printf("\nno saturation knee observed: throughput still scaled at "
                "offered load %d\n", levels.back().offered);
}

int run_serve(const ServeOptions& opts) {
  const core::ControllerSpec* spec =
      core::ControllerRegistry::instance().find(opts.frontend.method);
  if (spec == nullptr) {
    std::fprintf(stderr,
                 "bench_serve: unknown method \"%s\" — run `bench_suite "
                 "--list-methods` for the registered keys\n",
                 opts.frontend.method.c_str());
    return 2;
  }

  // Policy (when needed) is acquired once and shared across all levels.
  std::unique_ptr<il::IlPolicy> policy;
  serve::FrontendConfig base = opts.frontend;
  if (spec->needs_policy) {
    policy = bench::shared_policy();
    base.policy = policy.get();
  }

  // Validate once with the first level plugged in — the remaining checks
  // (batching, knob ranges) do not depend on the session count.
  serve::FrontendConfig probe = base;
  probe.sessions = opts.session_levels.front();
  std::string error;
  if (!serve::Frontend::validate(probe, &error)) {
    std::fprintf(stderr, "bench_serve: %s\n", error.c_str());
    return 2;
  }

  const bool sweep = opts.session_levels.size() > 1;
  std::vector<sim::ServeLoadLevel> levels;
  std::vector<sim::SuiteCellResult> cells;
  sim::ServeStats last_stats;
  int last_workers = 0;
  bool aborted = false;

  for (const int sessions : opts.session_levels) {
    serve::FrontendConfig level_config = base;
    level_config.sessions = sessions;
    if (sweep) level_config.label = "serve@" + std::to_string(sessions);

    std::fprintf(
        stderr, "[serve] %d session%s of %s%s%s\n", sessions,
        sessions == 1 ? "" : "s", spec->display_name.c_str(),
        level_config.tuner.enabled ? ", autotuned deadline" : "",
        level_config.batch_inference
            ? (std::string(", batched inference via ") +
               math::gemm_kernel_name() + " gemm")
                  .c_str()
            : "");

    serve::Frontend frontend(level_config, &bench::sigint_token());
    serve::FrontendResult result;
    try {
      result = frontend.run();
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bench_serve: %s\n", e.what());
      return 2;
    }

    if (result.aborted) {
      // Partial level: keep only the levels completed so far in the report.
      aborted = true;
      std::fprintf(stderr,
                   "[serve] aborted at offered load %d — report keeps the "
                   "%zu completed level%s\n",
                   sessions, levels.size(), levels.size() == 1 ? "" : "s");
      break;
    }

    levels.push_back(serve::to_load_level(result.stats));
    last_stats = result.stats;
    last_workers = result.workers;
    sim::SuiteCell cell;
    cell.difficulty = level_config.difficulty;
    cell.time_limit = level_config.time_limit;
    cell.label = level_config.label;
    cells.push_back({cell, result.aggregate});
    std::fprintf(stderr, "[serve]   %llu frames, %.1f frames/sec, p99 %.2f ms\n",
                 static_cast<unsigned long long>(result.stats.frames),
                 result.stats.frames_per_second, result.stats.frame.p99_ms);
  }

  int knee_offered = 0;
  if (sweep && levels.size() > 1) {
    const int knee = serve::find_knee(levels);
    if (knee >= 0) {
      levels[static_cast<std::size_t>(knee)].knee = true;
      knee_offered = levels[static_cast<std::size_t>(knee)].offered;
    }
  }

  // ---- human-readable summary ------------------------------------------
  std::printf("\nServing run — %s%s\n\n", spec->display_name.c_str(),
              aborted ? " — ABORTED, partial results" : "");
  if (sweep) {
    print_sweep(levels, knee_offered);
  } else if (!levels.empty()) {
    sim::ServeStats stats = last_stats;
    serve::FrontendResult printable;  // re-fold for the table helper
    printable.stats = stats;
    printable.aggregate = cells.back().aggregate;
    print_single_run(printable);
  }

  // ---- RunReport artifact ----------------------------------------------
  sim::EvalConfig eval_config;  // provenance fingerprint only
  eval_config.episodes =
      levels.empty() ? opts.session_levels.front() : levels.back().offered;
  eval_config.base_seed = opts.frontend.base_seed;
  eval_config.sim.frame_deadline_ms = opts.frontend.frame_deadline_ms;

  sim::RunReport report;
  report.meta = bench::report_meta("serve", last_workers, eval_config);
  report.meta.aborted = aborted;
  if (!levels.empty()) {
    sim::ServeStats stats = last_stats;
    if (sweep) {
      stats.levels = levels;
      stats.knee_offered = knee_offered;
    }
    report.serve = stats;
  }
  report.add_cells(cells);
  return bench::finish("bench_serve", report, opts.report);
}

}  // namespace

int main(int argc, char** argv) {
  using bench::above;
  using bench::at_least;

  ServeOptions opts;
  serve::FrontendConfig& fe = opts.frontend;
  fe.method.clear();  // resolved below: co, or il for batched inference
  bench::Flags flags("bench_serve");
  flags.list("--sessions", &opts.session_levels, "N[,N...]",
             "offered load level(s); a list sweeps them (default 8)",
             at_least(1))
      .value("--method", &fe.method, "KEY",
             "controller registry key (default co)")
      .value("--frame-deadline-ms", &fe.frame_deadline_ms, "X",
             "static per-frame budget [ms] (default: none)", above(0))
      .value("--capacity", &fe.admission.max_active, "N",
             "max active sessions (default 0 = unlimited)", at_least(0))
      .value("--queue-limit", &fe.admission.queue_limit, "N",
             "arrivals that may wait for a slot before shedding starts "
             "(default -1 = unbounded)")
      .value("--warmup-frames", &fe.warmup_frames, "N",
             "leading frames per session excluded from the latency "
             "percentiles (default 1)", at_least(0))
      .flag("--autotune-deadline", &fe.tuner.enabled,
            "tune each session's frame deadline from its rolling p99 frame "
            "latency")
      .value("--deadline-min-ms", &fe.tuner.min_ms, "X",
             "tuner clamp floor (default 5)", above(0))
      .value("--deadline-max-ms", &fe.tuner.max_ms, "X",
             "tuner clamp ceiling (default 200)", above(0))
      .value("--deadline-headroom", &fe.tuner.headroom, "X",
             "tuner target = X * rolling p99 (default 1.5)", above(0))
      .value("--time-limit", &fe.time_limit, "S",
             "per-episode simulated time limit [s] (default 60)", above(0))
      .choice("--difficulty", &fe.difficulty, "task level (default normal)",
              {{"easy", world::Difficulty::kEasy},
               {"normal", world::Difficulty::kNormal},
               {"hard", world::Difficulty::kHard}})
      .value("--threads", &fe.threads, "N",
             "pool workers (0 = hardware, capped at 16)", at_least(0))
      .value("--seed", &fe.base_seed, "S",
             "base seed; session i uses seed+i (default 1000)")
      .value("--report", &opts.report.path, "PATH",
             "write the RunReport JSON artifact")
      .flag("--quick", &opts.quick,
            "smoke mode: easy 6 s episodes (4 sessions unless --sessions)")
      .flag("--batch-inference", &fe.batch_inference,
            "batch IL forwards across sessions per tick (methods with a "
            "policy only; the default method becomes il)")
      .value("--max-batch", &fe.max_batch, "N",
             "cap one batched forward (default 32)", at_least(1));
  if (const int code = flags.parse(argc, argv); code != bench::Flags::kRun)
    return code;

  // The knee heuristic reads the rows as an offered-load-ascending curve.
  std::vector<int>& levels = opts.session_levels;
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  if (levels.empty()) levels = {opts.quick ? 4 : 8};

  if (opts.quick) {
    // Smoke settings: tiny interleaved run that needs no trained policy and
    // finishes in seconds. Explicit flags given alongside --quick still win
    // for method/deadline/sessions, but the episode shape is pinned.
    fe.difficulty = world::Difficulty::kEasy;
    fe.time_limit = 6.0;
  }

  // Batching only applies to policy-backed methods; when the user asked for
  // it without picking one, serve the IL baseline instead of erroring on
  // the (policy-less) co default.
  if (fe.method.empty()) fe.method = fe.batch_inference ? "il" : "co";

  bench::install_sigint_handler();
  return run_serve(opts);
}
