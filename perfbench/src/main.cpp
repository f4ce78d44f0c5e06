// The repository benchmark program. One process runs one workload:
//
//   perfbench --prepare [--policy-dir DIR] [--cache-dir DIR]
//       finds the benchmark's IL policy (trains it when no file matches
//       its spec)
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--policy-dir DIR] [--cache-dir DIR] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same untraced pass, then replays exactly the same work through
// the traced controllers, checks that every outcome matches bit for bit
// and that the spans account for each frame timed from outside them, and
// reports the per-layer metrics. The last line of stdout
// is one JSON object {correct, attempted, failed, metrics}; the exit code
// is nonzero when a correctness check fails.

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::PassResult;
using perfbench::Percentile;

const auto kProcessStart = std::chrono::steady_clock::now();

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"frame_p50_ms", "ms"},
    {"frame_p99_ms", "ms"},
    {"frames_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.overhead_ms_per_frame", "ms"},
    {"sim.success_ratio", "ratio"},
    {"sim.collision_ratio", "ratio"},
    {"sim.park_time_s", "s"},
    {"core.first_command_p50_ms", "ms"},
    {"core.act_ms_per_frame", "ms"},
    {"core.hsa_ms", "ms"},
    {"core.il_frame_fraction", "ratio"},
    {"core.mode_switches_per_episode", "count"},
    {"co.plan_ms", "ms"},
    {"co.plan_expansions", "count"},
    {"co.trajopt_ms", "ms"},
    {"co.trajopt_calls", "count"},
    {"co.trajopt_ok_ratio", "ratio"},
    {"co.active_obstacle_rows", "count"},
    {"mathkit.qp_iterations_per_solve", "count"},
    {"sensing.bev_ms", "ms"},
    {"sensing.detect_ms", "ms"},
    {"il.infer_ms", "ms"},
    {"il.batch_forward_ms_per_tick", "ms"},
    {"il.mean_batch", "count"},
    {"il.gather_scatter_ms_per_tick", "ms"},
    {"mission.legs_per_mission", "count"},
    {"mission.replans_per_mission", "count"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"trace.untraced_frames_per_s", "1/s"},
    {"trace.traced_frames_per_s", "1/s"},
    {"trace.overhead_pct", "%"},
};

constexpr int kSetupRepetitions = 3;
/// A frame's residual (its time that no span accounts for) may be at most
/// this many times the calibrated cost of recording its spans and of the
/// outside timer: the tracing overhead of that frame.
constexpr double kAccountingSlack = 4.0;
/// Share of frames whose residual may exceed that: a frame preempted or
/// interrupted between the outside timer and its first span, which a
/// shared host does now and then. Spans that miss part of the frame's work
/// fail nearly every frame instead.
constexpr double kAccountingOutlierShare = 0.01;
constexpr std::size_t kMaxTraceSpans = 100000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  perfbench::Dirs dirs;
  std::string trace_out;
  bool prepare = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--policy-dir DIR] [--cache-dir DIR]\n"
               "                 [--trace-out FILE]\n"
               "       perfbench --prepare [--policy-dir DIR] [--cache-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") a.workload = value();
      else if (arg == "--seed") a.seed = std::stoull(value());
      else if (arg == "--seconds") a.seconds = std::stod(value());
      else if (arg == "--trace") a.trace = std::stoi(value());
      else if (arg == "--policy-dir") a.dirs.policy = value();
      else if (arg == "--cache-dir") a.dirs.cache = value();
      else if (arg == "--trace-out") a.trace_out = value();
      else if (arg == "--prepare") a.prepare = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (a.prepare) return a;
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds out of range");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_percentile(const char* name, const Percentile& p) {
  std::printf("  %-22s %12.4f ms   (n=%zu, %zu above)\n", name, p.value,
              p.samples, p.beyond);
}

/// Outcome ratios of one pass, printed with every run.
void print_outcomes(const PassResult& p) {
  std::printf("  %-22s %12.4f      (%d of %d finished; %d attempted)\n",
              "success_ratio", ratio(p.succeeded, p.finished), p.succeeded,
              p.finished, p.attempted);
  std::printf("  %-22s %12.4f      (%d of %d finished)\n", "collision_ratio",
              ratio(p.collided, p.finished), p.collided, p.finished);
  std::printf("  %-22s %12.4f s    (mean over %d parked)\n", "park_time_s",
              ratio(p.park_time_sum, p.parked), p.parked);
  for (const std::string& note : p.notes) std::printf("  %s\n", note.c_str());
}

/// Per-layer metrics of a traced pass: span-derived ones here, the rest
/// from the workload's own layer map; layers the workload never calls
/// report 0.
std::map<std::string, double> layer_metrics(const PassResult& untraced,
                                            const PassResult& traced) {
  std::map<std::string, double> m = traced.layer;
  const auto total = [&](const char* name) {
    const auto it = traced.totals.find(name);
    return it == traced.totals.end() ? 0.0 : it->second.total_ms;
  };
  const auto count = [&](const char* name) {
    const auto it = traced.totals.find(name);
    return it == traced.totals.end() ? 0.0
                                     : static_cast<double>(it->second.count);
  };
  const auto per_call = [&](const char* name) {
    return ratio(total(name), count(name));
  };
  const double frames = static_cast<double>(traced.frames);
  m["core.act_ms_per_frame"] = ratio(
      total("core.act") + total("core.stage") + total("core.commit"), frames);
  m["core.hsa_ms"] = ratio(total("core.hsa_push") + total("core.mode_update"),
                           count("core.hsa_push"));
  m["co.plan_ms"] = per_call("co.plan");
  m["co.trajopt_ms"] = per_call("co.trajopt");
  m["sensing.bev_ms"] = ratio(total("sensing.bev_render") + total("sensing.noise"),
                              count("sensing.bev_render"));
  m["sensing.detect_ms"] = per_call("sensing.detect");
  m["il.infer_ms"] = per_call("il.infer");
  m["sim.success_ratio"] = ratio(traced.succeeded, traced.finished);
  m["sim.collision_ratio"] = ratio(traced.collided, traced.finished);
  m["sim.park_time_s"] = ratio(traced.park_time_sum, traced.parked);
  m["core.first_command_p50_ms"] = untraced.first_frame_p50.value;
  m["trace.untraced_frames_per_s"] = untraced.frames_per_s;
  m["trace.traced_frames_per_s"] = traced.frames_per_s;
  m["trace.overhead_pct"] =
      100.0 * (ratio(untraced.frames_per_s, traced.frames_per_s) - 1.0);
  for (const MetricDef& def : kPerLayer) m.emplace(def.name, 0.0);
  return m;
}

void print_safety_stops(const PassResult& p) {
  if (p.safety_stops > 0)
    std::printf("  note: %d work units hit the wall-clock safety stop before "
                "their frame budget; this run did less work than a budgeted "
                "one and does not compare\n",
                p.safety_stops);
}

/// Checks that the spans inside each frame account for the frame's time
/// measured from outside them, within the frame's tracing overhead.
void check_frame_accounting(const PassResult& traced, double span_cost_us,
                            std::vector<std::string>& problems) {
  if (traced.frame_windows.empty()) {
    std::printf("  frame accounting: not timed from outside in this workload\n");
    return;
  }
  const perfbench::FrameAccounting a = perfbench::account_frames(
      traced.tracers.front()->spans(), traced.frame_windows,
      kAccountingSlack * span_cost_us);
  const double frames = static_cast<double>(a.frames);
  std::printf("  frame accounting: %zu frames timed from outside, %zu spans "
              "inside; unaccounted %.3f us per frame (worst %.1f us, %.4f%% "
              "of frame time); span cost %.4f us calibrated; %zu frames over "
              "%.0fx that cost\n",
              a.frames, a.spans, 1000.0 * a.residual_ms / frames,
              a.worst_residual_us, 100.0 * ratio(a.residual_ms, a.frame_ms),
              span_cost_us, a.over, kAccountingSlack);
  if (a.negative > 0)
    problems.push_back(std::to_string(a.negative) +
                       " frames whose spans exceed the frame time");
  if (a.straddling > 0)
    problems.push_back(std::to_string(a.straddling) +
                       " spans cross a frame boundary");
  if (static_cast<double>(a.over) > kAccountingOutlierShare * frames)
    problems.push_back(std::to_string(a.over) + " of " +
                       std::to_string(a.frames) +
                       " frames hold time their spans do not account for");
}

void print_json(bool correct, int attempted, int failed,
                const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.name, metrics[i].second,
                metrics[i].first.unit);
  std::printf("}}\n");
}

int run(const Args& args) {
  using Table = std::span<const MetricDef>;
  for (const Table table : {Table(kEndToEnd), Table(kPerLayer)})
    for (const MetricDef& def : table)
      if (!perfbench::valid_metric_name(def.name)) {
        std::fprintf(stderr, "perfbench: invalid metric name %s\n", def.name);
        return 3;
      }

  auto workload = perfbench::make_workload(args.workload, args.seed, args.dirs);

  // Set-up, repeated: the first repetition counts from process start and
  // fills the process-wide caches; the others redo the same work cold.
  std::vector<double> setups;
  workload->setup(true);
  setups.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - kProcessStart)
                       .count());
  for (int i = 1; i < kSetupRepetitions; ++i)
    setups.push_back(workload->setup(false));
  const double setup_s = perfbench::median(setups);

  const auto policy = perfbench::bench_policy_options(args.dirs);
  std::printf("perfbench %s: seed %" PRIu64 ", %.1f s, trace %d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace);
  std::printf("  policy %s (spec fingerprint %016" PRIx64
              ", weights digest %016" PRIx64 ")\n",
              icoil::sim::policy_cache_path(policy).c_str(),
              icoil::sim::policy_fingerprint(policy),
              perfbench::policy_weights_digest(args.dirs));
  std::printf("  %-22s %12.4f s    (median of %d set-ups)\n", "setup_s",
              setup_s, kSetupRepetitions);

  std::vector<std::string> problems;
  std::vector<std::pair<MetricDef, double>> metrics;
  int attempted = 0, failed = 0;

  if (args.trace == 0) {
    const PassResult p = workload->run(args.seconds, nullptr, false);
    problems = p.invalid;
    attempted = p.attempted;
    failed = p.failed;
    print_percentile("frame_p50_ms", p.frame_p50);
    print_percentile("frame_p99_ms", p.frame_p99);
    print_percentile("first_frame_p50_ms", p.first_frame_p50);
    std::printf("  %-22s %12.4f 1/s  (%d x %" PRIu64 " frames in %.3f s)\n",
                "frames_per_s", p.frames_per_s, p.repetitions, p.frames,
                p.wall_s);
    print_outcomes(p);
    const double rss = perfbench::peak_rss_mb();
    std::printf("  %-22s %12.4f MiB\n", "peak_rss_mb", rss);
    const double values[] = {setup_s, p.frame_p50.value, p.frame_p99.value,
                             p.frames_per_s, rss};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
      metrics.emplace_back(kEndToEnd[i], values[i]);
    if (p.frame_p99.beyond < 10)
      std::printf("  note: frame_p99_ms has only %zu samples above it\n",
                  p.frame_p99.beyond);
    print_safety_stops(p);
  } else {
    const PassResult u = workload->run(args.seconds, nullptr, false);
    const double span_cost_us = perfbench::calibrate_span_cost_us();
    const PassResult t = workload->run(0.0, &u.plan, true);
    problems = u.invalid;
    problems.insert(problems.end(), t.invalid.begin(), t.invalid.end());
    if (t.digests != u.digests)
      problems.push_back("traced run did not reproduce the untraced outcomes");
    if (t.frames != u.frames)
      problems.push_back("traced run served a different number of frames");
    attempted = t.attempted;
    failed = t.failed;
    std::printf("  untraced %" PRIu64 " frames at %.2f/s, traced replay at "
                "%.2f/s (tracing overhead %.2f%%); %zu work units reproduced "
                "%s\n",
                u.frames, u.frames_per_s, t.frames_per_s,
                100.0 * (ratio(u.frames_per_s, t.frames_per_s) - 1.0),
                u.digests.size(),
                t.digests == u.digests ? "bit for bit" : "WITH MISMATCHES");
    check_frame_accounting(t, span_cost_us, problems);
    print_safety_stops(u);
    print_outcomes(t);
    const auto layer = layer_metrics(u, t);
    for (const MetricDef& def : kPerLayer) {
      const double v = layer.at(def.name);
      std::printf("  %-34s %14.5f %s\n", def.name, v, def.unit);
      metrics.emplace_back(def, v);
    }
    if (!args.trace_out.empty()) {
      std::vector<const perfbench::Tracer*> tracers;
      for (const auto& tr : t.tracers) tracers.push_back(tr.get());
      if (perfbench::write_chrome_trace(args.trace_out, tracers, kMaxTraceSpans))
        std::printf("  trace written to %s\n", args.trace_out.c_str());
      else
        problems.push_back("could not write the trace file");
    }
  }

  if (attempted < 1) problems.push_back("the run drove no episode or leg");
  for (const auto& [def, v] : metrics)
    if (!std::isfinite(v)) problems.push_back(std::string("non-finite ") + def.name);
  for (const std::string& p : problems)
    std::printf("  CHECK FAILED: %s\n", p.c_str());
  const bool correct = problems.empty();
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.prepare) {
      const std::uint64_t fp = perfbench::prepare_policy(args.dirs);
      std::printf("policy ready (spec fingerprint %016" PRIx64
                  ", weights digest %016" PRIx64 ")\n",
                  fp, perfbench::policy_weights_digest(args.dirs));
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}
