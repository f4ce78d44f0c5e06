#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/latency_histogram.hpp"
#include "sim/evaluator.hpp"

namespace icoil::sim {

/// Schema version written into every report; the loader rejects documents
/// from the future and fills defaults for fields added since an old one.
/// v1: meta + cells + optional serve/collision/planner blocks.
/// v2: adds the optional `mission` block (bench_mission); v1 documents
///     still load — they simply have no mission stats.
inline constexpr int kRunReportSchemaVersion = 2;

/// Escapes `"` `\` and control characters for embedding in a JSON string
/// literal (the one escaping routine every JSON we emit goes through).
std::string json_escape(const std::string& s);

/// Fingerprint of the EvalConfig knobs that determine episode outcomes
/// (episodes, base seed, sim dt and goal tolerances — NOT thread counts,
/// which never change results). Two reports are outcome-comparable only if
/// their fingerprints match.
std::uint64_t config_fingerprint(const EvalConfig& config);

/// Strict unsigned parse of outside input (report fields, CLI flags): one or
/// more digits of `base` (10 or 16) and nothing else — no sign, whitespace,
/// prefix or trailing junk — and no overflow. `out` is untouched on failure.
bool parse_u64(const std::string& text, int base, std::uint64_t* out);

/// The git description of the build ("v1.2-3-gabcdef" / "abcdef-dirty"),
/// stamped at configure time; "unknown" outside a git checkout.
std::string build_git_describe();

/// Run-level metadata: enough to tell whether two reports are comparable
/// and where a regression came from.
struct RunReportMeta {
  int schema_version = kRunReportSchemaVersion;
  std::string suite;                 ///< suite name ("table2", "zoo", ...)
  std::string git_describe;          ///< build stamp (build_git_describe())
  int threads = 0;                   ///< resolved worker count of the run
  int episodes_per_cell = 0;
  std::uint64_t base_seed = 0;
  std::uint64_t config_fingerprint = 0;  ///< sim::config_fingerprint
  /// True when the run was cut short (e.g. a SIGINT tripping the abort
  /// token): the document is a valid but PARTIAL record — cells evaluated
  /// after the abort carry kBudgetExceeded episodes, not real outcomes.
  bool aborted = false;
};

/// One recorded episode (optional detail; off by default to keep reports
/// small and diffable).
struct EpisodeRecord {
  std::string outcome;               ///< sim::to_string(Outcome)
  double park_time = 0.0;
  double min_clearance = 0.0;
  double il_fraction = 0.0;
  int mode_switches = 0;
  int deadline_hits = 0;             ///< frames degraded by a frame deadline
};

/// One (cell, method) aggregate row of a run.
struct CellRecord {
  std::string label;                 ///< cell display label
  std::string method;
  std::string generator;
  int episodes = 0;
  int successes = 0;
  int collisions = 0;
  int timeouts = 0;
  int budget_exceeded = 0;
  int deadline_hits = 0;             ///< total degraded frames in the cell
  double success_ratio = 0.0;
  double park_time_mean = 0.0;
  double park_time_min = 0.0;
  double park_time_max = 0.0;
  double park_time_stddev = 0.0;
  double il_fraction_mean = 0.0;
  double min_clearance_mean = 0.0;
  std::vector<EpisodeRecord> episode_records;  ///< empty unless requested
};

/// Version of the `serve` block inside a report. v1 carried flat
/// frame_p50_ms/p99/max scalars and no admission fields; v2 carries
/// core::LatencySummary digests (frame/queue/warmup), admission counters,
/// tuned-deadline stats and the per-load-level sweep rows. The loader
/// still reads v1 blocks (legacy scalars land in the frame summary).
inline constexpr int kServeStatsVersion = 2;

/// One row of a saturation sweep (`bench_serve --sessions 1,10,100,...`):
/// the headline numbers of one load level, offered load ascending.
struct ServeLoadLevel {
  int offered = 0;                   ///< sessions offered at this level
  int admitted = 0;                  ///< sessions actually served
  int shed = 0;                      ///< sessions dropped by admission
  std::uint64_t frames = 0;          ///< frames served (incl. warmup)
  double wall_seconds = 0.0;
  double frames_per_second = 0.0;
  double frame_p50_ms = 0.0;         ///< warmup-excluded frame latency
  double frame_p99_ms = 0.0;
  double queue_p99_ms = 0.0;         ///< admission queue-time tail
  int deadline_hits = 0;
  bool knee = false;                 ///< the identified saturation knee row
};

/// Serving-workload metrics of one serve::Frontend run: N concurrent
/// stepwise sessions interleaved on one pool behind admission control, each
/// step() timed as one served frame.
struct ServeStats {
  /// Batched-inference service counters (il::BatchStats), recorded when the
  /// run used --batch-inference: tick/batch shape plus where the service's
  /// time went (the shared forwards vs the gather/scatter around them).
  struct Batching {
    std::uint64_t ticks = 0;        ///< service ticks that had work
    std::uint64_t requests = 0;     ///< observations batched
    std::uint64_t batches = 0;      ///< batched forward passes
    std::uint64_t max_batch = 0;    ///< largest single forward batch
    double mean_batch = 0.0;        ///< requests / batches
    double gather_seconds = 0.0;    ///< observation packing overhead
    double forward_seconds = 0.0;   ///< shared batched forwards
    double scatter_seconds = 0.0;   ///< result unpacking overhead
  };

  /// serve::DeadlineTuner provenance + what it actually applied: the config
  /// echo plus min/mean/max over every deadline the tuner handed a session.
  struct Tuning {
    double min_ms = 0.0;            ///< configured clamp floor
    double max_ms = 0.0;            ///< configured clamp ceiling
    double headroom = 0.0;          ///< configured p99 multiplier
    int window = 0;                 ///< configured rolling-window length
    double deadline_min_ms = 0.0;   ///< tightest deadline ever applied
    double deadline_mean_ms = 0.0;  ///< mean applied deadline
    double deadline_max_ms = 0.0;   ///< loosest deadline ever applied
  };

  int version = kServeStatsVersion;
  std::string method;                ///< controller registry key
  int sessions = 0;                  ///< sessions offered (== offered)
  int threads = 0;                   ///< pool worker count
  int offered = 0;                   ///< arrivals offered to admission
  int admitted = 0;                  ///< arrivals served (now or from queue)
  int queued = 0;                    ///< admitted arrivals that had to wait
  int shed = 0;                      ///< arrivals dropped (queue full)
  std::uint64_t frames = 0;          ///< total frames served (incl. warmup)
  double wall_seconds = 0.0;
  double frames_per_second = 0.0;
  core::LatencySummary frame;        ///< per-frame latency, warmup excluded
  core::LatencySummary queue;        ///< admission queue time per admission
  core::LatencySummary warmup;       ///< cold-start frames, kept separately
  int warmup_frames_per_session = 0; ///< leading frames classed as warmup
  double frame_deadline_ms = 0.0;    ///< configured static budget (0 = none)
  int deadline_hits = 0;             ///< frames degraded by a frame budget
  std::optional<Tuning> tuning;      ///< present when autotuning ran
  std::optional<Batching> batching;  ///< present for --batch-inference runs
  std::vector<ServeLoadLevel> levels;  ///< sweep rows (empty for one level)
  int knee_offered = 0;              ///< offered load at the saturation
                                     ///< knee; 0 = none identified
};

/// Version of the `collision` block inside a report.
inline constexpr int kCollisionStatsVersion = 1;

/// One density level of the collision-backend ablation (bench_collision):
/// static-query rate for both backends, mean episode wall time, the
/// grid backend's conservative clearance error, and whether episode
/// verdicts matched the analytic backend seed-for-seed.
struct CollisionDensityRow {
  double density = 1.0;              ///< crowded_lot clutter multiplier
  int obstacles = 0;                 ///< static obstacles in the sampled world
  double analytic_qps = 0.0;         ///< clearance+collision queries / second
  double grid_qps = 0.0;
  double speedup = 0.0;              ///< grid_qps / analytic_qps
  double analytic_episode_seconds = 0.0;  ///< mean episode wall time
  double grid_episode_seconds = 0.0;
  double clearance_err_mean = 0.0;   ///< analytic minus grid clearance [m]
  double clearance_err_max = 0.0;
  int episodes = 0;                  ///< episodes run per backend
  bool verdicts_match = true;        ///< identical outcomes per seed
};

/// Collision-backend ablation metrics of one bench_collision run.
struct CollisionStats {
  int version = kCollisionStatsVersion;
  std::string generator;             ///< scenario family swept
  double grid_resolution = 0.0;      ///< [m]
  std::vector<CollisionDensityRow> rows;  ///< density ascending
};

/// Version of the `mission` block inside a report.
inline constexpr int kMissionStatsVersion = 1;

/// One (mission template, method) aggregate row of a bench_mission run:
/// multi-leg mission outcomes over a fixed seed set. The fingerprints make
/// rows self-describing: `spec_fingerprint` identifies the template revision
/// the numbers were measured on (baselines refuse to compare across template
/// edits), `result_fingerprint` digests every per-mission result fingerprint
/// in seed order — two runs of the same build, seeds and template produce
/// the same value regardless of thread count.
struct MissionTemplateRow {
  std::string mission;               ///< template name (quiet_lot, ...)
  std::string method;                ///< controller registry key
  int missions = 0;                  ///< missions attempted
  int succeeded = 0;                 ///< full enter->park->exit successes
  double success_ratio = 0.0;
  int legs = 0;                      ///< total legs opened (incl. aborted)
  double legs_per_mission = 0.0;
  int replans = 0;                   ///< bay-contention retargets
  double replans_per_mission = 0.0;
  int collisions = 0;                ///< legs ended by a collision
  int timeouts = 0;                  ///< legs ended by the leg time limit
  double park_time_p50 = 0.0;        ///< mission seconds to end of kPark
  double park_time_p95 = 0.0;        ///< (successful missions only)
  double exit_time_p50 = 0.0;        ///< mission seconds to end of kExit
  double exit_time_p95 = 0.0;
  double wall_seconds_mean = 0.0;    ///< mean wall clock per mission
  std::uint64_t spec_fingerprint = 0;    ///< mission::MissionSpec digest
  std::uint64_t result_fingerprint = 0;  ///< FNV over per-mission results
};

/// Mission-benchmark metrics of one bench_mission run.
struct MissionStats {
  int version = kMissionStatsVersion;
  std::vector<MissionTemplateRow> rows;  ///< template-major, method-minor
};

inline constexpr int kPlannerStatsVersion = 1;

/// One (family, density, planner) row of the planner bench (bench_planner):
/// hybrid-A* wall time and search-effort counters over a fixed seed set,
/// plus the deadline-hit count of an optional budgeted pass. `speedup` is
/// the legacy planner's mean plan time on the same (family, density)
/// divided by this row's; the legacy row itself leaves it 0.
struct PlannerFamilyRow {
  std::string generator;
  double density = 1.0;          ///< generator clutter multiplier
  std::string heuristic;         ///< planner name: "max" or "legacy"
  int plans = 0;                 ///< scenarios attempted
  int solved = 0;
  double plan_ms_mean = 0.0;
  double plan_ms_max = 0.0;
  double expansions_mean = 0.0;  ///< nodes popped per plan
  double rs_shots_mean = 0.0;    ///< analytic expansions tried per plan
  double path_cost_mean = 0.0;   ///< solution cost (g + analytic tail) per solved plan
  double speedup = 0.0;          ///< legacy plan_ms_mean / this row's
  double deadline_ms = 0.0;      ///< budgeted pass frame deadline (0 = off)
  int deadline_hits = 0;         ///< budgeted plans that tripped the frame
};

/// Planner bench metrics of one bench_planner run.
struct PlannerStats {
  int version = kPlannerStatsVersion;
  std::vector<PlannerFamilyRow> rows;  ///< family-major, planner-minor
};

/// A versioned, machine-readable record of one bench/suite run: run
/// metadata plus per-(cell, method) aggregates, optional per-episode
/// records, and (for serving runs) the ServeStats block. Writer AND loader
/// live here so a committed reference report can gate CI (see
/// compare_to_baseline). Both walk one field table per record type in
/// report.cpp, so a new field is one line there. Loading rejects malformed
/// unsigned values, block versions newer than this build and non-object
/// rows; missing keys load as defaults.
struct RunReport {
  RunReportMeta meta;
  std::vector<CellRecord> cells;
  std::optional<ServeStats> serve;   ///< present for bench_serve runs
  std::optional<CollisionStats> collision;  ///< bench_collision runs
  std::optional<PlannerStats> planner;      ///< bench_planner runs
  std::optional<MissionStats> mission;      ///< bench_mission runs

  /// Appends one aggregate row per suite cell for `results`; call once per
  /// method when a run covers several.
  void add_cells(const std::vector<SuiteCellResult>& results);
  /// Same, with the per-episode records from `detailed` attached. `results`
  /// must be the aggregates of exactly those episodes (cell-for-cell) —
  /// passing them in keeps the fold in one place so table and artifact
  /// cannot disagree.
  void add_cells_detailed(const std::vector<SuiteCellResult>& results,
                          const std::vector<SuiteCellEpisodes>& detailed);

  std::string to_json() const;
  bool save(const std::string& path, std::string* error = nullptr) const;
  static bool parse(const std::string& json, RunReport* out,
                    std::string* error = nullptr);
  static bool load(const std::string& path, RunReport* out,
                   std::string* error = nullptr);
};

/// What compare_to_baseline tolerates before calling a change a regression.
struct BaselineTolerance {
  /// Allowed absolute drop in per-cell success ratio.
  double success_drop = 0.02;
  /// Allowed relative increase in mean park time over successful episodes.
  double park_time_slowdown = 0.10;
  /// Allowed absolute drop in per-template mission success ratio.
  double mission_success_drop = 0.02;
  /// Allowed absolute change (either direction) in replans per mission: a
  /// contested template that stops forcing replans is as broken as one that
  /// starts thrashing.
  double mission_replan_delta = 0.5;
};

/// Outcome of comparing a fresh report against a committed baseline.
struct BaselineVerdict {
  bool ok = true;
  std::vector<std::string> failures;  ///< per-cell regression reasons
  std::vector<std::string> notes;     ///< non-fatal observations

  std::string summary() const;
};

/// Compares `current` against `baseline` cell by cell (matched on
/// method + label). Regressions: a baseline cell missing from the current
/// run, a success-ratio drop beyond tolerance, or a park-time slowdown
/// beyond tolerance. Mismatched config fingerprints are flagged as a note
/// (the numbers may legitimately differ). Mission rows (matched on template
/// + method) also fail on a moved `result_fingerprint` when the template and
/// config fingerprints both match: outcomes must then be bit-identical.
BaselineVerdict compare_to_baseline(const RunReport& current,
                                    const RunReport& baseline,
                                    const BaselineTolerance& tolerance = {});

}  // namespace icoil::sim
