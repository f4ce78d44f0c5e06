#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cancel_token.hpp"
#include "core/controller.hpp"
#include "mission/traffic.hpp"
#include "sim/simulator.hpp"
#include "world/scenario.hpp"

namespace icoil::mission {

/// The task legs of a parking mission, in canonical order. Replans repeat
/// kCruiseToBay (and possibly kPark) with a new target bay; every completed
/// mission ends with the kExit leg.
enum class LegType {
  kEnterLot,    ///< remote spawn -> lot entrance
  kCruiseToBay, ///< entrance/aisle -> staging point of the claimed bay
  kPark,        ///< staging point -> parked inside the bay
  kDwell,       ///< parked, engine off; traffic keeps moving (no Session)
  kUnpark,      ///< bay -> staging point
  kExit,        ///< staging point -> back to the lot entrance/spawn
};

const char* to_string(LegType t);

/// How a leg ended. kReplanned means the leg was ABORTED because the
/// targeted bay's ledger claim was lost (rival steal or physical occupancy):
/// the Session was cut mid-episode, so the LegResult's `outcome` still holds
/// the running placeholder — `status` is authoritative.
enum class LegStatus { kCompleted, kReplanned, kFailed };

const char* to_string(LegStatus s);

/// Per-leg record inside a MissionResult.
struct LegResult {
  LegType type = LegType::kEnterLot;
  int target_bay = -1;             ///< bay pursued during this leg (-1 n/a)
  sim::Outcome outcome = sim::Outcome::kTimeout;
  LegStatus status = LegStatus::kCompleted;
  std::size_t frames = 0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;       ///< excluded from fingerprints
  double min_clearance = geom::kMaxClearance;
  int deadline_hits = 0;
};

/// Versioned so persisted results (RunReport mission rows hash over these)
/// stay comparable across revisions of the mission layer.
inline constexpr int kMissionResultVersion = 1;

/// Outcome of one full mission: the per-leg records plus mission-level
/// tallies. fingerprint() digests every outcome-bearing field and is the
/// value the determinism gates compare across TaskPool widths — wall-clock
/// fields are excluded by construction.
struct MissionResult {
  int version = kMissionResultVersion;
  std::string mission;             ///< MissionSpec::name
  std::string method;              ///< controller name
  std::uint64_t seed = 0;
  bool success = false;
  int replans = 0;
  int parked_bay = -1;
  double park_time = 0.0;          ///< mission seconds at end of kPark
  double exit_time = 0.0;          ///< mission seconds at end of kExit
  double wall_seconds = 0.0;       ///< excluded from fingerprint
  std::vector<LegResult> legs;

  std::uint64_t fingerprint() const;
};

/// Mission-level knobs layered over the per-leg SimConfig. Cruise legs
/// (enter, cruise-to-bay, unpark, exit) use relaxed arrival tolerances —
/// they end at waypoints the vehicle passes through, not at a parking fit;
/// the kPark leg uses the SimConfig's own (paper) tolerances.
struct MissionConfig {
  sim::SimConfig sim;
  double cruise_pos_tol = 0.9;
  double cruise_heading_tol = 0.7;
  double cruise_speed_tol = 2.0;   ///< cruise waypoints may be passed at speed
  double exit_heading_tol = 3.2;   ///< any heading counts as "left the lot"
};

/// A reusable mission template: scenario family + traffic cast + pacing.
struct MissionSpec {
  std::string name;
  std::string description;
  std::string generator = "multi_row_lot";
  world::GeneratorParams params;
  world::Difficulty difficulty = world::Difficulty::kNormal;
  TrafficScript traffic;
  double dwell_seconds = 3.0;      ///< kDwell duration
  double leg_time_limit = 45.0;    ///< per-leg sim-time budget [s]
  int max_replans = 3;             ///< mission fails beyond this many

  /// FNV-1a over every behaviour-affecting knob (generator, params, traffic
  /// cast, pacing) — the RunReport mission block records it so baselines
  /// never compare runs of different template revisions.
  std::uint64_t fingerprint() const;
};

/// Process-wide, string-keyed registry of mission templates — the mission
/// mirror of world::GeneratorRegistry. Built-ins (quiet_lot, contested_lot,
/// rush_hour) are seeded on first access; applications may add or replace
/// templates before evaluation starts.
class MissionRegistry {
 public:
  static MissionRegistry& instance();

  void add(MissionSpec spec);
  const MissionSpec* find(const std::string& name) const;
  /// Throws std::invalid_argument naming the known templates when unknown.
  const MissionSpec& at(const std::string& name) const;
  std::vector<std::string> names() const;
  std::size_t size() const { return specs_.size(); }

 private:
  MissionRegistry();  // seeds the built-in templates (templates.cpp)

  std::vector<MissionSpec> specs_;
};

/// Deterministic multi-leg mission runner. One Mission instance runs once:
/// it owns the persistent facts of the episode chain — the base scenario
/// (statics), the TrafficSimulator (agents + BayLedger), the ego state and
/// the elapsed mission clock — and chains each leg as a sim::Session over
/// them. Controllers are reset at each leg open (Session does it), so one
/// controller instance serves the whole mission but must not be shared
/// across concurrent missions.
class Mission {
 public:
  Mission(const MissionSpec& spec, std::uint64_t seed,
          MissionConfig config = {});

  /// Run the state machine to completion (or failure). `controller` drives
  /// every leg; `cancel`, when given, is polled each frame and aborts the
  /// mission with a failed leg (outcome kBudgetExceeded).
  MissionResult run(core::Controller& controller,
                    const core::CancelToken* cancel = nullptr);

  const world::Scenario& base_scenario() const { return base_; }
  const TrafficSimulator& traffic() const { return traffic_; }
  /// Mission clock after the last (or mid-failure final) leg.
  double elapsed() const { return elapsed_; }

  /// The per-leg scenarios of the last run (driving legs only, in order):
  /// statics + traffic roster frozen at leg start, goal_pose set to the
  /// leg's goal. The curriculum's mission expander records expert episodes
  /// from these.
  const std::vector<world::Scenario>& leg_scenarios() const {
    return leg_scenarios_;
  }

 private:
  /// Runs one driving leg; advances ego_ / elapsed_. `monitor_bay` >= 0
  /// aborts with kReplanned when the ego's ledger claim on it is lost.
  LegResult run_leg(LegType type, int target_bay, const geom::Pose2& goal,
                    int monitor_bay, core::Controller& controller,
                    const core::CancelToken* cancel);
  /// Dwell: steps traffic over a fresh world without a Session.
  LegResult run_dwell();
  /// Nearest ledger-free bay by staging-point distance from the ego
  /// (tie-break: lower index); -1 when the lot is full.
  int pick_bay() const;
  sim::SimConfig leg_config(LegType type) const;

  MissionSpec spec_;
  std::uint64_t seed_;
  MissionConfig config_;
  world::Scenario base_;                   ///< statics only, remote start
  std::vector<world::Obstacle> statics_;   ///< base_.obstacles (scripted
                                           ///< dynamics stripped)
  TrafficSimulator traffic_;
  vehicle::State ego_;
  double elapsed_ = 0.0;                   ///< mission sim-clock [s]
  int ordinal_ = 0;                        ///< legs opened so far (seed salt)
  std::vector<world::Scenario> leg_scenarios_;
};

/// Registers the sim::Curriculum mission-leg expander: "mission:<name>"
/// curriculum entries expand into the driving-leg scenarios of a CO-driven
/// run of that template, with the traffic frozen at each leg's start. Call
/// once at startup in binaries that train from mission curricula.
void install_curriculum_expander();

}  // namespace icoil::mission
