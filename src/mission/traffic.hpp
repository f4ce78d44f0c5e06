#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/pose2.hpp"
#include "mathkit/rng.hpp"
#include "world/map.hpp"
#include "world/obstacle.hpp"
#include "world/world.hpp"

namespace icoil::mission {

/// Intent half of bay contention: who has CLAIMED each bay, independent of
/// who is physically inside it (world::World::bay_occupied answers that).
/// The ego and traffic cruisers claim before maneuvering, so the mission
/// state machine can detect "my target was taken" one leg early instead of
/// discovering a parked car at the bay mouth. Single-threaded by design —
/// all mutation happens inside the simulation loop (the TrafficSimulator
/// step and the Mission's between-frame checks), never from pool workers.
class BayLedger {
 public:
  static constexpr int kFree = -1;         ///< no claim
  static constexpr int kStaticOwner = -2;  ///< parked car from the scenario
  static constexpr int kEgoOwner = 0;      ///< the mission's ego vehicle

  explicit BayLedger(std::size_t bays) : owners_(bays, kFree) {}

  std::size_t size() const { return owners_.size(); }
  int owner_of(std::size_t bay) const { return owners_[bay]; }
  bool is_free(std::size_t bay) const { return owners_[bay] == kFree; }

  /// Claim `bay` for `owner`. Succeeds when the bay is free or already held
  /// by the same owner; a held bay is NOT taken over (see steal).
  bool claim(std::size_t bay, int owner) {
    if (owners_[bay] != kFree && owners_[bay] != owner) return false;
    owners_[bay] = owner;
    return true;
  }

  /// Forcibly take `bay` for `owner`; returns the evicted owner (kFree when
  /// the bay was unclaimed). Rival agents use this to trigger ego replans.
  int steal(std::size_t bay, int owner) {
    const int prev = owners_[bay];
    owners_[bay] = owner;
    return prev;
  }

  /// Release `bay` if (and only if) `owner` holds it.
  void release(std::size_t bay, int owner) {
    if (owners_[bay] == owner) owners_[bay] = kFree;
  }

 private:
  std::vector<int> owners_;
};

/// One behaviour-driven traffic participant. Cruisers follow a closed route
/// loop, yield to the ego, and may pull into free bays (claiming them in the
/// BayLedger first); a `rival` cruiser steals the ego's claimed bay at the
/// script's rival_claim_time, forcing a deterministic replan. Pedestrians
/// wait at one end of a two-point route and cross when the ego enters their
/// trigger zone.
struct TrafficAgentSpec {
  enum class Kind { kCruiser, kPedestrian };

  Kind kind = Kind::kCruiser;
  std::string name;                ///< roster name becomes "traffic_<name>"
  double speed = 1.2;              ///< cruise / walk speed [m/s]
  double half_length = 2.1;
  double half_width = 0.9;
  /// Cruiser: closed loop polyline (last point connects back to the first).
  /// Pedestrian: exactly two points, the crossing's end posts.
  std::vector<geom::Vec2> route;
  double start_offset = 0.0;       ///< metres along the route at t = 0
  double bay_claim_prob = 0.0;     ///< cruiser: chance to park at a passed bay
  double dwell_seconds = 6.0;      ///< cruiser: parked time before pulling out
  bool rival = false;              ///< steals the ego's bay (see TrafficScript)
  geom::Aabb trigger;              ///< pedestrian: ego-inside-this fires a cross
  double cooldown_seconds = 20.0;  ///< min time between parks / crossings
};

/// The full traffic cast of one mission template.
struct TrafficScript {
  std::vector<TrafficAgentSpec> agents;
  /// World time at which a rival agent steals the ego's claimed bay; < 0
  /// disables the steal. The steal fires once per mission.
  double rival_claim_time = -1.0;
};

/// Steps a TrafficScript inside the simulation loop as a world::WorldDriver.
/// Determinism contract: behaviour depends only on (world time, ego pose
/// fed through set_ego, bay occupancy, the agent's own seeded RNG stream) —
/// never on wall-clock or thread scheduling — so the same seed replays
/// bit-for-bit at any TaskPool width.
class TrafficSimulator final : public world::WorldDriver {
 public:
  TrafficSimulator(TrafficScript script, const world::ParkingLotMap& map,
                   std::uint64_t seed);

  /// Obstacle roster entries for the agents (driven = true, shapes at the
  /// agents' CURRENT poses), ids starting at `first_id`. Mission legs append
  /// this to the scenario statics each time they open a Session.
  std::vector<world::Obstacle> roster(int first_id) const;

  /// Resolve agent -> obstacle indices in `world`'s scenario (by roster
  /// name) and attach as its driver; poses apply immediately (dt = 0 step).
  void attach(world::World& world);

  /// world::WorldDriver: advance behaviours by dt (dt = 0 re-applies poses
  /// without advancing) and push every agent pose into the world.
  void step(world::World& world, double dt) override;

  /// Ego pose feedback, fed once per frame by the mission loop (after the
  /// vehicle integrates, so agents react with a one-frame lag — fixed and
  /// deterministic). Yield checks and pedestrian triggers read it.
  void set_ego(const geom::Pose2& pose) {
    ego_ = pose;
    have_ego_ = true;
  }

  BayLedger& ledger() { return ledger_; }
  const BayLedger& ledger() const { return ledger_; }

  std::size_t agent_count() const { return agents_.size(); }
  const geom::Pose2& agent_pose(std::size_t i) const { return agents_[i].pose; }
  /// True once the script's rival steal has fired.
  bool rival_fired() const { return rival_fired_; }

  /// FNV-1a digest of every agent's kinematic+behavioural state plus the
  /// ledger — the traffic half of MissionResult::fingerprint().
  std::uint64_t state_fingerprint() const;

  /// Staging pose at the mouth of bay `bay`: where a vehicle pauses in the
  /// aisle before reversing in, facing along the bay opening direction.
  /// Shared by traffic pull-ins and the mission's CruiseToBay goal.
  static geom::Pose2 bay_staging_pose(const world::ParkingLotMap& map,
                                      std::size_t bay);

 private:
  enum class Phase { kCruise, kPullIn, kParked, kPullOut, kWait, kCross };

  struct Agent {
    TrafficAgentSpec spec;
    math::Rng rng;
    Phase phase = Phase::kCruise;
    geom::Pose2 pose;
    geom::Vec2 velocity;
    double arc = 0.0;       ///< cruiser: metres along the closed route
    double route_len = 0.0; ///< cruiser: closed-loop perimeter
    int bay = -1;           ///< cruiser: bay claimed/occupied (-1 none)
    int considered_bay = -1;///< cruiser: last bay the claim dice rolled for
    double timer = 0.0;     ///< dwell countdown
    double cooldown = 0.0;  ///< park/cross cooldown countdown
    double return_arc = 0.0;///< cruiser: loop position to resume after a park
    int cross_dir = 0;      ///< pedestrian: resting end (0 = route[0])
    /// Piecewise-linear maneuver (pull-in/out, pedestrian cross): waypoint
    /// poses and the cumulative time at which each is reached.
    std::vector<geom::Pose2> path;
    std::vector<double> path_t;
    double path_clock = 0.0;

    Agent(TrafficAgentSpec s, std::uint64_t seed)
        : spec(std::move(s)), rng(seed) {}
  };

  geom::Pose2 loop_pose(const Agent& a, double arc) const;
  double nearest_arc(const Agent& a, const geom::Vec2& p) const;
  void begin_maneuver(Agent& a, std::vector<geom::Pose2> poses, double speed);
  /// Advance the active maneuver; true when it completed this step.
  bool step_maneuver(Agent& a, double dt);
  void step_cruiser(Agent& a, world::World& world, double dt);
  void step_pedestrian(Agent& a, double dt);

  TrafficScript script_;
  const world::ParkingLotMap* map_;  ///< mission-owned; outlives the sim
  std::vector<Agent> agents_;
  std::vector<std::size_t> obstacle_index_;  ///< agent -> scenario index
  BayLedger ledger_;
  geom::Pose2 ego_;
  bool have_ego_ = false;
  bool rival_fired_ = false;
};

}  // namespace icoil::mission
