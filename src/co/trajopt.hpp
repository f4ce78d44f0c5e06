#pragma once

#include <optional>
#include <vector>

#include "core/frame_context.hpp"
#include "geom/obb.hpp"
#include "mathkit/qp.hpp"
#include "vehicle/kinematics.hpp"

namespace icoil::co {

/// Reference state for one horizon step (a target waypoint s* of eq. (4)).
struct TargetPoint {
  geom::Pose2 pose;
  double speed = 0.0;  ///< signed target speed [m/s]
};

/// An obstacle with a constant-velocity prediction model — supplies the
/// o_{h,k} positions of the collision constraint (5).
struct PredictedObstacle {
  geom::Obb box;
  geom::Vec2 velocity;
};

/// Tuning of the constrained trajectory optimization (eq. 6).
struct TrajOptConfig {
  int horizon = 15;            ///< H, prediction steps
  double dt = 0.15;            ///< step length [s]
  int sqp_iterations = 3;      ///< convexify-and-solve rounds
  // Tracking weights (eq. 4 distance cost, split by component).
  double w_pos = 4.0;
  double w_heading = 6.0;
  double w_speed = 1.0;
  // Control effort / smoothness.
  double w_accel = 0.15;
  double w_steer = 0.08;
  double w_daccel = 0.2;
  double w_dsteer = 0.3;
  // Trust region half-widths around the linearization point.
  double trust_pos = 2.0;
  double trust_heading = 0.8;
  double trust_speed = 1.5;
  // Collision handling (eq. 5).
  double safety_margin = 0.15;       ///< d_safe additive margin [m]
  double obstacle_active_range = 16.0;
  int collision_discs = 3;           ///< discs covering the footprint
  /// MPC-grade QP settings: accuracy relaxed for real-time solves (the
  /// SQP loop re-solves anyway, and warm starts absorb the slack).
  math::QpSettings qp{.max_iterations = 500, .eps_abs = 1e-3, .eps_rel = 1e-3};
};

/// Result of one MPC solve.
struct TrajOptResult {
  bool ok = false;
  vehicle::PlannerControl control;        ///< first control a*_i to execute
  std::vector<vehicle::State> predicted;  ///< nonlinear rollout of the plan
  std::vector<vehicle::PlannerControl> controls;
  double objective = 0.0;
  int qp_iterations = 0;  ///< ADMM iterations over the accepted solves
  int active_obstacle_constraints = 0;
  // Host-independent QP work counters, one count per SQP round's solve.
  int qp_solves = 0;          ///< QP solves issued (accepted or not)
  int qp_capped = 0;          ///< solves that stopped at the iteration cap
  int qp_factorizations = 0;  ///< KKT factorizations over all solves
};

/// The CO trajectory optimizer: converts the nonconvex program (6) into a
/// sequence of convex QPs (linearized Ackermann dynamics + half-space
/// collision constraints + trust region) solved by the ADMM QP solver, in
/// the spirit of the convexification pipeline the paper implements on CVXPY.
class TrajOpt {
 public:
  TrajOpt(TrajOptConfig config, vehicle::VehicleParams params);

  const TrajOptConfig& config() const { return config_; }

  /// Solve the MPC from `current`, tracking `targets` (size >= horizon) and
  /// avoiding `obstacles`. `warm_start` carries the previous solution's
  /// controls (shifted internally). With `frame` set, the SQP loop polls it
  /// between convexify-and-solve rounds and returns the best-so-far result
  /// (at least one round always runs) once the frame budget trips.
  TrajOptResult solve(const vehicle::State& current,
                      const std::vector<TargetPoint>& targets,
                      const std::vector<PredictedObstacle>& obstacles,
                      const std::vector<vehicle::PlannerControl>* warm_start =
                          nullptr,
                      const core::FrameContext* frame = nullptr) const;

  /// Disc centres (longitudinal offsets from the rear axle) and radius used
  /// to approximate the footprint in constraint (5).
  std::vector<double> disc_offsets() const;
  double disc_radius() const;

 private:
  TrajOptConfig config_;
  vehicle::VehicleParams params_;
  vehicle::BicycleModel model_;
};

}  // namespace icoil::co
