#pragma once

#include <memory>

#include "co/planner.hpp"
#include "core/controller.hpp"
#include "sensing/detector.hpp"

namespace icoil::core {

/// Pure constrained-optimization baseline: hybrid-A* reference + SQP MPC
/// every frame. Reliable but the slowest per-frame policy (section V-E
/// measures ~18 Hz vs IL's ~75 Hz).
///
/// The hybrid-A* reference is planned lazily on the FIRST act() frame, not
/// in reset(): planning is by far the heaviest single computation, and the
/// first frame's FrameContext lets its node expansions poll the per-frame
/// budget (falling back to Reeds-Shepp when it trips) instead of running
/// unbudgeted at episode setup.
class CoController final : public Controller {
 public:
  CoController(co::CoPlannerConfig config, vehicle::VehicleParams params);

  std::string name() const override { return "CO"; }
  void reset(const world::Scenario& scenario) override;
  vehicle::Command act(const world::World& world, const vehicle::State& state,
                       FrameContext& frame) override;
  const FrameInfo& last_frame() const override { return frame_; }

  co::CoPlanner& planner() { return planner_; }

 private:
  co::CoPlanner planner_;
  std::unique_ptr<sense::Detector> detector_;
  FrameInfo frame_;
};

}  // namespace icoil::core
