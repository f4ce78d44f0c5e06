#pragma once

#include <memory>

#include "co/planner.hpp"
#include "core/batch_client.hpp"
#include "core/controller.hpp"
#include "core/hsa.hpp"
#include "core/safety.hpp"
#include "il/policy.hpp"
#include "sensing/bev.hpp"
#include "sensing/detector.hpp"
#include "sensing/noise.hpp"

namespace icoil::core {

/// Top-level configuration of the iCOIL controller.
struct IcoilConfig {
  HsaConfig hsa;
  co::CoPlannerConfig co;
  vehicle::VehicleParams vehicle;
  /// Optional IL-mode safety guard (extension; disabled by default).
  SafetyConfig safety;
};

/// The paper's contribution: the scenario-aware hybrid controller. Every
/// frame it (a) runs the IL network to obtain the action distribution and
/// its entropy, (b) measures obstacle distances for the complexity model,
/// (c) lets HSA + the guard-time switcher choose the working mode (eq. 1),
/// and (d) executes either the IL action or the CO-optimized action.
///
/// Implements BatchClient. act() and stage() run the same pre-inference
/// half, observe(): the deferred reference plan plus sensing (the
/// image-noise RNG draw). act() and commit() run the same post-inference
/// half, finish_frame(): detection (the detector RNG draws), HSA and mode
/// execution. Both paths therefore draw from the episode RNG in one order,
/// so batched and unbatched episodes are bit-identical.
class IcoilController final : public Controller, public BatchClient {
 public:
  IcoilController(IcoilConfig config, const il::IlPolicy& trained_policy);

  std::string name() const override { return "iCOIL"; }
  void reset(const world::Scenario& scenario) override;
  vehicle::Command act(const world::World& world, const vehicle::State& state,
                       FrameContext& frame) override;
  const FrameInfo& last_frame() const override { return frame_; }

  void stage(const world::World& world, const vehicle::State& state,
             FrameContext& frame, il::BatchInferencer& service) override;
  vehicle::Command commit(const world::World& world,
                          const vehicle::State& state, FrameContext& frame,
                          const il::BatchInferencer& service) override;

  const Hsa& hsa() const { return hsa_; }
  Mode mode() const { return switcher_.mode(); }
  co::CoPlanner& planner() { return planner_; }
  const SafetyMonitor& safety() const { return safety_; }

 private:
  /// Deferred reference plan, then render, corrupt and pack this frame's
  /// network input.
  sense::BevImage observe(const world::World& world,
                          const vehicle::State& state, FrameContext& frame);
  vehicle::Command finish_frame(const world::World& world,
                                const vehicle::State& state,
                                FrameContext& frame, const il::Inference& inf);

  IcoilConfig config_;
  std::unique_ptr<il::IlPolicy> policy_;
  sense::BevRasterizer rasterizer_;
  std::unique_ptr<sense::ImageNoise> noise_;
  std::unique_ptr<sense::Detector> detector_;
  co::CoPlanner planner_;
  Hsa hsa_;
  ModeSwitcher switcher_;
  SafetyMonitor safety_;
  vehicle::BicycleModel model_;
  FrameInfo frame_;
  std::size_t slot_ = 0;  ///< batch slot between stage() and commit()
};

}  // namespace icoil::core
