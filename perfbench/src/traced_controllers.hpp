#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "co/planner.hpp"
#include "core/batch_client.hpp"
#include "core/controller.hpp"
#include "core/hsa.hpp"
#include "core/icoil_controller.hpp"
#include "core/safety.hpp"
#include "il/policy.hpp"
#include "sensing/bev.hpp"
#include "sensing/detector.hpp"
#include "sensing/noise.hpp"
#include "trace.hpp"

namespace perfbench {

/// Solver and planner counters read where the work happens (TrajOptResult
/// after every CoPlanner::act, PlanStats after every reference plan).
struct LayerCounters {
  std::uint64_t trajopt_calls = 0;
  std::uint64_t trajopt_ok = 0;
  std::uint64_t qp_iterations = 0;
  std::uint64_t obstacle_rows = 0;
  std::uint64_t plans = 0;
  std::uint64_t plan_expansions = 0;
};

// The traced controllers below compose the same public calls, in the same
// order and with the same RNG draws, as the library's CoController,
// IcoilController and IlController, and wrap each call in a span. Episodes
// they drive must reproduce the library controllers' outcomes bit for bit;
// the benchmark checks that on every traced run.

/// core::CoController with spans: core.act > sensing.detect, co.plan,
/// co.trajopt.
class TracedCoController final : public icoil::core::Controller {
 public:
  TracedCoController(icoil::co::CoPlannerConfig config,
                     icoil::vehicle::VehicleParams params, Tracer* tracer,
                     LayerCounters* counters);

  std::string name() const override { return "CO"; }
  void reset(const icoil::world::Scenario& scenario) override;
  using Controller::act;
  icoil::vehicle::Command act(const icoil::world::World& world,
                              const icoil::vehicle::State& state,
                              icoil::core::FrameContext& frame) override;
  const icoil::core::FrameInfo& last_frame() const override { return frame_; }

 private:
  icoil::co::CoPlanner planner_;
  std::unique_ptr<icoil::sense::Detector> detector_;
  icoil::core::FrameInfo frame_;
  Tracer* tracer_;
  LayerCounters* counters_;
};

/// core::IcoilController (unbatched act path) with spans: core.act >
/// co.plan, sensing.bev_render, sensing.noise, il.infer, sensing.detect,
/// core.hsa_push, core.mode_update, then co.trajopt or core.safety_filter.
class TracedIcoilController final : public icoil::core::Controller {
 public:
  TracedIcoilController(icoil::core::IcoilConfig config,
                        const icoil::il::IlPolicy& trained_policy,
                        Tracer* tracer, LayerCounters* counters);

  std::string name() const override { return "iCOIL"; }
  void reset(const icoil::world::Scenario& scenario) override;
  using Controller::act;
  icoil::vehicle::Command act(const icoil::world::World& world,
                              const icoil::vehicle::State& state,
                              icoil::core::FrameContext& frame) override;
  const icoil::core::FrameInfo& last_frame() const override { return frame_; }

 private:
  icoil::core::IcoilConfig config_;
  std::unique_ptr<icoil::il::IlPolicy> policy_;
  icoil::sense::BevRasterizer rasterizer_;
  std::unique_ptr<icoil::sense::ImageNoise> noise_;
  std::unique_ptr<icoil::sense::Detector> detector_;
  icoil::co::CoPlanner planner_;
  icoil::core::Hsa hsa_;
  icoil::core::ModeSwitcher switcher_;
  icoil::core::SafetyMonitor safety_;
  icoil::vehicle::BicycleModel model_;
  icoil::core::FrameInfo frame_;
  Tracer* tracer_;
  LayerCounters* counters_;
};

/// core::IlController (batched stage/commit path) with spans: core.stage >
/// sensing.bev_render, sensing.noise, il.submit; core.commit.
class TracedIlController final : public icoil::core::Controller,
                                 public icoil::core::BatchClient {
 public:
  TracedIlController(const icoil::il::IlPolicy& trained_policy, Tracer* tracer);

  std::string name() const override { return "IL"; }
  void reset(const icoil::world::Scenario& scenario) override;
  using Controller::act;
  icoil::vehicle::Command act(const icoil::world::World& world,
                              const icoil::vehicle::State& state,
                              icoil::core::FrameContext& frame) override;
  const icoil::core::FrameInfo& last_frame() const override { return frame_; }

  void stage(const icoil::world::World& world,
             const icoil::vehicle::State& state,
             icoil::core::FrameContext& frame,
             icoil::il::BatchInferencer& service) override;
  icoil::vehicle::Command commit(const icoil::world::World& world,
                                 const icoil::vehicle::State& state,
                                 icoil::core::FrameContext& frame,
                                 const icoil::il::BatchInferencer& service) override;

 private:
  icoil::sense::BevImage sense(const icoil::world::World& world,
                               const icoil::vehicle::State& state,
                               icoil::core::FrameContext& frame);
  icoil::vehicle::Command finish_frame(
      const icoil::il::Inference& inf,
      std::chrono::steady_clock::time_point t0);

  std::unique_ptr<icoil::il::IlPolicy> policy_;
  icoil::sense::BevRasterizer rasterizer_;
  std::unique_ptr<icoil::sense::ImageNoise> noise_;
  icoil::core::FrameInfo frame_;
  std::size_t slot_ = 0;
  std::chrono::steady_clock::time_point stage_t0_;
  Tracer* tracer_;
};

}  // namespace perfbench
