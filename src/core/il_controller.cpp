#include "core/il_controller.hpp"

#include "il/observation.hpp"

namespace icoil::core {

IlController::IlController(const il::IlPolicy& trained_policy)
    : policy_(trained_policy.clone()), rasterizer_(trained_policy.bev_spec()) {}

void IlController::reset(const world::Scenario& scenario) {
  noise_ = std::make_unique<sense::ImageNoise>(scenario.noise);
  frame_ = {};
  frame_.mode = Mode::kIl;
}

sense::BevImage IlController::observe(const world::World& world,
                                      const vehicle::State& state,
                                      FrameContext& frame) {
  sense::BevImage bev = rasterizer_.render(world, state.pose);
  if (noise_) noise_->apply(bev, frame.rng());
  return il::make_observation(bev, state.speed);
}

vehicle::Command IlController::finish_frame(const il::Inference& inf) {
  frame_.mode = Mode::kIl;
  frame_.entropy = inf.entropy;
  frame_.uncertainty = inf.entropy;
  frame_.complexity = 0.0;
  frame_.ratio = 0.0;
  frame_.command = inf.command;
  // One indivisible forward pass: nothing to degrade, so a deadline is
  // never reported hit here.
  frame_.deadline_hit = false;
  return inf.command;
}

vehicle::Command IlController::act(const world::World& world,
                                   const vehicle::State& state,
                                   FrameContext& frame) {
  return finish_frame(policy_->infer(observe(world, state, frame)));
}

void IlController::stage(const world::World& world, const vehicle::State& state,
                         FrameContext& frame, il::BatchInferencer& service) {
  slot_ = service.submit(observe(world, state, frame));
}

vehicle::Command IlController::commit(const world::World&,
                                      const vehicle::State&, FrameContext&,
                                      const il::BatchInferencer& service) {
  return finish_frame(service.result(slot_));
}

}  // namespace icoil::core
