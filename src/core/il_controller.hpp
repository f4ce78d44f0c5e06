#pragma once

#include <memory>

#include "core/batch_client.hpp"
#include "core/controller.hpp"
#include "il/policy.hpp"
#include "sensing/bev.hpp"
#include "sensing/noise.hpp"

namespace icoil::core {

/// The conventional pure-IL baseline of the paper's comparison ([2] in the
/// paper): a DNN maps the BEV image directly to a discretized action every
/// frame. Owns a private clone of the trained policy (network forward
/// passes cache activations and cannot be shared). Implements BatchClient:
/// the frame splits at the inference, and act() and stage() share observe(),
/// the single RNG draw site (image noise), so batched and unbatched episodes
/// are bit-identical.
class IlController final : public Controller, public BatchClient {
 public:
  explicit IlController(const il::IlPolicy& trained_policy);

  std::string name() const override { return "IL"; }
  void reset(const world::Scenario& scenario) override;
  vehicle::Command act(const world::World& world, const vehicle::State& state,
                       FrameContext& frame) override;
  const FrameInfo& last_frame() const override { return frame_; }

  void stage(const world::World& world, const vehicle::State& state,
             FrameContext& frame, il::BatchInferencer& service) override;
  vehicle::Command commit(const world::World& world,
                          const vehicle::State& state, FrameContext& frame,
                          const il::BatchInferencer& service) override;

  /// Direct access to the policy inference for tests.
  il::IlPolicy& policy() { return *policy_; }

 private:
  /// Render, corrupt and pack this frame's network input.
  sense::BevImage observe(const world::World& world,
                          const vehicle::State& state, FrameContext& frame);
  vehicle::Command finish_frame(const il::Inference& inf);

  std::unique_ptr<il::IlPolicy> policy_;
  sense::BevRasterizer rasterizer_;
  std::unique_ptr<sense::ImageNoise> noise_;
  FrameInfo frame_;
  std::size_t slot_ = 0;  ///< batch slot between stage() and commit()
};

}  // namespace icoil::core
