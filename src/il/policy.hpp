#pragma once

#include <memory>
#include <string>
#include <vector>

#include "il/action.hpp"
#include "il/observation.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "sensing/bev.hpp"
#include "vehicle/command.hpp"

namespace icoil::il {

/// Result of one IL inference: the probabilistic action distribution, the
/// argmax class, its executable command and the softmax entropy (the instant
/// scenario uncertainty omega_i of eq. (7)).
struct Inference {
  std::vector<float> probs;
  int action_class = 0;
  vehicle::Command command;
  double entropy = 0.0;
};

/// Architecture/input description of the IL network. The input is the
/// observation of il/observation.hpp: BEV channels + ego-speed channel.
struct IlPolicyConfig {
  int bev_size = 48;         ///< input side length (pixels)
  double bev_range = 19.2;   ///< metres covered by the BEV window (0.4 m/px)
  int conv_channels[3] = {8, 16, 32};
  int fc_sizes[3] = {128, 64, 32};  ///< hidden FC widths (4th FC = output)
};

/// The IL module f_IL of section IV-A: a feature-extraction network of three
/// conv+ReLU+maxpool stages followed by a state-action network of four fully
/// connected layers and a softmax output over the M discretized actions.
class IlPolicy {
 public:
  using Config = IlPolicyConfig;

  explicit IlPolicy(Config config = Config(), std::uint64_t init_seed = 7u);

  const Config& config() const { return config_; }
  sense::BevSpec bev_spec() const { return {config_.bev_size, config_.bev_range}; }
  int num_classes() const { return ActionDiscretizer::num_classes(); }
  nn::Sequential& network() { return net_; }

  /// Forward pass on a single observation (use il::make_observation to
  /// build one from a BEV image and the ego speed): forward_eval through a
  /// workspace this policy owns, the kernels batched serving runs too.
  Inference infer(const sense::BevImage& observation);

  /// Training forward on a prepared batch tensor (N,C,H,W) -> logits (N,M):
  /// the classic per-layer path, caching activations for backward(). It is
  /// the reference the eval kernels are tested against.
  nn::Tensor forward_batch(const nn::Tensor& batch);

  /// Inference-only batched forward through a caller-owned workspace: routes
  /// every layer through its GEMM/no-allocation kernel and returns a
  /// reference into `ws` (valid until the next call with that workspace).
  /// Bit-identical to forward_batch(batch), row for row.
  const nn::Tensor& forward_eval(const nn::Tensor& batch, nn::EvalWorkspace& ws);

  /// The post-processing infer() applies to one row of M logits: softmax,
  /// argmax class, executable command, entropy. Exposed so a batching layer
  /// can scatter logits rows into the exact same Inference records.
  static Inference inference_from_logits(const float* logits, int m);

  /// Convert an observation into the network's input tensor (batch of one).
  nn::Tensor to_input(const sense::BevImage& observation) const;

  /// Deep copy with identical weights (Sequential is not shareable across
  /// threads because layers cache forward activations).
  std::unique_ptr<IlPolicy> clone() const;

  bool save(const std::string& path) { return nn::save_params(net_, path); }
  bool load(const std::string& path) { return nn::load_params(net_, path); }

 private:
  Config config_;
  nn::Sequential net_;
  nn::EvalWorkspace ws_;  ///< infer()'s buffers
};

}  // namespace icoil::il
