#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mathkit/rng.hpp"
#include "nn/tensor.hpp"

namespace icoil::nn {

/// A learnable parameter with its gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;
  /// Bumped by every writer of `value` from outside its layer (optimizer
  /// steps, load_params, parameter copies), so a layer that caches a copy
  /// derived from it knows the copy is stale.
  std::uint64_t version = 0;

  explicit Param(std::vector<int> shape)
      : value(shape), grad(std::move(shape)) {}
};

/// Base class for network layers. Layers cache whatever they need from
/// `forward` so the subsequent `backward` can produce input gradients —
/// the classic define-by-layer backprop contract. `forward` is the training
/// path and the reference the inference kernels (`forward_eval`) are
/// tested against.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;
  /// Compute the layer output for a batch input, caching for backward().
  virtual Tensor forward(const Tensor& input) = 0;
  /// Given dL/d(output), accumulate parameter grads and return dL/d(input).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Inference-only forward into a caller-owned tensor: no training caches,
  /// and once shapes stabilize no allocation either (`output` is resized in
  /// place). Results must be bit-identical to forward(input). `output` must
  /// not alias `input`.
  virtual void forward_eval(const Tensor& input, Tensor& output) = 0;

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }
  /// Initialize parameters from `rng` (no-op for stateless layers).
  virtual void init(math::Rng& rng) { (void)rng; }
};

}  // namespace icoil::nn
