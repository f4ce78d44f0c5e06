#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/frame_context.hpp"
#include "core/hsa.hpp"
#include "mathkit/rng.hpp"
#include "vehicle/kinematics.hpp"
#include "world/world.hpp"

namespace icoil::core {

/// Per-frame telemetry a controller exposes after each act() call — the
/// series plotted in Figs 5 and 7.
struct FrameInfo {
  Mode mode = Mode::kCo;
  double entropy = 0.0;       ///< omega_i, instant IL softmax entropy
  double uncertainty = 0.0;   ///< U_i (eq. 7)
  double complexity = 0.0;    ///< normalized C_i (eq. 8)
  double ratio = 0.0;         ///< f_HSA = U_i / C_i
  vehicle::Command command;
  /// Wall time of this frame on its FrameContext clock. sim::Session
  /// stamps it into the frames it records in a trace; controllers leave 0.
  double solve_ms = 0.0;
  /// True when this frame's FrameContext deadline tripped and the
  /// controller returned a best-so-far (degraded) command.
  bool deadline_hit = false;
};

/// Driving-policy interface shared by the iCOIL controller and the pure IL
/// / pure CO baselines. One controller instance drives one episode at a
/// time (controllers hold per-episode state such as reference paths and
/// HSA windows) and is not thread-safe across episodes.
class Controller {
 public:
  virtual ~Controller() = default;

  virtual std::string name() const = 0;

  /// Prepare for a new episode of `scenario` (plan references, configure
  /// sensor noise, clear windows).
  virtual void reset(const world::Scenario& scenario) = 0;

  /// Produce the driving command for the current frame. `frame` carries the
  /// episode RNG plus this frame's wall-clock budget and cancellation
  /// handle; budget-aware controllers poll frame.expired() inside their
  /// inner loops and return best-so-far commands when it trips.
  virtual vehicle::Command act(const world::World& world,
                               const vehicle::State& state,
                               FrameContext& frame) = 0;

  /// Telemetry of the most recent act() call.
  virtual const FrameInfo& last_frame() const = 0;
};

/// Factory used by the multi-threaded evaluator to build one controller per
/// worker (controllers are stateful and not shareable).
using ControllerFactory = std::function<std::unique_ptr<Controller>()>;

}  // namespace icoil::core
