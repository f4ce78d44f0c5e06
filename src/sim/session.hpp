#pragma once

#include <cstdint>
#include <optional>

#include "core/cancel_token.hpp"
#include "core/controller.hpp"
#include "core/frame_context.hpp"
#include "sim/simulator.hpp"
#include "world/world.hpp"

namespace icoil::core {
class BatchClient;
}
namespace icoil::il {
class BatchInferencer;
}

namespace icoil::sim {

/// Stepwise episode runner — the open/step/result decomposition of the
/// closed `Simulator::run` loop. A Session owns the episode state (world,
/// vehicle, RNG, partial result); the caller owns the cadence: call step()
/// once per control frame until it returns kDone, then read result().
/// `Simulator::run` is a thin loop over a Session (bit-for-bit identical
/// results), and serving drivers interleave many Sessions on one
/// core::TaskPool, timing each step() as one served frame.
///
/// Per-frame budgets: every step() hands the controller a FrameContext
/// carrying SimConfig::frame_deadline_ms (and the episode CancelToken), so
/// budget-aware controllers degrade per frame; frames that hit the deadline
/// are counted in EpisodeResult::deadline_hits. That context's clock is the
/// frame's only stopwatch: with SimConfig::record_trace set, each recorded
/// frame's FrameInfo::solve_ms is the context's elapsed time read right
/// after act() (or commit()) returns. A batched frame's context opens in
/// stage(), so its time includes the wait for the shared forward.
class Session {
 public:
  enum class Status { kRunning, kDone };

  /// Opens an episode: copies the scenario into a live world, seeds the
  /// episode RNG and resets `controller` (which must outlive the Session,
  /// and drives only this Session until it is done). When `cancel` is given
  /// it is polled every frame and ends the episode with kBudgetExceeded.
  Session(const world::Scenario& scenario, core::Controller& controller,
          std::uint64_t seed, SimConfig config = {},
          const core::CancelToken* cancel = nullptr);

  /// Leg-chaining constructor: the ego starts from an explicit state
  /// (pose AND carried speed) instead of the scenario's start_pose, and the
  /// world clock starts at `world_time` so scripted obstacle phases stay
  /// continuous across chained episodes. The scenario's start_pose is
  /// rewritten to `start.pose` before the controller reset, so reference
  /// planners plan from the true start. The episode timeout still allows
  /// scenario.time_limit of LEG time (frames are counted from zero).
  Session(const world::Scenario& scenario, core::Controller& controller,
          std::uint64_t seed, const vehicle::State& start, double world_time,
          SimConfig config = {}, const core::CancelToken* cancel = nullptr);

  /// Advance one control frame (sense -> act -> integrate -> check).
  /// Returns kDone once the episode reached a terminal condition; further
  /// calls are no-ops that keep returning kDone.
  Status step();

  /// True when this Session's controller implements core::BatchClient and
  /// can therefore be stepped through stage()/commit().
  bool supports_batching() const { return batch_client_ != nullptr; }

  /// Batched alternative to step(), split around the shared inference tick.
  /// stage() runs the pre-inference half of the frame — frame/cancel
  /// checks, sensing, observation submit to `service` — and returns true
  /// when an observation was staged; false means the episode finished (or
  /// already was) without needing inference. After service.run_tick(),
  /// commit() completes the frame exactly like step() would have.
  /// stage()+commit() replays step() bit for bit: the controller consumes
  /// the episode RNG in the same order and the batched forward itself is
  /// bit-identical to per-session inference (see il::BatchInferencer).
  bool stage(il::BatchInferencer& service);
  Status commit(il::BatchInferencer& service);

  bool done() const { return done_; }

  /// The episode outcome; only meaningful once done() (until then it holds
  /// the running partial tallies with a kTimeout placeholder outcome).
  const EpisodeResult& result() const { return result_; }

  /// Frames stepped so far / the simulated clock they add up to.
  std::size_t frame() const { return frame_; }
  double sim_time() const { return static_cast<double>(frame_) * config_.dt; }

  /// Replaces the per-frame wall-clock budget applied to FUTURE frames —
  /// the serve::DeadlineTuner feedback hook. Takes effect on the next
  /// step()/stage(); <= 0 removes the deadline. Call only between frames,
  /// from the thread driving this Session.
  void set_frame_deadline_ms(double ms) { config_.frame_deadline_ms = ms; }

  const SimConfig& config() const { return config_; }
  const vehicle::State& state() const { return state_; }
  const world::World& world() const { return world_; }
  /// Mutable world access for co-simulation: the mission layer attaches a
  /// world::WorldDriver (traffic agents) here before the first step. Don't
  /// mutate the world mid-frame from anywhere else — the episode's
  /// determinism is only guaranteed for driver-applied changes.
  world::World& world_mutable() { return world_; }

 private:
  void finish(Outcome outcome, double park_time);
  /// Pre-act frame admission: terminal/cancel checks. False = episode over.
  bool begin_frame();
  /// Post-act bookkeeping, integration and terminal checks.
  Status execute_frame(const vehicle::Command& cmd,
                       const core::FrameContext& frame_ctx);

  SimConfig config_;
  core::Controller* controller_;
  core::BatchClient* batch_client_;  ///< controller's batching capability
  const core::CancelToken* cancel_;
  math::Rng rng_;
  world::World world_;
  vehicle::BicycleModel model_;
  vehicle::State state_;
  std::size_t max_frames_;
  std::size_t frame_ = 0;
  std::size_t il_frames_ = 0;
  core::Mode prev_mode_ = core::Mode::kCo;
  bool done_ = false;
  EpisodeResult result_;
  /// Lives from stage() to commit(): both halves of a batched frame share
  /// one context, exactly like the single context a step() frame gets.
  std::optional<core::FrameContext> staged_ctx_;
};

}  // namespace icoil::sim
