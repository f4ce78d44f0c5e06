// Quickstart: train (or load) the IL policy, build an easy-level scenario
// and park with the iCOIL controller — driving the episode through the
// stepwise sim::Session API (open -> step -> result), which is also how a
// serving loop would interleave many episodes.
//
// Run from the repository root (the policy cache is created in the working
// directory):   ./build/examples/quickstart

#include <cstdio>

#include "core/controller_registry.hpp"
#include "sim/policy_store.hpp"
#include "sim/session.hpp"
#include "world/scenario.hpp"

int main() {
  using namespace icoil;

  // 1. A trained IL policy (cached across runs as il_policy-<hex>.bin).
  const auto policy = sim::get_or_train_policy(sim::default_policy_options());

  // 2. An easy-level scenario: three static obstacles, random start.
  world::ScenarioOptions options;
  options.difficulty = world::Difficulty::kEasy;
  options.start_class = world::StartClass::kRandom;
  const world::Scenario scenario = world::make_scenario(options, /*seed=*/42);
  std::printf("scenario: %s level, start (%.1f, %.1f, %.2f rad), %zu obstacles\n",
              world::to_string(scenario.difficulty).c_str(),
              scenario.start_pose.x(), scenario.start_pose.y(),
              scenario.start_pose.heading, scenario.obstacles.size());

  // 3. The iCOIL controller (IL + CO + HSA mode switching), resolved from
  //    the method registry — swap the key for "il", "co", "co-fast", ...
  const auto controller = core::ControllerRegistry::instance().build(
      "icoil", {.policy = policy.get()});

  // 4. Step one parking episode frame by frame. Simulator::run wraps this
  //    exact loop; owning it ourselves shows the telemetry live.
  sim::SimConfig sim_config;
  sim_config.record_trace = true;
  sim::Session session(scenario, *controller, /*seed=*/42, sim_config);
  std::printf("\n   t     x      y    heading  v      mode  U_i    C_i\n");
  for (;;) {
    // Capture the pre-step state: after step() the controller's last_frame
    // describes the act() that ran on THIS state, so the pair matches.
    const double t = session.sim_time();
    const std::size_t frame = session.frame();
    const vehicle::State state = session.state();
    if (session.step() == sim::Session::Status::kDone) break;
    if (frame % 40 != 0) continue;
    const core::FrameInfo& f = controller->last_frame();
    std::printf("%5.1f  %5.2f  %5.2f  %6.2f  %5.2f   %-4s %5.3f  %5.2f\n", t,
                state.x(), state.y(), state.heading(), state.speed,
                core::to_string(f.mode), f.uncertainty, f.complexity);
  }

  // 5. Report the outcome.
  const sim::EpisodeResult& result = session.result();
  std::printf("\noutcome: %s after %.1f s (%zu frames)\n",
              sim::to_string(result.outcome), result.park_time, result.frames);
  std::printf("mode switches: %d, IL frames: %.0f%%, closest approach: %.2f m\n",
              result.mode_switches, 100.0 * result.il_fraction,
              result.min_clearance);
  return result.success() ? 0 : 1;
}
