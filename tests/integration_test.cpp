// Cross-module integration tests: full episodes through the simulator with
// the real controllers, the expert->dataset->training->inference loop, and
// determinism of the whole pipeline.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/co_controller.hpp"
#include "core/controller_registry.hpp"
#include "core/icoil_controller.hpp"
#include "core/il_controller.hpp"
#include "il/trainer.hpp"
#include "sim/evaluator.hpp"
#include "sim/expert.hpp"
#include "sim/simulator.hpp"

namespace icoil {
namespace {

il::IlPolicyConfig tiny_policy_config() {
  il::IlPolicyConfig cfg;
  cfg.bev_size = 16;
  cfg.conv_channels[0] = 4;
  cfg.conv_channels[1] = 4;
  cfg.conv_channels[2] = 8;
  cfg.fc_sizes[0] = 32;
  cfg.fc_sizes[1] = 16;
  cfg.fc_sizes[2] = 16;
  return cfg;
}

TEST(IntegrationTest, CoParksAcrossSeedsEasy) {
  // The CO stack (hybrid A* + SQP MPC) parks on several easy seeds.
  sim::Simulator simulator;
  int successes = 0;
  for (std::uint64_t seed : {500ull, 501ull, 502ull}) {
    world::ScenarioOptions opt;
    opt.difficulty = world::Difficulty::kEasy;
    const world::Scenario sc = world::make_scenario(opt, seed);
    core::CoController controller(co::CoPlannerConfig{},
                                  vehicle::VehicleParams{});
    const sim::EpisodeResult res = simulator.run(sc, controller, seed);
    successes += res.success() ? 1 : 0;
  }
  EXPECT_GE(successes, 2);
}

TEST(IntegrationTest, CoHandlesDynamicObstacles) {
  sim::Simulator simulator;
  world::ScenarioOptions opt;
  opt.difficulty = world::Difficulty::kNormal;
  const world::Scenario sc = world::make_scenario(opt, 510);
  core::CoController controller(co::CoPlannerConfig{}, vehicle::VehicleParams{});
  const sim::EpisodeResult res = simulator.run(sc, controller, 510);
  // Either parks or at minimum never collides before timeout.
  if (!res.success()) {
    EXPECT_NE(res.outcome, sim::Outcome::kCollision);
  }
}

TEST(IntegrationTest, ExpertToTrainingToInferenceLoop) {
  // Record one short expert episode, train a tiny policy briefly, and check
  // the trained policy produces sharper (lower-entropy) outputs on the
  // demonstration distribution than an untrained one.
  sim::ExpertConfig expert_cfg;
  expert_cfg.episodes = 1;
  expert_cfg.frame_stride = 3;
  const il::IlPolicyConfig policy_cfg = tiny_policy_config();
  const il::Dataset dataset =
      sim::ExpertRecorder(expert_cfg, policy_cfg).record();
  ASSERT_GT(dataset.size(), 50u);

  il::IlPolicy trained(policy_cfg, 3);
  il::IlPolicy untrained(policy_cfg, 3);
  il::TrainConfig train_cfg;
  train_cfg.epochs = 10;
  train_cfg.learning_rate = 3e-3;
  const il::TrainReport report = il::Trainer(train_cfg).train(trained, dataset);
  EXPECT_GT(report.final_val_accuracy, 0.15);  // above 1/15 chance

  double trained_entropy = 0.0, untrained_entropy = 0.0;
  const std::size_t probe = std::min<std::size_t>(dataset.size(), 40);
  for (std::size_t i = 0; i < probe; ++i) {
    trained_entropy += trained.infer(dataset[i].observation).entropy;
    untrained_entropy += untrained.infer(dataset[i].observation).entropy;
  }
  EXPECT_LT(trained_entropy, untrained_entropy);
}

TEST(IntegrationTest, IcoilEpisodeRunsEndToEnd) {
  // With an untrained policy iCOIL stays mostly in CO mode and still parks.
  il::IlPolicy policy(tiny_policy_config());
  core::IcoilConfig config;
  core::IcoilController controller(config, policy);
  sim::SimConfig sim_cfg;
  sim_cfg.record_trace = true;
  sim::Simulator simulator(sim_cfg);

  world::ScenarioOptions opt;
  opt.difficulty = world::Difficulty::kEasy;
  const world::Scenario sc = world::make_scenario(opt, 500);
  const sim::EpisodeResult res = simulator.run(sc, controller, 500);
  EXPECT_EQ(res.outcome, sim::Outcome::kSuccess);
  // Telemetry present on every frame.
  ASSERT_FALSE(res.trace.empty());
  for (const sim::FrameRecord& f : res.trace) {
    EXPECT_GE(f.info.ratio, 0.0);
    EXPECT_GE(f.info.complexity, 0.0);
  }
  // Untrained -> high entropy -> CO-dominated episode.
  EXPECT_LT(res.il_fraction, 0.5);
}

TEST(IntegrationTest, HardLevelNoiseReachesControllers) {
  // On the hard level the detector jitters: two iCOIL episodes with
  // different sim seeds on the same scenario diverge, while easy-level
  // noise-free episodes with the same seed are bitwise deterministic.
  world::ScenarioOptions opt;
  opt.difficulty = world::Difficulty::kHard;
  const world::Scenario sc = world::make_scenario(opt, 600);

  auto run_with = [&](std::uint64_t sim_seed) {
    core::CoController controller(co::CoPlannerConfig{},
                                  vehicle::VehicleParams{});
    sim::SimConfig cfg;
    cfg.record_trace = true;
    return sim::Simulator(cfg).run(sc, controller, sim_seed);
  };
  const sim::EpisodeResult a = run_with(1);
  const sim::EpisodeResult b = run_with(2);
  // Different noise draws -> different trajectories.
  bool diverged = a.frames != b.frames;
  const std::size_t n = std::min(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < n && !diverged; ++i)
    diverged = std::abs(a.trace[i].state.x() - b.trace[i].state.x()) > 1e-9;
  EXPECT_TRUE(diverged);
}

TEST(IntegrationTest, EvaluatorMatchesSimulatorSingleEpisode) {
  world::ScenarioOptions opt;
  opt.difficulty = world::Difficulty::kEasy;
  sim::EvalConfig eval_cfg;
  eval_cfg.episodes = 1;
  eval_cfg.base_seed = 500;
  const auto detailed = sim::Evaluator(eval_cfg).evaluate_detailed(
      core::ControllerRegistry::instance().factory("co"), opt);
  ASSERT_EQ(detailed.size(), 1u);

  const world::Scenario sc = world::make_scenario(opt, 500);
  core::CoController controller(co::CoPlannerConfig{}, vehicle::VehicleParams{});
  const sim::EpisodeResult direct = sim::Simulator().run(sc, controller, 500);
  EXPECT_EQ(detailed[0].outcome, direct.outcome);
  EXPECT_DOUBLE_EQ(detailed[0].park_time, direct.park_time);
}

}  // namespace
}  // namespace icoil
