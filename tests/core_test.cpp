#include <gtest/gtest.h>

#include <cmath>

#include "core/co_controller.hpp"
#include "core/hsa.hpp"
#include "core/icoil_controller.hpp"
#include "core/il_controller.hpp"
#include "il/observation.hpp"

namespace icoil::core {
namespace {

// ------------------------------------------------------------------- HSA

TEST(HsaTest, InstantComplexityMatchesFormula) {
  HsaConfig cfg;
  cfg.horizon = 15;
  cfg.action_dim = 2;
  cfg.d0 = 1.2;
  Hsa hsa(cfg);
  // No obstacles: [H * Na]^3.5.
  EXPECT_NEAR(hsa.instant_complexity({}), std::pow(15.0 * 2.0, 3.5), 1e-6);
  // One obstacle exactly at D0 contributes e^0 = 1.
  EXPECT_NEAR(hsa.instant_complexity({1.2}), std::pow(15.0 * 3.0, 3.5), 1e-6);
  // A far obstacle contributes almost nothing.
  EXPECT_NEAR(hsa.instant_complexity({50.0}), std::pow(15.0 * 2.0, 3.5),
              std::pow(15.0 * 2.0, 3.5) * 0.01);
}

TEST(HsaTest, ComplexityIncreasesAsObstacleApproachesD0) {
  Hsa hsa;
  const double far = hsa.instant_complexity({8.0});
  const double mid = hsa.instant_complexity({3.0});
  const double close = hsa.instant_complexity({1.2});
  EXPECT_LT(far, mid);
  EXPECT_LT(mid, close);
}

TEST(HsaTest, UncertaintyIsWindowedMeanEntropy) {
  HsaConfig cfg;
  cfg.window = 3;
  Hsa hsa(cfg);
  hsa.push(1.0, {});
  hsa.push(2.0, {});
  EXPECT_NEAR(hsa.uncertainty(), 1.5, 1e-12);
  hsa.push(3.0, {});
  EXPECT_NEAR(hsa.uncertainty(), 2.0, 1e-12);
  hsa.push(4.0, {});  // evicts the 1.0
  EXPECT_NEAR(hsa.uncertainty(), 3.0, 1e-12);
  EXPECT_EQ(hsa.frames(), 3u);
}

TEST(HsaTest, ComplexityBaseNormalization) {
  HsaConfig cfg;
  Hsa hsa(cfg);
  EXPECT_NEAR(hsa.complexity_base(),
              std::pow(cfg.horizon * (cfg.action_dim + 1.0), 3.5), 1e-9);
  // With one obstacle pinned at d0 every frame, normalized complexity == 1.
  for (int i = 0; i < 5; ++i) hsa.push(0.5, {cfg.d0});
  EXPECT_NEAR(hsa.normalized_complexity(), 1.0, 1e-9);
}

TEST(HsaTest, RatioHighWhenUncertainAndEmpty) {
  Hsa hsa;
  // High entropy, no obstacles -> IL threatened, CO cheap -> large ratio.
  for (int i = 0; i < 5; ++i) hsa.push(2.0, {});
  const double open_ratio = hsa.ratio();
  hsa.reset();
  // Low entropy, three hugging obstacles -> small ratio (choose IL).
  for (int i = 0; i < 5; ++i) hsa.push(0.05, {1.2, 1.2, 1.0});
  EXPECT_LT(hsa.ratio(), open_ratio * 0.1);
}

TEST(HsaTest, ResetClearsWindows) {
  Hsa hsa;
  hsa.push(1.0, {2.0});
  hsa.reset();
  EXPECT_EQ(hsa.frames(), 0u);
  EXPECT_DOUBLE_EQ(hsa.uncertainty(), 0.0);
}

// ---------------------------------------------------------- ModeSwitcher

TEST(ModeSwitcherTest, SwitchesOnThreshold) {
  HsaConfig cfg;
  cfg.lambda = 1.0;
  cfg.guard_frames = 0;
  ModeSwitcher sw(cfg, Mode::kCo);
  EXPECT_EQ(sw.update(2.0), Mode::kCo);   // ratio > lambda -> CO
  EXPECT_EQ(sw.update(0.5), Mode::kIl);   // ratio <= lambda -> IL
  EXPECT_EQ(sw.update(2.0), Mode::kCo);
}

TEST(ModeSwitcherTest, GuardTimeHoldsMode) {
  HsaConfig cfg;
  cfg.lambda = 1.0;
  cfg.guard_frames = 5;
  ModeSwitcher sw(cfg, Mode::kCo);
  // First decision switches to IL (no guard on the first decision).
  EXPECT_EQ(sw.update(0.1), Mode::kIl);
  // Immediately demanding CO is held back for guard_frames frames.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sw.update(10.0), Mode::kIl);
  EXPECT_EQ(sw.update(10.0), Mode::kCo);
}

TEST(ModeSwitcherTest, ResetRestoresInitial) {
  HsaConfig cfg;
  cfg.guard_frames = 0;
  ModeSwitcher sw(cfg, Mode::kCo);
  sw.update(0.0);
  EXPECT_EQ(sw.mode(), Mode::kIl);
  sw.reset(Mode::kCo);
  EXPECT_EQ(sw.mode(), Mode::kCo);
}

TEST(ModeSwitcherTest, ToString) {
  EXPECT_STREQ(to_string(Mode::kIl), "IL");
  EXPECT_STREQ(to_string(Mode::kCo), "CO");
}

TEST(ModeSwitcherTest, CounterSaturatesAtSentinel) {
  // Before any switch the counter sits at the named sentinel and must not
  // grow past it no matter how many frames elapse (overflow guard for long
  // episodes), while still allowing an immediate first switch.
  HsaConfig cfg;
  cfg.lambda = 1.0;
  cfg.guard_frames = 5;
  ModeSwitcher sw(cfg, Mode::kCo);
  EXPECT_EQ(sw.frames_since_switch(), ModeSwitcher::kNeverSwitched);
  for (int i = 0; i < 1000; ++i) sw.update(10.0);  // agrees with CO: no switch
  EXPECT_EQ(sw.frames_since_switch(), ModeSwitcher::kNeverSwitched);
  EXPECT_EQ(sw.update(0.1), Mode::kIl);  // first switch never guard-held
  EXPECT_EQ(sw.frames_since_switch(), 0);
  sw.reset(Mode::kCo);
  EXPECT_EQ(sw.frames_since_switch(), ModeSwitcher::kNeverSwitched);
}

TEST(HsaTest, ComplexityWellBehavedWithManyObstacles) {
  // Crowded generators put 8+ obstacles in the detector output; eq. (8)
  // must stay finite and strictly monotone in the obstacle count, with the
  // closed form ((Na + K) / (Na + 1))^3.5 when all K sit at D0.
  HsaConfig cfg;
  Hsa hsa(cfg);
  double prev = 0.0;
  for (int k = 1; k <= 12; ++k) {
    hsa.reset();
    const std::vector<double> at_d0(static_cast<std::size_t>(k), cfg.d0);
    hsa.push(0.3, at_d0);
    const double c = hsa.normalized_complexity();
    const double expected =
        std::pow((cfg.action_dim + k) / (cfg.action_dim + 1.0), 3.5);
    EXPECT_NEAR(c, expected, 1e-9) << k;
    EXPECT_TRUE(std::isfinite(c)) << k;
    EXPECT_GT(c, prev) << k;
    prev = c;
    // The switching ratio stays positive and finite: more obstacles push
    // toward IL smoothly instead of saturating.
    EXPECT_GT(hsa.ratio(), 0.0);
    EXPECT_TRUE(std::isfinite(hsa.ratio()));
  }
}

// ------------------------------------------------------------ controllers

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

world::Scenario easy_scenario(std::uint64_t seed = 500) {
  world::ScenarioOptions opt;
  opt.difficulty = world::Difficulty::kEasy;
  return world::make_scenario(opt, seed);
}

TEST(IlControllerTest, ProducesDiscretizedCommands) {
  il::IlPolicy policy(tiny_policy_config());
  IlController controller(policy);
  EXPECT_EQ(controller.name(), "IL");
  const world::Scenario sc = easy_scenario();
  controller.reset(sc);
  world::World world(sc);
  vehicle::State state;
  state.pose = sc.start_pose;
  math::Rng rng(1);
  FrameContext ctx(rng);
  const vehicle::Command cmd = controller.act(world, state, ctx);
  // The command is one of the 15 representative commands.
  const int cls = il::ActionDiscretizer::to_class(cmd);
  const vehicle::Command expected = il::ActionDiscretizer::to_command(cls);
  EXPECT_DOUBLE_EQ(cmd.steer, expected.steer);
  EXPECT_EQ(controller.last_frame().mode, Mode::kIl);
  EXPECT_GT(controller.last_frame().entropy, 0.0);
}

TEST(CoControllerTest, PlansAndDrivesTowardGoal) {
  CoController controller(co::CoPlannerConfig{}, vehicle::VehicleParams{});
  EXPECT_EQ(controller.name(), "CO");
  const world::Scenario sc = easy_scenario();
  controller.reset(sc);
  world::World world(sc);
  vehicle::State state;
  state.pose = sc.start_pose;
  math::Rng rng(1);
  FrameContext ctx(rng);
  const vehicle::Command cmd = controller.act(world, state, ctx);
  // The reference is planned lazily on the first (budgeted) frame.
  EXPECT_TRUE(controller.planner().has_reference());
  EXPECT_GT(cmd.throttle, 0.0);  // starts moving
  EXPECT_EQ(controller.last_frame().mode, Mode::kCo);
}

TEST(IcoilControllerTest, StartsInCoAndTracksHsa) {
  il::IlPolicy policy(tiny_policy_config());
  IcoilController controller(IcoilConfig{}, policy);
  EXPECT_EQ(controller.name(), "iCOIL");
  const world::Scenario sc = easy_scenario();
  controller.reset(sc);
  world::World world(sc);
  vehicle::State state;
  state.pose = sc.start_pose;
  math::Rng rng(1);
  FrameContext ctx(rng);
  controller.act(world, state, ctx);
  const FrameInfo& frame = controller.last_frame();
  // Telemetry populated.
  EXPECT_GT(frame.entropy, 0.0);
  EXPECT_GT(frame.uncertainty, 0.0);
  EXPECT_GT(frame.complexity, 0.0);
  EXPECT_GE(frame.ratio, 0.0);
  EXPECT_EQ(controller.hsa().frames(), 1u);
}

TEST(IcoilControllerTest, UntrainedPolicyKeepsCoMode) {
  // An untrained policy outputs near-uniform distributions -> high entropy
  // -> large ratio in open space -> CO stays in control.
  il::IlPolicy policy(tiny_policy_config());
  IcoilConfig cfg;
  IcoilController controller(cfg, policy);
  const world::Scenario sc = easy_scenario();
  controller.reset(sc);
  world::World world(sc);
  vehicle::State state;
  state.pose = sc.start_pose;  // spawn region: far from obstacles
  math::Rng rng(1);
  FrameContext ctx(rng);
  for (int i = 0; i < 10; ++i) controller.act(world, state, ctx);
  EXPECT_EQ(controller.mode(), Mode::kCo);
}

TEST(IcoilControllerTest, ResetClearsState) {
  il::IlPolicy policy(tiny_policy_config());
  IcoilController controller(IcoilConfig{}, policy);
  const world::Scenario sc = easy_scenario();
  controller.reset(sc);
  world::World world(sc);
  vehicle::State state;
  state.pose = sc.start_pose;
  math::Rng rng(1);
  FrameContext ctx(rng);
  for (int i = 0; i < 5; ++i) controller.act(world, state, ctx);
  controller.reset(sc);
  EXPECT_EQ(controller.hsa().frames(), 0u);
  EXPECT_EQ(controller.mode(), Mode::kCo);
}

}  // namespace
}  // namespace icoil::core
