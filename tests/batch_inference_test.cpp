#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/co_controller.hpp"
#include "core/icoil_controller.hpp"
#include "core/il_controller.hpp"
#include "il/batch_inferencer.hpp"
#include "il/observation.hpp"
#include "il/policy.hpp"
#include "sensing/bev.hpp"
#include "sim/session.hpp"
#include "world/generators/registry.hpp"
#include "world/scenario.hpp"
#include "world/world.hpp"

namespace icoil {
namespace {

// A freshly initialized policy suffices for the identity contract: nothing
// below depends on the weights being trained, only on the batched forward
// replaying the per-observation forward bit for bit.
il::IlPolicy make_policy() { return il::IlPolicy(il::IlPolicyConfig(), 99u); }

sense::BevImage observation_for(const il::IlPolicy& policy,
                                const std::string& family, std::uint64_t seed,
                                double speed) {
  world::ScenarioOptions opt;
  opt.generator = family;
  const world::Scenario scenario = world::make_scenario(opt, seed);
  const world::World world(scenario);
  const sense::BevRasterizer rasterizer(policy.bev_spec());
  const sense::BevImage bev = rasterizer.render(world, scenario.start_pose);
  return il::make_observation(bev, speed);
}

void expect_same_inference(const il::Inference& batched,
                           const il::Inference& single, const char* what) {
  ASSERT_EQ(batched.probs.size(), single.probs.size()) << what;
  for (std::size_t j = 0; j < single.probs.size(); ++j)
    EXPECT_EQ(batched.probs[j], single.probs[j]) << what << " prob " << j;
  EXPECT_EQ(batched.action_class, single.action_class) << what;
  EXPECT_EQ(batched.entropy, single.entropy) << what;
  EXPECT_EQ(batched.command.steer, single.command.steer) << what;
  EXPECT_EQ(batched.command.throttle, single.command.throttle) << what;
  EXPECT_EQ(batched.command.brake, single.command.brake) << what;
  EXPECT_EQ(batched.command.reverse, single.command.reverse) << what;
}

/// The reference every eval-kernel result is held to: the classic per-layer
/// forward (IlPolicy::forward_batch) on a batch of one, post-processed the
/// way infer() and the batching service do.
il::Inference classic_inference(il::IlPolicy& policy,
                                const sense::BevImage& observation) {
  const nn::Tensor logits = policy.forward_batch(policy.to_input(observation));
  return il::IlPolicy::inference_from_logits(logits.data(), logits.dim(1));
}

// ---------------------------------------- batched == classic single forward

TEST(BatchInferencerTest, MatchesSingleInferAcrossScenarioFamilies) {
  il::IlPolicy policy = make_policy();
  il::BatchInferencer service(policy, 32);

  std::vector<sense::BevImage> observations;
  const auto families = world::GeneratorRegistry::instance().names();
  ASSERT_GE(families.size(), 2u);
  for (std::size_t f = 0; f < families.size(); ++f)
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
      observations.push_back(observation_for(policy, families[f], seed,
                                             0.4 * static_cast<double>(f) -
                                                 0.5));

  std::vector<std::size_t> slots;
  for (const sense::BevImage& obs : observations)
    slots.push_back(service.submit(obs));
  service.run_tick();

  for (std::size_t i = 0; i < observations.size(); ++i) {
    const il::Inference single = classic_inference(policy, observations[i]);
    expect_same_inference(service.result(slots[i]), single,
                          ("obs " + std::to_string(i)).c_str());
    // Per-session infer() runs the same eval kernels on a batch of one.
    expect_same_inference(policy.infer(observations[i]), single,
                          ("infer obs " + std::to_string(i)).c_str());
  }
}

TEST(BatchInferencerTest, MatchesSingleInferAtEachBatchSize) {
  il::IlPolicy policy = make_policy();
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
    il::BatchInferencer service(policy, 32);
    std::vector<sense::BevImage> observations;
    for (std::size_t i = 0; i < n; ++i)
      observations.push_back(observation_for(
          policy, "canonical", 10 + i, 0.1 * static_cast<double>(i)));

    for (const sense::BevImage& obs : observations) service.submit(obs);
    service.run_tick();

    EXPECT_EQ(service.stats().requests, n);
    EXPECT_EQ(service.stats().batches, 1u);
    EXPECT_EQ(service.stats().max_batch, n);
    for (std::size_t i = 0; i < n; ++i)
      expect_same_inference(service.result(i),
                            classic_inference(policy, observations[i]),
                            ("batch " + std::to_string(n) + " obs " +
                             std::to_string(i))
                                .c_str());
  }
}

TEST(BatchInferencerTest, RaggedFinalChunkMatchesSingleInfer) {
  il::IlPolicy policy = make_policy();
  il::BatchInferencer service(policy, 32);

  // 37 submissions against a 32 cap: one full chunk plus a ragged 5-tail.
  std::vector<sense::BevImage> observations;
  for (std::size_t i = 0; i < 37; ++i)
    observations.push_back(
        observation_for(policy, "canonical", 100 + i, i % 2 == 0 ? 0.3 : -0.2));
  for (const sense::BevImage& obs : observations) service.submit(obs);
  service.run_tick();

  EXPECT_EQ(service.stats().ticks, 1u);
  EXPECT_EQ(service.stats().requests, 37u);
  EXPECT_EQ(service.stats().batches, 2u);
  EXPECT_EQ(service.stats().max_batch, 32u);
  EXPECT_DOUBLE_EQ(service.stats().mean_batch(), 18.5);

  for (std::size_t i = 0; i < observations.size(); ++i)
    expect_same_inference(service.result(i),
                            classic_inference(policy, observations[i]),
                          ("obs " + std::to_string(i)).c_str());
}

TEST(BatchInferencerTest, EmptyTickIsANoOp) {
  il::IlPolicy policy = make_policy();
  il::BatchInferencer service(policy);
  service.run_tick();
  EXPECT_EQ(service.stats().ticks, 0u);
  EXPECT_EQ(service.stats().requests, 0u);
}

// ------------------------------------- staged sessions == stepped sessions

void expect_same_result(const sim::EpisodeResult& batched,
                        const sim::EpisodeResult& stepped) {
  EXPECT_EQ(batched.outcome, stepped.outcome);
  EXPECT_EQ(batched.frames, stepped.frames);
  EXPECT_EQ(batched.park_time, stepped.park_time);
  EXPECT_EQ(batched.min_clearance, stepped.min_clearance);
  EXPECT_EQ(batched.mode_switches, stepped.mode_switches);
  EXPECT_EQ(batched.il_fraction, stepped.il_fraction);
}

TEST(SessionBatchingTest, IlSessionStageCommitReplaysStep) {
  il::IlPolicy policy = make_policy();

  world::ScenarioOptions opt;
  opt.generator = "canonical";
  opt.time_limit = 4.0;
  const world::Scenario scenario = world::make_scenario(opt, 7u);

  core::IlController stepped_ctrl(policy);
  sim::Session stepped(scenario, stepped_ctrl, 21u);
  while (stepped.step() == sim::Session::Status::kRunning) {
  }

  il::BatchInferencer service(policy, 32);
  core::IlController batched_ctrl(policy);
  sim::Session batched(scenario, batched_ctrl, 21u);
  ASSERT_TRUE(batched.supports_batching());
  while (!batched.done()) {
    if (!batched.stage(service)) break;
    service.run_tick();
    batched.commit(service);
  }

  expect_same_result(batched.result(), stepped.result());
  EXPECT_EQ(batched.state().pose.position.x, stepped.state().pose.position.x);
  EXPECT_EQ(batched.state().pose.position.y, stepped.state().pose.position.y);
  EXPECT_EQ(batched.state().speed, stepped.state().speed);
}

TEST(SessionBatchingTest, IcoilSessionStageCommitReplaysStep) {
  il::IlPolicy policy = make_policy();

  world::ScenarioOptions opt;
  opt.generator = "perpendicular";
  opt.time_limit = 2.0;
  const world::Scenario scenario = world::make_scenario(opt, 3u);

  core::IcoilController stepped_ctrl(core::IcoilConfig(), policy);
  sim::Session stepped(scenario, stepped_ctrl, 5u);
  while (stepped.step() == sim::Session::Status::kRunning) {
  }

  il::BatchInferencer service(policy, 32);
  core::IcoilController batched_ctrl(core::IcoilConfig(), policy);
  sim::Session batched(scenario, batched_ctrl, 5u);
  ASSERT_TRUE(batched.supports_batching());
  while (!batched.done()) {
    if (!batched.stage(service)) break;
    service.run_tick();
    batched.commit(service);
  }

  expect_same_result(batched.result(), stepped.result());
  EXPECT_EQ(batched.state().pose.position.x, stepped.state().pose.position.x);
  EXPECT_EQ(batched.state().pose.position.y, stepped.state().pose.position.y);
  EXPECT_EQ(batched.state().speed, stepped.state().speed);
  EXPECT_GT(service.stats().ticks, 0u);
}

// Two interleaved sessions sharing one service must still replay their
// solo runs exactly — the batch rows of other sessions cannot bleed in.
TEST(SessionBatchingTest, InterleavedSessionsMatchSoloRuns) {
  il::IlPolicy policy = make_policy();

  world::ScenarioOptions opt;
  opt.time_limit = 3.0;
  const world::Scenario sa = world::make_scenario(opt, 11u);
  const world::Scenario sb = world::make_scenario(opt, 12u);

  core::IlController solo_a_ctrl(policy), solo_b_ctrl(policy);
  sim::Session solo_a(sa, solo_a_ctrl, 1u);
  sim::Session solo_b(sb, solo_b_ctrl, 2u);
  while (solo_a.step() == sim::Session::Status::kRunning) {
  }
  while (solo_b.step() == sim::Session::Status::kRunning) {
  }

  il::BatchInferencer service(policy, 32);
  core::IlController ctrl_a(policy), ctrl_b(policy);
  sim::Session sess_a(sa, ctrl_a, 1u);
  sim::Session sess_b(sb, ctrl_b, 2u);
  while (!sess_a.done() || !sess_b.done()) {
    bool any = false;
    if (!sess_a.done()) any |= sess_a.stage(service);
    if (!sess_b.done()) any |= sess_b.stage(service);
    if (!any) break;
    service.run_tick();
    sess_a.commit(service);
    sess_b.commit(service);
  }

  expect_same_result(sess_a.result(), solo_a.result());
  expect_same_result(sess_b.result(), solo_b.result());
}

// ------------------------------------------------ the frame clock in traces

/// Every recorded frame of a traced Session carries its wall time, read off
/// the frame's FrameContext clock by the Session (controllers keep none).
void expect_timed_trace(const sim::Session& session, const char* what) {
  const auto& trace = session.result().trace;
  ASSERT_FALSE(trace.empty()) << what;
  for (std::size_t i = 0; i < trace.size(); ++i)
    ASSERT_GT(trace[i].info.solve_ms, 0.0) << what << " frame " << i;
}

TEST(SessionFrameClockTest, RecordedFramesCarrySolveMs) {
  il::IlPolicy policy = make_policy();
  world::ScenarioOptions opt;
  opt.generator = "canonical";
  opt.time_limit = 1.0;
  const world::Scenario scenario = world::make_scenario(opt, 7u);
  sim::SimConfig config;
  config.record_trace = true;

  core::CoController co{co::CoPlannerConfig{}, vehicle::VehicleParams{}};
  core::IlController il(policy);
  core::IcoilController icoil(core::IcoilConfig(), policy);
  for (core::Controller* controller :
       std::vector<core::Controller*>{&co, &il, &icoil}) {
    sim::Session session(scenario, *controller, 3u, config);
    while (session.step() == sim::Session::Status::kRunning) {
    }
    expect_timed_trace(session, (controller->name() + " step").c_str());
  }

  il::BatchInferencer service(policy, 32);
  for (core::Controller* controller :
       std::vector<core::Controller*>{&il, &icoil}) {
    sim::Session session(scenario, *controller, 3u, config);
    while (session.stage(service)) {
      service.run_tick();
      session.commit(service);
    }
    expect_timed_trace(session, (controller->name() + " stage/commit").c_str());
  }
}

}  // namespace
}  // namespace icoil
