#include "traced_controllers.hpp"

#include <vector>

#include "geom/obb.hpp"
#include "il/batch_inferencer.hpp"
#include "il/observation.hpp"

namespace perfbench {

namespace core = icoil::core;
namespace vehicle = icoil::vehicle;
namespace world = icoil::world;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<icoil::geom::Obb> static_boxes(const world::Scenario& scenario) {
  std::vector<icoil::geom::Obb> boxes;
  for (const world::Obstacle& o : scenario.obstacles)
    if (!o.dynamic()) boxes.push_back(o.shape);
  return boxes;
}

/// CoPlanner::ensure_reference under a co.plan span, counted only on the
/// frame that actually plans (a deferred plan clears the reference).
void traced_ensure_reference(icoil::co::CoPlanner& planner,
                             const core::FrameContext& frame, Tracer* tracer,
                             LayerCounters* counters) {
  if (planner.has_reference()) {
    planner.ensure_reference(&frame);
    return;
  }
  {
    Scope span(tracer, "co.plan");
    planner.ensure_reference(&frame);
  }
  if (counters != nullptr) {
    ++counters->plans;
    counters->plan_expansions +=
        static_cast<std::uint64_t>(planner.last_plan_stats().expansions);
  }
}

/// CoPlanner::act under a co.trajopt span, with the solver counters.
vehicle::Command traced_trajopt(
    icoil::co::CoPlanner& planner, const vehicle::State& state,
    const std::vector<icoil::sense::Detection>& detections,
    const core::FrameContext& frame, Tracer* tracer, LayerCounters* counters) {
  vehicle::Command cmd;
  {
    Scope span(tracer, "co.trajopt");
    cmd = planner.act(state, detections, &frame);
  }
  if (counters != nullptr) {
    const icoil::co::TrajOptResult& r = planner.last_result();
    ++counters->trajopt_calls;
    counters->trajopt_ok += r.ok ? 1 : 0;
    counters->qp_iterations += static_cast<std::uint64_t>(r.qp_iterations);
    counters->obstacle_rows +=
        static_cast<std::uint64_t>(r.active_obstacle_constraints);
  }
  return cmd;
}

}  // namespace

// ------------------------------------------------------------------- CO

TracedCoController::TracedCoController(icoil::co::CoPlannerConfig config,
                                       vehicle::VehicleParams params,
                                       Tracer* tracer, LayerCounters* counters)
    : planner_(config, params), tracer_(tracer), counters_(counters) {}

void TracedCoController::reset(const world::Scenario& scenario) {
  detector_ = std::make_unique<icoil::sense::Detector>(scenario.noise);
  frame_ = {};
  frame_.mode = core::Mode::kCo;
  planner_.defer_reference(scenario.start_pose, scenario.map.goal_pose,
                           static_boxes(scenario), scenario.map.bounds);
}

vehicle::Command TracedCoController::act(const world::World& world,
                                         const vehicle::State& state,
                                         core::FrameContext& frame) {
  Scope span(tracer_, "core.act");
  const auto t0 = std::chrono::steady_clock::now();
  planner_.set_distance_field(world.distance_field());
  std::vector<icoil::sense::Detection> detections;
  {
    Scope detect(tracer_, "sensing.detect");
    detections = detector_->detect(world, state.pose.position, frame.rng());
  }
  traced_ensure_reference(planner_, frame, tracer_, counters_);
  const vehicle::Command cmd =
      traced_trajopt(planner_, state, detections, frame, tracer_, counters_);
  frame_.mode = core::Mode::kCo;
  frame_.command = cmd;
  frame_.deadline_hit = frame.deadline_hit();
  frame_.solve_ms = ms_since(t0);
  return cmd;
}

// ---------------------------------------------------------------- iCOIL

TracedIcoilController::TracedIcoilController(
    core::IcoilConfig config, const icoil::il::IlPolicy& trained_policy,
    Tracer* tracer, LayerCounters* counters)
    : config_(config), policy_(trained_policy.clone()),
      rasterizer_(trained_policy.bev_spec()),
      planner_(config.co, config.vehicle), hsa_(config.hsa),
      switcher_(config.hsa, core::Mode::kCo),
      safety_(config.safety, config.vehicle), model_(config.vehicle),
      tracer_(tracer), counters_(counters) {}

void TracedIcoilController::reset(const world::Scenario& scenario) {
  noise_ = std::make_unique<icoil::sense::ImageNoise>(scenario.noise);
  detector_ = std::make_unique<icoil::sense::Detector>(scenario.noise);
  hsa_.reset();
  switcher_.reset(core::Mode::kCo);
  safety_.reset();
  frame_ = {};
  planner_.defer_reference(scenario.start_pose, scenario.map.goal_pose,
                           static_boxes(scenario), scenario.map.bounds);
}

vehicle::Command TracedIcoilController::act(const world::World& world,
                                            const vehicle::State& state,
                                            core::FrameContext& frame) {
  Scope span(tracer_, "core.act");
  const auto t0 = std::chrono::steady_clock::now();
  planner_.set_distance_field(world.distance_field());
  traced_ensure_reference(planner_, frame, tracer_, counters_);

  icoil::sense::BevImage bev;
  {
    Scope render(tracer_, "sensing.bev_render");
    bev = rasterizer_.render(world, state.pose);
  }
  if (noise_) {
    Scope noise(tracer_, "sensing.noise");
    noise_->apply(bev, frame.rng());
  }
  icoil::il::Inference inf;
  {
    Scope infer(tracer_, "il.infer");
    inf = policy_->infer(icoil::il::make_observation(bev, state.speed));
  }

  std::vector<icoil::sense::Detection> detections;
  {
    Scope detect(tracer_, "sensing.detect");
    detections = detector_->detect(world, state.pose.position, frame.rng());
  }
  const icoil::geom::Obb ego = model_.footprint(state);
  std::vector<double> distances;
  distances.reserve(detections.size());
  for (const icoil::sense::Detection& d : detections)
    distances.push_back(icoil::geom::obb_distance(ego, d.box));

  {
    Scope push(tracer_, "core.hsa_push");
    hsa_.push(inf.entropy, distances);
  }
  core::Mode mode;
  {
    Scope update(tracer_, "core.mode_update");
    mode = switcher_.update(hsa_.ratio());
  }

  vehicle::Command cmd;
  if (mode == core::Mode::kIl) {
    Scope filter(tracer_, "core.safety_filter");
    cmd = safety_.filter(world, state, inf.command);
  } else {
    cmd = traced_trajopt(planner_, state, detections, frame, tracer_,
                         counters_);
  }

  frame_.mode = mode;
  frame_.entropy = inf.entropy;
  frame_.uncertainty = hsa_.uncertainty();
  frame_.complexity = hsa_.normalized_complexity();
  frame_.ratio = hsa_.ratio();
  frame_.command = cmd;
  frame_.deadline_hit = frame.deadline_hit();
  frame_.solve_ms = ms_since(t0);
  return cmd;
}

// ------------------------------------------------------------------- IL

TracedIlController::TracedIlController(const icoil::il::IlPolicy& trained_policy,
                                       Tracer* tracer)
    : policy_(trained_policy.clone()), rasterizer_(trained_policy.bev_spec()),
      tracer_(tracer) {}

void TracedIlController::reset(const world::Scenario& scenario) {
  noise_ = std::make_unique<icoil::sense::ImageNoise>(scenario.noise);
  frame_ = {};
  frame_.mode = core::Mode::kIl;
}

icoil::sense::BevImage TracedIlController::sense(const world::World& world,
                                                 const vehicle::State& state,
                                                 core::FrameContext& frame) {
  icoil::sense::BevImage bev;
  {
    Scope render(tracer_, "sensing.bev_render");
    bev = rasterizer_.render(world, state.pose);
  }
  if (noise_) {
    Scope noise(tracer_, "sensing.noise");
    noise_->apply(bev, frame.rng());
  }
  return bev;
}

vehicle::Command TracedIlController::finish_frame(
    const icoil::il::Inference& inf, std::chrono::steady_clock::time_point t0) {
  frame_.mode = core::Mode::kIl;
  frame_.entropy = inf.entropy;
  frame_.uncertainty = inf.entropy;
  frame_.complexity = 0.0;
  frame_.ratio = 0.0;
  frame_.command = inf.command;
  frame_.deadline_hit = false;
  frame_.solve_ms = ms_since(t0);
  return inf.command;
}

vehicle::Command TracedIlController::act(const world::World& world,
                                         const vehicle::State& state,
                                         core::FrameContext& frame) {
  Scope span(tracer_, "core.act");
  const auto t0 = std::chrono::steady_clock::now();
  const icoil::sense::BevImage bev = sense(world, state, frame);
  icoil::il::Inference inf;
  {
    Scope infer(tracer_, "il.infer");
    inf = policy_->infer(icoil::il::make_observation(bev, state.speed));
  }
  return finish_frame(inf, t0);
}

void TracedIlController::stage(const world::World& world,
                               const vehicle::State& state,
                               core::FrameContext& frame,
                               icoil::il::BatchInferencer& service) {
  Scope span(tracer_, "core.stage");
  stage_t0_ = std::chrono::steady_clock::now();
  const icoil::sense::BevImage bev = sense(world, state, frame);
  Scope submit(tracer_, "il.submit");
  slot_ = service.submit(icoil::il::make_observation(bev, state.speed));
}

vehicle::Command TracedIlController::commit(
    const world::World&, const vehicle::State&, core::FrameContext&,
    const icoil::il::BatchInferencer& service) {
  Scope span(tracer_, "core.commit");
  return finish_frame(service.result(slot_), stage_t0_);
}

}  // namespace perfbench
