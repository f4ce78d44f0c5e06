#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "co/heuristic.hpp"
#include "core/cancel_token.hpp"
#include "core/controller_registry.hpp"
#include "mathkit/fnv.hpp"
#include "mission/mission.hpp"
#include "serve/frontend.hpp"
#include "sim/session.hpp"
#include "traced_controllers.hpp"
#include "world/scenario.hpp"

namespace perfbench {

namespace co = icoil::co;
namespace core = icoil::core;
namespace il = icoil::il;
namespace mission = icoil::mission;
namespace serve = icoil::serve;
namespace sim = icoil::sim;
namespace world = icoil::world;

namespace {

using Clock = std::chrono::steady_clock;

/// Spans reserved for the one tracer of a CO-bound pass: well above the
/// 8-11 thousand a 20 s pass records.
constexpr std::size_t kTracerReserve = 1 << 16;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seed of work unit `k` of a run seeded `seed` (splitmix64 finalizer).
std::uint64_t unit_seed(std::uint64_t seed, std::size_t k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + k + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) % 1000000007ull;
}

/// Builds the process-wide Reeds-Shepp heuristic tables the default
/// hybrid-A* planner uses. With `shared` the tables land in the process
/// cache every later plan reads; otherwise equal tables are built and
/// dropped, which costs the same and measures a cold set-up again.
void warm_rs_tables(bool shared) {
  const co::HybridAStarConfig astar = co::CoPlannerConfig{}.astar;
  const double radius =
      icoil::vehicle::VehicleParams{}.min_turn_radius() * astar.rs_radius_factor;
  std::vector<co::RsLutSpec> specs{{radius, astar.lut_xy_resolution,
                                    astar.lut_extent, astar.lut_heading_bins}};
  if (astar.lut_fine_extent > 0.0)
    specs.push_back({radius, astar.lut_fine_xy_resolution,
                     astar.lut_fine_extent, astar.lut_fine_heading_bins});
  for (const co::RsLutSpec& spec : specs) {
    if (shared) {
      co::RsHeuristicLut::shared(spec);
    } else {
      const co::RsHeuristicLut table(spec);
      if (!(table.slack() >= 0.0)) throw std::runtime_error("bad RS table");
    }
  }
}

std::unique_ptr<il::IlPolicy> load_policy(const Dirs& dirs) {
  const sim::PolicyStoreOptions options = bench_policy_options(dirs);
  const std::string path = sim::policy_cache_path(options);
  auto policy = std::make_unique<il::IlPolicy>(options.policy);
  if (!policy->load(path))
    throw std::runtime_error("no trained policy at " + path +
                             " (run `perfbench --prepare` first)");
  return policy;
}

void add_episode(icoil::math::Fnv1a& h, const sim::EpisodeResult& r) {
  h.add_int(static_cast<std::int64_t>(r.outcome));
  h.add_double(r.park_time);
  h.add_int(static_cast<std::int64_t>(r.frames));
  h.add_double(r.min_clearance);
  h.add_int(r.mode_switches);
  h.add_double(r.il_fraction);
  h.add_int(r.deadline_hits);
}

/// Validity of a finished episode's outcome; empty when valid.
std::string episode_problem(const sim::EpisodeResult& r, double time_limit) {
  if (r.outcome == sim::Outcome::kBudgetExceeded)
    return "episode ended budget_exceeded without a budget";
  if (r.frames == 0) return "episode ran no frames";
  if (r.success() && !(r.park_time > 0.0 && r.park_time <= time_limit + 1e-9))
    return "parked episode with park_time outside (0, time_limit]";
  if (!(r.min_clearance >= 0.0)) return "negative or NaN clearance";
  if (!(r.il_fraction >= 0.0 && r.il_fraction <= 1.0))
    return "il_fraction outside [0, 1]";
  return {};
}

/// Seed of corpus unit `j`. The CO-bound workloads run a fixed corpus:
/// their cost is dominated by long streaks of heavy QP frames that only
/// some scenarios hit, so runs over freshly drawn scenarios would differ by
/// which streaks they drew, not by how fast the program is.
std::uint64_t corpus_seed(std::size_t j) { return unit_seed(1, j); }

/// Schedules the work units of a pass over a corpus. A pass gives corpus
/// unit `j` at most `caps[j]` frames (a unit that ends sooner simply ends),
/// so every run does the same work whatever the host's speed. `safety_s`
/// wall seconds for the whole pass is only a safety stop for a program far
/// slower than the budgets assume. A replay gives the k-th unit exactly the
/// frames the plan recorded for it. The run seed rotates the corpus order.
struct Schedule {
  std::vector<std::size_t> caps;
  double safety_s = 0.0;
  const std::vector<std::size_t>* plan = nullptr;
  std::uint64_t seed = 0;
  Clock::time_point start = Clock::now();

  std::size_t units() const { return caps.size(); }
  /// Corpus index of the k-th unit this pass runs.
  std::size_t corpus_index(std::size_t k) const { return (seed + k) % units(); }
  /// True when unit `k`, having run `frames` frames, must stop now.
  bool cut(std::size_t k, std::size_t frames) const {
    if (plan != nullptr) return frames >= (*plan)[k];
    return frames >= caps[corpus_index(k)] || seconds_since(start) >= safety_s;
  }
  /// True when unit `k`, stopped after `frames` frames before its own end,
  /// was stopped by the safety stop rather than its budget.
  bool safety_stopped(std::size_t k, std::size_t frames) const {
    return plan == nullptr && frames < caps[corpus_index(k)];
  }
};

/// Wall time a pass may take, as a multiple of the run's seconds, before
/// the safety stop ends it.
constexpr double kSafetyFactor = 2.5;

void finish_pass(PassResult& out) {
  for (const auto& tracer : out.tracers) accumulate(tracer->spans(), out.totals);
}

/// Per-solve and per-plan averages of the CO counters.
void add_counter_metrics(const LayerCounters& c,
                         std::map<std::string, double>& layer) {
  const double calls = static_cast<double>(c.trajopt_calls);
  const auto per_call = [&](std::uint64_t n) {
    return calls > 0 ? static_cast<double>(n) / calls : 0.0;
  };
  layer["co.trajopt_calls"] = calls;
  layer["co.trajopt_ok_ratio"] = per_call(c.trajopt_ok);
  layer["co.active_obstacle_rows"] = per_call(c.obstacle_rows);
  layer["mathkit.qp_iterations_per_solve"] = per_call(c.qp_iterations);
  layer["co.plan_expansions"] =
      c.plans > 0 ? static_cast<double>(c.plan_expansions) /
                        static_cast<double>(c.plans)
                  : 0.0;
}

// ------------------------------------------------------------- icoil_lot

/// The paper's method on single canonical-lot episodes (Table II setting),
/// normal and hard difficulty alternating, stepped frame by frame.
class IcoilLot final : public Workload {
 public:
  static constexpr std::size_t kUnits = 2;
  /// Times an untraced pass runs the same work. Most of its time goes to a
  /// few seconds-long streaks of large QPs; measured once, a streak sits in
  /// one short stretch of the host's speed. Each frame reports its median
  /// time over the repetitions (for two, their mean), so each streak is
  /// measured at two moments of the run.
  static constexpr int kRepetitions = 2;
  /// Frames per second of run, split evenly over the units: a pass gives
  /// each episode seconds * kFramesPerSecond / kUnits frames (about the
  /// run's length at the current speed). A fixed frame count keeps the mix
  /// of light and heavy frames the same in every run, which a wall-clock
  /// slice did not: it ended each episode wherever the host's speed left
  /// it, inside or past a QP streak.
  static constexpr double kFramesPerSecond = 48.0;

  IcoilLot(std::uint64_t seed, Dirs dirs) : seed_(seed), dirs_(std::move(dirs)) {}

  double setup(bool first) override {
    const auto t0 = Clock::now();
    policy_ = load_policy(dirs_);
    warm_rs_tables(first);
    const world::Scenario sc = scenario(0);
    core::ControllerBuildArgs args;
    args.policy = policy_.get();
    auto controller = core::ControllerRegistry::instance().build("icoil", args);
    controller->reset(sc);
    return seconds_since(t0);
  }

  /// Untraced: the work once under its budgets, then replayed from the plan
  /// that repetition recorded; every repetition must reproduce the first's
  /// outcomes bit for bit. Traced: one replay of `plan`.
  PassResult run(double seconds, const std::vector<std::size_t>* plan,
                 bool traced) override {
    std::vector<double> frame_ms, first_ms;
    PassResult out = pass(seconds, plan, traced, frame_ms, first_ms);
    std::vector<std::vector<double>> frames{std::move(frame_ms)};
    std::vector<std::vector<double>> firsts{std::move(first_ms)};
    for (int r = 1; !traced && r < kRepetitions; ++r) {
      frames.emplace_back();
      firsts.emplace_back();
      const PassResult again =
          pass(0.0, &out.plan, false, frames.back(), firsts.back());
      if (again.digests != out.digests || again.frames != out.frames)
        out.invalid.push_back("repetition " + std::to_string(r + 1) +
                              " did not reproduce the first's outcomes");
      out.wall_s += again.wall_s;
      ++out.repetitions;
    }
    out.frames_per_s =
        static_cast<double>(out.repetitions) * static_cast<double>(out.frames) /
        out.wall_s;
    const std::vector<double> frame = per_frame_median(frames);
    out.frame_p50 = percentile(frame, 50.0);
    out.frame_p99 = percentile(frame, 99.0);
    out.first_frame_p50 = percentile(per_frame_median(firsts), 50.0);
    return out;
  }

 private:
  /// One run of the work: frame times [ms] go to `frame_ms` (steady-state
  /// frames) and `first_ms` (each episode's first frame), in frame order.
  PassResult pass(double seconds, const std::vector<std::size_t>* plan,
                  bool traced, std::vector<double>& frame_ms,
                  std::vector<double>& first_ms) {
    PassResult out;
    Tracer* tracer = nullptr;
    if (traced) {
      out.tracers.push_back(std::make_unique<Tracer>(kTracerReserve));
      tracer = out.tracers.back().get();
    }
    LayerCounters counters;
    std::uint64_t il_frames = 0, mode_switches = 0, episodes_done = 0;
    const auto cap = static_cast<std::size_t>(seconds * kFramesPerSecond / kUnits);
    Schedule schedule{std::vector<std::size_t>(kUnits, cap),
                      kSafetyFactor * seconds, plan, seed_};
    const auto pass_start = Clock::now();

    for (std::size_t k = 0; k < kUnits; ++k) {
      const std::size_t j = schedule.corpus_index(k);
      const world::Scenario sc = scenario(j);
      std::unique_ptr<core::Controller> controller;
      if (traced) {
        controller = std::make_unique<TracedIcoilController>(
            core::IcoilConfig{}, *policy_, tracer, &counters);
        tracer->set_group(j);
      } else {
        controller = build_icoil();
      }

      const double open0 = now_us();
      sim::Session session(sc, *controller, corpus_seed(j));
      std::size_t frames = 0;
      const double open_ms = (now_us() - open0) / 1000.0;
      while (!session.done() && !schedule.cut(k, frames)) {
        const std::size_t before = session.frame();
        const double t0 = now_us();
        {
          Scope step(tracer, "sim.step");
          session.step();
        }
        const double t1 = now_us();
        if (traced) out.frame_windows.push_back({t0, t1});
        const double ms = (t1 - t0) / 1000.0;
        if (session.frame() == before) break;  // terminal check, no frame
        ++frames;
        if (frames == 1)
          first_ms.push_back(open_ms + ms);
        else
          frame_ms.push_back(ms);
        if (controller->last_frame().mode == core::Mode::kIl) ++il_frames;
      }
      out.frames += frames;
      out.plan.push_back(session.done() ? kWhole : frames);

      const sim::EpisodeResult& r = session.result();
      icoil::math::Fnv1a h;
      add_episode(h, r);
      h.add_int(session.done() ? 1 : 0);
      h.add_double(session.state().pose.position.x);
      h.add_double(session.state().pose.position.y);
      h.add_double(session.state().pose.heading);
      h.add_double(session.state().speed);
      out.digests.push_back(h.value());
      ++out.attempted;
      if (!session.done()) {  // stopped by its budget: no outcome
        if (schedule.safety_stopped(k, frames)) ++out.safety_stops;
        continue;
      }

      const std::string problem = episode_problem(r, sc.time_limit);
      if (!problem.empty())
        out.invalid.push_back("episode " + std::to_string(j) + ": " + problem);
      out.add_outcome(r);
      out.failed += r.success() ? 0 : 1;
      ++episodes_done;
      mode_switches += static_cast<std::uint64_t>(r.mode_switches);
    }
    out.wall_s = seconds_since(pass_start);

    if (traced) {
      finish_pass(out);
      const double frames = static_cast<double>(std::max<std::uint64_t>(1, out.frames));
      out.layer["sim.overhead_ms_per_frame"] = out.totals["sim.step"].self_ms / frames;
      out.layer["core.il_frame_fraction"] = static_cast<double>(il_frames) / frames;
      out.layer["core.mode_switches_per_episode"] =
          episodes_done > 0 ? static_cast<double>(mode_switches) /
                                  static_cast<double>(episodes_done)
                            : 0.0;
      add_counter_metrics(counters, out.layer);
    }
    return out;
  }

  std::unique_ptr<core::Controller> build_icoil() const {
    core::ControllerBuildArgs args;
    args.policy = policy_.get();
    return core::ControllerRegistry::instance().build("icoil", args);
  }

  /// Corpus unit `j`: the canonical lot, normal and hard alternating.
  static world::Scenario scenario(std::size_t j) {
    world::ScenarioOptions opt;
    opt.generator = "canonical";
    opt.difficulty =
        j % 2 == 0 ? world::Difficulty::kNormal : world::Difficulty::kHard;
    return world::make_scenario(opt, corpus_seed(j));
  }

  std::uint64_t seed_;
  Dirs dirs_;
  std::unique_ptr<il::IlPolicy> policy_;
};

// ------------------------------------------------------- mission_traffic

/// Forwards every call to the controller that drives a mission and times
/// each frame from outside it: a frame runs from one act() to the next
/// within a leg, the Session step around act() included; the time to a
/// leg's first command runs from its reset() to the end of its first act().
/// Traced, it records the part of each frame outside act() as a
/// sim.outside_act span and every timed frame as a frame window. Its own
/// bookkeeping runs after act() returns, inside the next sim.outside_act
/// span, so the spans account for all of a frame. It trips `cancel` once
/// the schedule says the mission must stop, so the mission ends at a frame
/// count a replay can reproduce.
class FrameTap final : public core::Controller {
 public:
  FrameTap(core::Controller& inner, const Schedule& schedule, std::size_t unit,
           core::CancelToken& cancel, PassResult& out, Tracer* tracer,
           std::vector<double>& frame_ms, std::vector<double>& first_ms)
      : inner_(inner), schedule_(schedule), unit_(unit), cancel_(cancel),
        out_(out), tracer_(tracer), frame_ms_(frame_ms), first_ms_(first_ms) {}

  std::string name() const override { return inner_.name(); }
  void reset(const world::Scenario& scenario) override {
    inner_.reset(scenario);
    leg_open_us_ = now_us();
    leg_frames_ = 0;
  }
  using Controller::act;
  icoil::vehicle::Command act(const world::World& w,
                              const icoil::vehicle::State& state,
                              core::FrameContext& frame) override {
    const double start = now_us();
    const double prev_start = last_act_us_;
    const double prev_return = last_return_us_;
    last_act_us_ = start;
    ++leg_frames_;
    const icoil::vehicle::Command cmd = inner_.act(w, state, frame);
    last_return_us_ = now_us();

    if (leg_frames_ == 1) {
      first_ms_.push_back((last_return_us_ - leg_open_us_) / 1000.0);
    } else {  // the leg's previous frame ended at `start`
      if (tracer_ != nullptr)
        tracer_->record("sim.outside_act", prev_return, start);
      if (leg_frames_ > 2) {  // the leg's first frame is not timed
        frame_ms_.push_back((start - prev_start) / 1000.0);
        if (tracer_ != nullptr) out_.frame_windows.push_back({prev_start, start});
      }
    }
    ++frames_;
    if (schedule_.cut(unit_, frames_)) cancel_.cancel();
    return cmd;
  }
  const core::FrameInfo& last_frame() const override {
    return inner_.last_frame();
  }

  std::size_t frames() const { return frames_; }

 private:
  core::Controller& inner_;
  const Schedule& schedule_;
  std::size_t unit_;
  core::CancelToken& cancel_;
  PassResult& out_;
  Tracer* tracer_;
  std::vector<double>& frame_ms_;
  std::vector<double>& first_ms_;
  double leg_open_us_ = 0.0;
  double last_act_us_ = 0.0;
  double last_return_us_ = 0.0;
  std::size_t leg_frames_ = 0;
  std::size_t frames_ = 0;
};

/// CO-driven multi-leg missions among behaviour-driven traffic, one at a
/// time: one contested_lot and one rush_hour mission.
class MissionTraffic final : public Workload {
 public:
  static constexpr std::size_t kUnits = 2;
  /// Frame budget of each corpus mission per second of run. A fixed frame
  /// budget keeps the legs and QP sizes every run measures the same
  /// whatever the host's speed, which a wall-clock slice did not. At 20 s:
  /// - contested_lot, 550 frames: enter_lot (298), the replan for the
  ///   stolen bay, cruise_to_bay (213), then the first ~38 frames of park,
  ///   where a streak of large QPs starts;
  /// - rush_hour, 1400 frames: the whole mission (1333 frames: enter_lot
  ///   among circulating traffic, cruise_to_bay, park, dwell, unpark, exit).
  static constexpr double kFramesPerSecond[kUnits] = {27.5, 70.0};

  explicit MissionTraffic(std::uint64_t seed) : seed_(seed) {}

  double setup(bool first) override {
    const auto t0 = Clock::now();
    warm_rs_tables(first);
    const mission::Mission m(spec(0), corpus_seed(0));
    auto controller = core::ControllerRegistry::instance().build("co");
    controller->reset(m.base_scenario());
    return seconds_since(t0);
  }

  PassResult run(double seconds, const std::vector<std::size_t>* plan,
                 bool traced) override {
    PassResult out;
    Tracer* tracer = nullptr;
    if (traced) {
      out.tracers.push_back(std::make_unique<Tracer>(kTracerReserve));
      tracer = out.tracers.back().get();
    }
    LayerCounters counters;
    std::vector<double> frame_ms, first_ms;
    int missions = 0, replans = 0;
    std::vector<std::size_t> caps;
    for (const double rate : kFramesPerSecond)
      caps.push_back(static_cast<std::size_t>(seconds * rate));
    Schedule schedule{caps, kSafetyFactor * seconds, plan, seed_};
    const auto pass_start = Clock::now();

    for (std::size_t k = 0; k < kUnits; ++k) {
      const std::size_t j = schedule.corpus_index(k);
      mission::Mission m(spec(j), corpus_seed(j));
      std::unique_ptr<core::Controller> inner;
      if (traced) {
        inner = std::make_unique<TracedCoController>(
            co::CoPlannerConfig{}, icoil::vehicle::VehicleParams{}, tracer,
            &counters);
        tracer->set_group(j);
      } else {
        inner = core::ControllerRegistry::instance().build("co");
      }
      core::CancelToken cancel;
      FrameTap tap(*inner, schedule, k, cancel, out, tracer, frame_ms, first_ms);
      mission::MissionResult r;
      {
        Scope span(tracer, "mission.run");
        r = m.run(tap, &cancel);
      }
      const bool cut = cancel.cancelled();
      if (cut && schedule.safety_stopped(k, tap.frames())) ++out.safety_stops;
      out.frames += tap.frames();
      out.plan.push_back(cut ? tap.frames() : kWhole);
      out.digests.push_back(r.fingerprint());
      ++missions;
      replans += r.replans;

      const std::string problem = mission_problem(r, cut);
      if (!problem.empty())
        out.invalid.push_back("mission " + std::to_string(j) + ": " + problem);
      std::string legs;
      for (std::size_t i = 0; i < r.legs.size(); ++i) {
        const mission::LegResult& leg = r.legs[i];
        char wall[32];
        std::snprintf(wall, sizeof(wall), "/%.1fs", leg.wall_seconds);
        legs += std::string(" ") + mission::to_string(leg.type) + ":" +
                std::to_string(leg.frames) + wall;
        if (leg.type == mission::LegType::kDwell) continue;
        ++out.attempted;
        if (cut && i + 1 == r.legs.size()) {  // the leg the budget stopped
          legs += "(stopped)";
          continue;
        }
        legs += std::string("(") + mission::to_string(leg.status) + ")";
        if (leg.status == mission::LegStatus::kReplanned) continue;
        ++out.finished;
        if (leg.status == mission::LegStatus::kCompleted)
          ++out.succeeded;
        else
          ++out.failed;
        if (leg.outcome == sim::Outcome::kCollision) ++out.collided;
      }
      if (r.parked_bay >= 0) {
        ++out.parked;
        out.park_time_sum += r.park_time;
      }
      out.notes.push_back("mission " + std::to_string(j) + " " + spec(j).name +
                          ", " + std::to_string(tap.frames()) + " frames" +
                          (cut ? "" : ", ran to its end") +
                          (cut || !r.success ? "" : ", completed") + ":" + legs);
    }
    out.wall_s = seconds_since(pass_start);
    out.frames_per_s = static_cast<double>(out.frames) / out.wall_s;
    out.frame_p50 = percentile(frame_ms, 50.0);
    out.frame_p99 = percentile(frame_ms, 99.0);
    out.first_frame_p50 = percentile(first_ms, 50.0);

    if (traced) {
      finish_pass(out);
      const SpanTotals& outside = out.totals["sim.outside_act"];
      out.layer["sim.overhead_ms_per_frame"] =
          outside.count > 0 ? outside.total_ms / static_cast<double>(outside.count)
                            : 0.0;
      out.layer["core.il_frame_fraction"] = 0.0;
      out.layer["core.mode_switches_per_episode"] = 0.0;
      out.layer["mission.legs_per_mission"] =
          static_cast<double>(out.attempted) / std::max(1, missions);
      out.layer["mission.replans_per_mission"] =
          static_cast<double>(replans) / std::max(1, missions);
      add_counter_metrics(counters, out.layer);
    }
    return out;
  }

 private:
  /// Corpus unit `j`: contested_lot, then rush_hour.
  static const mission::MissionSpec& spec(std::size_t j) {
    return mission::MissionRegistry::instance().at(
        j % 2 == 0 ? "contested_lot" : "rush_hour");
  }

  static std::string mission_problem(const mission::MissionResult& r,
                                     bool cut) {
    if (r.legs.empty()) return "mission ran no legs";
    const mission::LegResult& last = r.legs.back();
    if (cut) {
      if (last.outcome != sim::Outcome::kBudgetExceeded || r.success)
        return "mission stopped by its budget did not end on its stopped leg";
      return {};
    }
    for (const mission::LegResult& leg : r.legs)
      if (leg.outcome == sim::Outcome::kBudgetExceeded &&
          leg.status != mission::LegStatus::kReplanned)
        return "leg ended budget_exceeded without a budget";
    if (r.success && !(r.parked_bay >= 0 && r.park_time > 0.0 &&
                       r.exit_time >= r.park_time))
      return "completed mission without a park and exit time";
    if (r.success && last.type != mission::LegType::kExit)
      return "completed mission that did not end with the exit leg";
    return {};
  }

  std::uint64_t seed_;
};

// -------------------------------------------------------- serve_batch_il

/// serve::Frontend serving IL sessions of the canonical lot with batched
/// inference, offered load above admission capacity (unbounded queue): one
/// Frontend::run per pass, its offered load sized from the run's seconds.
class ServeBatchIl final : public Workload {
 public:
  /// Sessions offered per second of run: about the run's length at the
  /// current speed. One run over a fixed offered load keeps the mix of
  /// full and draining ticks the same in every run; rounds cut by the
  /// clock changed it with the host's speed.
  static constexpr double kSessionsPerSecond = 11.0;
  /// The sessions come from one fixed pool of scenarios, as the other
  /// workloads' corpora do: session i of a run seeded s serves scenario
  /// seed corpus_seed(0) + s % kSeedShift + i, so the seed shifts the
  /// offered stream along the pool. Drawn afresh from each seed, the
  /// sessions differed in frame rate by about 10% from seed to seed (two
  /// seeds kept that gap over repeated runs).
  static constexpr std::uint64_t kSeedShift = 11;
  static constexpr int kCapacity = 48;   ///< admission: max active sessions
  /// One pool worker beside the calling thread, which runs each tick's
  /// batched forward. On a shared 4-vCPU host, wider pools made the tick
  /// barrier wait on descheduled workers: frame p99 moved by 30-60% from
  /// run to run with 3 workers, against about 15% with one. The two
  /// threads never work at once, so the pass pins both to one CPU: the
  /// handoffs at each tick's two barriers are then a switch on that CPU,
  /// not a wake-up of the other thread's CPU, which a shared host delays
  /// now and then (unpinned frame p99 read 29-37 ms over three runs,
  /// pinned 25-27 ms).
  static constexpr int kWorkers = 1;
  static constexpr double kTimeLimit = 12.0;  ///< per-episode sim seconds

  ServeBatchIl(std::uint64_t seed, Dirs dirs) : seed_(seed), dirs_(std::move(dirs)) {
    register_traced();
  }

  double setup(bool /*first*/) override {
    const auto t0 = Clock::now();
    policy_ = load_policy(dirs_);
    const serve::FrontendConfig cfg = config(kCapacity, false);
    std::string error;
    if (!serve::Frontend::validate(cfg, &error))
      throw std::runtime_error("serve config: " + error);
    core::ControllerBuildArgs args;
    args.policy = policy_.get();
    for (int i = 0; i < kCapacity; ++i) {
      world::ScenarioOptions opt;
      opt.difficulty = cfg.difficulty;
      opt.time_limit = cfg.time_limit;
      const world::Scenario sc = world::make_scenario(
          opt, cfg.base_seed + static_cast<std::uint64_t>(i));
      auto controller = core::ControllerRegistry::instance().build("il", args);
      controller->reset(sc);
    }
    return seconds_since(t0);
  }

  PassResult run(double seconds, const std::vector<std::size_t>* plan,
                 bool traced) override {
    PassResult out;
    Tracer* main_tracer = nullptr;
    if (traced) {
      out.tracers.push_back(std::make_unique<Tracer>());
      main_tracer = out.tracers.back().get();
      sink_ = &out.tracers;
    }
    // A replay's plan holds the offered load of the pass it repeats.
    const int sessions =
        plan != nullptr ? static_cast<int>((*plan)[0])
                        : std::max(kCapacity + 1,
                                   static_cast<int>(seconds * kSessionsPerSecond));
    next_group_ = 0;
    serve::FrontendResult res;
    int cpu = -1;
    {
      const PinToOneCpu pin;  // the pool's threads start inside run()
      cpu = pin.cpu();
      Scope span(main_tracer, "serve.run");
      res = serve::Frontend(config(sessions, traced)).run();
    }
    const sim::ServeStats& st = res.stats;
    out.plan.push_back(static_cast<std::size_t>(sessions));
    out.frames = st.frames;
    out.wall_s = st.wall_seconds;
    out.frames_per_s = st.frames_per_second;
    // Frontend keeps the samples; the pass gets its percentiles, each with
    // that share of the frames above it.
    const auto summary = [](double value, std::uint64_t samples, double p) {
      Percentile out_p;
      out_p.value = value;
      out_p.samples = samples;
      out_p.beyond =
          static_cast<std::size_t>(static_cast<double>(samples) * (1.0 - p / 100.0));
      return out_p;
    };
    out.frame_p50 = summary(st.frame.p50_ms, st.frame.count, 50.0);
    out.frame_p99 = summary(st.frame.p99_ms, st.frame.count, 99.0);
    out.first_frame_p50 = summary(st.warmup.p50_ms, st.warmup.count, 50.0);

    icoil::math::Fnv1a h;
    h.add_int(static_cast<std::int64_t>(res.episodes.size()));
    for (const sim::EpisodeResult& r : res.episodes) {
      add_episode(h, r);
      const std::string problem = episode_problem(r, kTimeLimit);
      if (!problem.empty()) out.invalid.push_back(problem);
      out.add_outcome(r);
    }
    for (const int shed : res.shed_sessions) h.add_int(shed);
    out.digests.push_back(h.value());
    out.attempted = st.offered;
    out.failed = st.offered - static_cast<int>(res.episodes.size());
    if (st.shed != 0 || st.admitted != sessions)
      out.invalid.push_back("admission shed arrivals from an unbounded queue");
    if (st.queued == 0) out.invalid.push_back("offered load never queued");

    const double mean_batch =
        st.batching ? st.batching->mean_batch : 0.0;
    char note[160];
    std::snprintf(note, sizeof(note),
                  "serving: %d sessions offered, capacity %d, %d worker, "
                  "mean batch %.2f, ",
                  sessions, kCapacity, kWorkers, mean_batch);
    out.notes.push_back(note + (cpu >= 0 ? "pinned to CPU " + std::to_string(cpu)
                                         : std::string("not pinned")));

    if (traced) {
      sink_ = nullptr;
      finish_pass(out);
      const double frames = static_cast<double>(std::max<std::uint64_t>(1, out.frames));
      const double latency_ms_sum =
          st.frame.mean_ms * static_cast<double>(st.frame.count) +
          st.warmup.mean_ms * static_cast<double>(st.warmup.count);
      const double controller_ms =
          out.totals["core.stage"].total_ms + out.totals["core.commit"].total_ms;
      double forward_ms = 0.0, gather_scatter_ms = 0.0, ticks = 0.0;
      if (st.batching) {
        ticks = static_cast<double>(st.batching->ticks);
        forward_ms = st.batching->forward_seconds * 1000.0;
        gather_scatter_ms = (st.batching->gather_seconds +
                             st.batching->scatter_seconds) * 1000.0;
      }
      const auto per_tick = [&](double ms) { return ticks > 0 ? ms / ticks : 0.0; };
      out.layer["sim.overhead_ms_per_frame"] =
          (latency_ms_sum - controller_ms) / frames -
          per_tick(forward_ms + gather_scatter_ms);
      out.layer["core.il_frame_fraction"] = 1.0;
      out.layer["core.mode_switches_per_episode"] = 0.0;
      out.layer["il.batch_forward_ms_per_tick"] = per_tick(forward_ms);
      out.layer["il.gather_scatter_ms_per_tick"] = per_tick(gather_scatter_ms);
      out.layer["il.mean_batch"] = mean_batch;
      out.layer["serve.queue_wait_p99_ms"] = st.queue.p99_ms;
    }
    return out;
  }

 private:
  serve::FrontendConfig config(int sessions, bool traced) const {
    serve::FrontendConfig cfg;
    cfg.method = traced ? "il-traced" : "il";
    cfg.sessions = sessions;
    cfg.time_limit = kTimeLimit;
    cfg.difficulty = world::Difficulty::kNormal;
    cfg.threads = kWorkers;
    cfg.base_seed = corpus_seed(0) + seed_ % kSeedShift;
    cfg.batch_inference = true;
    cfg.max_batch = kCapacity;
    cfg.warmup_frames = 1;
    cfg.policy = policy_.get();
    cfg.admission.max_active = kCapacity;
    cfg.admission.queue_limit = -1;
    return cfg;
  }

  /// Registers "il-traced": the traced IL controller, one Tracer per built
  /// controller, collected into the running traced pass. Frontend builds
  /// every controller on the calling thread before any worker runs, so
  /// growing the pass's tracer list here is race-free.
  void register_traced() {
    core::ControllerRegistry::instance().add(
        {"il-traced", "IL", "IL with benchmark spans", true,
         [this](const core::ControllerBuildArgs& args)
             -> std::unique_ptr<core::Controller> {
           if (sink_ == nullptr)
             throw std::logic_error("il-traced built outside a traced pass");
           sink_->push_back(std::make_unique<Tracer>());
           sink_->back()->set_group(next_group_++);
           return std::make_unique<TracedIlController>(*args.policy,
                                                       sink_->back().get());
         }});
  }

  std::uint64_t seed_;
  Dirs dirs_;
  std::unique_ptr<il::IlPolicy> policy_;
  std::vector<std::unique_ptr<Tracer>>* sink_ = nullptr;
  std::uint64_t next_group_ = 0;
};

}  // namespace

sim::PolicyStoreOptions bench_policy_options(const Dirs& dirs) {
  sim::PolicyStoreOptions options;
  options.cache_path = dirs.policy + "/il_policy.bin";
  options.dataset_cache_path = dirs.cache + "/il_dataset.bin";
  options.expert.episodes = 24;
  options.expert.thread_cap = 4;
  options.train.epochs = 24;
  options.train.batch_size = 64;
  options.train.num_threads = 4;
  options.verbose = false;
  return options;
}

std::uint64_t prepare_policy(const Dirs& dirs) {
  std::filesystem::create_directories(dirs.policy);
  std::filesystem::create_directories(dirs.cache);
  sim::PolicyStoreOptions options = bench_policy_options(dirs);
  options.verbose = true;
  sim::get_or_train_policy(options);
  return sim::policy_fingerprint(options);
}

std::uint64_t policy_weights_digest(const Dirs& dirs) {
  std::ifstream in(sim::policy_cache_path(bench_policy_options(dirs)),
                   std::ios::binary);
  if (!in) return 0;
  icoil::math::Fnv1a h;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
    h.add_bytes(buf, static_cast<std::size_t>(in.gcount()));
  return h.value();
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, const Dirs& dirs) {
  if (name == "mission_traffic") return std::make_unique<MissionTraffic>(seed);
  if (name == "icoil_lot") return std::make_unique<IcoilLot>(seed, dirs);
  if (name == "serve_batch_il") return std::make_unique<ServeBatchIl>(seed, dirs);
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

}  // namespace perfbench
