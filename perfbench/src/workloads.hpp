#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/policy_store.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// Frame cap of a work unit that ran to its own end (not cut by a budget).
inline constexpr std::size_t kWhole = std::numeric_limits<std::size_t>::max();

/// Where the benchmark's inputs and caches live.
struct Dirs {
  /// The committed policy file (its name carries the spec fingerprint).
  std::string policy = "perfbench/policy";
  /// Build-directory cache: the expert dataset, when the policy is trained.
  std::string cache = ".bench_build/cache";
};

/// The fixed training spec of the policy the IL-backed workloads load. The
/// policy is trained once with this spec and committed under `dirs.policy`;
/// `perfbench --prepare` trains it again only when no file matches the
/// spec fingerprint, never inside a measured run.
icoil::sim::PolicyStoreOptions bench_policy_options(const Dirs& dirs);

/// Finds (or trains) the benchmark policy; returns the spec fingerprint.
std::uint64_t prepare_policy(const Dirs& dirs);

/// FNV-1a digest of the policy file's bytes (0 when it cannot be read):
/// runs driven by different weights print different digests.
std::uint64_t policy_weights_digest(const Dirs& dirs);

/// What one pass over a workload measured.
struct PassResult {
  Percentile frame_p50;        ///< steady-state frame wall time [ms]
  Percentile frame_p99;
  Percentile first_frame_p50;  ///< first frame of each episode / leg [ms]
  std::uint64_t frames = 0;    ///< control frames of the work, run once
  /// Times the pass ran the same work (icoil_lot runs it more than once
  /// and takes each frame's median time over the repetitions).
  int repetitions = 1;
  double wall_s = 0.0;         ///< wall time of the measured loop(s)
  /// Control frames per wall second: repetitions * frames / wall_s, or for
  /// serving the rate serve::Frontend reports for its run.
  double frames_per_s = 0.0;

  /// Operations the pass attempted and the ones that failed. icoil_lot: an
  /// episode, failed by a collision or timeout. mission_traffic: a driving
  /// leg, failed likewise. serve_batch_il: an offered session, failed when
  /// it was not served to its end (shed, or cut short). A unit stopped by
  /// its frame budget reached no outcome and did not fail; neither did a
  /// leg aborted to replan for a stolen bay.
  int attempted = 0;
  int failed = 0;

  /// Driving outcomes of the episodes / legs that reached one.
  int finished = 0;
  int succeeded = 0;           ///< parked / reached the leg goal
  int collided = 0;
  int parked = 0;              ///< units that parked (park_time_sum over them)
  double park_time_sum = 0.0;  ///< simulated seconds to park

  /// One digest per work unit over every outcome-bearing field: the traced
  /// pass must reproduce the untraced pass's digests exactly.
  std::vector<std::uint64_t> digests;
  /// Frame cap per work unit (kWhole = ran to its end): replaying the plan
  /// repeats exactly the work of the pass that produced it.
  std::vector<std::size_t> plan;
  /// Outcome validity violations (empty = every outcome valid).
  std::vector<std::string> invalid;

  /// A unit stopped by the wall-clock safety stop instead of its frame
  /// budget: the pass then did less work than its budget, which only a
  /// program far slower than the budget assumes does.
  int safety_stops = 0;

  /// Traced passes only: span recorders, span totals, layer metrics the
  /// workload computes itself, and every frame of tracers[0] timed from
  /// outside its spans (empty when the workload cannot time its frames
  /// from outside).
  std::vector<std::unique_ptr<Tracer>> tracers;
  TotalsByName totals;
  std::map<std::string, double> layer;
  std::vector<FrameWindow> frame_windows;

  /// Extra human-readable lines for the report.
  std::vector<std::string> notes;

  /// Tallies a finished episode's driving outcome.
  void add_outcome(const icoil::sim::EpisodeResult& r) {
    ++finished;
    if (r.success()) {
      ++succeeded;
      ++parked;
      park_time_sum += r.park_time;
    }
    if (r.outcome == icoil::sim::Outcome::kCollision) ++collided;
  }
};

/// One benchmark workload: a closed loop over generated scenarios.
class Workload {
 public:
  virtual ~Workload() = default;

  /// One set-up repetition [s]: everything the first timed frame needs
  /// (policy load, Reeds-Shepp tables, scenario generation, controller
  /// construction). The first repetition also fills process-wide caches.
  virtual double setup(bool first) = 0;

  /// Runs the workload. With `plan` null the pass is time-bound to
  /// `seconds`; otherwise it replays `plan` exactly. A traced pass runs the
  /// traced controllers and records spans.
  virtual PassResult run(double seconds, const std::vector<std::size_t>* plan,
                         bool traced) = 0;
};

/// Builds workload `name` for inputs generated from `seed`; the IL-backed
/// workloads load the benchmark policy. Throws std::invalid_argument for
/// an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, const Dirs& dirs);

}  // namespace perfbench
