#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/broadphase.hpp"
#include "geom/obb.hpp"
#include "geom/vec2.hpp"

namespace icoil::world {

/// Which narrow phase answers static collision/clearance queries.
///  kAnalytic — OBB-vs-OBB SAT / closest-point geometry per query (exact).
///  kGrid     — a rasterized DistanceField fast path: O(1) lookups decide
///              "certainly free" conservatively; queries inside the
///              conservative band fall back to the analytic phase, so the
///              collision verdict is ALWAYS exact — only clearance values
///              may be conservatively underestimated (see World).
enum class CollisionBackend { kAnalytic, kGrid };

const char* to_string(CollisionBackend backend);
/// Parses "analytic" / "grid"; false (out untouched) for anything else.
bool parse_collision_backend(const std::string& name, CollisionBackend* out);

/// A grid occupancy raster of static oriented-box obstacles with an exact
/// Euclidean distance transform (Felzenszwalb–Huttenlocher two-pass EDT):
/// every cell stores the distance from its centre to the nearest occupied
/// cell centre. Built once per scenario, it turns the per-query OBB
/// geometry of clearance/collision checks into O(1) lookups.
///
/// Conservativeness contract: the raster marks every cell whose centre lies
/// within an obstacle inflated by the half cell diagonal, so every obstacle
/// point lies in a marked cell. point_clearance subtracts
/// conservative_slack() (raster dilation + in-cell quantization, together
/// sqrt(2) * resolution) from the EDT lookup, making it a strict LOWER
/// bound on the true point-to-obstacle distance. clearance() extends the
/// bound to an OBB footprint via a covering set of discs along the long
/// axis. Hence probe() == kFree implies the analytic narrow phase would
/// also report the footprint collision-free.
class DistanceField {
 public:
  static constexpr double kDefaultResolution = 0.15;  ///< [m/cell]

  DistanceField() = default;

  /// Rasterize `statics` over `bounds` (plus a small pad) at `resolution`
  /// and build the EDT. An empty obstacle set yields an all-free field
  /// whose lookups return geom::kMaxClearance.
  DistanceField(const geom::Aabb& bounds, const std::vector<geom::Obb>& statics,
                double resolution = kDefaultResolution);

  /// Build from an explicit row-major occupancy raster (tests, goldens):
  /// `occupied[iy * width + ix]` nonzero marks the cell at centre
  /// origin + (ix + 0.5, iy + 0.5) * resolution. No extra dilation is
  /// applied; conservative_slack() still assumes the caller rasterized
  /// conservatively when it uses footprint queries.
  static DistanceField from_raster(geom::Vec2 origin, int width, int height,
                                   double resolution,
                                   const std::vector<std::uint8_t>& occupied);

  bool empty() const { return width_ == 0 || height_ == 0; }
  int width() const { return width_; }
  int height() const { return height_; }
  double resolution() const { return resolution_; }
  geom::Vec2 origin() const { return origin_; }

  /// Raw EDT value: distance [m] from the centre of cell (ix, iy) to the
  /// nearest occupied cell centre (geom::kMaxClearance when the raster has
  /// no occupied cell). Precondition: 0 <= ix < width, 0 <= iy < height.
  double cell_distance(int ix, int iy) const {
    return distance_[static_cast<std::size_t>(iy) * width_ + ix];
  }

  /// Row-major occupancy raster, one byte per cell (grid consumers — e.g.
  /// the planner's Dijkstra cost-to-go — sweep it directly).
  const std::vector<std::uint8_t>& occupancy() const { return occupied_; }

  /// Conservative clearance from point `p` to the static set: a lower
  /// bound on the true distance, 0 when `p` may touch an obstacle. Points
  /// outside the grid return 0 ("unknown" — callers fall back).
  double point_clearance(geom::Vec2 p) const;

  /// Conservative lower bound on the distance from footprint `fp` to the
  /// static set (0 when the footprint may collide), via a disc cover of
  /// the box: K discs along the long axis, each point_clearance minus the
  /// disc radius overshoot.
  double clearance(const geom::Obb& fp) const;

  /// Two-sided clearance bracket for `fp`. `lower` is clearance()'s
  /// conservative bound; `upper` is a guaranteed upper bound on the true
  /// footprint distance (the best disc centre's EDT value plus raster
  /// slack — the centre is IN the footprint, so the footprint can be no
  /// farther from the statics than it is). Callers falling back to the
  /// analytic narrow phase inside the conservative band pass `upper` as
  /// the cutoff so the broad phase prunes everything beyond it.
  struct ClearanceBounds {
    double lower = geom::kMaxClearance;
    double upper = geom::kMaxClearance;
  };
  ClearanceBounds clearance_bounds(const geom::Obb& fp) const;

  enum class Probe {
    kFree,       ///< certainly collision-free against the statics
    kUncertain,  ///< within the conservative band: run the analytic phase
  };
  Probe probe(const geom::Obb& fp) const {
    return clearance(fp) > 0.0 ? Probe::kFree : Probe::kUncertain;
  }

  /// The slack point_clearance subtracts from the raw EDT lookup: raster
  /// dilation (half cell diagonal) + in-cell quantization (half cell
  /// diagonal) = sqrt(2) * resolution.
  double conservative_slack() const { return slack_; }

 private:
  void build_edt(const std::vector<std::uint8_t>& occupied);

  int width_ = 0;
  int height_ = 0;
  double resolution_ = kDefaultResolution;
  double slack_ = 0.0;
  geom::Vec2 origin_;           ///< world position of the raster corner
  bool any_occupied_ = false;
  std::vector<std::uint8_t> occupied_;  ///< dilated raster, row-major
  std::vector<float> distance_;  ///< EDT at cell centres [m], row-major
};

}  // namespace icoil::world
