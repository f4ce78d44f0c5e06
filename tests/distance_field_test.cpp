#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/controller_registry.hpp"
#include "geom/angles.hpp"
#include "geom/broadphase.hpp"
#include "mathkit/rng.hpp"
#include "sim/session.hpp"
#include "vehicle/kinematics.hpp"
#include "world/distance_field.hpp"
#include "world/scenario.hpp"
#include "world/world.hpp"

namespace icoil::world {
namespace {

// ------------------------------------------------------------ backend names

TEST(CollisionBackendTest, RoundTripNames) {
  EXPECT_STREQ(to_string(CollisionBackend::kAnalytic), "analytic");
  EXPECT_STREQ(to_string(CollisionBackend::kGrid), "grid");
  CollisionBackend backend = CollisionBackend::kAnalytic;
  EXPECT_TRUE(parse_collision_backend("grid", &backend));
  EXPECT_EQ(backend, CollisionBackend::kGrid);
  EXPECT_TRUE(parse_collision_backend("analytic", &backend));
  EXPECT_EQ(backend, CollisionBackend::kAnalytic);
  EXPECT_FALSE(parse_collision_backend("octree", &backend));
  EXPECT_EQ(backend, CollisionBackend::kAnalytic);  // untouched on failure
}

// -------------------------------------------------------------- EDT goldens

/// Brute-force reference: distance from each cell centre to the nearest
/// occupied cell centre, in metres.
std::vector<double> brute_force_edt(int width, int height, double resolution,
                                    const std::vector<std::uint8_t>& occ) {
  std::vector<double> out(static_cast<std::size_t>(width) * height,
                          geom::kMaxClearance);
  for (int y = 0; y < height; ++y)
    for (int x = 0; x < width; ++x) {
      double best_sq = -1.0;
      for (int oy = 0; oy < height; ++oy)
        for (int ox = 0; ox < width; ++ox) {
          if (occ[static_cast<std::size_t>(oy) * width + ox] == 0) continue;
          const double dx = x - ox, dy = y - oy;
          const double sq = dx * dx + dy * dy;
          if (best_sq < 0.0 || sq < best_sq) best_sq = sq;
        }
      if (best_sq >= 0.0)
        out[static_cast<std::size_t>(y) * width + x] =
            std::sqrt(best_sq) * resolution;
    }
  return out;
}

TEST(DistanceFieldTest, EdtGoldenSingleOccupiedCell) {
  const int w = 7, h = 5;
  std::vector<std::uint8_t> occ(static_cast<std::size_t>(w) * h, 0);
  occ[2 * w + 3] = 1;  // (ix=3, iy=2)
  const DistanceField field =
      DistanceField::from_raster({0.0, 0.0}, w, h, 1.0, occ);
  EXPECT_DOUBLE_EQ(field.cell_distance(3, 2), 0.0);
  EXPECT_DOUBLE_EQ(field.cell_distance(4, 2), 1.0);
  EXPECT_DOUBLE_EQ(field.cell_distance(3, 4), 2.0);
  // EDT values are stored as float, so irrational distances round there.
  EXPECT_NEAR(field.cell_distance(0, 0), std::sqrt(9.0 + 4.0), 1e-6);
  EXPECT_NEAR(field.cell_distance(6, 4), std::sqrt(9.0 + 4.0), 1e-6);
}

TEST(DistanceFieldTest, EdtMatchesBruteForceOnRandomRasters) {
  math::Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const int w = rng.uniform_int(1, 24);
    const int h = rng.uniform_int(1, 24);
    const double res = rng.uniform(0.05, 0.5);
    std::vector<std::uint8_t> occ(static_cast<std::size_t>(w) * h, 0);
    for (auto& c : occ) c = rng.uniform() < 0.15 ? 1 : 0;
    const DistanceField field =
        DistanceField::from_raster({-3.0, 2.0}, w, h, res, occ);
    const std::vector<double> expected = brute_force_edt(w, h, res, occ);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        EXPECT_NEAR(field.cell_distance(x, y),
                    expected[static_cast<std::size_t>(y) * w + x], 1e-6)
            << "trial " << trial << " cell (" << x << "," << y << ")";
  }
}

TEST(DistanceFieldTest, EmptyRasterReportsMaxClearance) {
  const DistanceField field = DistanceField::from_raster(
      {0.0, 0.0}, 4, 4, 0.5, std::vector<std::uint8_t>(16, 0));
  EXPECT_DOUBLE_EQ(field.cell_distance(1, 1), geom::kMaxClearance);
  EXPECT_DOUBLE_EQ(field.point_clearance({1.0, 1.0}), geom::kMaxClearance);
}

TEST(DistanceFieldTest, PointOutsideGridIsUnknown) {
  std::vector<std::uint8_t> occ(16, 0);
  occ[0] = 1;
  const DistanceField field =
      DistanceField::from_raster({0.0, 0.0}, 4, 4, 0.5, occ);
  EXPECT_DOUBLE_EQ(field.point_clearance({-1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(field.point_clearance({1.0, 99.0}), 0.0);
}

// ------------------------------------------------- conservativeness property

vehicle::State state_at(double x, double y, double heading) {
  vehicle::State s;
  s.pose = {x, y, heading};
  return s;
}

/// Across every registered generator family: the distance-field clearance
/// never exceeds the analytic distance (it is a lower bound), the upper
/// bound of clearance_bounds never undercuts it, and a certainly-free probe
/// implies the analytic narrow phase agrees.
TEST(DistanceFieldTest, ConservativeAgainstAnalyticAcrossGenerators) {
  const vehicle::BicycleModel model{vehicle::VehicleParams{}};
  for (const char* generator : {"canonical", "crowded_lot",
                                "dynamic_gauntlet", "parallel_street",
                                "perpendicular"}) {
    ScenarioOptions opt;
    opt.generator = generator;
    opt.difficulty = Difficulty::kNormal;
    const Scenario sc = make_scenario(opt, 11);

    std::vector<geom::Obb> statics;
    for (const Obstacle& o : sc.obstacles)
      if (!o.dynamic()) statics.push_back(o.shape);
    const geom::ObbSet analytic(statics);
    const DistanceField field(sc.map.bounds, statics);

    math::Rng rng(17);
    for (int i = 0; i < 400; ++i) {
      const geom::Aabb& b = sc.map.bounds;
      const geom::Obb fp = model.footprint(
          state_at(rng.uniform(b.min.x, b.max.x), rng.uniform(b.min.y, b.max.y),
                   rng.uniform(0.0, geom::kTwoPi)));
      const double truth = analytic.min_distance(fp);
      const double grid = field.clearance(fp);
      if (statics.empty()) {
        EXPECT_DOUBLE_EQ(grid, geom::kMaxClearance);
        continue;
      }
      // Lower bound, with only float-storage rounding as margin.
      EXPECT_LE(grid, truth + field.resolution())
          << generator << " pose " << i;
      if (grid < geom::kMaxClearance) {
        EXPECT_LE(grid, truth + 1e-6) << generator << " pose " << i;
      }
      // Certainly-free probe => the analytic phase agrees.
      if (field.probe(fp) == DistanceField::Probe::kFree) {
        EXPECT_FALSE(analytic.any_overlap(fp)) << generator << " pose " << i;
      }
      // The bracket is ordered and its upper side really is an upper bound.
      const DistanceField::ClearanceBounds bounds = field.clearance_bounds(fp);
      EXPECT_LE(bounds.lower, bounds.upper) << generator << " pose " << i;
      if (bounds.upper < geom::kMaxClearance) {
        EXPECT_GE(bounds.upper, truth - 1e-6) << generator << " pose " << i;
      }
    }
  }
}

// ------------------------------------------------------ world backend parity

TEST(WorldBackendTest, StaticVerdictsIdenticalAcrossBackends) {
  ScenarioOptions opt;
  opt.generator = "crowded_lot";
  opt.difficulty = Difficulty::kNormal;
  const Scenario sc = make_scenario(opt, 23);
  const World analytic(sc, {CollisionBackend::kAnalytic});
  const World grid(sc, {CollisionBackend::kGrid});
  ASSERT_NE(grid.distance_field(), nullptr);
  EXPECT_EQ(analytic.distance_field(), nullptr);

  const vehicle::BicycleModel model{vehicle::VehicleParams{}};
  math::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const geom::Aabb& b = sc.map.bounds;
    const geom::Obb fp = model.footprint(
        state_at(rng.uniform(b.min.x, b.max.x), rng.uniform(b.min.y, b.max.y),
                 rng.uniform(0.0, geom::kTwoPi)));
    EXPECT_EQ(analytic.static_collision(fp), grid.static_collision(fp))
        << "pose " << i;
    EXPECT_EQ(analytic.in_collision(fp), grid.in_collision(fp)) << "pose " << i;
    // Grid clearance is a conservative lower bound on the analytic value.
    EXPECT_LE(grid.static_clearance(fp), analytic.static_clearance(fp) + 1e-6)
        << "pose " << i;
  }
}

TEST(WorldBackendTest, CanonicalEpisodeVerdictsMatch) {
  ScenarioOptions opt;  // canonical / easy
  const Scenario sc = make_scenario(opt, 7);
  const auto& registry = core::ControllerRegistry::instance();
  sim::EpisodeResult results[2];
  const CollisionBackend backends[2] = {CollisionBackend::kAnalytic,
                                        CollisionBackend::kGrid};
  for (int i = 0; i < 2; ++i) {
    sim::SimConfig config;
    config.collision_backend = backends[i];
    auto controller = registry.build("co");
    sim::Session session(sc, *controller, 1234, config);
    while (session.step() == sim::Session::Status::kRunning) {
    }
    results[i] = session.result();
  }
  EXPECT_EQ(results[0].outcome, results[1].outcome);
  EXPECT_EQ(results[0].frames, results[1].frames);
  EXPECT_DOUBLE_EQ(results[0].park_time, results[1].park_time);
  // Clearance stats may differ (grid is conservative) but never upward.
  EXPECT_LE(results[1].min_clearance, results[0].min_clearance + 1e-6);
}

// ------------------------------------------------------- dynamic box caching

TEST(WorldBackendTest, DynamicBoxCacheTracksSteps) {
  ScenarioOptions opt;
  opt.difficulty = Difficulty::kNormal;  // patrol + pedestrian
  const Scenario sc = make_scenario(opt, 5);
  World world(sc);
  ASSERT_EQ(world.dynamic_boxes().size(),
            world.dynamic_obstacle_indices().size());
  for (int step = 0; step < 30; ++step) world.step(0.05);
  const auto& indices = world.dynamic_obstacle_indices();
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const geom::Obb expected =
        sc.obstacles[indices[k]].footprint_at(world.time());
    EXPECT_NEAR(world.dynamic_boxes()[k].center.x, expected.center.x, 1e-12);
    EXPECT_NEAR(world.dynamic_boxes()[k].center.y, expected.center.y, 1e-12);
    EXPECT_NEAR(world.dynamic_boxes()[k].heading, expected.heading, 1e-12);
  }
  world.reset();
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const geom::Obb expected = sc.obstacles[indices[k]].footprint_at(0.0);
    EXPECT_NEAR(world.dynamic_boxes()[k].center.x, expected.center.x, 1e-12);
  }
}

TEST(WorldBackendTest, CrowdedLotDensityScalesClutter) {
  for (const double density : {1.0, 4.0}) {
    ScenarioOptions opt;
    opt.generator = "crowded_lot";
    opt.difficulty = Difficulty::kNormal;
    opt.params.set("density", density);
    const Scenario sc = make_scenario(opt, 3);
    int statics = 0;
    for (const Obstacle& o : sc.obstacles)
      if (!o.dynamic()) ++statics;
    // 4 fixed roster entries + 6 * density clutter boxes (placement may
    // drop a few at high density when the lot saturates).
    EXPECT_GE(statics, 2 + static_cast<int>(3 * density));
    EXPECT_LE(statics, 2 + static_cast<int>(6 * density));
  }
}

}  // namespace
}  // namespace icoil::world
