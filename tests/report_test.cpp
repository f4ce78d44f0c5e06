// Codec coverage for sim::RunReport: round trips of the collision and
// planner blocks, a golden serialisation of a report that carries every
// block and every optional part, and byte-for-byte parse -> to_json round
// trips of the committed baseline reports. Any change to a key, its order
// or its number formatting shows up here before it reaches a baseline.

#include <gtest/gtest.h>

#include <fstream>
#include <utility>
#include <sstream>
#include <string>

#include "sim/report.hpp"

#ifndef ICOIL_SOURCE_DIR
#define ICOIL_SOURCE_DIR "."
#endif

namespace icoil {
namespace {

sim::CollisionStats sample_collision() {
  sim::CollisionStats stats;
  stats.generator = "crowded_lot";
  stats.grid_resolution = 0.15;
  sim::CollisionDensityRow row;
  row.density = 4.0;
  row.obstacles = 23;
  row.analytic_qps = 181234.5;
  row.grid_qps = 902311.25;
  row.speedup = 4.978;
  row.analytic_episode_seconds = 0.75;
  row.grid_episode_seconds = 0.3125;
  row.clearance_err_mean = 0.021;
  row.clearance_err_max = 0.1;
  row.episodes = 6;
  row.verdicts_match = false;
  stats.rows.push_back(row);
  row.density = 10.0;
  row.verdicts_match = true;
  stats.rows.push_back(row);
  return stats;
}

sim::PlannerStats sample_planner() {
  sim::PlannerStats stats;
  sim::PlannerFamilyRow row;
  row.generator = "crowded_lot";
  row.density = 4.0;
  row.heuristic = "lut";
  row.plans = 10;
  row.solved = 9;
  row.plan_ms_mean = 12.5;
  row.plan_ms_max = 40.25;
  row.expansions_mean = 1532.4;
  row.rs_shots_mean = 17.1;
  row.path_cost_mean = 31.7;
  row.speedup = 2.5;
  row.deadline_ms = 50.0;
  row.deadline_hits = 2;
  stats.rows.push_back(row);
  row.heuristic = "max";
  row.density = 1.0;
  stats.rows.push_back(row);
  return stats;
}

/// A report with every block and every optional part populated.
sim::RunReport full_report() {
  sim::RunReport report;
  report.meta.suite = "golden";
  report.meta.git_describe = "v0-golden";
  report.meta.threads = 4;
  report.meta.episodes_per_cell = 2;
  report.meta.base_seed = (1ull << 60) + 7;
  report.meta.config_fingerprint = 0x0123456789abcdefull;
  report.meta.aborted = true;

  sim::CellRecord cell;
  cell.label = "easy \"q\" \\ \x01";
  cell.method = "CO (ref)";
  cell.generator = "canonical";
  cell.episodes = 2;
  cell.successes = 1;
  cell.collisions = 1;
  cell.timeouts = 0;
  cell.budget_exceeded = 0;
  cell.deadline_hits = 3;
  cell.success_ratio = 0.5;
  cell.park_time_mean = 26.1;
  cell.park_time_min = 26.1;
  cell.park_time_max = 26.1;
  cell.park_time_stddev = 0.0;
  cell.il_fraction_mean = 0.25;
  cell.min_clearance_mean = 0.3574;
  sim::EpisodeRecord ep;
  ep.outcome = "success";
  ep.park_time = 26.1;
  ep.min_clearance = 0.4;
  ep.il_fraction = 0.5;
  ep.mode_switches = 2;
  ep.deadline_hits = 3;
  cell.episode_records.push_back(ep);
  ep.outcome = "collision";
  ep.park_time = 0.0;
  cell.episode_records.push_back(ep);
  report.cells.push_back(cell);
  cell.label = "hard";
  cell.episode_records.clear();
  report.cells.push_back(cell);

  sim::ServeStats serve;
  serve.method = "il";
  serve.sessions = 8;
  serve.threads = 4;
  serve.offered = 8;
  serve.admitted = 6;
  serve.queued = 2;
  serve.shed = 2;
  serve.frames = 1234;
  serve.wall_seconds = 2.5;
  serve.frames_per_second = 493.6;
  serve.frame = {1222, 13.0, 11.25, 30.0, 48.5, 97.0};
  serve.queue = {6, 0.4, 0.0, 1.5, 2.25, 2.5};
  serve.warmup = {12, 40.0, 38.0, 55.0, 60.0, 61.5};
  serve.warmup_frames_per_session = 2;
  serve.frame_deadline_ms = 50.0;
  serve.deadline_hits = 17;
  serve.tuning = sim::ServeStats::Tuning{5.0, 200.0, 1.5, 64, 18.5, 42.0, 200.0};
  serve.batching =
      sim::ServeStats::Batching{120, 945, 121, 8, 7.81, 0.0035, 0.2025, 0.0006};
  sim::ServeLoadLevel level;
  level.offered = 2;
  level.admitted = 2;
  level.frames = 300;
  level.wall_seconds = 1.0;
  level.frames_per_second = 300.0;
  level.frame_p50_ms = 5.5;
  level.frame_p99_ms = 9.75;
  level.queue_p99_ms = 0.0;
  serve.levels.push_back(level);
  level.offered = 8;
  level.admitted = 6;
  level.shed = 2;
  level.frames = 1234;
  level.deadline_hits = 17;
  level.knee = true;
  serve.levels.push_back(level);
  serve.knee_offered = 8;
  report.serve = serve;

  report.collision = sample_collision();

  sim::MissionStats mission;
  sim::MissionTemplateRow row;
  row.mission = "contested_lot";
  row.method = "co";
  row.missions = 4;
  row.succeeded = 3;
  row.success_ratio = 0.75;
  row.legs = 27;
  row.legs_per_mission = 6.75;
  row.replans = 5;
  row.replans_per_mission = 1.25;
  row.collisions = 1;
  row.park_time_p50 = 38.4;
  row.park_time_p95 = 51.9;
  row.exit_time_p50 = 64.2;
  row.exit_time_p95 = 80.8;
  row.wall_seconds_mean = 12.5;
  row.spec_fingerprint = 0xf2a08233e0abb0fdull;
  row.result_fingerprint = 0x00e3f6a9d0787646ull;
  mission.rows.push_back(row);
  report.mission = mission;

  report.planner = sample_planner();
  return report;
}

// The expected document, split into one raw string per section for
// readability. Key names, key order and number formatting are all part of
// the format the committed baselines rely on.
const char* const kFullReportGolden =
    R"json({"schema_version":2,"meta":{"suite":"golden","git_describe":"v0-golden","threads":4,"episodes_per_cell":2,"base_seed":"1152921504606846983","config_fingerprint":"0123456789abcdef","aborted":true},)json"
    R"json("cells":[{"label":"easy \"q\" \\ \u0001","method":"CO (ref)","generator":"canonical","episodes":2,"successes":1,"collisions":1,"timeouts":0,"budget_exceeded":0,"deadline_hits":3,"success_ratio":0.5,"park_time_mean":26.100000000000001,"park_time_min":26.100000000000001,"park_time_max":26.100000000000001,"park_time_stddev":0,"il_fraction_mean":0.25,"min_clearance_mean":0.3574,)json"
    R"json("episode_records":[{"outcome":"success","park_time":26.100000000000001,"min_clearance":0.40000000000000002,"il_fraction":0.5,"mode_switches":2,"deadline_hits":3},{"outcome":"collision","park_time":0,"min_clearance":0.40000000000000002,"il_fraction":0.5,"mode_switches":2,"deadline_hits":3}]},)json"
    R"json({"label":"hard","method":"CO (ref)","generator":"canonical","episodes":2,"successes":1,"collisions":1,"timeouts":0,"budget_exceeded":0,"deadline_hits":3,"success_ratio":0.5,"park_time_mean":26.100000000000001,"park_time_min":26.100000000000001,"park_time_max":26.100000000000001,"park_time_stddev":0,"il_fraction_mean":0.25,"min_clearance_mean":0.3574}],)json"
    R"json("serve":{"version":2,"method":"il","sessions":8,"threads":4,"offered":8,"admitted":6,"queued":2,"shed":2,"frames":1234,"wall_seconds":2.5,"frames_per_second":493.60000000000002,)json"
    R"json("frame":{"count":1222,"mean_ms":13,"p50_ms":11.25,"p90_ms":30,"p99_ms":48.5,"max_ms":97},"queue":{"count":6,"mean_ms":0.40000000000000002,"p50_ms":0,"p90_ms":1.5,"p99_ms":2.25,"max_ms":2.5},"warmup":{"count":12,"mean_ms":40,"p50_ms":38,"p90_ms":55,"p99_ms":60,"max_ms":61.5},)json"
    R"json("warmup_frames_per_session":2,"frame_deadline_ms":50,"deadline_hits":17,"tuning":{"min_ms":5,"max_ms":200,"headroom":1.5,"window":64,"deadline_min_ms":18.5,"deadline_mean_ms":42,"deadline_max_ms":200},)json"
    R"json("levels":[{"offered":2,"admitted":2,"shed":0,"frames":300,"wall_seconds":1,"frames_per_second":300,"frame_p50_ms":5.5,"frame_p99_ms":9.75,"queue_p99_ms":0,"deadline_hits":0,"knee":false},{"offered":8,"admitted":6,"shed":2,"frames":1234,"wall_seconds":1,"frames_per_second":300,"frame_p50_ms":5.5,"frame_p99_ms":9.75,"queue_p99_ms":0,"deadline_hits":17,"knee":true}],"knee_offered":8,)json"
    R"json("batching":{"ticks":120,"requests":945,"batches":121,"max_batch":8,"mean_batch":7.8099999999999996,"gather_seconds":0.0035000000000000001,"forward_seconds":0.20250000000000001,"scatter_seconds":0.00059999999999999995}},)json"
    R"json("collision":{"version":1,"generator":"crowded_lot","grid_resolution":0.14999999999999999,"rows":[{"density":4,"obstacles":23,"analytic_qps":181234.5,"grid_qps":902311.25,"speedup":4.9779999999999998,"analytic_episode_seconds":0.75,"grid_episode_seconds":0.3125,"clearance_err_mean":0.021000000000000001,"clearance_err_max":0.10000000000000001,"episodes":6,"verdicts_match":false},{"density":10,"obstacles":23,"analytic_qps":181234.5,"grid_qps":902311.25,"speedup":4.9779999999999998,"analytic_episode_seconds":0.75,"grid_episode_seconds":0.3125,"clearance_err_mean":0.021000000000000001,"clearance_err_max":0.10000000000000001,"episodes":6,"verdicts_match":true}]},)json"
    R"json("mission":{"version":1,"rows":[{"mission":"contested_lot","method":"co","missions":4,"succeeded":3,"success_ratio":0.75,"legs":27,"legs_per_mission":6.75,"replans":5,"replans_per_mission":1.25,"collisions":1,"timeouts":0,"park_time_p50":38.399999999999999,"park_time_p95":51.899999999999999,"exit_time_p50":64.200000000000003,"exit_time_p95":80.799999999999997,"wall_seconds_mean":12.5,"spec_fingerprint":"f2a08233e0abb0fd","result_fingerprint":"00e3f6a9d0787646"}]},)json"
    R"json("planner":{"version":1,"rows":[{"generator":"crowded_lot","density":4,"heuristic":"lut","plans":10,"solved":9,"plan_ms_mean":12.5,"plan_ms_max":40.25,"expansions_mean":1532.4000000000001,"rs_shots_mean":17.100000000000001,"path_cost_mean":31.699999999999999,"speedup":2.5,"deadline_ms":50,"deadline_hits":2},{"generator":"crowded_lot","density":1,"heuristic":"max","plans":10,"solved":9,"plan_ms_mean":12.5,"plan_ms_max":40.25,"expansions_mean":1532.4000000000001,"rs_shots_mean":17.100000000000001,"path_cost_mean":31.699999999999999,"speedup":2.5,"deadline_ms":50,"deadline_hits":2}]}})json"
    "\n";

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ReportCodecTest, CollisionBlockRoundTrips) {
  sim::RunReport report;
  report.collision = sample_collision();
  sim::RunReport loaded;
  std::string error;
  ASSERT_TRUE(sim::RunReport::parse(report.to_json(), &loaded, &error))
      << error;
  ASSERT_TRUE(loaded.collision.has_value());
  const sim::CollisionStats& want = *report.collision;
  const sim::CollisionStats& got = *loaded.collision;
  EXPECT_EQ(got.version, sim::kCollisionStatsVersion);
  EXPECT_EQ(got.generator, want.generator);
  EXPECT_EQ(got.grid_resolution, want.grid_resolution);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    const sim::CollisionDensityRow& a = want.rows[i];
    const sim::CollisionDensityRow& b = got.rows[i];
    EXPECT_EQ(b.density, a.density) << i;
    EXPECT_EQ(b.obstacles, a.obstacles) << i;
    EXPECT_EQ(b.analytic_qps, a.analytic_qps) << i;
    EXPECT_EQ(b.grid_qps, a.grid_qps) << i;
    EXPECT_EQ(b.speedup, a.speedup) << i;
    EXPECT_EQ(b.analytic_episode_seconds, a.analytic_episode_seconds) << i;
    EXPECT_EQ(b.grid_episode_seconds, a.grid_episode_seconds) << i;
    EXPECT_EQ(b.clearance_err_mean, a.clearance_err_mean) << i;
    EXPECT_EQ(b.clearance_err_max, a.clearance_err_max) << i;
    EXPECT_EQ(b.episodes, a.episodes) << i;
    EXPECT_EQ(b.verdicts_match, a.verdicts_match) << i;
  }
  EXPECT_FALSE(loaded.planner.has_value());
  EXPECT_FALSE(loaded.serve.has_value());
}

TEST(ReportCodecTest, PlannerBlockRoundTrips) {
  sim::RunReport report;
  report.planner = sample_planner();
  sim::RunReport loaded;
  std::string error;
  ASSERT_TRUE(sim::RunReport::parse(report.to_json(), &loaded, &error))
      << error;
  ASSERT_TRUE(loaded.planner.has_value());
  const sim::PlannerStats& want = *report.planner;
  const sim::PlannerStats& got = *loaded.planner;
  EXPECT_EQ(got.version, sim::kPlannerStatsVersion);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    const sim::PlannerFamilyRow& a = want.rows[i];
    const sim::PlannerFamilyRow& b = got.rows[i];
    EXPECT_EQ(b.generator, a.generator) << i;
    EXPECT_EQ(b.density, a.density) << i;
    EXPECT_EQ(b.heuristic, a.heuristic) << i;
    EXPECT_EQ(b.plans, a.plans) << i;
    EXPECT_EQ(b.solved, a.solved) << i;
    EXPECT_EQ(b.plan_ms_mean, a.plan_ms_mean) << i;
    EXPECT_EQ(b.plan_ms_max, a.plan_ms_max) << i;
    EXPECT_EQ(b.expansions_mean, a.expansions_mean) << i;
    EXPECT_EQ(b.rs_shots_mean, a.rs_shots_mean) << i;
    EXPECT_EQ(b.path_cost_mean, a.path_cost_mean) << i;
    EXPECT_EQ(b.speedup, a.speedup) << i;
    EXPECT_EQ(b.deadline_ms, a.deadline_ms) << i;
    EXPECT_EQ(b.deadline_hits, a.deadline_hits) << i;
  }
  EXPECT_FALSE(loaded.collision.has_value());
  EXPECT_FALSE(loaded.mission.has_value());
}

TEST(ReportCodecTest, FullReportMatchesGolden) {
  const std::string json = full_report().to_json();
  EXPECT_EQ(json, kFullReportGolden);
  // And the golden document is a fixed point of parse -> to_json.
  sim::RunReport loaded;
  std::string error;
  ASSERT_TRUE(sim::RunReport::parse(kFullReportGolden, &loaded, &error))
      << error;
  EXPECT_EQ(loaded.to_json(), kFullReportGolden);
}

TEST(ReportCodecTest, CommittedBaselinesRoundTripByteForByte) {
  for (const char* name : {"smoke.json", "mission_smoke.json"}) {
    const std::string path =
        std::string(ICOIL_SOURCE_DIR) + "/bench/baselines/" + name;
    const std::string text = read_file(path);
    ASSERT_FALSE(text.empty()) << "cannot read " << path;
    sim::RunReport loaded;
    std::string error;
    ASSERT_TRUE(sim::RunReport::parse(text, &loaded, &error))
        << name << ": " << error;
    EXPECT_EQ(loaded.to_json(), text) << name;
  }
}

// ------------------------------------------------------- strict loading

/// Parses `json` expecting failure; returns the error text.
std::string parse_error(const std::string& json) {
  sim::RunReport out;
  std::string error;
  EXPECT_FALSE(sim::RunReport::parse(json, &out, &error)) << json;
  EXPECT_FALSE(error.empty()) << json;
  return error;
}

std::string with_meta(const std::string& meta_fields) {
  return "{\"schema_version\":2,\"meta\":{" + meta_fields + "},\"cells\":[]}";
}

TEST(ReportCodecTest, MalformedUnsignedValuesAreRejected) {
  // strtoull alone would load "12zz" as 0x12 and "-1" as 2^64-1.
  for (const char* bad : {"\"12zz\"", "\"\"", "\"-1\"", "\"+12\"", "\" 12\"",
                          "\"0x12\"", "\"10000000000000000f\""}) {
    const std::string error =
        parse_error(with_meta(std::string("\"config_fingerprint\":") + bad));
    EXPECT_NE(error.find("config_fingerprint"), std::string::npos) << error;
  }
  for (const char* bad : {"\"-1\"", "\"+5\"", "\"5 \"", "\"5x\"", "\"ff\"",
                          "\"18446744073709551616\"", "-1", "1.5"}) {
    const std::string error =
        parse_error(with_meta(std::string("\"base_seed\":") + bad));
    EXPECT_NE(error.find("base_seed"), std::string::npos) << error;
  }
  parse_error(R"json({"schema_version":2,"cells":[],"serve":{"frames":-3}})json");
  parse_error(R"json({"schema_version":2,"cells":[],"mission":{"rows":[{"spec_fingerprint":"g"}]}})json");

  // Well-formed extremes still load exactly.
  sim::RunReport out;
  std::string error;
  ASSERT_TRUE(sim::RunReport::parse(
      with_meta("\"base_seed\":\"18446744073709551615\","
                "\"config_fingerprint\":\"FFFFFFFFFFFFFFFF\""),
      &out, &error))
      << error;
  EXPECT_EQ(out.meta.base_seed, 18446744073709551615ull);
  EXPECT_EQ(out.meta.config_fingerprint, 0xffffffffffffffffull);
}

TEST(ReportCodecTest, NewerBlockVersionsAreRejected) {
  const std::pair<const char*, int> blocks[] = {
      {"serve", sim::kServeStatsVersion},
      {"collision", sim::kCollisionStatsVersion},
      {"mission", sim::kMissionStatsVersion},
      {"planner", sim::kPlannerStatsVersion}};
  for (const auto& [block, current] : blocks) {
    const std::string json = "{\"schema_version\":2,\"cells\":[],\"" +
                             std::string(block) + "\":{\"version\":" +
                             std::to_string(current + 1) + "}}";
    const std::string error = parse_error(json);
    EXPECT_NE(error.find(block), std::string::npos) << error;
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }
}

TEST(ReportCodecTest, NonObjectRowsAreRejected) {
  const char* const docs[] = {
      R"json({"schema_version":2,"cells":[1]})json",
      R"json({"schema_version":2,"cells":[{"episode_records":["x"]}]})json",
      R"json({"schema_version":2,"cells":[],"serve":{"levels":[null]}})json",
      R"json({"schema_version":2,"cells":[],"collision":{"rows":[[]]}})json",
      R"json({"schema_version":2,"cells":[],"mission":{"rows":[true]}})json",
      R"json({"schema_version":2,"cells":[],"planner":{"rows":[2.5]}})json"};
  for (const char* json : docs) {
    const std::string error = parse_error(json);
    EXPECT_NE(error.find("[] entry is not an object"), std::string::npos)
        << error;
  }
}

// bench_mission outcomes are deterministic for a given template, seed set
// and eval config, so a baseline check must fail on any moved result
// fingerprint — not only when the success or replan rates drift.
TEST(ReportBaselineTest, MissionResultFingerprintIsEnforced) {
  sim::RunReport baseline;
  std::string error;
  ASSERT_TRUE(sim::RunReport::load(
      std::string(ICOIL_SOURCE_DIR) + "/bench/baselines/mission_smoke.json",
      &baseline, &error))
      << error;
  ASSERT_TRUE(baseline.mission.has_value());
  EXPECT_TRUE(sim::compare_to_baseline(baseline, baseline).ok);

  // Same config and template, moved outcomes: a failure that says how to
  // accept an intended change.
  sim::RunReport moved = baseline;
  moved.mission->rows[0].result_fingerprint ^= 1;
  const sim::BaselineVerdict verdict = sim::compare_to_baseline(moved, baseline);
  EXPECT_FALSE(verdict.ok);
  ASSERT_EQ(verdict.failures.size(), 1u);
  EXPECT_NE(verdict.failures[0].find("result fingerprint"), std::string::npos);
  EXPECT_NE(verdict.failures[0].find("re-record"), std::string::npos);

  // Other eval settings (seeds, mission count) legitimately move outcomes.
  sim::RunReport other_config = moved;
  other_config.meta.config_fingerprint ^= 1;
  EXPECT_TRUE(sim::compare_to_baseline(other_config, baseline).ok);

  // An edited template is not comparable at all: a note, not a failure.
  sim::RunReport other_template = moved;
  other_template.mission->rows[0].spec_fingerprint ^= 1;
  const sim::BaselineVerdict edited =
      sim::compare_to_baseline(other_template, baseline);
  EXPECT_TRUE(edited.ok);
  EXPECT_FALSE(edited.notes.empty());
}

}  // namespace
}  // namespace icoil
