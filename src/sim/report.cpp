#include "sim/report.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <sstream>
#include <utility>

#include "mathkit/fnv.hpp"

#ifndef ICOIL_GIT_DESCRIBE
#define ICOIL_GIT_DESCRIBE "unknown"
#endif

namespace icoil::sim {

namespace {

// ------------------------------------------------------------- JSON writer

std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Comma-managed appender for one JSON object/array scope.
class JsonScope {
 public:
  JsonScope(std::string& out, char open, char close)
      : out_(out), close_(close) {
    out_.push_back(open);
  }
  ~JsonScope() { out_.push_back(close_); }

  std::string& field(const std::string& key) {
    sep();
    out_ += '"';
    out_ += json_escape(key);
    out_ += "\":";
    return out_;
  }
  std::string& element() {
    sep();
    return out_;
  }

 private:
  void sep() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  std::string& out_;
  char close_;
  bool first_ = true;
};

void append_string(std::string& out, const std::string& s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

// ------------------------------------------------------------- JSON parser
//
// Minimal recursive-descent JSON reader — just enough to load the documents
// this file writes (objects, arrays, strings with standard escapes, finite
// numbers, booleans, null). Unknown keys are ignored so old loaders keep
// working as the schema grows.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(JsonValue* out) {
    pos_ = 0;
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing content");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    if (error_ && error_->empty())
      *error_ = "JSON parse error at offset " + std::to_string(pos_) + ": " +
                what;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue* out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return parse_string(&out->string);
    }
    if (c == 't' || c == 'f') return parse_keyword(out);
    if (c == 'n') return parse_keyword(out);
    return parse_number(out);
  }

  bool parse_keyword(JsonValue* out) {
    auto match = [&](const char* kw) {
      const std::size_t n = std::char_traits<char>::length(kw);
      if (text_.compare(pos_, n, kw) != 0) return false;
      pos_ += n;
      return true;
    };
    if (match("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (match("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return true;
    }
    if (match("null")) {
      out->kind = JsonValue::Kind::kNull;
      return true;
    }
    return fail("unknown keyword");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) return fail("expected a value");
    // strtod must consume the WHOLE scanned token: a prefix parse would
    // silently accept merge-mangled numbers like "1..0" as 1.0.
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out->number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return fail("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the code point (surrogate pairs unsupported; our
          // writer only emits \u00XX for control characters).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_array(JsonValue* out) {
    if (!consume('[')) return fail("expected '['");
    out->kind = JsonValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JsonValue element;
      if (!parse_value(&element)) return false;
      out->array.push_back(std::move(element));
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue* out) {
    if (!consume('{')) return fail("expected '{'");
    out->kind = JsonValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      std::string key;
      skip_ws();
      if (!parse_string(&key)) return false;
      if (!consume(':')) return fail("expected ':'");
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------- table-driven codec
//
// Each record type has ONE field table: a generic function naming every key
// once, in document order, with its member, its encoding and its load
// default. JsonWriter walks a table to serialise a record and JsonReader
// walks the same table to load one, so a key cannot drift between the two.
// The encoding follows the member type (int, double, bool, string); a
// uint64 names its wire form explicitly. Loading is tolerant of missing or
// mistyped keys (an older schema loads with defaults) and strict about
// malformed values, future versions and non-object rows.

/// How a uint64 travels: a bare JSON number, a decimal string (exact beyond
/// 2^53, where a JSON number would round through a double) or 16 hex digits.
enum class U64 { kNumber, kDecimal, kHex };

constexpr char kSchemaKey[] = "schema_version";
constexpr char kVersionKey[] = "version";
constexpr bool kOmitEmpty = true;

class JsonWriter {
 public:
  static constexpr bool kReading = false;

  explicit JsonWriter(std::string& out) : scope_(out, '{', '}') {}

  void operator()(const char* key, int v, int = 0) {
    scope_.field(key) += std::to_string(v);
  }
  void operator()(const char* key, double v, double = 0.0) {
    scope_.field(key) += fmt_double(v);
  }
  void operator()(const char* key, bool v, bool = false) {
    scope_.field(key) += v ? "true" : "false";
  }
  void operator()(const char* key, const std::string& v) {
    append_string(scope_.field(key), v);
  }
  void operator()(const char* key, std::uint64_t v, U64 encoding) {
    std::string& out = scope_.field(key);
    if (encoding == U64::kNumber)
      out += std::to_string(v);
    else
      append_string(out, encoding == U64::kHex ? fmt_hex64(v) : std::to_string(v));
  }

  void schema(int v) { (*this)(kSchemaKey, v); }
  /// A block always carries this build's version: the layout written is
  /// the current one, whatever version the record was loaded from.
  void version(const char*, int, int current) { (*this)(kVersionKey, current); }

  template <class T, class Fields>
  bool object(const char* key, const T& v, Fields fields) {
    JsonWriter nested(scope_.field(key));
    fields(nested, v);
    return true;
  }
  template <class T, class Fields>
  bool optional(const char* key, const std::optional<T>& v, Fields fields) {
    return v.has_value() && object(key, *v, fields);
  }
  template <class T, class Fields>
  bool array(const char* key, const std::vector<T>& v, Fields fields,
             bool omit_empty = false) {
    if (omit_empty && v.empty()) return false;
    JsonScope rows(scope_.field(key), '[', ']');
    for (const T& row : v) {
      JsonWriter nested(rows.element());
      fields(nested, row);
    }
    return true;
  }

 private:
  JsonScope scope_;
};

class JsonReader {
 public:
  static constexpr bool kReading = true;

  /// `error` collects the first failure; the walk carries on, so callers
  /// check it once at the end.
  JsonReader(const JsonValue& obj, std::string& error)
      : obj_(obj), error_(error) {}

  void operator()(const char* key, int& v, int fallback = 0) {
    const JsonValue* n = find(key, JsonValue::Kind::kNumber);
    v = n != nullptr ? static_cast<int>(std::llround(n->number)) : fallback;
  }
  void operator()(const char* key, double& v, double fallback = 0.0) {
    const JsonValue* n = find(key, JsonValue::Kind::kNumber);
    v = n != nullptr ? n->number : fallback;
  }
  void operator()(const char* key, bool& v, bool fallback = false) {
    const JsonValue* b = find(key, JsonValue::Kind::kBool);
    v = b != nullptr ? b->boolean : fallback;
  }
  void operator()(const char* key, std::string& v) {
    const JsonValue* s = find(key, JsonValue::Kind::kString);
    v = s != nullptr ? s->string : std::string();
  }
  void operator()(const char* key, std::uint64_t& v, U64 encoding) {
    v = 0;
    bool ok = true;
    if (const JsonValue* s = find(key, JsonValue::Kind::kString))
      ok = parse_u64(s->string, encoding == U64::kHex ? 16 : 10, &v);
    else if (const JsonValue* n = find(key, JsonValue::Kind::kNumber);
             n != nullptr && encoding != U64::kHex)
      ok = number_to_u64(n->number, &v);
    if (!ok) fail(std::string("malformed unsigned value for \"") + key + "\"");
  }

  void schema(int& v) {
    (*this)(kSchemaKey, v, -1);
    check_version(kSchemaKey, v, kRunReportSchemaVersion);
  }
  void version(const char* block, int& v, int current) {
    (*this)(kVersionKey, v, 1);
    check_version(std::string(block) + " block version", v, current);
  }

  template <class T, class Fields>
  bool object(const char* key, T& v, Fields fields) {
    const JsonValue* o = find(key, JsonValue::Kind::kObject);
    if (o == nullptr) return false;
    JsonReader nested(*o, error_);
    fields(nested, v);
    return true;
  }
  template <class T, class Fields>
  bool optional(const char* key, std::optional<T>& v, Fields fields) {
    T value;
    if (!object(key, value, fields)) return false;
    v = std::move(value);
    return true;
  }
  template <class T, class Fields>
  bool array(const char* key, std::vector<T>& v, Fields fields, bool = false) {
    const JsonValue* a = find(key, JsonValue::Kind::kArray);
    if (a == nullptr) return false;
    for (const JsonValue& row : a->array) {
      if (row.kind != JsonValue::Kind::kObject) {
        fail(std::string(key) + "[] entry is not an object");
        break;
      }
      JsonReader nested(row, error_);
      fields(nested, v.emplace_back());
    }
    return true;
  }

 private:
  const JsonValue* find(const char* key, JsonValue::Kind kind) const {
    const JsonValue* v = obj_.find(key);
    return v != nullptr && v->kind == kind ? v : nullptr;
  }
  void fail(const std::string& why) {
    if (error_.empty()) error_ = why;
  }
  void check_version(const std::string& what, int v, int current) {
    if (v < 1 || v > current)
      fail("unsupported " + what + " " + std::to_string(v) +
           " (this build reads <= " + std::to_string(current) + ")");
  }
  /// A JSON number standing in for a uint64: only whole values in range.
  static bool number_to_u64(double n, std::uint64_t* out) {
    if (!(n >= 0.0) || n >= 18446744073709551616.0 || n != std::floor(n))
      return false;
    *out = static_cast<std::uint64_t>(n);
    return true;
  }

  const JsonValue& obj_;
  std::string& error_;
};

// ------------------------------------------------------------ field tables

constexpr auto meta_fields = [](auto& io, auto& m) {
  io("suite", m.suite);
  io("git_describe", m.git_describe);
  io("threads", m.threads);
  io("episodes_per_cell", m.episodes_per_cell);
  io("base_seed", m.base_seed, U64::kDecimal);
  io("config_fingerprint", m.config_fingerprint, U64::kHex);
  io("aborted", m.aborted);
};

constexpr auto episode_fields = [](auto& io, auto& e) {
  io("outcome", e.outcome);
  io("park_time", e.park_time);
  io("min_clearance", e.min_clearance);
  io("il_fraction", e.il_fraction);
  io("mode_switches", e.mode_switches);
  io("deadline_hits", e.deadline_hits);
};

constexpr auto cell_fields = [](auto& io, auto& c) {
  io("label", c.label);
  io("method", c.method);
  io("generator", c.generator);
  io("episodes", c.episodes);
  io("successes", c.successes);
  io("collisions", c.collisions);
  io("timeouts", c.timeouts);
  io("budget_exceeded", c.budget_exceeded);
  io("deadline_hits", c.deadline_hits);
  io("success_ratio", c.success_ratio);
  io("park_time_mean", c.park_time_mean);
  io("park_time_min", c.park_time_min);
  io("park_time_max", c.park_time_max);
  io("park_time_stddev", c.park_time_stddev);
  io("il_fraction_mean", c.il_fraction_mean);
  io("min_clearance_mean", c.min_clearance_mean);
  io.array("episode_records", c.episode_records, episode_fields, kOmitEmpty);
};

constexpr auto latency_fields = [](auto& io, auto& s) {
  io("count", s.count, U64::kNumber);
  io("mean_ms", s.mean_ms);
  io("p50_ms", s.p50_ms);
  io("p90_ms", s.p90_ms);
  io("p99_ms", s.p99_ms);
  io("max_ms", s.max_ms);
};

constexpr auto tuning_fields = [](auto& io, auto& t) {
  io("min_ms", t.min_ms);
  io("max_ms", t.max_ms);
  io("headroom", t.headroom);
  io("window", t.window);
  io("deadline_min_ms", t.deadline_min_ms);
  io("deadline_mean_ms", t.deadline_mean_ms);
  io("deadline_max_ms", t.deadline_max_ms);
};

constexpr auto batching_fields = [](auto& io, auto& b) {
  io("ticks", b.ticks, U64::kNumber);
  io("requests", b.requests, U64::kNumber);
  io("batches", b.batches, U64::kNumber);
  io("max_batch", b.max_batch, U64::kNumber);
  io("mean_batch", b.mean_batch);
  io("gather_seconds", b.gather_seconds);
  io("forward_seconds", b.forward_seconds);
  io("scatter_seconds", b.scatter_seconds);
};

constexpr auto level_fields = [](auto& io, auto& l) {
  io("offered", l.offered);
  io("admitted", l.admitted);
  io("shed", l.shed);
  io("frames", l.frames, U64::kNumber);
  io("wall_seconds", l.wall_seconds);
  io("frames_per_second", l.frames_per_second);
  io("frame_p50_ms", l.frame_p50_ms);
  io("frame_p99_ms", l.frame_p99_ms);
  io("queue_p99_ms", l.queue_p99_ms);
  io("deadline_hits", l.deadline_hits);
  io("knee", l.knee);
};

constexpr auto serve_fields = [](auto& io, auto& s) {
  io.version("serve", s.version, kServeStatsVersion);
  io("method", s.method);
  io("sessions", s.sessions);
  io("threads", s.threads);
  // Admission counters arrived in v2; a v1 block admitted everything.
  io("offered", s.offered, s.sessions);
  io("admitted", s.admitted, s.sessions);
  io("queued", s.queued);
  io("shed", s.shed);
  io("frames", s.frames, U64::kNumber);
  io("wall_seconds", s.wall_seconds);
  io("frames_per_second", s.frames_per_second);
  const bool has_frame = io.object("frame", s.frame, latency_fields);
  if constexpr (std::remove_reference_t<decltype(io)>::kReading) {
    if (!has_frame) {
      // v1 fallback: flat frame_p50_ms/p99/max scalars, every served frame
      // counted (v1 had no warmup split).
      s.frame.count = s.frames;
      io("frame_p50_ms", s.frame.p50_ms);
      io("frame_p99_ms", s.frame.p99_ms);
      io("frame_max_ms", s.frame.max_ms);
    }
  }
  io.object("queue", s.queue, latency_fields);
  io.object("warmup", s.warmup, latency_fields);
  io("warmup_frames_per_session", s.warmup_frames_per_session);
  io("frame_deadline_ms", s.frame_deadline_ms);
  io("deadline_hits", s.deadline_hits);
  io.optional("tuning", s.tuning, tuning_fields);
  if (io.array("levels", s.levels, level_fields, kOmitEmpty))
    io("knee_offered", s.knee_offered);
  io.optional("batching", s.batching, batching_fields);
};

constexpr auto density_row_fields = [](auto& io, auto& r) {
  io("density", r.density, 1.0);
  io("obstacles", r.obstacles);
  io("analytic_qps", r.analytic_qps);
  io("grid_qps", r.grid_qps);
  io("speedup", r.speedup);
  io("analytic_episode_seconds", r.analytic_episode_seconds);
  io("grid_episode_seconds", r.grid_episode_seconds);
  io("clearance_err_mean", r.clearance_err_mean);
  io("clearance_err_max", r.clearance_err_max);
  io("episodes", r.episodes);
  io("verdicts_match", r.verdicts_match, true);
};

constexpr auto collision_fields = [](auto& io, auto& c) {
  io.version("collision", c.version, kCollisionStatsVersion);
  io("generator", c.generator);
  io("grid_resolution", c.grid_resolution);
  io.array("rows", c.rows, density_row_fields);
};

constexpr auto mission_row_fields = [](auto& io, auto& r) {
  io("mission", r.mission);
  io("method", r.method);
  io("missions", r.missions);
  io("succeeded", r.succeeded);
  io("success_ratio", r.success_ratio);
  io("legs", r.legs);
  io("legs_per_mission", r.legs_per_mission);
  io("replans", r.replans);
  io("replans_per_mission", r.replans_per_mission);
  io("collisions", r.collisions);
  io("timeouts", r.timeouts);
  io("park_time_p50", r.park_time_p50);
  io("park_time_p95", r.park_time_p95);
  io("exit_time_p50", r.exit_time_p50);
  io("exit_time_p95", r.exit_time_p95);
  io("wall_seconds_mean", r.wall_seconds_mean);
  io("spec_fingerprint", r.spec_fingerprint, U64::kHex);
  io("result_fingerprint", r.result_fingerprint, U64::kHex);
};

constexpr auto mission_fields = [](auto& io, auto& m) {
  io.version("mission", m.version, kMissionStatsVersion);
  io.array("rows", m.rows, mission_row_fields);
};

constexpr auto planner_row_fields = [](auto& io, auto& r) {
  io("generator", r.generator);
  io("density", r.density, 1.0);
  io("heuristic", r.heuristic);
  io("plans", r.plans);
  io("solved", r.solved);
  io("plan_ms_mean", r.plan_ms_mean);
  io("plan_ms_max", r.plan_ms_max);
  io("expansions_mean", r.expansions_mean);
  io("rs_shots_mean", r.rs_shots_mean);
  io("path_cost_mean", r.path_cost_mean);
  io("speedup", r.speedup);
  io("deadline_ms", r.deadline_ms);
  io("deadline_hits", r.deadline_hits);
};

constexpr auto planner_fields = [](auto& io, auto& p) {
  io.version("planner", p.version, kPlannerStatsVersion);
  io.array("rows", p.rows, planner_row_fields);
};

constexpr auto report_fields = [](auto& io, auto& r) {
  io.schema(r.meta.schema_version);
  io.object("meta", r.meta, meta_fields);
  io.array("cells", r.cells, cell_fields);
  io.optional("serve", r.serve, serve_fields);
  io.optional("collision", r.collision, collision_fields);
  io.optional("mission", r.mission, mission_fields);
  io.optional("planner", r.planner, planner_fields);
};

CellRecord cell_from_aggregate(const SuiteCell& cell, const Aggregate& agg) {
  CellRecord rec;
  rec.label = agg.level;
  rec.method = agg.method;
  rec.generator = cell.generator;
  rec.episodes = agg.episodes;
  rec.successes = agg.successes;
  rec.collisions = agg.collisions;
  rec.timeouts = agg.timeouts;
  rec.budget_exceeded = agg.budget_exceeded;
  rec.deadline_hits = agg.deadline_hits;
  rec.success_ratio = agg.success_ratio();
  rec.park_time_mean = agg.park_time.mean();
  rec.park_time_min = agg.park_time.min();
  rec.park_time_max = agg.park_time.max();
  rec.park_time_stddev = agg.park_time.stddev();
  rec.il_fraction_mean = agg.il_fraction.mean();
  rec.min_clearance_mean = agg.min_clearance.mean();
  return rec;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::uint64_t config_fingerprint(const EvalConfig& config) {
  math::Fnv1a h;
  h.add_int(config.episodes);
  h.add_int(static_cast<std::int64_t>(config.base_seed));
  h.add_double(config.sim.dt);
  h.add_double(config.sim.goal_pos_tol);
  h.add_double(config.sim.goal_heading_tol);
  h.add_double(config.sim.goal_speed_tol);
  // A frame deadline changes which commands controllers emit, so two runs
  // with different deadlines are not outcome-comparable.
  h.add_double(config.sim.frame_deadline_ms);
  // The grid backend keeps collision verdicts exact, but reported clearance
  // values become conservative lower bounds (resolution sets the band), so
  // clearance-bearing stats are only comparable within one backend setting.
  h.add_int(static_cast<std::int64_t>(config.sim.collision_backend));
  h.add_double(config.sim.grid_resolution);
  return h.value();
}

std::string build_git_describe() { return ICOIL_GIT_DESCRIBE; }

bool parse_u64(const std::string& text, int base, std::uint64_t* out) {
  if (text.empty()) return false;
  for (const char c : text)
    if (!(base == 16 ? std::isxdigit(static_cast<unsigned char>(c))
                     : std::isdigit(static_cast<unsigned char>(c))))
      return false;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, base);
  if (errno == ERANGE) return false;
  *out = value;
  return true;
}

void RunReport::add_cells(const std::vector<SuiteCellResult>& results) {
  for (const SuiteCellResult& r : results)
    cells.push_back(cell_from_aggregate(r.cell, r.aggregate));
}

void RunReport::add_cells_detailed(
    const std::vector<SuiteCellResult>& results,
    const std::vector<SuiteCellEpisodes>& detailed) {
  if (results.size() != detailed.size())
    throw std::invalid_argument(
        "RunReport::add_cells_detailed: " + std::to_string(results.size()) +
        " aggregates for " + std::to_string(detailed.size()) +
        " detailed cells — both must come from the same suite run");
  for (std::size_t c = 0; c < detailed.size(); ++c) {
    const SuiteCellEpisodes& cell = detailed[c];
    CellRecord rec = cell_from_aggregate(results[c].cell, results[c].aggregate);
    rec.episode_records.reserve(cell.episodes.size());
    for (const EpisodeResult& ep : cell.episodes) {
      EpisodeRecord r;
      r.outcome = to_string(ep.outcome);
      r.park_time = ep.park_time;
      r.min_clearance = ep.min_clearance;
      r.il_fraction = ep.il_fraction;
      r.mode_switches = ep.mode_switches;
      r.deadline_hits = ep.deadline_hits;
      rec.episode_records.push_back(std::move(r));
    }
    cells.push_back(std::move(rec));
  }
}

std::string RunReport::to_json() const {
  std::string out;
  {
    JsonWriter doc(out);
    report_fields(doc, *this);
  }
  out.push_back('\n');
  return out;
}

bool RunReport::save(const std::string& path, std::string* error) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << to_json();
  if (!out) {
    if (error) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

bool RunReport::parse(const std::string& json, RunReport* out,
                      std::string* error) {
  JsonValue root;
  JsonParser parser(json, error);
  if (!parser.parse(&root)) return false;
  if (root.kind != JsonValue::Kind::kObject) {
    if (error) *error = "report root is not a JSON object";
    return false;
  }
  RunReport report;
  std::string why;
  JsonReader doc(root, why);
  report_fields(doc, report);
  if (!why.empty()) {
    if (error) *error = why;
    return false;
  }
  *out = std::move(report);
  return true;
}

bool RunReport::load(const std::string& path, RunReport* out,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), out, error);
}

std::string BaselineVerdict::summary() const {
  std::ostringstream out;
  if (ok) {
    out << "baseline check OK";
  } else {
    out << "baseline check FAILED (" << failures.size() << " regression"
        << (failures.size() == 1 ? "" : "s") << ")";
  }
  for (const std::string& f : failures) out << "\n  FAIL  " << f;
  for (const std::string& n : notes) out << "\n  note  " << n;
  return out.str();
}

BaselineVerdict compare_to_baseline(const RunReport& current,
                                    const RunReport& baseline,
                                    const BaselineTolerance& tolerance) {
  BaselineVerdict verdict;
  const bool configs_match =
      current.meta.config_fingerprint == baseline.meta.config_fingerprint;
  if (!configs_match)
    verdict.notes.push_back(
        "config fingerprints differ — the baseline run used different eval "
        "settings; numbers may legitimately differ");

  auto find_current = [&](const CellRecord& want) -> const CellRecord* {
    for (const CellRecord& c : current.cells)
      if (c.method == want.method && c.label == want.label) return &c;
    return nullptr;
  };

  for (const CellRecord& base : baseline.cells) {
    const CellRecord* cur = find_current(base);
    const std::string id = base.method + " / " + base.label;
    if (cur == nullptr) {
      verdict.failures.push_back(id + ": cell missing from current run");
      continue;
    }
    const double drop = base.success_ratio - cur->success_ratio;
    if (drop > tolerance.success_drop + 1e-12) {
      std::ostringstream why;
      why << id << ": success ratio " << cur->success_ratio << " vs baseline "
          << base.success_ratio << " (drop " << drop << " > tol "
          << tolerance.success_drop << ")";
      verdict.failures.push_back(why.str());
    }
    // Park time only compares when both runs actually parked: a mean over
    // zero successes is the RunningStats 0.0 placeholder, not a time.
    if (base.successes > 0 && cur->successes > 0 && base.park_time_mean > 0) {
      const double slowdown =
          cur->park_time_mean / base.park_time_mean - 1.0;
      if (slowdown > tolerance.park_time_slowdown + 1e-12) {
        std::ostringstream why;
        why << id << ": park time mean " << cur->park_time_mean
            << " s vs baseline " << base.park_time_mean << " s (+"
            << 100.0 * slowdown << "% > tol "
            << 100.0 * tolerance.park_time_slowdown << "%)";
        verdict.failures.push_back(why.str());
      }
    }
    if (cur->budget_exceeded > base.budget_exceeded)
      verdict.notes.push_back(id + ": budget_exceeded rose to " +
                              std::to_string(cur->budget_exceeded) + " (from " +
                              std::to_string(base.budget_exceeded) + ")");
  }

  for (const CellRecord& cur : current.cells) {
    bool known = false;
    for (const CellRecord& base : baseline.cells)
      if (base.method == cur.method && base.label == cur.label) known = true;
    if (!known)
      verdict.notes.push_back(cur.method + " / " + cur.label +
                              ": new cell (not in baseline)");
  }

  // Mission rows (matched on template + method). A spec-fingerprint mismatch
  // means the template itself changed since the baseline was recorded: the
  // numbers are not comparable, so it is flagged as a note and the row is
  // skipped rather than failed.
  if (baseline.mission.has_value()) {
    const std::vector<MissionTemplateRow> empty;
    const std::vector<MissionTemplateRow>& cur_rows =
        current.mission.has_value() ? current.mission->rows : empty;
    for (const MissionTemplateRow& base : baseline.mission->rows) {
      const MissionTemplateRow* cur = nullptr;
      for (const MissionTemplateRow& c : cur_rows)
        if (c.mission == base.mission && c.method == base.method) cur = &c;
      const std::string id = base.method + " / mission:" + base.mission;
      if (cur == nullptr) {
        verdict.failures.push_back(id + ": mission row missing from current run");
        continue;
      }
      if (cur->spec_fingerprint != base.spec_fingerprint) {
        verdict.notes.push_back(
            id + ": template fingerprint changed — baseline not comparable, "
                 "re-record it");
        continue;
      }
      // Same template, seeds and eval settings: the outcomes are
      // deterministic, so any moved result fingerprint is a changed
      // outcome, however small its effect on the ratios below.
      if (configs_match && cur->result_fingerprint != base.result_fingerprint) {
        char why[160];
        std::snprintf(why, sizeof(why),
                      ": result fingerprint %016llx vs baseline %016llx",
                      static_cast<unsigned long long>(cur->result_fingerprint),
                      static_cast<unsigned long long>(base.result_fingerprint));
        verdict.failures.push_back(
            id + why +
            " — mission outcomes changed; if that is intended, re-record the "
            "baseline");
      }
      const double drop = base.success_ratio - cur->success_ratio;
      if (drop > tolerance.mission_success_drop + 1e-12) {
        std::ostringstream why;
        why << id << ": mission success ratio " << cur->success_ratio
            << " vs baseline " << base.success_ratio << " (drop " << drop
            << " > tol " << tolerance.mission_success_drop << ")";
        verdict.failures.push_back(why.str());
      }
      const double replan_delta =
          std::abs(cur->replans_per_mission - base.replans_per_mission);
      if (replan_delta > tolerance.mission_replan_delta + 1e-12) {
        std::ostringstream why;
        why << id << ": replans per mission " << cur->replans_per_mission
            << " vs baseline " << base.replans_per_mission << " (|delta| "
            << replan_delta << " > tol " << tolerance.mission_replan_delta
            << ")";
        verdict.failures.push_back(why.str());
      }
    }
  }

  verdict.ok = verdict.failures.empty();
  return verdict;
}

}  // namespace icoil::sim
