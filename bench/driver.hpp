#pragma once

// The skeleton the five bench drivers (bench_suite, bench_serve,
// bench_mission, bench_planner, bench_collision) share:
//
//   * Flags: each flag is declared once, with its name, target, help text
//     and validity rule. Parsing and the usage text both come from that
//     declaration. A rejected argument (unknown flag, missing value, value
//     that fails its rule) prints the reason and the usage text, exit 2.
//   * finish(): the one step from a finished sim::RunReport to the drivers'
//     common exit codes — 0 ok, 1 gate failure or baseline regression,
//     2 usage error, 3 I/O error, 130 aborted by SIGINT. An aborted run
//     still writes its partial report first; its baseline is not compared,
//     since a partial run would only produce spurious regressions.
//   * The SIGINT abort token, for the drivers whose work polls one.

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cancel_token.hpp"
#include "sim/evaluator.hpp"
#include "sim/report.hpp"

namespace icoil::bench {

// ------------------------------------------------------------ value parses
//
// Strict: the whole text must parse. atoi would map "2x" to 2 and "eight"
// to 0; strtod accepts "nan", and a NaN tolerance would make every baseline
// comparison pass; strtoull accepts "-1" as 2^64-1.

inline bool parse_value(const std::string& text, std::string* out) {
  *out = text;
  return true;
}

inline bool parse_value(const std::string& text, int* out) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value < -1000000000L ||
      value > 1000000000L)
    return false;
  *out = static_cast<int>(value);
  return true;
}

inline bool parse_value(const std::string& text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value))
    return false;
  *out = value;
  return true;
}

inline bool parse_value(const std::string& text, std::uint64_t* out) {
  return sim::parse_u64(text, 10, out);
}

/// Lower bound of a numeric flag, or of each item of a numeric list flag.
struct Bound {
  double min = -std::numeric_limits<double>::infinity();
  bool inclusive = true;

  template <class T>
  bool admits(const T& v) const {
    if constexpr (std::is_arithmetic_v<T>)
      return inclusive ? static_cast<double>(v) >= min
                       : static_cast<double>(v) > min;
    return true;
  }
};
inline constexpr Bound at_least(double v) { return {v, true}; }
inline constexpr Bound above(double v) { return {v, false}; }

// ------------------------------------------------------------------- flags

class Flags {
 public:
  /// parse() result meaning "no exit: run the driver".
  static constexpr int kRun = -1;

  /// `synopsis` follows the program name on the usage line.
  explicit Flags(std::string program, std::string synopsis = "[options]")
      : program_(std::move(program)), synopsis_(std::move(synopsis)) {}

  /// A switch: present means true.
  Flags& flag(const char* name, bool* target, const char* help) {
    return add(name, "", help, [target](const std::string&) {
      *target = true;
      return true;
    });
  }

  /// A flag with one value, which must parse as T and satisfy `bound`.
  template <class T>
  Flags& value(const char* name, T* target, const char* meta,
               const char* help, Bound bound = {}) {
    return add(name, meta, help, [target, bound](const std::string& text) {
      T v{};
      if (!parse_value(text, &v) || !bound.admits(v)) return false;
      *target = std::move(v);
      return true;
    });
  }

  /// A comma list; every item must be non-empty, parse as T and satisfy
  /// `bound`.
  template <class T>
  Flags& list(const char* name, std::vector<T>* target, const char* meta,
              const char* help, Bound bound = {}) {
    return add(name, meta, help, [target, bound](const std::string& text) {
      std::vector<T> items;
      std::size_t start = 0;
      for (;;) {
        const std::size_t comma = text.find(',', start);
        const std::string item = text.substr(start, comma - start);
        T v{};
        if (item.empty() || !parse_value(item, &v) || !bound.admits(v))
          return false;
        items.push_back(std::move(v));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      *target = std::move(items);
      return true;
    });
  }

  /// A flag whose value is one of a fixed set of names.
  template <class T>
  Flags& choice(const char* name, T* target, const char* help,
                std::vector<std::pair<std::string, T>> names) {
    std::string meta;
    for (const auto& [word, value] : names)
      meta += (meta.empty() ? "" : "|") + word;
    return add(name, meta, help, [target, names](const std::string& text) {
      for (const auto& [word, value] : names) {
        if (word != text) continue;
        *target = value;
        return true;
      }
      return false;
    });
  }

  /// A discovery flag: runs `print`, then the driver exits 0.
  Flags& action(const char* name, const char* help,
                std::function<void()> print) {
    add(name, "", help, [print = std::move(print)](const std::string&) {
      print();
      return true;
    });
    flags_.back().exits = true;
    return *this;
  }

  /// Bare words, one of `words`, accepted at most once into `target`.
  Flags& positional(std::string* target, std::vector<std::string> words) {
    positional_ = target;
    words_ = std::move(words);
    return *this;
  }

  /// Parses argv into the declared targets. Returns kRun to go on, 0 after
  /// an action ran, or 2 after rejecting an argument.
  int parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const Flag* flag = find(arg);
      if (flag == nullptr) {
        if (positional_ != nullptr && positional_->empty() && is_word(arg)) {
          *positional_ = arg;
          continue;
        }
        return reject("unknown argument \"" + arg + "\"");
      }
      std::string text;
      if (!flag->meta.empty()) {
        if (i + 1 >= argc) return reject("missing value for " + arg);
        text = argv[++i];
      }
      if (!flag->set(text))
        return reject("bad value \"" + text + "\" for " + arg);
      if (flag->exits) return 0;
    }
    return kRun;
  }

  /// Prints `why` and the usage text to stderr; returns the usage exit 2.
  int reject(const std::string& why) const {
    std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), why.c_str(),
                 usage().c_str());
    return 2;
  }

  std::string usage() const {
    std::string out = "usage: " + program_ + " " + synopsis_ + "\n";
    std::size_t width = 0;
    for (const Flag& f : flags_) width = std::max(width, label(f).size());
    for (const Flag& f : flags_) {
      const std::string l = label(f);
      out += "  " + l + std::string(width - l.size() + 2, ' ') + f.help + "\n";
    }
    return out;
  }

 private:
  struct Flag {
    std::string name;
    std::string meta;  ///< value placeholder; empty for switches and actions
    std::string help;
    std::function<bool(const std::string&)> set;
    bool exits = false;
  };

  Flags& add(const char* name, std::string meta, const char* help,
             std::function<bool(const std::string&)> set) {
    flags_.push_back({name, std::move(meta), help, std::move(set)});
    return *this;
  }
  const Flag* find(const std::string& name) const {
    for (const Flag& f : flags_)
      if (f.name == name) return &f;
    return nullptr;
  }
  bool is_word(const std::string& arg) const {
    for (const std::string& w : words_)
      if (w == arg) return true;
    return false;
  }
  static std::string label(const Flag& f) {
    return f.meta.empty() ? f.name : f.name + " " + f.meta;
  }

  std::string program_;
  std::string synopsis_;
  std::vector<Flag> flags_;
  std::string* positional_ = nullptr;
  std::vector<std::string> words_;
};

// ------------------------------------------------------------------ finish

/// Where a driver's report goes and what it is gated against.
struct ReportOptions {
  std::string path;           ///< write the RunReport here ("" = don't)
  std::string baseline_path;  ///< compare against this report ("" = don't)
  sim::BaselineTolerance tolerance;
};

/// Run metadata for a report whose outcomes `config` determines.
inline sim::RunReportMeta report_meta(std::string suite, int threads,
                                      const sim::EvalConfig& config) {
  sim::RunReportMeta meta;
  meta.suite = std::move(suite);
  meta.git_describe = sim::build_git_describe();
  meta.threads = threads;
  meta.episodes_per_cell = config.episodes;
  meta.base_seed = config.base_seed;
  meta.config_fingerprint = sim::config_fingerprint(config);
  return meta;
}

/// Saves the report (3 on I/O error); returns 130 once the partial report of
/// an aborted run is written; otherwise compares against the baseline (3 if
/// it cannot be loaded, 1 on regression). `gates_ok` carries the driver's
/// own gates (determinism, parity): false returns 1.
inline int finish(const char* program, const sim::RunReport& report,
                  const ReportOptions& options, bool gates_ok = true) {
  const bool aborted = report.meta.aborted;
  if (!options.path.empty()) {
    std::string error;
    if (!report.save(options.path, &error)) {
      std::fprintf(stderr, "%s: %s\n", program, error.c_str());
      return 3;
    }
    std::fprintf(stderr, "%s: %sreport written to %s\n", program,
                 aborted ? "partial (aborted) " : "", options.path.c_str());
  }
  if (aborted) {
    std::fprintf(stderr, "%s: aborted by SIGINT\n", program);
    return 130;  // 128 + SIGINT, the conventional "died on ctrl-C" code
  }
  if (!options.baseline_path.empty()) {
    sim::RunReport baseline;
    std::string error;
    if (!sim::RunReport::load(options.baseline_path, &baseline, &error)) {
      std::fprintf(stderr, "%s: cannot load baseline: %s\n", program,
                   error.c_str());
      return 3;
    }
    const sim::BaselineVerdict verdict =
        sim::compare_to_baseline(report, baseline, options.tolerance);
    std::printf("\n%s\n", verdict.summary().c_str());
    if (!verdict.ok) return 1;
  }
  return gates_ok ? 0 : 1;
}

// ------------------------------------------------------------------ SIGINT

/// The process-wide SIGINT abort token. A signal handler may only touch
/// lock-free atomics; CancelToken::cancel is one relaxed atomic store, so
/// tripping it from the handler is async-signal-safe. Draining workers and
/// writing the partial report happen on the normal path once the work
/// observes it.
inline core::CancelToken& sigint_token() {
  static core::CancelToken token;
  return token;
}

/// Installs the SIGINT -> sigint_token() handler. Only for drivers whose
/// work polls the token; elsewhere Ctrl-C should simply end the process.
inline void install_sigint_handler() {
  sigint_token();  // construct before the handler can fire
  std::signal(SIGINT, [](int) { sigint_token().cancel(); });
}

}  // namespace icoil::bench
