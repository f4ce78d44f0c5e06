#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

/// Children of each span (by index), in recording order.
std::vector<std::vector<std::size_t>> children_of(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != 0) children[spans[i].parent - 1].push_back(i);
  return children;
}

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

std::uint32_t Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.group = group_;
  s.start_us = now_us();
  s.end_us = s.start_us;
  spans_.push_back(s);
  open_.push_back(s.id);
  return s.id;
}

void Tracer::end(std::uint32_t id) {
  spans_[id - 1].end_us = now_us();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::record(const char* name, double start_us, double end_us) {
  Span s;
  s.name = name;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.group = group_;
  s.start_us = start_us;
  s.end_us = end_us;
  spans_.push_back(s);
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  const auto children = children_of(spans);
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<double, double>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const double lo = std::max(spans[c].start_us, s.start_us);
      const double hi = std::min(spans[c].end_us, s.end_us);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = -1.0;
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (s.end_us - s.start_us) - covered;
  }
  return self;
}

void accumulate(const std::vector<Span>& spans, TotalsByName& totals) {
  const std::vector<double> self = self_times_us(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ms += (spans[i].end_us - spans[i].start_us) / 1000.0;
    t.self_ms += self[i] / 1000.0;
  }
}

FrameAccounting account_frames(const std::vector<Span>& spans,
                               const std::vector<FrameWindow>& frames,
                               double tolerance_us_per_span) {
  constexpr double kRoundingUs = 0.01;
  const std::vector<double> self = self_times_us(spans);
  std::vector<std::size_t> by_start(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_start[i] = i;
  std::sort(by_start.begin(), by_start.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].start_us < spans[b].start_us;
  });
  std::vector<double> starts(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    starts[i] = spans[by_start[i]].start_us;

  FrameAccounting out;
  std::vector<char> checked(spans.size(), 0);
  for (const FrameWindow& f : frames) {
    const double frame_us = f.end_us - f.start_us;
    double covered = 0.0;
    std::size_t inside = 0;
    // Spans starting inside the frame lie inside it or straddle its end.
    const auto lo = std::lower_bound(starts.begin(), starts.end(), f.start_us);
    const auto hi = std::lower_bound(lo, starts.end(), f.end_us);
    for (auto it = lo; it != hi; ++it) {
      const std::size_t k = by_start[static_cast<std::size_t>(it - starts.begin())];
      checked[k] = 1;
      if (spans[k].end_us <= f.end_us) {
        covered += self[k];
        ++inside;
      } else {
        ++out.straddling;
      }
    }
    const double residual = frame_us - covered;
    ++out.frames;
    out.spans += inside;
    out.frame_ms += frame_us / 1000.0;
    out.residual_ms += residual / 1000.0;
    out.worst_residual_us = std::max(out.worst_residual_us, residual);
    if (residual < -kRoundingUs) ++out.negative;
    if (residual > tolerance_us_per_span * static_cast<double>(inside + 1))
      ++out.over;
  }
  // A span starting before a frame must end before it or enclose it: the
  // only frame it could end inside is the last one starting before its end.
  std::vector<double> frame_starts;
  for (const FrameWindow& f : frames) frame_starts.push_back(f.start_us);
  for (std::size_t k = 0; k < spans.size(); ++k) {
    if (checked[k]) continue;
    const Span& s = spans[k];
    const auto it =
        std::lower_bound(frame_starts.begin(), frame_starts.end(), s.end_us);
    if (it == frame_starts.begin()) continue;
    const FrameWindow& f = frames[static_cast<std::size_t>(it - frame_starts.begin()) - 1];
    if (s.start_us < f.start_us && s.end_us < f.end_us) ++out.straddling;
  }
  return out;
}

double calibrate_span_cost_us(int per_batch) {
  std::vector<double> costs;
  for (int batch = 0; batch < 5; ++batch) {
    Tracer t;
    Scope root(&t, "calibrate");
    const double t0 = now_us();
    for (int i = 0; i < per_batch; ++i) Scope s(&t, "calibrate");
    costs.push_back((now_us() - t0) / per_batch);
  }
  std::sort(costs.begin(), costs.end());
  return costs[costs.size() / 2];
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers,
                        std::size_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  std::size_t written = 0;
  for (std::size_t t = 0; t < tracers.size() && written < max_spans; ++t) {
    for (const Span& s : tracers[t]->spans()) {
      if (written == max_spans) break;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                   "\"parent\":%u,\"group\":%llu}}",
                   written == 0 ? "" : ",\n", s.name, t, s.start_us,
                   s.end_us - s.start_us, s.id, s.parent,
                   static_cast<unsigned long long>(s.group));
      ++written;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
