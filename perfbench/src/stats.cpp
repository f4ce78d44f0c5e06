#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  out.value = samples[lo] + (samples[hi] - samples[lo]) * frac;
  out.beyond = static_cast<std::size_t>(
      samples.end() -
      std::upper_bound(samples.begin(), samples.end(), out.value));
  return out;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0).value;
}

std::vector<double> per_frame_median(
    const std::vector<std::vector<double>>& repetitions) {
  if (repetitions.empty()) return {};
  const std::size_t frames = repetitions.front().size();
  for (const auto& r : repetitions)
    if (r.size() != frames) return {};
  std::vector<double> out(frames), column(repetitions.size());
  for (std::size_t i = 0; i < frames; ++i) {
    for (std::size_t r = 0; r < repetitions.size(); ++r)
      column[r] = repetitions[r][i];
    out[i] = median(column);
  }
  return out;
}

PinToOneCpu::PinToOneCpu() {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) cpu_ = cpu;
}

PinToOneCpu::~PinToOneCpu() {
  if (cpu_ >= 0) sched_setaffinity(0, sizeof(saved_), &saved_);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
