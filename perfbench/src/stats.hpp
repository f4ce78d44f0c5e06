#pragma once

#include <sched.h>

#include <cstddef>
#include <string_view>
#include <vector>

namespace perfbench {

/// A percentile together with the sample it came from: `samples` is the
/// sample count and `beyond` the number of samples strictly above `value`.
/// A tail percentile is only trustworthy when `beyond` is at least ten.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Linearly interpolated percentile (p in [0, 100]) of `samples`, the rule
/// numpy and the repository's LatencyHistogram use. Empty input gives a
/// zero value with zero samples.
Percentile percentile(std::vector<double> samples, double p);

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Frame `i` of the result is the median of frame `i` over `repetitions`,
/// each the per-frame times of one repetition of the same work. Returns an
/// empty vector when the repetitions differ in length (or there are none).
std::vector<double> per_frame_median(
    const std::vector<std::vector<double>>& repetitions);

/// Pins the calling thread, and every thread it starts while pinned, to the
/// CPU it runs on; the destructor restores the thread's previous affinity.
/// Threads that hand work to each other then switch on one CPU instead of
/// waking each other across CPUs. `cpu()` is -1 when pinning failed.
class PinToOneCpu {
 public:
  PinToOneCpu();
  ~PinToOneCpu();
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;
  int cpu() const { return cpu_; }

 private:
  int cpu_ = -1;
  cpu_set_t saved_{};  ///< the affinity to restore
};

/// True when `name` is a valid benchmark metric or workload name: 1 to 64
/// characters of letters, digits, '_', '.' and '-', starting with a letter
/// or a digit.
bool valid_metric_name(std::string_view name);

/// Peak resident set size of this process [MiB].
double peak_rss_mb();

}  // namespace perfbench
