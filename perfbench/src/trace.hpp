#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call into a layer. Ids are 1-based and local to the Tracer
/// that recorded the span; `parent` is 0 for a root span. `group` is the
/// episode / mission / serving-round id every span of that unit shares.
struct Span {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t group = 0;
  double start_us = 0.0;  ///< since the process-wide trace epoch
  double end_us = 0.0;
};

/// Microseconds since the process-wide trace epoch (steady clock).
double now_us();

/// In-memory span recorder for ONE thread of control (one main loop, or
/// one controller that a single worker steps at a time). Spans nest by call
/// order; nothing is written until the run ends.
class Tracer {
 public:
  /// `reserve` spans are allocated up front, so recording them never
  /// reallocates inside a timed frame.
  explicit Tracer(std::size_t reserve = 0) { spans_.reserve(reserve); }

  std::uint32_t begin(const char* name);
  void end(std::uint32_t id);
  /// Records a closed span [start_us, end_us] under the innermost open span:
  /// for work timed from outside, between two calls the tracer sees.
  void record(const char* name, double start_us, double end_us);
  void set_group(std::uint64_t group) { group_ = group; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint64_t group_ = 0;
};

/// RAII span; a null tracer records nothing (the untraced path).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

/// Self time of every span [us], indexed like `spans`: its duration minus
/// the part of its interval that its child spans cover (the union of the
/// children's intervals clipped to the parent, so overlapping children are
/// not counted twice). `spans` must be one Tracer's spans.
std::vector<double> self_times_us(const std::vector<Span>& spans);

/// Per span name: number of spans, summed duration and summed self time.
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
using TotalsByName = std::map<std::string, SpanTotals>;

/// Adds one Tracer's spans into `totals`.
void accumulate(const std::vector<Span>& spans, TotalsByName& totals);

/// A frame timed from outside the spans recorded during it, on the trace
/// clock (now_us).
struct FrameWindow {
  double start_us = 0.0;
  double end_us = 0.0;
};

/// How the spans recorded inside each frame account for the frame's time
/// measured around them.
struct FrameAccounting {
  std::size_t frames = 0;
  std::size_t spans = 0;       ///< spans lying inside some frame
  std::size_t over = 0;        ///< frames whose residual exceeds the tolerance
  std::size_t negative = 0;    ///< frames whose spans exceed the frame time
  std::size_t straddling = 0;  ///< spans crossing a frame's boundary
  double frame_ms = 0.0;       ///< summed frame time
  double residual_ms = 0.0;    ///< summed frame time no span accounts for
  double worst_residual_us = 0.0;
};

/// Per frame, the residual is the frame time minus the self times of the
/// spans lying inside the frame: the part of the frame that no layer's
/// span accounts for. A frame is `over` when its residual exceeds
/// `tolerance_us_per_span` times (its span count + 1), the tracing cost of
/// its spans and of the outside timer; `negative` when its spans claim more
/// time than the frame took (beyond 0.01 us of rounding). A span that
/// overlaps a frame without lying inside it or enclosing it is
/// `straddling`. Frames are in time order and do not overlap; `spans` is
/// one Tracer's spans.
FrameAccounting account_frames(const std::vector<Span>& spans,
                               const std::vector<FrameWindow>& frames,
                               double tolerance_us_per_span);

/// Measured cost of recording one nested span [us]: the median over a few
/// batches of `per_batch` empty Scopes on a scratch Tracer.
double calibrate_span_cost_us(int per_batch = 20000);

/// Writes the spans of several tracers as Chrome trace-event JSON (one
/// "thread" per tracer), which opens in Perfetto or chrome://tracing.
/// At most `max_spans` spans are written. False when the file cannot be
/// written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers,
                        std::size_t max_spans);

}  // namespace perfbench
