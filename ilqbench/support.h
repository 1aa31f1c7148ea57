// Shared plumbing of the end-to-end benchmark: command-line arguments,
// timing and percentiles, the metric record printed as the result line,
// the in-memory span recorder of traced runs, the open-loop schedule, and
// the host context block. Nothing here calls into the library except the
// SIMD tier query for the host block.

#ifndef ILQBENCH_SUPPORT_H_
#define ILQBENCH_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ilqbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where traced runs write their span file
  std::string work_dir = ".";  ///< scratch files (paged index files)
};

/// Percentile \p q ∈ [0, 1] by linear interpolation between closest ranks
/// (the definition numpy uses by default). Sorts a copy; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// One named figure of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main: every end-to-end and
/// per-layer figure it measured, plus the operation counts. main selects
/// the end-to-end or the per-layer set by --trace.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t oracle_checks = 0;
  uint64_t oracle_mismatches = 0;
  uint64_t rounded_above_one = 0;  ///< see Checker::rounded_above_one
  std::vector<std::string> oracle_failures;  ///< the first mismatches
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Times one set-up callable at least \p repeats times, and on until the
/// timed set-ups add up to \p min_seconds (at most 64 times), destroying
/// each result before the next; returns the median seconds. The last result
/// is kept in \p keep for the measured phase.
template <typename T, typename Make>
double TimedSetup(int repeats, double min_seconds, Make&& make, T* keep) {
  std::vector<double> seconds;
  double total = 0.0;
  for (int i = 0; i < 64 && (i < repeats || total < min_seconds); ++i) {
    *keep = T{};
    const int64_t t0 = NowNs();
    *keep = make();
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    total += seconds.back();
  }
  return Median(seconds);
}

// ---- Spans ----------------------------------------------------------------

/// One recorded interval around a call into a layer. \p parent is an index
/// into the recorder (-1 for a request's root). Child spans need not lie
/// inside their parent's interval: a re-issued measurement (a traversal
/// replayed after the evaluator ran) is parented to the span it
/// decomposes, and self time is parent duration minus child durations.
struct Span {
  const char* name = "";
  uint64_t request = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t arg = 0;  ///< span-specific annotation (fan-out, bytes, ...)

  double us() const { return NsToUs(end_ns - start_ns); }
};

class Tracer {
 public:
  /// Records an already measured interval; returns its index.
  int32_t Add(const char* name, uint64_t request, int32_t parent,
              int64_t start_ns, int64_t end_ns, int64_t arg = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// Moves another recorder's spans (e.g. a client thread's) in here.
  void Append(const Tracer& other);

  /// Mean duration (µs) of the spans called \p name; 0 when none.
  double MeanUs(const char* name) const;
  /// Mean self time (µs) of the spans called \p name: duration minus the
  /// durations of their direct children, floored at 0. Only spans whose
  /// arg equals \p arg count when \p arg is non-negative.
  double MeanSelfUs(const char* name, int64_t arg = -1) const;
  /// Writes one JSON object per span to \p path (JSON lines).
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// ---- Open loop --------------------------------------------------------------

/// Fixed-rate arrival schedule for one client thread: request i is due at
/// start + offset + i / rate. Wait() blocks until the next request is due
/// (sleeping, then spinning the last stretch) and returns its due time, so
/// latency can be timed from when the request *should* have been sent; a
/// client that falls behind sends at once and the lag shows.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate_per_s, double offset_s);
  int64_t Wait();

 private:
  int64_t start_ns_;
  double period_ns_;
  double offset_ns_;
  uint64_t next_ = 0;
};

// ---- Host ---------------------------------------------------------------------

/// One JSON object: CPU model, nproc, build type, detected and active SIMD
/// tiers, a host tag, and a warning when the build is not Release.
std::string HostBlockJson();

/// Pins the calling thread to the k-th CPU (modulo) its process may run on,
/// counting down from the last: the first CPU of a VM takes the most
/// interrupts and steal (about 1.5 times its siblings' on the reference
/// host). Client threads stay put, so a run does not depend on where the
/// scheduler happened to place and migrate them. Threads the caller starts
/// afterwards inherit the pin.
void PinToCpu(size_t k);

/// Peak resident set size of this process, MiB.
double PeakRssMib();

/// JSON string escaping for the few free-text fields we print.
std::string JsonEscape(const std::string& s);

}  // namespace ilqbench

#endif  // ILQBENCH_SUPPORT_H_
