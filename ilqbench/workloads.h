// The four workloads and the helpers they share. Each Run* function sets
// up its system several times (setup_s is the median), measures for
// Args::seconds, checks sampled outputs against the oracles, and fills a
// RunResult. With Args::trace the measured time is split: an untraced half
// for the figures that must not carry tracing cost, then a traced half that
// records spans around each layer call and derives the per-layer metrics.

#ifndef ILQBENCH_WORKLOADS_H_
#define ILQBENCH_WORKLOADS_H_

#include <unordered_map>
#include <vector>

#include "core/batch.h"
#include "core/engine.h"
#include "object/snapshot.h"
#include "oracle.h"
#include "support.h"

namespace ilqbench {

RunResult RunQueryMix(const Args& args, Tracer* tracer);
RunResult RunWireZipf(const Args& args, Tracer* tracer);
RunResult RunMovingChurn(const Args& args, Tracer* tracer);
RunResult RunPagedBudget(const Args& args, Tracer* tracer);

// §6.1 geometry shared by every workload (the generators' default space is
// the paper's 10,000² square).
inline constexpr double kIssuerHalfSide = 250.0;      // u
inline constexpr double kTrajectoryHalfSide = 50.0;   // u for trajectories
inline constexpr double kRangeHalfSide = 500.0;       // w = h
inline constexpr double kThreshold = 0.5;             // Qp of C-IPQ / C-IUQ

// Set-ups per run, and the set-up time they must add up to (short set-ups
// repeat more often); setup_s is their median, since set-up is short and
// one sample would carry the host's noise.
inline constexpr int kSetupRepeats = 9;
inline constexpr double kSetupMinSeconds = 1.0;

/// Catalog at \p scale of §6.1's sizes (62K California-like points, 53K
/// Long-Beach-like uniform rectangles), generated from \p seed.
ilq::CatalogImage PaperImage(double scale, uint64_t seed);

std::unordered_map<ObjectId, Point> PointMap(
    const std::vector<ilq::PointObject>& points);
std::unordered_map<ObjectId, Rect> RegionMap(
    const std::vector<ilq::UncertainObject>& objects);

/// Latency samples (µs) of one query class, with each operation's
/// completion time so figures can be taken per one-second window.
struct ClassLatency {
  const char* name = "";
  ilq::QueryMethod method = ilq::QueryMethod::kIpq;
  std::vector<double> us;
  std::vector<int64_t> done_ns;

  void Add(double latency_us, int64_t completed_ns) {
    us.push_back(latency_us);
    done_ns.push_back(completed_ns);
  }
};

/// The index traversal each method's evaluator performs, re-issued from
/// outside over the same filter box (Minkowski, or p-expanded for the
/// constrained methods; PTI pruning rules replayed for C-IUQ) on the
/// indexes in \p views; \p stats collects the traversal counters.
struct IndexViews {
  const ilq::RTree* points = nullptr;
  const ilq::RTree* uncertains = nullptr;
  const ilq::PTI* pti = nullptr;
  const std::vector<ilq::UncertainObject>* objects = nullptr;
};
void ReissueTraversal(const IndexViews& views, ilq::QueryMethod method,
                      const ilq::UncertainObject& issuer,
                      const ilq::RangeQuerySpec& spec,
                      ilq::IndexStats* stats);

/// Oracle checks for one answer of a single-engine query: the brute-force
/// and closed-form checks of its class, Monte-Carlo spot checks, and the
/// constrained ≡ filtered-unconstrained identity (the unconstrained
/// answer comes from \p engine).
void CheckAnswer(Checker* checker, uint64_t request, const ClassLatency& cls,
                 bool gaussian_issuer, const ilq::UncertainObject& issuer,
                 const ilq::RangeQuerySpec& spec, const ilq::AnswerSet& answers,
                 const ilq::QueryEngine& engine,
                 const std::unordered_map<ObjectId, Point>& points,
                 const std::unordered_map<ObjectId, Rect>& regions,
                 uint64_t seed);

// ---- Closed loop over one engine (query_mix, paged_budget) -----------------

/// One query class of a closed-loop workload: its method, shape, issuer
/// pool (cycled in order) and its queries per round. Weights are chosen so
/// the workload's overall median falls inside one class's distribution
/// rather than in the gap between two, where it would jump run to run.
struct QueryClass {
  const char* name = "";
  ilq::QueryMethod method = ilq::QueryMethod::kIpq;
  ilq::RangeQuerySpec spec;
  bool gaussian_issuer = false;
  std::vector<ilq::UncertainObject> pool;
  size_t weight = 1;
};

/// An answer kept from the measured phase for the oracles.
struct KeptAnswer {
  uint64_t request = 0;
  size_t cls = 0;
  size_t issuer = 0;
  ilq::AnswerSet answers;
};

struct ClosedLoopResult {
  uint64_t ops = 0;
  double seconds = 0.0;
  std::vector<ClassLatency> latency;  ///< one per class
  ilq::IndexStats index;              ///< summed over every query
  uint64_t answers = 0;
  std::vector<KeptAnswer> kept;
  // Traced runs only.
  uint64_t gauss_rects = 0;
  int64_t gauss_ns = 0;
};

/// One client thread, round-robin over \p classes, each query sent when
/// the previous one returned, for \p seconds. Keeps every \p keep_every-th
/// round's answers (at most \p max_keep per class). With a \p tracer each
/// query records a root span, the evaluator span, the re-issued traversal
/// over \p views, and for Gaussian issuers the MassInBatch kernel over the
/// candidates' query rectangles.
ClosedLoopResult RunClosedLoop(const ilq::QueryEngine& engine,
                               const std::vector<QueryClass>& classes,
                               double seconds, size_t keep_every,
                               size_t max_keep, Tracer* tracer,
                               const IndexViews& views, uint64_t first_request);

/// Adds the per-layer figures of a traced closed loop (index, core, prob)
/// and the tracing overhead against an untraced loop.
void AddClosedLoopLayers(RunResult* result, const ClosedLoopResult& untraced,
                         const ClosedLoopResult& traced, const Tracer& tracer);

/// Adds the windowed p99 over \p classes as the per-layer
/// bench.latency_p99_us. It is not an end-to-end metric: where a request
/// crosses threads, the reference VM's millisecond wake-up stalls set the
/// tail, and its spread across seeds stayed above every allowed bound.
void AddTailLatency(RunResult* result,
                    const std::vector<ClassLatency>& classes);

/// Median over the whole one-second windows of the operations completed
/// in each; the overall rate when the run is shorter than one window.
double WindowedRate(const std::vector<const ClassLatency*>& classes);

/// Adds setup_s, the windowed ops_per_s and latency p50 over \p classes,
/// the IPQ and C-IUQ(PTI) class medians, and peak RSS.
void AddEndToEnd(RunResult* result, double setup_s,
                 const std::vector<ClassLatency>& classes);

/// The median over one-second windows (by completion time) of each
/// window's q-percentile of \p classes' latencies. Windows with fewer than
/// ten samples beyond the percentile are skipped; with none left, the
/// whole run's percentile. A few slow seconds of a noisy host then move
/// the figure by a window's share instead of dominating a run-wide tail.
double WindowedPercentile(const std::vector<const ClassLatency*>& classes,
                          double q);

/// Windowed p50 (µs) of the class whose name is \p name; 0 when absent.
double ClassP50(const std::vector<ClassLatency>& classes, const char* name);

}  // namespace ilqbench

#endif  // ILQBENCH_WORKLOADS_H_
