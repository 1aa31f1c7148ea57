// Helpers shared by the workloads: catalog generation, oracle maps, the
// re-issued index traversal of the traced runs, per-answer oracle checks,
// and the end-to-end metric block.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>

#include "common/logging.h"
#include "common/rng.h"
#include "core/expansion.h"
#include "datagen/synthetic.h"
#include "workloads.h"

namespace ilqbench {

using ilq::QueryMethod;

ilq::CatalogImage PaperImage(double scale, uint64_t seed) {
  ilq::SyntheticConfig points;
  points.count = static_cast<size_t>(62000 * scale);
  points.seed = ilq::MixSeeds(seed, 1);
  ilq::RectangleConfig rects;
  rects.base.count = static_cast<size_t>(53000 * scale);
  rects.base.seed = ilq::MixSeeds(seed, 2);
  ilq::Result<std::vector<ilq::UncertainObject>> objects =
      ilq::MakeUniformUncertainObjects(ilq::GenerateLongBeachLikeRects(rects));
  ILQ_CHECK(objects.ok(), objects.status().ToString());
  ilq::CatalogImage image;
  image.points = ilq::GenerateCaliforniaLikePoints(points);
  image.uncertains = std::move(objects).ValueOrDie();
  return image;
}

std::unordered_map<ObjectId, Point> PointMap(
    const std::vector<ilq::PointObject>& points) {
  std::unordered_map<ObjectId, Point> map;
  map.reserve(points.size());
  for (const ilq::PointObject& p : points) map.emplace(p.id, p.location);
  return map;
}

std::unordered_map<ObjectId, Rect> RegionMap(
    const std::vector<ilq::UncertainObject>& objects) {
  std::unordered_map<ObjectId, Rect> map;
  map.reserve(objects.size());
  for (const ilq::UncertainObject& o : objects) map.emplace(o.id(), o.region());
  return map;
}

namespace {

// C-IUQ over the PTI: the three pruning strategies of §5.2 as the
// evaluator applies them, so the replayed traversal visits the same nodes.
void ReissueCiuqPti(const ilq::PTI& pti,
                    const std::vector<ilq::UncertainObject>& objects,
                    const ilq::UncertainObject& issuer,
                    const ilq::RangeQuerySpec& spec, ilq::IndexStats* stats) {
  const ilq::UCatalog& ic = *issuer.catalog();
  const double qp = spec.threshold;
  const Rect minkowski = issuer.region().Expanded(spec.w, spec.h);
  const Rect filter = ilq::PExpandedQueryFromCatalog(ic, spec.w, spec.h, qp);
  std::vector<Rect> expanded(ic.size());
  for (size_t i = 0; i < ic.size(); ++i) {
    const ilq::PBound& b = ic.bound(i);
    expanded[i] = Rect(b.l - spec.w, b.r + spec.w, b.b - spec.h, b.t + spec.h);
  }
  const auto prune = [&](const Rect& region, const ilq::UCatalog& cat) {
    const Rect inter = region.Intersection(minkowski);
    if (inter.IsEmpty()) return true;
    const size_t fi = cat.FloorIndex(qp);
    if (cat.value(fi) < 1.0 && cat.bound(fi).RegionBeyond(inter)) return true;
    if (qp <= 0.0) return false;
    std::optional<double> qmin;
    if (const auto start = ic.CeilIndex(qp)) {
      for (size_t i = *start; i < ic.size(); ++i) {
        if (!region.Intersects(expanded[i])) {
          qmin = ic.value(i);
          break;
        }
      }
    }
    if (!qmin) return false;
    if (const auto start = cat.CeilIndex(qp)) {
      for (size_t i = *start; i < cat.size(); ++i) {
        if (cat.bound(i).RegionBeyond(inter)) return *qmin * cat.value(i) < qp;
      }
    }
    return false;
  };
  size_t survivors = 0;
  pti.Query(
      filter, prune,
      [&](ObjectId idx) {
        const ilq::UncertainObject& obj = objects[idx];
        if (!prune(obj.region(), *obj.catalog())) ++survivors;
      },
      stats);
  // Keeps the visit from being optimized away.
  if (survivors == static_cast<size_t>(-1)) std::abort();
}

}  // namespace

void ReissueTraversal(const IndexViews& views, QueryMethod method,
                      const ilq::UncertainObject& issuer,
                      const ilq::RangeQuerySpec& spec,
                      ilq::IndexStats* stats) {
  const Rect minkowski = issuer.region().Expanded(spec.w, spec.h);
  size_t visited = 0;
  const auto count = [&](const Rect&, ObjectId) { ++visited; };
  switch (method) {
    case QueryMethod::kIpq:
      views.points->Query(minkowski, count, stats);
      break;
    case QueryMethod::kIuq:
      views.uncertains->Query(minkowski, count, stats);
      break;
    case QueryMethod::kCipqPExpanded:
      views.points->Query(
          ilq::PExpandedQueryFromCatalog(*issuer.catalog(), spec.w, spec.h,
                                         spec.threshold),
          count, stats);
      break;
    case QueryMethod::kCiuqPti:
      ReissueCiuqPti(*views.pti, *views.objects, issuer, spec, stats);
      break;
    default:
      ILQ_CHECK(false, "no re-issued traversal for this method");
  }
  if (visited == static_cast<size_t>(-1)) std::abort();
}

void CheckAnswer(Checker* checker, uint64_t request, const ClassLatency& cls,
                 bool gaussian_issuer, const ilq::UncertainObject& issuer,
                 const ilq::RangeQuerySpec& spec, const ilq::AnswerSet& answers,
                 const ilq::QueryEngine& engine,
                 const std::unordered_map<ObjectId, Point>& points,
                 const std::unordered_map<ObjectId, Rect>& regions,
                 uint64_t seed) {
  // Gaussian probabilities have no closed form here, so their Monte-Carlo
  // check is the tighter one (6 standard errors ≈ 0.015 at p = 0.5).
  constexpr size_t kMcSamplesGaussian = 40000;
  constexpr size_t kMcSamplesUniform = 10000;
  constexpr size_t kMcSpots = 2;
  const Rect u0 = issuer.region();
  checker->Probabilities(request, cls.name, answers, /*positive=*/true);
  const auto mc_seed = [&](size_t k) {
    return ilq::MixSeeds(seed, request * 8 + k);
  };
  switch (cls.method) {
    case QueryMethod::kIpq:
      checker->PointQuery(request, cls.name, u0, spec.w, spec.h, points,
                          answers, !gaussian_issuer);
      if (gaussian_issuer) {
        for (size_t k = 0; k < std::min(kMcSpots, answers.size()); ++k) {
          const auto& a = answers[k * answers.size() / kMcSpots];
          checker->WithinMc(request, cls.name, a.id, a.probability,
                            McIpqGaussian(u0, points.at(a.id), spec.w, spec.h,
                                          kMcSamplesGaussian, mc_seed(k)));
        }
      }
      break;
    case QueryMethod::kIuq:
      checker->UncertainQuery(request, cls.name, u0, spec.w, spec.h, 0.0,
                              regions, answers);
      for (size_t k = 0; k < std::min(kMcSpots, answers.size()); ++k) {
        const auto& a = answers[k * answers.size() / kMcSpots];
        checker->WithinMc(request, cls.name, a.id, a.probability,
                          McIuqUniform(u0, regions.at(a.id), spec.w, spec.h,
                                       kMcSamplesUniform, mc_seed(k)));
      }
      break;
    case QueryMethod::kCipqPExpanded: {
      const ilq::RangeQuerySpec open(spec.w, spec.h, 0.0);
      const ilq::AnswerSet all = ilq::RunQueryMethod(
          engine, QueryMethod::kIpq, issuer, ilq::BatchSpec(open));
      checker->PointQuery(request, "ipq(for " + std::string(cls.name) + ")",
                          u0, spec.w, spec.h, points, all, !gaussian_issuer);
      checker->Constrained(request, cls.name, answers, all, spec.threshold);
      break;
    }
    case QueryMethod::kCiuqPti: {
      const ilq::RangeQuerySpec open(spec.w, spec.h, 0.0);
      const ilq::AnswerSet all = ilq::RunQueryMethod(
          engine, QueryMethod::kIuq, issuer, ilq::BatchSpec(open));
      checker->Constrained(request, cls.name, answers, all, spec.threshold);
      checker->UncertainQuery(request, cls.name, u0, spec.w, spec.h,
                              spec.threshold, regions, answers);
      break;
    }
    default:
      ILQ_CHECK(false, "no oracle for this method");
  }
}

double WindowedPercentile(const std::vector<const ClassLatency*>& classes,
                          double q) {
  // A window's percentile counts only with at least ten samples beyond it.
  const size_t min_samples =
      static_cast<size_t>(std::ceil(10.0 / std::max(1.0 - q, 0.01)));
  int64_t t0 = std::numeric_limits<int64_t>::max();
  std::vector<double> all;
  for (const ClassLatency* c : classes) {
    for (const int64_t t : c->done_ns) t0 = std::min(t0, t);
    all.insert(all.end(), c->us.begin(), c->us.end());
  }
  std::map<int64_t, std::vector<double>> windows;
  for (const ClassLatency* c : classes) {
    for (size_t i = 0; i < c->us.size(); ++i) {
      windows[(c->done_ns[i] - t0) / 1'000'000'000].push_back(c->us[i]);
    }
  }
  std::vector<double> per_window;
  for (auto& [w, us] : windows) {
    if (us.size() >= min_samples) per_window.push_back(Percentile(us, q));
  }
  return per_window.empty() ? Percentile(all, q) : Median(per_window);
}

double ClassP50(const std::vector<ClassLatency>& classes, const char* name) {
  for (const ClassLatency& c : classes) {
    if (std::string_view(c.name) == name) return WindowedPercentile({&c}, 0.5);
  }
  return 0.0;
}

double WindowedRate(const std::vector<const ClassLatency*>& classes) {
  int64_t t0 = std::numeric_limits<int64_t>::max();
  int64_t t1 = std::numeric_limits<int64_t>::min();
  size_t ops = 0;
  for (const ClassLatency* c : classes) {
    for (const int64_t t : c->done_ns) {
      t0 = std::min(t0, t);
      t1 = std::max(t1, t);
    }
    ops += c->done_ns.size();
  }
  if (ops < 2) return 0.0;
  const int64_t whole = (t1 - t0) / 1'000'000'000;
  if (whole == 0) return static_cast<double>(ops - 1) / ((t1 - t0) / 1e9);
  std::vector<double> counts(static_cast<size_t>(whole), 0.0);
  for (const ClassLatency* c : classes) {
    for (const int64_t t : c->done_ns) {
      const int64_t w = (t - t0) / 1'000'000'000;
      if (w < whole) counts[static_cast<size_t>(w)] += 1.0;
    }
  }
  return Median(counts);
}

void AddTailLatency(RunResult* result,
                    const std::vector<ClassLatency>& classes) {
  std::vector<const ClassLatency*> all;
  for (const ClassLatency& c : classes) all.push_back(&c);
  result->Layer("bench.latency_p99_us", WindowedPercentile(all, 0.99), "us");
}

void AddEndToEnd(RunResult* result, double setup_s,
                 const std::vector<ClassLatency>& classes) {
  std::vector<const ClassLatency*> all;
  for (const ClassLatency& c : classes) all.push_back(&c);
  result->E2e("setup_s", setup_s, "s");
  result->E2e("ops_per_s", WindowedRate(all), "1/s");
  result->E2e("latency_p50_us", WindowedPercentile(all, 0.50), "us");
  result->E2e("ipq_p50_us", ClassP50(classes, "ipq"), "us");
  result->E2e("ciuq_pti_p50_us", ClassP50(classes, "ciuq_pti"), "us");
  result->E2e("peak_rss_mib", PeakRssMib(), "MiB");
}

}  // namespace ilqbench
