#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

namespace ilqbench {

namespace {

// Points closer than this to the Minkowski box edge carry probabilities so
// small that rounding may legitimately zero them; they are not required.
constexpr double kEdgeTolerance = 0.5;
// Closed forms vs the library's kernels (quadrature is exact on the
// piecewise-linear integrands of uniform pdfs up to rounding).
constexpr double kProbabilityTolerance = 1e-7;
// Objects this close to the threshold are not judged for membership.
constexpr double kThresholdTolerance = 1e-9;
// Largest probability above 1 treated as rounding (4 ulp at 1.0).
constexpr double kRoundingCeiling = 1.0 + 4 * 2.220446049250313e-16;

double Overlap1D(double a0, double a1, double b0, double b1) {
  return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
}

// ∫_{a0}^{a1} |[a - w, a + w] ∩ [b0, b1]| da / ((a1 - a0)(b1 - b0)): the
// integrand is piecewise linear with kinks only at b0 ± w and b1 ± w, so
// trapezoids between consecutive kinks are exact.
double UniformWithin1D(double a0, double a1, double b0, double b1, double w) {
  const double la = a1 - a0;
  const double lb = b1 - b0;
  if (la <= 0.0 || lb <= 0.0) return 0.0;
  std::vector<double> cuts = {a0, a1};
  for (const double k : {b0 - w, b0 + w, b1 - w, b1 + w}) {
    if (k > a0 && k < a1) cuts.push_back(k);
  }
  std::sort(cuts.begin(), cuts.end());
  const auto g = [&](double a) { return Overlap1D(a - w, a + w, b0, b1); };
  double integral = 0.0;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    integral += 0.5 * (g(cuts[i]) + g(cuts[i + 1])) * (cuts[i + 1] - cuts[i]);
  }
  return integral / (la * lb);
}

McEstimate Finish(size_t hits, size_t n) {
  return {static_cast<double>(hits) / static_cast<double>(n), n};
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double McStandardError(double p, size_t n) {
  const double nd = static_cast<double>(n);
  return std::sqrt(std::max(p * (1.0 - p), 25.0 / nd) / nd);
}

double IpqUniform(const Rect& u0, const Point& o, double w, double h) {
  const double area = (u0.xmax - u0.xmin) * (u0.ymax - u0.ymin);
  if (area <= 0.0) return 0.0;
  return Overlap1D(u0.xmin, u0.xmax, o.x - w, o.x + w) *
         Overlap1D(u0.ymin, u0.ymax, o.y - h, o.y + h) / area;
}

double IuqUniform(const Rect& u0, const Rect& ui, double w, double h) {
  return UniformWithin1D(u0.xmin, u0.xmax, ui.xmin, ui.xmax, w) *
         UniformWithin1D(u0.ymin, u0.ymax, ui.ymin, ui.ymax, h);
}

bool OverlapsBy(const Rect& a, const Rect& b, double margin) {
  return Overlap1D(a.xmin, a.xmax, b.xmin, b.xmax) > margin &&
         Overlap1D(a.ymin, a.ymax, b.ymin, b.ymax) > margin;
}

McEstimate McIuqUniform(const Rect& u0, const Rect& ui, double w, double h,
                        size_t n, uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> x0(u0.xmin, u0.xmax);
  std::uniform_real_distribution<double> y0(u0.ymin, u0.ymax);
  std::uniform_real_distribution<double> xi(ui.xmin, ui.xmax);
  std::uniform_real_distribution<double> yi(ui.ymin, ui.ymax);
  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x0(gen) - xi(gen);
    const double dy = y0(gen) - yi(gen);
    if (std::abs(dx) <= w && std::abs(dy) <= h) ++hits;
  }
  return Finish(hits, n);
}

McEstimate McIpqGaussian(const Rect& u0, const Point& o, double w, double h,
                         size_t n, uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::normal_distribution<double> nx(0.5 * (u0.xmin + u0.xmax),
                                      (u0.xmax - u0.xmin) / 6.0);
  std::normal_distribution<double> ny(0.5 * (u0.ymin + u0.ymax),
                                      (u0.ymax - u0.ymin) / 6.0);
  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    double x = nx(gen);
    while (x < u0.xmin || x > u0.xmax) x = nx(gen);
    double y = ny(gen);
    while (y < u0.ymin || y > u0.ymax) y = ny(gen);
    if (std::abs(x - o.x) <= w && std::abs(y - o.y) <= h) ++hits;
  }
  return Finish(hits, n);
}

void Checker::Fail(uint64_t request, const std::string& cls,
                   const std::string& what) {
  // Cap the list: one broken kernel would otherwise print every answer.
  if (failures_.size() < 50) {
    failures_.push_back("workload=" + workload_ +
                        " request=" + std::to_string(request) +
                        " class=" + cls + ": " + what);
  }
  ++failed_total_;
}

void Checker::Probabilities(uint64_t request, const std::string& cls,
                            const AnswerSet& answers, bool positive) {
  Count();
  for (const auto& a : answers) {
    // A known fault (CHANGES.md): the IUQ kernels round a certain
    // qualification up to 1 + 1 ulp. Counted and reported apart, so that it
    // stays visible without failing every run; anything larger fails.
    if (a.probability > 1.0 && a.probability <= kRoundingCeiling) {
      ++rounded_above_one_;
      continue;
    }
    if (!(a.probability >= 0.0 && a.probability <= 1.0) ||
        (positive && !(a.probability > 0.0))) {
      Fail(request, cls,
           "object " + std::to_string(a.id) + " has probability " +
               Fmt(a.probability));
      return;
    }
  }
}

void Checker::PointQuery(uint64_t request, const std::string& cls,
                         const Rect& u0, double w, double h,
                         const std::unordered_map<ObjectId, Point>& points,
                         const AnswerSet& answers, bool uniform_issuer) {
  Count();
  const Rect box(u0.xmin - w, u0.xmax + w, u0.ymin - h, u0.ymax + h);
  std::unordered_map<ObjectId, double> answered;
  for (const auto& a : answers) {
    answered.emplace(a.id, a.probability);
    const auto it = points.find(a.id);
    if (it == points.end()) {
      Fail(request, cls, "answer " + std::to_string(a.id) + " is no object");
      return;
    }
    const Point& p = it->second;
    if (p.x < box.xmin || p.x > box.xmax || p.y < box.ymin ||
        p.y > box.ymax) {
      Fail(request, cls,
           "answer " + std::to_string(a.id) + " lies outside the Minkowski box");
      return;
    }
    if (uniform_issuer) {
      const double want = IpqUniform(u0, p, w, h);
      if (std::abs(a.probability - want) > kProbabilityTolerance) {
        Fail(request, cls,
             "object " + std::to_string(a.id) + " p=" + Fmt(a.probability) +
                 " but Eq. 6 area ratio gives " + Fmt(want));
        return;
      }
    }
  }
  for (const auto& [id, p] : points) {
    const bool deep = p.x > box.xmin + kEdgeTolerance &&
                      p.x < box.xmax - kEdgeTolerance &&
                      p.y > box.ymin + kEdgeTolerance &&
                      p.y < box.ymax - kEdgeTolerance;
    if (deep && answered.find(id) == answered.end()) {
      Fail(request, cls,
           "object " + std::to_string(id) +
               " lies inside the Minkowski box but was not answered");
      return;
    }
  }
}

void Checker::UncertainQuery(uint64_t request, const std::string& cls,
                             const Rect& u0, double w, double h, double qp,
                             const std::unordered_map<ObjectId, Rect>& objects,
                             const AnswerSet& answers) {
  Count();
  const Rect box(u0.xmin - w, u0.xmax + w, u0.ymin - h, u0.ymax + h);
  std::unordered_map<ObjectId, double> answered;
  for (const auto& a : answers) {
    answered.emplace(a.id, a.probability);
    const auto it = objects.find(a.id);
    if (it == objects.end()) {
      Fail(request, cls, "answer " + std::to_string(a.id) + " is no object");
      return;
    }
    if (!it->second.Intersects(box)) {
      Fail(request, cls,
           "answer " + std::to_string(a.id) +
               " does not meet the Minkowski box");
      return;
    }
    const double want = IuqUniform(u0, it->second, w, h);
    if (std::abs(a.probability - want) > kProbabilityTolerance) {
      Fail(request, cls,
           "object " + std::to_string(a.id) + " p=" + Fmt(a.probability) +
               " but the closed form gives " + Fmt(want));
      return;
    }
    if (qp > 0.0 && want < qp - kThresholdTolerance) {
      Fail(request, cls,
           "object " + std::to_string(a.id) + " answered below Qp: " +
               Fmt(want));
      return;
    }
  }
  for (const auto& [id, region] : objects) {
    if (!OverlapsBy(region, box, kEdgeTolerance)) continue;
    if (qp > 0.0 && IuqUniform(u0, region, w, h) < qp + kThresholdTolerance) {
      continue;
    }
    if (answered.find(id) == answered.end()) {
      Fail(request, cls,
           "object " + std::to_string(id) + " qualifies but was not answered");
      return;
    }
  }
}

void Checker::Constrained(uint64_t request, const std::string& cls,
                          const AnswerSet& constrained,
                          const AnswerSet& unconstrained, double qp) {
  Count();
  std::unordered_map<ObjectId, double> got;
  for (const auto& a : constrained) got.emplace(a.id, a.probability);
  size_t matched = 0;
  for (const auto& a : unconstrained) {
    if (a.probability < qp - kThresholdTolerance) continue;
    const auto it = got.find(a.id);
    if (it == got.end()) {
      if (a.probability >= qp + kThresholdTolerance) {
        Fail(request, cls,
             "object " + std::to_string(a.id) + " has p=" +
                 Fmt(a.probability) + " >= Qp but is not answered");
        return;
      }
      continue;
    }
    if (it->second != a.probability) {
      Fail(request, cls,
           "object " + std::to_string(a.id) + " p=" + Fmt(it->second) +
               " differs from the unconstrained " + Fmt(a.probability));
      return;
    }
    ++matched;
  }
  if (matched != constrained.size()) {
    Fail(request, cls,
         "constrained answer holds objects the unconstrained query rejects");
  }
}

void Checker::Identical(uint64_t request, const std::string& cls,
                        const std::string& what, const AnswerSet& got,
                        const AnswerSet& want) {
  Count();
  if (got == want) return;
  Fail(request, cls,
       what + " differ (" + std::to_string(got.size()) + " vs " +
           std::to_string(want.size()) + " answers)");
}

void Checker::WithinMc(uint64_t request, const std::string& cls, ObjectId id,
                       double p, const McEstimate& mc) {
  Count();
  const double se = McStandardError(p, mc.n);
  if (std::abs(p - mc.p) <= kMcSigmas * se) return;
  Fail(request, cls,
       "object " + std::to_string(id) + " p=" + Fmt(p) +
           " but Monte-Carlo gives " + Fmt(mc.p) + " (standard error " +
           Fmt(se) + ")");
}

}  // namespace ilqbench
