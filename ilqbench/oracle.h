// Correctness oracles computed apart from the library: closed forms and a
// seeded Monte-Carlo estimator written here from the paper's definitions,
// and brute-force scans over the benchmark's own copy of the catalog. The
// only library types used are plain values (Rect, Point, answers).

#ifndef ILQBENCH_ORACLE_H_
#define ILQBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query.h"
#include "geometry/rect.h"

namespace ilqbench {

using ilq::AnswerSet;
using ilq::ObjectId;
using ilq::Point;
using ilq::Rect;

/// IPQ probability of point \p o for a uniform issuer over \p u0 (Eq. 6):
/// the share of u0's area inside the range centred on o.
double IpqUniform(const Rect& u0, const Point& o, double w, double h);

/// IUQ probability for a uniform issuer over \p u0 and a uniform object
/// over \p ui: P(|x0 - xi| <= w) · P(|y0 - yi| <= h), each factor the exact
/// integral of a piecewise-linear overlap length.
double IuqUniform(const Rect& u0, const Rect& ui, double w, double h);

/// True when \p a and \p b overlap by more than \p margin along both axes,
/// i.e. a uniform pdf on either has positive mass over the other.
bool OverlapsBy(const Rect& a, const Rect& b, double margin);

struct McEstimate {
  double p = 0.0;  ///< share of the n samples that qualified
  size_t n = 0;
};

/// Seeded Monte-Carlo estimate of the IUQ probability of two uniform
/// regions (std::mt19937_64, independent of the library's generators).
McEstimate McIuqUniform(const Rect& u0, const Rect& ui, double w, double h,
                        size_t n, uint64_t seed);

/// Seeded Monte-Carlo estimate of the IPQ probability of point \p o for a
/// Gaussian issuer truncated to \p u0 (mean = centre, σ = extent / 6, the
/// paper's Figure 13 issuer), sampled by rejection.
McEstimate McIpqGaussian(const Rect& u0, const Point& o, double w, double h,
                         size_t n, uint64_t seed);

/// The multiple of the Monte-Carlo standard error a probability may differ
/// by before the oracle fails it. The error is that of a binomial count
/// under the probability being tested, with its variance floored at 25/n
/// so small probabilities (skewed counts) cannot fail by chance.
inline constexpr double kMcSigmas = 6.0;

/// Standard error of an n-sample estimate of probability \p p, floored.
double McStandardError(double p, size_t n);

/// Collects oracle mismatches; every line names the workload, the request
/// (operation index) and the query class.
class Checker {
 public:
  explicit Checker(std::string workload) : workload_(std::move(workload)) {}

  void Fail(uint64_t request, const std::string& cls, const std::string& what);
  /// The first mismatches (the list is capped; mismatches() counts all).
  const std::vector<std::string>& failures() const { return failures_; }
  uint64_t mismatches() const { return failed_total_; }
  uint64_t checks() const { return checks_; }
  /// Answers whose probability exceeded 1 by at most 4 ulp (not failed).
  uint64_t rounded_above_one() const { return rounded_above_one_; }
  void Count() { ++checks_; }

  /// Every probability in [0, 1] (and > 0 when \p positive); an excess
  /// over 1 of at most 4 ulp is counted in rounded_above_one() instead.
  void Probabilities(uint64_t request, const std::string& cls,
                     const AnswerSet& answers, bool positive);

  /// Brute-force scan for a point-object query (IPQ family) over
  /// \p points: every answer lies in the closed Minkowski box and exists;
  /// every point deeper than a tolerance inside it is answered. With
  /// \p uniform_issuer the probabilities must equal Eq. 6's area ratio.
  void PointQuery(uint64_t request, const std::string& cls, const Rect& u0,
                  double w, double h,
                  const std::unordered_map<ObjectId, Point>& points,
                  const AnswerSet& answers, bool uniform_issuer);

  /// Brute-force scan for an uncertain-object query (IUQ family) with a
  /// uniform issuer over uniform objects: answer set and probabilities
  /// against IuqUniform, answers filtered at \p qp (0 = unconstrained);
  /// objects within a rounding tolerance of qp are not judged.
  void UncertainQuery(uint64_t request, const std::string& cls,
                      const Rect& u0, double w, double h, double qp,
                      const std::unordered_map<ObjectId, Rect>& objects,
                      const AnswerSet& answers);

  /// Constrained answers equal the unconstrained ones filtered at p >= qp.
  void Constrained(uint64_t request, const std::string& cls,
                   const AnswerSet& constrained, const AnswerSet& unconstrained,
                   double qp);

  /// Two answer sets of the same request must be bit-identical.
  void Identical(uint64_t request, const std::string& cls,
                 const std::string& what, const AnswerSet& got,
                 const AnswerSet& want);

  /// \p p must lie within kMcSigmas standard errors of a Monte-Carlo
  /// estimate, the error taken under \p p (McStandardError).
  void WithinMc(uint64_t request, const std::string& cls, ObjectId id,
                double p, const McEstimate& mc);

 private:
  std::string workload_;
  std::vector<std::string> failures_;
  uint64_t failed_total_ = 0;
  uint64_t rounded_above_one_ = 0;
  uint64_t checks_ = 0;
};

}  // namespace ilqbench

#endif  // ILQBENCH_ORACLE_H_
