// Self-tests of the benchmark's own helpers: percentiles, span self time,
// and the oracles (closed forms against hand-computed values and against
// each other, and the checker catching planted mismatches). Run with
// `ilqbench --self-test`; exit 0 when every check holds.

#include <cmath>
#include <cstdio>
#include <string>

#include "oracle.h"
#include "support.h"

namespace ilqbench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, double tol, const std::string& what) {
  Expect(std::abs(got - want) <= tol,
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

void TestPercentiles() {
  ExpectNear(Percentile({}, 0.5), 0.0, 0.0, "empty percentile");
  ExpectNear(Percentile({7.0}, 0.99), 7.0, 0.0, "single-sample percentile");
  ExpectNear(Median({3.0, 1.0, 2.0}), 2.0, 0.0, "odd median");
  ExpectNear(Median({4.0, 1.0, 3.0, 2.0}), 2.5, 1e-12, "even median");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  ExpectNear(Percentile(v, 0.99), 99.01, 1e-9, "p99 of 1..100");
  ExpectNear(Percentile(v, 0.0), 1.0, 0.0, "p0");
  ExpectNear(Percentile(v, 1.0), 100.0, 0.0, "p100");
  ExpectNear(Mean({1.0, 2.0, 6.0}), 3.0, 1e-12, "mean");
}

void TestSpans() {
  Tracer t;
  const int32_t root = t.Add("root", 1, -1, 0, 10'000);
  t.Add("child", 1, root, 0, 3'000);
  t.Add("child", 1, root, 5'000, 6'000);
  const int32_t big = t.Add("root", 2, -1, 0, 1'000, 7);
  t.Add("child", 2, big, 0, 5'000);  // longer than its parent: floored
  ExpectNear(t.MeanUs("root"), 5.5, 1e-12, "mean span duration");
  ExpectNear(t.MeanSelfUs("root"), 3.0, 1e-12, "mean self time");
  ExpectNear(t.MeanSelfUs("root", 7), 0.0, 1e-12, "self time filtered by arg");
}

void TestClosedForms() {
  const Rect u0(0, 100, 0, 100);
  ExpectNear(IpqUniform(u0, Point(50, 50), 500, 500), 1.0, 0.0,
             "IPQ: range covers the issuer");
  ExpectNear(IpqUniform(u0, Point(0, 0), 50, 50), 0.25, 1e-15,
             "IPQ: range covers a quarter");
  ExpectNear(IpqUniform(u0, Point(700, 0), 50, 50), 0.0, 0.0,
             "IPQ: range misses the issuer");
  // Two unit intervals, w = 1: P(|a - b| <= 1) = 1; w = 0.5: 1 - 0.25 = 0.75.
  const Rect unit(0, 1, 0, 1);
  ExpectNear(IuqUniform(unit, unit, 1.0, 1.0), 1.0, 1e-15, "IUQ: w = side");
  ExpectNear(IuqUniform(unit, unit, 0.5, 0.5), 0.75 * 0.75, 1e-15,
             "IUQ: w = half side");
  ExpectNear(IuqUniform(unit, Rect(5, 6, 0, 1), 1.0, 1.0), 0.0, 0.0,
             "IUQ: out of range");
  // Closed form against the Monte-Carlo estimator on a lopsided pair.
  const Rect a(100, 400, 200, 260);
  const Rect b(380, 420, 150, 700);
  const double exact = IuqUniform(a, b, 120, 200);
  const McEstimate mc = McIuqUniform(a, b, 120, 200, 200000, 99);
  Expect(std::abs(mc.p - exact) <= kMcSigmas * McStandardError(exact, mc.n),
         "IUQ closed form vs Monte-Carlo: " + std::to_string(exact) + " vs " +
             std::to_string(mc.p));
  // A Gaussian issuer wholly inside the range qualifies with certainty.
  const McEstimate g = McIpqGaussian(u0, Point(50, 50), 500, 500, 5000, 3);
  ExpectNear(g.p, 1.0, 0.0, "Gaussian MC: full containment");
  // Symmetry: a range edge through the centre takes half the mass.
  const McEstimate half =
      McIpqGaussian(u0, Point(550, 50), 500, 5000, 200000, 4);
  Expect(std::abs(half.p - 0.5) <= kMcSigmas * McStandardError(0.5, half.n),
         "Gaussian MC: half plane " + std::to_string(half.p));
  Expect(OverlapsBy(Rect(0, 10, 0, 10), Rect(9, 20, 0, 10), 0.5),
         "overlap by one unit");
  Expect(!OverlapsBy(Rect(0, 10, 0, 10), Rect(9.8, 20, 0, 10), 0.5),
         "overlap below the margin");
}

void TestCheckerCatchesMismatches() {
  {
    Checker c("selftest");
    c.WithinMc(0, "iuq", 1, 0.30, {0.31, 10000});   // 2.2 standard errors
    c.WithinMc(1, "iuq", 1, 0.001, {0.0002, 10000});  // small p, skewed count
    Expect(c.mismatches() == 0, "Monte-Carlo check accepts sampling noise");
    c.WithinMc(2, "iuq", 1, 0.30, {0.36, 10000});    // 13 standard errors
    Expect(c.mismatches() == 1, "Monte-Carlo check catches a wrong p");
  }
  const Rect u0(1000, 1500, 1000, 1500);
  const double w = 500;
  std::unordered_map<ObjectId, Point> points = {
      {1, Point(1200, 1200)}, {2, Point(600, 600)}, {3, Point(5000, 5000)}};
  const AnswerSet right = {{1, IpqUniform(u0, points[1], w, w)},
                           {2, IpqUniform(u0, points[2], w, w)}};
  {
    Checker c("selftest");
    c.PointQuery(0, "ipq", u0, w, w, points, right, true);
    Expect(c.mismatches() == 0, "checker accepts the right IPQ answer");
  }
  {
    Checker c("selftest");
    c.PointQuery(0, "ipq", u0, w, w, points, {right[0]}, true);
    Expect(c.mismatches() == 1, "checker catches a missing answer");
  }
  {
    Checker c("selftest");
    AnswerSet wrong = right;
    wrong[0].probability *= 0.99;
    c.PointQuery(0, "ipq", u0, w, w, points, wrong, true);
    Expect(c.mismatches() == 1, "checker catches a wrong probability");
  }
  {
    Checker c("selftest");
    AnswerSet outside = right;
    outside.push_back({3, 0.5});
    c.PointQuery(0, "ipq", u0, w, w, points, outside, true);
    Expect(c.mismatches() == 1, "checker catches an answer outside the box");
  }
  {
    Checker c("selftest");
    c.Probabilities(0, "ipq", {{1, 1.5}}, true);
    c.Probabilities(1, "ipq", {{1, 0.0}}, true);
    Expect(c.mismatches() == 2, "checker catches probabilities off [0,1]");
  }
  {
    Checker c("selftest");
    const AnswerSet all = {{1, 0.2}, {2, 0.6}, {3, 0.9}};
    c.Constrained(0, "cipq", {{2, 0.6}, {3, 0.9}}, all, 0.5);
    Expect(c.mismatches() == 0, "checker accepts the filtered answer");
    c.Constrained(1, "cipq", {{3, 0.9}}, all, 0.5);
    c.Constrained(2, "cipq", {{1, 0.2}, {2, 0.6}, {3, 0.9}}, all, 0.5);
    Expect(c.mismatches() == 2, "checker catches constrained mismatches");
  }
  {
    Checker c("selftest");
    std::unordered_map<ObjectId, Rect> regions = {
        {1, Rect(1100, 1200, 1100, 1200)}, {2, Rect(8000, 8100, 0, 100)}};
    const AnswerSet iuq = {{1, IuqUniform(u0, regions[1], w, w)}};
    c.UncertainQuery(0, "iuq", u0, w, w, 0.0, regions, iuq);
    Expect(c.mismatches() == 0, "checker accepts the right IUQ answer");
    c.UncertainQuery(1, "iuq", u0, w, w, 0.0, regions, {});
    Expect(c.mismatches() == 1, "checker catches a missing IUQ answer");
    Expect(c.failures().size() == 1 &&
               c.failures()[0].find("request=1") != std::string::npos,
           "a mismatch names its request");
  }
}

}  // namespace

int RunSelfTests() {
  TestPercentiles();
  TestSpans();
  TestClosedForms();
  TestCheckerCatchesMismatches();
  std::printf("self-test: %s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace ilqbench
