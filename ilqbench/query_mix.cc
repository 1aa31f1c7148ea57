// query_mix: the paper's own workload. The in-process QueryEngine over the
// full-scale RAM catalog, one client thread in a closed loop, round-robin
// over five query classes on the analytic kernel. index/core/prob/simd do
// nearly all the work; serve, wire, net, storage, continuous and object do
// none, so a kernel or pruning change shows here and nowhere else.

#include <memory>

#include "common/logging.h"
#include "common/rng.h"
#include "datagen/workload.h"
#include "prob/pdf_variant.h"
#include "workloads.h"

namespace ilqbench {

using ilq::QueryMethod;

ClosedLoopResult RunClosedLoop(const ilq::QueryEngine& engine,
                               const std::vector<QueryClass>& classes,
                               double seconds, size_t keep_every,
                               size_t max_keep, Tracer* tracer,
                               const IndexViews& views,
                               uint64_t first_request) {
  ClosedLoopResult out;
  for (const QueryClass& c : classes) {
    out.latency.push_back({c.name, c.method, {}, {}});
  }
  std::vector<size_t> pattern;  // one round: class i appears weight times
  for (size_t i = 0; i < classes.size(); ++i) {
    pattern.insert(pattern.end(), classes[i].weight, i);
  }
  std::vector<size_t> kept_per_class(classes.size(), 0);
  std::vector<size_t> issued(classes.size(), 0);
  std::vector<Rect> rects;
  std::vector<double> masses;

  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  uint64_t op = 0;
  for (;; ++op) {
    const int64_t t0 = NowNs();
    if (t0 >= deadline) break;
    const size_t ci = pattern[op % pattern.size()];
    const size_t round = issued[ci]++;
    const QueryClass& c = classes[ci];
    const size_t pick = round % c.pool.size();
    const ilq::UncertainObject& issuer = c.pool[pick];
    const ilq::BatchSpec spec(c.spec);
    const uint64_t request = first_request + op;

    ilq::IndexStats stats;
    ilq::AnswerSet answers =
        ilq::RunQueryMethod(engine, c.method, issuer, spec, &stats);
    const int64_t t1 = NowNs();
    out.latency[ci].Add(NsToUs(t1 - t0), t1);
    out.index += stats;
    out.answers += answers.size();

    if (tracer != nullptr) {
      const int32_t root = tracer->Add("query", request, -1, t0, t1,
                                       static_cast<int64_t>(ci));
      const int32_t eval = tracer->Add("core.evaluate", request, root, t0, t1,
                                       static_cast<int64_t>(stats.candidates));
      const int64_t r0 = NowNs();
      ReissueTraversal(views, c.method, issuer, c.spec, nullptr);
      tracer->Add("index.traverse", request, eval, r0, NowNs());
      if (c.gaussian_issuer) {
        rects.clear();
        views.points->Query(
            issuer.region().Expanded(c.spec.w, c.spec.h),
            [&](const Rect& box, ObjectId) {
              rects.push_back(Rect::Centered(Point(box.xmin, box.ymin),
                                             c.spec.w, c.spec.h));
            });
        masses.resize(rects.size());
        const int64_t g0 = NowNs();
        ilq::MassInBatch(issuer.pdf_variant(), rects, masses);
        const int64_t g1 = NowNs();
        tracer->Add("prob.gauss_mass", request, root, g0, g1,
                    static_cast<int64_t>(rects.size()));
        out.gauss_rects += rects.size();
        out.gauss_ns += g1 - g0;
      }
    }
    if (round % keep_every == 0 && kept_per_class[ci] < max_keep) {
      ++kept_per_class[ci];
      out.kept.push_back({request, ci, pick, std::move(answers)});
    }
  }
  out.ops = op;
  out.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return out;
}

void AddClosedLoopLayers(RunResult* result, const ClosedLoopResult& untraced,
                         const ClosedLoopResult& traced,
                         const Tracer& tracer) {
  const double n = static_cast<double>(std::max<uint64_t>(traced.ops, 1));
  result->Layer("index.traverse_us", tracer.MeanUs("index.traverse"), "us");
  result->Layer("index.node_accesses_per_query",
                static_cast<double>(traced.index.node_accesses) / n, "count");
  result->Layer("index.candidates_per_query",
                static_cast<double>(traced.index.candidates) / n, "count");
  result->Layer("core.qualify_us", tracer.MeanSelfUs("core.evaluate"), "us");
  result->Layer("core.answers_per_candidate",
                traced.index.candidates == 0
                    ? 0.0
                    : static_cast<double>(traced.answers) /
                          static_cast<double>(traced.index.candidates),
                "ratio");
  result->Layer("prob.gauss_mass_ns_per_rect",
                traced.gauss_rects == 0
                    ? 0.0
                    : static_cast<double>(traced.gauss_ns) /
                          static_cast<double>(traced.gauss_rects),
                "ns");
  const double untraced_rate =
      static_cast<double>(untraced.ops) / untraced.seconds;
  const double traced_rate = static_cast<double>(traced.ops) / traced.seconds;
  AddTailLatency(result, untraced.latency);
  result->Layer("bench.trace_overhead_pct",
                100.0 * (untraced_rate / traced_rate - 1.0), "%");
  result->Layer("bench.traced_ops", static_cast<double>(traced.ops), "count");
}

namespace {

struct MixSetup {
  std::unique_ptr<ilq::QueryEngine> engine;
  std::unordered_map<ObjectId, Point> points;
  std::unordered_map<ObjectId, Rect> regions;
};

std::vector<ilq::UncertainObject> IssuerPool(uint64_t seed, size_t n,
                                             double qp, bool gaussian) {
  ilq::WorkloadConfig config;
  config.u = kIssuerHalfSide;
  config.w = kRangeHalfSide;
  config.qp = qp;
  config.queries = n;
  config.issuer_pdf =
      gaussian ? ilq::IssuerPdfKind::kGaussian : ilq::IssuerPdfKind::kUniform;
  config.seed = seed;
  ilq::Result<ilq::Workload> workload = ilq::GenerateWorkload(config);
  ILQ_CHECK(workload.ok(), workload.status().ToString());
  return std::move(workload->issuers);
}

}  // namespace

RunResult RunQueryMix(const Args& args, Tracer* tracer) {
  constexpr size_t kPool = 1000;
  const ilq::RangeQuerySpec open(kRangeHalfSide, kRangeHalfSide, 0.0);
  const ilq::RangeQuerySpec constrained(kRangeHalfSide, kRangeHalfSide,
                                        kThreshold);
  const auto pool = [&](uint64_t salt, double qp, bool gaussian) {
    return IssuerPool(ilq::MixSeeds(args.seed, salt), kPool, qp, gaussian);
  };
  std::vector<QueryClass> classes;
  classes.push_back({"ipq", QueryMethod::kIpq, open, false, pool(11, 0, false)});
  classes.push_back({"iuq", QueryMethod::kIuq, open, false, pool(12, 0, false)});
  classes.push_back({"cipq", QueryMethod::kCipqPExpanded, constrained, false,
                     pool(13, kThreshold, false)});
  classes.push_back({"ciuq_pti", QueryMethod::kCiuqPti, constrained, false,
                     pool(14, kThreshold, false)});
  classes.push_back(
      {"gauss_ipq", QueryMethod::kIpq, open, true, pool(15, 0, true)});

  // One CPU for the whole run: unpinned, the same seed's throughput moved
  // 0.10 between consecutive runs as the scheduler placed the client; pinned,
  // within 0.04.
  PinToCpu(0);
  MixSetup setup;
  const double setup_s = TimedSetup(
      kSetupRepeats, kSetupMinSeconds,
      [&] {
        ilq::CatalogImage image = PaperImage(1.0, args.seed);
        MixSetup s;
        s.points = PointMap(image.points);
        s.regions = RegionMap(image.uncertains);
        ilq::Result<ilq::QueryEngine> engine = ilq::QueryEngine::Build(
            std::move(image.points), std::move(image.uncertains));
        ILQ_CHECK(engine.ok(), engine.status().ToString());
        s.engine =
            std::make_unique<ilq::QueryEngine>(std::move(engine).ValueOrDie());
        return s;
      },
      &setup);
  const ilq::QueryEngine& engine = *setup.engine;
  const IndexViews views{&engine.point_index(), &engine.uncertain_index(),
                         engine.pti(), &engine.uncertains()};

  // Warm-up: one pass of each class's first issuers fills caches and
  // finishes lazy set-up before anything is timed.
  RunClosedLoop(engine, classes, 0.3, 1u << 30, 0, nullptr, views, 0);

  RunResult result;
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  ClosedLoopResult run = RunClosedLoop(engine, classes, untraced_s, 8, 120,
                                       nullptr, views, 0);
  result.attempted = run.ops;
  if (!args.trace) {
    AddEndToEnd(&result, setup_s, run.latency);
  } else {
    ClosedLoopResult traced = RunClosedLoop(
        engine, classes, args.seconds / 2, 8, 0, tracer, views, run.ops);
    result.attempted += traced.ops;
    AddClosedLoopLayers(&result, run, traced, *tracer);
    result.Layer("query.iuq_p50_us", ClassP50(run.latency, "iuq"), "us");
    result.Layer("query.cipq_p50_us", ClassP50(run.latency, "cipq"), "us");
    result.Layer("query.gauss_ipq_p50_us", ClassP50(run.latency, "gauss_ipq"),
                 "us");
  }

  Checker checker("query_mix");
  for (const KeptAnswer& k : run.kept) {
    const QueryClass& c = classes[k.cls];
    CheckAnswer(&checker, k.request, run.latency[k.cls], c.gaussian_issuer,
                c.pool[k.issuer], c.spec, k.answers, engine, setup.points,
                setup.regions, args.seed);
  }
  result.oracle_failures = checker.failures();
  result.oracle_mismatches = checker.mismatches();
  result.rounded_above_one = checker.rounded_above_one();
  result.oracle_checks = checker.checks();
  return result;
}

}  // namespace ilqbench
