// moving_churn: the write-beside-read workload. SubscriptionManager over
// AsyncServer + a 4-shard ShardedEngine (0.25-scale catalog). 1,536
// random-walk sessions, one in three C-IUQ(PTI) and the rest IPQ, stream
// UpdatePosition from one client thread; every kUpdatesPerBatch position
// updates a seeded Zipf-hotspot churn batch goes to ApplyUpdates. After
// kChurnDepth batches their inverses undo them, so the catalog returns to
// the base every 2 × kChurnDepth batches. Loads continuous, object,
// incremental index maintenance and cache invalidation. The churn ratio
// keeps valid-region reuse away from both 0 and 1, so a change that speeds
// reuse but slows updates (or the reverse) shows in ops_per_s.
//
// The client, the AsyncServer workers and every other thread the engine
// starts share one CPU, as in wire_zipf: re-evaluations hand off between
// threads, and across CPUs each hand-off waits on a wake-up of another
// vCPU, whose cost swings with how busy the shared host is.

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/rng.h"
#include "datagen/workload.h"
#include "serve/async_server.h"
#include "serve/sharded_engine.h"
#include "serve/subscription_manager.h"
#include "workloads.h"

namespace ilqbench {

using ilq::QueryMethod;

namespace {

constexpr double kScale = 0.25;
constexpr size_t kShards = 4;
constexpr size_t kWorkers = 1;
constexpr size_t kSessions = 1536;
constexpr size_t kSteps = 16;  // trajectory length, walked back and forth
constexpr double kStepSigma = 20.0;     // random-walk step (per axis)
constexpr size_t kUpdatesPerBatch = 9216;  // position updates per churn batch
constexpr size_t kBatchOps = 256;         // catalog updates per churn batch
constexpr size_t kCheckEvery = 64;       // oracle-check every n-th update
// Forward churn batches before their inverses walk the catalog back.
constexpr size_t kChurnDepth = 4;

struct Churn {
  std::unique_ptr<ilq::ShardedEngine> engine;
  std::unique_ptr<ilq::AsyncServer> server;
  std::unique_ptr<ilq::SubscriptionManager> subs;
  std::vector<ilq::SubscriptionId> ids;  // one per session
  // The benchmark's own id → location map of the churned catalog.
  std::unordered_map<ObjectId, Point> points;
  std::unordered_map<ObjectId, Rect> regions;

  ~Churn() {
    subs.reset();
    if (server) server->Shutdown();
  }
};

// One session in three is C-IUQ(PTI), the rest IPQ: with an even split the
// overall median would sit in the gap between the two classes' latencies
// and jump run to run. 1,536 sessions spread over the space keep the
// figures from hanging on where a few walks happen to start (with 384, the
// C-IUQ median still moved 0.09 between seeds).
bool IsCiuqSession(size_t s) { return s % 3 == 1; }

QueryMethod SessionMethod(size_t s) {
  return IsCiuqSession(s) ? QueryMethod::kCiuqPti : QueryMethod::kIpq;
}

// Step t of a trajectory walked back and forth, so it never runs out.
size_t PingPong(size_t t) {
  const size_t period = 2 * (kSteps - 1);
  const size_t r = t % period;
  return r < kSteps ? r : period - r;
}

void ApplyToMaps(const ilq::UpdateBatch& batch, Churn* c) {
  for (const ilq::UpdateOp& op : batch) {
    switch (op.kind) {
      case ilq::UpdateKind::kInsertPoint:
      case ilq::UpdateKind::kMovePoint:
        c->points[op.id] = op.location;
        break;
      case ilq::UpdateKind::kErasePoint:
        c->points.erase(op.id);
        break;
      case ilq::UpdateKind::kInsertUncertain:
      case ilq::UpdateKind::kMoveUncertain:
        c->regions[op.id] = ilq::PdfBounds(*op.pdf);
        break;
      case ilq::UpdateKind::kEraseUncertain:
        c->regions.erase(op.id);
        break;
    }
  }
}

// Applies \p batch to the live objects \p points and \p pdfs and returns
// the batch that undoes it.
ilq::UpdateBatch InverseBatch(
    const ilq::UpdateBatch& batch,
    std::unordered_map<ObjectId, Point>* points,
    std::unordered_map<ObjectId, ilq::PdfVariant>* pdfs) {
  using ilq::UpdateOp;
  // Applies \p op to the maps and returns the op that undoes it.
  const auto apply = [&](const UpdateOp& op) {
    switch (op.kind) {
      case ilq::UpdateKind::kInsertPoint:
        points->emplace(op.id, op.location);
        return UpdateOp::ErasePoint(op.id);
      case ilq::UpdateKind::kErasePoint: {
        const UpdateOp undo = UpdateOp::InsertPoint(op.id, points->at(op.id));
        points->erase(op.id);
        return undo;
      }
      case ilq::UpdateKind::kMovePoint: {
        const UpdateOp undo = UpdateOp::MovePoint(op.id, points->at(op.id));
        points->at(op.id) = op.location;
        return undo;
      }
      case ilq::UpdateKind::kInsertUncertain:
        pdfs->emplace(op.id, *op.pdf);
        return UpdateOp::EraseUncertain(op.id);
      case ilq::UpdateKind::kEraseUncertain: {
        UpdateOp undo = UpdateOp::InsertUncertain(op.id, pdfs->at(op.id));
        pdfs->erase(op.id);
        return undo;
      }
      case ilq::UpdateKind::kMoveUncertain:
        break;
    }
    UpdateOp undo = UpdateOp::MoveUncertain(op.id, pdfs->at(op.id));
    pdfs->insert_or_assign(op.id, *op.pdf);
    return undo;
  };
  ilq::UpdateBatch inverse;
  for (const UpdateOp& op : batch) inverse.push_back(apply(op));
  std::reverse(inverse.begin(), inverse.end());
  return inverse;
}

struct LoopOut {
  uint64_t updates = 0;
  double seconds = 0.0;  // wall time minus the inline oracle checks
  std::vector<ClassLatency> latency;  // ipq, ciuq_pti
  std::vector<double> replay_us, reeval_us;
  uint64_t batches = 0, batch_ops = 0;
  std::vector<double> apply_us;
  uint64_t pti_rebuilds = 0, pti_refreshes = 0;
};

// Churn cycles kChurnDepth forward batches and their inverses, so the
// catalog never strays more than kChurnDepth × kBatchOps ops from the
// base. A one-way stream drained the catalog into the hotspots: per-second
// C-IUQ medians fell from 125 to 55 us within one 20-s run, and a run's
// figure depended on how far its throughput had carried it down that
// slope.
struct Stream {
  std::vector<std::vector<ilq::UncertainObject>> steps;  // per session
  ilq::RangeQuerySpec open, constrained;
  std::vector<ilq::UpdateBatch> batches;  // one cycle, forward then back
  size_t next_batch = 0;
  uint64_t next_update = 0;  // global position-update counter

  ilq::BatchSpec Spec(size_t s) const {
    return ilq::BatchSpec(SessionMethod(s) == QueryMethod::kIpq ? open
                                                                : constrained);
  }
};

// Sums the update counters of every shard engine the last batch forked
// (ShardedEngine publishes fresh forks, whose counters start at zero).
void CountForks(const ilq::ShardedEngine& engine,
                std::vector<const ilq::QueryEngine*>* seen, LoopOut* out) {
  const ilq::ShardedEngine::PinnedSet pinned = engine.Pin();
  seen->resize(pinned.shards.size(), nullptr);
  for (size_t i = 0; i < pinned.shards.size(); ++i) {
    const ilq::QueryEngine* e = pinned.shards[i].engine.get();
    if (e == (*seen)[i]) continue;
    (*seen)[i] = e;
    const ilq::UpdateStats s = e->update_stats();
    out->pti_rebuilds += s.pti_rebuilds;
    out->pti_refreshes += s.pti_refreshes;
  }
}

LoopOut RunLoop(Churn& c, Stream& stream, double seconds, Tracer* tracer,
                Checker* checker) {
  LoopOut out;
  out.latency = {{"ipq", QueryMethod::kIpq, {}, {}},
                 {"ciuq_pti", QueryMethod::kCiuqPti, {}, {}}};
  std::vector<const ilq::QueryEngine*> seen;
  CountForks(*c.engine, &seen, &out);
  out.pti_rebuilds = out.pti_refreshes = 0;
  int64_t excluded = 0;
  const int64_t start = NowNs();
  while (NowNs() - excluded - start < static_cast<int64_t>(seconds * 1e9)) {
    const uint64_t i = stream.next_update++;
    if (i > 0 && i % kUpdatesPerBatch == 0) {
      const ilq::UpdateBatch& batch =
          stream.batches[stream.next_batch++ % stream.batches.size()];
      const int64_t a0 = NowNs();
      const ilq::Status applied = c.engine->ApplyUpdates(batch);
      const int64_t a1 = NowNs();
      ILQ_CHECK(applied.ok(), applied.ToString());
      if (tracer != nullptr) tracer->Add("object.apply", i, -1, a0, a1);
      out.apply_us.push_back(NsToUs(a1 - a0));
      ++out.batches;
      out.batch_ops += batch.size();
      const int64_t x0 = NowNs();
      ApplyToMaps(batch, &c);
      CountForks(*c.engine, &seen, &out);
      excluded += NowNs() - x0;
    }
    const size_t s = i % kSessions;
    const ilq::UncertainObject& issuer = stream.steps[s][PingPong(i / kSessions)];
    const QueryMethod method = SessionMethod(s);
    const int64_t t0 = NowNs();
    ilq::Result<ilq::ContinuousAnswer> answer =
        c.subs->UpdatePosition(c.ids[s], issuer);
    const int64_t t1 = NowNs();
    ILQ_CHECK(answer.ok(), answer.status().ToString());
    ++out.updates;
    const double us = NsToUs(t1 - t0);
    // Completion times on the measured clock, which skips the inline
    // oracle checks, so per-second windows hold only measured work.
    out.latency[IsCiuqSession(s) ? 1 : 0].Add(us, t1 - excluded);
    (answer->revalidated ? out.replay_us : out.reeval_us).push_back(us);

    if (tracer != nullptr) {
      const ilq::BatchSpec spec = stream.Spec(s);
      const int32_t root =
          tracer->Add("continuous.update", i, -1, t0, t1,
                      answer->revalidated ? 1 : 0);
      // Issuer id 0 is never cached, so Submit measures a full evaluation
      // through the server's queue and workers. The order of the two
      // evaluations alternates so neither always runs on warm caches.
      ilq::UncertainObject uncached(0, issuer.pdf_variant());
      ILQ_CHECK(uncached.BuildCatalog(issuer.catalog()->values()).ok(),
                "issuer catalog");
      const auto submit = [&] {
        const int64_t q0 = NowNs();
        const ilq::AnswerSet queued =
            c.server->Submit(uncached, spec, method).get();
        tracer->Add("serve.async", i, root, q0, NowNs());
        return queued.size();
      };
      const size_t queued = i % 2 == 0 ? submit() : 0;
      const int64_t e0 = NowNs();
      const ilq::AnswerSet one_shot = c.engine->Run(method, issuer, spec);
      const int64_t e1 = NowNs();
      tracer->Add("serve.engine", i, root, e0, e1);
      if ((i % 2 == 0 ? queued : submit()) != one_shot.size()) std::abort();
      ilq::AnswerSet merged;
      for (const size_t shard : c.engine->Route(method, issuer, spec.query)) {
        ilq::AnswerSet part =
            ilq::RunQueryMethod(c.engine->shard(shard), method, issuer, spec);
        merged.insert(merged.end(), part.begin(), part.end());
      }
      const int64_t m0 = NowNs();
      ilq::CanonicalizeAnswers(&merged);
      tracer->Add("serve.merge", i, root, m0, NowNs());
    }
    if (checker != nullptr && i % kCheckEvery == 0) {
      const int64_t x0 = NowNs();
      const ilq::BatchSpec spec = stream.Spec(s);
      const char* cls = out.latency[IsCiuqSession(s) ? 1 : 0].name;
      checker->Identical(i, cls, "continuous and one-shot answers",
                         answer->answers, c.engine->Run(method, issuer, spec));
      if (answer->epoch != c.engine->epoch()) {
        checker->Fail(i, cls, "answer epoch is not the engine's epoch");
      }
      checker->Probabilities(i, cls, answer->answers, true);
      if (method == QueryMethod::kIpq) {
        checker->PointQuery(i, cls, issuer.region(), spec.query.w,
                            spec.query.h, c.points, answer->answers, true);
      } else {
        checker->UncertainQuery(i, cls, issuer.region(), spec.query.w,
                                spec.query.h, spec.query.threshold, c.regions,
                                answer->answers);
      }
      excluded += NowNs() - x0;
    }
  }
  out.seconds = static_cast<double>(NowNs() - start - excluded) / 1e9;
  return out;
}

std::unique_ptr<Churn> MakeChurn(uint64_t seed, const Stream& stream) {
  auto c = std::make_unique<Churn>();
  ilq::CatalogImage image = PaperImage(kScale, seed);
  c->points = PointMap(image.points);
  c->regions = RegionMap(image.uncertains);
  ilq::ShardedEngineConfig config;
  config.shards = kShards;
  ilq::Result<ilq::ShardedEngine> engine = ilq::ShardedEngine::Build(
      std::move(image.points), std::move(image.uncertains), config);
  ILQ_CHECK(engine.ok(), engine.status().ToString());
  c->engine = std::make_unique<ilq::ShardedEngine>(std::move(engine).ValueOrDie());
  ilq::AsyncServerOptions options;
  options.threads = kWorkers;
  // Above kSessions, so sessions do not evict each other's answers.
  options.cache_capacity = 4096;
  c->server = std::make_unique<ilq::AsyncServer>(*c->engine, options);
  c->subs = std::make_unique<ilq::SubscriptionManager>(c->server.get());
  for (size_t s = 0; s < kSessions; ++s) {
    ilq::Result<ilq::SubscriptionManager::Registered> r = c->subs->Register(
        SessionMethod(s), stream.Spec(s), stream.steps[s][0]);
    ILQ_CHECK(r.ok(), r.status().ToString());
    c->ids.push_back(r->id);
  }
  return c;
}

}  // namespace

RunResult RunMovingChurn(const Args& args, Tracer* tracer) {
  Stream stream;
  {
    ilq::WorkloadConfig base;
    base.u = kTrajectoryHalfSide;
    base.w = kRangeHalfSide;
    base.seed = ilq::MixSeeds(args.seed, 41);
    ilq::TrajectoryConfig traj;
    traj.issuers = kSessions;
    traj.steps = kSteps;
    traj.kind = ilq::TrajectoryKind::kRandomWalk;
    traj.step = kStepSigma;
    traj.u_min = traj.u_max = kTrajectoryHalfSide;
    ilq::Result<ilq::TrajectoryWorkload> t =
        ilq::GenerateTrajectoryWorkload(base, traj);
    ILQ_CHECK(t.ok(), t.status().ToString());
    stream.steps = std::move(t->steps);
    stream.open = ilq::RangeQuerySpec(kRangeHalfSide, kRangeHalfSide, 0.0);
    stream.constrained =
        ilq::RangeQuerySpec(kRangeHalfSide, kRangeHalfSide, kThreshold);
  }
  {
    // Each churn batch addresses the catalog's ids (1..n per kind), so it
    // applies to PaperImage's catalog; the generator's own seed objects are
    // not used.
    const ilq::CatalogImage image = PaperImage(kScale, args.seed);
    std::unordered_map<ObjectId, Point> points = PointMap(image.points);
    std::unordered_map<ObjectId, ilq::PdfVariant> pdfs;
    for (const ilq::UncertainObject& o : image.uncertains) {
      pdfs.emplace(o.id(), o.pdf_variant());
    }
    ilq::WorkloadConfig base;
    base.seed = ilq::MixSeeds(args.seed, 42);
    ilq::ChurnConfig churn;
    churn.initial_points = image.points.size();
    churn.initial_uncertains = image.uncertains.size();
    churn.ops = kChurnDepth * kBatchOps;
    ilq::Result<ilq::ChurnWorkload> w = ilq::GenerateChurnWorkload(base, churn);
    ILQ_CHECK(w.ok(), w.status().ToString());
    std::vector<ilq::UpdateBatch> inverses;
    for (size_t b = 0; b < kChurnDepth; ++b) {
      ilq::UpdateBatch batch(w->stream.begin() + b * kBatchOps,
                             w->stream.begin() + (b + 1) * kBatchOps);
      inverses.push_back(InverseBatch(batch, &points, &pdfs));
      stream.batches.push_back(std::move(batch));
    }
    stream.batches.insert(stream.batches.end(),
                          std::make_move_iterator(inverses.rbegin()),
                          std::make_move_iterator(inverses.rend()));
  }

  // Before the server starts, so its workers inherit the pin.
  PinToCpu(0);
  std::unique_ptr<Churn> churn;
  const double setup_s = TimedSetup(
      kSetupRepeats, kSetupMinSeconds,
      [&] { return MakeChurn(args.seed, stream); }, &churn);

  // Warm-up: every session walks a little and one batch applies.
  RunLoop(*churn, stream, 0.3, nullptr, nullptr);

  RunResult result;
  Checker checker("moving_churn");
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const ilq::ServeStats serve0 = churn->subs->stats();
  LoopOut run = RunLoop(*churn, stream, untraced_s, nullptr, &checker);
  const ilq::ServeStats serve1 = churn->subs->stats();
  result.attempted = run.updates;
  if (!args.trace) {
    AddEndToEnd(&result, setup_s, run.latency);
  } else {
    LoopOut traced =
        RunLoop(*churn, stream, args.seconds / 2, tracer, nullptr);
    result.attempted += traced.updates;
    const double engine_us = tracer->MeanUs("serve.engine");
    result.Layer("serve.engine_us", engine_us, "us");
    result.Layer("serve.merge_us", tracer->MeanUs("serve.merge"), "us");
    result.Layer("serve.async_overhead_us",
                 tracer->MeanUs("serve.async") - engine_us, "us");
    const uint64_t hits = serve1.cache_hits - serve0.cache_hits;
    const uint64_t lookups = hits + serve1.cache_misses - serve0.cache_misses;
    result.Layer("serve.cache_hit_ratio",
                 static_cast<double>(hits) /
                     static_cast<double>(std::max<uint64_t>(lookups, 1)),
                 "ratio");
    result.Layer("serve.cache_invalidations",
                 static_cast<double>(serve1.cache_invalidations -
                                     serve0.cache_invalidations),
                 "count");
    result.Layer("continuous.reuse_ratio",
                 static_cast<double>(run.replay_us.size()) /
                     static_cast<double>(std::max<uint64_t>(run.updates, 1)),
                 "ratio");
    result.Layer("continuous.replay_us", Mean(run.replay_us), "us");
    result.Layer("continuous.reeval_us", Mean(run.reeval_us), "us");
    double apply_total_us = 0.0;
    for (const double us : run.apply_us) apply_total_us += us;
    result.Layer("object.apply_batch_us", Mean(run.apply_us), "us");
    result.Layer("object.apply_ops_per_s",
                 apply_total_us > 0.0
                     ? static_cast<double>(run.batch_ops) / apply_total_us * 1e6
                     : 0.0,
                 "1/s");
    result.Layer("object.pti_rebuilds", static_cast<double>(run.pti_rebuilds),
                 "count");
    result.Layer("object.pti_refreshes",
                 static_cast<double>(run.pti_refreshes), "count");
    const double untraced_rate =
        static_cast<double>(run.updates) / run.seconds;
    const double traced_rate =
        static_cast<double>(traced.updates) / traced.seconds;
    AddTailLatency(&result, run.latency);
    result.Layer("bench.trace_overhead_pct",
                 100.0 * (untraced_rate / traced_rate - 1.0), "%");
    result.Layer("bench.traced_ops", static_cast<double>(traced.updates),
                 "count");
  }
  result.oracle_failures = checker.failures();
  result.oracle_mismatches = checker.mismatches();
  result.oracle_checks = checker.checks();
  result.rounded_above_one = checker.rounded_above_one();
  return result;
}

}  // namespace ilqbench
