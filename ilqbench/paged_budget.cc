// paged_budget: a disk-resident engine (QueryEngine::OpenPaged) over the
// full-scale index files, each index's page buffer at 10% of the total
// index bytes. One client thread, closed loop, rounds of one C-IUQ(PTI) and
// two IPQ. The only workload larger than the program's own cache: storage
// (page file + BufferManager) does the work the RAM workloads bypass.

#include <sys/types.h>
#include <unistd.h>

#include <filesystem>
#include <memory>

#include "common/logging.h"
#include "common/rng.h"
#include "datagen/workload.h"
#include "workloads.h"

namespace ilqbench {

using ilq::QueryMethod;

namespace {

constexpr double kBufferShare = 0.10;

struct PagedSetup {
  std::unique_ptr<ilq::QueryEngine> ram;    // oracle: paged ≡ RAM
  std::unique_ptr<ilq::QueryEngine> paged;  // measured
  // Twin mounts of the same files with the same budget: the traced run
  // re-issues traversals here so the measured engine's buffer is untouched
  // while the twin's sees the same page sequence.
  std::unique_ptr<ilq::RTree> twin_points;
  std::unique_ptr<ilq::PTI> twin_pti;
  std::unordered_map<ObjectId, Point> points;
  std::unordered_map<ObjectId, Rect> regions;
  uint64_t index_bytes = 0;
  double save_s = 0.0;
  double open_s = 0.0;
};

std::vector<ilq::UncertainObject> Pool(uint64_t seed, double qp) {
  ilq::WorkloadConfig config;
  config.u = kIssuerHalfSide;
  config.w = kRangeHalfSide;
  config.qp = qp;
  config.queries = 1000;
  config.seed = seed;
  ilq::Result<ilq::Workload> workload = ilq::GenerateWorkload(config);
  ILQ_CHECK(workload.ok(), workload.status().ToString());
  return std::move(workload->issuers);
}

PagedSetup MakeSetup(uint64_t seed, const std::string& dir) {
  PagedSetup s;
  ilq::CatalogImage image = PaperImage(1.0, seed);
  s.points = PointMap(image.points);
  s.regions = RegionMap(image.uncertains);
  ilq::CatalogImage copy = image;
  ilq::Result<ilq::QueryEngine> ram = ilq::QueryEngine::Build(
      std::move(image.points), std::move(image.uncertains));
  ILQ_CHECK(ram.ok(), ram.status().ToString());
  s.ram = std::make_unique<ilq::QueryEngine>(std::move(ram).ValueOrDie());

  const ilq::PagedIndexFiles files = ilq::PagedIndexFiles::InDir(dir);
  const int64_t t0 = NowNs();
  const ilq::Status saved = s.ram->SavePagedIndexes(files);
  ILQ_CHECK(saved.ok(), saved.ToString());
  const int64_t t1 = NowNs();
  for (const std::string& f :
       {files.point_index, files.uncertain_index, files.pti_index}) {
    s.index_bytes += std::filesystem::file_size(f);
  }
  ilq::EngineConfig config;
  config.storage = ilq::StorageMode::kPaged;
  config.buffer_pool_bytes =
      static_cast<size_t>(kBufferShare * static_cast<double>(s.index_bytes));
  ilq::Result<ilq::QueryEngine> paged =
      ilq::QueryEngine::OpenPaged(std::move(copy), files, config);
  ILQ_CHECK(paged.ok(), paged.status().ToString());
  s.paged = std::make_unique<ilq::QueryEngine>(std::move(paged).ValueOrDie());
  const int64_t t2 = NowNs();
  s.save_s = static_cast<double>(t1 - t0) / 1e9;
  s.open_s = static_cast<double>(t2 - t1) / 1e9;

  ilq::PagedOpenOptions twin;
  twin.buffer_pool_bytes = config.buffer_pool_bytes;
  twin.deep_verify = false;
  ilq::Result<ilq::RTree> pts = ilq::RTree::OpenPaged(files.point_index, twin);
  ILQ_CHECK(pts.ok(), pts.status().ToString());
  s.twin_points = std::make_unique<ilq::RTree>(std::move(pts).ValueOrDie());
  ilq::Result<ilq::RTree> pti_tree =
      ilq::RTree::OpenPaged(files.pti_index, twin);
  ILQ_CHECK(pti_tree.ok(), pti_tree.status().ToString());
  ilq::Result<ilq::PTI> pti = ilq::PTI::Attach(
      std::move(pti_tree).ValueOrDie(), s.paged->uncertains());
  ILQ_CHECK(pti.ok(), pti.status().ToString());
  s.twin_pti = std::make_unique<ilq::PTI>(std::move(pti).ValueOrDie());
  return s;
}

}  // namespace

RunResult RunPagedBudget(const Args& args, Tracer* tracer) {
  const ilq::RangeQuerySpec open(kRangeHalfSide, kRangeHalfSide, 0.0);
  const ilq::RangeQuerySpec constrained(kRangeHalfSide, kRangeHalfSide,
                                        kThreshold);
  std::vector<QueryClass> classes;
  classes.push_back({"ciuq_pti", QueryMethod::kCiuqPti, constrained, false,
                     Pool(ilq::MixSeeds(args.seed, 21), kThreshold)});
  classes.push_back({"ipq", QueryMethod::kIpq, open, false,
                     Pool(ilq::MixSeeds(args.seed, 22), 0.0), 2});

  const std::string dir =
      args.work_dir + "/paged-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  PagedSetup setup;
  std::vector<double> save_s, open_s;
  const double setup_s = TimedSetup(
      kSetupRepeats, kSetupMinSeconds,
      [&] {
        PagedSetup s = MakeSetup(args.seed, dir);
        save_s.push_back(s.save_s);
        open_s.push_back(s.open_s);
        return s;
      },
      &setup);
  const ilq::QueryEngine& engine = *setup.paged;
  const IndexViews views{setup.twin_points.get(), nullptr,
                         setup.twin_pti.get(), &engine.uncertains()};

  RunClosedLoop(engine, classes, 0.3, 1u << 30, 0, nullptr, views, 0);

  RunResult result;
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  ClosedLoopResult run = RunClosedLoop(engine, classes, untraced_s, 8, 150,
                                       nullptr, views, 0);
  result.attempted = run.ops;
  if (!args.trace) {
    AddEndToEnd(&result, setup_s, run.latency);
  } else {
    ClosedLoopResult traced = RunClosedLoop(
        engine, classes, args.seconds / 2, 8, 0, tracer, views, run.ops);
    result.attempted += traced.ops;
    AddClosedLoopLayers(&result, run, traced, *tracer);
    const ilq::IndexStats& st = run.index;
    const double q = static_cast<double>(std::max<uint64_t>(run.ops, 1));
    result.Layer("storage.page_hit_ratio",
                 static_cast<double>(st.page_hits) /
                     static_cast<double>(
                         std::max<uint64_t>(st.page_hits + st.page_misses, 1)),
                 "ratio");
    result.Layer("storage.page_misses_per_query",
                 static_cast<double>(st.page_misses) / q, "count");
    result.Layer("storage.page_evictions_per_query",
                 static_cast<double>(st.page_evictions) / q, "count");
    result.Layer("storage.save_s", Median(save_s), "s");
    result.Layer("storage.open_s", Median(open_s), "s");
    result.Layer("storage.index_mib",
                 static_cast<double>(setup.index_bytes) / (1 << 20), "MiB");
  }

  Checker checker("paged_budget");
  for (const KeptAnswer& k : run.kept) {
    const QueryClass& c = classes[k.cls];
    const ilq::UncertainObject& issuer = c.pool[k.issuer];
    checker.Identical(k.request, c.name, "paged and RAM answers", k.answers,
                      ilq::RunQueryMethod(*setup.ram, c.method, issuer,
                                          ilq::BatchSpec(c.spec)));
    CheckAnswer(&checker, k.request, run.latency[k.cls], false, issuer, c.spec,
                k.answers, engine, setup.points, setup.regions, args.seed);
  }
  result.oracle_failures = checker.failures();
  result.oracle_mismatches = checker.mismatches();
  result.oracle_checks = checker.checks();
  result.rounded_above_one = checker.rounded_above_one();

  setup = PagedSetup{};
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace ilqbench
