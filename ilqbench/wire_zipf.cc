// wire_zipf: a Router in front of 3 loopback ShardServers with answer
// caches over a 0.25-scale catalog. Zipf(s = 1) traffic from 16 tenants,
// each with its own issuer pool, mostly IPQ with some C-IUQ(PTI), driven by
// client threads that each own a Router.
// Evaluation is cheap and cache hits skip core, so net, wire, serve and the
// two merges (shard and router) dominate: a transport or merge change shows
// here and not in query_mix.
//
// The end-to-end figures come from a closed loop (one client sends its
// next request when the last one returned). The open-loop generator runs
// in the traced invocation: a ladder of fixed arrival rates, latency timed
// from each request's due time, for bench.max_rate_qps and
// bench.gen_lag_us. On the reference VM, open-loop tails measure the host
// more than the program: a thread hand-off now and then waits milliseconds
// for a halted vCPU, and the per-second p99 of one open-loop run ranged
// from 0.3 to 8 ms, which no run length made steady.
//
// The whole fleet (clients, accept and connection threads, serve workers)
// runs on one CPU: every request crosses four thread hand-offs per shard,
// and across CPUs each one is a wake-up of another vCPU, whose cost swings
// with how busy the shared host is (the same code's closed-loop rate
// spread 0.4-0.6 across ten runs). On one CPU a hand-off is a context
// switch, so the figures measure the program's work per request: the
// fleet's single-CPU throughput and latency.

#include <cstdio>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "datagen/workload.h"
#include "net/router.h"
#include "net/shard_server.h"
#include "serve/partition.h"
#include "serve/sharded_engine.h"
#include "wire/codec.h"
#include "wire/message.h"
#include "workloads.h"

namespace ilqbench {

using ilq::QueryMethod;

namespace {

constexpr double kScale = 0.25;
constexpr size_t kShards = 3;
// One client thread for the closed loop (a second one made whole runs
// collapse to half throughput when the host stole a vCPU); two for the
// open-loop ladder, each on its own share of the schedule. Every thread
// shares the fleet's one CPU (see above).
constexpr size_t kClosedClients = 1;
constexpr size_t kOpenClients = 2;
// Tenants, each drawing Zipf(s = 1) from its own kPool / kTenants issuers
// and interleaved request by request. One 4,096-issuer pool put a tenth of
// all traffic on its first issuer, so every figure hung on where a handful
// of issuers happened to lie: latencies moved 0.2 between seeds while the
// same seed repeated within 0.03.
constexpr size_t kTenants = 16;
constexpr size_t kPool = 4096;  // issuers over all tenants
constexpr size_t kCacheEntries = 8192;
constexpr double kWarmSeconds = 0.5;
// Requests pre-drawn from the Zipf pool; clients cycle through them.
constexpr size_t kSequence = 1 << 20;
// Open-loop ladder: bench.max_rate_qps is the highest rung of
// kBaseRate × kLadder whose p99 (from due times) stays under kP99LimitUs and
// whose generator did not fall behind (mean lag of the rung's last quarter
// under kBacklogLagUs).
constexpr double kBaseRate = 2000.0;  // requests/s, both clients together
constexpr double kLadder[] = {1.0, 2.0, 3.0, 4.0, 6.0, 8.0};
constexpr double kP99LimitUs = 2000.0;
constexpr double kBacklogLagUs = 500.0;

struct Fleet {
  ilq::ShardMap map;
  std::vector<std::unique_ptr<ilq::ShardedEngine>> engines;
  std::vector<std::unique_ptr<ilq::ShardServer>> servers;
  std::vector<std::unique_ptr<ilq::Router>> routers;  // one per client

  ~Fleet() {
    routers.clear();
    for (auto& server : servers) server->Stop();
  }
};

std::unique_ptr<Fleet> StartFleet(const ilq::CatalogImage& image) {
  ilq::Result<ilq::SplitImage> split = ilq::SplitCatalogImage(image, kShards);
  ILQ_CHECK(split.ok(), split.status().ToString());
  auto fleet = std::make_unique<Fleet>();
  fleet->map = split->map;
  ilq::RouterOptions options;
  options.map = split->map;
  for (ilq::CatalogImage& shard : split->shards) {
    ilq::ShardedEngineConfig config;
    config.shards = 1;
    ilq::Result<ilq::ShardedEngine> engine = ilq::ShardedEngine::Build(
        std::move(shard.points), std::move(shard.uncertains), config);
    ILQ_CHECK(engine.ok(), engine.status().ToString());
    fleet->engines.push_back(
        std::make_unique<ilq::ShardedEngine>(std::move(engine).ValueOrDie()));
    ilq::ShardServerOptions server_options;
    server_options.serve.threads = 1;
    server_options.serve.cache_capacity = kCacheEntries;
    fleet->servers.push_back(std::make_unique<ilq::ShardServer>(
        *fleet->engines.back(), server_options));
    const ilq::Status started = fleet->servers.back()->Start();
    ILQ_CHECK(started.ok(), started.ToString());
    options.endpoints.push_back({"127.0.0.1", fleet->servers.back()->port()});
  }
  for (size_t c = 0; c < kOpenClients; ++c) {
    ilq::Result<ilq::Router> router = ilq::Router::Make(options);
    ILQ_CHECK(router.ok(), router.status().ToString());
    fleet->routers.push_back(
        std::make_unique<ilq::Router>(std::move(router).ValueOrDie()));
  }
  return fleet;
}

struct Traffic {
  // Tenant t's issuers are pool[t * kPool / kTenants, (t + 1) * ...), in its
  // rank order, with ids 1..kPool.
  std::vector<ilq::UncertainObject> pool;
  std::vector<size_t> sequence;  // pool index per request, in send order
  ilq::RangeQuerySpec open;
  ilq::RangeQuerySpec constrained;

  size_t Pick(uint64_t g) const { return sequence[g % sequence.size()]; }
  // One request in eight (by pool entry, so the cache sees a stable key;
  // ranks 8, 16, ... of every tenant) is a C-IUQ(PTI); the rest are IPQ.
  bool IsCiuq(uint64_t g) const { return Pick(g) % 8 == 7; }
  QueryMethod Method(uint64_t g) const {
    return IsCiuq(g) ? QueryMethod::kCiuqPti : QueryMethod::kIpq;
  }
  ilq::BatchSpec Spec(uint64_t g) const {
    return ilq::BatchSpec(IsCiuq(g) ? constrained : open);
  }
};

// Kept small: a closed loop records a few hundred thousand of these, and
// peak_rss_mib should not grow with the measured throughput.
struct Sample {
  float latency_us = 0.0f;  // closed loop: from send; open loop: from due
  float lag_us = 0.0f;      // open loop: send time - due time
  uint32_t done_us = 0;     // completion, from the phase's start
  bool ciuq = false;
};

struct PhaseOut {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<KeptAnswer> kept;
  Tracer tracer;
  uint64_t response_bytes = 0;
  double seconds = 0.0;
};

// How one phase sends: closed loop until a deadline, or open loop at a
// fixed rate for a fixed number of requests.
struct Pace {
  double rate = 0.0;     // > 0: open loop at this many requests/s
  double seconds = 0.0;  // closed loop: run this long
  size_t count = 0;      // open loop: requests, both clients together
};

// Records the traced decomposition of one answered request.
void TraceRequest(Fleet& fleet, uint64_t g, QueryMethod method,
                  const ilq::UncertainObject& issuer,
                  const ilq::BatchSpec& spec, const ilq::AnswerSet& answers,
                  const ilq::WireServeStats& server, int64_t send,
                  int64_t done, PhaseOut* out) {
  Tracer& tr = out->tracer;
  const std::vector<size_t> routed =
      ilq::RouteOverShardMap(fleet.map, method, issuer, spec.query);
  const int32_t root = tr.Add("request", g, -1, send, done);
  const int32_t call = tr.Add("net.router", g, root, send, done,
                              static_cast<int64_t>(routed.size()));
  if (routed.size() == 1) {
    // The shard's own submit-to-complete time, as it reported it.
    tr.Add("net.shard_side", g, call, send,
           send + static_cast<int64_t>(server.server_ms * 1e6));
  }
  // The codec work of this request: request and merged response, each
  // encoded and decoded once.
  const int64_t c0 = NowNs();
  ilq::WireRequest request;
  request.issuer_id = issuer.id();
  request.issuer_pdf = issuer.pdf_variant();
  request.method = method;
  request.spec = spec;
  ilq::ByteWriter request_bytes;
  ILQ_CHECK(ilq::EncodeRequest(request, &request_bytes).ok(), "encode");
  ILQ_CHECK(ilq::DecodeRequest(request_bytes.bytes()).ok(), "decode");
  ilq::WireResponse response;
  response.answers = answers;
  response.stats = server;
  ilq::ByteWriter response_bytes;
  ILQ_CHECK(ilq::EncodeResponse(response, &response_bytes).ok(), "encode");
  ILQ_CHECK(ilq::DecodeResponse(response_bytes.bytes()).ok(), "decode");
  const int64_t c1 = NowNs();
  tr.Add("wire.codec", g, call, c0, c1,
         static_cast<int64_t>(response_bytes.bytes().size()));
  out->response_bytes += response_bytes.bytes().size();
  // Shard-side evaluation and the merge, re-issued in process.
  ilq::AnswerSet merged;
  const int64_t e0 = NowNs();
  for (const size_t s : routed) {
    ilq::AnswerSet part = fleet.engines[s]->Run(method, issuer, spec);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  const int64_t e1 = NowNs();
  tr.Add("serve.engine", g, root, e0, e1);
  ilq::CanonicalizeAnswers(&merged);
  tr.Add("serve.merge", g, root, e1, NowNs());
}

// Client c of n sends requests first + c, first + c + n, ... of the
// sequence, paced by \p pace.
void RunClient(Fleet& fleet, const Traffic& traffic, size_t c, uint64_t first,
               const Pace& pace, int64_t start_ns, bool trace,
               size_t keep_every, PhaseOut* out) {
  ilq::Router& router = *fleet.routers[c];
  const bool open = pace.rate > 0.0;
  const size_t n = open ? kOpenClients : kClosedClients;
  OpenLoopSchedule schedule(start_ns, open ? pace.rate / n : 1.0,
                            open ? static_cast<double>(c) / pace.rate : 0.0);
  const int64_t deadline = start_ns + static_cast<int64_t>(pace.seconds * 1e9);
  std::this_thread::sleep_for(std::chrono::nanoseconds(start_ns - NowNs()));
  for (uint64_t g = first + c;; g += n) {
    if (open ? g >= first + pace.count : NowNs() >= deadline) break;
    const ilq::UncertainObject& issuer = traffic.pool[traffic.Pick(g)];
    const QueryMethod method = traffic.Method(g);
    const ilq::BatchSpec spec = traffic.Spec(g);
    const int64_t due = open ? schedule.Wait() : NowNs();
    const int64_t send = NowNs();
    ilq::WireServeStats server{};
    ilq::Result<ilq::AnswerSet> answers =
        router.Query(issuer, method, spec, &server);
    const int64_t done = NowNs();
    ++out->attempted;
    if (!answers.ok()) {
      ++out->failed;
      if (out->errors.size() < 5) {
        out->errors.push_back("request " + std::to_string(g) + ": " +
                              answers.status().ToString());
      }
      continue;
    }
    out->samples.push_back({static_cast<float>(NsToUs(done - due)),
                            static_cast<float>(NsToUs(send - due)),
                            static_cast<uint32_t>((done - start_ns) / 1000),
                            traffic.IsCiuq(g)});
    if (trace) {
      TraceRequest(fleet, g, method, issuer, spec, *answers, server, send,
                   done, out);
    }
    if (keep_every > 0 && g % keep_every == 0 && out->kept.size() < 200) {
      out->kept.push_back({g, traffic.IsCiuq(g) ? 1u : 0u, traffic.Pick(g),
                           std::move(*answers)});
    }
  }
}

// Runs both clients; the next phase should start at first + the returned
// phase's attempted count rounded up to whole client rounds.
PhaseOut RunPhase(Fleet& fleet, const Traffic& traffic, uint64_t first,
                  const Pace& pace, bool trace, size_t keep_every) {
  const size_t n = pace.rate > 0.0 ? kOpenClients : kClosedClients;
  std::vector<PhaseOut> parts(n);
  const int64_t start = NowNs() + 2'000'000;  // let every client get ready
  {
    std::vector<std::jthread> clients;
    for (size_t c = 0; c < n; ++c) {
      clients.emplace_back([&, c] {
        RunClient(fleet, traffic, c, first, pace, start, trace, keep_every,
                  &parts[c]);
      });
    }
  }
  PhaseOut out;
  out.seconds = static_cast<double>(NowNs() - start) / 1e9;
  for (PhaseOut& p : parts) {
    out.samples.insert(out.samples.end(), p.samples.begin(), p.samples.end());
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.errors.insert(out.errors.end(), p.errors.begin(), p.errors.end());
    for (KeptAnswer& k : p.kept) out.kept.push_back(std::move(k));
    out.tracer.Append(p.tracer);
    out.response_bytes += p.response_bytes;
  }
  return out;
}

std::vector<ClassLatency> ByClass(const std::vector<Sample>& samples) {
  std::vector<ClassLatency> classes(2);
  classes[0].name = "ipq";
  classes[1].name = "ciuq_pti";
  classes[1].method = QueryMethod::kCiuqPti;
  for (const Sample& s : samples) {
    classes[s.ciuq ? 1 : 0].Add(s.latency_us, int64_t{s.done_us} * 1000);
  }
  return classes;
}

double MeanLag(const std::vector<Sample>& samples, size_t from) {
  double sum = 0.0;
  for (size_t i = from; i < samples.size(); ++i) sum += samples[i].lag_us;
  return samples.size() > from
             ? sum / static_cast<double>(samples.size() - from)
             : 0.0;
}

struct CacheCounters {
  uint64_t hits = 0, misses = 0, invalidations = 0;
};

CacheCounters ReadCache(const Fleet& fleet) {
  CacheCounters c;
  for (const auto& server : fleet.servers) {
    const ilq::ServeStats s = server->serve_stats();
    c.hits += s.cache_hits;
    c.misses += s.cache_misses;
    c.invalidations += s.cache_invalidations;
  }
  return c;
}

ilq::RouterStats ReadRouters(const Fleet& fleet) {
  ilq::RouterStats total;
  for (const auto& r : fleet.routers) {
    const ilq::RouterStats s = r->stats();
    total.queries += s.queries;
    total.shard_calls += s.shard_calls;
    total.retries += s.retries;
    total.reconnects += s.reconnects;
  }
  return total;
}

// Counts a phase's operations into \p result and reports its failures.
void Fold(RunResult* result, const PhaseOut& phase) {
  result->attempted += phase.attempted;
  result->failed += phase.failed;
  for (const std::string& e : phase.errors) {
    std::fprintf(stderr, "wire_zipf: %s\n", e.c_str());
  }
}

// The open-loop ladder: returns bench.max_rate_qps and the base rung's mean
// generator lag.
std::pair<double, double> RunLadder(Fleet& fleet, const Traffic& traffic,
                                    uint64_t* next, double seconds,
                                    RunResult* result) {
  const double rung_s = seconds / std::size(kLadder);
  double max_rate = 0.0;
  double base_lag_us = 0.0;
  for (const double m : kLadder) {
    const Pace pace{kBaseRate * m, 0.0,
                    static_cast<size_t>(kBaseRate * m * rung_s)};
    PhaseOut rung = RunPhase(fleet, traffic, *next, pace, false, 0);
    *next += pace.count;
    Fold(result, rung);
    std::vector<double> latency;
    for (const Sample& s : rung.samples) latency.push_back(s.latency_us);
    const bool meets = rung.failed == 0 &&
                       Percentile(latency, 0.99) <= kP99LimitUs &&
                       MeanLag(rung.samples, rung.samples.size() * 3 / 4) <=
                           kBacklogLagUs;
    if (meets) max_rate = kBaseRate * m;
    if (m == kLadder[0]) base_lag_us = MeanLag(rung.samples, 0);
  }
  return {max_rate, base_lag_us};
}

}  // namespace

RunResult RunWireZipf(const Args& args, Tracer* tracer) {
  Traffic traffic;
  {
    constexpr size_t kTenantPool = kPool / kTenants;
    std::vector<std::vector<size_t>> sequences;
    for (size_t t = 0; t < kTenants; ++t) {
      ilq::WorkloadConfig base;
      base.u = kIssuerHalfSide;
      base.w = kRangeHalfSide;
      base.qp = kThreshold;
      base.seed = ilq::MixSeeds(ilq::MixSeeds(args.seed, 31), t);
      ilq::SkewConfig skew;
      skew.pool = kTenantPool;
      skew.requests = kSequence / kTenants;
      skew.zipf_s = 1.0;
      ilq::Result<ilq::SkewedWorkload> w =
          ilq::GenerateSkewedWorkload(base, skew);
      ILQ_CHECK(w.ok(), w.status().ToString());
      // Every tenant numbers its issuers 1..kTenantPool; the answer caches
      // key on the id, so each gets its own range.
      for (const ilq::UncertainObject& issuer : w->pool) {
        ilq::UncertainObject renumbered(issuer.id() + t * kTenantPool,
                                        issuer.pdf_variant());
        ILQ_CHECK(renumbered.BuildCatalog(issuer.catalog()->values()).ok(),
                  "issuer catalog");
        traffic.pool.push_back(std::move(renumbered));
      }
      sequences.push_back(std::move(w->sequence));
    }
    for (size_t j = 0; j < kSequence / kTenants; ++j) {
      for (size_t t = 0; t < kTenants; ++t) {
        traffic.sequence.push_back(t * kTenantPool + sequences[t][j]);
      }
    }
    traffic.open = ilq::RangeQuerySpec(kRangeHalfSide, kRangeHalfSide, 0.0);
    traffic.constrained =
        ilq::RangeQuerySpec(kRangeHalfSide, kRangeHalfSide, kThreshold);
  }

  // Before the fleet starts, so each of its threads inherits the pin.
  PinToCpu(0);
  std::unique_ptr<Fleet> fleet;
  const double setup_s = TimedSetup(
      kSetupRepeats, kSetupMinSeconds,
      [&] { return StartFleet(PaperImage(kScale, args.seed)); }, &fleet);

  // The oracle's monolith and catalog copy, built outside the timed set-up.
  ilq::CatalogImage image = PaperImage(kScale, args.seed);
  const auto points = PointMap(image.points);
  const auto regions = RegionMap(image.uncertains);
  ilq::Result<ilq::QueryEngine> mono = ilq::QueryEngine::Build(
      std::move(image.points), std::move(image.uncertains));
  ILQ_CHECK(mono.ok(), mono.status().ToString());

  RunResult result;
  uint64_t next = 0;
  const auto closed = [&](double seconds, bool trace, size_t keep_every) {
    PhaseOut phase = RunPhase(*fleet, traffic, next, Pace{0.0, seconds, 0},
                              trace, keep_every);
    next += phase.attempted;
    Fold(&result, phase);
    return phase;
  };
  closed(kWarmSeconds, false, 0);
  const CacheCounters cache0 = ReadCache(*fleet);
  const ilq::RouterStats routers0 = ReadRouters(*fleet);

  // Three parts when traced: the open-loop ladder, an untraced closed loop
  // (the oracles' answers and the tracing-overhead baseline), a traced one.
  const double part_s = args.trace ? args.seconds / 3 : args.seconds;
  double max_rate = 0.0, gen_lag_us = 0.0;
  if (args.trace) {
    std::tie(max_rate, gen_lag_us) =
        RunLadder(*fleet, traffic, &next, part_s, &result);
  }
  PhaseOut measured = closed(part_s, false, 512);
  const CacheCounters cache1 = ReadCache(*fleet);
  const ilq::RouterStats routers1 = ReadRouters(*fleet);
  if (!args.trace) {
    AddEndToEnd(&result, setup_s, ByClass(measured.samples));
  } else {
    PhaseOut traced = closed(part_s, true, 0);
    tracer->Append(traced.tracer);
    result.Layer("serve.engine_us", tracer->MeanUs("serve.engine"), "us");
    result.Layer("serve.merge_us", tracer->MeanUs("serve.merge"), "us");
    const uint64_t hits = cache1.hits - cache0.hits;
    const uint64_t lookups = hits + cache1.misses - cache0.misses;
    result.Layer("serve.cache_hit_ratio",
                 static_cast<double>(hits) /
                     static_cast<double>(std::max<uint64_t>(lookups, 1)),
                 "ratio");
    result.Layer("serve.cache_invalidations",
                 static_cast<double>(cache1.invalidations), "count");
    result.Layer("wire.codec_us", tracer->MeanUs("wire.codec"), "us");
    result.Layer("wire.response_bytes",
                 static_cast<double>(traced.response_bytes) /
                     static_cast<double>(
                         std::max<size_t>(traced.samples.size(), 1)),
                 "bytes");
    result.Layer("net.router_us", tracer->MeanUs("net.router"), "us");
    result.Layer("net.transport_us", tracer->MeanSelfUs("net.router", 1),
                 "us");
    result.Layer("net.fanout",
                 static_cast<double>(routers1.shard_calls -
                                     routers0.shard_calls) /
                     static_cast<double>(std::max<uint64_t>(
                         routers1.queries - routers0.queries, 1)),
                 "count");
    const ilq::RouterStats end = ReadRouters(*fleet);
    result.Layer("net.retries", static_cast<double>(end.retries), "count");
    result.Layer("net.reconnects", static_cast<double>(end.reconnects),
                 "count");
    result.Layer("bench.gen_lag_us", gen_lag_us, "us");
    result.Layer("bench.max_rate_qps", max_rate, "1/s");
    const double untraced_rate =
        static_cast<double>(measured.samples.size()) / measured.seconds;
    const double traced_rate =
        static_cast<double>(traced.samples.size()) / traced.seconds;
    AddTailLatency(&result, ByClass(measured.samples));
    result.Layer("bench.trace_overhead_pct",
                 100.0 * (untraced_rate / traced_rate - 1.0), "%");
    result.Layer("bench.traced_ops",
                 static_cast<double>(traced.samples.size()), "count");
  }

  Checker checker("wire_zipf");
  const std::vector<ClassLatency> classes = ByClass({});
  size_t checked = 0;
  for (const KeptAnswer& k : measured.kept) {
    if (++checked > 400) break;
    const ilq::UncertainObject& issuer = traffic.pool[k.issuer];
    const QueryMethod method = traffic.Method(k.request);
    const ilq::BatchSpec spec = traffic.Spec(k.request);
    ilq::AnswerSet want = ilq::RunQueryMethod(*mono, method, issuer, spec);
    ilq::CanonicalizeAnswers(&want);
    checker.Identical(k.request, classes[k.cls].name,
                      "router and monolith answers", k.answers, want);
    CheckAnswer(&checker, k.request, classes[k.cls], false, issuer, spec.query,
                k.answers, *mono, points, regions, args.seed);
  }
  result.oracle_failures = checker.failures();
  result.oracle_mismatches = checker.mismatches();
  result.oracle_checks = checker.checks();
  result.rounded_above_one = checker.rounded_above_one();
  return result;
}

}  // namespace ilqbench
