// ilqbench — the repository's end-to-end benchmark.
//
//   ilqbench --workload <query_mix|wire_zipf|moving_churn|paged_budget>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <span dir>] [--work-dir <scratch file dir>]
//
// Prints a host context line, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics: every end-to-end metric
// with --trace 0, every per-layer metric with --trace 1 (layers a workload
// does not use read 0). Exits 1 when any output fails its oracle, 2 on a
// usage error. `ilqbench --self-test` runs the helper self-tests.

#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "support.h"
#include "workloads.h"

namespace ilqbench {
int RunSelfTests();
}  // namespace ilqbench

namespace {

using ilqbench::Metric;

// The metric sets of BENCHMARK.json, in its order. Every run prints all of
// the set its --trace selects.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"latency_p50_us", "us"},   {"ipq_p50_us", "us"},
    {"ciuq_pti_p50_us", "us"},  {"peak_rss_mib", "MiB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"index.traverse_us", "us"},
    {"index.node_accesses_per_query", "count"},
    {"index.candidates_per_query", "count"},
    {"core.qualify_us", "us"},
    {"core.answers_per_candidate", "ratio"},
    {"prob.gauss_mass_ns_per_rect", "ns"},
    {"query.iuq_p50_us", "us"},
    {"query.cipq_p50_us", "us"},
    {"query.gauss_ipq_p50_us", "us"},
    {"serve.engine_us", "us"},
    {"serve.merge_us", "us"},
    {"serve.async_overhead_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_invalidations", "count"},
    {"wire.codec_us", "us"},
    {"wire.response_bytes", "bytes"},
    {"net.router_us", "us"},
    {"net.transport_us", "us"},
    {"net.fanout", "count"},
    {"net.retries", "count"},
    {"net.reconnects", "count"},
    {"continuous.reuse_ratio", "ratio"},
    {"continuous.replay_us", "us"},
    {"continuous.reeval_us", "us"},
    {"object.apply_batch_us", "us"},
    {"object.apply_ops_per_s", "1/s"},
    {"object.pti_rebuilds", "count"},
    {"object.pti_refreshes", "count"},
    {"storage.page_hit_ratio", "ratio"},
    {"storage.page_misses_per_query", "count"},
    {"storage.page_evictions_per_query", "count"},
    {"storage.save_s", "s"},
    {"storage.open_s", "s"},
    {"storage.index_mib", "MiB"},
    {"bench.latency_p99_us", "us"},
    {"bench.gen_lag_us", "us"},
    {"bench.max_rate_qps", "1/s"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.traced_ops", "count"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "ilqbench: %s\nusage: ilqbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--work-dir <dir>]\n"
               "workloads: query_mix wire_zipf moving_churn paged_budget\n",
               why);
  return 2;
}

std::string MetricsJson(
    const std::vector<Metric>& measured,
    const std::vector<std::pair<const char*, const char*>>& wanted,
    bool zero_fill, std::string* missing) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : measured) {
    by_name[m.name] = &m;
    bool known = false;
    for (const auto& [name, unit] : wanted) known |= m.name == name;
    if (!known) *missing += " (unlisted " + m.name + ")";
  }
  std::string json = "{";
  for (size_t i = 0; i < wanted.size(); ++i) {
    const auto [name, unit] = wanted[i];
    const auto it = by_name.find(name);
    double value = 0.0;
    if (it != by_name.end()) {
      value = it->second->value;
    } else if (!zero_fill) {
      *missing += std::string(" ") + name;
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", name, value, unit);
    json += buf;
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  ilqbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return ilqbench::RunSelfTests();
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");

  using RunFn = ilqbench::RunResult (*)(const ilqbench::Args&,
                                        ilqbench::Tracer*);
  const std::map<std::string, RunFn> workloads = {
      {"query_mix", ilqbench::RunQueryMix},
      {"wire_zipf", ilqbench::RunWireZipf},
      {"moving_churn", ilqbench::RunMovingChurn},
      {"paged_budget", ilqbench::RunPagedBudget},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) return Usage("unknown workload");

  // 1 µs timer slack (this process only): open-loop sleeps then wake close
  // to their due time instead of up to the default 50 µs late.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  std::printf("host %s\n", ilqbench::HostBlockJson().c_str());
  std::fflush(stdout);

  ilqbench::Tracer tracer;
  const ilqbench::RunResult result = it->second(args, &tracer);

  if (args.trace) {
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (tracer.Write(path)) {
      std::printf("spans %zu written to %s\n", tracer.spans().size(),
                  path.c_str());
    } else {
      std::fprintf(stderr, "ilqbench: could not write %s\n", path.c_str());
    }
  }
  for (const std::string& line : result.oracle_failures) {
    std::fprintf(stderr, "ORACLE MISMATCH %s\n", line.c_str());
  }
  std::printf("oracle checks %llu, mismatches %llu, probabilities above 1 "
              "by rounding %llu\n",
              static_cast<unsigned long long>(result.oracle_checks),
              static_cast<unsigned long long>(result.oracle_mismatches),
              static_cast<unsigned long long>(result.rounded_above_one));

  std::string missing;
  const std::string metrics =
      args.trace ? MetricsJson(result.per_layer, kPerLayer, true, &missing)
                 : MetricsJson(result.end_to_end, kEndToEnd, false, &missing);
  if (!missing.empty()) {
    std::fprintf(stderr, "ilqbench: metric set mismatch:%s\n",
                 missing.c_str());
    return 3;
  }
  const bool correct = result.oracle_mismatches == 0 && result.oracle_checks > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return correct ? 0 : 1;
}
