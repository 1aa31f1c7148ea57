#include "support.h"

#include <cpuid.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "simd/simd_policy.h"

#ifndef ILQBENCH_BUILD_TYPE
#define ILQBENCH_BUILD_TYPE "unknown"
#endif

namespace ilqbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

int32_t Tracer::Add(const char* name, uint64_t request, int32_t parent,
                    int64_t start_ns, int64_t end_ns, int64_t arg) {
  spans_.push_back({name, request, parent, start_ns, end_ns, arg});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::Append(const Tracer& other) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

double Tracer::MeanUs(const char* name) const {
  double sum = 0.0;
  size_t n = 0;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) != name) continue;
    sum += s.us();
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double Tracer::MeanSelfUs(const char* name, int64_t arg) const {
  std::unordered_map<int32_t, double> child_us;
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[s.parent] += s.us();
  }
  double sum = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::string_view(s.name) != name) continue;
    if (arg >= 0 && s.arg != arg) continue;
    const auto it = child_us.find(static_cast<int32_t>(i));
    const double children = it == child_us.end() ? 0.0 : it->second;
    sum += std::max(0.0, s.us() - children);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"request\":" << s.request
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"arg\":" << s.arg << "}\n";
  }
  return static_cast<bool>(out);
}

OpenLoopSchedule::OpenLoopSchedule(int64_t start_ns, double rate_per_s,
                                   double offset_s)
    : start_ns_(start_ns),
      period_ns_(1e9 / rate_per_s),
      offset_ns_(offset_s * 1e9) {}

int64_t OpenLoopSchedule::Wait() {
  const int64_t due =
      start_ns_ + static_cast<int64_t>(offset_ns_ + period_ns_ *
                                                        static_cast<double>(
                                                            next_++));
  // Sleep to within a short spin window of the due time: the kernel's
  // wake-up slack would otherwise show up as generator lag.
  constexpr int64_t kSpinNs = 60'000;
  const int64_t now = NowNs();
  if (due - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
  }
  while (NowNs() < due) {
  }
  return due;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

namespace {

// The processor brand string, straight from CPUID (leaves 0x80000002-4).
std::string CpuModel() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model.empty() ? "unknown" : model;
}

std::string HostTag(const std::string& model, unsigned nproc,
                    const char* tier) {
  std::string tag;
  for (const char c : model) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      tag += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!tag.empty() && tag.back() != '-') {
      tag += '-';
    }
  }
  while (!tag.empty() && tag.back() == '-') tag.pop_back();
  return tag + "-" + std::to_string(nproc) + "c-" + tier;
}

}  // namespace

std::string HostBlockJson() {
  const std::string model = CpuModel();
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const char* detected =
      ilq::simd::SimdLevelName(ilq::simd::DetectedSimdLevel());
  const char* active = ilq::simd::SimdLevelName(ilq::simd::ActiveSimdLevel());
  const std::string build = ILQBENCH_BUILD_TYPE;
  const char* cap = std::getenv("ILQ_SIMD_LEVEL");
  std::string json = "{\"cpu_model\":\"" + JsonEscape(model) +
                     "\",\"nproc\":" + std::to_string(nproc) +
                     ",\"build_type\":\"" + JsonEscape(build) +
                     "\",\"simd_detected\":\"" + detected +
                     "\",\"simd_active\":\"" + active +
                     "\",\"simd_cap_env\":\"" +
                     JsonEscape(cap != nullptr ? cap : "") +
                     "\",\"host_tag\":\"" + HostTag(model, nproc, active) +
                     "\"";
  if (build != "Release") {
    json += ",\"warning\":\"non-Release build: timings are not comparable\"";
  }
  return json + "}";
}

void PinToCpu(size_t k) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[cpus.size() - 1 - k % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace ilqbench
