#include "measure.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "checks.hpp"

namespace perfbench {

namespace {

// The first of the executable's static initialisers, so any set-up work
// the program's own static objects do falls into setup_seconds().
struct ProcessStart {
  std::int64_t ns = wall_ns();
};
__attribute__((init_priority(101))) const ProcessStart kProcessStart;
std::int64_t setup_done_ns = -1;

std::string proc_path(pid_t pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

/// Value of a "Key:   123 unit" line of /proc/<pid>/status, or -1.
double status_field(pid_t pid, const std::string& key) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return -1;
}

}  // namespace

std::int64_t process_start_ns() noexcept { return kProcessStart.ns; }

void mark_setup_done() noexcept {
  if (setup_done_ns < 0) setup_done_ns = wall_ns();
}

double setup_seconds() noexcept {
  return setup_done_ns < 0 ? -1.0 : static_cast<double>(setup_done_ns - kProcessStart.ns) / 1e9;
}

std::int64_t process_cpu_ns(pid_t pid) {
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  timespec ts{};
  if ((pid != 0 && clock_getcpuclockid(pid, &clock) != 0) || clock_gettime(clock, &ts) != 0) {
    throw std::runtime_error("cannot read the CPU clock of process " + std::to_string(pid));
  }
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb(pid_t pid) { return status_field(pid, "VmHWM") / 1024.0; }

std::uint64_t voluntary_switches(pid_t pid) {
  const double v = status_field(pid, "voluntary_ctxt_switches");
  return v < 0 ? 0 : static_cast<std::uint64_t>(v);
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

std::uint64_t SplitMix::next() { return mix64(state_++); }

void repeat_rounds(Result& result, double seconds, const std::function<RoundFigures()>& round) {
  const std::int64_t deadline = process_start_ns() + static_cast<std::int64_t>(seconds * 1e9);
  // Every round does the same work on the same inputs, so rounds differ
  // in cost only by what other tenants of the host take from this core,
  // and such slow spells last seconds and come and go within a run. Rate
  // and CPU cost therefore come from the fastest hundredth of rounds;
  // latencies are virtual time and take the median.
  std::vector<double> rate;
  std::vector<double> cpu;
  std::vector<double> p50;
  std::vector<double> p99;
  do {
    const RoundFigures r = round();
    result.attempted += r.attempted;
    result.failed += r.failed;
    rate.push_back(per(static_cast<double>(r.received), static_cast<double>(r.wall_ns) / 1e9));
    cpu.push_back(per(static_cast<double>(r.cpu_ns), static_cast<double>(r.received)));
    p50.push_back(r.latency_p50_ns);
    p99.push_back(r.latency_p99_ns);
  } while (wall_ns() < deadline);

  result.add("setup_s", setup_seconds(), "s");
  result.add("delivered_per_s", quantile(rate, 0.99), "1/s");
  result.add("cpu_ns_per_delivered", quantile(cpu, 0.01), "ns");
  result.add("latency_p50_us", median(p50) / 1e3, "us");
  result.add("latency_p99_us", median(p99) / 1e3, "us");
  result.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

void print_result(const Result& result) {
  for (const std::string& why : result.problems) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    // JSON has no NaN/Inf; a metric that could not be computed reads -1.
    std::snprintf(value, sizeof value, "%.9g", std::isfinite(m.value) ? m.value : -1.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
