// Clocks, /proc readers, the allocation counters and the result line
// shared by the workloads.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string gw_binary;  ///< Path of the garnet-gw daemon (gateway_tcp).
};

/// Monotonic wall clock, ns.
[[nodiscard]] inline std::int64_t wall_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall ns at process start (taken by the first static initialiser).
[[nodiscard]] std::int64_t process_start_ns() noexcept;

/// Marks the end of the run's set-up. Only the first call counts: that
/// is the run's one cold set-up.
void mark_setup_done() noexcept;

/// Seconds from process start to the first mark_setup_done(), or -1.
[[nodiscard]] double setup_seconds() noexcept;

/// CPU time of a process, all its threads (exited ones too), ns; pid 0 =
/// this process. The same total as utime + stime of /proc/<pid>/stat, read
/// from the process's CPU clock at ns resolution rather than in ticks.
[[nodiscard]] std::int64_t process_cpu_ns(pid_t pid = 0);

/// Peak resident set (VmHWM) of a process, MiB; pid 0 = this process.
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);

/// Voluntary context switches of a process so far.
[[nodiscard]] std::uint64_t voluntary_switches(pid_t pid);

// --- heap allocation counters (alloc_hook.cpp) ------------------------------

struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Every global operator new since process start.
[[nodiscard]] AllocCounts alloc_counts() noexcept;

/// Time and allocations spent inside one wrapped entry point, summed.
struct LayerAccount {
  std::int64_t ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t calls = 0;
};

/// Adds the wall time and allocations of its lifetime to an account.
class LayerScope {
 public:
  explicit LayerScope(LayerAccount& account) noexcept
      : account_(account), allocs_(alloc_counts()), start_(wall_ns()) {}
  ~LayerScope() {
    const std::int64_t end = wall_ns();
    const AllocCounts now = alloc_counts();
    account_.ns += end - start_;
    account_.allocs += now.allocs - allocs_.allocs;
    ++account_.calls;
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  LayerAccount& account_;
  AllocCounts allocs_;
  std::int64_t start_;
};

// --- result line --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< Why `correct` is false, for stderr.

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed invariant (the run's outputs are wrong).
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  void require(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

/// Prints the problems to stderr and the result as one JSON line to stdout.
void print_result(const Result& result);

/// Median of the values (0 if empty); sorts a copy.
[[nodiscard]] double median(std::vector<double> values);

/// num / den, or 0 when den is not positive.
[[nodiscard]] inline double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Seeded generator of the benchmark's inputs (splitmix64 counter mode).
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

// --- in-process workloads ----------------------------------------------------

/// What one round of an in-process workload gives the end-to-end metrics.
struct RoundFigures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t received = 0;  ///< Copies delivered to consumers.
  std::int64_t wall_ns = 0;    ///< Measured phase.
  std::int64_t cpu_ns = 0;     ///< This process over the measured phase.
  double latency_p50_ns = 0;   ///< Virtual time.
  double latency_p99_ns = 0;
};

/// Repeats `round` (identical rounds, each on a fresh Runtime) until
/// `seconds` after process start, then adds the end-to-end metrics.
void repeat_rounds(Result& result, double seconds, const std::function<RoundFigures()>& round);

// --- workloads ----------------------------------------------------------------

// run_*: the end-to-end metrics of one workload (untraced run).
Result run_field_radio(const Options& options);
Result run_inject_fanout(const Options& options);
Result run_gateway_tcp(const Options& options);

// trace_*: add one workload's per-layer metrics (its layer group) to a
// traced run, on that workload's inputs. A traced run calls all three,
// so it prints every per-layer metric whichever workload it names.
void trace_field_radio(const Options& options, Result& result);
void trace_inject_fanout(const Options& options, Result& result);
/// Spends `seconds` of wall time: half on the daemon, half in process.
void trace_gateway_tcp(const Options& options, double seconds, Result& result);

}  // namespace perfbench
