// perfbench: runs one workload of the end-to-end benchmark and prints
// its result as one JSON line. Normally started by perfbench/run.py.
// With --trace 1 it prints every per-layer metric instead (see trace_all).
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--gw PATH-TO-garnet-gw]
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "measure.hpp"

namespace {

constexpr std::array<std::string_view, 3> kWorkloads = {"field_radio", "inject_fanout", "gateway_tcp"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload field_radio|inject_fanout|gateway_tcp "
               "--seed N --seconds S --trace 0|1 [--gw PATH]\n");
  return 2;
}

/// A traced run measures every layer group, so that it prints every
/// per-layer metric: the named workload's group first, in a fresh
/// process as its untraced run is, then the others. The gateway group
/// takes what is left of --seconds, at least kMinGatewaySeconds.
void trace_all(const perfbench::Options& options, perfbench::Result& result) {
  constexpr double kMinGatewaySeconds = 4;
  auto order = kWorkloads;
  std::stable_partition(order.begin(), order.end(), [&](std::string_view w) { return w == options.workload; });
  for (std::string_view w : order) {
    if (w == "field_radio") {
      perfbench::trace_field_radio(options, result);
    } else if (w == "inject_fanout") {
      perfbench::trace_inject_fanout(options, result);
    } else {
      const double elapsed = static_cast<double>(perfbench::wall_ns() - perfbench::process_start_ns()) / 1e9;
      perfbench::trace_gateway_tcp(options, std::max(kMinGatewaySeconds, options.seconds - elapsed), result);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else if (flag == "--gw") {
      options.gw_binary = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(options.seconds > 0)) return usage();

  if (std::find(kWorkloads.begin(), kWorkloads.end(), options.workload) == kWorkloads.end()) return usage();
  if ((options.trace || options.workload == "gateway_tcp") && options.gw_binary.empty()) return usage();

  try {
    perfbench::Result result;
    if (options.trace) {
      trace_all(options, result);
    } else if (options.workload == "field_radio") {
      result = perfbench::run_field_radio(options);
    } else if (options.workload == "inject_fanout") {
      result = perfbench::run_inject_fanout(options);
    } else {
      result = perfbench::run_gateway_tcp(options);
    }
    perfbench::print_result(result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
