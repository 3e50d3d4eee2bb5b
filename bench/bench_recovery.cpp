// Experiments A3 and A6 — crash recovery through the Runtime's harness.
//
// A6 sweeps the checkpoint interval (how much op-log tail a promotion
// must replay) against the watchdog miss threshold (how long a dead
// service stays undetected) and reports the recovery cost:
// crash-to-restored latency, replayed ops, stash-replayed deliveries —
// and the invariant the whole subsystem exists for, duplicates after
// promotion, which must be zero in every cell. The canonical cell's
// full telemetry snapshot is persisted to BENCH_recovery.json;
// scripts/ci.sh gates on it via scripts/check_recovery_report.py.
//
// A3 (paper §3's presumed "service-level ... replication ... for
// efficiency, data-integrity, and fault-tolerance") crashes the
// Filtering Service instead, under radio traffic whose every frame is
// heard a second time 2 s later (a slow relay path), and sweeps the
// heartbeat interval. It reports the detection window, the inputs lost
// in it, the duplicates leaked by the promoted replica, and the frames
// delivered: a frame lost in the window still arrives by its late copy.
#include <benchmark/benchmark.h>

#include <functional>
#include <map>
#include <string>
#include <utility>

#include "bench/common.hpp"
#include "garnet/runtime.hpp"
#include "obs/export.hpp"

namespace garnet::bench {
namespace {

using util::Duration;
using util::SimTime;

struct RecoveryOutcome {
  double latency_ms = 0;
  double ops_replayed = 0;
  double stash_replayed = 0;
  double duplicates_after_promotion = 0;
  double checkpoints_taken = 0;
  double inputs_lost = 0;
  double messages_offered = 0;
  double messages_delivered = 0;
};

/// One crash cycle. A6 (the defaults): a 1ms-cadence stream straight
/// into the filtering service, the dispatcher crash-stopped mid-stream
/// by the fault plan. A3 (`late_copies`): 100Hz radio traffic for 20 s
/// whose every frame is heard again 2 s later, filtering crash-stopped
/// at t=10s. Either way the watchdog is left to detect and promote.
struct CrashCycle {
  std::int64_t checkpoint_ms = 250;
  std::int64_t heartbeat_ms = 100;
  std::uint32_t miss_threshold = 3;
  bool late_copies = false;
};

/// Runs one cycle. When `json_out` is set, the full telemetry snapshot
/// (plus the headline bench.recovery.* gauges) is rendered before
/// teardown.
RecoveryOutcome run_crash_cycle(const CrashCycle& cycle, std::string* json_out = nullptr) {
  Runtime::Config config;
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval = Duration::millis(cycle.checkpoint_ms);
  config.recovery.heartbeat_interval = Duration::millis(cycle.heartbeat_ms);
  config.recovery.miss_threshold = cycle.miss_threshold;
  config.overload.credit_window = 64;
  if (cycle.late_copies) {
    config.field.radio.base_loss = 0.0;  // every copy is heard: loss is the crash's alone
    config.field.radio.edge_loss = 0.0;
  }
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = cycle.late_copies ? "filtering" : "dispatch";
    crash.at = SimTime{} + (cycle.late_copies ? Duration::seconds(10) : Duration::millis(520));
    config.faults.crashes.push_back(crash);  // no restart: watchdog promotes
  }
  Runtime runtime(config);

  core::Consumer consumer(runtime.bus(), "consumer.watch");
  runtime.provision(consumer, "watch");
  consumer.subscribe(core::StreamPattern::everything());
  std::map<std::pair<std::uint32_t, core::SequenceNo>, int> counts;
  consumer.set_data_handler([&](const core::DeliveryView& d) {
    ++counts[{d.message.stream_id.packed(), d.message.sequence}];
  });
  runtime.run_for(Duration::millis(20));

  RecoveryOutcome outcome;
  sim::Scheduler& scheduler = runtime.scheduler();
  if (cycle.late_copies) {
    runtime.deploy_receivers(1, 5000);  // one receiver covering the field
    for (int i = 0; i < 2000; ++i) {
      core::DataMessage msg;
      msg.stream_id = {1, 0};
      msg.sequence = static_cast<core::SequenceNo>(i);
      msg.payload = util::Bytes(16);
      const SimTime at = SimTime{} + Duration::millis(100 + 10 * i);
      for (const SimTime when : {at, at + Duration::seconds(2)}) {
        scheduler.schedule_at(when, [&runtime, frame = core::encode(msg)] {
          runtime.field().medium().uplink({500, 500}, frame);
        });
      }
      outcome.messages_offered += 1;
    }
    runtime.run_for(Duration::seconds(25));  // traffic + late copies + drain
  } else {
    const SimTime flood_end = scheduler.now() + Duration::millis(1500);
    core::SequenceNo next_seq = 0;
    std::function<void()> inject = [&] {
      core::DataMessage msg;
      msg.stream_id = {1, 0};
      msg.sequence = next_seq++;
      msg.payload = util::Bytes(24);
      runtime.filtering().ingest(
          wireless::ReceptionReport{1, -40.0, scheduler.now(), core::encode(msg)});
      outcome.messages_offered += 1;
      if (scheduler.now() < flood_end) scheduler.schedule_after(Duration::millis(1), inject);
    };
    inject();
    runtime.run_for(Duration::seconds(3));  // flood + crash + promotion + drain
  }

  for (const auto& [key, count] : counts) {
    outcome.messages_delivered += 1;
    if (count > 1) outcome.duplicates_after_promotion += count - 1;
  }
  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  outcome.latency_ms = snap.gauge("garnet.recovery.latency_ns") / 1e6;
  outcome.ops_replayed = static_cast<double>(snap.counter("garnet.recovery.ops_replayed"));
  outcome.stash_replayed =
      static_cast<double>(snap.counter("garnet.dispatch.recovery_replayed"));
  outcome.checkpoints_taken = static_cast<double>(snap.counter("garnet.checkpoint.taken"));
  outcome.inputs_lost = static_cast<double>(snap.counter("garnet.recovery.inputs_lost"));

  if (json_out != nullptr) {
    obs::MetricsRegistry& registry = runtime.telemetry().registry;
    registry.add_collector([&outcome](obs::SnapshotBuilder& out) {
      out.gauge("bench.recovery.latency_ms", outcome.latency_ms);
      out.gauge("bench.recovery.duplicates_after_promotion",
                outcome.duplicates_after_promotion);
      out.gauge("bench.recovery.messages_offered", outcome.messages_offered);
      out.gauge("bench.recovery.messages_delivered", outcome.messages_delivered);
    });
    *json_out = obs::render_json(registry.snapshot());
  }
  return outcome;
}

/// Args: checkpoint interval (ms) — shorter means less tail to replay;
/// watchdog miss threshold (beats of 100ms) — smaller detects faster.
void BM_CrashRecovery(benchmark::State& state) {
  const auto checkpoint_ms = state.range(0);
  const auto miss_threshold = static_cast<std::uint32_t>(state.range(1));

  RecoveryOutcome outcome;
  for (auto _ : state) {
    outcome = run_crash_cycle({.checkpoint_ms = checkpoint_ms, .miss_threshold = miss_threshold});
    benchmark::DoNotOptimize(&outcome);
  }
  state.counters["recovery_latency_ms"] = outcome.latency_ms;
  state.counters["ops_replayed"] = outcome.ops_replayed;
  state.counters["stash_replayed"] = outcome.stash_replayed;
  state.counters["duplicates"] = outcome.duplicates_after_promotion;
  state.counters["checkpoints"] = outcome.checkpoints_taken;
  state.counters["delivered"] = outcome.messages_delivered;

  // Machine-readable exposition for the canonical cell (the defaults:
  // 250ms cadence, 3-miss detection). scripts/ci.sh asserts zero
  // post-promotion duplicates and full recovery on it.
  if (checkpoint_ms == 250 && miss_threshold == 3) {
    std::string json;
    run_crash_cycle({.checkpoint_ms = checkpoint_ms, .miss_threshold = miss_threshold}, &json);
    write_bench_report("recovery", json);
  }
}
BENCHMARK(BM_CrashRecovery)
    ->ArgsProduct({{100, 250, 500}, {2, 3, 5}})
    ->ArgNames({"ckpt_ms", "miss_thresh"})
    ->Unit(benchmark::kMillisecond);

/// A3 — Arg: watchdog heartbeat interval (ms); detection takes
/// miss_threshold (3) beats, the first of which lands on the crash.
void BM_FilteringCrash(benchmark::State& state) {
  const CrashCycle cycle{.heartbeat_ms = state.range(0), .late_copies = true};

  RecoveryOutcome outcome;
  for (auto _ : state) {
    outcome = run_crash_cycle(cycle);
    benchmark::DoNotOptimize(&outcome);
  }
  state.counters["detection_ms"] = outcome.latency_ms;
  state.counters["inputs_lost"] = outcome.inputs_lost;
  state.counters["duplicates"] = outcome.duplicates_after_promotion;
  state.counters["delivered"] = outcome.messages_delivered;
  state.counters["offered"] = outcome.messages_offered;
}
BENCHMARK(BM_FilteringCrash)
    ->Arg(20)
    ->Arg(100)
    ->Arg(500)
    ->ArgName("heartbeat_ms")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace garnet::bench

BENCHMARK_MAIN();
