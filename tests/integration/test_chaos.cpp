// Chaos suite: the acceptance tests for deterministic fault injection on
// the bus plus retry/backoff in the RPC layer.
//
//   * Under a seeded 20% drop plan, idempotent RPCs with a retry budget
//     all eventually succeed.
//   * With faults confined to the response link, every retry reaches the
//     callee and is absorbed by the at-most-once cache: non-idempotent
//     handlers execute exactly once and deduped == retries exactly.
//   * Two runs from the same seed produce byte-identical fault journals
//     and identical garnet.bus.faults / garnet.rpc.* telemetry.
//   * A partition never promotes a live service (recovery liveness is
//     crash-stop); the replica re-anchors after the heal, and a later
//     promotion still leaks no duplicates.
//   * A data flood saturating the recovery replica's bounded inbox
//     sheds no checkpoint or op-log record, so a promotion mid-flood
//     restores exact dedup state.
//   * An unreachable Resource Manager degrades actuation to an explicit
//     denial instead of a silent stall.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "garnet/runtime.hpp"
#include "net/rpc.hpp"
#include "obs/metrics.hpp"

namespace garnet {
namespace {

using util::Duration;
using util::SimTime;

/// All telemetry this suite asserts determinism over.
std::vector<std::uint64_t> chaos_counters(const obs::MetricsSnapshot& snap) {
  std::vector<std::uint64_t> values;
  for (const char* kind : {"drop", "duplicate", "delay", "reorder", "partition"}) {
    values.push_back(snap.counter("garnet.bus.faults", {{"kind", kind}}));
  }
  for (const char* name : {"garnet.rpc.calls", "garnet.rpc.retries", "garnet.rpc.exhausted",
                           "garnet.rpc.deduped", "garnet.bus.posted", "garnet.bus.delivered"}) {
    values.push_back(snap.counter(name));
  }
  return values;
}

TEST(Chaos, IdempotentCallsAllSucceedUnder20PercentDrop) {
  sim::Scheduler scheduler;
  net::MessageBus::Config config;
  config.faults.seed = 0xC0FFEE;
  config.faults.global.drop = 0.20;
  net::MessageBus bus(scheduler, config);

  net::RpcNode server(bus, "server");
  net::RpcNode client(bus, "client");
  server.expose(1, [](net::Address, util::BytesView args) -> net::RpcResult {
    return util::Bytes(args.begin(), args.end());  // echo
  });

  net::CallOptions options;
  options.timeout = Duration::millis(5);
  options.retries = 8;  // acceptance floor is >= 5
  options.backoff = Duration::millis(1);
  options.idempotent = true;

  constexpr std::uint32_t kCalls = 40;
  std::uint32_t succeeded = 0;
  for (std::uint32_t i = 0; i < kCalls; ++i) {
    util::ByteWriter w(4);
    w.u32(i);
    client.call(server.address(), 1, std::move(w).take(), options,
                [&, expected = i](net::RpcResult result) {
                  ASSERT_TRUE(result.ok()) << "call " << expected << " exhausted its budget";
                  util::ByteReader r(result.value());
                  EXPECT_EQ(r.u32(), expected);
                  ++succeeded;
                });
  }
  scheduler.run();

  EXPECT_EQ(succeeded, kCalls);
  EXPECT_EQ(bus.rpc_stats().exhausted, 0u);
  EXPECT_GT(bus.rpc_stats().retries, 0u);  // the plan really did bite
  ASSERT_NE(bus.fault_injector(), nullptr);
  EXPECT_GT(bus.fault_injector()->counters().dropped, 0u);
}

TEST(Chaos, ResponseLinkFaultsDedupEqualsRetriesExactly) {
  // Faults only on server->client: every request arrives, so every
  // retry is a duplicate the callee's cache must absorb.
  sim::Scheduler scheduler;
  net::MessageBus::Config config;
  config.faults.seed = 7;
  config.faults.links[{"server", "client"}].drop = 0.30;
  net::MessageBus bus(scheduler, config);

  net::RpcNode server(bus, "server");
  net::RpcNode client(bus, "client");
  std::uint32_t executions = 0;
  server.expose(1, [&](net::Address, util::BytesView) -> net::RpcResult {
    ++executions;
    return util::to_bytes("ok");
  });

  net::CallOptions options;
  options.timeout = Duration::millis(5);
  options.retries = 10;
  options.backoff = Duration::millis(1);
  // Non-idempotent on purpose: execute-at-most-once is the property.

  constexpr std::uint32_t kCalls = 30;
  std::uint32_t succeeded = 0;
  for (std::uint32_t i = 0; i < kCalls; ++i) {
    client.call(server.address(), 1, {}, options, [&](net::RpcResult result) {
      ASSERT_TRUE(result.ok());
      ++succeeded;
    });
  }
  scheduler.run();

  EXPECT_EQ(succeeded, kCalls);
  EXPECT_EQ(executions, kCalls);  // retries never re-executed the handler
  EXPECT_GT(bus.rpc_stats().retries, 0u);
  // Every retry-induced duplicate request — and nothing else — hit the
  // cache: the two counters must agree to the message.
  EXPECT_EQ(bus.rpc_stats().deduped, bus.rpc_stats().retries);
}

TEST(Chaos, SameSeedByteIdenticalJournalAndTelemetry) {
  const auto run_once = [] {
    sim::Scheduler scheduler;
    obs::MetricsRegistry registry;
    net::MessageBus::Config config;
    config.faults.seed = 0xDECAF;
    config.faults.global.drop = 0.15;
    config.faults.global.duplicate = 0.10;
    config.faults.global.reorder = 0.10;
    config.faults.journal_limit = 4096;
    net::MessageBus bus(scheduler, config);
    bus.set_metrics(registry);

    net::RpcNode server(bus, "server");
    net::RpcNode client(bus, "client");
    server.expose(1, [](net::Address, util::BytesView) -> net::RpcResult {
      return util::to_bytes("pong");
    });

    net::CallOptions options;
    options.timeout = Duration::millis(5);
    options.retries = 6;
    options.backoff = Duration::millis(1);
    options.idempotent = true;
    for (int i = 0; i < 50; ++i) {
      client.call(server.address(), 1, {}, options, [](net::RpcResult) {});
    }
    scheduler.run();

    return std::make_pair(bus.fault_injector()->journal_text(),
                          chaos_counters(registry.snapshot()));
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);  // byte-identical fault sequence
  EXPECT_FALSE(first.first.empty());
  EXPECT_EQ(first.second, second.second);  // identical telemetry counters
}

TEST(Chaos, RuntimeChaosRunsAreReplayable) {
  // Same property through the full Runtime: the FaultPlan rides in on
  // Runtime::Config and the telemetry replays counter-for-counter.
  const auto run_once = [] {
    Runtime::Config config;
    config.field.seed = 77;
    config.faults.seed = 0xBEEF;
    config.faults.global.drop = 0.25;
    config.faults.global.duplicate = 0.10;
    Runtime runtime(config);
    runtime.deploy_receivers(4, 400);
    runtime.deploy_transmitters(1, 900);

    wireless::SensorField::PopulationSpec population;
    population.count = 3;
    population.interval_ms = 200;
    runtime.deploy_population(population);

    core::Consumer consumer(runtime.bus(), "consumer.chaos");
    runtime.provision(consumer, "chaos");
    consumer.subscribe(core::StreamPattern::everything());
    runtime.run_for(Duration::millis(20));
    runtime.start_sensors();
    runtime.run_for(Duration::seconds(1));
    consumer.request_update({1, 0}, core::UpdateAction::kSetIntervalMs, 150, {});
    runtime.run_for(Duration::seconds(1));

    return chaos_counters(runtime.telemetry().registry.snapshot());
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
  // The plan actually dropped traffic (index 0 = faults{kind=drop}).
  EXPECT_GT(first[0], 0u);
}

/// A lossless radio, and the recovery harness at 100ms heartbeats and a
/// 250ms checkpoint cadence.
Runtime::Config radio_recovery_config() {
  Runtime::Config config;
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  config.recovery.enabled = true;
  config.recovery.heartbeat_interval = Duration::millis(100);
  config.recovery.miss_threshold = 3;
  config.recovery.checkpoint_interval = Duration::millis(250);
  return config;
}

/// Schedules `frames` radio frames at 100Hz from t=100ms, each heard a
/// second time `late` after the first (a slow relay path).
void schedule_late_copy_traffic(Runtime& runtime, core::SequenceNo frames, Duration late) {
  for (core::SequenceNo seq = 0; seq < frames; ++seq) {
    core::DataMessage msg;
    msg.stream_id = {1, 0};
    msg.sequence = seq;
    msg.payload = util::to_bytes("x");
    const SimTime at = SimTime{} + Duration::millis(100 + 10 * seq);
    for (const SimTime when : {at, at + late}) {
      runtime.scheduler().schedule_at(when, [&runtime, frame = core::encode(msg)] {
        runtime.field().medium().uplink({500, 500}, frame);
      });
    }
  }
}

TEST(Chaos, PartitionDoesNotPromoteAndReplicaResyncsAfterHeal) {
  // The replica is cut off from t=0.5s to t=1.5s: checkpoints and op-log
  // records die in the partition, but the watchdog reads crash-stop
  // liveness, not the network, so nothing is promoted. After the heal
  // the next checkpoint re-anchors the replica, and a real crash at
  // t=2s promotes from it without a single duplicate.
  Runtime::Config config = radio_recovery_config();
  {
    net::FaultPlan::PartitionSpec partition;
    partition.name = "replica-cut";
    partition.members = {RecoveryHarness::kReplicaEndpointName};
    partition.opens_at = SimTime{} + Duration::millis(500);
    partition.heals_at = SimTime{} + Duration::millis(1500);
    config.faults.partitions.push_back(partition);
  }
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "filtering";
    crash.at = SimTime{} + Duration::seconds(2);
    config.faults.crashes.push_back(crash);
  }
  Runtime runtime(config);
  runtime.deploy_receivers(1, 5000);
  core::Consumer consumer(runtime.bus(), "consumer.chaos");
  runtime.provision(consumer, "chaos");
  consumer.subscribe(core::StreamPattern::everything());
  std::map<core::SequenceNo, int> delivered;
  consumer.set_data_handler([&](const core::DeliveryView& d) { ++delivered[d.message.sequence]; });
  schedule_late_copy_traffic(runtime, 250, Duration::millis(500));

  const auto stored = [&] {
    return runtime.telemetry().registry.snapshot().counter("garnet.checkpoint.stored");
  };
  runtime.run_for(Duration::millis(600));  // cut at 0.5s
  const std::uint64_t stored_at_cut = stored();
  runtime.run_for(Duration::millis(850));  // t=1.45s, still cut
  EXPECT_EQ(stored(), stored_at_cut);      // the partition ate the 0.75/1.0/1.25s frames
  runtime.run_for(Duration::millis(450));  // t=1.9s, healed at 1.5s
  EXPECT_GT(stored(), stored_at_cut);      // the 1.75s frames re-anchored the replica

  const obs::MetricsSnapshot healed = runtime.telemetry().registry.snapshot();
  EXPECT_GT(healed.counter("garnet.bus.faults", {{"kind", "partition"}}), 0u);
  EXPECT_EQ(healed.counter("garnet.recovery.promotions"), 0u);
  EXPECT_EQ(healed.counter("garnet.recovery.crashes"), 0u);

  runtime.run_for(Duration::seconds(2));
  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  EXPECT_EQ(snap.counter("garnet.recovery.promotions"), 1u);
  EXPECT_EQ(delivered.size(), 250u);
  for (const auto& [seq, count] : delivered) EXPECT_EQ(count, 1) << "sequence " << seq;
}

TEST(Chaos, PromotionRestoresThroughSaturatedReplicaInbox) {
  // Combined overload + crash chaos: the recovery replica's bounded
  // inbox is kept saturated by a data-plane flood for the whole run,
  // and filtering is crash-stopped mid-flood. Checkpoints and op-log
  // records are control class, so they displace flood data instead of
  // being shed: every one lands, and the promotion restores dedup state
  // that lets no late radio copy through twice.
  Runtime::Config config = radio_recovery_config();
  {
    // Room for one checkpoint burst (the four managed services post
    // their frames on the same tick) plus op-log records in flight. A
    // smaller inbox overflows with control traffic alone, and an
    // all-control inbox sheds control by the bus's contract.
    net::InboxConfig inbox;
    inbox.capacity = 8;
    inbox.policy = net::OverflowPolicy::kDropOldest;
    inbox.service_time = Duration::millis(1);
    config.overload.inboxes[RecoveryHarness::kReplicaEndpointName] = inbox;
  }
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "filtering";
    crash.at = SimTime{} + Duration::seconds(1);
    config.faults.crashes.push_back(crash);
  }
  Runtime runtime(config);
  runtime.deploy_receivers(1, 5000);
  core::Consumer consumer(runtime.bus(), "consumer.chaos");
  runtime.provision(consumer, "chaos");
  consumer.subscribe(core::StreamPattern::everything());
  std::map<core::SequenceNo, int> delivered;
  consumer.set_data_handler([&](const core::DeliveryView& d) { ++delivered[d.message.sequence]; });
  schedule_late_copy_traffic(runtime, 150, Duration::millis(500));

  // Data-plane flood aimed at the replica, refreshed faster than its
  // inbox drains so the queue stays pinned at capacity.
  net::MessageBus& bus = runtime.bus();
  sim::Scheduler& scheduler = runtime.scheduler();
  const net::Address flooder = bus.add_endpoint("chaos.flooder", [](net::Envelope) {});
  const auto replica = bus.lookup(RecoveryHarness::kReplicaEndpointName);
  ASSERT_TRUE(replica.has_value());
  std::function<void()> flood = [&] {
    for (int i = 0; i < 8; ++i) {
      bus.post(flooder, *replica, net::app_type(0), util::SharedBytes{util::to_bytes("junk")});
    }
    if (scheduler.now() < SimTime{} + Duration::millis(2900)) {
      scheduler.schedule_after(Duration::millis(2), flood);
    }
  };
  flood();

  // Healthy filtering + saturated replica inbox: no false promotion.
  runtime.run_for(Duration::millis(990));
  EXPECT_EQ(runtime.telemetry().registry.snapshot().counter("garnet.recovery.promotions"), 0u);
  EXPECT_GT(bus.shed_stats().data_total(), 0u);  // the flood really overflowed

  // The crash at t=1s is detected within heartbeat_interval *
  // miss_threshold despite the saturation; traffic (late copies
  // included) ends by t=2.1s, the flood runs on to t=2.9s.
  runtime.run_for(Duration::millis(1610));
  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  EXPECT_EQ(snap.counter("garnet.recovery.promotions"), 1u);
  EXPECT_LE(snap.gauge("garnet.recovery.latency_ns"),
            static_cast<double>(Duration::millis(300).ns));

  // Every checkpoint and op-log record reached the replica mid-flood.
  EXPECT_GT(snap.counter("garnet.checkpoint.taken"), 0u);
  EXPECT_EQ(snap.counter("garnet.checkpoint.stored"), snap.counter("garnet.checkpoint.taken"));
  EXPECT_EQ(snap.counter("garnet.checkpoint.rejected"), 0u);
  EXPECT_GT(snap.counter("garnet.recovery.ops_logged"), 0u);
  EXPECT_EQ(snap.counter("garnet.recovery.ops_replicated"),
            snap.counter("garnet.recovery.ops_logged"));
  // The structural invariant: only data-plane traffic was shed.
  EXPECT_EQ(bus.shed_stats().control_total(), 0u);

  // The promotion restored exact dedup state: no frame twice, and every
  // frame lost in the detection window arrived by its late copy.
  EXPECT_EQ(delivered.size(), 150u);
  for (const auto& [seq, count] : delivered) EXPECT_EQ(count, 1) << "sequence " << seq;
}

TEST(Chaos, UnreachableResourceManagerDegradesToDenial) {
  // The Resource Manager is partitioned off from t=0 and never heals.
  // Actuation demands must come back *denied* within the approval retry
  // budget — an explicit degraded outcome, not a stall.
  Runtime::Config config;
  {
    net::FaultPlan::PartitionSpec partition;
    partition.name = "rm-island";
    partition.members = {core::ResourceManager::kEndpointName};
    partition.opens_at = SimTime{};  // open immediately
    config.faults.partitions.push_back(partition);
  }
  Runtime runtime(config);

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");

  std::optional<core::Admission> admission;
  consumer.request_update({1, 0}, core::UpdateAction::kSetIntervalMs, 500,
                          [&](std::uint32_t, core::Admission a, std::uint32_t) { admission = a; });
  runtime.run_for(Duration::seconds(1));

  ASSERT_TRUE(admission.has_value()) << "degraded path must still answer the consumer";
  EXPECT_EQ(*admission, core::Admission::kDenied);
  EXPECT_GE(runtime.actuation().stats().approval_unreachable, 1u);

  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  EXPECT_GE(snap.counter("garnet.actuation.approval_unreachable"), 1u);
  EXPECT_GE(snap.counter("garnet.rpc.exhausted"), 1u);
  EXPECT_GT(snap.counter("garnet.bus.faults", {{"kind", "partition"}}), 0u);
}

}  // namespace
}  // namespace garnet
