// Crash-recovery acceptance suite: scheduled process crashes from the
// FaultPlan kill the stateful services mid-stream and the recovery
// harness brings them back from checkpoint + op-log replay.
//
//   * Crashing the dispatcher mid-flood with overload control active:
//     the promoted service resumes credit windows, replays the
//     orphanage stash, never double-delivers, and the shed journal
//     still contains no control-plane sheds.
//   * A seeded plan crashing and restarting each stateful service
//     (filtering, dispatch, location, catalog) completes with zero
//     duplicate deliveries and all four services recovered.
//   * Two runs from the same seed produce byte-identical fault and
//     shed journals and identical recovery telemetry.
//   * Filtering failover (FailoverFixture): over the radio path, the
//     watchdog promotes a crashed filtering within heartbeat x
//     miss_threshold, the promoted replica's dedup state (checkpoint +
//     op-log tail) keeps late radio copies of already-delivered frames
//     from leaking as duplicates, and frames lost in the detection
//     window still arrive by their late copies.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>

#include "garnet/runtime.hpp"
#include "obs/metrics.hpp"

namespace garnet {
namespace {

using util::Duration;
using util::SimTime;

/// Counts deliveries per (stream, sequence); the suite's core invariant
/// is that no pair is ever seen twice.
struct DeliveryLedger {
  std::map<std::pair<std::uint32_t, core::SequenceNo>, int> counts;

  void attach(core::Consumer& consumer) {
    consumer.set_data_handler([this](const core::DeliveryView& d) {
      ++counts[{d.message.stream_id.packed(), d.message.sequence}];
    });
  }

  [[nodiscard]] int max_count() const {
    int most = 0;
    for (const auto& [key, count] : counts) most = std::max(most, count);
    return most;
  }
  [[nodiscard]] std::size_t distinct() const { return counts.size(); }
};

wireless::ReceptionReport make_report(core::SequenceNo seq, SimTime now,
                                      wireless::ReceiverId receiver = 1) {
  core::DataMessage msg;
  msg.stream_id = {1, 0};
  msg.sequence = seq;
  msg.payload = util::to_bytes("flood");
  return {receiver, -40.0, now, core::encode(msg)};
}

TEST(CrashRecovery, DispatchCrashMidFloodKeepsOverloadAndDeliveryInvariants) {
  // Satellite scenario: the dispatcher dies under load while a straggler
  // is forcing data sheds. The watchdog must promote it, the stash must
  // replay the crash-window messages, credit flow must resume — and the
  // overload layer's contract (control-plane never shed) must hold
  // across the promotion.
  Runtime::Config config;
  config.overload.credit_window = 32;
  config.overload.shed_journal_limit = 1 << 14;
  {
    net::InboxConfig fast;
    fast.capacity = 64;
    fast.policy = net::OverflowPolicy::kDropOldest;
    fast.service_time = Duration::micros(20);
    config.overload.inboxes["consumer.fast"] = fast;
    net::InboxConfig slow = fast;
    slow.capacity = 8;
    slow.service_time = Duration::millis(2);
    config.overload.inboxes["consumer.slow"] = slow;
  }
  config.recovery.enabled = true;
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "dispatch";
    crash.at = SimTime{} + Duration::millis(520);
    config.faults.crashes.push_back(crash);  // no restart: watchdog promotes
  }
  Runtime runtime(config);
  ASSERT_NE(runtime.recovery(), nullptr);

  core::Consumer fast(runtime.bus(), "consumer.fast");
  runtime.provision(fast, "fast");
  fast.subscribe(core::StreamPattern::everything());
  core::Consumer slow(runtime.bus(), "consumer.slow");
  runtime.provision(slow, "slow");
  slow.subscribe(core::StreamPattern::everything());
  DeliveryLedger ledger;
  ledger.attach(fast);
  runtime.run_for(Duration::millis(20));

  // 1ms flood cadence through the filtering service (the real ingest
  // path, so the runtime's crash redirects apply).
  sim::Scheduler& scheduler = runtime.scheduler();
  const SimTime flood_end = scheduler.now() + Duration::millis(1500);
  core::SequenceNo next_seq = 0;
  std::function<void()> inject = [&] {
    runtime.filtering().ingest(make_report(next_seq++, scheduler.now()));
    if (scheduler.now() < flood_end) scheduler.schedule_after(Duration::millis(1), inject);
  };
  inject();

  // Run until just before the crash: deliveries are flowing.
  runtime.run_for(Duration::millis(480));
  const std::size_t before_crash = ledger.distinct();
  EXPECT_GT(before_crash, 0u);

  // Through the crash, the detection window, and the promotion.
  runtime.run_for(Duration::seconds(2));

  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  EXPECT_EQ(snap.counter("garnet.recovery.crashes"), 1u);
  EXPECT_EQ(snap.counter("garnet.recovery.promotions"), 1u);
  EXPECT_EQ(runtime.recovery()->stats().crashes, 1u);
  EXPECT_FALSE(runtime.recovery()->crashed("dispatch"));

  // Crash-window traffic was stashed in the Orphanage and replayed.
  EXPECT_GT(snap.counter("garnet.dispatch.recovery_replayed"), 0u);

  // Credit flow resumed: the healthy consumer kept receiving after the
  // promotion, well past what it had at crash time.
  EXPECT_GT(ledger.distinct(), before_crash);

  // No (stream, seq) was ever delivered twice, through stash replay and
  // credit re-priming included.
  EXPECT_EQ(ledger.max_count(), 1);

  // The overload contract held across the promotion: the straggler
  // forced data sheds, control traffic was never shed.
  EXPECT_GT(runtime.bus().shed_stats().data_total(), 0u);
  EXPECT_EQ(runtime.bus().shed_stats().control_total(), 0u);
}

/// One full deterministic chaos run for the acceptance scenario: all
/// four stateful services crash and restart mid-stream on a schedule.
struct ChaosOutcome {
  std::string fault_journal;
  std::string shed_journal;
  std::vector<std::uint64_t> counters;
  int max_delivery_count = 0;
  std::size_t distinct_deliveries = 0;
  double crashed_at_end = 0;
};

ChaosOutcome run_all_services_chaos(std::uint64_t seed) {
  Runtime::Config config;
  config.field.seed = seed;
  config.faults.seed = 0xD15EA5E;
  config.faults.journal_limit = 1 << 14;
  config.overload.shed_journal_limit = 1 << 14;
  config.recovery.enabled = true;
  const auto schedule_crash = [&](const char* service, std::int64_t at_ms) {
    net::FaultPlan::CrashSpec crash;
    crash.service = service;
    crash.at = SimTime{} + Duration::millis(at_ms);
    crash.restart_after = Duration::millis(180);  // rejoin before the watchdog
    config.faults.crashes.push_back(crash);
  };
  schedule_crash("filtering", 330);
  schedule_crash("dispatch", 730);
  schedule_crash("location", 1130);
  schedule_crash("catalog", 1530);

  Runtime runtime(config);
  runtime.deploy_receivers(4, 400);
  runtime.deploy_transmitters(1, 900);
  wireless::SensorField::PopulationSpec population;
  population.count = 3;
  population.interval_ms = 100;
  runtime.deploy_population(population);

  core::Consumer consumer(runtime.bus(), "consumer.chaos");
  runtime.provision(consumer, "chaos");
  consumer.subscribe(core::StreamPattern::everything());
  DeliveryLedger ledger;
  ledger.attach(consumer);

  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();
  runtime.run_for(Duration::millis(2500));

  ChaosOutcome outcome;
  outcome.fault_journal = runtime.bus().fault_injector()->journal_text();
  outcome.shed_journal = runtime.bus().shed_journal_text();
  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  for (const char* name :
       {"garnet.recovery.crashes", "garnet.recovery.promotions", "garnet.recovery.rejoins",
        "garnet.recovery.ops_logged", "garnet.recovery.ops_replicated",
        "garnet.recovery.ops_replayed", "garnet.checkpoint.taken", "garnet.checkpoint.stored",
        "garnet.checkpoint.rejected", "garnet.recovery.inputs_lost", "garnet.bus.posted",
        "garnet.bus.delivered", "garnet.bus.dropped_endpoint_down",
        "garnet.dispatch.recovery_replayed", "garnet.filtering.messages_out"}) {
    outcome.counters.push_back(snap.counter(name));
  }
  for (const char* kind : {"crash", "restart"}) {
    outcome.counters.push_back(snap.counter("garnet.bus.faults", {{"kind", kind}}));
  }
  outcome.max_delivery_count = ledger.max_count();
  outcome.distinct_deliveries = ledger.distinct();
  outcome.crashed_at_end = snap.gauge("garnet.recovery.crashed");
  return outcome;
}

TEST(CrashRecovery, EveryStatefulServiceCrashesAndRecoversWithoutDuplicates) {
  const ChaosOutcome outcome = run_all_services_chaos(0x5EED);

  // All four crashes fired and every service came back (scheduled
  // restarts land inside the watchdog window, so they count as rejoins).
  EXPECT_EQ(outcome.counters[0], 4u);  // garnet.recovery.crashes
  EXPECT_EQ(outcome.counters[1] + outcome.counters[2], 4u);  // promotions + rejoins
  EXPECT_EQ(outcome.crashed_at_end, 0.0);  // nobody left dead

  // The injector journalled each crash and restart like any other fault.
  EXPECT_NE(outcome.fault_journal.find("crash"), std::string::npos);
  EXPECT_NE(outcome.fault_journal.find("restart"), std::string::npos);

  // The stream kept flowing across all four outages...
  EXPECT_GT(outcome.distinct_deliveries, 0u);
  // ...and no (stream, seq) pair was ever delivered twice: restored
  // dedup windows and sequence cursors close the duplicate leak.
  EXPECT_EQ(outcome.max_delivery_count, 1);
}

TEST(CrashRecovery, SameSeedRunsAreByteIdentical) {
  const ChaosOutcome first = run_all_services_chaos(0x5EED);
  const ChaosOutcome second = run_all_services_chaos(0x5EED);

  // Crash events are pure time triggers: they consume no rng draws, so
  // the whole fault journal — link faults and crash/restart records
  // interleaved — replays byte-for-byte, as does the shed journal and
  // every recovery counter.
  EXPECT_EQ(first.fault_journal, second.fault_journal);
  EXPECT_FALSE(first.fault_journal.empty());
  EXPECT_EQ(first.shed_journal, second.shed_journal);
  EXPECT_EQ(first.counters, second.counters);
  EXPECT_EQ(first.distinct_deliveries, second.distinct_deliveries);
  EXPECT_EQ(first.max_delivery_count, second.max_delivery_count);
}

TEST(CrashRecovery, RestartBeforeDetectionRejoinsWithoutPromotion) {
  // A crash healed by its scheduled restart inside the watchdog window
  // must come back as a rejoin; the watchdog never fires for it.
  Runtime::Config config;
  config.recovery.enabled = true;
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "filtering";
    crash.at = SimTime{} + Duration::millis(200);
    crash.restart_after = Duration::millis(150);
    config.faults.crashes.push_back(crash);
  }
  Runtime runtime(config);
  runtime.run_for(Duration::seconds(1));

  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  EXPECT_EQ(snap.counter("garnet.recovery.crashes"), 1u);
  EXPECT_EQ(snap.counter("garnet.recovery.rejoins"), 1u);
  EXPECT_EQ(snap.counter("garnet.recovery.promotions"), 0u);
  EXPECT_FALSE(runtime.recovery()->crashed("filtering"));
}

TEST(CrashRecovery, FilteringCrashWindowInputsAreAccounted) {
  // Reception reports arriving while filtering is dead die with the
  // process; the runtime books them as lost inputs instead of silently
  // discarding them.
  Runtime::Config config;
  config.field.radio.base_loss = 0.0;  // every uplink frame is heard
  config.field.radio.edge_loss = 0.0;
  config.recovery.enabled = true;
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "filtering";
    crash.at = SimTime{} + Duration::millis(100);
    crash.restart_after = Duration::millis(200);
    config.faults.crashes.push_back(crash);
  }
  Runtime runtime(config);
  runtime.deploy_receivers(1, 5000);  // one receiver covering the field
  runtime.run_for(Duration::millis(150));  // inside the crash window
  ASSERT_TRUE(runtime.recovery()->crashed("filtering"));

  core::DataMessage msg;
  msg.stream_id = {1, 0};
  msg.sequence = 0;
  msg.payload = util::to_bytes("lost");
  runtime.field().medium().uplink({500, 500}, core::encode(msg), 1);
  msg.sequence = 1;
  runtime.field().medium().uplink({500, 500}, core::encode(msg), 1);

  runtime.run_for(Duration::seconds(1));
  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  EXPECT_EQ(snap.counter("garnet.recovery.inputs_lost"), 2u);
  EXPECT_EQ(snap.counter("garnet.recovery.service_inputs_lost", {{"service", "filtering"}}), 2u);
  EXPECT_FALSE(runtime.recovery()->crashed("filtering"));
}

// --- Filtering failover over the radio path ---------------------------------
// Frames enter through the radio medium, so the runtime's crash accounting
// applies: a copy heard while filtering is down is a lost input. A second
// uplink of the same frame is a late radio copy (a slow relay path).

struct FailoverFixture : ::testing::Test {
  static Runtime::Config config() {
    Runtime::Config c;
    c.field.radio.base_loss = 0.0;  // every uplink frame is heard
    c.field.radio.edge_loss = 0.0;
    c.recovery.enabled = true;
    c.recovery.heartbeat_interval = Duration::millis(100);
    c.recovery.miss_threshold = 3;
    c.recovery.checkpoint_interval = Duration::millis(250);
    return c;
  }

  Runtime runtime{config()};
  core::Consumer consumer{runtime.bus(), "consumer.archive"};
  DeliveryLedger ledger;

  void SetUp() override {
    runtime.deploy_receivers(1, 5000);  // one receiver covering the field
    runtime.provision(consumer, "archive");
    consumer.subscribe(core::StreamPattern::everything());
    ledger.attach(consumer);
    runtime.run_for(Duration::millis(20));
  }

  /// Transmits frames [first, last] once each; delivery takes a few ms.
  void send(core::SequenceNo first, core::SequenceNo last) {
    for (core::SequenceNo seq = first; seq <= last; ++seq) {
      core::DataMessage msg;
      msg.stream_id = {1, 0};
      msg.sequence = seq;
      msg.payload = util::to_bytes("x");
      runtime.field().medium().uplink({500, 500}, core::encode(msg));
    }
  }

  /// Times frame `seq` reached the consumer.
  [[nodiscard]] int delivered(core::SequenceNo seq) const {
    const auto it = ledger.counts.find({core::StreamId{1, 0}.packed(), seq});
    return it == ledger.counts.end() ? 0 : it->second;
  }

  void crash() { runtime.recovery()->crash("filtering"); }
  [[nodiscard]] bool promoted() { return counter("garnet.recovery.promotions") == 1; }
  std::uint64_t counter(const char* name) {
    return runtime.telemetry().registry.snapshot().counter(name);
  }
  double gauge(const char* name) { return runtime.telemetry().registry.snapshot().gauge(name); }
};

TEST_F(FailoverFixture, NormalOperationForwardsPrimaryOnly) {
  // Every frame is heard twice; filtering forwards each exactly once.
  send(0, 9);
  send(0, 9);
  runtime.run_for(Duration::millis(50));
  EXPECT_EQ(ledger.distinct(), 10u);
  EXPECT_EQ(ledger.max_count(), 1);
  EXPECT_EQ(counter("garnet.filtering.messages_out"), 10u);
  EXPECT_EQ(counter("garnet.recovery.promotions"), 0u);
}

TEST_F(FailoverFixture, WatchdogPromotesWithinDetectionBudget) {
  runtime.run_for(Duration::seconds(1));
  EXPECT_EQ(counter("garnet.recovery.promotions"), 0u);

  crash();
  runtime.run_for(Duration::seconds(1));
  EXPECT_FALSE(runtime.recovery()->crashed("filtering"));
  EXPECT_EQ(counter("garnet.recovery.promotions"), 1u);
  EXPECT_EQ(counter("garnet.recovery.rejoins"), 0u);
  // 3 misses at 100ms heartbeat: detection within (2..3] beats.
  EXPECT_LE(gauge("garnet.recovery.latency_ns"), static_cast<double>(Duration::millis(300).ns));
  EXPECT_GE(gauge("garnet.recovery.latency_ns"), static_cast<double>(Duration::millis(200).ns));
}

TEST_F(FailoverFixture, PromotionPreservesDedupAcrossFailover) {
  // The A3 scenario in miniature: 100Hz traffic whose every frame is
  // heard again 2s later, filtering crash-stopped at t=2s with no
  // restart. Late copies of frames delivered before the crash straddle
  // the outage; the promoted replica must recognise every one.
  sim::Scheduler& scheduler = runtime.scheduler();
  for (core::SequenceNo seq = 0; seq < 300; ++seq) {
    const SimTime at = SimTime{} + Duration::millis(100 + 10 * seq);
    for (const SimTime when : {at, at + Duration::seconds(2)}) {
      scheduler.schedule_at(when, [this, seq] { send(seq, seq); });
    }
  }
  scheduler.schedule_at(SimTime{} + Duration::seconds(2), [this] { crash(); });
  runtime.run_for(Duration::seconds(6));

  ASSERT_TRUE(promoted());
  EXPECT_GT(counter("garnet.recovery.inputs_lost"), 0u);
  // No duplicates through the promotion...
  EXPECT_EQ(ledger.max_count(), 1);
  // ...and nothing missing: each frame lost in the detection window
  // arrived by its late copy.
  EXPECT_EQ(ledger.distinct(), 300u);
}

TEST_F(FailoverFixture, ColdStandbySeededFromOpLogDeliversNoDuplicates) {
  // Crash before the first checkpoint cadence: the promoted replica's
  // dedup state is pure op-log replay from boot.
  send(0, 4);
  runtime.run_for(Duration::millis(10));
  crash();
  runtime.run_for(Duration::seconds(1));
  ASSERT_TRUE(promoted());
  EXPECT_EQ(counter("garnet.recovery.ops_replayed"), 5u);

  // Late radio copies of the same frames arrive after the promotion:
  // the seeded replica recognises every one.
  send(0, 4);
  send(100, 100);  // and new traffic flows through the promoted replica
  runtime.run_for(Duration::millis(50));
  for (core::SequenceNo seq = 0; seq < 5; ++seq) EXPECT_EQ(delivered(seq), 1) << seq;
  EXPECT_EQ(delivered(100), 1);
}

TEST_F(FailoverFixture, ColdStandbySeededFromCheckpointPlusTail) {
  // Let a checkpoint land, then forward more frames past it: the
  // promotion must combine the snapshot with the op-log tail since its
  // watermark.
  send(0, 4);
  runtime.run_for(Duration::millis(300));  // the 250ms cadence fires
  EXPECT_GE(counter("garnet.checkpoint.stored"), 1u);
  send(5, 7);
  runtime.run_for(Duration::millis(20));

  crash();
  runtime.run_for(Duration::seconds(1));
  ASSERT_TRUE(promoted());
  // Only the post-checkpoint tail (5..7) needed replaying.
  EXPECT_EQ(counter("garnet.recovery.ops_replayed"), 3u);

  send(0, 7);
  runtime.run_for(Duration::millis(50));
  for (core::SequenceNo seq = 0; seq < 8; ++seq) EXPECT_EQ(delivered(seq), 1) << seq;
}

TEST_F(FailoverFixture, DetectionWindowLossIsCounted) {
  crash();
  // Copies heard while filtering is down are lost and accounted.
  send(0, 6);
  runtime.run_for(Duration::millis(50));
  EXPECT_EQ(ledger.distinct(), 0u);
  EXPECT_EQ(counter("garnet.recovery.inputs_lost"), 7u);

  runtime.run_for(Duration::seconds(1));
  ASSERT_TRUE(promoted());
  // Nobody saw those frames, so their late copies are new to the
  // promoted replica: each is delivered, once.
  send(0, 6);
  send(50, 50);
  runtime.run_for(Duration::millis(50));
  for (core::SequenceNo seq = 0; seq < 7; ++seq) EXPECT_EQ(delivered(seq), 1) << seq;
  EXPECT_EQ(delivered(50), 1);
}

TEST_F(FailoverFixture, NoSpontaneousFailover) {
  // 60s of 10Hz traffic, each frame heard twice: every frame forwarded
  // once, and the watchdog never promotes a healthy filtering.
  sim::Scheduler& scheduler = runtime.scheduler();
  for (core::SequenceNo seq = 0; seq < 600; ++seq) {
    scheduler.schedule_at(SimTime{} + Duration::millis(100 * (seq + 1)), [this, seq] {
      send(seq, seq);
      send(seq, seq);
    });
  }
  runtime.run_for(Duration::seconds(60));
  EXPECT_EQ(ledger.distinct(), 600u);
  EXPECT_EQ(ledger.max_count(), 1);
  EXPECT_EQ(counter("garnet.recovery.crashes"), 0u);
  EXPECT_EQ(counter("garnet.recovery.promotions"), 0u);
  EXPECT_EQ(counter("garnet.recovery.inputs_lost"), 0u);
  // The harness ran all along: four services checkpoint every 250ms.
  EXPECT_GT(counter("garnet.checkpoint.taken"), 900u);
}

TEST_F(FailoverFixture, KillIsIdempotent) {
  // A second crash of a service that is already down is a no-op: it
  // neither counts nor restarts the watchdog's miss count, so the
  // promotion still lands within 3 beats of the first crash.
  crash();
  runtime.run_for(Duration::millis(150));
  crash();
  runtime.run_for(Duration::seconds(1));
  EXPECT_EQ(counter("garnet.recovery.crashes"), 1u);
  EXPECT_EQ(counter("garnet.recovery.promotions"), 1u);
  EXPECT_LE(gauge("garnet.recovery.latency_ns"), static_cast<double>(Duration::millis(300).ns));
}

TEST_F(FailoverFixture, ReceptionEventsFollowActiveReplica) {
  send(0, 0);
  runtime.run_for(Duration::millis(50));
  EXPECT_EQ(counter("garnet.location.observations"), 1u);

  crash();
  runtime.run_for(Duration::seconds(1));
  ASSERT_TRUE(promoted());
  // Location keeps receiving reception events from the promoted replica.
  send(1, 1);
  runtime.run_for(Duration::millis(50));
  EXPECT_EQ(counter("garnet.location.observations"), 2u);
}

}  // namespace
}  // namespace garnet
