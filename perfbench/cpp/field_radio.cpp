// field_radio: the paper's Figure-1 path. A random-waypoint field of
// 1000 sensors samples once a second over a lossless radio; a grid of
// 49 receivers covers the whole field with overlap (about three copies
// per frame, as in experiment E9), and one firehose consumer receives
// every unique message. A run repeats identical rounds, each on a fresh
// Runtime, until its time is spent.
#include <cmath>
#include <cstdio>
#include <memory>

#include "checks.hpp"
#include "core/consumer.hpp"
#include "garnet/runtime.hpp"
#include "measure.hpp"
#include "sim/mobility.hpp"
#include "util/shared_bytes.hpp"
#include "wireless/tree.hpp"

namespace perfbench {

namespace {

using garnet::util::Duration;

constexpr std::size_t kSensors = 1000;
// A full 7 x 7 grid: sim::grid_layout leaves the last row short when the
// count is not a square, and that strip of the field would go unheard.
constexpr std::size_t kReceivers = 49;
constexpr double kMaxSpeed = 2.0;
constexpr Duration kRoundSpan = Duration::seconds(30);
constexpr Duration kDrain = Duration::seconds(1);
const double kSide = std::sqrt(static_cast<double>(kSensors)) * 120.0;
const double kRange = kSide / std::sqrt(static_cast<double>(kReceivers)) + 80.0;

enum class Mode {
  kPlain,    ///< The Runtime's own wiring, untouched.
  kWrapped,  ///< Each layer's entry point wrapped in a LayerScope.
  kSimOnly,  ///< The uplink sink replaced by a counter: radio + mobility only.
};

struct Layers {
  LayerAccount loop;      ///< Runtime::run_for.
  LayerAccount ingest;    ///< FilteringService::ingest (incl. its sinks).
  LayerAccount location;  ///< LocationService::observe.
  LayerAccount dispatch;  ///< DispatchingService::on_filtered (incl. posts).
  LayerAccount handler;   ///< The benchmark's own consumer handler.
};

struct Round {
  FieldChecker::Outcome outcome;
  std::uint64_t digest = 0;
  std::uint64_t received = 0;    ///< Consumer deliveries.
  std::uint64_t messages = 0;    ///< Unique messages out of filtering.
  std::uint64_t copies = 0;      ///< Copies into filtering (or counted, kSimOnly).
  std::uint64_t samples = 0;     ///< Samples generated.
  std::int64_t wall_ns = 0;      ///< Measured phase.
  std::int64_t cpu_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t envelopes = 0;
  std::uint64_t spans = 0;
  AllocCounts allocs;
  std::uint64_t payload_allocs = 0;
  std::uint64_t payload_copies = 0;
  double latency_p50_ns = 0;
  double latency_p99_ns = 0;
  Layers layers;
};

Round run_round(std::uint64_t seed, Mode mode, bool tracing, Result& result) {
  garnet::Runtime::Config config;
  config.field.area = {{0, 0}, {kSide, kSide}};
  config.field.seed = mix64(seed ^ 0xF1E1D);
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  config.trace.enabled = tracing;
  garnet::Runtime runtime(config);
  runtime.deploy_receivers(kReceivers, kRange);

  FieldChecker checker(mix64(seed ^ 0x6B6579), kSensors);
  std::vector<std::uint32_t> next_index(kSensors, 0);
  SplitMix inputs(mix64(seed ^ 0x1A9075));
  for (std::size_t i = 0; i < kSensors; ++i) {
    const auto id = static_cast<std::uint32_t>(i + 1);
    garnet::wireless::SensorNode::Config sensor;
    sensor.id = id;
    sensor.capabilities.receive_capable = true;
    garnet::wireless::StreamSpec stream;
    stream.id = 0;
    stream.interval_ms = 1000;
    stream.generate = [&checker, &next_index, id](garnet::util::SimTime t, garnet::util::Rng&) {
      const std::uint32_t index = next_index[id - 1]++;
      checker.on_generated(id, index);
      garnet::util::Bytes payload(FieldChecker::kPayloadBytes);
      checker.make_payload(id, index, t.ns, payload);
      return payload;
    };
    sensor.streams.push_back(std::move(stream));
    const double x = inputs.uniform() * kSide;
    const double y = inputs.uniform() * kSide;
    garnet::sim::RandomWaypoint::Config move{
        .area = config.field.area,
        .min_speed_mps = 0.5,
        .max_speed_mps = kMaxSpeed,
        .pause = Duration::seconds(5),
    };
    runtime.deploy_sensor(std::move(sensor),
                          std::make_unique<garnet::sim::RandomWaypoint>(
                              move, garnet::sim::Vec2{x, y}, garnet::util::Rng(inputs.next())));
  }

  Round round;
  Layers& layers = round.layers;
  garnet::core::Consumer consumer(runtime.bus(), "consumer.firehose");
  runtime.provision(consumer, "firehose");
  auto handle = [&](const garnet::core::DeliveryView& d) {
    checker.on_delivered(d.message.stream_id.sensor, d.message.stream_id.stream,
                         d.message.sequence, d.message.payload, runtime.scheduler().now().ns);
  };
  if (mode == Mode::kWrapped) {
    consumer.set_data_handler([&](const garnet::core::DeliveryView& d) {
      LayerScope scope(layers.handler);
      handle(d);
    });
  } else {
    consumer.set_data_handler(handle);
  }
  consumer.subscribe(garnet::core::StreamPattern::everything());

  auto& medium = runtime.field().medium();
  if (mode == Mode::kSimOnly) {
    medium.set_uplink_sink(
        [&round](const garnet::wireless::ReceptionReport&) { ++round.copies; });
  } else if (mode == Mode::kWrapped) {
    // The Runtime's wiring with admission and recovery off, each call
    // into a service wrapped so its time and allocations are attributed.
    auto& filtering = runtime.filtering();
    medium.set_uplink_sink([&](const garnet::wireless::ReceptionReport& report) {
      using Verdict = garnet::wireless::tree::SinkDecision::Verdict;
      auto decision = garnet::wireless::tree::decide_at_sink(report.frame);
      if (decision.verdict == Verdict::kBeacon || decision.verdict == Verdict::kCorrupt) return;
      LayerScope scope(layers.ingest);
      if (decision.verdict == Verdict::kInner) {
        garnet::wireless::ReceptionReport inner = report;
        inner.frame = std::move(decision.inner);
        filtering.ingest(inner);
      } else {
        filtering.ingest(report);
      }
    });
    filtering.set_message_sink(
        [&](const garnet::core::DataMessage& message, garnet::util::SimTime heard) {
          LayerScope scope(layers.dispatch);
          runtime.dispatch().on_filtered(message, heard);
        });
    filtering.set_reception_sink([&](const garnet::core::ReceptionEvent& event) {
      LayerScope scope(layers.location);
      runtime.location().observe(event);
    });
  }
  runtime.run_for(Duration::millis(50));  // the subscribe RPC settles
  mark_setup_done();

  const std::uint64_t events0 = runtime.scheduler().executed();
  const std::uint64_t posted0 =
      runtime.telemetry().registry.snapshot().counter("garnet.bus.posted");
  const std::uint64_t spans0 = runtime.telemetry().tracer.stats().spans;
  const garnet::util::PayloadStats payload0 = garnet::util::payload_stats();
  const AllocCounts allocs0 = alloc_counts();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t wall0 = wall_ns();
  {
    LayerScope scope(layers.loop);
    runtime.start_sensors();
    runtime.run_for(kRoundSpan);
    runtime.field().stop_all();
    runtime.run_for(kDrain);
  }
  round.wall_ns = wall_ns() - wall0;
  round.cpu_ns = process_cpu_ns() - cpu0;
  const AllocCounts allocs1 = alloc_counts();
  round.allocs = {allocs1.allocs - allocs0.allocs, allocs1.bytes - allocs0.bytes};
  const garnet::util::PayloadStats payload1 = garnet::util::payload_stats();
  round.payload_allocs = payload1.allocations - payload0.allocations;
  round.payload_copies = payload1.copies - payload0.copies;
  round.events = runtime.scheduler().executed() - events0;
  round.envelopes =
      runtime.telemetry().registry.snapshot().counter("garnet.bus.posted") - posted0;
  round.spans = runtime.telemetry().tracer.stats().spans - spans0;

  for (const std::uint32_t n : next_index) round.samples += n;
  if (mode == Mode::kSimOnly) return round;

  // --- checks ---------------------------------------------------------------
  round.outcome = checker.finish();
  round.digest = checker.digest();
  round.received = consumer.received();
  const garnet::core::FilteringStats& fs = runtime.filtering().stats();
  const garnet::core::DispatchStats& ds = runtime.dispatch().stats();
  round.messages = fs.messages_out;
  round.copies = fs.copies_in;
  result.require(round.received == fs.messages_out && round.received == ds.copies_delivered &&
                     round.received == round.outcome.delivered,
                 "consumer count != filtering.messages_out / dispatch.copies_delivered");
  result.require(fs.copies_in ==
                     fs.messages_out + fs.duplicates_dropped + fs.stale_dropped + fs.malformed,
                 "filtering copies_in does not balance");
  result.require(round.outcome.foreign == 0, "delivery of a sample never generated");
  if (round.outcome.failed > 0) {
    std::fprintf(stderr,
                 "field_radio: %llu of %llu samples failed (missing %llu, duplicated %llu, "
                 "corrupt %llu, out of order %llu)\n",
                 static_cast<unsigned long long>(round.outcome.failed),
                 static_cast<unsigned long long>(round.outcome.attempted),
                 static_cast<unsigned long long>(round.outcome.missing),
                 static_cast<unsigned long long>(round.outcome.duplicated),
                 static_cast<unsigned long long>(round.outcome.corrupt),
                 static_cast<unsigned long long>(round.outcome.out_of_order));
  }
  for (std::uint32_t id = 1; id <= kSensors; ++id) {
    const auto estimate = runtime.location().estimate(id);
    const garnet::wireless::SensorNode* sensor = runtime.field().find_sensor(id);
    // Observations are stamped on reception, up to one radio hop after
    // the sample, so the window gets that hop's latency + jitter on top.
    const double window_s = 15.0 + 0.0045;
    const bool ok = estimate.has_value() && sensor != nullptr &&
                    location_within_bound(estimate->position.x, estimate->position.y,
                                          sensor->position().x, sensor->position().y, kRange,
                                          kMaxSpeed, window_s);
    if (!ok) {
      if (estimate && sensor) {
        std::fprintf(stderr, "sensor %u: estimate (%.1f, %.1f) true (%.1f, %.1f) radius %.1f\n", id,
                     estimate->position.x, estimate->position.y, sensor->position().x,
                     sensor->position().y, estimate->radius_m);
      }
      result.fail("location estimate of sensor " + std::to_string(id) + " out of bound");
      break;
    }
  }
  std::vector<double> latencies = checker.latencies_ns();
  round.latency_p50_ns = quantile(latencies, 0.50);
  round.latency_p99_ns = quantile(latencies, 0.99);
  return round;
}

void account(Result& result, const Round& round) {
  result.attempted += round.outcome.attempted;
  result.failed += round.outcome.failed;
}

Result end_to_end(const Options& options) {
  Result result;
  repeat_rounds(result, options.seconds, [&] {
    const Round round = run_round(options.seed, Mode::kPlain, true, result);
    return RoundFigures{round.outcome.attempted, round.outcome.failed, round.received, round.wall_ns,
                        round.cpu_ns, round.latency_p50_ns, round.latency_p99_ns};
  });
  return result;
}

}  // namespace

Result run_field_radio(const Options& options) { return end_to_end(options); }

void trace_field_radio(const Options& options, Result& result) {
  constexpr int kReps = 3;
  std::vector<double> sim_radio, events, copies_per, useful, filtering_self, location, dispatch,
      bus_deliver, tracer, spans, envelopes, heap_allocs, heap_bytes, payload_allocs,
      payload_copies, filtering_allocs, location_allocs, dispatch_allocs;
  for (int rep = 0; rep < kReps; ++rep) {
    const Round wrapped = run_round(options.seed, Mode::kWrapped, true, result);
    const Round plain = run_round(options.seed, Mode::kPlain, true, result);
    const Round untraced = run_round(options.seed, Mode::kPlain, false, result);
    const Round sim = run_round(options.seed, Mode::kSimOnly, true, result);
    for (const Round* r : {&wrapped, &plain, &untraced}) account(result, *r);
    result.require(wrapped.digest == plain.digest && plain.digest == untraced.digest &&
                       wrapped.received == plain.received && plain.received == untraced.received,
                   "wrapped or untraced run delivered another message set than the plain run");
    result.require(sim.samples == plain.samples && sim.copies == plain.copies,
                   "sim-only run generated another radio workload");

    const auto msgs = static_cast<double>(plain.messages);
    const auto n_copies = static_cast<double>(plain.copies);
    const Layers& l = wrapped.layers;
    const double sim_ns = per(static_cast<double>(sim.wall_ns), static_cast<double>(sim.samples));
    sim_radio.push_back(sim_ns);
    events.push_back(per(static_cast<double>(plain.events), msgs));
    copies_per.push_back(per(n_copies, msgs));
    useful.push_back(per(msgs, n_copies));
    const double self_ns = static_cast<double>(l.ingest.ns - l.dispatch.ns - l.location.ns);
    filtering_self.push_back(per(self_ns, n_copies));
    location.push_back(per(static_cast<double>(l.location.ns), static_cast<double>(l.location.calls)));
    dispatch.push_back(per(static_cast<double>(l.dispatch.ns), msgs));
    bus_deliver.push_back(
        per(static_cast<double>(l.loop.ns - l.ingest.ns - l.handler.ns), msgs) - sim_ns);
    tracer.push_back(per(static_cast<double>(plain.wall_ns - untraced.wall_ns), msgs));
    spans.push_back(per(static_cast<double>(plain.spans), msgs));
    envelopes.push_back(per(static_cast<double>(plain.envelopes), msgs));
    heap_allocs.push_back(per(static_cast<double>(plain.allocs.allocs), msgs));
    heap_bytes.push_back(per(static_cast<double>(plain.allocs.bytes), msgs));
    payload_allocs.push_back(per(static_cast<double>(plain.payload_allocs), msgs));
    payload_copies.push_back(per(static_cast<double>(plain.payload_copies), msgs));
    filtering_allocs.push_back(
        per(static_cast<double>(l.ingest.allocs - l.dispatch.allocs - l.location.allocs), n_copies));
    location_allocs.push_back(per(static_cast<double>(l.location.allocs), n_copies));
    dispatch_allocs.push_back(per(static_cast<double>(l.dispatch.allocs), msgs));
  }
  result.add("field.sim_radio_ns_per_msg", median(sim_radio), "ns");
  result.add("field.sim_events_per_msg", median(events), "count");
  result.add("field.copies_per_msg", median(copies_per), "count");
  result.add("field.filtering_useful_ratio", median(useful), "ratio");
  result.add("field.filtering_self_ns_per_copy", median(filtering_self), "ns");
  result.add("field.location_ns_per_copy", median(location), "ns");
  result.add("field.dispatch_self_ns_per_msg", median(dispatch), "ns");
  result.add("field.bus_deliver_ns_per_msg", median(bus_deliver), "ns");
  result.add("field.tracer_ns_per_msg", median(tracer), "ns");
  result.add("field.spans_per_msg", median(spans), "count");
  result.add("field.envelopes_per_msg", median(envelopes), "count");
  result.add("field.heap_allocs_per_msg", median(heap_allocs), "count");
  result.add("field.heap_bytes_per_msg", median(heap_bytes), "B");
  result.add("field.payload_allocs_per_msg", median(payload_allocs), "count");
  result.add("field.payload_copies_per_msg", median(payload_copies), "count");
  result.add("field.filtering_allocs_per_copy", median(filtering_allocs), "count");
  result.add("field.location_allocs_per_copy", median(location_allocs), "count");
  result.add("field.dispatch_allocs_per_msg", median(dispatch_allocs), "count");
}

}  // namespace perfbench
