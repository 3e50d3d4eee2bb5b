// inject_fanout: external frames enter through Runtime::inject_external
// and fan out to 32 in-process consumers. Stream popularity is Zipf
// (s = 1) over 1000 streams, the patterns sit at fixed popularity ranks, payloads are log-uniform in 16 B..4 KB,
// and the consumers' patterns mix `*`, `sid/*`, `*/tag` and exact
// streams. The `*` consumer is subscribed on even batches only, so on
// odd batches the streams nobody else covers go to the Orphanage.
// Every batch, three other consumers resubscribe make-before-break
// while the batch's data is in flight, so subscribe/unsubscribe writes
// run beside data reads without changing who must receive what.
// Dispatch flow control is on with a window no batch can exhaust.
// Radio, filtering and location do no work here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "checks.hpp"
#include "core/consumer.hpp"
#include "garnet/runtime.hpp"
#include "measure.hpp"
#include "util/shared_bytes.hpp"

namespace perfbench {

namespace {

using garnet::util::Duration;

constexpr std::uint32_t kSensors = 250;
constexpr std::uint32_t kTags = 4;
constexpr std::size_t kStreams = kSensors * kTags;
constexpr std::size_t kConsumers = 32;
constexpr std::size_t kBatches = 40;
constexpr std::size_t kBatchSize = 256;
constexpr std::size_t kChurnPerBatch = 3;
constexpr std::size_t kMinPayload = kTagBytes;
constexpr std::size_t kMaxPayload = 4096;
constexpr std::uint32_t kCreditWindow = 4096;
/// Virtual time: subscriptions settle, then each batch is injected at
/// one instant, delivered for kDeliverSpan, and the `*` toggle settles
/// for kToggleSpan before the next batch.
constexpr Duration kSettle = Duration::millis(5);
constexpr Duration kDeliverSpan = Duration::millis(6);
constexpr Duration kToggleSpan = Duration::millis(2);

struct Message {
  std::uint32_t sensor = 0;
  std::uint8_t tag = 0;
  std::uint16_t sequence = 0;  ///< Per stream, from 0.
  std::size_t offset = 0;  ///< Into Inputs::bytes.
  std::size_t size = 0;
};

/// The inputs of one run: made once from the seed, replayed every round.
struct Inputs {
  std::vector<Message> messages;  ///< kBatches * kBatchSize, in injection order.
  std::vector<std::byte> bytes;
  std::vector<std::uint64_t> masks;  ///< Consumers that must receive each message.
  std::vector<std::size_t> churn;    ///< kChurnPerBatch consumers per batch.
  std::size_t orphans = 0;
};

garnet::util::SimTime batch_time(std::size_t batch) {
  return {kSettle.ns + static_cast<std::int64_t>(batch) * (kDeliverSpan.ns + kToggleSpan.ns)};
}

bool star_on(std::size_t batch) { return batch % 2 == 0; }

/// One pattern per consumer; [0] is `*`. The patterns sit at fixed
/// popularity ranks (see make_inputs), so they do not depend on the seed:
/// 1 `*`, 8 `sid/*`, 4 `*/tag` over tags 0-1, 19 exact. Tags 2-3 of
/// sensors no `sid/*` names are covered only by `*` and the odd exact
/// pattern, so on odd batches most of them are orphans.
std::vector<Pattern> consumer_patterns() {
  constexpr std::size_t kSensorRanks[] = {2, 6, 13, 27, 55, 111, 223, 447};
  constexpr std::size_t kExactRanks[] = {0,  1,   3,   4,   9,   14,  21,  33,  48, 70,
                                         99, 140, 199, 280, 399, 560, 700, 850, 990};
  std::vector<Pattern> patterns{Pattern{}};
  for (const std::size_t r : kSensorRanks) patterns.push_back(Pattern{static_cast<std::int64_t>(1 + r / kTags), -1});
  for (int i = 0; i < 4; ++i) patterns.push_back(Pattern{-1, i % 2});
  for (const std::size_t r : kExactRanks) {
    patterns.push_back(Pattern{static_cast<std::int64_t>(1 + r / kTags), static_cast<std::int32_t>(r % kTags)});
  }
  return patterns;
}

Inputs make_inputs(std::uint64_t seed) {
  SplitMix rng(mix64(seed ^ 0xFA9007));
  Inputs in;

  // Zipf(1) popularity: stream index r (sensor 1 + r / 4, tag r % 4) is
  // the r-th most popular. With the patterns at fixed ranks, every seed
  // has the same fan-out shape (copies per message, orphan share); the
  // seed draws the message sequence, the sizes and the churn.
  std::vector<double> cdf(kStreams);
  double total = 0;
  for (std::size_t i = 0; i < kStreams; ++i) cdf[i] = (total += 1.0 / static_cast<double>(i + 1));
  auto draw_stream = [&] {
    const double u = rng.uniform() * total;
    const auto at = static_cast<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return std::min(at, kStreams - 1);
  };

  const std::vector<Pattern> patterns = consumer_patterns();
  std::size_t total_bytes = 0;
  std::vector<std::uint16_t> next_sequence(kStreams, 0);
  const double log_lo = std::log(static_cast<double>(kMinPayload));
  const double log_hi = std::log(static_cast<double>(kMaxPayload));
  for (std::size_t i = 0; i < kBatches * kBatchSize; ++i) {
    const std::size_t s = draw_stream();
    Message m;
    m.sensor = static_cast<std::uint32_t>(1 + s / kTags);
    m.tag = static_cast<std::uint8_t>(s % kTags);
    m.sequence = next_sequence[s]++;
    m.size = static_cast<std::size_t>(std::exp(log_lo + rng.uniform() * (log_hi - log_lo)));
    m.size = std::clamp(m.size, kMinPayload, kMaxPayload);
    m.offset = total_bytes;
    total_bytes += m.size;
    in.messages.push_back(m);
  }
  in.bytes.resize(total_bytes);
  const std::uint64_t key = mix64(seed ^ 0xB17E5);
  for (std::size_t i = 0; i < in.messages.size(); ++i) {
    const Message& m = in.messages[i];
    const std::size_t batch = i / kBatchSize;
    write_tagged(std::span(in.bytes).subspan(m.offset, m.size), key, i, batch_time(batch).ns);
    std::uint64_t mask = 0;
    for (std::size_t c = 0; c < kConsumers; ++c) {
      if (c == 0 && !star_on(batch)) continue;
      if (patterns[c].matches(m.sensor, m.tag)) mask |= std::uint64_t{1} << c;
    }
    in.masks.push_back(mask);
    if (mask == 0) ++in.orphans;
  }
  for (std::size_t b = 0; b < kBatches * kChurnPerBatch; ++b) in.churn.push_back(1 + rng.below(kConsumers - 1));
  return in;
}

garnet::core::StreamPattern to_pattern(const Pattern& p) {
  garnet::core::StreamPattern out;
  if (p.sensor >= 0) out.sensor = static_cast<garnet::core::SensorId>(p.sensor);
  if (p.tag >= 0) out.stream = static_cast<garnet::core::InternalStreamId>(p.tag);
  return out;
}

struct Layers {
  LayerAccount inject;   ///< Runtime::inject_external.
  LayerAccount loop;     ///< Runtime::run_for (delivery, credits, churn).
  LayerAccount handler;  ///< The benchmark's own consumer handlers.
};

struct Round {
  PairChecker::Outcome outcome;
  std::uint64_t digest = 0;
  std::uint64_t received = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t envelopes = 0;
  std::uint64_t matches = 0;       ///< dispatch.copies_delivered.
  std::uint64_t credit_acks = 0;
  AllocCounts allocs;
  std::uint64_t payload_allocs = 0;
  std::uint64_t payload_copies = 0;
  double latency_p50_ns = 0;
  double latency_p99_ns = 0;
  Layers layers;
};

/// One round on a fresh Runtime. The inputs are made on first use, after
/// the first Runtime is set up, so setup_s times the program and not the
/// benchmark's payload generation.
Round run_round(std::optional<Inputs>& inputs, std::uint64_t seed, bool wrapped, Result& result) {
  garnet::Runtime::Config config;
  config.overload.credit_window = kCreditWindow;
  garnet::Runtime runtime(config);
  const std::vector<Pattern> patterns = consumer_patterns();

  Round round;
  PairChecker checker;
  std::vector<double> latencies;

  std::vector<std::unique_ptr<garnet::core::Consumer>> consumers;
  std::vector<garnet::core::SubscriptionId> sub_ids(kConsumers, 0);
  for (std::size_t c = 0; c < kConsumers; ++c) {
    const std::string name = "fanout" + std::to_string(c);
    consumers.push_back(std::make_unique<garnet::core::Consumer>(runtime.bus(), "consumer." + name));
    runtime.provision(*consumers.back(), name);
    auto handle = [&, c](const garnet::core::DeliveryView& d) {
      Tag tag;
      if (checker.on_delivered(static_cast<unsigned>(c), d.message.payload, tag)) {
        latencies.push_back(static_cast<double>(runtime.scheduler().now().ns - tag.stamp));
      }
    };
    if (wrapped) {
      consumers.back()->set_data_handler([&, handle](const garnet::core::DeliveryView& d) {
        LayerScope scope(round.layers.handler);
        handle(d);
      });
    } else {
      consumers.back()->set_data_handler(handle);
    }
  }
  auto subscribe = [&](std::size_t c, bool replace) {
    consumers[c]->subscribe(to_pattern(patterns[c]), [&, c, replace](auto reply) {
      if (!reply.ok()) {
        result.fail("subscribe RPC failed");
        return;
      }
      if (replace) consumers[c]->unsubscribe(sub_ids[c]);
      sub_ids[c] = reply.value();
    });
  };
  for (std::size_t c = 0; c < kConsumers; ++c) subscribe(c, false);
  runtime.run_for(kSettle);
  mark_setup_done();

  if (!inputs) inputs = make_inputs(seed);
  const Inputs& in = *inputs;
  for (std::size_t i = 0; i < in.messages.size(); ++i) {
    const Message& m = in.messages[i];
    checker.expect(in.masks[i], std::span(in.bytes).subspan(m.offset, m.size));
  }
  latencies.reserve(in.messages.size() * 8);

  const std::uint64_t events0 = runtime.scheduler().executed();
  const std::uint64_t posted0 = runtime.telemetry().registry.snapshot().counter("garnet.bus.posted");
  const garnet::util::PayloadStats payload0 = garnet::util::payload_stats();
  const AllocCounts allocs0 = alloc_counts();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t wall0 = wall_ns();
  for (std::size_t b = 0; b < kBatches; ++b) {
    if (runtime.scheduler().now() != batch_time(b)) result.fail("batch injected off schedule");
    for (std::size_t i = b * kBatchSize; i < (b + 1) * kBatchSize; ++i) {
      const Message& m = in.messages[i];
      garnet::core::DataMessageView view;
      view.stream_id = {m.sensor, m.tag};
      view.sequence = m.sequence;
      view.payload = std::span(in.bytes).subspan(m.offset, m.size);
      if (wrapped) {
        LayerScope scope(round.layers.inject);
        runtime.inject_external(view);
      } else {
        runtime.inject_external(view);
      }
    }
    for (std::size_t k = 0; k < kChurnPerBatch; ++k) subscribe(in.churn[b * kChurnPerBatch + k], true);
    {
      LayerScope scope(round.layers.loop);
      runtime.run_for(kDeliverSpan);
    }
    if (b + 1 < kBatches && star_on(b) != star_on(b + 1)) {
      if (star_on(b + 1)) {
        subscribe(0, false);
      } else {
        consumers[0]->unsubscribe(sub_ids[0]);
      }
    }
    LayerScope scope(round.layers.loop);
    runtime.run_for(kToggleSpan);
  }
  round.wall_ns = wall_ns() - wall0;
  round.cpu_ns = process_cpu_ns() - cpu0;
  const AllocCounts allocs1 = alloc_counts();
  round.allocs = {allocs1.allocs - allocs0.allocs, allocs1.bytes - allocs0.bytes};
  const garnet::util::PayloadStats payload1 = garnet::util::payload_stats();
  round.payload_allocs = payload1.allocations - payload0.allocations;
  round.payload_copies = payload1.copies - payload0.copies;
  round.events = runtime.scheduler().executed() - events0;
  round.envelopes = runtime.telemetry().registry.snapshot().counter("garnet.bus.posted") - posted0;

  // --- checks ---------------------------------------------------------------
  round.outcome = checker.finish();
  round.digest = checker.digest();
  for (const auto& consumer : consumers) round.received += consumer->received();
  const garnet::core::DispatchStats& ds = runtime.dispatch().stats();
  round.matches = ds.copies_delivered;
  round.credit_acks = ds.credit_acks;
  result.require(runtime.orphanage().total_received() == in.orphans,
                 "orphanage count != messages matching no pattern");
  result.require(ds.quarantines == 0, "a consumer was quarantined");
  result.require(round.received == round.outcome.delivered, "consumer counts != copies checked");
  if (round.outcome.failed > 0) {
    std::fprintf(stderr,
                 "inject_fanout: %llu of %llu pairs failed (missing %llu, duplicated %llu, "
                 "corrupt %llu, stray %llu)\n",
                 static_cast<unsigned long long>(round.outcome.failed),
                 static_cast<unsigned long long>(round.outcome.attempted),
                 static_cast<unsigned long long>(round.outcome.missing),
                 static_cast<unsigned long long>(round.outcome.duplicated),
                 static_cast<unsigned long long>(round.outcome.corrupt),
                 static_cast<unsigned long long>(round.outcome.stray));
  }
  round.latency_p50_ns = quantile(latencies, 0.50);
  round.latency_p99_ns = quantile(latencies, 0.99);
  return round;
}

/// Wall ns per subscribe + unsubscribe RPC pair, each run to completion
/// on an otherwise idle Runtime with kConsumers subscribers.
double subscribe_ns_per_op() {
  const std::vector<Pattern> patterns = consumer_patterns();
  garnet::Runtime::Config config;
  config.overload.credit_window = kCreditWindow;
  garnet::Runtime runtime(config);
  std::vector<std::unique_ptr<garnet::core::Consumer>> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    const std::string name = "churn" + std::to_string(c);
    consumers.push_back(std::make_unique<garnet::core::Consumer>(runtime.bus(), "consumer." + name));
    runtime.provision(*consumers.back(), name);
    consumers.back()->subscribe(to_pattern(patterns[c]));
  }
  runtime.run_for(kSettle);
  constexpr std::size_t kOps = 2000;
  std::size_t done = 0;
  const std::int64_t wall0 = wall_ns();
  for (std::size_t i = 0; i < kOps; ++i) {
    garnet::core::Consumer& consumer = *consumers[i % kConsumers];
    consumer.subscribe(to_pattern(patterns[i % kConsumers]), [&](auto reply) {
      if (!reply.ok()) return;
      consumer.unsubscribe(reply.value());
      ++done;
    });
    runtime.run_for(Duration::millis(2));
  }
  const std::int64_t wall = wall_ns() - wall0;
  return done == kOps ? static_cast<double>(wall) / (2.0 * kOps) : -1.0;
}

void account(Result& result, const Round& round) {
  result.attempted += round.outcome.attempted;
  result.failed += round.outcome.failed;
}

Result end_to_end(const Options& options) {
  Result result;
  std::optional<Inputs> in;
  repeat_rounds(result, options.seconds, [&] {
    const Round round = run_round(in, options.seed, false, result);
    return RoundFigures{round.outcome.attempted, round.outcome.failed, round.received, round.wall_ns,
                        round.cpu_ns, round.latency_p50_ns, round.latency_p99_ns};
  });
  return result;
}

}  // namespace

Result run_inject_fanout(const Options& options) { return end_to_end(options); }

void trace_inject_fanout(const Options& options, Result& result) {
  std::optional<Inputs> in;
  constexpr int kReps = 3;
  std::vector<double> inject, matches, deliver, events, envelopes, credits, subscribe, heap_allocs,
      payload_allocs, payload_copies;
  for (int rep = 0; rep < kReps; ++rep) {
    const Round wrapped = run_round(in, options.seed, true, result);
    const Round plain = run_round(in, options.seed, false, result);
    account(result, wrapped);
    account(result, plain);
    result.require(wrapped.digest == plain.digest && wrapped.received == plain.received,
                   "wrapped run delivered another message set than the plain run");
    const auto msgs = static_cast<double>(in->messages.size());
    const auto copies = static_cast<double>(plain.matches);
    const Layers& l = wrapped.layers;
    inject.push_back(per(static_cast<double>(l.inject.ns), msgs));
    matches.push_back(per(copies, msgs));
    deliver.push_back(per(static_cast<double>(l.loop.ns - l.handler.ns), copies));
    events.push_back(per(static_cast<double>(plain.events), copies));
    envelopes.push_back(per(static_cast<double>(plain.envelopes), copies));
    credits.push_back(per(static_cast<double>(plain.credit_acks), copies));
    subscribe.push_back(subscribe_ns_per_op());
    heap_allocs.push_back(per(static_cast<double>(plain.allocs.allocs), copies));
    payload_allocs.push_back(per(static_cast<double>(plain.payload_allocs), msgs));
    payload_copies.push_back(per(static_cast<double>(plain.payload_copies), msgs));
  }
  result.add("fanout.inject_ns_per_msg", median(inject), "ns");
  result.add("fanout.matches_per_msg", median(matches), "count");
  result.add("fanout.deliver_ns_per_copy", median(deliver), "ns");
  result.add("fanout.sim_events_per_copy", median(events), "count");
  result.add("fanout.envelopes_per_copy", median(envelopes), "count");
  result.add("fanout.credit_acks_per_copy", median(credits), "count");
  result.add("fanout.subscribe_ns_per_op", median(subscribe), "ns");
  result.add("fanout.heap_allocs_per_copy", median(heap_allocs), "count");
  result.add("fanout.payload_allocs_per_msg", median(payload_allocs), "count");
  result.add("fanout.payload_copies_per_msg", median(payload_copies), "count");
}

}  // namespace perfbench
