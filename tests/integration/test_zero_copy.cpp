// Copy-count regression guard for the zero-copy payload path.
//
// The dispatch fan-out invariant the perf work rests on: one dispatched
// message costs exactly one payload allocation (the encoded delivery
// frame) no matter how many consumers subscribe, and at most one counted
// copy end to end. Any future change that sneaks a per-subscriber copy
// into the path moves these counters and fails here long before it shows
// up in a benchmark trend.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/auth.hpp"
#include "core/catalog.hpp"
#include "core/dispatch.hpp"
#include "core/wire_types.hpp"
#include "net/bus.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "util/shared_bytes.hpp"

namespace garnet {
namespace {

constexpr std::size_t kConsumers = 64;
constexpr std::size_t kMessages = 50;
constexpr std::size_t kPayloadBytes = 4096;

TEST(ZeroCopyGuard, FanOut64CostsOneAllocationAndNoCopiesPerMessage) {
  sim::Scheduler scheduler;
  obs::MetricsRegistry registry;  // outlives the bus, which deregisters from it
  net::MessageBus bus(scheduler, {});
  bus.set_metrics(registry);
  core::AuthService auth{{}};
  core::StreamCatalog catalog;
  core::DispatchingService dispatch{bus, auth, catalog};

  // Every consumer runs the real receive path: parse the delivery frame
  // and record where its payload bytes live.
  std::uint64_t deliveries = 0;
  // sequence -> distinct payload addresses seen by the 64 subscribers.
  std::vector<std::set<const std::byte*>> payload_sites(kMessages);
  for (std::size_t i = 0; i < kConsumers; ++i) {
    const net::Address consumer =
        bus.add_endpoint("consumer" + std::to_string(i), [&](net::Envelope envelope) {
          auto delivery = core::decode_delivery_view(envelope.payload);
          ASSERT_TRUE(delivery.ok());
          EXPECT_EQ(delivery.value().message.payload.size(), kPayloadBytes);
          payload_sites[delivery.value().message.sequence].insert(
              delivery.value().message.payload.data());
          ++deliveries;
        });
    dispatch.subscribe(consumer, core::StreamPattern::exact({1, 0}));
  }

  core::DataMessage msg;
  msg.stream_id = {1, 0};
  msg.payload.assign(kPayloadBytes, std::byte{0x3C});

  const std::uint64_t allocs_before = registry.snapshot().counter("garnet.bus.payload_allocs");
  const std::uint64_t copies_before = registry.snapshot().counter("garnet.bus.payload_copies");

  for (std::size_t i = 0; i < kMessages; ++i) {
    msg.sequence = static_cast<core::SequenceNo>(i);
    dispatch.on_filtered(msg, scheduler.now());
    scheduler.run();
  }

  ASSERT_EQ(deliveries, kConsumers * kMessages);

  // All 64 subscribers of any one message read the same allocation.
  for (std::size_t seq = 0; seq < kMessages; ++seq) {
    EXPECT_EQ(payload_sites[seq].size(), 1u) << "message " << seq;
  }

  const std::uint64_t allocs =
      registry.snapshot().counter("garnet.bus.payload_allocs") - allocs_before;
  const std::uint64_t copies =
      registry.snapshot().counter("garnet.bus.payload_copies") - copies_before;
  EXPECT_EQ(allocs, kMessages) << "expected exactly 1 payload allocation per dispatched message";
  EXPECT_LE(copies, kMessages) << "expected at most 1 payload copy per dispatched message";
  EXPECT_EQ(copies, 0u) << "the delivery path itself should copy nothing";
}

}  // namespace
}  // namespace garnet
