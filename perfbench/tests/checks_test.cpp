// Tests of the benchmark's own checkers: each is fed a delivery log with
// one known fault and must catch it. A checker that cannot fail shows
// nothing. Run with `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "checks.hpp"

namespace perfbench {
namespace {

using Bytes = std::vector<std::byte>;

// --- field_radio --------------------------------------------------------------

struct Sample {
  std::uint32_t sensor;
  std::uint16_t index;
  Bytes payload;
};

/// Two sensors, three samples each, generated at t = index seconds.
struct FieldLog {
  FieldChecker checker{0x5EED, 2};
  std::vector<Sample> samples;

  FieldLog() {
    for (std::uint16_t i = 0; i < 3; ++i) {
      for (std::uint32_t s = 1; s <= 2; ++s) {
        checker.on_generated(s, i);
        Bytes p(FieldChecker::kPayloadBytes);
        checker.make_payload(s, i, std::int64_t{i} * 1'000'000'000, p);
        samples.push_back({s, i, p});
      }
    }
  }
  void deliver(const Sample& s) {
    checker.on_delivered(s.sensor, 0, s.index, s.payload, std::int64_t{s.index} * 1'000'000'000 + 5);
  }
};

TEST(FieldChecker, CleanLogPasses) {
  FieldLog log;
  for (const Sample& s : log.samples) log.deliver(s);
  const auto o = log.checker.finish();
  EXPECT_EQ(o.attempted, 6u);
  EXPECT_EQ(o.failed, 0u);
  EXPECT_EQ(o.delivered, 6u);
  ASSERT_EQ(log.checker.latencies_ns().size(), 6u);
  EXPECT_EQ(log.checker.latencies_ns()[0], 5.0);
}

TEST(FieldChecker, CatchesDroppedSample) {
  FieldLog log;
  for (std::size_t i = 0; i < log.samples.size(); ++i) {
    if (i != 3) log.deliver(log.samples[i]);
  }
  const auto o = log.checker.finish();
  EXPECT_EQ(o.failed, 1u);
  EXPECT_EQ(o.missing, 1u);
}

TEST(FieldChecker, CatchesDuplicatedSample) {
  FieldLog log;
  for (const Sample& s : log.samples) log.deliver(s);
  log.deliver(log.samples[2]);
  const auto o = log.checker.finish();
  EXPECT_EQ(o.failed, 1u);
  EXPECT_EQ(o.duplicated, 1u);
}

TEST(FieldChecker, CatchesFlippedPayloadByte) {
  FieldLog log;
  log.samples[4].payload[9] ^= std::byte{0x01};  // a bit of the sample time
  for (const Sample& s : log.samples) log.deliver(s);
  const auto o = log.checker.finish();
  EXPECT_EQ(o.failed, 1u);
  EXPECT_EQ(o.corrupt, 1u);
}

TEST(FieldChecker, CatchesReorderedStream) {
  FieldLog log;
  // Sensor 1's samples 1 and 2 arrive swapped.
  log.deliver(log.samples[0]);
  log.deliver(log.samples[4]);
  log.deliver(log.samples[2]);
  for (std::size_t i : {1u, 3u, 5u}) log.deliver(log.samples[i]);
  const auto o = log.checker.finish();
  EXPECT_EQ(o.out_of_order, 1u);
  EXPECT_EQ(o.failed, 1u);
}

TEST(FieldChecker, CatchesForeignDelivery) {
  FieldLog log;
  for (const Sample& s : log.samples) log.deliver(s);
  log.checker.on_delivered(7, 0, 0, log.samples[0].payload, 0);  // no sensor 7
  EXPECT_EQ(log.checker.finish().foreign, 1u);
}

TEST(Location, BoundHoldsAndCatchesOutlier) {
  // Range 100 m, 2 m/s over a 15 s window: anything within 130 m passes.
  EXPECT_TRUE(location_within_bound(0, 0, 120, 50, 100, 2.0, 15));
  EXPECT_FALSE(location_within_bound(0, 0, 131, 0, 100, 2.0, 15));
  EXPECT_FALSE(location_within_bound(0, 0, 1e9, 0, 100, 2.0, 15));
}

// --- inject_fanout / gateway_tcp ------------------------------------------------

/// Three messages: 0 -> subscribers {0, 1}, 1 -> {1}, 2 -> nobody.
struct PairLog {
  PairChecker checker;
  std::vector<Bytes> sent;

  PairLog() {
    const std::uint64_t masks[] = {0b11, 0b10, 0};
    sent.reserve(3);
    for (std::uint64_t id = 0; id < 3; ++id) {
      sent.emplace_back(40 + id);
      write_tagged(sent.back(), 0xC0FFEE, id, 100 + static_cast<std::int64_t>(id));
      EXPECT_EQ(checker.expect(masks[id], sent.back()), id);
    }
  }
  bool deliver(unsigned subscriber, const Bytes& payload) {
    Tag tag;
    return checker.on_delivered(subscriber, payload, tag);
  }
  void deliver_all() {
    deliver(0, sent[0]);
    deliver(1, sent[0]);
    deliver(1, sent[1]);
  }
};

TEST(PairChecker, CleanLogPasses) {
  PairLog log;
  log.deliver_all();
  const auto o = log.checker.finish();
  EXPECT_EQ(o.attempted, 3u);
  EXPECT_EQ(o.failed, 0u);
  EXPECT_EQ(o.delivered, 3u);
}

TEST(PairChecker, CatchesDroppedCopy) {
  PairLog log;
  log.deliver(0, log.sent[0]);
  log.deliver(1, log.sent[1]);
  const auto o = log.checker.finish();
  EXPECT_EQ(o.failed, 1u);
  EXPECT_EQ(o.missing, 1u);
}

TEST(PairChecker, CatchesDuplicatedCopy) {
  PairLog log;
  log.deliver_all();
  log.deliver(1, log.sent[1]);
  const auto o = log.checker.finish();
  EXPECT_EQ(o.failed, 1u);
  EXPECT_EQ(o.duplicated, 1u);
}

TEST(PairChecker, CatchesFlippedPayloadByte) {
  PairLog log;
  Bytes damaged = log.sent[1];
  damaged.back() ^= std::byte{0x80};
  log.deliver(0, log.sent[0]);
  log.deliver(1, log.sent[0]);
  EXPECT_FALSE(log.deliver(1, damaged));
  const auto o = log.checker.finish();
  EXPECT_EQ(o.corrupt, 1u);
  EXPECT_EQ(o.missing, 1u);
  EXPECT_EQ(o.failed, 2u);
}

TEST(PairChecker, CatchesStrayCopy) {
  PairLog log;
  log.deliver_all();
  log.deliver(0, log.sent[2]);  // message 2 matches no pattern
  const auto o = log.checker.finish();
  EXPECT_EQ(o.stray, 1u);
  EXPECT_EQ(o.failed, 1u);
}

// --- wire format ---------------------------------------------------------------

TEST(Wire, Crc32cKnownVector) {
  const std::string text = "123456789";
  EXPECT_EQ(crc32c(ByteSpan(reinterpret_cast<const std::byte*>(text.data()), text.size())),
            0xE3069283u);
}

TEST(Wire, DeliveryRoundTripAndCrcFault) {
  Bytes payload(32);
  write_tagged(payload, 1, 7, 9);
  Bytes frame;
  encode_frame(frame, 0x123456, 3, 0xBEEF, payload);
  // A delivery body is [i64 first-heard] + the message (no length prefix).
  Bytes body(8, std::byte{0});
  body.insert(body.end(), frame.begin() + 4, frame.end());
  DecodedFrame decoded;
  ASSERT_TRUE(decode_delivery(body, decoded));
  EXPECT_EQ(decoded.sensor, 0x123456u);
  EXPECT_EQ(decoded.tag, 3);
  EXPECT_EQ(decoded.sequence, 0xBEEF);
  ASSERT_EQ(decoded.payload.size(), payload.size());
  EXPECT_EQ(std::memcmp(decoded.payload.data(), payload.data(), payload.size()), 0);

  body[8 + 9 + 5] ^= std::byte{0x04};
  EXPECT_FALSE(decode_delivery(body, decoded));
}

}  // namespace
}  // namespace perfbench
