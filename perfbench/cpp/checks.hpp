// Output checkers of the benchmark. They are computed apart from the
// program: none of them includes a Garnet header or calls Garnet code.
// Each is fed the benchmark's own record of what it generated and what
// came back, one event at a time, so a test can feed it a hand-made
// delivery log with a known fault (tests/checks_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

using ByteSpan = std::span<const std::byte>;

// --- keyed payload codec ---------------------------------------------------

/// 64-bit finaliser (splitmix64); the mixing step of every keyed hash here.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// CRC-32C (Castagnoli), table-driven.
[[nodiscard]] std::uint32_t crc32c(ByteSpan data) noexcept;

// --- Figure-2 wire format, as the benchmark reads and writes it -------------

/// Header (9 bytes) + CRC trailer (4 bytes) of a message without ack.
inline constexpr std::size_t kFrameOverhead = 13;

/// Appends one length-prefixed ingest frame ([u32 length][message]).
void encode_frame(std::vector<std::byte>& out, std::uint32_t sensor, std::uint8_t tag,
                  std::uint16_t sequence, ByteSpan payload);

struct DecodedFrame {
  std::uint32_t sensor = 0;
  std::uint8_t tag = 0;
  std::uint16_t sequence = 0;
  ByteSpan payload;  ///< Aliases the body.
};

/// Parses a gateway delivery frame body ([i64 first-heard][message]);
/// false if it is malformed or its CRC-32C does not match.
[[nodiscard]] bool decode_delivery(ByteSpan body, DecodedFrame& out) noexcept;

/// A tagged payload is [u64 id][i64 stamp][filler...], big-endian; the
/// filler is a pseudo-random function of (key, id), so two messages never
/// share bytes by accident.
inline constexpr std::size_t kTagBytes = 16;

/// Writes a tagged payload of `out.size()` (>= kTagBytes) bytes.
void write_tagged(std::span<std::byte> out, std::uint64_t key, std::uint64_t id,
                  std::int64_t stamp) noexcept;
/// Rewrites only the stamp of a tagged payload.
void restamp(std::span<std::byte> out, std::int64_t stamp) noexcept;

struct Tag {
  std::uint64_t id = 0;
  std::int64_t stamp = 0;
};

/// Reads the id and stamp; false if the payload is too short.
[[nodiscard]] bool read_tag(ByteSpan payload, Tag& out) noexcept;

// --- field_radio: every sample delivered exactly once, in order ------------

/// Tracks the samples of `sensors` sensors (ids 1..sensors, one stream
/// each, sequence = per-sensor sample index) and the deliveries of one
/// consumer subscribed to everything.
class FieldChecker {
 public:
  FieldChecker(std::uint64_t key, std::size_t sensors);

  /// The payload a sensor emits for its `index`-th sample taken at
  /// virtual time `t_ns` ([u32 sensor][u32 index][i64 t][u64 mac]).
  static constexpr std::size_t kPayloadBytes = 24;
  void make_payload(std::uint32_t sensor, std::uint32_t index, std::int64_t t_ns,
                    std::span<std::byte> out) const noexcept;

  /// The sensor emitted sample `index` (indices must arrive 0, 1, 2...).
  void on_generated(std::uint32_t sensor, std::uint32_t index);

  /// One delivery seen by the consumer at virtual time `now_ns`. Header
  /// fields are attributed first; a damaged payload fails that sample.
  void on_delivered(std::uint32_t sensor, std::uint8_t stream, std::uint16_t sequence,
                    ByteSpan payload, std::int64_t now_ns);

  struct Outcome {
    std::uint64_t attempted = 0;     ///< Samples generated.
    std::uint64_t failed = 0;        ///< Samples not delivered exactly once, intact, in order.
    std::uint64_t delivered = 0;     ///< Deliveries seen (any state).
    std::uint64_t missing = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t out_of_order = 0;
    std::uint64_t foreign = 0;       ///< Deliveries naming no generated sample.
  };
  [[nodiscard]] Outcome finish() const;

  /// Virtual sample-to-consumer latencies of intact deliveries, in ns.
  [[nodiscard]] const std::vector<double>& latencies_ns() const noexcept { return latencies_; }
  /// Order-independent digest of the intact delivered (sensor, index) set.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  enum : std::uint8_t { kCountMask = 0x3F, kCorrupt = 0x40, kLate = 0x80 };
  struct Sensor {
    std::vector<std::uint8_t> samples;  ///< Delivery count | flags, per index.
    std::int64_t last_index = -1;       ///< Highest index delivered so far.
  };

  std::uint64_t key_;
  std::vector<Sensor> sensors_;
  std::uint64_t delivered_ = 0;
  std::uint64_t foreign_ = 0;
  std::uint64_t digest_ = 0;
  std::vector<double> latencies_;
};

/// The Location Service's estimate is an RSSI-weighted centroid of the
/// receivers that heard the sensor within the observation window, so it
/// lies within `range_m + max_speed_mps * window_s` of the true position.
[[nodiscard]] bool location_within_bound(double est_x, double est_y, double true_x,
                                         double true_y, double range_m, double max_speed_mps,
                                         double window_s) noexcept;

// --- inject_fanout / gateway_tcp: each expected (message, subscriber) pair -

/// Messages are numbered 0, 1, 2... in the order expect() is called and
/// carry their number as the tag id; subscribers are indices < 64.
class PairChecker {
 public:
  /// Registers the next message: the bytes sent (which the caller keeps
  /// alive and unchanged) and the subscribers that must get it. Returns
  /// its id.
  std::uint64_t expect(std::uint64_t subscriber_mask, ByteSpan sent);

  /// One copy delivered to `subscriber`. Returns true and the tag if the
  /// copy is byte-identical to a message sent; otherwise it counts as
  /// unreadable.
  bool on_delivered(unsigned subscriber, ByteSpan payload, Tag& tag);

  struct Outcome {
    std::uint64_t attempted = 0;  ///< Expected pairs.
    std::uint64_t failed = 0;     ///< Pairs missing or duplicated, plus unreadable and stray copies.
    std::uint64_t delivered = 0;
    std::uint64_t missing = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t corrupt = 0;    ///< Copies matching no message sent.
    std::uint64_t stray = 0;      ///< Intact copies to a subscriber that should not get them.
  };
  [[nodiscard]] Outcome finish() const;

  /// Order-independent digest of the intact delivered (message, subscriber) set.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  std::vector<std::uint64_t> expected_;
  std::vector<ByteSpan> sent_;
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> dup_;
  std::uint64_t delivered_ = 0;
  std::uint64_t stray_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t digest_ = 0;
};

/// The benchmark's own stream-pattern matcher (`*`, `sid/*`, `*/tag`,
/// `sid/tag`); a negative field is a wildcard.
struct Pattern {
  std::int64_t sensor = -1;
  std::int32_t tag = -1;

  [[nodiscard]] bool matches(std::uint32_t s, std::uint8_t t) const noexcept {
    return (sensor < 0 || static_cast<std::uint32_t>(sensor) == s) &&
           (tag < 0 || static_cast<std::uint32_t>(tag) == t);
  }
};

// --- statistics -------------------------------------------------------------

/// Nearest-rank quantile, q in [0, 1]; sorts `values` in place. 0 if empty.
[[nodiscard]] double quantile(std::vector<double>& values, double q);

}  // namespace perfbench
