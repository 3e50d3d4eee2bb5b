#include "checks.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

void put_u64(std::span<std::byte> out, std::size_t at, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) out[at + i] = static_cast<std::byte>(v >> (56 - 8 * i));
}

std::uint64_t get_u64(ByteSpan in, std::size_t at) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | static_cast<std::uint64_t>(in[at + i]);
  return v;
}

void put_u32(std::span<std::byte> out, std::size_t at, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) out[at + i] = static_cast<std::byte>(v >> (24 - 8 * i));
}

std::uint32_t get_u32(ByteSpan in, std::size_t at) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | static_cast<std::uint32_t>(in[at + i]);
  return v;
}

/// Filler byte stream of one tagged payload.
std::uint64_t filler_word(std::uint64_t key, std::uint64_t id, std::size_t word) noexcept {
  return mix64(key ^ mix64(id) ^ (word * 0x9E3779B97F4A7C15ull));
}

std::uint64_t sample_mac(std::uint64_t key, std::uint32_t sensor, std::uint32_t index,
                         std::int64_t t_ns) noexcept {
  std::uint64_t h = mix64(key ^ 0x73616D706C65ull);
  h = mix64(h ^ ((static_cast<std::uint64_t>(sensor) << 32) | index));
  return mix64(h ^ static_cast<std::uint64_t>(t_ns));
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint32_t crc32c(ByteSpan data) noexcept {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
      t[i] = crc;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : data) crc = (crc >> 8) ^ table[(crc ^ static_cast<std::uint32_t>(b)) & 0xFFu];
  return ~crc;
}

void encode_frame(std::vector<std::byte>& out, std::uint32_t sensor, std::uint8_t tag,
                  std::uint16_t sequence, ByteSpan payload) {
  const std::size_t body = kFrameOverhead + payload.size();
  const std::size_t start = out.size();
  out.resize(start + 4 + body);
  const std::span<std::byte> w(out.data() + start, 4 + body);
  put_u32(w, 0, static_cast<std::uint32_t>(body));
  w[4] = static_cast<std::byte>(1u << 6);  // format version 1, no flags
  w[5] = static_cast<std::byte>(sensor >> 16);
  w[6] = static_cast<std::byte>(sensor >> 8);
  w[7] = static_cast<std::byte>(sensor);
  w[8] = static_cast<std::byte>(tag);
  w[9] = static_cast<std::byte>(sequence >> 8);
  w[10] = static_cast<std::byte>(sequence);
  w[11] = static_cast<std::byte>(payload.size() >> 8);
  w[12] = static_cast<std::byte>(payload.size());
  std::copy(payload.begin(), payload.end(), w.begin() + 13);
  put_u32(w, 13 + payload.size(), crc32c(w.subspan(4, 9 + payload.size())));
}

bool decode_delivery(ByteSpan body, DecodedFrame& out) noexcept {
  // [i64 first-heard][u8 header][u24 sensor][u8 stream][u16 seq][u16 len]
  // [u32 ack if flag bit 0][payload][u32 crc-32c of header..payload]
  if (body.size() < 8 + kFrameOverhead) return false;
  const ByteSpan msg = body.subspan(8);
  const auto header = static_cast<std::uint8_t>(msg[0]);
  if ((header >> 6) != 1) return false;
  const std::size_t ack = (header & 1u) != 0 ? 4 : 0;
  const std::size_t len = (static_cast<std::size_t>(msg[7]) << 8) | static_cast<std::size_t>(msg[8]);
  if (msg.size() != kFrameOverhead + ack + len) return false;
  if (get_u32(msg, msg.size() - 4) != crc32c(msg.first(msg.size() - 4))) return false;
  out.sensor = (static_cast<std::uint32_t>(msg[1]) << 16) | (static_cast<std::uint32_t>(msg[2]) << 8) |
               static_cast<std::uint32_t>(msg[3]);
  out.tag = static_cast<std::uint8_t>(msg[4]);
  out.sequence = static_cast<std::uint16_t>((static_cast<unsigned>(msg[5]) << 8) | static_cast<unsigned>(msg[6]));
  out.payload = msg.subspan(9 + ack, len);
  return true;
}

void write_tagged(std::span<std::byte> out, std::uint64_t key, std::uint64_t id,
                  std::int64_t stamp) noexcept {
  put_u64(out, 0, id);
  put_u64(out, 8, static_cast<std::uint64_t>(stamp));
  for (std::size_t i = kTagBytes; i < out.size(); ++i) {
    const std::size_t word = (i - kTagBytes) / 8;
    out[i] = static_cast<std::byte>(filler_word(key, id, word) >> (8 * ((i - kTagBytes) % 8)));
  }
}

void restamp(std::span<std::byte> out, std::int64_t stamp) noexcept {
  put_u64(out, 8, static_cast<std::uint64_t>(stamp));
}

bool read_tag(ByteSpan payload, Tag& out) noexcept {
  if (payload.size() < kTagBytes) return false;
  out = Tag{get_u64(payload, 0), static_cast<std::int64_t>(get_u64(payload, 8))};
  return true;
}

// --- FieldChecker -----------------------------------------------------------

FieldChecker::FieldChecker(std::uint64_t key, std::size_t sensors)
    : key_(key), sensors_(sensors) {}

void FieldChecker::make_payload(std::uint32_t sensor, std::uint32_t index, std::int64_t t_ns,
                                std::span<std::byte> out) const noexcept {
  put_u32(out, 0, sensor);
  put_u32(out, 4, index);
  put_u64(out, 8, static_cast<std::uint64_t>(t_ns));
  put_u64(out, 16, sample_mac(key_, sensor, index, t_ns));
}

void FieldChecker::on_generated(std::uint32_t sensor, std::uint32_t index) {
  if (sensor == 0 || sensor > sensors_.size()) throw std::out_of_range("sensor id");
  std::vector<std::uint8_t>& samples = sensors_[sensor - 1].samples;
  // Sequence numbers are 16-bit on the wire; a round stays below the wrap.
  if (index != samples.size() || index > 0xFFFF) throw std::logic_error("sample index");
  samples.push_back(0);
}

void FieldChecker::on_delivered(std::uint32_t sensor, std::uint8_t stream,
                                std::uint16_t sequence, ByteSpan payload,
                                std::int64_t now_ns) {
  ++delivered_;
  if (sensor == 0 || sensor > sensors_.size() || stream != 0 ||
      sequence >= sensors_[sensor - 1].samples.size()) {
    ++foreign_;
    return;
  }
  Sensor& s = sensors_[sensor - 1];
  std::uint8_t& state = s.samples[sequence];
  if ((state & kCountMask) < kCountMask) ++state;

  const bool intact = payload.size() == kPayloadBytes && get_u32(payload, 0) == sensor &&
                      get_u32(payload, 4) == sequence &&
                      get_u64(payload, 16) ==
                          sample_mac(key_, sensor, sequence,
                                     static_cast<std::int64_t>(get_u64(payload, 8)));
  if (!intact) {
    state |= kCorrupt;
    return;
  }
  if (static_cast<std::int64_t>(sequence) <= s.last_index) {
    state |= kLate;
  } else {
    s.last_index = sequence;
  }
  if ((state & kCountMask) == 1) {
    digest_ += mix64((static_cast<std::uint64_t>(sensor) << 32) | sequence);
    latencies_.push_back(
        static_cast<double>(now_ns - static_cast<std::int64_t>(get_u64(payload, 8))));
  }
}

FieldChecker::Outcome FieldChecker::finish() const {
  Outcome o;
  o.delivered = delivered_;
  o.foreign = foreign_;
  for (const Sensor& s : sensors_) {
    for (const std::uint8_t state : s.samples) {
      ++o.attempted;
      const unsigned count = state & kCountMask;
      if (count == 0) ++o.missing;
      if (count > 1) ++o.duplicated;
      if ((state & kCorrupt) != 0) ++o.corrupt;
      if ((state & kLate) != 0) ++o.out_of_order;
      if (count != 1 || (state & (kCorrupt | kLate)) != 0) ++o.failed;
    }
  }
  return o;
}

bool location_within_bound(double est_x, double est_y, double true_x, double true_y,
                           double range_m, double max_speed_mps, double window_s) noexcept {
  const double bound = range_m + max_speed_mps * window_s;
  const double d = std::hypot(est_x - true_x, est_y - true_y);
  return std::isfinite(d) && d <= bound;
}

// --- PairChecker --------------------------------------------------------------

std::uint64_t PairChecker::expect(std::uint64_t subscriber_mask, ByteSpan sent) {
  expected_.push_back(subscriber_mask);
  sent_.push_back(sent);
  seen_.push_back(0);
  dup_.push_back(0);
  return expected_.size() - 1;
}

bool PairChecker::on_delivered(unsigned subscriber, ByteSpan payload, Tag& tag) {
  ++delivered_;
  if (!read_tag(payload, tag) || tag.id >= sent_.size() ||
      payload.size() != sent_[tag.id].size() ||
      std::memcmp(payload.data(), sent_[tag.id].data(), payload.size()) != 0) {
    ++corrupt_;
    return false;
  }
  const std::uint64_t id = tag.id;
  if (subscriber >= 64 || (expected_[id] & (std::uint64_t{1} << subscriber)) == 0) {
    ++stray_;
    return true;
  }
  const std::uint64_t bit = std::uint64_t{1} << subscriber;
  if ((seen_[id] & bit) != 0) {
    dup_[id] |= bit;
    return true;
  }
  seen_[id] |= bit;
  digest_ += mix64(mix64(id) ^ subscriber);
  return true;
}

PairChecker::Outcome PairChecker::finish() const {
  Outcome o;
  o.delivered = delivered_;
  o.stray = stray_;
  o.corrupt = corrupt_;
  for (std::size_t id = 0; id < expected_.size(); ++id) {
    const std::uint64_t want = expected_[id];
    o.attempted += static_cast<std::uint64_t>(std::popcount(want));
    o.missing += static_cast<std::uint64_t>(std::popcount(want & ~seen_[id]));
    o.duplicated += static_cast<std::uint64_t>(std::popcount(dup_[id]));
    o.failed += static_cast<std::uint64_t>(std::popcount((want & ~seen_[id]) | dup_[id]));
  }
  // A copy that cannot be read or should not exist is a failed operation
  // of its own: its intended pair, if any, is already counted missing.
  o.failed += o.stray + o.corrupt;
  return o;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace perfbench
