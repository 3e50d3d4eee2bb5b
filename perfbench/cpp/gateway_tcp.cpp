// gateway_tcp: the shipped garnet-gw daemon (--sensors 0, ephemeral
// ports) runs as a child process, driven over loopback TCP from one
// thread with four connections: one producer pushing frames open-loop at
// a fixed rate to 8 streams, two stream subscribers (`*` and one exact
// stream), and one cache reader polling GET on a schedule. Each frame
// carries the wall time it was due, so latency counts any stall the
// producer saw. This is the one workload where bytes cross the kernel.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "checks.hpp"
#include "garnet/runtime.hpp"
#include "gw/gateway.hpp"
#include "gw/transport.hpp"
#include "measure.hpp"

namespace perfbench {

namespace {

constexpr double kRate = 2000;  ///< Frames per second offered.
constexpr std::uint32_t kStreams = 8;  ///< Sensors 1..8, tag 0.
constexpr std::uint32_t kExactSensor = 1;  ///< The exact subscriber's stream: 1/0.
constexpr std::size_t kMinPayload = kTagBytes;
constexpr std::size_t kMaxPayload = 1024;
constexpr std::int64_t kGetEveryNs = 20'000'000;
constexpr std::int64_t kDrainTimeoutNs = 10'000'000'000;
constexpr std::int64_t kSliceNs = 10'000'000;  ///< The daemon's pacing slice.
/// Daemon CPU is sampled per window of this length (25 slices).
constexpr std::int64_t kCpuWindowNs = 250'000'000;
constexpr unsigned kSubAll = 0;
constexpr unsigned kSubExact = 1;

[[noreturn]] void fail_io(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// The garnet-gw child process. Its stdout is a pseudo-terminal, so the
/// banner naming the bound ports arrives line-buffered at start-up.
/// Destruction stops it and reaps it.
class Daemon {
 public:
  explicit Daemon(const std::string& binary) {
    master_ = ::posix_openpt(O_RDWR | O_NOCTTY);
    if (master_ < 0 || ::grantpt(master_) != 0 || ::unlockpt(master_) != 0) fail_io("openpt");
    const char* slave = ::ptsname(master_);
    if (slave == nullptr) fail_io("ptsname");
    const std::string slave_path = slave;
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) fail_io("fork");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int out = ::open(slave_path.c_str(), O_RDWR | O_NOCTTY);
      const int null = ::open("/dev/null", O_RDONLY);
      if (out < 0 || null < 0) ::_exit(127);
      ::dup2(out, STDOUT_FILENO);
      ::dup2(null, STDIN_FILENO);
      ::close(master_);
      ::execl(binary.c_str(), binary.c_str(), "--ingest", "0", "--stream", "0", "--cache", "0",
              "--sensors", "0", "--quiet", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    read_banner();
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      bool reaped = false;
      for (int i = 0; i < 200 && !reaped; ++i) {
        reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
        if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (!reaped) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      }
    }
    if (master_ >= 0) ::close(master_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  std::uint16_t ingest = 0;
  std::uint16_t stream = 0;
  std::uint16_t cache = 0;

 private:
  void read_banner() {
    std::string text;
    const std::int64_t deadline = wall_ns() + 10'000'000'000;
    while (wall_ns() < deadline) {
      pollfd p{master_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(master_, buf, sizeof buf);
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
      const std::size_t at = text.find("ingest :");
      unsigned i = 0;
      unsigned s = 0;
      unsigned c = 0;
      if (at != std::string::npos && text.find('\n', at) != std::string::npos &&
          std::sscanf(text.c_str() + at, "ingest :%u stream :%u cache :%u", &i, &s, &c) == 3) {
        ingest = static_cast<std::uint16_t>(i);
        stream = static_cast<std::uint16_t>(s);
        cache = static_cast<std::uint16_t>(c);
        return;
      }
    }
    throw std::runtime_error("garnet-gw did not print its ports: " + text);
  }

  int master_ = -1;
  pid_t pid_ = -1;
};

/// One non-blocking loopback TCP client connection with byte buffers.
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) fail_io("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fail_io("connect");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool want_write() const noexcept { return out_pos_ < out_.size(); }

  void send(ByteSpan bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
    flush();
  }
  void send(const std::string& text) {
    send(ByteSpan(reinterpret_cast<const std::byte*>(text.data()), text.size()));
  }
  void flush() {
    while (out_pos_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + out_pos_, out_.size() - out_pos_, MSG_NOSIGNAL);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n <= 0) fail_io("send");
      out_pos_ += static_cast<std::size_t>(n);
    }
    out_.clear();
    out_pos_ = 0;
  }
  /// Reads what the socket holds; throws on EOF or error.
  void fill() {
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(in_pos_));
    in_pos_ = 0;
    for (;;) {
      std::byte buf[16384];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n == 0) throw std::runtime_error("garnet-gw closed a connection");
      if (n < 0) fail_io("recv");
      in_.insert(in_.end(), buf, buf + n);
    }
  }
  [[nodiscard]] ByteSpan pending() const noexcept {
    return ByteSpan(in_.data() + in_pos_, in_.size() - in_pos_);
  }
  void consume(std::size_t n) noexcept { in_pos_ += n; }
  /// Next '\n'-terminated line without the terminator, if complete.
  std::optional<std::string> line() {
    const ByteSpan p = pending();
    const auto nl = std::find(p.begin(), p.end(), std::byte{'\n'});
    if (nl == p.end()) return std::nullopt;
    std::string text(reinterpret_cast<const char*>(p.data()), static_cast<std::size_t>(nl - p.begin()));
    consume(text.size() + 1);
    return text;
  }

 private:
  int fd_ = -1;
  std::vector<std::byte> in_;
  std::size_t in_pos_ = 0;
  std::vector<std::byte> out_;
  std::size_t out_pos_ = 0;
};

std::uint32_t be32(ByteSpan p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

/// The four client connections, the open-loop producer schedule and the
/// checks of everything that comes back.
class Clients {
 public:
  Clients(std::uint64_t seed, std::uint16_t ingest, std::uint16_t stream, std::uint16_t cache,
         std::size_t max_frames)
      : rng_(mix64(seed ^ 0x9A7E)),
        key_(mix64(seed ^ 0xB17E5)),
        producer_(ingest),
        cache_(cache) {
    subs_.push_back(std::make_unique<Conn>(stream));
    subs_.push_back(std::make_unique<Conn>(stream));
    subs_[kSubAll]->send(std::string("SUB *\n"));
    subs_[kSubExact]->send("SUB " + std::to_string(kExactSensor) + "/0\n");
    sent_.reserve(max_frames);
    last_seen_.resize(kStreams + 1);
    acked_.assign(subs_.size(), false);
  }

  /// Sends frame number sent_.size() on stream `sensor`/0, stamped `due`.
  void send_frame(std::uint32_t sensor, std::int64_t due) {
    if (sent_.size() == sent_.capacity()) throw std::logic_error("frame budget exceeded");
    const double lo = std::log(static_cast<double>(kMinPayload));
    const double hi = std::log(static_cast<double>(kMaxPayload));
    const auto size = std::clamp(
        static_cast<std::size_t>(std::exp(lo + rng_.uniform() * (hi - lo))), kMinPayload, kMaxPayload);
    const std::uint64_t id = sent_.size();
    sent_.emplace_back(size);
    std::vector<std::byte>& payload = sent_.back();
    write_tagged(payload, key_, id, due);
    stream_of_.push_back(sensor);
    const std::uint64_t mask =
        (std::uint64_t{1} << kSubAll) | (sensor == kExactSensor ? std::uint64_t{1} << kSubExact : 0);
    checker_.expect(mask, payload);
    expected_pairs_ += static_cast<std::uint64_t>(std::popcount(mask));
    frame_.clear();
    encode_frame(frame_, sensor, 0, sequence_[sensor]++, payload);
    producer_.send(frame_);
  }

  /// Sends every scheduled frame whose due time has passed.
  void send_due(std::int64_t now) {
    while (next_frame_ < frames_planned_ && due(next_frame_) <= now) {
      send_frame(static_cast<std::uint32_t>(1 + rng_.next() % kStreams), due(next_frame_));
      ++next_frame_;
    }
    if (now >= next_get_ && gets_planned_ && !get_pending_) {
      send_get(static_cast<std::uint32_t>(1 + gets_sent_ % kStreams));
      next_get_ += kGetEveryNs;
    }
  }

  /// Plans an open-loop schedule of `seconds` starting at `start`.
  void plan(std::int64_t start, double seconds) {
    start_ = start;
    first_planned_ = sent_.size();
    next_frame_ = 0;
    frames_planned_ = static_cast<std::size_t>(seconds * kRate);
    next_get_ = start;
    gets_planned_ = true;
  }
  [[nodiscard]] std::int64_t due(std::size_t k) const noexcept {
    return start_ + static_cast<std::int64_t>(static_cast<double>(k) * 1e9 / kRate);
  }
  [[nodiscard]] bool producing() const noexcept { return next_frame_ < frames_planned_; }
  [[nodiscard]] std::int64_t next_wakeup() const noexcept {
    std::int64_t at = producing() ? due(next_frame_) : wall_ns() + 5'000'000;
    if (gets_planned_ && !get_pending_) at = std::min(at, next_get_);
    return at;
  }
  void stop_gets() { gets_planned_ = false; }

  /// Waits up to `timeout_ns` for socket events and handles them.
  void service(std::int64_t timeout_ns) {
    std::vector<pollfd> fds;
    fds.push_back({producer_.fd(), static_cast<short>(producer_.want_write() ? POLLOUT : 0), 0});
    fds.push_back({cache_.fd(), POLLIN, 0});
    for (const auto& sub : subs_) fds.push_back({sub->fd(), POLLIN, 0});
    const timespec ts{static_cast<time_t>(std::max<std::int64_t>(timeout_ns, 0) / 1'000'000'000),
                      static_cast<long>(std::max<std::int64_t>(timeout_ns, 0) % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) fail_io("ppoll");
    const std::int64_t now = wall_ns();
    if ((fds[0].revents & (POLLERR | POLLHUP)) != 0) throw std::runtime_error("ingest connection lost");
    if (fds[0].revents & POLLOUT) producer_.flush();
    if (fds[1].revents != 0) on_cache(now);
    for (unsigned i = 0; i < subs_.size(); ++i) {
      if (fds[2 + i].revents != 0) on_stream(i, now);
    }
  }

  /// Services sockets until every expected copy arrived, the cache
  /// reader is idle and both subscriptions were acknowledged.
  bool drain(std::int64_t timeout_ns) {
    const std::int64_t deadline = wall_ns() + timeout_ns;
    for (;;) {
      if (received_pairs_ >= expected_pairs_ && !get_pending_ && acked_[0] && acked_[1]) return true;
      if (wall_ns() >= deadline) return false;
      service(5'000'000);
    }
  }

  /// Final GET of every stream: must equal the last frame `*` received.
  void final_gets(Result& result) {
    for (std::uint32_t s = 1; s <= kStreams; ++s) {
      final_get_ = true;
      send_get(s);
      if (!drain(kDrainTimeoutNs)) throw std::runtime_error("final GET unanswered");
      final_get_ = false;
    }
    result.require(final_mismatches_ == 0, "final GET differs from the last frame received");
  }

  void account(Result& result) const {
    const PairChecker::Outcome o = checker_.finish();
    result.attempted += o.attempted + gets_sent_;
    result.failed += o.failed + gets_failed_;
    if (o.failed + gets_failed_ > 0) {
      std::fprintf(stderr,
                   "gateway_tcp: %llu of %llu pairs failed (missing %llu, duplicated %llu, "
                   "corrupt %llu, stray %llu); %llu of %llu GETs failed\n",
                   static_cast<unsigned long long>(o.failed),
                   static_cast<unsigned long long>(o.attempted),
                   static_cast<unsigned long long>(o.missing),
                   static_cast<unsigned long long>(o.duplicated),
                   static_cast<unsigned long long>(o.corrupt),
                   static_cast<unsigned long long>(o.stray),
                   static_cast<unsigned long long>(gets_failed_),
                   static_cast<unsigned long long>(gets_sent_));
    }
  }

  /// Asks the cache listener for METRICS and returns the text.
  std::string metrics() {
    metrics_text_.clear();
    want_metrics_ = true;
    cache_.send(std::string("METRICS\n"));
    const std::int64_t deadline = wall_ns() + kDrainTimeoutNs;
    while (want_metrics_ && wall_ns() < deadline) service(5'000'000);
    if (want_metrics_) throw std::runtime_error("METRICS unanswered");
    return metrics_text_;
  }

  [[nodiscard]] std::uint64_t received_pairs() const noexcept { return received_pairs_; }
  [[nodiscard]] std::int64_t last_receive_ns() const noexcept { return last_receive_ns_; }

  /// Due time to subscriber read of each planned frame, grouped by the
  /// one-second window (since the schedule's start) the frame was due in.
  std::vector<std::vector<double>> latency_ns;
  std::vector<double> get_ns;      ///< GET round trips.

 private:
  void send_get(std::uint32_t sensor) {
    get_pending_ = true;
    get_sensor_ = sensor;
    get_sent_at_ = wall_ns();
    ++gets_sent_;
    cache_.send("GET " + std::to_string(sensor) + "/0\n");
  }

  void on_stream(unsigned index, std::int64_t now) {
    Conn& conn = *subs_[index];
    conn.fill();
    if (!acked_[index]) {
      const auto reply = conn.line();
      if (!reply) return;
      if (reply->rfind("OK SUB", 0) != 0) throw std::runtime_error("SUB refused: " + *reply);
      acked_[index] = true;
    }
    for (;;) {
      const ByteSpan p = conn.pending();
      if (p.size() < 4) return;
      const std::uint32_t length = be32(p);
      if (p.size() < 4 + static_cast<std::size_t>(length)) return;
      // A frame that fails its CRC or names another stream than the
      // payload it carries is handed over empty: the checker counts it
      // corrupt.
      DecodedFrame frame;
      Tag tag;
      const bool decoded = decode_delivery(p.subspan(4, length), frame) && frame.tag == 0 &&
                           read_tag(frame.payload, tag) && tag.id < stream_of_.size() &&
                           stream_of_[tag.id] == frame.sensor;
      if (checker_.on_delivered(index, decoded ? frame.payload : ByteSpan{}, tag)) {
        ++received_pairs_;
        last_receive_ns_ = now;
        if (tag.id >= first_planned_) {
          const auto window = static_cast<std::size_t>((tag.stamp - start_) / 1'000'000'000);
          if (latency_ns.size() <= window) latency_ns.resize(window + 1);
          latency_ns[window].push_back(static_cast<double>(now - tag.stamp));
        }
        if (index == kSubAll) last_seen_[frame.sensor] = tag.id;
      }
      conn.consume(4 + length);
    }
  }

  void on_cache(std::int64_t now) {
    cache_.fill();
    for (;;) {
      if (want_metrics_) {
        if (!metrics_len_) {
          const auto head = cache_.line();
          if (!head) return;
          if (head->rfind("METRICS ", 0) != 0) throw std::runtime_error("bad METRICS reply");
          metrics_len_ = std::stoul(head->substr(8));
        }
        if (cache_.pending().size() < *metrics_len_) return;
        metrics_text_.assign(reinterpret_cast<const char*>(cache_.pending().data()), *metrics_len_);
        cache_.consume(*metrics_len_);
        metrics_len_.reset();
        want_metrics_ = false;
        continue;
      }
      if (!get_pending_) return;
      if (!value_len_) {
        const auto head = cache_.line();
        if (!head) return;
        if (head->rfind("VALUE ", 0) == 0) {
          value_len_ = std::stoul(head->substr(head.value().rfind(' ') + 1));
          continue;
        }
        finish_get(now, false);  // MISS or an error line
        continue;
      }
      if (cache_.pending().size() < *value_len_ + 1) return;
      const ByteSpan payload = cache_.pending().first(*value_len_);
      Tag tag;
      bool ok = read_tag(payload, tag) && tag.id < sent_.size() &&
                stream_of_[tag.id] == get_sensor_ && payload.size() == sent_[tag.id].size() &&
                std::equal(payload.begin(), payload.end(), sent_[tag.id].begin());
      if (final_get_) {
        const bool same = ok && last_seen_[get_sensor_] == tag.id;
        if (!same) ++final_mismatches_;
        ok = same;
      }
      cache_.consume(*value_len_ + 1);
      value_len_.reset();
      finish_get(now, ok);
    }
  }

  void finish_get(std::int64_t now, bool ok) {
    if (!ok) ++gets_failed_;
    get_ns.push_back(static_cast<double>(now - get_sent_at_));
    get_pending_ = false;
  }

  SplitMix rng_;
  std::uint64_t key_;
  Conn producer_;
  Conn cache_;
  std::vector<std::unique_ptr<Conn>> subs_;
  std::vector<bool> acked_;
  PairChecker checker_;
  std::vector<std::vector<std::byte>> sent_;  ///< Payloads by frame id.
  std::vector<std::uint32_t> stream_of_;      ///< Sensor by frame id.
  std::vector<std::uint64_t> last_seen_;      ///< Last frame id `*` read, by sensor.
  std::uint16_t sequence_[kStreams + 1] = {};
  std::vector<std::byte> frame_;
  std::uint64_t expected_pairs_ = 0;
  std::uint64_t received_pairs_ = 0;
  std::int64_t last_receive_ns_ = 0;

  std::int64_t start_ = 0;
  std::size_t first_planned_ = 0;
  std::size_t next_frame_ = 0;
  std::size_t frames_planned_ = 0;

  bool gets_planned_ = false;
  std::int64_t next_get_ = 0;
  bool get_pending_ = false;
  bool final_get_ = false;
  std::uint32_t get_sensor_ = 0;
  std::int64_t get_sent_at_ = 0;
  std::optional<std::size_t> value_len_;
  std::uint64_t gets_sent_ = 0;
  std::uint64_t gets_failed_ = 0;
  std::uint64_t final_mismatches_ = 0;

  bool want_metrics_ = false;
  std::optional<std::size_t> metrics_len_;
  std::string metrics_text_;
};

std::size_t frame_budget(double seconds) {
  return static_cast<std::size_t>(seconds * kRate) + 2 * kStreams + 16;
}

/// One frame per stream, delivered before measuring: every later GET
/// then has a value to return.
void warm_up(Clients& clients) {
  for (std::uint32_t s = 1; s <= kStreams; ++s) clients.send_frame(s, wall_ns());
  if (!clients.drain(kDrainTimeoutNs)) throw std::runtime_error("warm-up frames not delivered");
}

/// Counter `name` from a Prometheus text exposition, or -1.
double prom_counter(const std::string& text, const std::string& name) {
  std::size_t at = 0;
  while ((at = text.find(name, at)) != std::string::npos) {
    const bool line_start = at == 0 || text[at - 1] == '\n';
    const std::size_t end = at + name.size();
    if (line_start && end < text.size() && text[end] == ' ') return std::strtod(text.c_str() + end, nullptr);
    at = end;
  }
  return -1;
}

struct DaemonPhase {
  double window_s = 0;
  double delivered = 0;
  double cpu_ns = 0;
  /// Daemon CPU per delivered copy of the cheapest twentieth of the
  /// kCpuWindowNs windows: every window carries the same offered load, so
  /// windows differ in cost only by what other tenants of the host take,
  /// and such slow spells last seconds.
  double cpu_ns_per_delivered = 0;
  double wakeups = 0;
  double rss_mb = 0;
  std::string metrics;
};

/// Runs the open-loop phase against a started daemon and drains it.
DaemonPhase run_daemon_phase(Clients& clients, const Daemon& daemon, double seconds, bool want_metrics) {
  DaemonPhase phase;
  const std::int64_t cpu0 = process_cpu_ns(daemon.pid());
  const std::uint64_t switches0 = voluntary_switches(daemon.pid());
  const std::uint64_t pairs0 = clients.received_pairs();
  const std::int64_t t0 = wall_ns();
  clients.plan(t0, seconds);
  std::vector<double> window_cpu;
  std::int64_t window_end = t0 + kCpuWindowNs;
  std::int64_t window_cpu0 = cpu0;
  std::uint64_t window_pairs0 = pairs0;
  while (clients.producing()) {
    clients.send_due(wall_ns());
    clients.service(std::min(clients.next_wakeup(), window_end) - wall_ns());
    if (wall_ns() >= window_end) {
      const std::int64_t cpu = process_cpu_ns(daemon.pid());
      window_cpu.push_back(per(static_cast<double>(cpu - window_cpu0),
                               static_cast<double>(clients.received_pairs() - window_pairs0)));
      window_cpu0 = cpu;
      window_pairs0 = clients.received_pairs();
      window_end += kCpuWindowNs;
    }
  }
  clients.stop_gets();
  if (!clients.drain(kDrainTimeoutNs)) throw std::runtime_error("deliveries did not drain");
  const std::int64_t t1 = clients.last_receive_ns();
  phase.cpu_ns = static_cast<double>(process_cpu_ns(daemon.pid()) - cpu0);
  phase.wakeups = static_cast<double>(voluntary_switches(daemon.pid()) - switches0);
  phase.window_s = static_cast<double>(t1 - t0) / 1e9;
  phase.delivered = static_cast<double>(clients.received_pairs() - pairs0);
  phase.cpu_ns_per_delivered =
      window_cpu.empty() ? per(phase.cpu_ns, phase.delivered) : quantile(window_cpu, 0.05);
  phase.rss_mb = peak_rss_mb(daemon.pid());
  if (want_metrics) phase.metrics = clients.metrics();
  return phase;
}

Result end_to_end(const Options& options) {
  Result result;
  Daemon daemon(options.gw_binary);
  Clients clients(options.seed, daemon.ingest, daemon.stream, daemon.cache, frame_budget(options.seconds));
  warm_up(clients);
  mark_setup_done();
  const DaemonPhase phase = run_daemon_phase(clients, daemon, options.seconds, false);
  clients.final_gets(result);
  clients.account(result);

  // Each window's percentiles, taken from the calmest twentieth of the
  // one-second windows: the offered load is the same in every window, so
  // a window reads worse only when the host stalls the daemon or this
  // process, and such slow spells hit many windows of a run at once.
  std::vector<double> p50;
  std::vector<double> p99;
  for (std::vector<double>& window : clients.latency_ns) {
    if (window.empty()) continue;
    p50.push_back(quantile(window, 0.50));
    p99.push_back(quantile(window, 0.99));
  }
  result.add("setup_s", setup_seconds(), "s");
  result.add("delivered_per_s", per(phase.delivered, phase.window_s), "1/s");
  result.add("cpu_ns_per_delivered", phase.cpu_ns_per_delivered, "ns");
  result.add("latency_p50_us", quantile(p50, 0.05) / 1e3, "us");
  result.add("latency_p99_us", quantile(p99, 0.05) / 1e3, "us");
  result.add("peak_rss_mb", phase.rss_mb, "MiB");
  return result;
}

/// The daemon's loop, in process: the gateway on a real PosixTransport,
/// pumped between 10 ms scheduler slices as garnet-gw does, with pump()
/// and the slice timed apart.
struct InProcess {
  LayerAccount pump;
  LayerAccount deliver;
  double frames = 0;
};

InProcess run_in_process(const Options& options, double seconds, Result& result) {
  garnet::Runtime::Config config;
  config.field.area = {{0, 0}, {600, 600}};
  garnet::Runtime runtime(config);
  runtime.deploy_receivers(9, 250);
  garnet::gw::PosixTransport transport(garnet::gw::PosixTransport::Config{});
  garnet::gw::Gateway gateway(runtime, transport);
  runtime.run_for(garnet::util::Duration::millis(20));

  InProcess out;
  auto turn = [&] {
    {
      LayerScope scope(out.pump);
      gateway.pump();
    }
    LayerScope scope(out.deliver);
    runtime.run_for(garnet::util::Duration::nanos(kSliceNs));
  };
  Clients clients(options.seed ^ 0x1F, transport.port(garnet::gw::Listener::kIngest),
                transport.port(garnet::gw::Listener::kStream),
                transport.port(garnet::gw::Listener::kCache), frame_budget(seconds));
  // Connections and SUB lines are accepted by pump(); turn the crank
  // until the warm-up frames are through.
  for (std::uint32_t s = 1; s <= kStreams; ++s) clients.send_frame(s, wall_ns());
  const std::int64_t warm_deadline = wall_ns() + kDrainTimeoutNs;
  while (clients.received_pairs() < kStreams + 1 && wall_ns() < warm_deadline) {
    turn();
    clients.service(1'000'000);
  }
  out.pump = {};
  out.deliver = {};
  const std::int64_t t0 = wall_ns();
  clients.plan(t0, seconds);
  std::int64_t next_slice = t0;
  while (clients.producing()) {
    clients.send_due(wall_ns());
    if (wall_ns() >= next_slice) {
      turn();
      next_slice += kSliceNs;
    }
    clients.service(std::min(clients.next_wakeup(), next_slice) - wall_ns());
  }
  clients.stop_gets();
  const std::int64_t drain_deadline = wall_ns() + kDrainTimeoutNs;
  while (wall_ns() < drain_deadline) {
    turn();
    clients.service(1'000'000);
    if (clients.drain(0)) break;
  }
  clients.account(result);
  out.frames = static_cast<double>(seconds * kRate);
  result.require(gateway.stats().ingest_malformed == 0, "in-process gateway rejected frames");
  return out;
}

}  // namespace

Result run_gateway_tcp(const Options& options) { return end_to_end(options); }

void trace_gateway_tcp(const Options& options, double seconds, Result& result) {
  const double half = seconds / 2;
  {
    Daemon daemon(options.gw_binary);
    Clients clients(options.seed, daemon.ingest, daemon.stream, daemon.cache, frame_budget(half));
    warm_up(clients);
    const DaemonPhase phase = run_daemon_phase(clients, daemon, half, true);
    clients.final_gets(result);
    clients.account(result);
    const double frames = prom_counter(phase.metrics, "garnet_gw_egress_frames");
    const double bytes = prom_counter(phase.metrics, "garnet_gw_egress_bytes");
    const double partial = prom_counter(phase.metrics, "garnet_gw_partial_writes");
    result.require(frames > 0 && bytes > 0 && partial >= 0, "METRICS lacks garnet_gw_egress_*");
    std::vector<double> gets = clients.get_ns;
    result.add("gw.daemon_wakeups_per_s", per(phase.wakeups, phase.window_s), "1/s");
    result.add("gw.egress_bytes_per_frame", per(bytes, frames), "B");
    result.add("gw.partial_writes_per_frame", per(partial, frames), "count");
    result.add("gw.cache_get_us_p50", quantile(gets, 0.5) / 1e3, "us");
  }
  const InProcess in_process = run_in_process(options, half, result);
  result.add("gw.pump_ns_per_frame", per(static_cast<double>(in_process.pump.ns), in_process.frames), "ns");
  result.add("gw.deliver_ns_per_frame", per(static_cast<double>(in_process.deliver.ns), in_process.frames), "ns");
}

}  // namespace perfbench
