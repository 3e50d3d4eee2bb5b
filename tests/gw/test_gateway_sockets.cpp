// Gateway integration on real loopback sockets: everything here goes
// through PosixTransport, the kernel's TCP buffers, and genuinely
// nonblocking client file descriptors. The loopback-transport suite
// proves the state machine; this one proves it against an actual
// kernel boundary — accept backlogs, coalesced reads, short writes,
// RST on close, and flow control via SO_RCVBUF. The last case runs the
// shipped garnet-gw daemon itself: its banner must reach a pipe at
// start-up, and a bad port argument must be a usage error.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/message.hpp"
#include "core/wire_types.hpp"
#include "garnet/runtime.hpp"
#include "gw/framing.hpp"
#include "gw/gateway.hpp"
#include "gw/transport.hpp"

namespace garnet::gw {
namespace {

using util::Duration;

core::DataMessage message(core::StreamId id, core::SequenceNo seq, double value) {
  core::DataMessage msg;
  msg.stream_id = id;
  msg.sequence = seq;
  util::ByteWriter payload(8);
  payload.f64(value);
  msg.payload = std::move(payload).take();
  return msg;
}

util::Bytes framed(const core::DataMessage& msg) {
  const util::Bytes body = core::encode(msg);
  util::Bytes out(kLengthPrefixBytes);
  put_length_prefix(static_cast<std::uint32_t>(body.size()), out.data());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

/// A nonblocking TCP client with its own receive buffer. Tests drain it
/// between gateway pump iterations, exactly like a real peer would.
class Client {
 public:
  Client() = default;
  ~Client() { disconnect(); }
  Client(Client&& other) noexcept : fd_(std::exchange(other.fd_, -1)), rx_(std::move(other.rx_)) {}
  Client& operator=(Client&&) = delete;

  bool connect(std::uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      disconnect();
      return false;
    }
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
    return true;
  }

  void disconnect() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool connected() const { return fd_ >= 0; }

  bool send(util::BytesView bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool send(std::string_view text) {
    return send(util::BytesView(reinterpret_cast<const std::byte*>(text.data()), text.size()));
  }

  /// Pulls whatever the kernel has; returns false once the peer hung up.
  bool drain() {
    if (fd_ < 0) return false;
    std::byte buf[16384];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        rx_.insert(rx_.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;  // EOF or error
    }
  }

  /// Strips and returns the first newline-terminated line, if complete.
  std::optional<std::string> take_line() {
    const auto it = std::find(rx_.begin(), rx_.end(), std::byte{'\n'});
    if (it == rx_.end()) return std::nullopt;
    std::string line(reinterpret_cast<const char*>(rx_.data()),
                     static_cast<std::size_t>(it - rx_.begin()));
    rx_.erase(rx_.begin(), it + 1);
    return line;
  }

  /// Decodes every complete delivery frame buffered so far.
  std::vector<core::Delivery> take_deliveries() {
    std::vector<core::Delivery> out;
    FrameAssembler assembler;
    EXPECT_TRUE(assembler.push(rx_));
    std::size_t consumed = rx_.size();
    while (const auto frame = assembler.frame()) {
      const auto decoded = core::decode_delivery(*frame);
      EXPECT_TRUE(decoded.ok()) << "corrupt frame on the wire";
      if (decoded.ok()) out.push_back(decoded.value());
      assembler.pop();
    }
    consumed -= assembler.buffered();  // keep any trailing partial frame
    rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(consumed));
    return out;
  }

  std::size_t buffered() const { return rx_.size(); }

 private:
  int fd_ = -1;
  util::Bytes rx_;
};

struct Harness {
  Runtime runtime;
  PosixTransport transport{{}};  // ephemeral ports on loopback
  std::unique_ptr<Gateway> gateway;

  explicit Harness(GatewayConfig config = {}) {
    gateway = std::make_unique<Gateway>(runtime, transport, config);
    gateway->step(Duration::millis(20));
  }

  std::uint16_t port(Listener listener) { return transport.port(listener); }

  /// Pumps the gateway and the clients until `done` holds or the
  /// iteration budget runs out. Clients are drained every round so
  /// kernel buffers keep moving.
  template <typename Pred>
  [[nodiscard]] bool pump_until(std::vector<Client*> clients, Pred done, int rounds = 4000) {
    for (int i = 0; i < rounds; ++i) {
      gateway->step(Duration::millis(2));
      for (Client* client : clients) {
        if (client->connected()) (void)client->drain();
      }
      if (done()) return true;
      if (i % 16 == 15) ::usleep(500);  // let the kernel move bytes
    }
    return false;
  }

  Client subscriber(const std::string& pattern) {
    Client client;
    EXPECT_TRUE(client.connect(port(Listener::kStream)));
    EXPECT_TRUE(client.send("SUB " + pattern + "\n"));
    std::optional<std::string> ack;
    EXPECT_TRUE(pump_until({&client}, [&] { return (ack = client.take_line()).has_value(); }));
    EXPECT_EQ(ack.value_or("").rfind("OK SUB", 0), 0u) << ack.value_or("<none>");
    return client;
  }
};

TEST(GatewaySockets, IngestDispatchFanOutRoundTrip) {
  Harness h;
  Client producer;
  ASSERT_TRUE(producer.connect(h.port(Listener::kIngest)));
  Client sub = h.subscriber("11/*");

  ASSERT_TRUE(producer.send(framed(message({11, 2}, 4, 2.75))));
  std::vector<core::Delivery> got;
  ASSERT_TRUE(h.pump_until({&producer, &sub}, [&] {
    auto batch = sub.take_deliveries();
    got.insert(got.end(), batch.begin(), batch.end());
    return !got.empty();
  }));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].message.stream_id, (core::StreamId{11, 2}));
  EXPECT_EQ(got[0].message.sequence, 4);
  util::ByteReader r(got[0].message.payload);
  EXPECT_DOUBLE_EQ(r.f64(), 2.75);

  // The same message is now addressable as a URI on the cache port.
  Client reader;
  ASSERT_TRUE(reader.connect(h.port(Listener::kCache)));
  ASSERT_TRUE(reader.send("GET 11/2\n"));
  std::optional<std::string> reply;
  ASSERT_TRUE(h.pump_until({&reader}, [&] { return (reply = reader.take_line()).has_value(); }));
  EXPECT_EQ(reply->rfind("VALUE 11/2 4 ", 0), 0u) << *reply;
}

TEST(GatewaySockets, HundredSubscribersWithJoinLeaveChurn) {
  Harness h;
  Client producer;
  ASSERT_TRUE(producer.connect(h.port(Listener::kIngest)));

  constexpr int kSubscribers = 104;
  constexpr int kFirstWave = 5;
  constexpr int kSecondWave = 5;
  std::vector<Client> subs;
  subs.reserve(kSubscribers);
  std::vector<Client*> everyone{&producer};
  for (int i = 0; i < kSubscribers; ++i) {
    subs.push_back(h.subscriber("*"));
    everyone.push_back(&subs.back());
  }
  ASSERT_EQ(h.gateway->subscribers(), static_cast<std::size_t>(kSubscribers));

  std::vector<std::size_t> received(kSubscribers, 0);
  const auto drain_counts = [&] {
    for (int i = 0; i < kSubscribers; ++i) {
      if (subs[i].connected()) received[i] += subs[i].take_deliveries().size();
    }
  };

  for (int seq = 0; seq < kFirstWave; ++seq) {
    ASSERT_TRUE(producer.send(framed(message({30, 0}, seq, seq))));
  }
  ASSERT_TRUE(h.pump_until(everyone, [&] {
    drain_counts();
    return std::all_of(received.begin(), received.end(),
                       [](std::size_t n) { return n >= kFirstWave; });
  }));

  // Half the fleet leaves abruptly; the gateway must notice and the
  // remaining half must keep receiving without interruption.
  for (int i = 0; i < kSubscribers; i += 2) subs[i].disconnect();
  for (int seq = 0; seq < kSecondWave; ++seq) {
    ASSERT_TRUE(producer.send(framed(message({30, 0}, kFirstWave + seq, seq))));
  }
  ASSERT_TRUE(h.pump_until(everyone, [&] {
    drain_counts();
    for (int i = 1; i < kSubscribers; i += 2) {
      if (received[i] < kFirstWave + kSecondWave) return false;
    }
    return true;
  }));
  for (int i = 1; i < kSubscribers; i += 2) {
    EXPECT_EQ(received[i], static_cast<std::size_t>(kFirstWave + kSecondWave));
  }

  // The departed connections are reaped once their hangup is seen.
  ASSERT_TRUE(h.pump_until({&producer}, [&] {
    return h.gateway->subscribers() == kSubscribers / 2;
  }));
  EXPECT_EQ(h.gateway->stats().shed.control_total(), 0u);
}

TEST(GatewaySockets, SlowReaderShedsWithoutHeadOfLineBlocking) {
  GatewayConfig config;
  config.outbox_frames = 4;
  Harness h(config);
  Client producer;
  ASSERT_TRUE(producer.connect(h.port(Listener::kIngest)));

  // The slow reader asks for a tiny receive buffer and then never
  // drains it; the kernel window closes and the gateway's bounded
  // outbox must shed data for this connection only.
  Client slow;
  ASSERT_TRUE(slow.connect(h.port(Listener::kStream), /*rcvbuf=*/1));
  ASSERT_TRUE(slow.send("SUB *\n"));
  Client healthy = h.subscriber("*");

  // The kernel grows a blocked connection's send buffer up to
  // tcp_wmem[2] (4 MiB here) before writes come back short, so the
  // total pushed must clear that with room to spare.
  constexpr int kMessages = 112;
  core::DataMessage big = message({21, 0}, 0, 1.0);
  big.payload.resize(60 * 1024, std::byte{0x5A});
  std::size_t healthy_received = 0;
  for (int seq = 0; seq < kMessages; ++seq) {
    big.sequence = seq;
    ASSERT_TRUE(producer.send(framed(big)));
    // Drain only the healthy reader; the slow one stays frozen.
    ASSERT_TRUE(h.pump_until({&producer, &healthy}, [&] {
      healthy_received += healthy.take_deliveries().size();
      return healthy_received >= static_cast<std::size_t>(seq + 1);
    }));
  }

  EXPECT_EQ(healthy_received, static_cast<std::size_t>(kMessages));
  const GatewayStats& stats = h.gateway->stats();
  EXPECT_GT(stats.shed.data_total(), 0u) << "slow reader never overflowed its outbox";
  EXPECT_EQ(stats.shed.control_total(), 0u);
  EXPECT_GT(stats.partial_writes, 0u);  // the kernel pushed back mid-frame
}

TEST(GatewaySockets, CacheServesLatestAcrossReconnect) {
  Harness h;
  Client producer;
  ASSERT_TRUE(producer.connect(h.port(Listener::kIngest)));

  const auto get = [&](Client& reader) -> std::string {
    EXPECT_TRUE(reader.send("GET 9/1\n"));
    std::optional<std::string> line;
    EXPECT_TRUE(h.pump_until({&producer, &reader},
                             [&] { return (line = reader.take_line()).has_value(); }));
    if (line && line->rfind("VALUE", 0) == 0) {
      // Swallow the payload + trailing newline so the buffer stays aligned.
      EXPECT_TRUE(h.pump_until({&reader}, [&] { return reader.take_line().has_value(); }));
    }
    return line.value_or("<none>");
  };

  const auto publish = [&](core::SequenceNo seq, double value) {
    const std::uint64_t before = h.gateway->stats().ingest_frames;
    ASSERT_TRUE(producer.send(framed(message({9, 1}, seq, value))));
    ASSERT_TRUE(h.pump_until({&producer}, [&] {
      return h.gateway->stats().ingest_frames > before && h.gateway->cache().peek({9, 1});
    }));
  };

  Client first;
  ASSERT_TRUE(first.connect(h.port(Listener::kCache)));
  EXPECT_EQ(get(first), "MISS 9/1");

  publish(1, 10.0);
  EXPECT_EQ(get(first).rfind("VALUE 9/1 1 ", 0), 0u);
  first.disconnect();

  // The value advances while nobody is watching; a fresh connection
  // must see the newest sample, not a stale snapshot bound to the
  // previous session.
  publish(2, 20.0);
  publish(3, 30.0);
  Client second;
  ASSERT_TRUE(second.connect(h.port(Listener::kCache)));
  EXPECT_EQ(get(second).rfind("VALUE 9/1 3 ", 0), 0u);
  EXPECT_EQ(h.gateway->cache().peek({9, 1})->sequence, 3u);
}

/// Starts garnet-gw with `args`, its stdout on the write end of `out_fd`
/// (or /dev/null when -1) and its stderr on /dev/null.
pid_t spawn_daemon(std::vector<std::string> args, int out_fd) {
  args.insert(args.begin(), GARNET_GW_BINARY);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (out_fd >= 0) {
    posix_spawn_file_actions_adddup2(&actions, out_fd, STDOUT_FILENO);
  } else {
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  }
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null", O_WRONLY, 0);
  pid_t pid = -1;
  if (posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ) != 0) pid = -1;
  posix_spawn_file_actions_destroy(&actions);
  return pid;
}

int exit_code(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(GatewayDaemon, BannerReachesAPipeAtStartupAndBadPortsExitTwo) {
  // A supervisor reading the daemon's stdout through a pipe learns the
  // ephemeral ports within 2 s of start-up, long before --duration ends.
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t daemon =
      spawn_daemon({"--ingest", "0", "--stream", "0", "--cache", "0", "--sensors", "0", "--quiet",
                    "--duration", "5"},
                   pipe_fds[1]);
  ::close(pipe_fds[1]);
  ASSERT_GT(daemon, 0);

  std::string banner;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (banner.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd readable{pipe_fds[0], POLLIN, 0};
    if (left.count() <= 0 || ::poll(&readable, 1, static_cast<int>(left.count())) <= 0) break;
    char chunk[256];
    const ssize_t n = ::read(pipe_fds[0], chunk, sizeof chunk);
    if (n <= 0) break;
    banner.append(chunk, static_cast<std::size_t>(n));
  }
  ::kill(daemon, SIGTERM);
  ::waitpid(daemon, nullptr, 0);
  ::close(pipe_fds[0]);

  for (const char* listener : {"ingest :", "stream :", "cache :"}) {
    const std::size_t at = banner.find(listener);
    ASSERT_NE(at, std::string::npos) << "banner so far: '" << banner << "'";
    const unsigned long port =
        std::strtoul(banner.c_str() + at + std::strlen(listener), nullptr, 10);
    EXPECT_GT(port, 0u) << listener;  // the bound ephemeral port, not the 0 asked for
    EXPECT_LE(port, 65535u) << listener;
  }

  // A port that does not fit, or is not a number, is a usage error
  // instead of a silent bind to some other port.
  for (const char* bad : {"70000", "abc", "-1", ""}) {
    const pid_t pid =
        spawn_daemon({"--ingest", bad, "--sensors", "0", "--quiet", "--duration", "1"}, -1);
    ASSERT_GT(pid, 0);
    EXPECT_EQ(exit_code(pid), 2) << "--ingest '" << bad << "'";
  }
}

}  // namespace
}  // namespace garnet::gw
