// Tests for the load generator's sender (openloop.h) against fake
// servers, and for the daemon rule rewrite (workloads.h).

#include "openloop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "engine/engine.h"
#include "gtest/gtest.h"
#include "sim/supply_chain.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using rfidcep::server::DecodeResult;

// A fake rfidcepd in a child process: accepts `connections` clients,
// acks the hello and then every frame in order. Before answering frame
// number `stall_frame` (1-based, per connection) it sleeps `stall_ms`.
class FakeServer {
 public:
  FakeServer(int connections, int stall_frame, int stall_ms) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::listen(fd, 16), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    for (int c = 0; c < connections; ++c) {
      pid_t pid = ::fork();
      if (pid == 0) {
        Serve(::accept(fd, nullptr, nullptr), stall_frame, stall_ms);
        ::_exit(0);
      }
      children_.push_back(pid);
    }
    ::close(fd);
  }
  ~FakeServer() {
    for (pid_t pid : children_) ::waitpid(pid, nullptr, 0);
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;

  int port() const { return port_; }

 private:
  static void Serve(int fd, int stall_frame, int stall_ms) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::string hello;
    char chunk[65536];
    rfidcep::server::Hello parsed;
    size_t consumed = 0;
    std::string error;
    while (rfidcep::server::DecodeHello(hello, &parsed, &consumed, &error) ==
           DecodeResult::kNeedMore) {
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return;
      hello.append(chunk, static_cast<size_t>(n));
    }
    std::string ack = rfidcep::server::EncodeAck(0);
    (void)!::send(fd, ack.data(), ack.size(), 0);
    rfidcep::server::FrameReader reader;
    reader.Feed(std::string_view(hello).substr(consumed));
    uint64_t seq = 0;
    for (;;) {
      rfidcep::server::Frame frame;
      DecodeResult r = reader.Next(&frame);
      if (r == DecodeResult::kError) return;
      if (r == DecodeResult::kNeedMore) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) break;
        reader.Feed(std::string_view(chunk, static_cast<size_t>(n)));
        continue;
      }
      if (static_cast<int>(++seq) == stall_frame) ::usleep(stall_ms * 1000);
      ack = rfidcep::server::EncodeAck(seq);
      (void)!::send(fd, ack.data(), ack.size(), 0);
    }
    ::close(fd);
  }

  int port_ = -1;
  std::vector<pid_t> children_;
};

std::vector<WireFrame> Batches(int count, uint32_t obs_per_frame) {
  std::vector<rfidcep::events::Observation> batch(obs_per_frame,
                                                  {"r1", "o1", 1});
  std::vector<WireFrame> frames(
      count, WireFrame{FrameKind::kBatch, rfidcep::server::EncodeBatch(batch),
                       obs_per_frame});
  return frames;
}

// 40 frames at 10 ms; the server sleeps 200 ms before answering frame 5
// (due at 40 ms). Every frame due during the stall must be charged the
// wait from its own scheduled time, as an open-loop client sees it.
TEST(OpenLoop, StallIsChargedFromScheduledSendTime) {
  FakeServer server(1, /*stall_frame=*/5, /*stall_ms=*/200);
  Connection conn;
  ASSERT_TRUE(Connect(server.port(), "t", &conn).ok());
  const std::vector<WireFrame> frames = Batches(40, 10);
  PhaseSpec spec;
  spec.lanes.push_back({&conn, &frames, FixedSchedule(frames, 1000.0, 0)});
  PhaseResult r = RunPhase(spec);
  Close(&conn);
  ASSERT_EQ(r.frames_failed, 0u);
  ASSERT_EQ(r.ack_ms.size(), 40u);
  // The stall ends near 40 + 200 = 240 ms; frame k is due at 10 k ms.
  for (int k = 4; k < 20; ++k) {
    EXPECT_GE(r.ack_ms[k], 240.0 - 10.0 * k - 15.0) << "frame " << k;
  }
  // After it the server keeps up again.
  EXPECT_LT(r.ack_ms[39], 50.0);
  // The generator itself stayed on schedule throughout.
  ASSERT_EQ(r.lag_ms.size(), 40u);
  EXPECT_LT(Percentile(r.lag_ms, 99), kMaxLagP99Ms);
}

// The same stall seen by a closed window of one: latency counts from the
// actual send, so only the stalled frame shows it. This is the bias the
// open loop exists to avoid.
TEST(OpenLoop, ClosedWindowHidesTheStallFromLaterFrames) {
  FakeServer server(1, 5, 200);
  Connection conn;
  ASSERT_TRUE(Connect(server.port(), "t", &conn).ok());
  const std::vector<WireFrame> frames = Batches(40, 10);
  PhaseSpec spec;
  spec.window = 1;
  spec.lanes.push_back({&conn, &frames, {}});
  PhaseResult r = RunPhase(spec);
  Close(&conn);
  ASSERT_EQ(r.ack_ms.size(), 40u);
  EXPECT_GE(r.ack_ms[4], 190.0);
  EXPECT_LT(r.ack_ms[5], 50.0);
  EXPECT_TRUE(r.lag_ms.empty());
}

TEST(OpenLoop, LagOverTheBoundMarksTheRunInvalid) {
  PhaseResult on_time;
  on_time.lag_ms.assign(100, 0.2);
  EXPECT_TRUE(GeneratorProblems(on_time, 1, 1, 4).empty());
  PhaseResult late = on_time;
  late.lag_ms.assign(100, kMaxLagP99Ms + 1);
  const std::vector<std::string> problems = GeneratorProblems(late, 1, 1, 4);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("lag"), std::string::npos);
}

// Three tenants, three connections, one thread.
TEST(OpenLoop, ThreadsAndConnectionsStayWithinNproc) {
  FakeServer server(3, 0, 0);
  std::vector<Connection> conns(3);
  const std::vector<WireFrame> frames = Batches(200, 64);
  PhaseSpec spec;
  spec.window = 4;
  for (Connection& c : conns) {
    ASSERT_TRUE(Connect(server.port(), "t", &c).ok());
    spec.lanes.push_back({&c, &frames, {}});
  }
  PhaseResult r = RunPhase(spec);
  for (Connection& c : conns) Close(&c);
  EXPECT_EQ(r.frames_failed, 0u);
  EXPECT_EQ(r.observations_acked, 3u * 200 * 64);
  EXPECT_EQ(r.threads, 1);
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  EXPECT_TRUE(GeneratorProblems(r, r.threads, conns.size(), nproc).empty());
  EXPECT_FALSE(GeneratorProblems(r, r.threads, nproc + 1, nproc).empty());
  EXPECT_FALSE(GeneratorProblems(r, nproc + 1, 1, nproc).empty());
}

// The rewritten program, run with the daemon's empty environment, finds
// exactly the matches of the original with the simulator's environment.
TEST(DaemonRules, RewriteKeepsEveryMatch) {
  rfidcep::sim::SupplyChainConfig config;
  config.seed = 20060327;
  config.num_sites = 5;
  config.num_items = 10000;
  config.num_cases = 1000;
  config.arrival_rate_per_second = 1000.0;
  config.duplicate_rate = 0.03;
  rfidcep::sim::SupplyChain chain(config);
  const std::vector<rfidcep::events::Observation> stream =
      chain.GenerateStream(200000);
  const std::string original = chain.GeneratedRuleProgram(25);
  const std::string rewritten = DaemonRuleProgram(original);
  EXPECT_EQ(rewritten.find("\"g_"), std::string::npos);
  EXPECT_EQ(rewritten.find("type("), std::string::npos);

  auto run = [&](const std::string& rules, rfidcep::events::Environment env,
                 std::vector<uint64_t>* per_rule) {
    rfidcep::engine::EngineOptions options;
    options.execute_actions = false;
    rfidcep::engine::RcedaEngine engine(nullptr, env, options);
    EXPECT_TRUE(engine.AddRulesFromText(rules).ok());
    EXPECT_TRUE(engine.Compile().ok());
    EXPECT_TRUE(engine.ProcessAll(stream).ok());
    for (size_t i = 0; i < engine.num_rules(); ++i) {
      per_rule->push_back(engine.FiredCount(engine.rule(i).id));
    }
    return engine.stats().detector.rule_matches;
  };
  std::vector<uint64_t> want, got;
  const uint64_t matches = run(original, chain.environment(), &want);
  EXPECT_EQ(matches, 283316u);  // The Fig. 9 stream at 200k events.
  EXPECT_EQ(run(rewritten, rfidcep::events::Environment{}, &got), matches);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace e2ebench
