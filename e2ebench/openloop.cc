#include "openloop.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

namespace e2ebench {
namespace {

using rfidcep::Status;
using rfidcep::server::DecodeResult;
using rfidcep::server::FrameType;

// Per-lane send/answer cursor. Frames [answered, queued) are on the
// wire or in the send queue; [sending, queued) still have bytes to
// write, starting at `offset` of frame `sending`.
struct LaneState {
  const PhaseLane* lane = nullptr;
  std::vector<int64_t> due;  // Absolute ns; set when a frame is queued.
  size_t queued = 0;
  size_t sending = 0;
  size_t offset = 0;
  size_t answered = 0;
  bool dead = false;

  size_t size() const { return lane->frames->size(); }
  bool done() const { return dead || answered == size(); }
};

void Fail(LaneState* s, const std::string& why) {
  if (s->dead) return;
  s->dead = true;
  s->lane->conn->failed = true;
  if (s->lane->conn->error.empty()) s->lane->conn->error = why;
}

void SendQueued(LaneState* s) {
  const std::vector<WireFrame>& frames = *s->lane->frames;
  while (!s->dead && s->sending < s->queued) {
    const std::string& bytes = frames[s->sending].bytes;
    ssize_t n = ::send(s->lane->conn->fd, bytes.data() + s->offset,
                       bytes.size() - s->offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        Fail(s, std::string("send: ") + std::strerror(errno));
      }
      return;
    }
    s->offset += static_cast<size_t>(n);
    if (s->offset == bytes.size()) {
      ++s->sending;
      s->offset = 0;
    }
  }
}

// Matches one server frame to the oldest unanswered client frame.
void Answer(LaneState* s, const rfidcep::server::Frame& frame, int64_t now,
            PhaseResult* result, size_t lane_index) {
  Connection* conn = s->lane->conn;
  if (s->answered >= s->queued) {
    Fail(s, "answer without a request");
    return;
  }
  if (frame.type == FrameType::kError) {
    Status status;
    (void)rfidcep::server::DecodeError(frame.body, &status);
    Fail(s, "server error: " + status.message());
    return;
  }
  const WireFrame& sent = (*s->lane->frames)[s->answered];
  ++conn->frames_answered;
  if (sent.kind == FrameKind::kStats) {
    rfidcep::server::StatsReply reply;
    if (frame.type != FrameType::kStatsReply ||
        !rfidcep::server::DecodeStatsReply(frame.body, &reply).ok()) {
      Fail(s, "bad stats reply");
      return;
    }
    result->stats[lane_index].push_back(std::move(reply));
  } else {
    uint64_t seq = 0;
    if (frame.type != FrameType::kAck ||
        !rfidcep::server::DecodeAck(frame.body, &seq).ok() ||
        seq != conn->frames_answered) {
      Fail(s, "bad or out-of-order ack");
      return;
    }
    if (sent.kind == FrameKind::kBatch) {
      if (s->answered >= s->lane->warmup) {
        result->ack_ms.push_back(
            static_cast<double>(now - s->due[s->answered]) / 1e6);
      }
      result->observations_acked += sent.observations;
    }
  }
  ++s->answered;
}

void Receive(LaneState* s, PhaseResult* result, size_t lane_index) {
  char chunk[64 << 10];
  for (;;) {
    ssize_t n = ::recv(s->lane->conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      Fail(s, n == 0 ? "server closed the connection"
                     : std::string("recv: ") + std::strerror(errno));
      return;
    }
    const int64_t now = NowNs();
    s->lane->conn->reader.Feed(std::string_view(chunk, static_cast<size_t>(n)));
    rfidcep::server::Frame frame;
    for (;;) {
      DecodeResult r = s->lane->conn->reader.Next(&frame);
      if (r == DecodeResult::kNeedMore) break;
      if (r == DecodeResult::kError) {
        Fail(s, "bad server frame: " + s->lane->conn->reader.error());
        return;
      }
      Answer(s, frame, now, result, lane_index);
      if (s->dead) return;
    }
  }
}

// Threads of this process (/proc/self/task entries).
int CountThreads() {
  int count = 0;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') ++count;
    }
    ::closedir(dir);
  }
  return count;
}

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return s(usage.ru_utime) + s(usage.ru_stime);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Connect(int port, const std::string& tenant, Connection* conn) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket failed");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Internal(std::string("connect: ") + std::strerror(errno));
  }
  const std::string hello = rfidcep::server::EncodeHello(tenant);
  if (::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(hello.size())) {
    ::close(fd);
    return Status::Internal("hello send failed");
  }
  *conn = Connection{};
  conn->fd = fd;
  // Blocking wait for the hello's ack (seq 0).
  char chunk[4096];
  rfidcep::server::Frame frame;
  for (;;) {
    DecodeResult r = conn->reader.Next(&frame);
    if (r == DecodeResult::kItem) break;
    if (r == DecodeResult::kError) {
      Close(conn);
      return Status::Internal("bad hello answer");
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      Close(conn);
      return Status::Internal("no hello answer");
    }
    conn->reader.Feed(std::string_view(chunk, static_cast<size_t>(n)));
  }
  uint64_t seq = 1;
  if (frame.type != FrameType::kAck ||
      !rfidcep::server::DecodeAck(frame.body, &seq).ok() || seq != 0) {
    Close(conn);
    return Status::Internal("tenant '" + tenant + "' refused");
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return Status::Ok();
}

void Close(Connection* conn) {
  if (conn->fd >= 0) ::close(conn->fd);
  conn->fd = -1;
}

std::vector<int64_t> FixedSchedule(const std::vector<WireFrame>& frames,
                                   double rate_obs_s, int64_t offset_ns) {
  std::vector<int64_t> out;
  out.reserve(frames.size());
  double obs = 0;       // Observations sent before the next batch frame.
  double previous = 0;  // Observations before the last batch frame.
  for (const WireFrame& frame : frames) {
    double at = frame.kind == FrameKind::kBatch ? obs : (previous + obs) / 2;
    out.push_back(offset_ns + static_cast<int64_t>(at / rate_obs_s * 1e9));
    if (frame.kind == FrameKind::kBatch) {
      previous = obs;
      obs += frame.observations;
    }
  }
  return out;
}

PhaseResult RunPhase(const PhaseSpec& spec) {
  PhaseResult result;
  result.stats.resize(spec.lanes.size());
  std::vector<LaneState> lanes(spec.lanes.size());
  for (size_t i = 0; i < lanes.size(); ++i) {
    lanes[i].lane = &spec.lanes[i];
    lanes[i].due.resize(lanes[i].size());
    result.frames_attempted += lanes[i].size();
    if (spec.lanes[i].conn->failed) Fail(&lanes[i], "connection failed");
  }
  const double cpu_start = CpuSeconds();
  const int64_t start = NowNs();
  int64_t last_answer = start;
  std::vector<pollfd> fds(lanes.size());
  result.threads = CountThreads();
  bool sampled_threads = false;

  for (;;) {
    const int64_t now = NowNs();
    int64_t wake = std::numeric_limits<int64_t>::max();
    bool all_done = true;
    for (size_t i = 0; i < lanes.size(); ++i) {
      LaneState& s = lanes[i];
      if (s.done()) {
        fds[i] = {-1, 0, 0};
        continue;
      }
      all_done = false;
      const std::vector<int64_t>& schedule = s.lane->schedule_ns;
      if (!schedule.empty()) {
        while (s.queued < s.size() && start + schedule[s.queued] <= now) {
          s.due[s.queued] = start + schedule[s.queued];
          if (s.queued >= s.lane->warmup) {
            result.lag_ms.push_back(
                static_cast<double>(now - s.due[s.queued]) / 1e6);
          }
          ++s.queued;
        }
        if (s.queued < s.size()) {
          wake = std::min(wake, start + schedule[s.queued]);
        }
      } else {
        while (s.queued < s.size() &&
               s.queued - s.answered < static_cast<size_t>(spec.window)) {
          s.due[s.queued++] = now;
        }
      }
      SendQueued(&s);
      if (s.answered < s.queued && now - s.due[s.answered] > kAckTimeoutNs) {
        Fail(&s, "ack timeout");
      }
      if (s.answered < s.queued) {
        wake = std::min(wake, s.due[s.answered] + kAckTimeoutNs);
      }
      fds[i] = {s.dead ? -1 : s.lane->conn->fd,
                static_cast<short>(POLLIN |
                                   (s.sending < s.queued ? POLLOUT : 0)),
                0};
    }
    if (all_done) break;
    timespec timeout{0, 0};
    if (wake != std::numeric_limits<int64_t>::max()) {
      const int64_t wait = std::max<int64_t>(0, wake - NowNs());
      timeout.tv_sec = wait / 1'000'000'000;
      timeout.tv_nsec = wait % 1'000'000'000;
    }
    int n = ::ppoll(fds.data(), fds.size(),
                    wake == std::numeric_limits<int64_t>::max() ? nullptr
                                                                : &timeout,
                    nullptr);
    if (n < 0 && errno != EINTR) break;
    for (size_t i = 0; i < lanes.size() && n > 0; ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        const size_t before = lanes[i].answered;
        Receive(&lanes[i], &result, i);
        if (lanes[i].answered != before) last_answer = NowNs();
      }
      if ((fds[i].revents & POLLOUT) != 0) SendQueued(&lanes[i]);
    }
    if (!sampled_threads && lanes[0].answered * 2 >= lanes[0].size()) {
      result.threads = std::max(result.threads, CountThreads());
      sampled_threads = true;
    }
  }
  for (const LaneState& s : lanes) {
    result.frames_failed += s.size() - s.answered;
  }
  result.elapsed_s = static_cast<double>(last_answer - start) / 1e9;
  result.cpu_s = CpuSeconds() - cpu_start;
  return result;
}

std::vector<std::string> GeneratorProblems(const PhaseResult& fixed,
                                           int threads, size_t connections,
                                           long nproc) {
  std::vector<std::string> problems;
  const double lag_p99 = Percentile(fixed.lag_ms, 99);
  if (lag_p99 > kMaxLagP99Ms) {
    problems.push_back("generator lag p99 " + std::to_string(lag_p99) +
                       " ms exceeds " + std::to_string(kMaxLagP99Ms) + " ms");
  }
  if (threads > nproc || static_cast<long>(connections) > nproc) {
    problems.push_back("generator used " + std::to_string(threads) +
                       " threads and " + std::to_string(connections) +
                       " connections; nproc is " + std::to_string(nproc));
  }
  return problems;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

bool FlagValue(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

std::map<std::string, double> SumMetric(std::string_view exposition,
                                        const std::string& metric,
                                        const std::string& by) {
  std::map<std::string, double> sums;
  std::istringstream in{std::string(exposition)};
  std::string line;
  const std::string label = by + "=\"";
  while (std::getline(in, line)) {
    if (line.rfind(metric, 0) != 0) continue;
    const char next = line[metric.size()];
    if (next != ' ' && next != '{') continue;
    std::string key;
    if (!by.empty()) {
      const size_t brace = line.find('}');
      const size_t at = line.find(label);
      if (next != '{' || at == std::string::npos || at > brace ||
          (line[at - 1] != '{' && line[at - 1] != ',')) {
        continue;
      }
      const size_t begin = at + label.size();
      key = line.substr(begin, line.find('"', begin) - begin);
    }
    sums[key] += std::stod(line.substr(line.rfind(' ') + 1));
  }
  return sums;
}

}  // namespace e2ebench
