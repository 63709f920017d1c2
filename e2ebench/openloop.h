// The load generator's sender: one thread drives every connection with
// non-blocking sockets and poll, so the generator never uses more
// threads or connections than the workload has tenants.
//
// A fixed-rate phase sends each frame at its scheduled time, whatever
// the server is doing, and times its ack from that scheduled time: a
// stall delays the acks of every frame due during it, and all of that
// wait is counted (no coordinated omission). A saturation phase keeps a
// fixed window of frames in flight per connection instead.

#ifndef E2EBENCH_OPENLOOP_H_
#define E2EBENCH_OPENLOOP_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"
#include "workloads.h"

namespace e2ebench {

int64_t NowNs();  // steady clock

// A connection that has sent its hello and had it acknowledged.
struct Connection {
  int fd = -1;
  rfidcep::server::FrameReader reader;
  uint64_t frames_answered = 0;  // The server acks its k-th frame with k.
  bool failed = false;
  std::string error;
};

// Connects to 127.0.0.1:`port`, sets TCP_NODELAY and opens `tenant`.
rfidcep::Status Connect(int port, const std::string& tenant,
                        Connection* conn);
void Close(Connection* conn);

struct PhaseLane {
  Connection* conn = nullptr;
  const std::vector<WireFrame>* frames = nullptr;
  // Send time of each frame, in ns after the phase starts. Empty: the
  // lane runs closed-window (PhaseSpec::window frames in flight).
  std::vector<int64_t> schedule_ns;
  // The first `warmup` frames are sent like the others but record no
  // latency or lag.
  size_t warmup = 0;
};

struct PhaseSpec {
  std::vector<PhaseLane> lanes;
  int window = 1;
};

// A frame without an answer this long after it was due fails, and so
// does everything after it on that connection.
inline constexpr int64_t kAckTimeoutNs = 30'000'000'000;

struct PhaseResult {
  // Batch-frame ack latency: from the scheduled send time in a
  // fixed-rate lane, from the actual send in a window lane.
  std::vector<double> ack_ms;
  // How late the generator itself noticed each due frame (fixed-rate
  // lanes): its timer and loop overhead, not the server's backpressure.
  std::vector<double> lag_ms;
  uint64_t frames_attempted = 0;
  uint64_t frames_failed = 0;
  uint64_t observations_acked = 0;
  double elapsed_s = 0;  // Phase start to the last answer.
  // Stats replies, per lane, in arrival order.
  std::vector<std::vector<rfidcep::server::StatsReply>> stats;
  int threads = 0;  // Threads of this process, sampled mid-phase.
  double cpu_s = 0;  // CPU time this process spent in the phase.
};

PhaseResult RunPhase(const PhaseSpec& spec);

// The schedule of a fixed-rate lane: batch frames at `rate_obs_s`
// observations per second, starting at `offset_ns`; a control frame goes
// out halfway to the next batch frame.
std::vector<int64_t> FixedSchedule(const std::vector<WireFrame>& frames,
                                   double rate_obs_s, int64_t offset_ns);

// A run whose generator noticed due frames later than this (p99) did
// not offer the load it claims. Host timer jitter stays well below it;
// a generator that cannot keep up falls behind without bound.
inline constexpr double kMaxLagP99Ms = 20.0;

// Why a run's offered load cannot be trusted, if it cannot: generator
// lag over kMaxLagP99Ms in the fixed-rate phase, or more threads or
// connections than `nproc`. Empty when the run is valid.
std::vector<std::string> GeneratorProblems(const PhaseResult& fixed,
                                           int threads, size_t connections,
                                           long nproc);

// Linear-interpolated percentile (0..100) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double pct);

// If `arg` is "`name`=VALUE", stores VALUE in `out` and returns true.
bool FlagValue(const char* arg, const char* name, std::string* out);

// Sums the samples of `metric` in a Prometheus text exposition, keyed by
// the value of label `by`. With `by` empty every sample goes under "";
// otherwise samples without that label are skipped.
std::map<std::string, double> SumMetric(std::string_view exposition,
                                        const std::string& metric,
                                        const std::string& by = "");

}  // namespace e2ebench

#endif  // E2EBENCH_OPENLOOP_H_
