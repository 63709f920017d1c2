// e2e_loadgen: drives a real rfidcepd over loopback TCP through one
// benchmark run and prints the run's end-to-end figures as one JSON line.
//
//   e2e_loadgen --workload=NAME --seed=N --seconds=N --daemon=PATH
//               --dir=DIR
//
// Order: build the inputs and the expected totals; launch the daemon
// several times on empty state (setup_s); fixed-rate phase (ack
// latency); saturation phase (max_obs_s); SIGTERM (shutdown_s); then,
// per shutdown-tail chunk, relaunch over the same state (recovery_s),
// send the chunk and SIGTERM again (shutdown_s). kStats is reconciled
// after the last chunk and once more after a final relaunch. The daemon
// runs on every CPU this process may use but the last, which this
// process keeps; it is single-threaded.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "openloop.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
using e2ebench::NowNs;

constexpr int kSetupLaunches = 31;
// The first frames of each fixed-rate lane warm the connection up and
// are not sampled; the first kBurstFrames of them go out at once. With
// the daemon's Nagle-delayed acks a connection has two steady states,
// acks sent at once or acks held until the next frame arrives, and a
// single processing hiccup moves it from the first to the second for
// good. The burst puts it where a long-running connection ends up, so
// that runs do not differ by which state they happened to start in.
constexpr size_t kWarmupFrames = 200;
constexpr size_t kBurstFrames = 4;
struct Flags {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  std::string daemon;
  std::string dir;
};

// The daemon running now, if any; Die() stops it before exiting.
pid_t g_daemon = -1;

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "e2e_loadgen: %s\n", why.c_str());
  if (g_daemon > 0) {
    ::kill(g_daemon, SIGKILL);
    ::waitpid(g_daemon, nullptr, 0);
  }
  std::exit(1);
}

// Splits the CPUs this process may use: the last one is pinned to this
// process, the rest go to the daemon. With a single CPU both share it.
cpu_set_t PinAndSplitCpus() {
  cpu_set_t daemon;
  ::sched_getaffinity(0, sizeof(daemon), &daemon);
  if (CPU_COUNT(&daemon) < 2) return daemon;
  int last = CPU_SETSIZE - 1;
  while (!CPU_ISSET(last, &daemon)) --last;
  CPU_CLR(last, &daemon);
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(last, &mine);
  ::sched_setaffinity(0, sizeof(mine), &mine);
  return daemon;
}

double Median(std::vector<double> v) { return e2ebench::Percentile(v, 50); }

// One rfidcepd process.
struct Daemon {
  pid_t pid = -1;
  int port = -1;
  int http_port = -1;
};

// Launches the daemon over `state_dir` and waits until both ports are
// bound. Returns the seconds from launch to ready.
double Launch(const Flags& flags, const cpu_set_t& cpus,
              const std::string& state_dir, const std::string& log,
              Daemon* d) {
  const std::string port_file = state_dir + ".ports";
  fs::remove(port_file);
  const std::string config = flags.dir + "/tenants.conf";
  std::vector<std::string> args = {
      flags.daemon,           "--config=" + config,
      "--state-dir=" + state_dir, "--port=0",
      "--http-port=0",        "--port-file=" + port_file};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  // vfork: the child shares this process's memory until it execs, so
  // the launch costs the same however much input the generator holds.
  // The child only makes system calls.
  const int64_t start = NowNs();
  pid_t pid = ::vfork();
  if (pid < 0) Die("vfork failed");
  if (pid == 0) {
    // The daemon must not outlive this process, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::sched_setaffinity(0, sizeof(cpus), &cpus);
    if (err >= 0) ::dup2(err, 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  if (err >= 0) ::close(err);
  d->pid = g_daemon = pid;
  for (;;) {
    std::ifstream in(port_file);
    std::string line;
    if (in && std::getline(in, line) && !in.eof()) {
      std::istringstream fields(line);
      if (fields >> d->port >> d->http_port) break;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      d->pid = g_daemon = -1;
      Die("daemon exited during start-up; see " + log);
    }
    if (NowNs() - start > 120'000'000'000) Die("daemon start timed out");
    ::usleep(100);
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

// SIGTERM and wait; returns the seconds to exit. Exit status must be 0.
double Terminate(Daemon* d, std::vector<std::string>* errors) {
  const int64_t start = NowNs();
  ::kill(d->pid, SIGTERM);
  int status = 0;
  ::waitpid(d->pid, &status, 0);
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    errors->push_back("daemon exited abnormally on SIGTERM");
  }
  d->pid = g_daemon = -1;
  return seconds;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

// Sums every sample of `metric` on the daemon's /metrics page.
double ScrapeMetric(int http_port, const std::string& metric) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(http_port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string body;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request =
        "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n";
    (void)!::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
    char chunk[16384];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      body.append(chunk, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return e2ebench::SumMetric(body, metric)[""];
}

std::vector<e2ebench::Connection> ConnectAll(
    const e2ebench::Workload& w, const Daemon& d) {
  std::vector<e2ebench::Connection> conns(w.tenants.size());
  for (size_t i = 0; i < conns.size(); ++i) {
    rfidcep::Status s =
        e2ebench::Connect(d.port, w.tenants[i].config.name, &conns[i]);
    if (!s.ok()) Die(s.message());
  }
  return conns;
}

// One kStats per tenant, compared with the expected totals; the replies
// land in `got`. Returns the number of mismatching (or unanswered) ones.
uint64_t Reconcile(const e2ebench::Workload& w,
                   std::vector<e2ebench::Connection>& conns,
                   const std::vector<rfidcep::server::StatsReply>& want,
                   const char* when, std::vector<std::string>* errors,
                   std::vector<rfidcep::server::StatsReply>* got) {
  static const std::vector<e2ebench::WireFrame> kStats = {
      {e2ebench::FrameKind::kStats,
       rfidcep::server::EncodeFrame(rfidcep::server::FrameType::kStats, ""),
       0}};
  e2ebench::PhaseSpec spec;
  for (e2ebench::Connection& c : conns) {
    spec.lanes.push_back({&c, &kStats, {}});
  }
  e2ebench::PhaseResult r = e2ebench::RunPhase(spec);
  uint64_t bad = 0;
  got->assign(w.tenants.size(), {});
  for (size_t i = 0; i < w.tenants.size(); ++i) {
    if (!r.stats[i].empty()) (*got)[i] = r.stats[i].back();
    std::string diff = r.stats[i].empty()
                           ? "no reply: " + conns[i].error
                           : e2ebench::DiffStats(want[i], r.stats[i].back());
    if (!diff.empty()) {
      ++bad;
      errors->push_back(std::string(when) + " tenant " +
                        w.tenants[i].config.name + ": " + diff);
    }
  }
  return bad;
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (e2ebench::FlagValue(argv[i], "--workload", &flags.workload) ||
        e2ebench::FlagValue(argv[i], "--daemon", &flags.daemon) ||
        e2ebench::FlagValue(argv[i], "--dir", &flags.dir)) {
    } else if (e2ebench::FlagValue(argv[i], "--seed", &v)) {
      flags.seed = std::stoull(v);
    } else if (e2ebench::FlagValue(argv[i], "--seconds", &v)) {
      flags.seconds = std::stoi(v);
    } else {
      Die(std::string("unknown flag ") + argv[i]);
    }
  }
  if (flags.daemon.empty() || flags.dir.empty()) Die("--daemon and --dir");
  const cpu_set_t daemon_cpus = PinAndSplitCpus();

  // Inputs and the expected totals: not part of any timed figure.
  rfidcep::Result<e2ebench::Workload> built =
      e2ebench::BuildWorkload(flags.workload, flags.seed, flags.seconds);
  if (!built.ok()) Die(built.status().message());
  const e2ebench::Workload& w = *built;
  std::vector<rfidcep::server::StatsReply> want;
  for (const e2ebench::TenantPlan& plan : w.tenants) {
    want.push_back(e2ebench::ExpectedStats(plan));
  }
  fs::create_directories(flags.dir);
  {
    std::ofstream config(flags.dir + "/tenants.conf");
    for (const e2ebench::TenantPlan& plan : w.tenants) {
      const std::string rules = plan.config.name + ".rules";
      std::ofstream(flags.dir + "/" + rules) << plan.config.rules_text;
      config << e2ebench::TenantConfigLine(plan.config, rules);
    }
  }
  const std::string log = flags.dir + "/daemon.log";
  std::vector<std::string> errors;

  // setup_s: launch on empty state, ports ready. The last launch is the
  // daemon the run measures.
  std::vector<double> setup;
  Daemon daemon;
  std::string state;
  for (int k = 0; k < kSetupLaunches; ++k) {
    state = flags.dir + "/state" + std::to_string(k);
    fs::remove_all(state);
    setup.push_back(Launch(flags, daemon_cpus, state, log, &daemon));
    if (k + 1 < kSetupLaunches) Terminate(&daemon, &errors);
  }

  std::vector<e2ebench::Connection> conns = ConnectAll(w, daemon);
  const size_t n = w.tenants.size();

  // Fixed-rate phase: lanes staggered evenly inside one frame gap.
  e2ebench::PhaseSpec fixed;
  const double lane_rate = w.fixed_rate_obs_s / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<e2ebench::WireFrame>& frames = w.tenants[i].fixed;
    const double gap_ns =
        frames.empty() ? 0 : frames.front().observations / lane_rate * 1e9;
    const int64_t offset = static_cast<int64_t>(
        gap_ns * static_cast<double>(i) / static_cast<double>(n));
    std::vector<int64_t> schedule =
        e2ebench::FixedSchedule(frames, lane_rate, offset);
    std::fill(schedule.begin(),
              schedule.begin() + std::min(kBurstFrames, schedule.size()),
              offset);
    fixed.lanes.push_back({&conns[i], &frames, std::move(schedule),
                           std::min(kWarmupFrames, frames.size())});
  }
  e2ebench::PhaseResult fixed_result = e2ebench::RunPhase(fixed);

  e2ebench::PhaseSpec saturation;
  saturation.window = w.window;
  for (size_t i = 0; i < n; ++i) {
    saturation.lanes.push_back({&conns[i], &w.tenants[i].saturation, {}});
  }
  e2ebench::PhaseResult sat_result = e2ebench::RunPhase(saturation);

  uint64_t attempted =
      fixed_result.frames_attempted + sat_result.frames_attempted;
  uint64_t failed = fixed_result.frames_failed + sat_result.frames_failed;
  const double ingest_stalls =
      ScrapeMetric(daemon.http_port, "rfidcepd_ingest_stalls_total");
  const double peak_rss_mb = PeakRssMb(daemon.pid);
  const int threads = std::max(fixed_result.threads, sat_result.threads);
  auto close_all = [&errors](std::vector<e2ebench::Connection>* all) {
    for (e2ebench::Connection& c : *all) {
      if (c.failed) errors.push_back("connection: " + c.error);
      e2ebench::Close(&c);
    }
  };
  close_all(&conns);
  std::vector<double> shutdown = {Terminate(&daemon, &errors)};

  // Relaunch over the state the last SIGTERM left (recovery_s), send the
  // next shutdown-tail chunk and SIGTERM (shutdown_s), so that every
  // shutdown sample syncs fresh WAL records and checkpoints a changed
  // state. kStats must equal the expected totals once the last chunk is
  // in, and again after one more relaunch.
  std::vector<double> recovery;
  std::vector<rfidcep::server::StatsReply> got;
  const size_t chunks = w.tenants.front().tail.size();
  for (size_t k = 0;; ++k) {
    recovery.push_back(Launch(flags, daemon_cpus, state, log, &daemon));
    conns = ConnectAll(w, daemon);
    if (k == chunks) break;
    e2ebench::PhaseSpec tail;
    tail.window = w.window;
    for (size_t i = 0; i < n; ++i) {
      tail.lanes.push_back({&conns[i], &w.tenants[i].tail[k], {}});
    }
    const e2ebench::PhaseResult r = e2ebench::RunPhase(tail);
    attempted += r.frames_attempted;
    failed += r.frames_failed;
    if (k + 1 == chunks) {
      attempted += n;
      failed += Reconcile(w, conns, want, "before shutdown", &errors, &got);
    }
    close_all(&conns);
    shutdown.push_back(Terminate(&daemon, &errors));
  }
  attempted += n;
  failed += Reconcile(w, conns, want, "after restart", &errors, &got);
  close_all(&conns);
  Terminate(&daemon, &errors);

  {
    // Every sampled ack latency of the fixed-rate phase, for diagnosis.
    std::ofstream acks(flags.dir + "/fixed_ack_ms.txt");
    for (double ms : fixed_result.ack_ms) acks << ms << "\n";
  }
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  for (std::string& problem :
       e2ebench::GeneratorProblems(fixed_result, threads, n, nproc)) {
    errors.push_back(std::move(problem));
  }
  uint64_t obs = 0;
  for (const e2ebench::TenantPlan& plan : w.tenants) obs += plan.observations;
  // max_obs_s is the whole phase's rate. The stream's later part is
  // slower (more live state and store rows), so a median over parts of
  // the phase would jump between its fast and slow halves.
  const double max_obs_s =
      static_cast<double>(sat_result.observations_acked) /
      std::max(sat_result.elapsed_s, 1e-9);

  std::string tenants_json = "[";
  for (size_t i = 0; i < got.size(); ++i) {
    tenants_json += (i ? ", " : "") + std::string("{\"name\": ") +
                    JsonString(w.tenants[i].config.name) +
                    ", \"observations\": " +
                    std::to_string(got[i].observations) +
                    ", \"rules_fired\": " +
                    std::to_string(got[i].rules_fired) +
                    ", \"sql_actions\": " +
                    std::to_string(got[i].sql_actions) + "}";
  }
  tenants_json += "]";
  std::string err_json = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    err_json += (i ? ", " : "") + JsonString(errors[i]);
  }
  err_json += "]";
  std::printf(
      "{\"workload\": %s, \"errors\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"observations\": %llu, "
      "\"setup_s\": %.9g, \"setup_samples\": %s, "
      "\"ack_p50_ms\": %.9g, \"ack_p99_ms\": %.9g, \"ack_samples\": %zu, "
      "\"fixed_rate_obs_s\": %.9g, \"max_obs_s\": %.9g, "
      "\"sat_elapsed_s\": %.9g, \"gen_sat_cpu_frac\": %.6g, "
      "\"peak_rss_mb\": %.9g, \"shutdown_s\": %.9g, "
      "\"shutdown_samples\": %s, \"recovery_s\": %.9g, "
      "\"recovery_samples\": %s, \"gen_lag_p99_ms\": %.9g, "
      "\"ingest_stalls\": %.9g, \"threads\": %d, \"connections\": %zu, "
      "\"nproc\": %ld, \"tenants\": %s}\n",
      JsonString(w.name).c_str(), err_json.c_str(),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(obs), Median(setup),
      JsonList(setup).c_str(), e2ebench::Percentile(fixed_result.ack_ms, 50),
      e2ebench::Percentile(fixed_result.ack_ms, 99),
      fixed_result.ack_ms.size(), w.fixed_rate_obs_s,
      max_obs_s,
      sat_result.elapsed_s,
      sat_result.cpu_s / std::max(sat_result.elapsed_s, 1e-9), peak_rss_mb,
      Median(shutdown), JsonList(shutdown).c_str(), Median(recovery),
      JsonList(recovery).c_str(),
      e2ebench::Percentile(fixed_result.lag_ms, 99), ingest_stalls, threads,
      n, nproc, tenants_json.c_str());
  return 0;
}
