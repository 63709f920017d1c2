// End-to-end rfidcepd tests (ISSUE 10): a real Server on a loopback
// socket, a client speaking the binary protocol, and an in-process
// library engine as the oracle. The daemon must be a transparent
// transport — byte-identical match/fired counts to the library path —
// and its SIGTERM lifecycle must reconcile exactly across a restart,
// including onto a different shard count.

#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "store/csv.h"
#include "store/database.h"
#include "store/store_image.h"

namespace rfidcep::server {
namespace {

namespace fs = std::filesystem;

// Two rule families per tenant: a per-observation SQL action and a
// WITHIN pair raising an alarm procedure (the exactly-once surface).
constexpr std::string_view kAlphaRules = R"(
  CREATE RULE loc, location update rule
  ON observation(r, o, t)
  IF true
  DO INSERT INTO OBJECTLOCATION VALUES (o, r, t, "UC")

  CREATE RULE dup, duplicate read rule
  ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
  IF true
  DO raise alarm
)";

constexpr std::string_view kBetaRules = R"(
  CREATE RULE watch, watched object rule
  ON observation(r, o, t)
  IF o = 'hot'
  DO notify security
)";

// Deterministic trace: the same (reader, object) pair recurs every 2.5
// seconds, inside dup's 5-second window; every 7th object is 'hot'.
std::vector<events::Observation> MakeTrace(int count) {
  std::vector<events::Observation> trace;
  trace.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::string object = i % 7 == 0 ? "hot" : "obj" + std::to_string(i % 5);
    trace.push_back(events::Observation{"dock" + std::to_string(i % 5),
                                        std::move(object),
                                        static_cast<TimePoint>(i) *
                                            (kSecond / 2)});
  }
  return trace;
}

std::vector<std::vector<events::Observation>> Batched(
    const std::vector<events::Observation>& trace, size_t batch) {
  std::vector<std::vector<events::Observation>> batches;
  for (size_t i = 0; i < trace.size(); i += batch) {
    batches.emplace_back(trace.begin() + static_cast<ptrdiff_t>(i),
                         trace.begin() +
                             static_cast<ptrdiff_t>(
                                 std::min(i + batch, trace.size())));
  }
  return batches;
}

// A TCP connection to 127.0.0.1:`port`, or -1.
int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// A minimal protocol client for loopback tests.
class Client {
 public:
  ~Client() { Close(); }

  bool Connect(int port, const std::string& tenant) {
    fd_ = ConnectLoopback(port);
    if (fd_ < 0) return false;
    if (!SendRaw(EncodeHello(tenant))) return false;
    Frame frame;
    return ReadFrame(&frame) && frame.type == FrameType::kAck;
  }

  bool SendRaw(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads server frames until one complete frame is available.
  bool ReadFrame(Frame* out) {
    for (;;) {
      switch (reader_.Next(out)) {
        case DecodeResult::kItem:
          return true;
        case DecodeResult::kError:
          return false;
        case DecodeResult::kNeedMore:
          break;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      reader_.Feed(std::string_view(chunk, static_cast<size_t>(n)));
    }
  }

  // Sends one frame and waits for its ack.
  bool Roundtrip(std::string_view encoded_frame) {
    if (!SendRaw(encoded_frame)) return false;
    Frame frame;
    return ReadFrame(&frame) && frame.type == FrameType::kAck;
  }

  bool Stats(StatsReply* out) {
    if (!SendRaw(EncodeFrame(FrameType::kStats, ""))) return false;
    Frame frame;
    if (!ReadFrame(&frame) || frame.type != FrameType::kStatsReply) {
      return false;
    }
    return DecodeStatsReply(frame.body, out).ok();
  }

  // Reads the terminal kError frame (after the server fails the
  // connection) and the EOF behind it.
  bool ReadError(Status* out) {
    Frame frame;
    if (!ReadFrame(&frame) || frame.type != FrameType::kError) return false;
    if (!DecodeError(frame.body, out).ok()) return false;
    char byte;
    return ::recv(fd_, &byte, 1, 0) == 0;  // Server closed.
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

// The value of one sample line `name value` in a /metrics export.
std::string MetricValue(const std::string& metrics, const std::string& name) {
  const size_t at = metrics.find("\n" + name + " ");
  if (at == std::string::npos) return "absent";
  const size_t begin = at + name.size() + 2;
  return metrics.substr(begin, metrics.find('\n', begin) - begin);
}

struct Reference {
  explicit Reference(std::string_view rules, engine::EngineOptions options =
                                                 {},
                     bool procedures = true) {
    EXPECT_TRUE(db.InstallRfidSchema().ok());
    engine = std::make_unique<engine::RcedaEngine>(&db, events::Environment{},
                                                   options);
    EXPECT_TRUE(engine->AddRulesFromText(rules).ok());
    if (procedures) {
      for (const char* procedure : {"raise alarm", "notify security"}) {
        engine->RegisterProcedure(procedure,
                                  [this](const engine::RuleFiring&,
                                         const std::string&) { ++alarms; });
      }
    }
    EXPECT_TRUE(engine->Compile().ok());
  }

  store::Database db;
  std::unique_ptr<engine::RcedaEngine> engine;
  int alarms = 0;
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("server_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  TenantConfig AlphaConfig(int shards) {
    TenantConfig config;
    config.name = "alpha";
    config.rules_text = kAlphaRules;
    config.shards = shards;
    return config;
  }

  TenantConfig BetaConfig() {
    TenantConfig config;
    config.name = "beta";
    config.rules_text = kBetaRules;
    config.store = false;
    return config;
  }

  // Counts alarm-procedure invocations on a live server tenant.
  static void CountAlarms(Server& server, const std::string& name, int* count) {
    for (const char* procedure : {"raise alarm", "notify security"}) {
      server.tenant(name)->engine().RegisterProcedure(
          procedure, [count](const engine::RuleFiring&, const std::string&) {
            ++*count;
          });
    }
  }

  // Streams `batches` into a fresh tenant and SIGTERMs it (Shutdown
  // checkpoints: snapshot plus store image). Counts alarm invocations
  // into `alarms` unless it is null.
  static void RunAndShutdown(
      const ServerOptions& options, const TenantConfig& config,
      const std::vector<std::vector<events::Observation>>& batches,
      int* alarms) {
    Server server(options);
    ASSERT_TRUE(server.AddTenant(config).ok());
    if (alarms != nullptr) CountAlarms(server, config.name, alarms);
    ASSERT_TRUE(server.Start().ok());
    Client client;
    ASSERT_TRUE(client.Connect(server.bound_port(), config.name));
    for (const auto& batch : batches) {
      ASSERT_TRUE(client.Roundtrip(EncodeBatch(batch)));
    }
    ASSERT_TRUE(server.Shutdown().ok());
  }

  ServerOptions Options(const std::string& subdir = "") {
    ServerOptions options;
    options.port = 0;
    options.http_port = -1;
    options.state_dir = subdir.empty() ? dir_.string()
                                       : (dir_ / subdir).string();
    return options;
  }

  fs::path dir_;
};

// The daemon is a transparent transport: every count a client can see
// equals the library path, at one shard and at two.
TEST_F(ServerTest, LoopbackCountsMatchLibraryPath) {
  const std::vector<events::Observation> trace = MakeTrace(600);
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));

    Server server(Options("s" + std::to_string(shards)));
    ASSERT_TRUE(server.AddTenant(AlphaConfig(shards)).ok());
    ASSERT_TRUE(server.AddTenant(BetaConfig()).ok());
    int alpha_alarms = 0;
    int beta_alarms = 0;
    CountAlarms(server, "alpha", &alpha_alarms);
    CountAlarms(server, "beta", &beta_alarms);
    ASSERT_TRUE(server.Start().ok());

    Client alpha;
    Client beta;
    ASSERT_TRUE(alpha.Connect(server.bound_port(), "alpha"));
    ASSERT_TRUE(beta.Connect(server.bound_port(), "beta"));
    for (const auto& batch : Batched(trace, 32)) {
      ASSERT_TRUE(alpha.Roundtrip(EncodeBatch(batch)));
      ASSERT_TRUE(beta.Roundtrip(EncodeBatch(batch)));
    }
    ASSERT_TRUE(alpha.Roundtrip(EncodeFrame(FrameType::kFlush, "")));
    ASSERT_TRUE(beta.Roundtrip(EncodeFrame(FrameType::kFlush, "")));

    StatsReply alpha_stats;
    StatsReply beta_stats;
    ASSERT_TRUE(alpha.Stats(&alpha_stats));
    ASSERT_TRUE(beta.Stats(&beta_stats));

    // Library oracle, same shard count, fed the same trace directly.
    engine::EngineOptions options;
    options.shards = shards;
    Reference alpha_ref(kAlphaRules, options);
    Reference beta_ref(kBetaRules);
    ASSERT_TRUE(alpha_ref.engine->ProcessAll(trace).ok());
    ASSERT_TRUE(beta_ref.engine->ProcessAll(trace).ok());
    ASSERT_TRUE(alpha_ref.engine->Flush().ok());
    ASSERT_TRUE(beta_ref.engine->Flush().ok());

    const engine::EngineStats& alpha_want = alpha_ref.engine->stats();
    EXPECT_EQ(alpha_stats.observations, alpha_want.detector.observations);
    EXPECT_EQ(alpha_stats.matches, alpha_want.detector.rule_matches);
    EXPECT_EQ(alpha_stats.rules_fired, alpha_want.rules_fired);
    EXPECT_EQ(alpha_stats.sql_actions, alpha_want.sql_actions_executed);
    EXPECT_EQ(alpha_stats.procedures, alpha_want.procedures_invoked);
    ASSERT_EQ(alpha_stats.fired.size(), 2u);
    for (const auto& [rule, count] : alpha_stats.fired) {
      EXPECT_EQ(count, alpha_ref.engine->FiredCount(rule)) << rule;
    }
    EXPECT_EQ(alpha_alarms, alpha_ref.alarms);

    const engine::EngineStats& beta_want = beta_ref.engine->stats();
    EXPECT_EQ(beta_stats.observations, beta_want.detector.observations);
    EXPECT_EQ(beta_stats.matches, beta_want.detector.rule_matches);
    EXPECT_EQ(beta_stats.rules_fired, beta_want.rules_fired);
    EXPECT_EQ(beta_stats.procedures, beta_want.procedures_invoked);
    EXPECT_EQ(beta_alarms, beta_ref.alarms);

    // The trace fires something in every family, or the test is vacuous.
    EXPECT_GT(alpha_stats.sql_actions, 0u);
    EXPECT_GT(alpha_stats.procedures, 0u);
    EXPECT_GT(beta_stats.rules_fired, 0u);

    EXPECT_TRUE(server.Shutdown().ok());
    // Every frame is timed once, in its tenant's histogram. Read after
    // Shutdown(): the connection threads have recorded their last frame.
    const std::string metrics = server.ExportMetrics();
    const std::string frames = MetricValue(metrics, "rfidcepd_frames_total");
    const std::string alpha_frames =
        MetricValue(metrics, "rfidcepd_frame_us_count{tenant=\"alpha\"}");
    const std::string beta_frames =
        MetricValue(metrics, "rfidcepd_frame_us_count{tenant=\"beta\"}");
    ASSERT_NE(frames, "absent");
    ASSERT_NE(alpha_frames, "absent");
    ASSERT_NE(beta_frames, "absent");
    // Every batch, plus kFlush and kStats.
    EXPECT_EQ(std::stoull(alpha_frames), Batched(trace, 32).size() + 2);
    EXPECT_EQ(std::stoull(alpha_frames) + std::stoull(beta_frames),
              std::stoull(frames));
  }
}

// The SIGTERM path: shutdown mid-stream checkpoints, a new server over
// the same state directory — on a different shard count — resumes, and
// the client finishes the stream. Totals reconcile exactly with an
// uninterrupted run; no alarm or procedure fires twice.
TEST_F(ServerTest, ShutdownMidStreamRestartsOntoDifferentShardCount) {
  const std::vector<events::Observation> trace = MakeTrace(600);
  const auto batches = Batched(trace, 32);
  const size_t split = batches.size() / 2;
  int alarms_before = 0;
  int alarms_after = 0;

  {
    Server server(Options());
    ASSERT_TRUE(server.AddTenant(AlphaConfig(/*shards=*/1)).ok());
    CountAlarms(server, "alpha", &alarms_before);
    ASSERT_TRUE(server.Start().ok());
    Client client;
    ASSERT_TRUE(client.Connect(server.bound_port(), "alpha"));
    for (size_t i = 0; i < split; ++i) {
      // Each ack means the frame is fully processed: everything acked
      // before Shutdown() is inside the checkpoint.
      ASSERT_TRUE(client.Roundtrip(EncodeBatch(batches[i])));
    }
    ASSERT_TRUE(server.Shutdown().ok());
  }

  {
    Server server(Options());
    ASSERT_TRUE(server.AddTenant(AlphaConfig(/*shards=*/2)).ok());
    ASSERT_TRUE(server.tenant("alpha")->restored());
    CountAlarms(server, "alpha", &alarms_after);
    ASSERT_TRUE(server.Start().ok());
    Client client;
    ASSERT_TRUE(client.Connect(server.bound_port(), "alpha"));
    for (size_t i = split; i < batches.size(); ++i) {
      ASSERT_TRUE(client.Roundtrip(EncodeBatch(batches[i])));
    }
    ASSERT_TRUE(client.Roundtrip(EncodeFrame(FrameType::kFlush, "")));
    StatsReply stats;
    ASSERT_TRUE(client.Stats(&stats));

    Reference ref(kAlphaRules);
    ASSERT_TRUE(ref.engine->ProcessAll(trace).ok());
    ASSERT_TRUE(ref.engine->Flush().ok());

    // Counters persist through the snapshot, so the restarted tenant
    // reports whole-stream totals, not a post-restart suffix.
    const engine::EngineStats& want = ref.engine->stats();
    EXPECT_EQ(stats.observations, want.detector.observations);
    EXPECT_EQ(stats.matches, want.detector.rule_matches);
    EXPECT_EQ(stats.rules_fired, want.rules_fired);
    EXPECT_EQ(stats.sql_actions, want.sql_actions_executed);
    EXPECT_EQ(stats.procedures, want.procedures_invoked);
    for (const auto& [rule, count] : stats.fired) {
      EXPECT_EQ(count, ref.engine->FiredCount(rule)) << rule;
    }
    // Zero duplicate effects: invocations across both server lifetimes
    // sum to exactly the uninterrupted run's.
    EXPECT_EQ(alarms_before + alarms_after, ref.alarms);
    EXPECT_GT(alarms_before, 0);
    EXPECT_GT(alarms_after, 0);

    EXPECT_TRUE(server.Shutdown().ok());
  }
}

// Every table of a tenant's store, rows in scan order.
std::string DumpStore(const store::Database& db) {
  std::vector<std::string> names = db.TableNames();
  std::sort(names.begin(), names.end());
  std::string out;
  for (const std::string& name : names) {
    out += name + "\n" + store::TableToCsv(*db.GetTable(name));
  }
  return out;
}

// A restart after a checkpoint loads the store image and replays no WAL
// record, in both dispatch modes, and still reconciles exactly.
TEST_F(ServerTest, RestartAfterCheckpointReplaysNoWalRecords) {
  const std::vector<events::Observation> trace = MakeTrace(600);
  const auto batches = Batched(trace, 32);
  const size_t split = batches.size() / 2;
  const std::vector<std::vector<events::Observation>> head(
      batches.begin(), batches.begin() + static_cast<ptrdiff_t>(split));

  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    const std::string subdir = async ? "async" : "sync";
    TenantConfig config = AlphaConfig(/*shards=*/1);
    config.async_actions = async;
    // An async tenant restores its snapshot's in-flight firings inside
    // Open(), before a test could register a procedure handler (and the
    // stage's worker may already be dispatching them), so the async run
    // counts procedures as unknown on both sides, as the daemon does.
    Reference ref(kAlphaRules, {}, /*procedures=*/!async);
    ASSERT_TRUE(ref.engine->ProcessAll(trace).ok());
    ASSERT_TRUE(ref.engine->Flush().ok());
    int alarms = 0;
    RunAndShutdown(Options(subdir), config, head, async ? nullptr : &alarms);

    Server server(Options(subdir));
    ASSERT_TRUE(server.AddTenant(config).ok());
    Tenant* tenant = server.tenant("alpha");
    ASSERT_TRUE(tenant->restored());
    EXPECT_FALSE(tenant->recovery().image_fallback);
    EXPECT_EQ(tenant->recovery().wal_records, 0u);
    EXPECT_GT(tenant->recovery().image_lsn, 0u);
    EXPECT_EQ(tenant->recovery().image_lsn, tenant->engine().wal()->last_lsn());
    if (!async) {
      // Nothing above the snapshot to deduplicate: the dispatcher builds
      // no keys at all. (An async snapshot's in-flight firings were
      // logged after its durable LSN; their keys are kept.)
      EXPECT_TRUE(tenant->engine().wal()->recovered_actions().empty());
    }
    const std::string metrics = server.ExportMetrics();
    EXPECT_EQ(MetricValue(metrics,
                          "rfidcepd_recovery_wal_records{tenant=\"alpha\"}"),
              "0");
    EXPECT_EQ(
        MetricValue(metrics,
                    "rfidcepd_store_image_fallback_total{tenant=\"alpha\"}"),
        "0");
    if (!async) CountAlarms(server, "alpha", &alarms);
    ASSERT_TRUE(server.Start().ok());

    Client client;
    ASSERT_TRUE(client.Connect(server.bound_port(), "alpha"));
    for (size_t i = split; i < batches.size(); ++i) {
      ASSERT_TRUE(client.Roundtrip(EncodeBatch(batches[i])));
    }
    ASSERT_TRUE(client.Roundtrip(EncodeFrame(FrameType::kFlush, "")));
    // A kCheckpoint frame rewrites the image; its gauges match the file.
    ASSERT_TRUE(client.Roundtrip(EncodeFrame(FrameType::kCheckpoint, "")));
    const std::string after = server.ExportMetrics();
    EXPECT_EQ(MetricValue(after, "store_image_bytes{tenant=\"alpha\"}"),
              std::to_string(fs::file_size(tenant->image_path())));
    EXPECT_NE(MetricValue(after, "store_image_ns{tenant=\"alpha\"}"), "0");

    StatsReply stats;
    ASSERT_TRUE(client.Stats(&stats));
    const engine::EngineStats& want = ref.engine->stats();
    EXPECT_EQ(stats.observations, want.detector.observations);
    EXPECT_EQ(stats.matches, want.detector.rule_matches);
    EXPECT_EQ(stats.rules_fired, want.rules_fired);
    EXPECT_EQ(stats.sql_actions, want.sql_actions_executed);
    EXPECT_EQ(stats.procedures, want.procedures_invoked);
    for (const auto& [rule, count] : stats.fired) {
      EXPECT_EQ(count, ref.engine->FiredCount(rule)) << rule;
    }
    EXPECT_EQ(alarms, ref.alarms);
    EXPECT_EQ(DumpStore(*tenant->db()), DumpStore(ref.db));
    EXPECT_TRUE(server.Shutdown().ok());
  }
}

// store_rows{table} reconciles with Table::size() after loopback ingest,
// whether set by kStats or by a checkpoint, sync or async, and
// store_bytes follows Table::bytes().
TEST_F(ServerTest, StoreGaugesReconcileWithTables) {
  const std::vector<events::Observation> trace = MakeTrace(600);
  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    TenantConfig config = AlphaConfig(/*shards=*/1);
    config.async_actions = async;
    Server server(Options(async ? "async" : "sync"));
    ASSERT_TRUE(server.AddTenant(config).ok());
    ASSERT_TRUE(server.Start().ok());
    Client client;
    ASSERT_TRUE(client.Connect(server.bound_port(), "alpha"));
    const store::Database& db = *server.tenant("alpha")->db();
    auto expect_gauges = [&] {
      const std::string metrics = server.ExportMetrics();
      for (const std::string& name : db.TableNames()) {
        SCOPED_TRACE(name);
        const std::string label =
            "{tenant=\"alpha\",table=\"" + name + "\"}";
        EXPECT_EQ(MetricValue(metrics, "store_rows" + label),
                  std::to_string(db.GetTable(name)->size()));
        EXPECT_EQ(MetricValue(metrics, "store_bytes" + label),
                  std::to_string(db.GetTable(name)->bytes()));
      }
    };
    const auto batches = Batched(trace, 50);
    for (size_t i = 0; i < batches.size() / 2; ++i) {
      ASSERT_TRUE(client.Roundtrip(EncodeBatch(batches[i])));
    }
    StatsReply stats;
    ASSERT_TRUE(client.Stats(&stats));
    EXPECT_GT(db.GetTable("OBJECTLOCATION")->size(), 0u);
    expect_gauges();
    for (size_t i = batches.size() / 2; i < batches.size(); ++i) {
      ASSERT_TRUE(client.Roundtrip(EncodeBatch(batches[i])));
    }
    ASSERT_TRUE(client.Roundtrip(EncodeFrame(FrameType::kCheckpoint, "")));
    // Every observation inserts one location row.
    EXPECT_EQ(db.GetTable("OBJECTLOCATION")->size(), trace.size());
    expect_gauges();
    EXPECT_TRUE(server.Shutdown().ok());
  }
}

// Removing or damaging the image costs a full WAL replay, counted in
// /metrics, and gives the same store and the same kStats.
TEST_F(ServerTest, DamagedImageFallsBackToFullReplay) {
  const std::vector<events::Observation> trace = MakeTrace(600);
  const auto batches = Batched(trace, 32);
  const size_t split = batches.size() / 2;
  const std::vector<std::vector<events::Observation>> head(
      batches.begin(), batches.begin() + static_cast<ptrdiff_t>(split));
  Reference ref(kAlphaRules);
  ASSERT_TRUE(ref.engine->ProcessAll(trace).ok());
  ASSERT_TRUE(ref.engine->Flush().ok());

  int head_alarms = 0;
  RunAndShutdown(Options("pristine"), AlphaConfig(1), head, &head_alarms);
  const fs::path image = dir_ / "pristine" / "alpha" / "store.img";
  ASSERT_TRUE(fs::exists(image));
  const uint64_t size = fs::file_size(image);

  const std::vector<std::pair<std::string, std::function<void(fs::path)>>>
      damages = {
          {"removed", [](const fs::path& p) { fs::remove(p); }},
          {"flipped",
           [size](const fs::path& p) {
             std::fstream f(p, std::ios::in | std::ios::out |
                                   std::ios::binary);
             f.seekp(static_cast<std::streamoff>(size / 2));
             f.put('\x5a');
           }},
          {"truncated",
           [size](const fs::path& p) { fs::resize_file(p, size / 3); }},
          {"past_wal_end",
           [](const fs::path& p) {
             store::Database db;
             Result<uint64_t> lsn = store::ReadStoreImage(p.string(), &db);
             ASSERT_TRUE(lsn.ok());
             ASSERT_TRUE(
                 store::WriteStoreImage(db, *lsn + 1000, p.string()).ok());
           }},
      };
  for (const auto& [name, damage] : damages) {
    SCOPED_TRACE(name);
    fs::copy(dir_ / "pristine", dir_ / name, fs::copy_options::recursive);
    damage(dir_ / name / "alpha" / "store.img");

    Server server(Options(name));
    ASSERT_TRUE(server.AddTenant(AlphaConfig(1)).ok());
    Tenant* tenant = server.tenant("alpha");
    EXPECT_TRUE(tenant->recovery().image_fallback);
    EXPECT_EQ(tenant->recovery().image_lsn, 0u);
    EXPECT_EQ(tenant->recovery().wal_records,
              tenant->engine().wal()->last_lsn());
    const std::string metrics = server.ExportMetrics();
    EXPECT_EQ(
        MetricValue(metrics,
                    "rfidcepd_store_image_fallback_total{tenant=\"alpha\"}"),
        "1");
    EXPECT_EQ(MetricValue(metrics,
                          "rfidcepd_recovery_wal_records{tenant=\"alpha\"}"),
              std::to_string(tenant->recovery().wal_records));
    int alarms = head_alarms;
    CountAlarms(server, "alpha", &alarms);
    ASSERT_TRUE(server.Start().ok());
    Client client;
    ASSERT_TRUE(client.Connect(server.bound_port(), "alpha"));
    for (size_t i = split; i < batches.size(); ++i) {
      ASSERT_TRUE(client.Roundtrip(EncodeBatch(batches[i])));
    }
    ASSERT_TRUE(client.Roundtrip(EncodeFrame(FrameType::kFlush, "")));
    StatsReply stats;
    ASSERT_TRUE(client.Stats(&stats));
    const engine::EngineStats& want = ref.engine->stats();
    EXPECT_EQ(stats.observations, want.detector.observations);
    EXPECT_EQ(stats.matches, want.detector.rule_matches);
    EXPECT_EQ(stats.rules_fired, want.rules_fired);
    EXPECT_EQ(stats.sql_actions, want.sql_actions_executed);
    EXPECT_EQ(stats.procedures, want.procedures_invoked);
    for (const auto& [rule, count] : stats.fired) {
      EXPECT_EQ(count, ref.engine->FiredCount(rule)) << rule;
    }
    EXPECT_EQ(alarms, ref.alarms);
    EXPECT_EQ(DumpStore(*tenant->db()), DumpStore(ref.db));
    EXPECT_TRUE(server.Shutdown().ok());
  }
}

TEST_F(ServerTest, GarbageBytesFailTheConnectionCleanly) {
  Server server(Options());
  ASSERT_TRUE(server.AddTenant(BetaConfig()).ok());
  ASSERT_TRUE(server.Start().ok());

  // Garbage after a valid hello: framing CRC catches it, the server
  // reports, counts, and closes; the engine is untouched.
  Client client;
  ASSERT_TRUE(client.Connect(server.bound_port(), "beta"));
  ASSERT_TRUE(client.SendRaw(std::string(64, '\xee')));
  Status error = Status::Ok();
  ASSERT_TRUE(client.ReadError(&error));
  EXPECT_FALSE(error.ok());

  // Garbage instead of a hello.
  Client bad_hello;
  ASSERT_TRUE(bad_hello.Connect(server.bound_port(), "beta"));
  // Reuse the raw socket path: fresh connection, wrong magic.
  Client raw;
  {
    // Connect() sends a valid hello, so hand-roll the socket.
    int fd = ConnectLoopback(server.bound_port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, "GET / HTTP/1.1\r\n", 16, MSG_NOSIGNAL), 16);
    std::string reply;
    char chunk[512];
    for (ssize_t n; (n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
      reply.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    EXPECT_NE(reply.size(), 0u);  // kError frame, then EOF.
  }

  // Unknown tenant in an otherwise valid hello.
  Client ghost;
  EXPECT_FALSE(ghost.Connect(server.bound_port(), "no-such-tenant"));

  const std::string metrics = server.ExportMetrics();
  EXPECT_NE(metrics.find("rfidcepd_protocol_errors_total 3"),
            std::string::npos)
      << metrics;
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST_F(ServerTest, HttpServesMetricsAndHealth) {
  ServerOptions options = Options();
  options.http_port = 0;  // Ephemeral.
  Server server(options);
  ASSERT_TRUE(server.AddTenant(BetaConfig()).ok());
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.bound_port(), "beta"));
  ASSERT_TRUE(client.Roundtrip(EncodeBatch(MakeTrace(20))));

  auto http_get = [&](const std::string& path) {
    int fd = ConnectLoopback(server.http_port());
    EXPECT_GE(fd, 0);
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    EXPECT_TRUE(::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
                static_cast<ssize_t>(request.size()));
    std::string reply;
    char chunk[4096];
    for (ssize_t n; (n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
      reply.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    return reply;
  };

  const std::string health = http_get("/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = http_get("/metrics");
  EXPECT_NE(metrics.find("rfidcepd_observations_total 20"), std::string::npos)
      << metrics;
  // Tenant engine metrics come through with a tenant label injected.
  EXPECT_NE(metrics.find("tenant=\"beta\""), std::string::npos);

  EXPECT_NE(http_get("/nope").find("404"), std::string::npos);
  EXPECT_TRUE(server.Shutdown().ok());
}

// Frames already acknowledged are never resent, frames never sent are
// simply absent: the ack sequence is the exact resend boundary. A
// client that resends an *unacked but processed* frame would double
// count — the protocol makes that window empty because acks are sent
// only after processing, and Shutdown() finishes the in-flight frame.
TEST_F(ServerTest, AckSequenceNumbersAreOrderedAndComplete) {
  Server server(Options());
  ASSERT_TRUE(server.AddTenant(BetaConfig()).ok());
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.bound_port(), "beta"));
  for (uint64_t want = 1; want <= 10; ++want) {
    ASSERT_TRUE(client.SendRaw(EncodeFrame(FrameType::kPing, "")));
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    ASSERT_EQ(frame.type, FrameType::kAck);
    uint64_t seq = 0;
    ASSERT_TRUE(DecodeAck(frame.body, &seq).ok());
    EXPECT_EQ(seq, want);
  }
  EXPECT_TRUE(server.Shutdown().ok());
}

// Acks leave in the send() that writes them. Two kPing frames arrive in
// one segment; with Nagle on, the second ack would wait in the daemon's
// socket until the client's delayed ACK for the first (tens of ms).
TEST_F(ServerTest, SecondAckOfOneSegmentIsNotDelayed) {
  Server server(Options());
  ASSERT_TRUE(server.AddTenant(BetaConfig()).ok());
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect(server.bound_port(), "beta"));

  const std::string ping = EncodeFrame(FrameType::kPing, "");
  const std::string two_pings = ping + ping;
  std::vector<double> second_ack_ms;
  uint64_t want = 0;
  for (int round = 0; round < 40; ++round) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.SendRaw(two_pings));
    for (int i = 0; i < 2; ++i) {
      Frame frame;
      ASSERT_TRUE(client.ReadFrame(&frame));
      ASSERT_EQ(frame.type, FrameType::kAck);
      uint64_t seq = 0;
      ASSERT_TRUE(DecodeAck(frame.body, &seq).ok());
      EXPECT_EQ(seq, ++want);
    }
    second_ack_ms.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
  }
  std::sort(second_ack_ms.begin(), second_ack_ms.end());
  EXPECT_LT(second_ack_ms[second_ack_ms.size() / 2], 10.0);
  EXPECT_TRUE(server.Shutdown().ok());
}

// An HTTP client that connects and sends nothing neither holds the
// scrape thread past the read deadline nor wedges SIGTERM.
TEST_F(ServerTest, IdleHttpClientDoesNotBlockScrapesOrShutdown) {
  ServerOptions options = Options();
  options.http_port = 0;
  Server server(options);
  ASSERT_TRUE(server.AddTenant(AlphaConfig(/*shards=*/1)).ok());
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect(server.bound_port(), "alpha"));
  ASSERT_TRUE(client.Roundtrip(EncodeBatch(MakeTrace(50))));

  auto connect_http = [&] {
    int fd = ConnectLoopback(server.http_port());
    EXPECT_GE(fd, 0);
    // Bounded reads, so a server that never answers fails the test
    // instead of hanging it.
    timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    return fd;
  };

  // A scrape behind two idle clients is answered at once, not after
  // their read deadline (2 s); the idle ones are closed by it later.
  const int idle = connect_http();
  const int idle2 = connect_http();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // Accepted.
  const auto start = std::chrono::steady_clock::now();
  const int scrape = connect_http();
  const std::string request = "GET /healthz HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(scrape, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string reply;
  char chunk[512];
  for (ssize_t n; (n = ::recv(scrape, chunk, sizeof(chunk), 0)) > 0;) {
    reply.append(chunk, static_cast<size_t>(n));
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  ::close(scrape);
  EXPECT_NE(reply.find("200 OK"), std::string::npos) << reply;
  EXPECT_LT(waited, std::chrono::milliseconds(500))
      << "/healthz waited behind idle HTTP clients";
  char byte;
  EXPECT_EQ(::recv(idle, &byte, 1, 0), 0);  // Closed by the deadline.
  EXPECT_EQ(::recv(idle2, &byte, 1, 0), 0);
  ::close(idle);
  ::close(idle2);

  // Shutdown() with an idle client connected returns and checkpoints.
  // If it hung, closing the client unblocks it so the test can fail.
  const int wedge = connect_http();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // Accepted.
  std::promise<Status> done;
  std::future<Status> result = done.get_future();
  std::thread shutdown([&] { done.set_value(server.Shutdown()); });
  const bool prompt =
      result.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  ::close(wedge);
  shutdown.join();
  EXPECT_TRUE(prompt) << "Shutdown() blocked behind an idle HTTP client";
  EXPECT_TRUE(result.get().ok());
  EXPECT_TRUE(fs::exists(server.tenant("alpha")->checkpoint_path()));
}

// Data partitioning is the only multi-shard mode: partition=data stays
// accepted, and partition=rule fails loudly rather than silently moving a
// tenant onto a different layout.
TEST(TenantConfigTest, PartitionRuleIsRejectedAndDataAccepted) {
  Result<std::vector<TenantConfig>> data =
      ParseTenantConfigText("tenant a rules=r.txt shards=3 partition=data\n",
                            "");
  ASSERT_TRUE(data.ok()) << data.status().message();
  ASSERT_EQ(data->size(), 1u);
  EXPECT_EQ((*data)[0].shards, 3);

  Result<std::vector<TenantConfig>> rule =
      ParseTenantConfigText("tenant a rules=r.txt shards=3 partition=rule\n",
                            "");
  ASSERT_FALSE(rule.ok());
  EXPECT_EQ(rule.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rule.status().message().find("rule sharding was removed"),
            std::string::npos)
      << rule.status().message();

  EXPECT_EQ(ParseTenantConfigText("tenant a rules=r.txt partition=hash\n", "")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rfidcep::server
