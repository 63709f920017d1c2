// e2e_ledger: the traced run. Replays a workload's exact frames in
// process through two stacks, block by block. The daemon stack makes the
// daemon's own calls per frame and times them as one root span per
// frame:
//
//   frame       FrameReader + DecodeBatch + frontend().ProcessAll on a
//               server::Tenant opened with Tenant::Open, actions on
//               (WAL-logged dispatch, dedup lookup and all)
//   checkpoint  Tenant::Checkpoint on a kCheckpoint frame
//
// The split stack divides each frame's work by layer, feeding each
// layer's public entry point the output of the layer above; its spans
// are children of the daemon stack's span for the same frame:
//
//   decode    FrameReader + DecodeBatch                 (server.protocol)
//   detect    EngineFrontend::ProcessAll, actions off   (engine detector)
//   actions   BuildParams, condition, per-rule ordinal  (engine actions)
//   sql       store::ExecuteSql per statement           (store SQL)
//   wal       Wal::Append per executed statement        (store WAL)
//
// ledger.unattributed_frac is the share of the frame spans' time that
// the layer spans do not account for: work the daemon does per frame
// outside the layers' entry points. Spans stay in memory and are
// written to DIR/spans.csv at the end. Counts are reconciled against
// the engine's own counters and the WAL's LSN, on both stacks; the run
// fails if they differ.
//
//   e2e_ledger --workload=NAME --seed=N --seconds=N --dir=DIR

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "engine/actions.h"
#include "engine/engine.h"
#include "openloop.h"
#include "server/tenant.h"
#include "store/database.h"
#include "store/wal.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
using e2ebench::NowNs;
using rfidcep::engine::RcedaEngine;

// Frames per block of the replay (see Replay): about half a second of
// supply-chain work per stack.
constexpr size_t kBlockFrames = 256;

struct Span {
  const char* name;
  int64_t start;
  int64_t end;
  int32_t parent;  // Index into the span vector, -1 for a root.
  uint32_t frame;  // Frame id within the tenant's plan.
};

class Spans {
 public:
  int32_t Open(const char* name, int32_t parent, uint32_t frame) {
    spans_.push_back({name, NowNs(), 0, parent, frame});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) { spans_[id].end = NowNs(); }
  const std::vector<Span>& all() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "e2e_ledger: %s\n", why.c_str());
  std::exit(1);
}

void Check(const rfidcep::Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.message());
}

rfidcep::engine::EngineOptions Options(
    const rfidcep::server::TenantConfig& config, int shards) {
  rfidcep::engine::EngineOptions options;
  options.detector.tolerate_out_of_order = config.tolerate_out_of_order;
  options.shards = shards;
  options.partition = config.partition;
  options.execute_actions = false;
  return options;
}

std::unique_ptr<RcedaEngine> CompiledEngine(
    const rfidcep::server::TenantConfig& config, int shards,
    rfidcep::store::Database* db) {
  auto engine = std::make_unique<RcedaEngine>(
      db, rfidcep::events::Environment{}, Options(config, shards));
  Check(engine->AddRulesFromText(config.rules_text), "rules");
  Check(engine->Compile(), "compile");
  return engine;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Everything one tenant's replay measured.
struct TenantLedger {
  uint64_t decoded = 0;
  uint64_t accepted = 0;  // EngineStats.detector.observations
  uint64_t dropped = 0;   // EngineStats.detector.out_of_order_dropped
  uint64_t matches = 0;
  uint64_t pseudo_fired = 0;
  uint64_t firings = 0;
  uint64_t sql_stmts = 0;
  uint64_t rows = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_last_lsn = 0;
  uint64_t wal_bytes = 0;
  uint64_t frame_bytes = 0;
  // The daemon stack's EngineStats (see Replay).
  uint64_t daemon_accepted = 0;
  uint64_t daemon_firings = 0;
  uint64_t daemon_sql = 0;
  size_t live_entries_max = 0;
  size_t pending_pseudo_max = 0;
  int64_t ns_decode = 0, ns_detect = 0, ns_actions_self = 0, ns_sql = 0,
          ns_wal = 0, ns_frame = 0;
  std::vector<double> fixed_frame_ms;  // Daemon stack, fixed-phase frames.
  double wal_sync_ms = 0;
  double serialize_ms = 0;
  uint64_t snapshot_bytes = 0;
  double restore_ms = 0;
  double wal_replay_ms = 0;
  double serial_detect_s = 0;
  double sharded_detect_s = 0;
  double shard_skew = 0;
  std::vector<std::string> errors;
};

// Max ÷ mean of the observations routed to each shard.
double ShardSkew(const RcedaEngine& engine) {
  const std::map<std::string, double> routed = e2ebench::SumMetric(
      engine.ExportMetrics(), "shard_routed_total", "shard");
  double max = 0, sum = 0;
  for (const auto& [shard, n] : routed) {
    max = std::max(max, n);
    sum += n;
  }
  return routed.empty() || sum == 0
             ? 1.0
             : max / (sum / static_cast<double>(routed.size()));
}

// Detection alone over the plan's batches, on `shards` shards (data
// partition when more than one); returns the seconds spent in
// ProcessAll. A serial pass samples the live state after every batch,
// untimed (a sharded detector's state lives on its worker threads); a
// sharded one records the skew.
double DetectOnly(const e2ebench::TenantPlan& plan, int shards,
                  TenantLedger* L) {
  rfidcep::server::TenantConfig config = plan.config;
  if (shards > 1) config.partition = rfidcep::engine::PartitionMode::kData;
  rfidcep::store::Database db;
  auto engine = CompiledEngine(config, shards, &db);
  int64_t busy = 0;
  Check(e2ebench::ForEachBatch(
            plan,
            [&](const std::vector<rfidcep::events::Observation>& batch) {
              const int64_t start = NowNs();
              rfidcep::Status s = engine->ProcessAll(batch);
              busy += NowNs() - start;
              if (shards == 1) {
                L->live_entries_max = std::max(
                    L->live_entries_max, engine->TotalBufferedEntries());
                L->pending_pseudo_max = std::max(
                    L->pending_pseudo_max, engine->PendingPseudoEvents());
              }
              return s;
            }),
        "process");
  if (shards > 1) L->shard_skew = ShardSkew(*engine);
  return static_cast<double>(busy) / 1e9;
}

// Decodes one pre-encoded batch frame the way a connection does.
void DecodeFrame(const e2ebench::WireFrame& wire,
                 rfidcep::server::FrameReader* reader,
                 std::vector<rfidcep::events::Observation>* batch) {
  reader->Feed(wire.bytes);
  rfidcep::server::Frame parsed;
  if (reader->Next(&parsed) != rfidcep::server::DecodeResult::kItem) {
    Die("frame did not decode: " + reader->error());
  }
  Check(rfidcep::server::DecodeBatch(parsed.body, batch), "decode");
}

TenantLedger Replay(const e2ebench::TenantPlan& plan, const fs::path& dir,
                    Spans* spans) {
  TenantLedger L;
  const rfidcep::server::TenantConfig& config = plan.config;
  fs::remove_all(dir);
  fs::create_directories(dir);

  // The daemon's own stack, state under dir/daemon/<tenant>.
  auto opened =
      rfidcep::server::Tenant::Open(config, (dir / "daemon").string());
  Check(opened.status(), "tenant open");
  rfidcep::server::Tenant& tenant = **opened;
  rfidcep::server::FrameReader tenant_reader;

  // The split stack, built in Tenant::Open's order: store, WAL replay,
  // engine (actions off), compile.
  std::unique_ptr<rfidcep::store::Database> db;
  std::unique_ptr<rfidcep::store::Wal> wal;
  if (config.store) {
    db = std::make_unique<rfidcep::store::Database>();
    Check(db->InstallRfidSchema(), "schema");
    auto wal_opened = rfidcep::store::Wal::Open((dir / "wal").string());
    Check(wal_opened.status(), "wal open");
    wal = std::move(*wal_opened);
    Check(rfidcep::store::ReplayWalIntoDatabase(*wal, db.get()).status(),
          "wal replay");
  }
  auto engine = CompiledEngine(config, config.shards, db.get());
  struct Captured {
    const rfidcep::rules::Rule* rule;
    rfidcep::events::EventInstancePtr instance;
  };
  std::vector<Captured> firings;
  engine->SetMatchCallback(
      [&firings](const rfidcep::rules::Rule& rule,
                 const rfidcep::events::EventInstancePtr& instance) {
        firings.push_back({&rule, instance});
      });
  std::map<const rfidcep::rules::Rule*, uint64_t> fired;  // Per-rule seq.
  rfidcep::server::FrameReader reader;
  std::vector<rfidcep::events::Observation> batch;

  // Both stacks take the frames in blocks of kBlockFrames, the daemon
  // stack first. A change in host speed then hits both alike, while each
  // block runs with one engine's state in the caches and one engine's
  // shard workers awake. Frame ids count from 1 in send order.
  struct Item {
    const e2ebench::WireFrame* wire;
    bool fixed_phase;
  };
  std::vector<Item> items;
  for (const std::vector<e2ebench::WireFrame>* phase : plan.Phases()) {
    for (const e2ebench::WireFrame& wire : *phase) {
      items.push_back({&wire, phase == &plan.fixed});
    }
  }
  std::vector<int32_t> roots(items.size(), -1);  // Batch frames' spans.
  for (size_t begin = 0; begin < items.size(); begin += kBlockFrames) {
    const size_t end = std::min(items.size(), begin + kBlockFrames);
    for (size_t i = begin; i < end; ++i) {
      const e2ebench::WireFrame& wire = *items[i].wire;
      const uint32_t frame_id = static_cast<uint32_t>(i + 1);
      if (wire.kind == e2ebench::FrameKind::kStats) continue;
      if (wire.kind == e2ebench::FrameKind::kCheckpoint) {
        const int32_t cp = spans->Open("checkpoint", -1, frame_id);
        Check(tenant.Checkpoint(), "checkpoint");
        spans->Close(cp);
        continue;
      }
      const int32_t frame = spans->Open("frame", -1, frame_id);
      DecodeFrame(wire, &tenant_reader, &batch);
      Check(tenant.frontend().ProcessAll(batch), "process");
      spans->Close(frame);
      roots[i] = frame;
      const Span& whole = spans->all()[frame];
      const int64_t frame_ns = whole.end - whole.start;
      L.ns_frame += frame_ns;
      if (items[i].fixed_phase) L.fixed_frame_ms.push_back(Ms(frame_ns));
    }
    for (size_t i = begin; i < end; ++i) {
      if (roots[i] < 0) continue;
      const e2ebench::WireFrame& wire = *items[i].wire;
      const uint32_t frame_id = static_cast<uint32_t>(i + 1);
      const int32_t frame = roots[i];
      const int32_t decode = spans->Open("decode", frame, frame_id);
      DecodeFrame(wire, &reader, &batch);
      spans->Close(decode);
      L.decoded += batch.size();
      L.frame_bytes += wire.bytes.size();

      const int32_t detect = spans->Open("detect", frame, frame_id);
      firings.clear();
      Check(engine->ProcessAll(batch), "process");
      spans->Close(detect);

      const int32_t actions = spans->Open("actions", frame, frame_id);
      for (Captured& c : firings) {
        rfidcep::engine::RuleFiring firing;
        firing.rule = c.rule;
        firing.instance = c.instance;
        firing.params = rfidcep::engine::BuildParams(c.instance->bindings());
        if (c.rule->condition != nullptr) {
          auto holds =
              rfidcep::store::EvaluateCondition(*c.rule->condition,
                                                firing.params);
          if (!holds.ok() || !*holds) continue;
        }
        firing.seq = ++fired[c.rule];
        ++L.firings;
        for (uint32_t index = 0; index < c.rule->actions.size(); ++index) {
          const rfidcep::rules::RuleAction& action = c.rule->actions[index];
          // Procedures: the daemon registers none, so they are counted
          // as unknown and never logged.
          if (action.kind != rfidcep::rules::RuleAction::Kind::kSql) continue;
          const int32_t sql = spans->Open("sql", actions, frame_id);
          auto result =
              rfidcep::store::ExecuteSql(action.sql, db.get(), firing.params);
          spans->Close(sql);
          Check(result.status(), "sql");
          ++L.sql_stmts;
          L.rows += result->affected;
          const int32_t append = spans->Open("wal", actions, frame_id);
          rfidcep::store::WalRecord record;
          record.action_seq = firing.seq;
          record.action_index = index;
          record.affected = static_cast<uint32_t>(result->affected);
          record.rule_id = c.rule->id;
          record.sql = action.sql_text;
          record.params = firing.params;
          Check(wal->Append(std::move(record)).status(), "wal append");
          spans->Close(append);
          ++L.wal_appends;
        }
      }
      spans->Close(actions);
    }
  }
  {
    const rfidcep::engine::EngineStats& stats = tenant.frontend().stats();
    L.daemon_accepted = stats.detector.observations;
    L.daemon_firings = stats.rules_fired;
    L.daemon_sql = stats.sql_actions_executed;
  }
  opened->reset();
  const rfidcep::engine::EngineStats& stats = engine->stats();
  L.accepted = stats.detector.observations;
  L.dropped = stats.detector.out_of_order_dropped;
  L.matches = stats.detector.rule_matches;
  L.pseudo_fired = stats.detector.pseudo_fired;

  // Shutdown's durability work: WAL sync, then the snapshot.
  std::string snapshot;
  int64_t t = NowNs();
  if (wal != nullptr) {
    Check(wal->Sync(), "wal sync");
    L.wal_sync_ms = Ms(NowNs() - t);
    L.wal_last_lsn = wal->last_lsn();
    L.wal_bytes = wal->total_bytes();
  }
  t = NowNs();
  Check(engine->SerializeState(&snapshot), "serialize");
  L.serialize_ms = Ms(NowNs() - t);
  L.snapshot_bytes = snapshot.size();
  engine.reset();
  wal.reset();
  db.reset();

  // Recovery's two parts, each on its own: WAL replay into a fresh
  // store, and snapshot restore into a freshly compiled engine.
  if (config.store) {
    rfidcep::store::Database fresh;
    Check(fresh.InstallRfidSchema(), "schema");
    t = NowNs();
    auto reopened = rfidcep::store::Wal::Open((dir / "wal").string());
    Check(reopened.status(), "wal reopen");
    Check(rfidcep::store::ReplayWalIntoDatabase(**reopened, &fresh).status(),
          "wal replay");
    L.wal_replay_ms = Ms(NowNs() - t);
  }
  {
    rfidcep::store::Database fresh;
    auto restored = CompiledEngine(config, config.shards, &fresh);
    t = NowNs();
    Check(restored->RestoreState(snapshot), "restore");
    L.restore_ms = Ms(NowNs() - t);
    if (restored->stats().detector.observations != L.accepted) {
      L.errors.push_back("restored engine lost observations");
    }
  }

  // Detection alone over the same batches, serial and on 3 data
  // shards, each with the host to itself: the shard layer's cost and
  // speedup. (The split stack's detect spans run interleaved with the
  // other layers and the daemon stack, which slows them down.)
  L.serial_detect_s = DetectOnly(plan, 1, &L);
  L.sharded_detect_s = DetectOnly(plan, 3, &L);

  // Reconciliation against the program's own counters.
  if (L.decoded != L.accepted + L.dropped) {
    L.errors.push_back("decoded " + std::to_string(L.decoded) +
                       " != accepted + dropped " +
                       std::to_string(L.accepted + L.dropped));
  }
  if (L.daemon_accepted != L.accepted || L.daemon_firings != L.firings ||
      L.daemon_sql != L.sql_stmts) {
    L.errors.push_back("daemon stack observations/firings/sql " +
                       std::to_string(L.daemon_accepted) + "/" +
                       std::to_string(L.daemon_firings) + "/" +
                       std::to_string(L.daemon_sql) + " != split stack " +
                       std::to_string(L.accepted) + "/" +
                       std::to_string(L.firings) + "/" +
                       std::to_string(L.sql_stmts));
  }
  if (L.wal_appends != L.wal_last_lsn) {
    L.errors.push_back("wal appends " + std::to_string(L.wal_appends) +
                       " != last_lsn " + std::to_string(L.wal_last_lsn));
  }
  return L;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, dir;
  uint64_t seed = 1;
  int seconds = 10;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (e2ebench::FlagValue(argv[i], "--workload", &workload) ||
        e2ebench::FlagValue(argv[i], "--dir", &dir)) {
    } else if (e2ebench::FlagValue(argv[i], "--seed", &v)) {
      seed = std::stoull(v);
    } else if (e2ebench::FlagValue(argv[i], "--seconds", &v)) {
      seconds = std::stoi(v);
    } else {
      Die(std::string("unknown flag ") + argv[i]);
    }
  }
  if (dir.empty()) Die("--dir is required");
  rfidcep::Result<e2ebench::Workload> built =
      e2ebench::BuildWorkload(workload, seed, seconds);
  Check(built.status(), "workload");
  fs::create_directories(dir);

  Spans spans;
  std::vector<TenantLedger> tenants;
  for (const e2ebench::TenantPlan& plan : built->tenants) {
    const size_t first = spans.all().size();
    tenants.push_back(Replay(plan, fs::path(dir) / plan.config.name, &spans));
    TenantLedger& L = tenants.back();
    // Self and total times per layer from this tenant's spans.
    const std::vector<Span>& all = spans.all();
    std::vector<int64_t> child(all.size(), 0);
    for (size_t i = first; i < all.size(); ++i) {
      if (all[i].parent >= 0) child[all[i].parent] += all[i].end - all[i].start;
    }
    for (size_t i = first; i < all.size(); ++i) {
      const int64_t d = all[i].end - all[i].start;
      const std::string_view name = all[i].name;
      if (name == "decode") L.ns_decode += d;
      if (name == "detect") L.ns_detect += d;
      if (name == "actions") L.ns_actions_self += d - child[i];
      if (name == "sql") L.ns_sql += d;
      if (name == "wal") L.ns_wal += d;
    }
  }

  {
    std::ofstream out(fs::path(dir) / "spans.csv");
    out << "name,start_ns,end_ns,parent,frame\n";
    for (const Span& s : spans.all()) {
      out << s.name << ',' << s.start << ',' << s.end << ',' << s.parent << ','
          << s.frame << '\n';
    }
  }

  // Workload totals (tenants summed; times are per unit of work).
  TenantLedger T;
  std::vector<std::string> errors;
  std::string tenant_json;
  for (const TenantLedger& L : tenants) {
    T.decoded += L.decoded;
    T.accepted += L.accepted;
    T.matches += L.matches;
    T.pseudo_fired += L.pseudo_fired;
    T.firings += L.firings;
    T.sql_stmts += L.sql_stmts;
    T.rows += L.rows;
    T.wal_appends += L.wal_appends;
    T.wal_bytes += L.wal_bytes;
    T.frame_bytes += L.frame_bytes;
    T.live_entries_max = std::max(T.live_entries_max, L.live_entries_max);
    T.pending_pseudo_max = std::max(T.pending_pseudo_max, L.pending_pseudo_max);
    T.ns_decode += L.ns_decode;
    T.ns_detect += L.ns_detect;
    T.ns_actions_self += L.ns_actions_self;
    T.ns_sql += L.ns_sql;
    T.ns_wal += L.ns_wal;
    T.ns_frame += L.ns_frame;
    T.fixed_frame_ms.insert(T.fixed_frame_ms.end(), L.fixed_frame_ms.begin(),
                            L.fixed_frame_ms.end());
    T.wal_sync_ms += L.wal_sync_ms;
    T.serialize_ms += L.serialize_ms;
    T.snapshot_bytes += L.snapshot_bytes;
    T.restore_ms += L.restore_ms;
    T.wal_replay_ms += L.wal_replay_ms;
    T.serial_detect_s += L.serial_detect_s;
    T.sharded_detect_s += L.sharded_detect_s;
    T.shard_skew = std::max(T.shard_skew, L.shard_skew);
    errors.insert(errors.end(), L.errors.begin(), L.errors.end());
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"decoded\": %llu, \"accepted\": %llu, \"firings\": "
                  "%llu, \"sql_stmts\": %llu, \"wal_appends\": %llu}",
                  tenant_json.empty() ? "" : ", ",
                  static_cast<unsigned long long>(L.decoded),
                  static_cast<unsigned long long>(L.accepted),
                  static_cast<unsigned long long>(L.firings),
                  static_cast<unsigned long long>(L.sql_stmts),
                  static_cast<unsigned long long>(L.wal_appends));
    tenant_json += buf;
  }
  const double obs = static_cast<double>(std::max<uint64_t>(T.decoded, 1));
  auto per = [](int64_t ns, uint64_t n, double scale) {
    return n == 0 ? 0.0
                  : static_cast<double>(ns) / scale / static_cast<double>(n);
  };
  const int64_t attributed =
      T.ns_decode + T.ns_detect + T.ns_actions_self + T.ns_sql + T.ns_wal;
  std::string err_json = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    err_json += (i ? ", \"" : "\"") + errors[i] + "\"";
  }
  err_json += "]";
  std::printf(
      "{\"workload\": \"%s\", \"errors\": %s, \"tenants\": [%s], "
      "\"frame_p50_ms\": %.9g, \"spans\": %zu, "
      "\"protocol.decode_ns_per_obs\": %.9g, \"protocol.bytes_per_obs\": %.9g, "
      "\"detect.us_per_obs\": %.9g, \"detect.matches_per_obs\": %.9g, "
      "\"detect.pseudo_fired\": %llu, \"detect.accepted_ratio\": %.9g, "
      "\"detect.live_entries_max\": %zu, \"detect.pending_pseudo_max\": %zu, "
      "\"shard.us_per_obs\": %.9g, \"shard.speedup\": %.9g, "
      "\"shard.skew\": %.9g, "
      "\"actions.us_per_firing\": %.9g, \"actions.firings_per_obs\": %.9g, "
      "\"sql.us_per_stmt\": %.9g, \"sql.rows_per_obs\": %.9g, "
      "\"wal.append_us\": %.9g, \"wal.bytes_per_obs\": %.9g, "
      "\"wal.sync_ms\": %.9g, \"recovery.wal_replay_ms\": %.9g, "
      "\"snapshot.serialize_ms\": %.9g, \"snapshot.bytes\": %llu, "
      "\"snapshot.restore_ms\": %.9g, \"ledger.unattributed_frac\": %.9g}\n",
      built->name.c_str(), err_json.c_str(), tenant_json.c_str(),
      e2ebench::Percentile(T.fixed_frame_ms, 50), spans.all().size(),
      per(T.ns_decode, T.decoded, 1), T.frame_bytes / obs,
      per(T.ns_detect, T.decoded, 1e3), T.matches / obs,
      static_cast<unsigned long long>(T.pseudo_fired), T.accepted / obs,
      T.live_entries_max, T.pending_pseudo_max, T.sharded_detect_s * 1e6 / obs,
      T.sharded_detect_s > 0 ? T.serial_detect_s / T.sharded_detect_s : 0,
      T.shard_skew, per(T.ns_actions_self, T.firings, 1e3), T.firings / obs,
      per(T.ns_sql, T.sql_stmts, 1e3), T.rows / obs,
      per(T.ns_wal, T.wal_appends, 1e3), T.wal_bytes / obs, T.wal_sync_ms,
      T.wal_replay_ms, T.serialize_ms,
      static_cast<unsigned long long>(T.snapshot_bytes), T.restore_ms,
      T.ns_frame > 0
          ? static_cast<double>(T.ns_frame - attributed) / T.ns_frame
          : 0);
  return errors.empty() ? 0 : 1;
}
