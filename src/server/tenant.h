// Tenants: one named RCEDA engine per site behind the daemon.
//
// A tenant owns the full durable stack for one deployment — in-memory
// RFID store, store WAL, compiled engine — plus its slice of the state
// directory. Open() rebuilds the stack in recovery order (store image
// load plus replay of the WAL above it, dedup-map attach, compile,
// snapshot restore), so a restarted daemon resumes exactly where the
// last checkpoint left it;
// the snapshot is layout-portable, so the restart may change the shard
// count or dispatch mode (docs/recovery.md). The server drives a tenant
// only through the narrow engine::EngineFrontend surface and the
// checkpoint entry point; one mutex per tenant serializes connections
// feeding the same engine, and the engine's own bounded rings provide
// backpressure below it.

#ifndef RFIDCEP_SERVER_TENANT_H_
#define RFIDCEP_SERVER_TENANT_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "store/database.h"
#include "store/wal.h"

namespace rfidcep::server {

struct TenantConfig {
  std::string name;
  // Exactly one of the two: a rule program file, or inline rule text
  // (tests and embedders).
  std::string rules_file;
  std::string rules_text;
  int shards = 1;
  engine::PartitionMode partition = engine::PartitionMode::kData;  // Unused.
  bool async_actions = false;
  // When true (default) the tenant gets an RFID store + WAL; rules with
  // SQL actions require it.
  bool store = true;
  bool tolerate_out_of_order = false;
};

// Parses the daemon's tenant config: one tenant per line,
//   tenant <name> rules=<file> [shards=N] [partition=data]
//          [async=0|1] [store=0|1] [tolerate_out_of_order=0|1]
// shards=N > 1 runs the data-partitioned pipeline (the only multi-shard
// mode); partition=data names it and is optional. partition=rule is
// rejected: rule sharding was removed. Blank lines and '#' comments are
// skipped. Relative rules paths resolve against the config file's
// directory.
Result<std::vector<TenantConfig>> ParseTenantConfigFile(
    const std::string& path);
Result<std::vector<TenantConfig>> ParseTenantConfigText(
    std::string_view text, const std::string& base_dir);

// What Tenant::Open() did to rebuild the store.
struct TenantRecovery {
  uint64_t image_lsn = 0;    // LSN of the store image loaded; 0 = none.
  uint64_t wal_records = 0;  // WAL records replayed above it.
  // The WAL was replayed from LSN 0 although it holds records, because
  // the image was missing, damaged or past the WAL's end.
  bool image_fallback = false;
};

class Tenant {
 public:
  // Builds and recovers the tenant under `state_dir/<name>/`:
  //   wal/             the store WAL (never trimmed; the source of truth)
  //   checkpoint.snap  the latest engine snapshot
  //   store.img        the store image of the latest checkpoint, a cache
  //                    of a WAL prefix (store/store_image.h)
  static Result<std::unique_ptr<Tenant>> Open(TenantConfig config,
                                              const std::string& state_dir);

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  const std::string& name() const { return config_.name; }
  const TenantConfig& config() const { return config_; }

  // The daemon-facing surface. Callers hold mu() around streaming and
  // checkpoint calls; the engine itself is single-caller.
  engine::EngineFrontend& frontend() { return *engine_; }
  // Full engine access for in-process embedders (tests register
  // procedures, inspect layout); the daemon itself stays on frontend().
  engine::RcedaEngine& engine() { return *engine_; }
  // The tenant's RFID store; null when the tenant runs without one.
  const store::Database* db() const { return db_.get(); }

  std::mutex& mu() { return mu_; }

  // Serializes engine state (which syncs the WAL first), writes the
  // store image at the WAL's last LSN, and atomically replaces
  // checkpoint.snap. The durability point of the SIGTERM path.
  Status Checkpoint();

  // Sets the gauges store_rows{table} and store_bytes{table} (live rows
  // and Table::bytes()) for every table of the store, after draining an
  // async action stage so they count every action taken so far.
  void PublishStoreGauges();

  // True when Open() found and restored a previous checkpoint.
  bool restored() const { return restored_; }
  const TenantRecovery& recovery() const { return recovery_; }
  const std::string& checkpoint_path() const { return checkpoint_path_; }
  const std::string& image_path() const { return image_path_; }

 private:
  explicit Tenant(TenantConfig config) : config_(std::move(config)) {}

  // Replaces store.img with the store as of the WAL's last LSN.
  Status WriteImage();

  const TenantConfig config_;
  std::string checkpoint_path_;
  std::string image_path_;
  bool restored_ = false;
  TenantRecovery recovery_;
  std::mutex mu_;
  // Destruction order matters: the engine drains its action stage into
  // the WAL, so it must die before the WAL, which must die before the
  // database it logically belongs to.
  std::unique_ptr<store::Database> db_;
  std::unique_ptr<store::Wal> wal_;
  std::unique_ptr<engine::RcedaEngine> engine_;
};

}  // namespace rfidcep::server

#endif  // RFIDCEP_SERVER_TENANT_H_
