#include "server/tenant.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "engine/snapshot.h"
#include "events/event_type.h"
#include "store/store_image.h"

namespace rfidcep::server {
namespace {

namespace fs = std::filesystem;

Status ReadTextFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return Status::Ok();
}

Status ParseBool(const std::string& key, const std::string& value, bool* out) {
  if (value == "0" || value == "false" || value == "off") {
    *out = false;
    return Status::Ok();
  }
  if (value == "1" || value == "true" || value == "on") {
    *out = true;
    return Status::Ok();
  }
  return Status::InvalidArgument("tenant config: bad boolean " + key + "=" +
                                 value);
}

}  // namespace

Result<std::vector<TenantConfig>> ParseTenantConfigText(
    std::string_view text, const std::string& base_dir) {
  std::vector<TenantConfig> tenants;
  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string word;
    if (!(fields >> word) || word[0] == '#') continue;
    const std::string at = " (line " + std::to_string(line_no) + ")";
    if (word != "tenant") {
      return Status::InvalidArgument("tenant config: expected 'tenant', got '" +
                                     word + "'" + at);
    }
    TenantConfig config;
    if (!(fields >> config.name)) {
      return Status::InvalidArgument("tenant config: missing tenant name" + at);
    }
    for (const TenantConfig& existing : tenants) {
      if (existing.name == config.name) {
        return Status::InvalidArgument("tenant config: duplicate tenant '" +
                                       config.name + "'" + at);
      }
    }
    while (fields >> word) {
      const size_t eq = word.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("tenant config: expected key=value, "
                                       "got '" +
                                       word + "'" + at);
      }
      const std::string key = word.substr(0, eq);
      const std::string value = word.substr(eq + 1);
      if (key == "rules") {
        fs::path p(value);
        config.rules_file =
            p.is_absolute() || base_dir.empty()
                ? value
                : (fs::path(base_dir) / p).string();
      } else if (key == "shards") {
        config.shards = std::atoi(value.c_str());
        if (config.shards < 1) {
          return Status::InvalidArgument("tenant config: bad shards=" + value +
                                         at);
        }
      } else if (key == "partition") {
        if (value == "rule") {
          return Status::InvalidArgument(
              "tenant config: partition=rule: rule sharding was removed; "
              "shards=N now always partitions by data (partition=data)" +
              at);
        }
        if (value != "data") {
          return Status::InvalidArgument("tenant config: bad partition=" +
                                         value + at);
        }
      } else if (key == "async") {
        RFIDCEP_RETURN_IF_ERROR(ParseBool(key, value, &config.async_actions));
      } else if (key == "store") {
        RFIDCEP_RETURN_IF_ERROR(ParseBool(key, value, &config.store));
      } else if (key == "tolerate_out_of_order") {
        RFIDCEP_RETURN_IF_ERROR(
            ParseBool(key, value, &config.tolerate_out_of_order));
      } else {
        return Status::InvalidArgument("tenant config: unknown key '" + key +
                                       "'" + at);
      }
    }
    if (config.rules_file.empty()) {
      return Status::InvalidArgument("tenant config: tenant '" + config.name +
                                     "' has no rules= file" + at);
    }
    tenants.push_back(std::move(config));
  }
  if (tenants.empty()) {
    return Status::InvalidArgument("tenant config: no tenants defined");
  }
  return tenants;
}

Result<std::vector<TenantConfig>> ParseTenantConfigFile(
    const std::string& path) {
  std::string text;
  RFIDCEP_RETURN_IF_ERROR(ReadTextFile(path, &text));
  return ParseTenantConfigText(text, fs::path(path).parent_path().string());
}

Result<std::unique_ptr<Tenant>> Tenant::Open(TenantConfig config,
                                             const std::string& state_dir) {
  std::string rules = config.rules_text;
  if (rules.empty()) {
    RFIDCEP_RETURN_IF_ERROR(ReadTextFile(config.rules_file, &rules));
  }

  const fs::path tenant_dir = fs::path(state_dir) / config.name;
  std::error_code ec;
  fs::create_directories(tenant_dir, ec);
  if (ec) {
    return Status::Internal("cannot create tenant state dir " +
                            tenant_dir.string() + ": " + ec.message());
  }

  std::unique_ptr<Tenant> tenant(new Tenant(std::move(config)));
  tenant->checkpoint_path_ = (tenant_dir / "checkpoint.snap").string();
  tenant->image_path_ = (tenant_dir / "store.img").string();
  auto restore_error = [&](const Status& status) {
    return Status(status.code(), "tenant '" + tenant->config_.name +
                                     "': restoring " +
                                     tenant->checkpoint_path_ + ": " +
                                     status.message());
  };

  // Recovery order (docs/recovery.md): decode the snapshot, whose
  // durable LSN bounds the dedup keys the restored engine can need;
  // load the store image and replay only the WAL above it (or the whole
  // WAL when the image is unusable); attach the WAL so its dedup map
  // seeds the dispatcher; then compile and restore the snapshot. Any
  // suffix the checkpoint missed is re-derived when clients resend
  // unacknowledged frames.
  std::string snapshot_bytes;
  std::optional<engine::snapshot::EngineSnapshot> snapshot;
  if (fs::exists(tenant->checkpoint_path_)) {
    RFIDCEP_RETURN_IF_ERROR(
        ReadTextFile(tenant->checkpoint_path_, &snapshot_bytes));
    snapshot.emplace();
    Status decoded =
        engine::snapshot::DecodeEngineSnapshot(snapshot_bytes, &*snapshot);
    if (!decoded.ok()) return restore_error(decoded);
  }
  if (tenant->config_.store) {
    RFIDCEP_ASSIGN_OR_RETURN(
        store::RecoveredStore recovered,
        store::RecoverStore(tenant->image_path_,
                            (tenant_dir / "wal").string(),
                            snapshot ? snapshot->durable_lsn : 0));
    tenant->db_ = std::move(recovered.db);
    tenant->wal_ = std::move(recovered.wal);
    tenant->recovery_.image_lsn = recovered.image_lsn;
    tenant->recovery_.wal_records = recovered.replayed_records;
    tenant->recovery_.image_fallback = recovered.image_fallback;
  }

  engine::EngineOptions options;
  options.detector.tolerate_out_of_order =
      tenant->config_.tolerate_out_of_order;
  options.shards = tenant->config_.shards;
  options.async_actions = tenant->config_.async_actions;
  tenant->engine_ = std::make_unique<engine::RcedaEngine>(
      tenant->db_.get(), events::Environment{}, options);
  RFIDCEP_RETURN_IF_ERROR(tenant->engine_->AddRulesFromText(rules));
  if (tenant->wal_ != nullptr) {
    RFIDCEP_RETURN_IF_ERROR(tenant->engine_->AttachWal(tenant->wal_.get()));
  }
  RFIDCEP_RETURN_IF_ERROR(tenant->engine_->Compile());

  if (snapshot) {
    Status restored =
        tenant->engine_->RestoreState(*snapshot, snapshot_bytes.size());
    if (!restored.ok()) return restore_error(restored);
    tenant->restored_ = true;
  }
  return tenant;
}

Status Tenant::Checkpoint() {
  std::string bytes;
  // SerializeState syncs the WAL before reading its LSN, so everything
  // the snapshot claims durable really is on disk first.
  RFIDCEP_RETURN_IF_ERROR(engine_->SerializeState(&bytes));
  // The image goes first: a crash between the two renames leaves an
  // image newer than the snapshot, which recovery handles (the WAL is
  // opened from the lower of the two LSNs). A failed image write keeps
  // the previous image, still a valid cache, so the snapshot is written
  // anyway and the image error is reported after it.
  const Status image = db_ != nullptr ? WriteImage() : Status::Ok();
  const std::string tmp = checkpoint_path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.write(bytes.data(), static_cast<std::streamsize>(bytes.size())) ||
        !out.flush()) {
      return Status::Internal("cannot write checkpoint " + tmp);
    }
  }
  std::error_code ec;
  fs::rename(tmp, checkpoint_path_, ec);
  if (ec) {
    return Status::Internal("cannot replace checkpoint " + checkpoint_path_ +
                            ": " + ec.message());
  }
  return image;
}

Status Tenant::WriteImage() {
  // The image must hold exactly the effects of the records up to its
  // LSN. An async action stage writes the store from its own thread:
  // drain it, then sync so the WAL on disk reaches that LSN too.
  if (config_.async_actions) {
    engine_->DrainActions();
    RFIDCEP_RETURN_IF_ERROR(wal_->Sync());
  }
  const auto start = std::chrono::steady_clock::now();
  RFIDCEP_ASSIGN_OR_RETURN(
      uint64_t bytes,
      store::WriteStoreImage(*db_, wal_->last_lsn(), image_path_));
  if (engine_->metrics_enabled()) {
    common::MetricsRegistry& registry = engine_->metrics_registry();
    registry.GetGauge("store_image_bytes")->Set(static_cast<int64_t>(bytes));
    registry.GetGauge("store_image_ns")
        ->Set(std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count());
  }
  PublishStoreGauges();
  return Status::Ok();
}

void Tenant::PublishStoreGauges() {
  if (db_ == nullptr || !engine_->metrics_enabled()) return;
  // An async action stage writes the store from its own thread.
  if (config_.async_actions) engine_->DrainActions();
  common::MetricsRegistry& registry = engine_->metrics_registry();
  for (const std::string& name : db_->TableNames()) {
    const store::Table& table = *db_->GetTable(name);
    const std::string label = "{table=\"" + name + "\"}";
    registry.GetGauge("store_rows" + label)
        ->Set(static_cast<int64_t>(table.size()));
    registry.GetGauge("store_bytes" + label)
        ->Set(static_cast<int64_t>(table.bytes()));
  }
}

}  // namespace rfidcep::server
