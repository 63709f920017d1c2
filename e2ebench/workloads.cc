#include "workloads.h"

#include <algorithm>
#include <functional>
#include <regex>

#include "common/prng.h"
#include "engine/engine.h"
#include "sim/supply_chain.h"
#include "sim/workload.h"
#include "store/database.h"

namespace e2ebench {
namespace {

using rfidcep::Result;
using rfidcep::Status;
using rfidcep::events::Observation;
using rfidcep::server::EncodeBatch;
using rfidcep::server::EncodeFrame;
using rfidcep::server::FrameType;
using rfidcep::server::StatsReply;
using rfidcep::server::TenantConfig;

// How one workload is cut and paced. Rates were set on a 4-core host
// from the seed's saturation throughput (README.md, "Workloads"): the
// fixed rate sits at a third of it or less, where ack latency is steady.
// Each phase lasts its share of the run's seconds at that speed.
struct Shape {
  size_t fixed_frame_obs;  // Observations per batch frame, per phase.
  size_t sat_frame_obs;
  double fixed_rate_obs_s;  // Offered rate, summed over tenants.
  double fixed_share;       // Of the run's seconds.
  double sat_rate_obs_s;    // Expected saturation rate, for sizing only.
  double sat_share;
  int window;               // Saturation frames in flight per connection.
  // Control frames, by observation count (0 = none). In the fixed-rate
  // phase that makes them periodic in wall time.
  uint64_t checkpoint_every_obs;
  uint64_t stats_every_obs;
};

// The paper's Fig. 9 stream (bench/fig9_scalability BenchConfig), with
// the seed the benchmark was given.
rfidcep::sim::SupplyChainConfig SupplyChainConfig(uint64_t seed) {
  rfidcep::sim::SupplyChainConfig config;
  config.seed = seed;
  config.num_sites = 5;
  config.num_items = 10000;
  config.num_cases = 1000;
  config.arrival_rate_per_second = 1000.0;
  config.duplicate_rate = 0.03;
  return config;
}

// The airport-baggage rules of fig9 --series=workload.
constexpr const char* kBaggageRules = R"(
CREATE RULE misroute, baggage ON WITHIN(SEQ(observation("sorter", o, t1); observation("sorter", o, t2)), 30sec) IF true DO act
CREATE RULE journey, baggage ON WITHIN(SEQ(observation("checkin", o, t1); observation("claim", o, t2)), 60sec) IF true DO act
CREATE RULE stuck, baggage ON WITHIN(SEQ(observation("sorter", o, t1); NOT observation("gate", o, t2)), 45sec) IF true DO act
CREATE RULE reread, baggage ON WITHIN(TSEQ+(observation("gate", o, t), 0sec, 1sec), 20sec) IF true DO act
)";

// Cuts observations into batch frames as they come, interleaving
// control frames, so that the fixed-rate phase carries `fixed_obs`
// observations and the saturation phase the rest.
class FrameCutter {
 public:
  FrameCutter(const Shape& shape, uint64_t fixed_obs, TenantPlan* plan)
      : shape_(shape), fixed_obs_(fixed_obs), plan_(plan) {}

  void Add(const std::vector<Observation>& stream) {
    for (const Observation& obs : stream) {
      batch_.push_back(obs);
      if (batch_.size() == FrameObs()) Emit();
    }
  }
  void Finish() {
    if (!batch_.empty()) Emit();
  }

 private:
  size_t FrameObs() const {
    return sent_ < fixed_obs_ ? shape_.fixed_frame_obs : shape_.sat_frame_obs;
  }
  void Emit() {
    std::vector<WireFrame>& phase =
        sent_ < fixed_obs_ ? plan_->fixed : plan_->saturation;
    phase.push_back(WireFrame{FrameKind::kBatch, EncodeBatch(batch_),
                              static_cast<uint32_t>(batch_.size())});
    sent_ += batch_.size();
    plan_->observations = sent_;
    batch_.clear();
    if (shape_.stats_every_obs != 0 && sent_ >= next_stats_) {
      phase.push_back(
          WireFrame{FrameKind::kStats, EncodeFrame(FrameType::kStats, ""), 0});
      next_stats_ += shape_.stats_every_obs;
    }
    if (shape_.checkpoint_every_obs != 0 && sent_ >= next_checkpoint_) {
      phase.push_back(WireFrame{FrameKind::kCheckpoint,
                                EncodeFrame(FrameType::kCheckpoint, ""), 0});
      next_checkpoint_ += shape_.checkpoint_every_obs;
    }
  }

  const Shape& shape_;
  const uint64_t fixed_obs_;
  TenantPlan* const plan_;
  std::vector<Observation> batch_;
  uint64_t sent_ = 0;
  uint64_t next_stats_ = shape_.stats_every_obs;
  uint64_t next_checkpoint_ = shape_.checkpoint_every_obs;
};

// Moves the last kTailChunks * kTailFrames frames of the saturation
// phase into the shutdown tail.
void CutTail(TenantPlan* plan) {
  std::vector<WireFrame>& sat = plan->saturation;
  const size_t keep =
      sat.size() - std::min(sat.size(), kTailChunks * kTailFrames);
  plan->tail.assign(kTailChunks, {});
  for (size_t i = keep; i < sat.size(); ++i) {
    plan->tail[(i - keep) / kTailFrames].push_back(std::move(sat[i]));
  }
  sat.resize(keep);
}

uint64_t PhaseObs(double rate_obs_s, double share, int seconds) {
  return static_cast<uint64_t>(rate_obs_s * share * seconds);
}

Workload SupplyChainWorkload(const std::string& name, const Shape& shape,
                             uint64_t seed, int seconds, int shards) {
  Workload w;
  w.name = name;
  w.fixed_rate_obs_s = shape.fixed_rate_obs_s;
  w.window = shape.window;
  const rfidcep::sim::SupplyChainConfig config = SupplyChainConfig(seed);
  rfidcep::sim::SupplyChain chain(config);
  const uint64_t fixed_obs =
      PhaseObs(shape.fixed_rate_obs_s, shape.fixed_share, seconds);
  const uint64_t total =
      fixed_obs + PhaseObs(shape.sat_rate_obs_s, shape.sat_share, seconds);
  std::vector<Observation> stream = chain.GenerateStream(total);
  // Cut the stream 1 s before the end of the simulator's planned horizon,
  // where its background traffic stops. Packing episodes and exit passes
  // run past that by a random margin. In that sparse tail the short
  // windows empty out, so the live state at the end of the run, and
  // with it the final checkpoint, would be 100 times smaller on some
  // seeds than on others.
  const double horizon_s = static_cast<double>(total) /
                           (1.0 + config.duplicate_rate) /
                           config.arrival_rate_per_second;
  const rfidcep::TimePoint cut =
      static_cast<rfidcep::TimePoint>((horizon_s - 1.0) * rfidcep::kSecond);
  stream.erase(
      std::lower_bound(stream.begin(), stream.end(), cut,
                       [](const Observation& obs, rfidcep::TimePoint t) {
                         return obs.timestamp < t;
                       }),
      stream.end());
  TenantPlan plan;
  plan.config.name = "site";
  plan.config.rules_text = DaemonRuleProgram(chain.GeneratedRuleProgram(25));
  plan.config.shards = shards;
  plan.config.partition = rfidcep::engine::PartitionMode::kData;
  FrameCutter cutter(shape, fixed_obs, &plan);
  cutter.Add(stream);
  cutter.Finish();
  CutTail(&plan);
  w.tenants.push_back(std::move(plan));
  return w;
}

Workload BaggageWorkload(const Shape& shape, uint64_t seed, int seconds) {
  constexpr int kTenants = 3;
  Workload w;
  w.name = "baggage_ooo";
  w.fixed_rate_obs_s = shape.fixed_rate_obs_s;
  w.window = shape.window;
  const uint64_t fixed_obs =
      PhaseObs(shape.fixed_rate_obs_s / kTenants, shape.fixed_share, seconds);
  const uint64_t total_obs =
      fixed_obs +
      PhaseObs(shape.sat_rate_obs_s / kTenants, shape.sat_share, seconds);
  // About 5 reads per bag (4 stages, misroutes, rereads). Bags are
  // generated in chunks that follow each other in time, so that only one
  // chunk's observations are held at once.
  constexpr uint64_t kBagsPerChunk = 50000;
  const uint64_t bags = total_obs / 5 + 1;
  for (int k = 0; k < kTenants; ++k) {
    TenantPlan plan;
    plan.config.name = "airport" + std::to_string(k);
    plan.config.rules_text = kBaggageRules;
    plan.config.store = false;
    plan.config.tolerate_out_of_order = true;
    FrameCutter cutter(shape, fixed_obs, &plan);
    rfidcep::Prng prng(seed * kTenants + static_cast<uint64_t>(k));
    for (uint64_t first = 0; first < bags; first += kBagsPerChunk) {
      std::vector<std::string> ids;
      const uint64_t last = std::min(bags, first + kBagsPerChunk);
      for (uint64_t i = first; i < last; ++i) {
        ids.push_back("bag" + std::to_string(i));
      }
      rfidcep::sim::BaggageConfig config;
      config.start =
          static_cast<rfidcep::TimePoint>(first) * config.bag_stagger;
      cutter.Add(rfidcep::sim::GenerateBaggage(config, ids, &prng).arrivals);
    }
    cutter.Finish();
    CutTail(&plan);
    w.tenants.push_back(std::move(plan));
  }
  return w;
}

}  // namespace

Result<Workload> BuildWorkload(const std::string& name, uint64_t seed,
                               int seconds) {
  if (seconds < 1) return Status::InvalidArgument("seconds must be >= 1");
  if (name == "supply_chain") {
    constexpr Shape kShape = {.fixed_frame_obs = 16,
                              .sat_frame_obs = 64,
                              .fixed_rate_obs_s = 7000,
                              .fixed_share = 0.5,
                              .sat_rate_obs_s = 21000,
                              .sat_share = 0.8,
                              .window = 4,
                              .checkpoint_every_obs = 0,
                              .stats_every_obs = 0};
    return SupplyChainWorkload(name, kShape, seed, seconds, /*shards=*/1);
  }
  if (name == "sharded_checkpoint") {
    constexpr Shape kShape = {.fixed_frame_obs = 16,
                              .sat_frame_obs = 64,
                              .fixed_rate_obs_s = 4800,
                              .fixed_share = 0.6,
                              .sat_rate_obs_s = 14300,
                              .sat_share = 0.6,
                              .window = 4,
                              .checkpoint_every_obs = 7000,
                              .stats_every_obs = 1750};
    return SupplyChainWorkload(name, kShape, seed, seconds, /*shards=*/3);
  }
  if (name == "baggage_ooo") {
    constexpr Shape kShape = {.fixed_frame_obs = 1024,
                              .sat_frame_obs = 512,
                              .fixed_rate_obs_s = 900000,
                              .fixed_share = 0.2,
                              .sat_rate_obs_s = 2800000,
                              .sat_share = 0.25,
                              .window = 8,
                              .checkpoint_every_obs = 0,
                              .stats_every_obs = 0};
    return BaggageWorkload(kShape, seed, seconds);
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

std::string DaemonRuleProgram(const std::string& generated_program) {
  static const std::regex kGroupLiteral("\"g_");
  static const std::regex kTypeTerm(", type\\(o[0-9]+\\) = \"[a-z_0-9]*\"");
  return std::regex_replace(
      std::regex_replace(generated_program, kGroupLiteral, "\"r_"), kTypeTerm,
      "");
}

std::vector<const std::vector<WireFrame>*> TenantPlan::Phases() const {
  std::vector<const std::vector<WireFrame>*> phases = {&fixed, &saturation};
  for (const std::vector<WireFrame>& chunk : tail) phases.push_back(&chunk);
  return phases;
}

Status ForEachBatch(const TenantPlan& plan,
                    const std::function<Status(
                        const std::vector<Observation>&)>& fn) {
  std::vector<Observation> batch;
  for (const std::vector<WireFrame>* phase : plan.Phases()) {
    for (const WireFrame& frame : *phase) {
      if (frame.kind != FrameKind::kBatch) continue;
      const std::string_view body =
          std::string_view(frame.bytes)
              .substr(rfidcep::server::kFrameHeaderBytes + 1);
      RFIDCEP_RETURN_IF_ERROR(rfidcep::server::DecodeBatch(body, &batch));
      RFIDCEP_RETURN_IF_ERROR(fn(batch));
    }
  }
  return Status::Ok();
}

StatsReply ExpectedStats(const TenantPlan& plan) {
  rfidcep::store::Database db;
  (void)db.InstallRfidSchema();
  rfidcep::engine::EngineOptions options;
  options.detector.tolerate_out_of_order = plan.config.tolerate_out_of_order;
  rfidcep::engine::RcedaEngine engine(plan.config.store ? &db : nullptr,
                                      rfidcep::events::Environment{}, options);
  StatsReply reply;
  if (!engine.AddRulesFromText(plan.config.rules_text).ok() ||
      !engine.Compile().ok() ||
      !ForEachBatch(plan, [&engine](const std::vector<Observation>& batch) {
         return engine.ProcessAll(batch);
       }).ok()) {
    return reply;  // All zero: cannot equal a working daemon's reply.
  }
  const rfidcep::engine::EngineStats& stats = engine.stats();
  reply.observations = stats.detector.observations;
  reply.matches = stats.detector.rule_matches;
  reply.rules_fired = stats.rules_fired;
  reply.sql_actions = stats.sql_actions_executed;
  reply.procedures = stats.procedures_invoked;
  for (size_t i = 0; i < engine.num_rules(); ++i) {
    const std::string& id = engine.rule(i).id;
    reply.fired.emplace_back(id, engine.FiredCount(id));
  }
  return reply;
}

std::string DiffStats(const StatsReply& want, const StatsReply& got) {
  auto field = [](const char* name, uint64_t w, uint64_t g) {
    return std::string(name) + " want " + std::to_string(w) + " got " +
           std::to_string(g);
  };
  if (want.observations != got.observations) {
    return field("observations", want.observations, got.observations);
  }
  if (want.matches != got.matches) {
    return field("matches", want.matches, got.matches);
  }
  if (want.rules_fired != got.rules_fired) {
    return field("rules_fired", want.rules_fired, got.rules_fired);
  }
  if (want.sql_actions != got.sql_actions) {
    return field("sql_actions", want.sql_actions, got.sql_actions);
  }
  if (want.procedures != got.procedures) {
    return field("procedures", want.procedures, got.procedures);
  }
  if (want.fired != got.fired) return "per-rule fired counts differ";
  return "";
}

std::string TenantConfigLine(const TenantConfig& config,
                             const std::string& rules_file) {
  return "tenant " + config.name + " rules=" + rules_file +
         " shards=" + std::to_string(config.shards) + " partition=" +
         (config.partition == rfidcep::engine::PartitionMode::kData ? "data"
                                                                    : "rule") +
         " store=" + (config.store ? "1" : "0") +
         " tolerate_out_of_order=" +
         (config.tolerate_out_of_order ? "1" : "0") + "\n";
}

}  // namespace e2ebench
