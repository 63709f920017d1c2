// The benchmark's workloads: what each tenant is configured with, which
// observations it receives, and how they are cut into pre-encoded
// protocol frames for the fixed-rate and saturation phases. Streams
// come from src/sim and depend only on the seed, so the load generator
// and the traced replay (ledger.cc) send the engine identical bytes.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "events/observation.h"
#include "server/protocol.h"
#include "server/tenant.h"

namespace e2ebench {

enum class FrameKind : uint8_t { kBatch, kCheckpoint, kStats };

// One client frame, encoded once before any timing starts.
struct WireFrame {
  FrameKind kind = FrameKind::kBatch;
  std::string bytes;          // Header + payload, as sent.
  uint32_t observations = 0;  // Batch frames only.
};

struct TenantPlan {
  rfidcep::server::TenantConfig config;  // rules_text, shards, store, ...
  std::vector<WireFrame> fixed;       // Fixed-rate phase, in send order.
  std::vector<WireFrame> saturation;  // Saturation phase, in send order.
  // The stream's last frames, in kTailChunks chunks of kTailFrames: one
  // chunk goes to each relaunched daemon before its SIGTERM.
  std::vector<std::vector<WireFrame>> tail;
  uint64_t observations = 0;  // Over every phase.

  // Every phase's frames, in send order.
  std::vector<const std::vector<WireFrame>*> Phases() const;
};

inline constexpr size_t kTailChunks = 4;
inline constexpr size_t kTailFrames = 16;

struct Workload {
  std::string name;
  std::vector<TenantPlan> tenants;  // One connection each.
  double fixed_rate_obs_s = 0;      // Offered rate, summed over tenants.
  int window = 0;                   // Saturation: frames in flight per conn.
};

// Builds `name` for `seed`, sized so that each phase lasts about
// `seconds` / 2 on the host the rates were set on.
rfidcep::Result<Workload> BuildWorkload(const std::string& name,
                                        uint64_t seed, int seconds);

// The Fig. 9 rule program rewritten for a daemon tenant, whose engine
// runs with an empty events::Environment: group(r) is r itself and
// type(o) is "". Each "g_X" group literal becomes its single reader
// "r_X", and the type() terms of the monitoring family are dropped.
std::string DaemonRuleProgram(const std::string& generated_program);

// Per-tenant totals expected from the daemon after the whole plan: a
// serial in-process engine over the same stream, rules and options.
rfidcep::server::StatsReply ExpectedStats(const TenantPlan& plan);

// Empty when equal; otherwise names the first differing field.
std::string DiffStats(const rfidcep::server::StatsReply& want,
                      const rfidcep::server::StatsReply& got);

// Decodes every batch frame of `plan` in send order and calls `fn` on each batch; stops at the first error.
rfidcep::Status ForEachBatch(
    const TenantPlan& plan,
    const std::function<rfidcep::Status(
        const std::vector<rfidcep::events::Observation>&)>& fn);

// "tenant <name> rules=<rules_file> ..." for the daemon's config file.
std::string TenantConfigLine(const rfidcep::server::TenantConfig& config,
                             const std::string& rules_file);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
