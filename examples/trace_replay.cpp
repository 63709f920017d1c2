// rfidcep trace replay tool: run a rule program over an observation trace
// (or a freshly simulated workload) and report what fired.
//
//   ./build/examples/trace_replay --rules=FILE [--trace=FILE]
//                                 [--generate=N] [--seed=S] [--save=FILE]
//                                 [--context=chronicle|unrestricted]
//                                 [--metrics-out=FILE] [--lifecycle=FILE]
//                                 [--quiet]
//
// With --trace, observations are replayed from a CSV trace (see
// sim/trace.h). Without it, --generate=N events of supply-chain workload
// are simulated (and optionally saved with --save for later replays).
//
// --metrics-out dumps the engine's Prometheus exposition after the run
// ("-" for stdout); --lifecycle streams the JSONL event-lifecycle trace
// (observation -> node activations -> match -> condition -> action, see
// engine/trace.h) to a file, or "-" for stdout.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "engine/engine.h"
#include "engine/trace.h"
#include "sim/supply_chain.h"
#include "sim/trace.h"
#include "store/sql_executor.h"

namespace {

using rfidcep::Status;
using rfidcep::engine::EngineOptions;
using rfidcep::engine::ParameterContext;
using rfidcep::engine::RcedaEngine;
using rfidcep::engine::RuleFiring;

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "error: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

bool ParseContext(const std::string& name, ParameterContext* out) {
  if (name == "chronicle") *out = ParameterContext::kChronicle;
  else if (name == "unrestricted") *out = ParameterContext::kUnrestricted;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string rules_path;
  std::string trace_path;
  std::string save_path;
  std::string metrics_out;
  std::string lifecycle_path;
  size_t generate = 0;
  uint64_t seed = 42;
  bool quiet = false;
  ParameterContext context = ParameterContext::kChronicle;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--rules=")) rules_path = v;
    else if (const char* v = value("--trace=")) trace_path = v;
    else if (const char* v = value("--save=")) save_path = v;
    else if (const char* v = value("--metrics-out=")) metrics_out = v;
    else if (const char* v = value("--lifecycle=")) lifecycle_path = v;
    else if (const char* v = value("--generate=")) generate = std::strtoull(v, nullptr, 10);
    else if (const char* v = value("--seed=")) seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = value("--context=")) {
      if (!ParseContext(v, &context)) {
        std::fprintf(stderr, "unknown context '%s'\n", v);
        return 2;
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (rules_path.empty() || (trace_path.empty() && generate == 0)) {
    std::fprintf(stderr,
                 "usage: trace_replay --rules=FILE (--trace=FILE | "
                 "--generate=N) [--seed=S] [--save=FILE] [--context=NAME] "
                 "[--metrics-out=FILE] [--lifecycle=FILE] [--quiet]\n");
    return 2;
  }

  // Load rules.
  std::ifstream rules_file(rules_path);
  if (!rules_file) {
    std::fprintf(stderr, "error: cannot open rules file '%s'\n",
                 rules_path.c_str());
    return 1;
  }
  std::ostringstream rules_text;
  rules_text << rules_file.rdbuf();

  // A supply chain supplies catalogs either way (type()/group() for
  // generated workloads; harmless for external traces).
  rfidcep::sim::SupplyChainConfig config;
  config.seed = seed;
  rfidcep::sim::SupplyChain chain(config);

  // Load or generate the stream.
  std::vector<rfidcep::events::Observation> stream;
  if (!trace_path.empty()) {
    auto loaded = rfidcep::sim::ReadTraceFile(trace_path);
    if (!loaded.ok()) return Fail("reading trace", loaded.status());
    stream = std::move(*loaded);
  } else {
    stream = chain.GenerateStream(generate);
  }
  if (!save_path.empty()) {
    if (Status s = rfidcep::sim::WriteTraceFile(save_path, stream); !s.ok()) {
      return Fail("saving trace", s);
    }
  }

  rfidcep::store::Database db;
  if (Status s = db.InstallRfidSchema(); !s.ok()) return Fail("schema", s);
  EngineOptions options;
  options.detector.context = context;
  options.detector.tolerate_out_of_order = true;
  RcedaEngine engine(&db, chain.environment(), options);

  std::ofstream lifecycle_file;
  std::unique_ptr<rfidcep::engine::TraceSink> sink;
  if (!lifecycle_path.empty()) {
    std::ostream* out = &std::cout;
    if (lifecycle_path != "-") {
      lifecycle_file.open(lifecycle_path);
      if (!lifecycle_file) {
        std::fprintf(stderr, "error: cannot open lifecycle file '%s'\n",
                     lifecycle_path.c_str());
        return 1;
      }
      out = &lifecycle_file;
    }
    sink = std::make_unique<rfidcep::engine::TraceSink>(out);
    if (Status s = engine.SetTraceSink(sink.get()); !s.ok()) {
      return Fail("attaching trace sink", s);
    }
  }

  size_t alarms = 0;
  engine.RegisterProcedure("send alarm",
                           [&](const RuleFiring& firing, const std::string&) {
                             ++alarms;
                             if (!quiet) {
                               std::printf("[alarm] rule %s at t=%s\n",
                                           firing.rule->id.c_str(),
                                           rfidcep::FormatTimePoint(
                                               firing.fire_time)
                                               .c_str());
                             }
                           });
  if (Status s = engine.AddRulesFromText(rules_text.str()); !s.ok()) {
    return Fail("parsing rules", s);
  }
  if (Status s = engine.Compile(); !s.ok()) return Fail("compiling rules", s);

  std::printf("replaying %zu observations under %s context...\n",
              stream.size(), std::string(rfidcep::engine::ParameterContextName(
                                 context))
                                 .c_str());
  for (const auto& obs : stream) {
    if (Status s = engine.Process(obs); !s.ok()) return Fail("processing", s);
  }
  if (Status s = engine.Flush(); !s.ok()) return Fail("flushing", s);

  const rfidcep::engine::EngineStats& stats = engine.stats();
  std::printf("\nobservations=%llu dropped_ooo=%llu matches=%llu "
              "fired=%llu pseudo=%llu sql_actions=%llu procedures=%llu\n",
              static_cast<unsigned long long>(stats.detector.observations),
              static_cast<unsigned long long>(
                  stats.detector.out_of_order_dropped),
              static_cast<unsigned long long>(stats.detector.rule_matches),
              static_cast<unsigned long long>(stats.rules_fired),
              static_cast<unsigned long long>(stats.detector.pseudo_fired),
              static_cast<unsigned long long>(stats.sql_actions_executed),
              static_cast<unsigned long long>(stats.procedures_invoked));
  std::printf("per-rule fired counts:\n");
  for (size_t i = 0; i < engine.num_rules(); ++i) {
    const auto& rule = engine.rule(i);
    std::printf("  %-12s %-32s %llu\n", rule.id.c_str(), rule.name.c_str(),
                static_cast<unsigned long long>(engine.FiredCount(rule.id)));
  }
  for (const char* table : {"OBSERVATION", "OBJECTLOCATION",
                            "OBJECTCONTAINMENT"}) {
    auto rows = rfidcep::store::ExecuteSql(
        std::string("SELECT COUNT(*) FROM ") + table, &db);
    if (rows.ok() && !rows->rows.empty()) {
      std::printf("table %-18s %s rows\n", table,
                  rows->rows[0][0].ToString().c_str());
    }
  }
  if (!engine.first_deferred_error().ok()) {
    std::printf("first deferred action/condition error: %s\n",
                engine.first_deferred_error().ToString().c_str());
  }
  if (sink != nullptr) {
    std::printf("lifecycle trace: %zu records -> %s\n", sink->records(),
                lifecycle_path == "-" ? "stdout" : lifecycle_path.c_str());
  }
  if (!metrics_out.empty()) {
    std::string text = engine.ExportMetrics();
    if (metrics_out == "-") {
      std::fputs(text.c_str(), stdout);
    } else {
      std::ofstream out(metrics_out);
      if (!out) {
        std::fprintf(stderr, "error: cannot open metrics file '%s'\n",
                     metrics_out.c_str());
        return 1;
      }
      out << text;
    }
  }
  return 0;
}
