// ABL-CTX: parameter-context ablation (paper §4.2). The same
// overlap-heavy stream detected under both contexts — chronicle is the
// correct one for RFID; this measures what unrestricted, its
// counterexample, costs and produces.

#include <benchmark/benchmark.h>

#include "engine/engine.h"

namespace {

using rfidcep::kSecond;
using rfidcep::TimePoint;
using rfidcep::engine::EngineOptions;
using rfidcep::engine::ParameterContext;
using rfidcep::engine::RcedaEngine;
using rfidcep::events::Observation;

constexpr char kRule[] =
    "CREATE RULE s, pairing ON WITHIN(SEQ(observation(\"a\", o1, t1); "
    "observation(\"b\", o2, t2)), 20sec) IF true DO act";

// Bursts of initiators followed by bursts of terminators: many open
// initiators overlap at each terminator.
std::vector<Observation> OverlappingStream(size_t bursts, size_t width) {
  std::vector<Observation> out;
  TimePoint t = 0;
  for (size_t b = 0; b < bursts; ++b) {
    for (size_t i = 0; i < width; ++i) {
      out.push_back(Observation{"a", "x" + std::to_string(i), t});
      t += kSecond / 4;
    }
    for (size_t i = 0; i < width; ++i) {
      out.push_back(Observation{"b", "y" + std::to_string(i), t});
      t += kSecond / 4;
    }
  }
  return out;
}

void BM_Context(benchmark::State& state) {
  ParameterContext context = static_cast<ParameterContext>(state.range(0));
  std::vector<Observation> stream = OverlappingStream(200, 8);
  uint64_t matches = 0;
  for (auto _ : state) {
    state.PauseTiming();
    EngineOptions options;
    options.execute_actions = false;
    options.detector.context = context;
    RcedaEngine engine(nullptr, rfidcep::events::Environment{}, options);
    if (auto s = engine.AddRulesFromText(kRule); !s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    (void)engine.Compile();
    state.ResumeTiming();
    for (const Observation& obs : stream) {
      benchmark::DoNotOptimize(engine.Process(obs));
    }
    (void)engine.Flush();
    matches = engine.stats().detector.rule_matches;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel(std::string(
      rfidcep::engine::ParameterContextName(context)));
}
BENCHMARK(BM_Context)
    ->Arg(static_cast<int>(ParameterContext::kChronicle))
    ->Arg(static_cast<int>(ParameterContext::kUnrestricted));

}  // namespace
