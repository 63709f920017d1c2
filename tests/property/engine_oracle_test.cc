// Property tests: the streaming engine against a brute-force oracle.
//
// For a family of expression templates and many random histories:
//   1. engine(unrestricted) == oracle enumeration, exactly;
//   2. engine(chronicle) ⊆ engine(unrestricted) (span multiset);
//   3. every instance the engine emits (any context) re-validates against
//      the declarative temporal constraints and variable joins.

#include <set>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "rules/parser.h"
#include "tests/engine/test_util.h"
#include "tests/property/reference_oracle.h"

namespace rfidcep::engine {
namespace {

using ::rfidcep::engine::testing::EngineHarness;
using ::rfidcep::engine::testing::EnumerateInstances;
using ::rfidcep::engine::testing::Span;
using ::rfidcep::engine::testing::Spans;
using ::rfidcep::engine::testing::ValidateInstance;
using events::EventInstancePtr;
using events::Observation;

// NOT-free templates covering every constructor, chosen so the engine's
// documented detection regime is complete (TSEQ-over-TSEQ+ uses
// dist_lo >= inner dist_hi; see DESIGN.md §3).
const char* kTemplates[] = {
    // 0: primitive
    "observation(\"A\", o, t)",
    // 1: disjunction
    "observation(\"A\", o, t) OR observation(\"B\", o, t)",
    // 2: bounded conjunction
    "WITHIN(observation(\"A\", o1, t1) AND observation(\"B\", o2, t2), 4sec)",
    // 3: bounded sequence
    "WITHIN(SEQ(observation(\"A\", o1, t1); observation(\"B\", o2, t2)), "
    "6sec)",
    // 4: distance-constrained sequence
    "TSEQ(observation(\"A\", o1, t1); observation(\"B\", o2, t2), 1sec, "
    "5sec)",
    // 5: equality join on (r, o) — the duplicate-filter shape
    "WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)",
    // 6: aperiodic runs under a distance-constrained sequence
    "TSEQ(TSEQ+(observation(\"A\", o1, t1), 0sec, 1sec); "
    "observation(\"B\", o2, t2), 2sec, 20sec)",
    // 7: self-closing aperiodic runs
    "WITHIN(TSEQ+(observation(\"A\", o1, t1), 0sec, 2sec), 30sec)",
    // 8: disjunction feeding a bounded conjunction
    "WITHIN((observation(\"A\", o1, t1) OR observation(\"B\", o2, t2)) AND "
    "observation(\"C\", o3, t3), 5sec)",
    // 9: left-nested sequences
    "WITHIN(SEQ(SEQ(observation(\"A\", o1, t1); observation(\"B\", o2, "
    "t2)); observation(\"C\", o3, t3)), 12sec)",
};

std::vector<Observation> RandomHistory(uint64_t seed, size_t n) {
  rfidcep::Prng prng(seed);
  std::vector<Observation> out;
  const char* readers[] = {"A", "B", "C"};
  TimePoint t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += prng.UniformInt(0, 3 * kSecond);
    out.push_back(Observation{
        readers[prng.UniformInt(0, 2)],
        "o" + std::to_string(prng.UniformInt(0, 3)), t});
  }
  return out;
}

class OracleSweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(OracleSweep, UnrestrictedMatchesOracleExactly) {
  auto [template_index, seed] = GetParam();
  const char* event_text = kTemplates[template_index];
  std::vector<Observation> history = RandomHistory(seed, 60);

  // Oracle.
  Result<events::EventExprPtr> expr = rules::ParseEventExpr(event_text);
  ASSERT_TRUE(expr.ok()) << expr.status();
  events::Environment env;
  uint64_t seq = 0;
  std::vector<EventInstancePtr> expected =
      EnumerateInstances(**expr, history, env, &seq);

  // Engine, unrestricted context.
  EngineOptions options;
  options.detector.context = ParameterContext::kUnrestricted;
  EngineHarness h(options);
  ASSERT_TRUE(h.AddRules(std::string("CREATE RULE p, property ON ") +
                         event_text + " IF true DO act")
                  .ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  for (const Observation& obs : history) {
    ASSERT_TRUE(h.engine->Process(obs).ok());
  }
  ASSERT_TRUE(h.engine->Flush().ok());

  std::vector<EventInstancePtr> actual;
  for (const auto& match : h.matches) actual.push_back(match.instance);
  EXPECT_EQ(Spans(actual), Spans(expected))
      << "template " << template_index << " seed " << seed << "\nevent: "
      << event_text;
}

TEST_P(OracleSweep, ChronicleIsSubsetOfUnrestricted) {
  auto [template_index, seed] = GetParam();
  const char* event_text = kTemplates[template_index];
  std::vector<Observation> history = RandomHistory(seed, 60);

  auto run = [&](ParameterContext context) {
    EngineOptions options;
    options.detector.context = context;
    EngineHarness h(options);
    EXPECT_TRUE(h.AddRules(std::string("CREATE RULE p, property ON ") +
                           event_text + " IF true DO act")
                    .ok());
    EXPECT_TRUE(h.engine->Compile().ok());
    for (const Observation& obs : history) {
      EXPECT_TRUE(h.engine->Process(obs).ok());
    }
    EXPECT_TRUE(h.engine->Flush().ok());
    std::vector<EventInstancePtr> out;
    for (const auto& match : h.matches) out.push_back(match.instance);
    return out;
  };

  std::vector<Span> chronicle = Spans(run(ParameterContext::kChronicle));
  std::vector<Span> unrestricted =
      Spans(run(ParameterContext::kUnrestricted));
  // Multiset inclusion.
  EXPECT_TRUE(std::includes(unrestricted.begin(), unrestricted.end(),
                            chronicle.begin(), chronicle.end()))
      << "template " << template_index << " seed " << seed;
}

TEST_P(OracleSweep, EveryEmittedInstanceRevalidates) {
  auto [template_index, seed] = GetParam();
  const char* event_text = kTemplates[template_index];
  std::vector<Observation> history = RandomHistory(seed, 60);
  Result<events::EventExprPtr> expr = rules::ParseEventExpr(event_text);
  ASSERT_TRUE(expr.ok());

  for (ParameterContext context :
       {ParameterContext::kChronicle, ParameterContext::kUnrestricted}) {
    EngineOptions options;
    options.detector.context = context;
    EngineHarness h(options);
    ASSERT_TRUE(h.AddRules(std::string("CREATE RULE p, property ON ") +
                           event_text + " IF true DO act")
                    .ok());
  ASSERT_TRUE(h.engine->Compile().ok());
    for (const Observation& obs : history) {
      ASSERT_TRUE(h.engine->Process(obs).ok());
    }
    ASSERT_TRUE(h.engine->Flush().ok());
    for (const auto& match : h.matches) {
      EXPECT_TRUE(ValidateInstance(**expr, *match.instance))
          << "template " << template_index << " seed " << seed << " context "
          << ParameterContextName(context) << " instance "
          << match.instance->ToString();
    }
  }
}

TEST_P(OracleSweep, ChronicleNeverSharesConstituents) {
  // Chronicle consumes: no two matches of a binary rule may share a
  // constituent instance.
  auto [template_index, seed] = GetParam();
  const char* event_text = kTemplates[template_index];
  if (template_index == 0 || template_index == 1) return;  // Not binary.
  std::vector<Observation> history = RandomHistory(seed, 60);

  EngineHarness h;
  ASSERT_TRUE(h.AddRules(std::string("CREATE RULE p, property ON ") +
                         event_text + " IF true DO act")
                  .ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  for (const Observation& obs : history) {
    ASSERT_TRUE(h.engine->Process(obs).ok());
  }
  ASSERT_TRUE(h.engine->Flush().ok());

  std::set<uint64_t> seen;
  for (const auto& match : h.matches) {
    for (const EventInstancePtr& child : match.instance->children()) {
      if (child->children().empty() && !child->is_primitive()) continue;
      auto [it, inserted] = seen.insert(child->sequence_number());
      EXPECT_TRUE(inserted)
          << "constituent reused across chronicle matches (template "
          << template_index << " seed " << seed << ")";
    }
  }
}

TEST(OracleEnvironment, GroupAndTypeConstrainedTemplatesMatchOracle) {
  // Group/type constraints resolved through catalogs, engine vs oracle
  // under a shared Environment.
  epc::ReaderRegistry readers;
  readers.RegisterReader("A", "g_in", "in");
  readers.RegisterReader("B", "g_in", "in");
  readers.RegisterReader("C", "g_out", "out");
  epc::ProductCatalog catalog;
  catalog.RegisterExact("o0", "case");
  catalog.RegisterExact("o1", "case");
  catalog.RegisterExact("o2", "item");
  events::Environment env{&catalog, &readers};

  const char* templates[] = {
      "observation(r, o, t), group(r) = \"g_in\", type(o) = \"case\"",
      "WITHIN(observation(r, o, t1), group(r) = \"g_in\"; "
      "observation(r2, o, t2), group(r2) = \"g_out\", 8sec)",
  };
  for (const char* event_text : templates) {
    for (uint64_t seed : {3u, 11u, 29u}) {
      std::vector<Observation> history = RandomHistory(seed, 60);
      Result<events::EventExprPtr> expr = rules::ParseEventExpr(event_text);
      ASSERT_TRUE(expr.ok()) << expr.status();
      uint64_t seq = 0;
      std::vector<EventInstancePtr> expected =
          EnumerateInstances(**expr, history, env, &seq);

      EngineOptions options;
      options.detector.context = ParameterContext::kUnrestricted;
      store::Database db;
      ASSERT_TRUE(db.InstallRfidSchema().ok());
      RcedaEngine engine(&db, env, options);
      std::vector<EventInstancePtr> actual;
      engine.SetMatchCallback(
          [&actual](const rules::Rule&, const events::EventInstancePtr& e) {
            actual.push_back(e);
          });
      ASSERT_TRUE(engine
                      .AddRulesFromText(
                          std::string("CREATE RULE p, env property ON ") +
                          event_text + " IF true DO act")
                      .ok());
      ASSERT_TRUE(engine.Compile().ok());
      for (const Observation& obs : history) {
        ASSERT_TRUE(engine.Process(obs).ok());
      }
      ASSERT_TRUE(engine.Flush().ok());
      EXPECT_EQ(Spans(actual), Spans(expected))
          << event_text << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTemplatesManySeeds, OracleSweep,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u)),
    [](const ::testing::TestParamInfo<std::tuple<int, uint64_t>>& info) {
      return "T" + std::to_string(std::get<0>(info.param)) + "Seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace rfidcep::engine
