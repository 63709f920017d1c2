// Engine lifecycle contract (engine/engine.h "Streaming"): every
// streaming call requires Compile(); Flush() ends the stream and is
// idempotent; Reset()/Compile() start a new stream. Exercised on both
// the serial fast path and the data-partitioned pipeline (kRule joins on
// its object variable, so shards > 1 engages it).

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

using ::rfidcep::engine::testing::EngineHarness;

constexpr const char* kRule =
    "CREATE RULE x, a ON observation(r, o, t) IF true DO send alarm";

EngineOptions WithShards(int shards) {
  EngineOptions options;
  options.shards = shards;
  return options;
}

class LifecycleTest : public ::testing::TestWithParam<int> {
 protected:
  EngineOptions Options() const { return WithShards(GetParam()); }
};

TEST_P(LifecycleTest, StreamingBeforeCompileFails) {
  EngineHarness h(Options());
  ASSERT_TRUE(h.AddRules(kRule).ok());
  EXPECT_EQ(h.engine->Process({"r", "o", 1}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.engine->ProcessAll({{"r", "o", 1}}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.engine->AdvanceTo(kSecond).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.engine->Flush().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(h.matches.empty());
}

TEST_P(LifecycleTest, StreamingAfterFlushFails) {
  EngineHarness h(Options());
  ASSERT_TRUE(h.AddRules(kRule).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  EXPECT_EQ(h.engine->data_partitioned(), GetParam() > 1);
  ASSERT_TRUE(h.engine->Process({"r", "o", 1 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  EXPECT_EQ(h.engine->Process({"r", "o", 2 * kSecond}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.engine->ProcessAll({{"r", "o", 2 * kSecond}}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.engine->AdvanceTo(2 * kSecond).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.matches.size(), 1u);
}

TEST_P(LifecycleTest, FlushIsIdempotent) {
  EngineHarness h(Options());
  ASSERT_TRUE(h.AddRules(kRule).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->Process({"r", "o", 1 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  const EngineStats after_first = h.engine->stats();
  ASSERT_TRUE(h.engine->Flush().ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  EXPECT_EQ(h.engine->stats().detector.pseudo_fired,
            after_first.detector.pseudo_fired);
  EXPECT_EQ(h.matches.size(), 1u);
}

TEST_P(LifecycleTest, ResetStartsANewStream) {
  EngineHarness h(Options());
  ASSERT_TRUE(h.AddRules(kRule).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->Process({"r", "o", 5 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  ASSERT_TRUE(h.engine->Reset().ok());
  // The new stream may start before the flushed one ended.
  ASSERT_TRUE(h.engine->Process({"r", "o", 1 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  EXPECT_EQ(h.matches.size(), 2u);
}

TEST_P(LifecycleTest, RecompileStartsANewStream) {
  EngineHarness h(Options());
  ASSERT_TRUE(h.AddRules(kRule).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->Process({"r", "o", 5 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  h.engine->Decompile();
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->Process({"r", "o", 1 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  EXPECT_EQ(h.matches.size(), 2u);
}

TEST_P(LifecycleTest, CheckpointBeforeCompileFails) {
  EngineHarness h(Options());
  ASSERT_TRUE(h.AddRules(kRule).ok());
  std::string bytes;
  EXPECT_EQ(h.engine->SerializeState(&bytes).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.engine->RestoreState("").code(),
            StatusCode::kFailedPrecondition);
}

TEST_P(LifecycleTest, FlushedEngineCanBeCheckpointedAndRestored) {
  // A checkpoint of a flushed engine restores as flushed: the stream
  // stays ended until Reset().
  EngineHarness h(Options());
  ASSERT_TRUE(h.AddRules(kRule).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->Process({"r", "o", 1 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  std::string bytes;
  ASSERT_TRUE(h.engine->SerializeState(&bytes).ok());
  ASSERT_TRUE(h.engine->RestoreState(bytes).ok());
  EXPECT_EQ(h.engine->Process({"r", "o", 2 * kSecond}).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(h.engine->Reset().ok());
  ASSERT_TRUE(h.engine->Process({"r", "o", 2 * kSecond}).ok());
}

INSTANTIATE_TEST_SUITE_P(SerialAndSharded, LifecycleTest,
                         ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Shards" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rfidcep::engine
