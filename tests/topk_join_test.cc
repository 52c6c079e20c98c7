#include <gtest/gtest.h>

#include <algorithm>

#include "join/topk_join.h"
#include "sim/fixtures.h"
#include "tests/test_util.h"

namespace seco {
namespace {

using testing_util::MakeKeyedSearchService;

JoinPredicate KeyEquals() {
  return [](const Tuple& x, const Tuple& y) -> Result<bool> {
    return x.AtomicAt(0).AsInt() == y.AtomicAt(0).AsInt();
  };
}

/// Ground truth: all joinable pairs of the two full lists, best first.
std::vector<double> OracleTopScores(const BuiltService& sx,
                                    const BuiltService& sy, double wx,
                                    double wy, int k) {
  ServiceResponse all_x = std::move(sx.backend->FullScan({})).value();
  ServiceResponse all_y = std::move(sy.backend->FullScan({})).value();
  std::vector<double> combined;
  for (size_t i = 0; i < all_x.tuples.size(); ++i) {
    for (size_t j = 0; j < all_y.tuples.size(); ++j) {
      if (all_x.tuples[i].AtomicAt(0).AsInt() ==
          all_y.tuples[j].AtomicAt(0).AsInt()) {
        combined.push_back(wx * all_x.scores[i] + wy * all_y.scores[j]);
      }
    }
  }
  std::sort(combined.begin(), combined.end(), std::greater<double>());
  if (static_cast<int>(combined.size()) > k) combined.resize(k);
  return combined;
}

struct TopKCase {
  ScoreDecay decay_x;
  ScoreDecay decay_y;
  double wx;
  double wy;
  int k;
};

// Names the test instance by its content, not by the bytes (including
// uninitialized padding) gtest prints for a struct without a printer.
void PrintTo(const TopKCase& c, std::ostream* os) {
  *os << ScoreDecayToString(c.decay_x) << " x " << ScoreDecayToString(c.decay_y)
      << " weights " << c.wx << " " << c.wy << " k " << c.k;
}

class TopKJoinMatchesOracleTest : public ::testing::TestWithParam<TopKCase> {};

TEST_P(TopKJoinMatchesOracleTest, ExactTopK) {
  const TopKCase& c = GetParam();
  SyntheticPairParams params;
  params.rows_x = 120;
  params.rows_y = 120;
  params.chunk_x = 10;
  params.chunk_y = 10;
  params.key_domain = 6;
  params.decay_x = c.decay_x;
  params.decay_y = c.decay_y;
  params.step_h_x = 2;
  params.step_h_y = 2;
  SECO_ASSERT_OK_AND_ASSIGN(SyntheticPair pair, MakeSyntheticPair(params));

  ChunkSource x(pair.x.interface, {});
  ChunkSource y(pair.y.interface, {});
  TopKJoinConfig config;
  config.k = c.k;
  config.max_calls = 200;
  config.weight_x = c.wx;
  config.weight_y = c.wy;
  TopKJoinExecutor executor(&x, &y, KeyEquals(), config);
  SECO_ASSERT_OK_AND_ASSIGN(TopKJoinExecution exec, executor.Run());

  std::vector<double> oracle =
      OracleTopScores(pair.x, pair.y, c.wx, c.wy, c.k);
  ASSERT_EQ(exec.results.size(), oracle.size());
  EXPECT_TRUE(exec.guaranteed);
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_NEAR(exec.results[i].combined, oracle[i], 1e-9)
        << "rank " << i << " differs from true top-k";
  }
}

INSTANTIATE_TEST_SUITE_P(
    DecayAndWeights, TopKJoinMatchesOracleTest,
    ::testing::Values(
        TopKCase{ScoreDecay::kLinear, ScoreDecay::kLinear, 0.5, 0.5, 10},
        TopKCase{ScoreDecay::kLinear, ScoreDecay::kQuadratic, 0.5, 0.5, 10},
        TopKCase{ScoreDecay::kQuadratic, ScoreDecay::kQuadratic, 0.3, 0.7, 10},
        TopKCase{ScoreDecay::kStep, ScoreDecay::kLinear, 0.5, 0.5, 10},
        TopKCase{ScoreDecay::kLinear, ScoreDecay::kLinear, 0.9, 0.1, 5},
        TopKCase{ScoreDecay::kLinear, ScoreDecay::kLinear, 0.5, 0.5, 25}));

TEST(TopKJoinTest, EmitsInNonIncreasingOrder) {
  SyntheticPairParams params;
  params.key_domain = 4;
  SECO_ASSERT_OK_AND_ASSIGN(SyntheticPair pair, MakeSyntheticPair(params));
  ChunkSource x(pair.x.interface, {});
  ChunkSource y(pair.y.interface, {});
  TopKJoinConfig config;
  config.k = 30;
  config.max_calls = 300;
  TopKJoinExecutor executor(&x, &y, KeyEquals(), config);
  SECO_ASSERT_OK_AND_ASSIGN(TopKJoinExecution exec, executor.Run());
  for (size_t i = 1; i < exec.results.size(); ++i) {
    EXPECT_LE(exec.results[i].combined, exec.results[i - 1].combined + 1e-12);
  }
}

TEST(TopKJoinTest, BudgetExhaustionLosesGuaranteeButStaysSorted) {
  SyntheticPairParams params;
  params.key_domain = 100;  // sparse: k unreachable in 4 calls
  SECO_ASSERT_OK_AND_ASSIGN(SyntheticPair pair, MakeSyntheticPair(params));
  ChunkSource x(pair.x.interface, {});
  ChunkSource y(pair.y.interface, {});
  TopKJoinConfig config;
  config.k = 50;
  config.max_calls = 4;
  TopKJoinExecutor executor(&x, &y, KeyEquals(), config);
  SECO_ASSERT_OK_AND_ASSIGN(TopKJoinExecution exec, executor.Run());
  EXPECT_FALSE(exec.guaranteed);
  EXPECT_LE(exec.calls_x + exec.calls_y, 4);
  for (size_t i = 1; i < exec.results.size(); ++i) {
    EXPECT_LE(exec.results[i].combined, exec.results[i - 1].combined + 1e-12);
  }
  // Every emitted result still clears the final threshold (sound prefix).
  for (const JoinResultTuple& r : exec.results) {
    EXPECT_GE(r.combined, exec.final_threshold - 1e-9);
  }
}

TEST(TopKJoinTest, ExhaustedSourcesDrainEverything) {
  SECO_ASSERT_OK_AND_ASSIGN(BuiltService sx,
                            MakeKeyedSearchService("SX", 10, 5, 2));
  SECO_ASSERT_OK_AND_ASSIGN(BuiltService sy,
                            MakeKeyedSearchService("SY", 10, 5, 2));
  ChunkSource x(sx.interface, {});
  ChunkSource y(sy.interface, {});
  TopKJoinConfig config;
  config.k = 1000;
  config.max_calls = 100;
  TopKJoinExecutor executor(&x, &y, KeyEquals(), config);
  SECO_ASSERT_OK_AND_ASSIGN(TopKJoinExecution exec, executor.Run());
  EXPECT_TRUE(exec.guaranteed);
  EXPECT_EQ(exec.results.size(), 50u);  // 2 keys, 5x5 pairs each x 2
}

TEST(TopKJoinTest, BlockingCostVsApproximateMethods) {
  // The chapter's §4.1 motivation for *not* demanding top-k: producing
  // guaranteed results requires halting output. Measured here: the top-k
  // join needs at least as many calls as the extraction-optimal merge-scan
  // for the same k.
  SyntheticPairParams params;
  params.key_domain = 20;
  params.rows_x = 200;
  params.rows_y = 200;
  SECO_ASSERT_OK_AND_ASSIGN(SyntheticPair pair, MakeSyntheticPair(params));

  ChunkSource tx(pair.x.interface, {});
  ChunkSource ty(pair.y.interface, {});
  TopKJoinConfig topk_config;
  topk_config.k = 10;
  topk_config.max_calls = 300;
  TopKJoinExecutor topk(&tx, &ty, KeyEquals(), topk_config);
  SECO_ASSERT_OK_AND_ASSIGN(TopKJoinExecution guaranteed, topk.Run());

  ChunkSource ax(pair.x.interface, {});
  ChunkSource ay(pair.y.interface, {});
  ParallelJoinConfig approx_config;
  approx_config.k = 10;
  approx_config.max_calls = 300;
  ParallelJoinExecutor approx(&ax, &ay, KeyEquals(), approx_config);
  SECO_ASSERT_OK_AND_ASSIGN(JoinExecution fast, approx.Run());

  EXPECT_GE(guaranteed.calls_x + guaranteed.calls_y,
            fast.calls_x + fast.calls_y);
}

TEST(ClockTest, RespectsRatios) {
  SECO_ASSERT_OK_AND_ASSIGN(Clock clock, Clock::Create({3, 5}));
  for (int i = 0; i < 80; ++i) clock.NextService();
  // Out of 80 ticks: 30 to service 0, 50 to service 1.
  EXPECT_EQ(clock.call_counts()[0], 30);
  EXPECT_EQ(clock.call_counts()[1], 50);
}

TEST(ClockTest, SmoothInterleaving) {
  SECO_ASSERT_OK_AND_ASSIGN(Clock clock, Clock::Create({1, 1}));
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) order.push_back(clock.NextService());
  // Perfect alternation for 1:1.
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_NE(order[i], order[i - 1]);
  }
}

TEST(ClockTest, SuspendAndResume) {
  SECO_ASSERT_OK_AND_ASSIGN(Clock clock, Clock::Create({1, 1, 2}));
  clock.Suspend(1);
  for (int i = 0; i < 9; ++i) {
    EXPECT_NE(clock.NextService(), 1);
  }
  clock.Resume(1);
  bool seen1 = false;
  for (int i = 0; i < 4; ++i) {
    if (clock.NextService() == 1) seen1 = true;
  }
  EXPECT_TRUE(seen1);
  clock.Suspend(0);
  clock.Suspend(1);
  clock.Suspend(2);
  EXPECT_EQ(clock.NextService(), -1);
}

TEST(ClockTest, InvalidRatiosRejected) {
  EXPECT_FALSE(Clock::Create({}).ok());
  EXPECT_FALSE(Clock::Create({1, 0}).ok());
  EXPECT_FALSE(Clock::Create({-2}).ok());
}

TEST(ClockTest, ThreeWayRatios) {
  SECO_ASSERT_OK_AND_ASSIGN(Clock clock, Clock::Create({1, 2, 3}));
  for (int i = 0; i < 60; ++i) clock.NextService();
  EXPECT_EQ(clock.call_counts()[0], 10);
  EXPECT_EQ(clock.call_counts()[1], 20);
  EXPECT_EQ(clock.call_counts()[2], 30);
}

}  // namespace
}  // namespace seco
