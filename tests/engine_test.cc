#include <gtest/gtest.h>

#include "exec/engine.h"
#include "plan/annotate.h"
#include "plan/builder.h"
#include "query/parser.h"
#include "query/semantics.h"
#include "sim/fixtures.h"
#include "tests/test_util.h"

namespace seco {
namespace {

using testing_util::MakeKeyedSearchService;

/// Small two-service world: outer search service (no inputs) and keyed inner
/// service, joined on Key.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = std::make_shared<ServiceRegistry>();
    Result<BuiltService> outer =
        MakeKeyedSearchService("Outer", 20, 5, 4, ScoreDecay::kLinear);
    ASSERT_TRUE(outer.ok());
    outer_ = std::move(outer).value();
    Result<BuiltService> inner = MakeKeyedSearchService(
        "Inner", 40, 5, 4, ScoreDecay::kLinear, /*key_is_input=*/true);
    ASSERT_TRUE(inner.ok());
    inner_ = std::move(inner).value();
    ASSERT_TRUE(registry_->RegisterInterface(outer_.interface).ok());
    ASSERT_TRUE(registry_->RegisterInterface(inner_.interface).ok());
  }

  Result<BoundQuery> Bind(const std::string& text) {
    SECO_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(text));
    return BindQuery(parsed, *registry_);
  }

  std::shared_ptr<ServiceRegistry> registry_;
  BuiltService outer_;
  BuiltService inner_;
};

TEST_F(EngineTest, PipeJoinExecutes) {
  SECO_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      Bind("select Outer as O, Inner as I where O.Key = I.Key"));
  SECO_ASSERT_OK_AND_ASSIGN(QueryPlan plan, BuildDefaultPlan(q));
  SECO_ASSERT_OK(AnnotatePlan(&plan).status());
  ExecutionOptions options;
  options.k = 5;
  ExecutionEngine engine(options);
  SECO_ASSERT_OK_AND_ASSIGN(ExecutionResult result, engine.Execute(plan));
  ASSERT_EQ(result.combinations.size(), 5u);
  for (const Combination& combo : result.combinations) {
    EXPECT_EQ(combo.components[0].AtomicAt(0).AsInt(),
              combo.components[1].AtomicAt(0).AsInt());
  }
  EXPECT_GT(result.total_calls, 0);
  EXPECT_GT(result.elapsed_ms, 0.0);
  EXPECT_LE(result.elapsed_ms, result.total_latency_ms + 1e-9);
}

TEST_F(EngineTest, ResultsSortedByCombinedScore) {
  SECO_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      Bind("select Outer as O, Inner as I where O.Key = I.Key "
           "rank by (0.5, 0.5)"));
  SECO_ASSERT_OK_AND_ASSIGN(QueryPlan plan, BuildDefaultPlan(q));
  SECO_ASSERT_OK(AnnotatePlan(&plan).status());
  ExecutionOptions options;
  options.k = 20;
  ExecutionEngine engine(options);
  SECO_ASSERT_OK_AND_ASSIGN(ExecutionResult result, engine.Execute(plan));
  for (size_t i = 1; i < result.combinations.size(); ++i) {
    EXPECT_LE(result.combinations[i].combined_score,
              result.combinations[i - 1].combined_score + 1e-12);
  }
}

TEST_F(EngineTest, CallCacheDeduplicatesBindings) {
  // 20 outer tuples share only 4 distinct keys: the keyed inner service
  // must be called once per distinct key, not once per tuple.
  SECO_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      Bind("select Outer as O, Inner as I where O.Key = I.Key"));
  TopologySpec spec;
  spec.stages = {{0}, {1}};
  spec.atom_settings[0].fetch_factor = 4;  // all 20 outer tuples
  SECO_ASSERT_OK_AND_ASSIGN(QueryPlan plan, BuildPlan(q, spec));
  SECO_ASSERT_OK(AnnotatePlan(&plan).status());
  inner_.backend->ResetCallCount();
  ExecutionOptions options;
  options.k = 1000;
  options.truncate_to_k = false;
  ExecutionEngine engine(options);
  SECO_ASSERT_OK_AND_ASSIGN(ExecutionResult result, engine.Execute(plan));
  EXPECT_EQ(inner_.backend->call_count(), 4);  // one per distinct key
  EXPECT_GT(result.combinations.size(), 20u);
}

TEST_F(EngineTest, KeepPerInputLimitsPerBinding) {
  SECO_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      Bind("select Outer as O, Inner as I where O.Key = I.Key"));
  TopologySpec spec;
  spec.stages = {{0}, {1}};
  spec.atom_settings[1].keep_per_input = 1;
  SECO_ASSERT_OK_AND_ASSIGN(QueryPlan plan, BuildPlan(q, spec));
  SECO_ASSERT_OK(AnnotatePlan(&plan).status());
  ExecutionOptions options;
  options.k = 100;
  options.truncate_to_k = false;
  ExecutionEngine engine(options);
  SECO_ASSERT_OK_AND_ASSIGN(ExecutionResult result, engine.Execute(plan));
  // 5 outer tuples (chunk 5, F=1), each keeps exactly 1 inner partner.
  EXPECT_EQ(result.combinations.size(), 5u);
}

TEST_F(EngineTest, MissingInputBindingFails) {
  registry_ = std::make_shared<ServiceRegistry>();
  SECO_ASSERT_OK_AND_ASSIGN(
      BuiltService keyed,
      MakeKeyedSearchService("Keyed", 10, 5, 4, ScoreDecay::kLinear, true));
  SECO_ASSERT_OK(registry_->RegisterInterface(keyed.interface));
  SECO_ASSERT_OK_AND_ASSIGN(BoundQuery q,
                            Bind("select Keyed as K where K.Key = INPUT1"));
  SECO_ASSERT_OK_AND_ASSIGN(QueryPlan plan, BuildDefaultPlan(q));
  SECO_ASSERT_OK(AnnotatePlan(&plan).status());
  ExecutionOptions options;  // INPUT1 not bound
  ExecutionEngine engine(options);
  Result<ExecutionResult> result = engine.Execute(plan);
  EXPECT_FALSE(result.ok());
}

TEST_F(EngineTest, CallBudgetEnforced) {
  SECO_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      Bind("select Outer as O, Inner as I where O.Key = I.Key"));
  SECO_ASSERT_OK_AND_ASSIGN(QueryPlan plan, BuildDefaultPlan(q));
  SECO_ASSERT_OK(AnnotatePlan(&plan).status());
  ExecutionOptions options;
  options.max_calls = 1;
  ExecutionEngine engine(options);
  Result<ExecutionResult> result = engine.Execute(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(EngineTest, RetriesRecoverFromFlakyService) {
  // Wrap the inner service in a handler that fails the first two delivery
  // attempts of every request (identity-keyed, schedule-independent).
  FaultProfile profile;
  profile.transient_rate = 1.0;
  profile.transient_attempts = 2;
  profile.seed = 11;
  auto flaky = std::make_shared<FaultInjectingHandler>(inner_.backend, profile);
  auto iface = std::make_shared<ServiceInterface>(
      "FlakyInner", inner_.interface->schema_ptr(), inner_.interface->pattern(),
      ServiceKind::kSearch, inner_.interface->stats(), flaky);
  auto registry = std::make_shared<ServiceRegistry>();
  SECO_ASSERT_OK(registry->RegisterInterface(outer_.interface));
  SECO_ASSERT_OK(registry->RegisterInterface(iface));
  SECO_ASSERT_OK_AND_ASSIGN(ParsedQuery parsed,
                            ParseQuery("select Outer as O, FlakyInner as I "
                                       "where O.Key = I.Key"));
  SECO_ASSERT_OK_AND_ASSIGN(BoundQuery q, BindQuery(parsed, *registry));
  SECO_ASSERT_OK_AND_ASSIGN(QueryPlan plan, BuildDefaultPlan(q));
  SECO_ASSERT_OK(AnnotatePlan(&plan).status());

  ExecutionOptions no_retries;
  no_retries.k = 5;
  ExecutionEngine fragile(no_retries);
  EXPECT_FALSE(fragile.Execute(plan).ok());

  ExecutionOptions with_retries;
  with_retries.k = 5;
  with_retries.reliability.retry.max_retries = 2;
  ExecutionEngine robust(with_retries);
  SECO_ASSERT_OK_AND_ASSIGN(ExecutionResult result, robust.Execute(plan));
  EXPECT_EQ(result.combinations.size(), 5u);
}

TEST_F(EngineTest, NodeStatsArepopulated) {
  SECO_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      Bind("select Outer as O, Inner as I where O.Key = I.Key"));
  SECO_ASSERT_OK_AND_ASSIGN(QueryPlan plan, BuildDefaultPlan(q));
  SECO_ASSERT_OK(AnnotatePlan(&plan).status());
  ExecutionEngine engine(ExecutionOptions{});
  SECO_ASSERT_OK_AND_ASSIGN(ExecutionResult result, engine.Execute(plan));
  int service_nodes_with_calls = 0;
  for (const auto& [node_id, stats] : result.node_stats) {
    if (plan.node(node_id).kind == PlanNodeKind::kServiceCall) {
      EXPECT_GT(stats.calls, 0);
      EXPECT_GT(stats.latency_ms, 0.0);
      ++service_nodes_with_calls;
    }
  }
  EXPECT_EQ(service_nodes_with_calls, 2);
}

// ---- Engine vs. oracle equivalence (the key correctness property) -------

TEST_F(EngineTest, MatchesOracleOnJoinQuery) {
  SECO_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      Bind("select Outer as O, Inner as I where O.Key = I.Key and "
           "O.Relevance >= 0.5"));
  // Execute with enough fetches to materialize everything.
  TopologySpec spec;
  spec.stages = {{0}, {1}};
  spec.atom_settings[0].fetch_factor = 10;
  spec.atom_settings[1].fetch_factor = 10;
  SECO_ASSERT_OK_AND_ASSIGN(QueryPlan plan, BuildPlan(q, spec));
  SECO_ASSERT_OK(AnnotatePlan(&plan).status());
  ExecutionOptions options;
  options.truncate_to_k = false;
  options.k = 100000;
  ExecutionEngine engine(options);
  SECO_ASSERT_OK_AND_ASSIGN(ExecutionResult exec, engine.Execute(plan));

  // Oracle over the full materialized relations.
  OracleInput oracle_input;
  SECO_ASSERT_OK_AND_ASSIGN(ServiceResponse all_outer,
                            outer_.backend->FullScan({}));
  oracle_input.tuples.push_back(all_outer.tuples);
  oracle_input.scores.push_back(all_outer.scores);
  // Inner is keyed; enumerate raw rows (scores assigned per binding at call
  // time — for the oracle use score 0, weights only affect ordering).
  oracle_input.tuples.push_back(inner_.backend->rows());
  oracle_input.scores.emplace_back();
  SECO_ASSERT_OK_AND_ASSIGN(std::vector<Combination> oracle,
                            EvaluateOracle(q, oracle_input, {}));

  EXPECT_EQ(exec.combinations.size(), oracle.size());
  // Same multiset of (outer val, inner val) pairs.
  auto key_of = [](const Combination& c) {
    return c.components[0].AtomicAt(1).AsString() + "|" +
           c.components[1].AtomicAt(1).AsString();
  };
  std::multiset<std::string> exec_keys, oracle_keys;
  for (const Combination& c : exec.combinations) exec_keys.insert(key_of(c));
  for (const Combination& c : oracle) oracle_keys.insert(key_of(c));
  EXPECT_EQ(exec_keys, oracle_keys);
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  SECO_ASSERT_OK_AND_ASSIGN(
      BoundQuery q,
      Bind("select Outer as O, Inner as I where O.Key = I.Key"));
  SECO_ASSERT_OK_AND_ASSIGN(QueryPlan plan, BuildDefaultPlan(q));
  SECO_ASSERT_OK(AnnotatePlan(&plan).status());
  ExecutionOptions options;
  options.k = 10;
  ExecutionEngine engine(options);
  SECO_ASSERT_OK_AND_ASSIGN(ExecutionResult a, engine.Execute(plan));
  SECO_ASSERT_OK_AND_ASSIGN(ExecutionResult b, engine.Execute(plan));
  ASSERT_EQ(a.combinations.size(), b.combinations.size());
  for (size_t i = 0; i < a.combinations.size(); ++i) {
    EXPECT_TRUE(a.combinations[i].components[0] == b.combinations[i].components[0]);
    EXPECT_TRUE(a.combinations[i].components[1] == b.combinations[i].components[1]);
  }
  EXPECT_EQ(a.total_calls, b.total_calls);
}

}  // namespace
}  // namespace seco
