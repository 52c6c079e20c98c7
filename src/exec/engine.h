#ifndef SECO_EXEC_ENGINE_H_
#define SECO_EXEC_ENGINE_H_

#include "common/result.h"
#include "exec/run.h"
#include "plan/plan.h"

namespace seco {

/// Options of one materializing execution: the common `RunOptions` plus
/// what only this engine reads.
struct ExecutionOptions : RunOptions {
  /// When false, all produced combinations are returned (not just k).
  bool truncate_to_k = true;
};

/// The outcome of executing a fully instantiated plan.
struct ExecutionResult : RunResult {
  /// Simulated wall-clock: per-path max of node latencies (parallel
  /// branches overlap; calls within one node are sequential).
  double elapsed_ms = 0.0;
  /// Sum of every call's latency (the fully sequential time).
  double total_latency_ms = 0.0;
  int total_combinations_produced = 0;
};

/// Dataflow interpreter for query plans (§3.2): walks the DAG in
/// topological order, materializing each node's output stream.
///
///  - service nodes bind inputs from constants / INPUT variables / piped
///    upstream values, then fetch `fetch_factor` chunks per distinct
///    binding through a `CallScheduler` (bindings run concurrently under
///    `num_threads`, against the shared `ServiceCallCache`), verify
///    pipe-join groups, and honor `keep_per_input`; outcomes are assembled
///    by task index, so results and stats are independent of thread
///    interleaving;
///  - selection nodes re-evaluate *all* selections of the touched atoms
///    jointly, enforcing the §3.1 single-instance repeating-group rule, plus
///    residual join groups;
///  - parallel-join nodes combine branch streams per upstream tuple; with a
///    triangular completion strategy, candidate pairs beyond the
///    anti-diagonal of the fetched chunk grid are skipped (§4.4.2);
///  - the output node scores combinations with the query's ranking weights.
///
/// Execution is stage-materialized: chunk-level interleaving *within* a
/// binary join is the province of `ParallelJoinExecutor`; the engine
/// reproduces its effect through fetch factors and the completion filter.
class ExecutionEngine {
 public:
  explicit ExecutionEngine(ExecutionOptions options)
      : options_(std::move(options)) {}

  Result<ExecutionResult> Execute(const QueryPlan& plan);

 private:
  /// One plan execution round of `RunWithRepair`; `cache_override` and
  /// `force_degrade` are as in `RunScaffold`.
  Result<ExecutionResult> ExecuteOnce(const QueryPlan& plan,
                                      ServiceCallCache* cache_override,
                                      bool force_degrade);

  ExecutionOptions options_;
};

}  // namespace seco

#endif  // SECO_EXEC_ENGINE_H_
