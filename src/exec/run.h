#ifndef SECO_EXEC_RUN_H_
#define SECO_EXEC_RUN_H_

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/interrupt.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "data/predicate_fast.h"
#include "exec/call_cache.h"
#include "exec/call_scheduler.h"
#include "plan/plan.h"
#include "query/semantics.h"
#include "reliability/circuit_breaker.h"
#include "reliability/policy.h"
#include "repair/repair.h"
#include "service/tuple.h"

namespace seco {

/// Options of one plan run, common to both engines (§3.2: one plan model;
/// continuous retrieval is a setting of its query interface, not a second
/// system). `ExecutionOptions` and `StreamingOptions` add only what their
/// engine alone reads.
struct RunOptions {
  /// Number of answer combinations to return; the streaming engine stops
  /// pulling once it has emitted this many.
  int k = 10;
  /// Values for the query's INPUT variables.
  std::map<std::string, Value> input_bindings;
  /// Safety budget on service calls. The streaming engine counts *charged*
  /// calls — the calls the sequential run would make; its speculative
  /// fetches reserve budget while in flight (charged + outstanding never
  /// exceeds this) and are charged only when consumed. Under a reliability
  /// policy every delivery *attempt* (first try, retry, hedge, speculative)
  /// claims a slot, so a retry storm can never overdraw the budget.
  int max_calls = 10000;
  /// Worker threads: the materializing engine fetches the distinct input
  /// bindings of each service node concurrently; the streaming engine runs
  /// its speculative prefetcher on them (only with `prefetch_depth > 0`).
  /// Outcomes are collected in a fixed order, so any value yields
  /// bit-identical answers, charged calls and traces; 1 (default) is the
  /// fully sequential run.
  int num_threads = 1;
  /// Service-call cache. nullptr (default) = a fresh private cache per run;
  /// point at `ServiceCallCache::Process()` (or any shared instance) to let
  /// repeated queries across sessions hit warm entries — including entries
  /// a speculative fetch paid for in an earlier run. Not owned.
  ServiceCallCache* cache = nullptr;
  /// When true, every charged call is recorded in `RunResult::trace`.
  bool collect_trace = false;
  /// Retry / deadline / breaker / hedging / degradation policy (see
  /// docs/RELIABILITY.md). The default policy is inert and preserves the
  /// historical behavior bit-for-bit. The streaming engine applies
  /// `query_deadline_ms` to the cumulative charged latency plus reliability
  /// overhead (its deterministic mid-run clock).
  ReliabilityPolicy reliability;
  /// Plan-repair policy: what to do when a service is permanently lost
  /// (docs/RELIABILITY.md, "Failover & plan repair"). The failover policies
  /// need `repair.registry`; all repair policies force degradation on for
  /// the individual rounds so losses are observed deterministically, and
  /// the rounds share one call cache so an abandoned round's chunks replay
  /// as free hits after replanning.
  RepairOptions repair;
  /// Externally-imposed degradation level from the serving layer's ladder
  /// (docs/SERVER.md). 0 (default) = full quality. Level >= 1 drops
  /// streaming speculation (`prefetch_depth` is treated as 0); levels 1-2
  /// otherwise (k / budget cuts) are applied by the caller before the run;
  /// level >= 3 forces `reliability.degrade` on, so permanent losses yield
  /// partial answers instead of failing the query. Levels only remove work.
  /// Echoed into `RunResult::degradation_level`.
  int degradation_level = 0;
  /// Cross-query circuit-breaker registry (e.g. a `QueryServer`'s). When
  /// null (default) each run gets a private registry. Sharing lets breaker
  /// state persist across queries, so one query's failures shield the next,
  /// and gives the serving layer a live per-interface health feed. Must
  /// outlive the run. Not owned.
  CircuitBreakerRegistry* shared_breakers = nullptr;
  /// Cooperative cancellation token (docs/SERVER.md, "Cancellation"),
  /// polled at node, chunk and combination boundaries; a fired token aborts
  /// the run with kCancelled, pool jobs not yet started are skipped and
  /// in-flight speculation is drained before teardown, so a cancelled run
  /// leaks nothing. null = never cancellable.
  std::shared_ptr<CancelToken> cancel;
};

/// One recorded service request-response (when tracing is enabled).
struct CallEvent {
  int node = -1;            ///< plan node that issued the call
  std::string service;      ///< interface name
  std::string binding_key;  ///< serialized input values
  int chunk_index = 0;
  double latency_ms = 0.0;
};

/// Per-node runtime counters.
struct NodeRuntimeStats {
  int calls = 0;
  double latency_ms = 0.0;   ///< sum of this node's call latencies
  int tuples_out = 0;
  double finished_at_ms = 0.0;  ///< simulated completion time of the node
  int cache_hits = 0;  ///< request-responses served from the call cache
};

/// The outcome of one plan run, common to both engines.
/// `ExecutionResult` and `StreamingResult` add their engine's own fields —
/// including each one's `total_latency_ms`, which means different things.
struct RunResult {
  /// Materializing: decreasing combined score (approximate global ranking:
  /// plans without top-k join methods do not guarantee the true top-k).
  /// Streaming: arrival order.
  std::vector<Combination> combinations;
  /// Calls charged against `max_calls`. Streaming: demand misses plus
  /// consumed speculative fetches. Identical at any thread count / prefetch
  /// depth.
  int total_calls = 0;
  /// Request-responses served from the call cache / issued to services.
  /// Consumed speculative fetches count as misses (they are charged), never
  /// as hits, so these totals match the sequential run.
  int cache_hits = 0;
  int cache_misses = 0;
  /// Measured real wall-clock duration of the run, in milliseconds —
  /// distinct from the *simulated* clock (see docs/CONCURRENCY.md).
  double wall_clock_ms = 0.0;
  std::map<int, NodeRuntimeStats> node_stats;
  /// Chronological charged-call log; empty unless
  /// `RunOptions::collect_trace`. Identical at any thread count.
  std::vector<CallEvent> trace;
  /// Retry / hedge / breaker / deadline telemetry (zero when the policy is
  /// inert).
  ReliabilityStats reliability;
  /// Plan nodes that lost data to permanent service failures; empty unless
  /// `ReliabilityPolicy::degrade` allowed a partial answer.
  std::vector<DegradedStatus> degraded;
  /// Interfaces whose circuit breaker ended the run open.
  std::vector<std::string> open_breakers;
  /// Replanning telemetry; inert (`!any()`) unless a repair policy was set
  /// and a service was actually lost.
  RepairStats repair;
  /// False when any node degraded: `combinations` may then contain partial
  /// combinations (see `Combination::missing_atoms`).
  bool complete = true;
  /// The `RunOptions::degradation_level` this run was executed under,
  /// echoed so multi-query ledgers can attribute quality loss per query.
  int degradation_level = 0;
};

/// Setup and teardown of one run round, shared by both engines: the
/// effective reliability policy, the attempt-level `CallBudget`, the
/// telemetry ledger, the circuit breakers, the lost-service collector, the
/// call cache, and the worker pool with its `CallScheduler`. Handlers it
/// decorates point into it, so it must outlive every fetch of the round;
/// its pool is joined first on destruction.
class RunScaffold {
 public:
  /// `cache_override` (when non-null) takes precedence over
  /// `options.cache` — the repair loop threads one cache through all
  /// rounds. `force_degrade` turns degradation on regardless of the
  /// reliability policy, so a lost service surfaces as `DegradedStatus`
  /// instead of aborting the round. A pool is created when `pool_threads`
  /// exceeds 1. `interrupt` (optional) is triggered when a hedge race is
  /// decided, cutting the loser's realtime sleep short.
  RunScaffold(const RunOptions& options, ServiceCallCache* cache_override,
              bool force_degrade, int pool_threads,
              std::shared_ptr<InterruptFlag> interrupt = nullptr);

  /// The policy in force: `options.reliability`, with `degrade` forced on
  /// by `force_degrade` or a degradation level >= 3.
  const ReliabilityPolicy& policy() const { return policy_; }
  /// `policy().enabled()`: when false, handlers stay undecorated and the
  /// engines keep their historical charged-call guards, bit-for-bit.
  bool resilient() const { return resilient_; }
  ServiceCallCache* cache() const { return cache_; }
  CallScheduler& scheduler() { return scheduler_; }

  /// `iface`'s handler, wrapped in a `ResilientHandler` (retry / deadline /
  /// breaker / hedging against this round's budget and ledger) when the
  /// policy is live.
  std::shared_ptr<ServiceCallHandler> Handler(const ServiceInterface& iface);

  /// Fills the fields every result carries: reliability snapshot (with the
  /// round's consumed `overhead_ms`) and open breakers when resilient,
  /// `complete` from `degraded`, the degradation level and the wall clock.
  /// Call last: the wall clock stops here.
  void Finish(double overhead_ms, RunResult* result) const;

 private:
  const RunOptions& options_;
  std::chrono::steady_clock::time_point start_;
  ReliabilityPolicy policy_;
  bool resilient_;
  CallBudget budget_;
  ReliabilityLedger ledger_;
  CircuitBreakerRegistry local_breakers_;
  CircuitBreakerRegistry& breakers_;
  ServiceLostCollector lost_;
  ServiceCallCache local_cache_;
  ServiceCallCache* cache_;
  std::shared_ptr<InterruptFlag> interrupt_;
  /// Declared after everything its jobs may touch, so it joins first.
  std::unique_ptr<ThreadPool> pool_;
  CallScheduler scheduler_;
};

/// The distinct input bindings a service node derives from one row
/// (per-atom optional tuples): constants / INPUT variables from the node's
/// selections, then values piped from upstream tuples, cross-producted per
/// input path in first-appearance order. Returns an *empty* vector — no
/// bindings, not an error — when an input can only pipe from an atom in
/// `degraded_atoms`: the caller then cascades the degradation.
Result<std::vector<std::vector<Value>>> NodeInputBindings(
    const BoundQuery& query, const PlanNode& node,
    const std::vector<std::optional<Tuple>>& tuples,
    const std::map<std::string, Value>& input_bindings,
    const std::set<int>& degraded_atoms);

/// Join-group check with the allocation-free fast path for all-atomic
/// groups (exactly equivalent to the oracle; see data/predicate_fast.h).
inline Result<bool> HoldsJoinGroup(const BoundQuery& query,
                                   const BoundJoinGroup& group, const Tuple& a,
                                   const Tuple& b) {
  if (JoinGroupAllAtomic(group)) return EvalAtomicJoinGroup(group, a, b);
  return SatisfiesJoinGroup(query, group, a, b);
}

/// True when every pipe-join group in `groups` (indices into `query.joins`)
/// holds on a freshly extended row; groups with an endpoint not bound yet
/// are skipped.
Result<bool> PipeGroupsHold(const BoundQuery& query,
                            const std::vector<int>& groups,
                            const std::vector<std::optional<Tuple>>& tuples);

/// True when every join group in `groups` holds on a possibly partial row.
/// A group with an endpoint missing because its service degraded (the atom
/// is in `degraded_atoms`) cannot be verified and is skipped; an endpoint
/// missing for any other reason fails the row.
Result<bool> JoinGroupsHold(const BoundQuery& query,
                            const std::vector<int>& groups,
                            const std::vector<std::optional<Tuple>>& tuples,
                            const std::set<int>& degraded_atoms);

/// The distinct atoms whose selections selection node `node` re-checks.
std::vector<int> SelectionAtoms(const BoundQuery& query, const PlanNode& node);

/// True when a row passes selection node `node`: all selections of each of
/// `atoms` (from `SelectionAtoms`) hold jointly — the §3.1 single-instance
/// rule — and so do the node's residual join groups. An atom missing
/// because its service degraded keeps the partial row alive unchecked.
Result<bool> SelectionHolds(const BoundQuery& query, const PlanNode& node,
                            const std::vector<int>& atoms,
                            const std::vector<std::optional<Tuple>>& tuples,
                            const std::map<std::string, Value>& input_bindings,
                            const std::set<int>& degraded_atoms);

/// Builds the output combination of one assembled row, scored with the
/// query's ranking `weights`. A missing atom is allowed only when its
/// service degraded (it is in `degraded_atoms`): it becomes an empty
/// component listed in `missing_atoms`. Returns false, leaving `combo`
/// unspecified, when any other atom is missing.
bool AssembleCombination(const std::vector<std::optional<Tuple>>& tuples,
                         const std::vector<double>& scores,
                         const std::vector<double>& weights,
                         const std::set<int>& degraded_atoms,
                         Combination* combo);

}  // namespace seco

#endif  // SECO_EXEC_RUN_H_
