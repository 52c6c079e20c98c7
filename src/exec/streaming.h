#ifndef SECO_EXEC_STREAMING_H_
#define SECO_EXEC_STREAMING_H_

#include <memory>

#include "common/interrupt.h"
#include "common/result.h"
#include "data/column_chunk.h"
#include "exec/engine.h"
#include "exec/run.h"
#include "plan/plan.h"

namespace seco {

/// Options of a streaming execution: the common `RunOptions` plus what
/// only this engine reads.
struct StreamingOptions : RunOptions {
  /// How far ahead of the consumer the prefetcher may run per service node:
  /// up to `prefetch_depth` chunks beyond the one being consumed, and the
  /// first chunks of up to `prefetch_depth` upcoming distinct bindings.
  /// 0 (default) disables speculation, and with it the worker pool.
  int prefetch_depth = 0;
  /// Shared with realtime-mode services (`SimulatedService::set_interrupt`):
  /// triggered when the run ends so speculative fetches still sleeping on
  /// pool threads stop blocking teardown. Optional.
  std::shared_ptr<InterruptFlag> interrupt;
};

/// Result of a streaming run. Combinations appear in *arrival order* — the
/// §4.1 non-blocking dataflow: tuples reach the user while extraction is
/// still in progress, in an approximation of the ranking order (tiles are
/// explored best-first, but no global sort ever happens).
struct StreamingResult : RunResult {
  /// Simulated critical-path time: per-node ready/finish times over the
  /// plan DAG, so overlapping branches count once — the same quantity as
  /// the materializing engine's `elapsed_ms`, not its `total_latency_ms`.
  double total_latency_ms = 0.0;
  /// True if the sources were exhausted before k combinations appeared.
  bool exhausted = false;
  /// Speculative fetches issued / issued-but-never-consumed. Wasted fetches
  /// are *not* in `total_calls` — their responses stay in the cache, so the
  /// work is recoverable by later runs.
  int speculative_calls = 0;
  int speculative_wasted = 0;
  /// Columnar data-plane counters (docs/DATA_PLANE.md): join nodes whose
  /// single equality group ran as a key-scan kernel over canonicalized
  /// partial-row keys, vs. rows that took the scalar predicate.
  ColumnarStats columnar;
};

/// Pull-based (Volcano-style) interpreter for the same plans the
/// materializing `ExecutionEngine` runs. The crucial difference (§3.2: the
/// query interface "can be set so as to retrieve continuously tuples from
/// the execution engine, without waiting for the extraction of k tuples"):
///
///  - combinations stream out as soon as they are assembled, and
///  - upstream service calls happen lazily, so the run stops paying for
///    request-responses the moment the k-th combination is emitted —
///    fetch factors act as caps, not as prepaid work.
///
/// With `num_threads > 1` and `prefetch_depth > 0` a speculative prefetcher
/// overlaps the pull pipeline with upcoming fetches: while the consumer
/// digests chunk *i* of a node, chunk *i+1* (and the first chunks of the
/// next distinct bindings) fetch on a thread pool, and parallel-join nodes
/// prime all branches concurrently. Speculation changes only the real wall
/// clock — emitted combinations, charged calls, traces, and the simulated
/// clock stay bit-identical to the sequential run (docs/CONCURRENCY.md).
/// `total_latency_ms` is the overlap-aware critical path through the plan
/// DAG, matching the materializing engine's clock model.
///
/// `bench_streaming` quantifies the calls saved versus the materializing
/// engine at equal k, and the wall-clock speedup of prefetching under
/// realtime-mode services.
class StreamingEngine {
 public:
  explicit StreamingEngine(StreamingOptions options)
      : options_(std::move(options)) {}

  Result<StreamingResult> Execute(const QueryPlan& plan);

 private:
  /// One streaming round of `RunWithRepair`; `cache_override` and
  /// `force_degrade` are as in `RunScaffold`.
  Result<StreamingResult> ExecuteOnce(const QueryPlan& plan,
                                      ServiceCallCache* cache_override,
                                      bool force_degrade);

  StreamingOptions options_;
};

/// Either engine's result, for the surfaces that carry both kinds (served
/// responses, cached answers, the wire): exactly one of `execution` /
/// `streaming` is populated, per `streamed`. Read the common fields through
/// `run()`.
struct RunPayload {
  bool streamed = false;
  ExecutionResult execution;
  StreamingResult streaming;

  const RunResult& run() const {
    if (streamed) return streaming;
    return execution;
  }
  RunResult& run() {
    if (streamed) return streaming;
    return execution;
  }
  /// Simulated critical path of the run: the materializing `elapsed_ms`,
  /// or the streaming `total_latency_ms`.
  double critical_path_ms() const {
    return streamed ? streaming.total_latency_ms : execution.elapsed_ms;
  }
};

}  // namespace seco

#endif  // SECO_EXEC_STREAMING_H_
