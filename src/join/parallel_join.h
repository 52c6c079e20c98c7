#ifndef SECO_JOIN_PARALLEL_JOIN_H_
#define SECO_JOIN_PARALLEL_JOIN_H_

#include <functional>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "data/column_chunk.h"
#include "data/kernels.h"
#include "join/chunk_source.h"
#include "join/clock.h"
#include "join/search_space.h"
#include "plan/plan.h"

namespace seco {

/// Predicate deciding whether a pair (x, y) joins.
using JoinPredicate = std::function<Result<bool>(const Tuple&, const Tuple&)>;

/// Configuration of a binary parallel join run (§4).
struct ParallelJoinConfig {
  JoinStrategy strategy;
  /// Stop once this many result tuples have been produced (k).
  int k = 10;
  /// Safety budget on total service calls.
  int max_calls = 200;
  /// Ranking-function weights combining the two scores.
  double weight_x = 0.5;
  double weight_y = 0.5;
  /// Optional worker pool (not owned). When set, the priming fetches of
  /// the two sides — always the first two calls of any strategy, since no
  /// tile exists before both sides hold a chunk — overlap on the real wall
  /// clock. Fetch *decisions* stay sequential, so traces, call counts and
  /// results are identical with and without a pool.
  ThreadPool* pool = nullptr;
  /// Opts the executor into the columnar data plane. REQUIRES the predicate
  /// to be equality of exactly these two attributes: tiles whose decoded key
  /// columns are kernel-comparable skip the per-pair predicate and run a
  /// SIMD merge-scan instead; every other tile (nulls, repeating groups,
  /// mixed types, dictionary overflow) still calls the predicate, so results
  /// are bit-identical with this set or not.
  std::optional<ColumnJoinSpec> columns;
};

/// What happened during a join run, for benches and property tests.
enum class JoinEventKind { kFetchX, kFetchY, kProcessTile };

struct JoinEvent {
  JoinEventKind kind;
  int chunk = -1;  // for fetches
  Tile tile;       // for tile processing
};

/// One joined pair with provenance.
struct JoinResultTuple {
  Tuple x;
  Tuple y;
  double score_x = 0.0;
  double score_y = 0.0;
  double combined = 0.0;
  Tile tile;
};

/// Full trace of a join execution.
struct JoinExecution {
  std::vector<JoinResultTuple> results;
  std::vector<JoinEvent> events;
  std::vector<Tile> tile_order;
  int calls_x = 0;
  int calls_y = 0;
  /// Simulated elapsed time if the two services are called one at a time.
  double latency_sequential_ms = 0.0;
  /// Simulated elapsed time with the two services called concurrently
  /// (parallel join): max of the per-service latency sums.
  double latency_parallel_ms = 0.0;
  bool exhausted_x = false;
  bool exhausted_y = false;
  /// Columnar data-plane counters (all zero when `config.columns` unset).
  ColumnarStats columnar;
  /// Final search-space state (chunk representative scores etc.).
  SearchSpace space;
};

/// Executes a binary join of two ranked chunked sources under an
/// invocation strategy (nested-loop / merge-scan with inter-service ratio,
/// §4.3) and a completion strategy (rectangular / triangular, §4.4).
///
/// Invocation decides which service to call next; completion decides which
/// available tiles to process. Tiles are processed in decreasing
/// representative-score order among those admitted, making both completions
/// locally extraction-optimal. Results are emitted tile by tile
/// (non-blocking dataflow) until k results, exhaustion, or budget.
class ParallelJoinExecutor {
 public:
  ParallelJoinExecutor(ChunkSource* source_x, ChunkSource* source_y,
                       JoinPredicate predicate, ParallelJoinConfig config)
      : x_(source_x), y_(source_y), predicate_(std::move(predicate)),
        config_(config) {}

  Result<JoinExecution> Run();

 private:
  /// Which side to fetch next; -1 = X, +1 = Y, 0 = none (stop fetching).
  /// Merge-scan paces the two services with a Clock at the configured
  /// inter-service ratio (§4.3.2).
  int NextFetchSide();
  /// Tiles admitted by the completion strategy right now, best first.
  std::vector<Tile> AdmittedTiles() const;
  Result<int> ProcessTile(const Tile& tile, JoinExecution* exec);

  ChunkSource* x_;
  ChunkSource* y_;
  JoinPredicate predicate_;
  ParallelJoinConfig config_;
  SearchSpace space_;
  /// Shared join-key dictionary: both sides intern into it, so equal codes
  /// mean equal strings across the two sources.
  KeyDictionary dict_;
  ColumnarStats stats_;
  /// Kernel scratch, reused across tiles to stay allocation-free.
  std::vector<simd::RowPair> pairs_;
  std::vector<double> scratch_sx_, scratch_sy_, scratch_comb_;
  /// Call-rate regulator for merge-scan (created on first use).
  std::optional<Clock> clock_;
  /// Triangular threshold slack: admits further diagonals when the base
  /// triangle is exhausted but more results are needed (§4.4.2: "constant
  /// values progressively increased").
  double slack_ = 0.0;
};

}  // namespace seco

#endif  // SECO_JOIN_PARALLEL_JOIN_H_
