#ifndef SECO_SERVER_SERVER_H_
#define SECO_SERVER_SERVER_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/answer_cache.h"
#include "cache/plan_memo.h"
#include "cache/signature.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "exec/call_cache.h"
#include "exec/streaming.h"
#include "optimizer/optimizer.h"
#include "query/bound_query.h"
#include "reliability/circuit_breaker.h"
#include "server/admission.h"
#include "server/degradation.h"
#include "server/watchdog.h"
#include "service/registry.h"

namespace seco {

/// One query submission to a `QueryServer`.
struct QueryRequest {
  /// SeCoQL text; parsed and bound per execution. Ignored when `bound` is
  /// set (a pre-prepared query skips parse + bind on the serving path).
  std::string query_text;
  std::shared_ptr<const BoundQuery> bound;

  PriorityClass priority = PriorityClass::kInteractive;
  /// Queue-time deadline: if the query is still waiting in the admission
  /// queue after this many ms, it resolves `kDeadlineExpired` without
  /// running. 0 = the class default (`AdmissionClassConfig`).
  double deadline_ms = 0.0;

  /// Requested answer count and charged-call budget. The degradation ladder
  /// may cut both at admission (level >= 2); the response records the level.
  int k = 10;
  int max_calls = 10000;
  std::map<std::string, Value> input_bindings;

  /// false = materializing `ExecutionEngine`; true = `StreamingEngine`.
  bool streaming = false;

  /// Per-request reliability / repair overrides. When the policy is inert
  /// (`!enabled()`) the server's defaults apply; when the repair policy is
  /// `kOff` the server's default repair applies. The registry/optimizer
  /// fields of a request repair policy are filled in by the server.
  ReliabilityPolicy reliability;
  RepairOptions repair;

  /// Trace collection for this query (rides into the engine options).
  bool collect_trace = false;
};

/// Terminal outcome of one served query — every submission gets exactly one.
enum class ServedOutcome {
  /// Ran at level 0 and produced a complete answer.
  kCompleted = 0,
  /// Ran under a degradation level > 0, or produced a partial answer.
  kDegraded = 1,
  /// Shed at admission (`Status::kRejected`): the class queue was full. The
  /// query consumed no execution resources at all.
  kShed = 2,
  /// Overran its queue-time deadline before a runner slot freed up, or the
  /// execution itself overran the reliability policy's query deadline.
  kDeadlineExpired = 3,
  /// The execution itself failed (parse/bind/optimize error, exhausted call
  /// budget without `degrade`, ...).
  kFailed = 4,
  /// The caller (or the stuck-query watchdog) cancelled the query —
  /// purged from the admission queue, or signalled mid-run and unwound
  /// through the kCancelled path. Never retried, never degraded, never
  /// cached.
  kCancelled = 5,
};

const char* ServedOutcomeToString(ServedOutcome outcome);

/// Everything the server says about one submission. The engine result
/// (`RunPayload`) is populated for kCompleted/kDegraded, per `streamed`.
struct QueryResponse : RunPayload {
  ServedOutcome outcome = ServedOutcome::kFailed;
  /// Ladder level the query was admitted under (0 = full quality).
  int degradation_level = 0;
  /// OK for kCompleted/kDegraded; kRejected for kShed (with a retry-after
  /// hint in the message); kDeadlineExceeded for kDeadlineExpired; the
  /// execution error for kFailed.
  Status status = Status::OK();
  /// For kShed: how long the client should wait before resubmitting, ms.
  double retry_after_ms = 0.0;
  /// Wall-clock ms spent in the admission queue (0 for shed queries).
  double queue_wait_ms = 0.0;
  PriorityClass priority = PriorityClass::kInteractive;

  /// True when this answer came out of the whole-answer cache (or from a
  /// concurrent identical execution via single-flight) instead of a fresh
  /// execution. Cached answers are byte-identical to fresh ones.
  bool answer_cache_hit = false;
};

/// Server construction knobs.
struct ServerOptions {
  /// Admission window + per-class queues (docs/SERVER.md).
  AdmissionConfig admission;
  /// Runner threads executing admitted queries. 0 = `admission.max_in_flight`
  /// (so `ThreadPool::queue_depth()` > 0 is a genuine backpressure signal).
  int runner_threads = 0;
  /// Degradation ladder thresholds/weights; `ladder.enabled = false` yields
  /// bit-identical answers to standalone runs at any load.
  DegradationLadderConfig ladder;

  /// Server-wide default reliability / repair policy for requests that do
  /// not carry their own.
  ReliabilityPolicy reliability;
  RepairOptions repair;

  /// Engine parallelism applied to every query: intra-query fan-out threads
  /// and streaming prefetch depth (the ladder zeroes the latter at level
  /// >= 1).
  int num_threads = 1;
  int prefetch_depth = 0;

  /// Byte budget of the server-owned shared `ServiceCallCache`.
  size_t cache_byte_budget = ServiceCallCache::kDefaultByteBudget;

  /// Whole-answer reuse + optimizer plan memoization (docs/CACHING.md).
  /// Off by default: the serving path is then bit-identical to the pre-cache
  /// server. When on, a warm hit resolves at Submit without consuming an
  /// admission window slot, and N concurrent identical cold queries execute
  /// once (single-flight).
  bool answer_cache = false;
  /// Byte budget of the whole-answer memo table.
  size_t answer_cache_bytes = 8 << 20;
  /// Byte budget of the optimizer plan/bound/feasibility memo; 0 disables
  /// the plan memo while keeping the answer cache.
  size_t plan_memo_bytes = 4 << 20;

  /// Base retry-after hint attached to shed responses; scaled by the
  /// instantaneous backlog fraction.
  double retry_after_ms = 50.0;

  /// Stuck-query watchdog (docs/SERVER.md, "Watchdog"): running queries
  /// whose progress heartbeat stalls past `watchdog.stall_grace_ms` are
  /// force-cancelled. Disabled by default.
  WatchdogOptions watchdog;
};

/// Per-class serving ledger.
struct ClassServingStats {
  int64_t submitted = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  int64_t completed = 0;
  int64_t degraded = 0;
  int64_t failed = 0;
  /// Cancelled by the client (queued purge or mid-run signal) or reaped by
  /// the watchdog.
  int64_t cancelled = 0;
  /// Of the completed/degraded, how many were served from the answer cache
  /// (warm probe at Submit, or a single-flight follower).
  int64_t answer_cache_hits = 0;
  /// Admissions per ladder level 0..3 (shed/expired queries excluded).
  std::array<int64_t, DegradationLadder::kMaxLevel + 1> degradation_levels{};
  int peak_queue_depth = 0;
  /// Per-query samples for percentile reporting.
  std::vector<double> queue_wait_ms;
  std::vector<double> sim_elapsed_ms;

  int64_t finished() const {
    return shed + expired + completed + degraded + failed + cancelled;
  }
};

struct ServerStats {
  ClassServingStats interactive;
  ClassServingStats batch;
  int peak_in_flight = 0;

  const ClassServingStats& of(PriorityClass priority) const {
    return priority == PriorityClass::kInteractive ? interactive : batch;
  }
  ClassServingStats& of(PriorityClass priority) {
    return priority == PriorityClass::kInteractive ? interactive : batch;
  }
};

/// p in [0, 100] percentile of `samples` (nearest-rank); 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// Overload-safe serving front end over the execution stack (docs/SERVER.md):
/// concurrent query submissions run on a shared runner `ThreadPool`, a
/// shared `ServiceCallCache`, and a shared cross-query
/// `CircuitBreakerRegistry`, guarded by three mechanisms —
///
///  1. *admission control*: a bounded in-flight window plus bounded
///     per-class priority queues; arrivals beyond them are shed immediately
///     with `Status::kRejected` and a retry-after hint, touching no
///     execution state;
///  2. *graceful degradation*: a pressure score over the shared facilities
///     maps each admission onto a ladder level that progressively drops
///     speculation, cuts k and call budgets, and finally prefers partial
///     answers over failures — newly admitted queries degrade, running ones
///     are never touched;
///  3. *fair scheduling*: queues drain in smooth weighted round-robin order
///     (the §4.3.2 `Clock`, reused across priority classes), so interactive
///     traffic stays fast under batch floods without starving batch.
///
/// Every submission resolves to exactly one `QueryResponse` future with an
/// explicit `ServedOutcome`. With the ladder disabled and load below
/// capacity, per-query answers are bit-identical to standalone engine runs.
class QueryServer {
 public:
  QueryServer(std::shared_ptr<ServiceRegistry> registry,
              ServerOptions options = {},
              OptimizerOptions optimizer_options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Submits one query. Always returns a future that will hold exactly one
  /// terminal `QueryResponse`; a shed query's future is ready immediately.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// A submission plus its cancellation handle.
  struct SubmittedQuery {
    /// Pass to `Cancel()`. 0 when the future resolved at submission time
    /// (shed, draining, warm cache hit) — there is nothing left to cancel.
    uint64_t id = 0;
    std::future<QueryResponse> future;
  };

  /// Like `Submit`, but also returns the query's server-side id so the
  /// caller (shell, wire front end) can cancel it later.
  SubmittedQuery SubmitWithId(QueryRequest request);

  /// Cancels one accepted query. A still-queued query is purged from the
  /// admission queue (it never claimed a window slot) and resolves
  /// immediately with `ServedOutcome::kCancelled`; a running one has its
  /// token fired and unwinds cooperatively to the same outcome. Returns
  /// false when the id is unknown or already resolved. Safe to race with
  /// completion: the query still resolves to exactly one outcome.
  bool Cancel(uint64_t id, std::string reason = "cancelled by client");

  /// Blocks until every accepted query has resolved.
  void Drain();

  /// Begins graceful shutdown: every *subsequent* Submit is shed
  /// immediately with a "server draining" rejection (counted in the shed
  /// ledger, with the usual retry-after hint), while already-accepted
  /// queries run to completion. Follow with `Drain()` to wait them out.
  /// Irreversible for the server's lifetime; used by the network front
  /// end's SIGINT/SIGTERM path (docs/NETWORK.md).
  void BeginDrain() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Snapshot of the serving ledger.
  ServerStats stats() const;
  /// Snapshot of the stuck-query watchdog counters.
  WatchdogStats watchdog_stats() const { return watchdog_.stats(); }
  /// Snapshot of the current pressure signals (as the next admission would
  /// see them) — surfaced by the shell's serving report.
  PressureSignals pressure() const;

  ServiceCallCache& cache() { return cache_; }
  CircuitBreakerRegistry& breakers() { return breakers_; }
  const ServerOptions& options() const { return options_; }

  /// The whole-answer cache / plan memo; null when `options.answer_cache`
  /// is off.
  const AnswerCache* answer_cache() const { return answer_cache_.get(); }
  const PlanMemo* plan_memo() const { return plan_memo_.get(); }

 private:
  struct Pending {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    int degradation_level = 0;
    /// Answer-cache signature computed at Submit (absent when caching is
    /// off, the request is untraceable/uncacheable, or parse/bind failed).
    std::optional<Signature> answer_sig;
    /// Per-query cancellation token, created at acceptance and threaded
    /// into the engines at dispatch.
    std::shared_ptr<CancelToken> cancel;
    /// Arrival clock (server epoch ms) — the queue-wait base when the
    /// query is purged by Cancel before dispatch.
    double enqueued_ms = 0.0;
  };
  /// A ticket popped for dispatch, joined with its payload.
  struct Dispatch {
    QueueTicket ticket;
    std::unique_ptr<Pending> pending;
  };

  double NowMs() const;
  PressureSignals PressureLocked() const;
  /// Pops every dispatchable ticket. Runnable ones are handed to the pool
  /// and expired ones resolved — both *after* `mu_` is released (the pool's
  /// post-shutdown inline path and promise continuations must not run under
  /// the server mutex).
  std::vector<Dispatch> CollectDispatchesLocked();
  void LaunchDispatches(std::vector<Dispatch> dispatches);
  /// Runner-pool entry: executes one admitted query end to end.
  void RunOne(QueueTicket ticket, std::shared_ptr<Pending> pending);
  /// The execution itself (no server lock held): answer-cache probe +
  /// single-flight around ExecuteUncached when `answer_sig` is set.
  QueryResponse ExecuteRequest(const QueryRequest& request, int level,
                               const std::optional<Signature>& answer_sig,
                               const std::shared_ptr<CancelToken>& cancel);
  /// One fresh end-to-end execution (parse/bind, optimize, run).
  QueryResponse ExecuteUncached(const QueryRequest& request, int level,
                                const std::shared_ptr<CancelToken>& cancel);
  /// Builds the level-independent part of the request's answer key
  /// (canonical query signature + policy fingerprints); nullopt when the
  /// request cannot be cached (trace collection, parse/bind failure).
  std::optional<AnswerKey> BuildAnswerKeyBase(const QueryRequest& request) const;
  /// Materializes a response from a cached answer.
  QueryResponse ResponseFromCached(const CachedAnswer& answer, int level) const;
  /// Invalidates the answer cache + plan memo when the registry's catalog
  /// generation moved since the last check (e.g. a replica was registered).
  void RefreshCacheEpoch();

  std::shared_ptr<ServiceRegistry> registry_;
  ServerOptions options_;
  OptimizerOptions optimizer_options_;

  /// Null unless `options_.answer_cache`.
  std::unique_ptr<AnswerCache> answer_cache_;
  std::unique_ptr<PlanMemo> plan_memo_;
  /// Registry catalog generation the caches were last validated against.
  std::atomic<uint64_t> registry_gen_seen_{0};

  ServiceCallCache cache_;
  CircuitBreakerRegistry breakers_;
  DegradationLadder ladder_;
  ThreadPool pool_;
  QueryWatchdog watchdog_;

  std::atomic<bool> draining_{false};

  mutable std::mutex mu_;
  AdmissionController admission_;
  std::unordered_map<uint64_t, std::unique_ptr<Pending>> waiting_;
  /// Tokens of dispatched queries, keyed by ticket id. An id lives in
  /// exactly one of `waiting_` / `running_` at any instant (both under
  /// `mu_`), which is what makes Cancel's purge-vs-signal decision — and
  /// exactly-one-outcome — race-free.
  std::unordered_map<uint64_t, std::shared_ptr<CancelToken>> running_;
  ServerStats stats_;
  int64_t unresolved_ = 0;  ///< accepted-but-unresolved queries
  std::condition_variable drain_cv_;

  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace seco

#endif  // SECO_SERVER_SERVER_H_
