#include "server/server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "query/parser.h"

namespace seco {

namespace {

/// Outcome of a run that produced an answer: degraded when admitted under a
/// ladder level or when the answer is partial.
ServedOutcome ServedOutcomeOf(int level, const RunResult& run) {
  return (level > 0 || !run.complete) ? ServedOutcome::kDegraded
                                      : ServedOutcome::kCompleted;
}

}  // namespace

const char* ServedOutcomeToString(ServedOutcome outcome) {
  switch (outcome) {
    case ServedOutcome::kCompleted:
      return "completed";
    case ServedOutcome::kDegraded:
      return "degraded";
    case ServedOutcome::kShed:
      return "shed";
    case ServedOutcome::kDeadlineExpired:
      return "deadline_expired";
    case ServedOutcome::kFailed:
      return "failed";
    case ServedOutcome::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = p / 100.0 * static_cast<double>(samples.size());
  int index = static_cast<int>(std::ceil(rank)) - 1;
  index = std::clamp(index, 0, static_cast<int>(samples.size()) - 1);
  return samples[index];
}

QueryServer::QueryServer(std::shared_ptr<ServiceRegistry> registry,
                         ServerOptions options,
                         OptimizerOptions optimizer_options)
    : registry_(std::move(registry)),
      options_(std::move(options)),
      optimizer_options_(optimizer_options),
      cache_(options_.cache_byte_budget),
      // The shared registry's breaker parameters come from the server-wide
      // default policy; per-request policies only decide whether breakers
      // are consulted at all.
      breakers_(options_.reliability.breaker_failure_threshold,
                options_.reliability.breaker_probe_interval),
      ladder_(options_.ladder),
      pool_(options_.runner_threads > 0
                ? options_.runner_threads
                : std::max(1, options_.admission.max_in_flight)),
      watchdog_(options_.watchdog),
      admission_(options_.admission),
      epoch_(std::chrono::steady_clock::now()) {
  watchdog_.Start();
  if (options_.runner_threads <= 0) {
    options_.runner_threads = std::max(1, options_.admission.max_in_flight);
  }
  if (options_.answer_cache) {
    answer_cache_ = std::make_unique<AnswerCache>(options_.answer_cache_bytes);
    if (options_.plan_memo_bytes > 0) {
      plan_memo_ = std::make_unique<PlanMemo>(options_.plan_memo_bytes);
    }
  }
  registry_gen_seen_.store(registry_->generation(), std::memory_order_release);
}

QueryServer::~QueryServer() {
  Drain();
  // Join the scanner before the runners: the watchdog only touches tokens,
  // but a scan racing pool teardown buys nothing.
  watchdog_.Stop();
  // Join the runners before any member the tasks touch is destroyed
  // (members destruct in reverse declaration order, which would tear down
  // the stats/mutex before the pool).
  pool_.Shutdown();
}

double QueryServer::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

PressureSignals QueryServer::PressureLocked() const {
  PressureSignals signals;
  signals.in_flight = admission_.in_flight();
  signals.max_in_flight = std::max(1, options_.admission.max_in_flight);
  signals.pool_queue_depth = pool_.queue_depth();
  signals.runner_threads = options_.runner_threads;
  signals.queued = admission_.queued_total();
  signals.queue_capacity = std::max(1, admission_.queue_capacity_total());
  signals.open_breakers = breakers_.OpenCount();
  CallCacheStats cache_stats = cache_.stats();
  signals.cache_bytes = static_cast<double>(cache_stats.bytes);
  signals.cache_budget =
      static_cast<double>(std::max<size_t>(1, cache_.byte_budget()));
  return signals;
}

std::future<QueryResponse> QueryServer::Submit(QueryRequest request) {
  return SubmitWithId(std::move(request)).future;
}

QueryServer::SubmittedQuery QueryServer::SubmitWithId(QueryRequest request) {
  std::promise<QueryResponse> promise;
  SubmittedQuery submitted;
  std::future<QueryResponse>& future = submitted.future;
  future = promise.get_future();

  PriorityClass priority = request.priority;
  bool was_shed = false;
  bool was_hit = false;
  QueryResponse ready_response;
  std::vector<Dispatch> dispatches;

  // Graceful shutdown: once draining, arrivals are shed before touching
  // the cache or admission state — in-flight queries keep their resources.
  if (draining_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ClassServingStats& cls = stats_.of(priority);
      ++cls.submitted;
      ++cls.shed;
    }
    ready_response.outcome = ServedOutcome::kShed;
    ready_response.priority = priority;
    ready_response.retry_after_ms = options_.retry_after_ms;
    ready_response.status = Status::Rejected(
        "server draining; retry after " +
        std::to_string(ready_response.retry_after_ms) + " ms");
    promise.set_value(std::move(ready_response));
    return submitted;
  }

  // Answer-cache preparation happens before the server lock: parsing,
  // binding, and hashing the canonical signature are pure work that must
  // not serialize the admission path. Trace requests bypass the cache — a
  // cached answer carries no fresh trace.
  std::optional<AnswerKey> key_base;
  if (answer_cache_ && !request.collect_trace) {
    RefreshCacheEpoch();
    key_base = BuildAnswerKeyBase(request);
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    double now = NowMs();
    ClassServingStats& cls = stats_.of(priority);
    ++cls.submitted;

    // The degradation level is decided from the pressure at arrival, before
    // this query itself contributes to it.
    int level = ladder_.LevelFor(PressureLocked());

    // The level-dependent key parts (degradation level, the ladder's k /
    // call-budget cuts) are only known now, so the final signature is
    // assembled under the lock. A warm hit resolves right here: it consumes
    // no admission-window slot and no runner thread.
    std::optional<Signature> answer_sig;
    if (key_base.has_value()) {
      AnswerKey key = *key_base;
      key.k = request.k;
      key.max_calls = request.max_calls;
      ladder_.ApplyToRequest(level, &key.k, &key.max_calls);
      key.degradation_level = level;
      answer_sig = AnswerSignature(key, request.input_bindings);
      if (std::shared_ptr<const CachedAnswer> hit =
              answer_cache_->Probe(*answer_sig)) {
        ready_response = ResponseFromCached(*hit, level);
        if (ready_response.outcome == ServedOutcome::kDegraded) {
          ++cls.degraded;
        } else {
          ++cls.completed;
        }
        ++cls.answer_cache_hits;
        ++cls.degradation_levels[std::clamp(level, 0,
                                            DegradationLadder::kMaxLevel)];
        cls.queue_wait_ms.push_back(0.0);
        cls.sim_elapsed_ms.push_back(ready_response.critical_path_ms());
        was_hit = true;
      }
    }

    std::optional<uint64_t> ticket;
    if (!was_hit) {
      ticket = admission_.Offer(priority, now, request.deadline_ms);
    }
    if (was_hit) {
      // Resolved from cache above; nothing to enqueue.
    } else if (!ticket.has_value()) {
      ++cls.shed;
      double backlog =
          static_cast<double>(admission_.queued_total()) /
          static_cast<double>(std::max(1, admission_.queue_capacity_total()));
      ready_response.outcome = ServedOutcome::kShed;
      ready_response.priority = priority;
      ready_response.retry_after_ms =
          options_.retry_after_ms * (1.0 + backlog);
      ready_response.status = Status::Rejected(
          std::string(PriorityClassToString(priority)) +
          " admission queue full; retry after " +
          std::to_string(ready_response.retry_after_ms) + " ms");
      was_shed = true;
    } else {
      auto pending = std::make_unique<Pending>();
      pending->request = std::move(request);
      pending->promise = std::move(promise);
      pending->degradation_level = level;
      pending->answer_sig = answer_sig;
      pending->cancel = std::make_shared<CancelToken>();
      pending->enqueued_ms = now;
      submitted.id = *ticket;
      waiting_.emplace(*ticket, std::move(pending));
      ++unresolved_;
      cls.peak_queue_depth =
          std::max(cls.peak_queue_depth, admission_.queued(priority));
      dispatches = CollectDispatchesLocked();
    }
  }
  // Shed queries and warm cache hits touch no execution state and their
  // futures are ready immediately; the promise fires outside the lock, like
  // every other.
  if (was_shed || was_hit) {
    ready_response.priority = priority;
    promise.set_value(std::move(ready_response));
  }
  LaunchDispatches(std::move(dispatches));
  return submitted;
}

bool QueryServer::Cancel(uint64_t id, std::string reason) {
  if (id == 0) return false;
  std::unique_ptr<Pending> purged;
  std::shared_ptr<CancelToken> token;
  double wait = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = waiting_.find(id);
    if (it != waiting_.end()) {
      // Still queued: purge. The ticket never claimed an in-flight slot,
      // so there is no OnFinished — the window is untouched and whoever
      // was going to dispatch next still dispatches next.
      admission_.Remove(id);
      purged = std::move(it->second);
      waiting_.erase(it);
      wait = NowMs() - purged->enqueued_ms;
      ClassServingStats& cls = stats_.of(purged->request.priority);
      ++cls.cancelled;
      cls.queue_wait_ms.push_back(wait);
      --unresolved_;
      drain_cv_.notify_all();
    } else {
      auto run = running_.find(id);
      if (run == running_.end()) return false;  // unknown or already resolved
      token = run->second;
    }
  }
  if (purged != nullptr) {
    QueryResponse response;
    response.outcome = ServedOutcome::kCancelled;
    response.priority = purged->request.priority;
    response.degradation_level = purged->degradation_level;
    response.queue_wait_ms = wait;
    response.status = Status::Cancelled(std::move(reason));
    purged->promise.set_value(std::move(response));
    return true;
  }
  // Running: fire the token and let RunOne resolve it. Racing a concurrent
  // completion is fine — the promise is set exactly once, by RunOne, with
  // whichever outcome the race produced.
  token->Cancel(std::move(reason));
  return true;
}

std::vector<QueryServer::Dispatch> QueryServer::CollectDispatchesLocked() {
  std::vector<Dispatch> dispatches;
  double now = NowMs();
  while (std::optional<QueueTicket> ticket = admission_.NextToDispatch(now)) {
    auto it = waiting_.find(ticket->id);
    if (it == waiting_.end()) continue;  // unreachable: every ticket has a payload
    Dispatch dispatch;
    dispatch.ticket = *ticket;
    dispatch.pending = std::move(it->second);
    waiting_.erase(it);
    if (!ticket->expired) {
      // Hand the id over to the running set in the same critical section
      // that removes it from `waiting_`: Cancel always finds it in exactly
      // one place.
      running_.emplace(ticket->id, dispatch.pending->cancel);
    }
    dispatches.push_back(std::move(dispatch));
  }
  stats_.peak_in_flight =
      std::max(stats_.peak_in_flight, admission_.in_flight());
  return dispatches;
}

void QueryServer::LaunchDispatches(std::vector<Dispatch> dispatches) {
  for (Dispatch& dispatch : dispatches) {
    if (dispatch.ticket.expired) {
      // Overran its queue deadline: resolve without running. No in-flight
      // slot was claimed, so there is no OnFinished here.
      double wait = NowMs() - dispatch.ticket.enqueued_ms;
      QueryResponse response;
      response.outcome = ServedOutcome::kDeadlineExpired;
      response.priority = dispatch.ticket.priority;
      response.degradation_level = dispatch.pending->degradation_level;
      response.queue_wait_ms = wait;
      response.status = Status::DeadlineExceeded(
          "query waited " + std::to_string(wait) +
          " ms in the admission queue, past its deadline of " +
          std::to_string(dispatch.ticket.deadline_ms) + " ms");
      {
        std::lock_guard<std::mutex> lock(mu_);
        ClassServingStats& cls = stats_.of(dispatch.ticket.priority);
        ++cls.expired;
        cls.queue_wait_ms.push_back(wait);
        --unresolved_;
        drain_cv_.notify_all();
      }
      dispatch.pending->promise.set_value(std::move(response));
      continue;
    }
    // std::function requires a copyable target, so the payload rides a
    // shared_ptr into the pool task.
    std::shared_ptr<Pending> pending(std::move(dispatch.pending));
    QueueTicket ticket = dispatch.ticket;
    watchdog_.Track(ticket.id, pending->cancel);
    pool_.Submit([this, ticket, pending] { RunOne(ticket, pending); });
  }
}

void QueryServer::RunOne(QueueTicket ticket,
                         std::shared_ptr<Pending> pending) {
  // Queue wait is measured when the runner actually picks the query up, so
  // it includes any time spent queued inside the pool itself.
  double wait = NowMs() - ticket.enqueued_ms;
  PriorityClass priority = pending->request.priority;

  QueryResponse response =
      ExecuteRequest(pending->request, pending->degradation_level,
                     pending->answer_sig, pending->cancel);
  response.queue_wait_ms = wait;
  response.priority = priority;

  watchdog_.Untrack(ticket.id);
  std::vector<Dispatch> dispatches;
  {
    std::unique_lock<std::mutex> lock(mu_);
    admission_.OnFinished();
    running_.erase(ticket.id);
    ClassServingStats& cls = stats_.of(priority);
    switch (response.outcome) {
      case ServedOutcome::kCompleted:
        ++cls.completed;
        break;
      case ServedOutcome::kDegraded:
        ++cls.degraded;
        break;
      case ServedOutcome::kDeadlineExpired:
        ++cls.expired;
        break;
      case ServedOutcome::kCancelled:
        ++cls.cancelled;
        break;
      default:
        ++cls.failed;
        break;
    }
    if (response.answer_cache_hit) ++cls.answer_cache_hits;
    ++cls.degradation_levels[std::clamp(pending->degradation_level, 0,
                                        DegradationLadder::kMaxLevel)];
    cls.queue_wait_ms.push_back(wait);
    cls.sim_elapsed_ms.push_back(response.critical_path_ms());
    --unresolved_;
    dispatches = CollectDispatchesLocked();
    drain_cv_.notify_all();
  }
  pending->promise.set_value(std::move(response));
  LaunchDispatches(std::move(dispatches));
}

QueryResponse QueryServer::ExecuteRequest(
    const QueryRequest& request, int level,
    const std::optional<Signature>& answer_sig,
    const std::shared_ptr<CancelToken>& cancel) {
  if (!answer_cache_ || !answer_sig.has_value()) {
    return ExecuteUncached(request, level, cancel);
  }

  // Single-flight: re-probe (the answer may have landed while this query
  // waited in the admission queue), then either lead the execution or wait
  // for the identical one already running.
  AnswerCache::Flight flight = answer_cache_->JoinOrLead(*answer_sig);
  if (flight.cached) return ResponseFromCached(*flight.cached, level);
  if (!flight.leader) {
    std::shared_ptr<const CachedAnswer> answer = flight.wait.get();
    if (answer) return ResponseFromCached(*answer, level);
    // The leader's run turned out uncacheable (failed, incomplete,
    // repaired mid-run, or cancelled); execute independently rather than
    // convoying a chain of new flights behind one another. A follower that
    // was itself cancelled while waiting aborts right away inside
    // ExecuteUncached.
    return ExecuteUncached(request, level, cancel);
  }

  // A cancelled leader still reaches CompleteFlight below — with a null
  // payload, because a kCancelled outcome is never cacheable — so its
  // followers are explicitly released, never wedged, and a cancelled
  // partial answer can never poison the cache.
  QueryResponse response = ExecuteUncached(request, level, cancel);
  std::shared_ptr<const CachedAnswer> payload;
  const bool outcome_ok = response.outcome == ServedOutcome::kCompleted ||
                          response.outcome == ServedOutcome::kDegraded;
  if (response.status.ok() && outcome_ok && response.run().complete &&
      !response.run().repair.any()) {
    auto answer = std::make_shared<CachedAnswer>();
    static_cast<RunPayload&>(*answer) = response;
    payload = std::move(answer);
  }
  answer_cache_->CompleteFlight(*answer_sig, std::move(payload));
  return response;
}

QueryResponse QueryServer::ExecuteUncached(
    const QueryRequest& request, int level,
    const std::shared_ptr<CancelToken>& cancel) {
  QueryResponse response;
  response.degradation_level = level;
  response.streamed = request.streaming;

  auto fail = [&response](Status status) -> QueryResponse {
    response.outcome = status.code() == StatusCode::kDeadlineExceeded
                           ? ServedOutcome::kDeadlineExpired
                       : status.code() == StatusCode::kCancelled
                           ? ServedOutcome::kCancelled
                           : ServedOutcome::kFailed;
    response.status = std::move(status);
    return std::move(response);
  };

  // Cancelled while waiting for a runner (or for a single-flight leader):
  // skip parse/optimize/execute outright.
  if (cancel != nullptr && cancel->cancelled()) {
    return fail(cancel->ToStatus());
  }

  // Prepare: either the caller pre-bound the query, or parse + bind here.
  const BoundQuery* bound = request.bound.get();
  BoundQuery local_bound;
  if (bound == nullptr) {
    Result<ParsedQuery> parsed = ParseQuery(request.query_text);
    if (!parsed.ok()) return fail(parsed.status());
    Result<BoundQuery> bound_result = BindQuery(parsed.value(), *registry_);
    if (!bound_result.ok()) return fail(bound_result.status());
    local_bound = std::move(bound_result).value();
    bound = &local_bound;
  }

  // The ladder cuts k / max_calls at admission level >= 2; the optimizer
  // then plans for the cut k, so fetch factors shrink along with it.
  int k = request.k;
  int max_calls = request.max_calls;
  ladder_.ApplyToRequest(level, &k, &max_calls);

  OptimizerOptions optimizer_options = optimizer_options_;
  optimizer_options.k = k;
  optimizer_options.memo = plan_memo_.get();
  Optimizer optimizer(optimizer_options);
  Result<OptimizationResult> optimized = optimizer.Optimize(*bound);
  if (!optimized.ok()) return fail(optimized.status());

  RunOptions run;
  run.k = k;
  run.input_bindings = request.input_bindings;
  run.max_calls = max_calls;
  run.num_threads = options_.num_threads;
  run.cache = &cache_;
  run.collect_trace = request.collect_trace;
  run.reliability = request.reliability.enabled() ? request.reliability
                                                  : options_.reliability;
  run.repair = request.repair.active() ? request.repair : options_.repair;
  run.repair.registry = registry_.get();
  run.repair.optimizer = optimizer_options;
  run.degradation_level = level;
  run.shared_breakers = &breakers_;
  run.cancel = cancel;
  if (request.streaming) {
    StreamingOptions stream;
    static_cast<RunOptions&>(stream) = std::move(run);
    stream.prefetch_depth = options_.prefetch_depth;
    Result<StreamingResult> result =
        StreamingEngine(std::move(stream)).Execute(optimized->plan);
    if (!result.ok()) return fail(result.status());
    response.streaming = std::move(result).value();
  } else {
    ExecutionOptions exec;
    static_cast<RunOptions&>(exec) = std::move(run);
    Result<ExecutionResult> result =
        ExecutionEngine(std::move(exec)).Execute(optimized->plan);
    if (!result.ok()) return fail(result.status());
    response.execution = std::move(result).value();
  }
  response.outcome = ServedOutcomeOf(level, response.run());
  // A repair event means a replica was swapped mid-run: plans and answers
  // derived from the old replica health may no longer reproduce, so the
  // derived caches roll their generation. The call cache keeps its entries
  // (a recorded backend response is still that response) — salvage across
  // repair rounds depends on them staying warm.
  if (response.run().repair.any() && answer_cache_) {
    answer_cache_->BumpGeneration();
    if (plan_memo_) plan_memo_->BumpGeneration();
  }
  return response;
}

std::optional<AnswerKey> QueryServer::BuildAnswerKeyBase(
    const QueryRequest& request) const {
  // Parse + bind failures are not cached: the normal execution path reports
  // them with its usual diagnostics.
  const BoundQuery* bound = request.bound.get();
  BoundQuery local_bound;
  if (bound == nullptr) {
    Result<ParsedQuery> parsed = ParseQuery(request.query_text);
    if (!parsed.ok()) return std::nullopt;
    Result<BoundQuery> bound_result = BindQuery(parsed.value(), *registry_);
    if (!bound_result.ok()) return std::nullopt;
    local_bound = std::move(bound_result).value();
    bound = &local_bound;
  }
  AnswerKey key;
  key.query = QueryAnswerSignature(*bound);
  key.streaming = request.streaming;
  // Mirror ExecuteUncached's policy defaulting so the fingerprints hash the
  // configuration that will actually run. The ladder's k/max_calls cuts are
  // a pure function of (request.k, level), both already in the key, so the
  // fingerprints can use the server-wide optimizer options as-is.
  const ReliabilityPolicy& reliability = request.reliability.enabled()
                                             ? request.reliability
                                             : options_.reliability;
  RepairOptions repair =
      request.repair.active() ? request.repair : options_.repair;
  repair.optimizer = optimizer_options_;
  key.reliability_fp = ReliabilityFingerprint(reliability);
  key.repair_fp = RepairFingerprint(repair);
  key.optimizer_fp = OptimizerFingerprint(optimizer_options_);
  return key;
}

QueryResponse QueryServer::ResponseFromCached(const CachedAnswer& answer,
                                              int level) const {
  QueryResponse response;
  static_cast<RunPayload&>(response) = answer;
  response.degradation_level = level;
  response.answer_cache_hit = true;
  response.outcome = ServedOutcomeOf(level, response.run());
  return response;
}

void QueryServer::RefreshCacheEpoch() {
  uint64_t gen = registry_->generation();
  uint64_t seen = registry_gen_seen_.load(std::memory_order_acquire);
  while (gen != seen) {
    if (registry_gen_seen_.compare_exchange_weak(seen, gen,
                                                 std::memory_order_acq_rel)) {
      // The catalog moved (a replica, interface, or pattern appeared): the
      // optimizer's candidate sets shifted, so memoized plans and whole
      // answers may differ from what a fresh run would produce now.
      answer_cache_->BumpGeneration();
      if (plan_memo_) plan_memo_->BumpGeneration();
      return;
    }
  }
}

void QueryServer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return unresolved_ == 0; });
}

ServerStats QueryServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

PressureSignals QueryServer::pressure() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PressureLocked();
}

}  // namespace seco
