#include "exec/engine.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "exec/call_cache.h"
#include "exec/call_scheduler.h"
#include "repair/repair_driver.h"
#include "service/invocation.h"

namespace seco {

namespace {

/// One partial combination flowing between nodes.
struct Row {
  std::vector<std::optional<Tuple>> tuples;  // per atom
  std::vector<double> scores;                // per atom
  int parent = -1;    ///< index of the input-stream row this row extends
  int chunk_ord = 0;  ///< chunk index that produced this row's newest tuple
};

using Stream = std::vector<Row>;

/// Fetched results for one input binding of a service node.
struct CachedFetch {
  std::vector<Tuple> tuples;
  std::vector<double> scores;
  std::vector<int> chunk_ords;
};

/// One real request-response issued by a fetch job, for the deterministic
/// accounting pass.
struct FetchCall {
  int chunk = 0;
  double latency_ms = 0.0;
  /// Reliability overhead (backoff + charged deadlines) this logical call
  /// accumulated before succeeding; accounted separately from latency.
  double overhead_ms = 0.0;
};

/// Everything one distinct-binding fetch job produced. Written by exactly
/// one job, read only after the whole batch completes.
struct FetchOutcome {
  CachedFetch fetch;
  std::vector<FetchCall> calls;  // real calls, in chunk order
  int cache_hits = 0;
  int cache_misses = 0;
  /// Set when this binding's fetch hit a permanent fault under a degrading
  /// policy: earlier chunks (if any) are kept, later ones abandoned.
  bool failed = false;
  Status failure;
};

}  // namespace

Result<ExecutionResult> ExecutionEngine::Execute(const QueryPlan& plan) {
  return RunWithRepair(
      plan, options_, &ExecutionResult::elapsed_ms,
      [this](const QueryPlan& p, ServiceCallCache* cache, bool force_degrade) {
        return ExecuteOnce(p, cache, force_degrade);
      });
}

Result<ExecutionResult> ExecutionEngine::ExecuteOnce(
    const QueryPlan& plan, ServiceCallCache* cache_override,
    bool force_degrade) {
  SECO_RETURN_IF_ERROR(plan.Validate());
  SECO_ASSIGN_OR_RETURN(std::vector<int> order, plan.TopologicalOrder());
  const BoundQuery& query = plan.query();
  int num_atoms = static_cast<int>(query.atoms.size());

  ExecutionResult result;
  std::map<int, Stream> streams;  // node id -> output stream
  std::map<int, double> finish;   // node id -> simulated completion time

  RunScaffold scaffold(options_, cache_override, force_degrade,
                       options_.num_threads);
  CallScheduler& scheduler = scaffold.scheduler();
  ServiceCallCache* cache = scaffold.cache();
  const ReliabilityPolicy& policy = scaffold.policy();
  const bool resilient = scaffold.resilient();
  // Budget reservations; fetch jobs from any thread claim call slots here
  // (inert-policy path — under a reliability policy the scaffold's
  // CallBudget charges every attempt instead).
  std::atomic<int> calls_issued{0};
  // Atoms whose service degraded: partial rows missing only these atoms
  // survive selections, joins, and output as flagged partial answers.
  std::set<int> degraded_atoms;
  // Reliability overhead consumed so far, in deterministic accounting
  // order; feeds the query-deadline check and the final stats.
  double overhead_consumed_ms = 0.0;

  for (int id : order) {
    // Node boundary: the deterministic cancellation point. A cancelled run
    // aborts before starting the next node — no partial node output ever
    // reaches `streams`, and nothing written to the shared cache so far is
    // wrong (complete successful responses only).
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      return options_.cancel->ToStatus();
    }
    const PlanNode& node = plan.node(id);
    NodeRuntimeStats& stats = result.node_stats[id];
    double ready_ms = 0.0;
    for (int pred : node.inputs) ready_ms = std::max(ready_ms, finish[pred]);

    switch (node.kind) {
      case PlanNodeKind::kInput: {
        Row seed;
        seed.tuples.resize(num_atoms);
        seed.scores.assign(num_atoms, 0.0);
        streams[id] = {seed};
        break;
      }

      case PlanNodeKind::kServiceCall: {
        const Stream& in = streams[node.inputs[0]];
        Stream out;
        const ServiceInterface& iface = *node.iface;

        // Pass 1 — bind inputs (pure CPU, no calls): compute each row's
        // input bindings and list the distinct ones in first-appearance
        // order.
        std::vector<std::vector<int>> row_jobs(in.size());  // job per binding
        std::vector<std::vector<Value>> distinct_bindings;
        std::vector<std::string> distinct_keys;
        std::map<std::string, int> job_of_key;
        // Rows whose inputs can only pipe from an atom a degraded service
        // never produced; they skip fetching and pass through partially
        // bound (the degradation cascades down the pipe).
        std::vector<char> row_unbindable(in.size(), 0);
        for (size_t row_idx = 0; row_idx < in.size(); ++row_idx) {
          SECO_ASSIGN_OR_RETURN(
              std::vector<std::vector<Value>> bindings,
              NodeInputBindings(query, node, in[row_idx].tuples,
                                options_.input_bindings, degraded_atoms));
          if (bindings.empty()) {
            row_unbindable[row_idx] = 1;
            continue;
          }
          for (std::vector<Value>& binding : bindings) {
            std::string key = SerializeBinding(binding);
            auto [it, inserted] =
                job_of_key.emplace(std::move(key),
                                   static_cast<int>(distinct_keys.size()));
            if (inserted) {
              distinct_keys.push_back(it->first);
              distinct_bindings.push_back(std::move(binding));
            }
            row_jobs[row_idx].push_back(it->second);
          }
        }

        // Reliability wrapper for this node's handler: retry / deadline /
        // breaker / hedging behavior shared by every fetch job below.
        std::shared_ptr<ServiceCallHandler> node_handler =
            scaffold.Handler(iface);

        // Query deadline, checked at the deterministic node boundary: the
        // node would start at simulated time `ready_ms`, after
        // `overhead_consumed_ms` of reliability overhead.
        const bool node_past_deadline =
            resilient && policy.query_deadline_ms > 0.0 &&
            ready_ms + overhead_consumed_ms > policy.query_deadline_ms;
        if (node_past_deadline && !policy.degrade) {
          return Status::DeadlineExceeded(
              "query deadline (" + std::to_string(policy.query_deadline_ms) +
              " ms) exceeded before node " + std::to_string(node.id));
        }

        // Pass 2 — fetch: one job per distinct binding, dispatched through
        // the scheduler (concurrent across bindings when a pool exists,
        // inline in index order otherwise). Chunks of one binding stay
        // sequential — chunk f+1 is only needed if chunk f was not
        // exhausted. Each job owns its FetchOutcome slot; the call budget
        // is claimed through `calls_issued` (or, under a reliability
        // policy, per attempt inside the resilient handler).
        const int fetches =
            iface.is_chunked() ? std::max(node.fetch_factor, 1) : 1;
        std::vector<FetchOutcome> outcomes(distinct_keys.size());
        if (node_past_deadline) {
          for (FetchOutcome& outcome : outcomes) {
            outcome.failed = true;
            outcome.failure = Status::DeadlineExceeded(
                "query deadline exceeded before fetching");
          }
        } else {
          std::vector<CallJob> jobs;
          jobs.reserve(distinct_keys.size());
          for (size_t j = 0; j < distinct_keys.size(); ++j) {
            jobs.push_back([&, j]() -> Status {
              FetchOutcome& outcome = outcomes[j];
              for (int f = 0; f < fetches; ++f) {
                // Chunk boundary: abandon the rest of this binding's chain
                // the moment the query is cancelled. Chunks already fetched
                // were complete responses, so nothing half-written can
                // reach the cache.
                if (options_.cancel != nullptr && options_.cancel->cancelled()) {
                  return options_.cancel->ToStatus();
                }
                std::string cache_key =
                    ServiceCallCache::Key(iface.name(), distinct_keys[j], f);
                ServiceResponse resp;
                std::optional<ServiceResponse> cached = cache->Get(cache_key);
                if (cached.has_value()) {
                  resp = std::move(*cached);
                  ++outcome.cache_hits;
                } else {
                  if (!resilient &&
                      calls_issued.fetch_add(1, std::memory_order_relaxed) >=
                          options_.max_calls) {
                    return Status::ResourceExhausted(
                        "service call budget exceeded (" +
                        std::to_string(options_.max_calls) + ")");
                  }
                  ServiceRequest request;
                  request.inputs = distinct_bindings[j];
                  request.chunk_index = f;
                  request.cancel = options_.cancel;
                  Result<ServiceResponse> fetched =
                      node_handler->Call(request);
                  if (!fetched.ok()) {
                    Status s = fetched.status();
                    if (resilient && policy.degrade && IsFaultStatus(s)) {
                      // Permanent fault: keep what this binding already
                      // yielded, degrade the rest.
                      outcome.failed = true;
                      outcome.failure = std::move(s);
                      break;
                    }
                    return s;
                  }
                  resp = std::move(fetched).value();
                  // Overhead belongs to this attempt chain, never to the
                  // cached response: a later cache hit must not replay it.
                  double call_overhead = resp.fault_overhead_ms;
                  resp.fault_overhead_ms = 0.0;
                  cache->Put(cache_key, resp);
                  outcome.calls.push_back(
                      FetchCall{f, resp.latency_ms, call_overhead});
                  ++outcome.cache_misses;
                }
                for (size_t t = 0; t < resp.tuples.size(); ++t) {
                  outcome.fetch.tuples.push_back(std::move(resp.tuples[t]));
                  outcome.fetch.scores.push_back(
                      t < resp.scores.size() ? resp.scores[t] : 0.0);
                  outcome.fetch.chunk_ords.push_back(f);
                }
                if (options_.cancel != nullptr) options_.cancel->Heartbeat();
                if (resp.exhausted) break;
              }
              return Status::OK();
            });
          }
          SECO_RETURN_IF_ERROR(scheduler.RunAll(std::move(jobs)));
        }

        // Pass 3 — deterministic accounting in first-appearance order:
        // identical to the historical sequential interleaving, regardless
        // of which thread finished first.
        for (size_t j = 0; j < outcomes.size(); ++j) {
          const FetchOutcome& outcome = outcomes[j];
          for (const FetchCall& call : outcome.calls) {
            ++result.total_calls;
            ++stats.calls;
            stats.latency_ms += call.latency_ms;
            result.total_latency_ms += call.latency_ms;
            overhead_consumed_ms += call.overhead_ms;
            if (options_.collect_trace) {
              result.trace.push_back(CallEvent{node.id, iface.name(),
                                               distinct_keys[j], call.chunk,
                                               call.latency_ms});
            }
          }
          stats.cache_hits += outcome.cache_hits;
          result.cache_hits += outcome.cache_hits;
          result.cache_misses += outcome.cache_misses;
        }
        if (resilient) {
          int failed_direct = 0;
          int failed_cascade = 0;
          std::string reason;
          for (const FetchOutcome& outcome : outcomes) {
            if (!outcome.failed) continue;
            ++failed_direct;
            if (reason.empty()) reason = outcome.failure.ToString();
          }
          for (char unbindable : row_unbindable) {
            if (!unbindable) continue;
            ++failed_cascade;
            if (reason.empty()) {
              reason = "input unavailable: piped from a degraded service";
            }
          }
          if (failed_direct + failed_cascade > 0) {
            degraded_atoms.insert(node.atom);
            DegradedStatus d;
            d.node = node.id;
            d.service = iface.name();
            d.failed_bindings = failed_direct + failed_cascade;
            d.reason = reason;
            // Only direct failures make this node a repair candidate; a
            // purely inherited degradation heals once its upstream does.
            d.cascaded = failed_direct == 0;
            d.query_deadline = node_past_deadline;
            result.degraded.push_back(std::move(d));
          }
        }

        // Pass 4 — extend rows with the fetched tuples, byte-identical to
        // the sequential fetch-as-you-go order.
        for (size_t row_idx = 0; row_idx < in.size(); ++row_idx) {
          const Row& row = in[row_idx];
          int kept_for_row = 0;
          bool row_hit_failure = row_unbindable[row_idx] != 0;
          for (int job_idx : row_jobs[row_idx]) {
            if (outcomes[job_idx].failed) row_hit_failure = true;
            const CachedFetch& fetch = outcomes[job_idx].fetch;
            for (size_t t = 0; t < fetch.tuples.size(); ++t) {
              if (node.keep_per_input > 0 && kept_for_row >= node.keep_per_input) {
                break;
              }
              Row extended = row;
              extended.tuples[node.atom] = fetch.tuples[t];
              extended.scores[node.atom] = fetch.scores[t];
              extended.parent = static_cast<int>(row_idx);
              extended.chunk_ord = fetch.chunk_ords[t];
              // Verify the pipe-join groups on the composed row (covers
              // clauses beyond the input binding and the repeating-group
              // single-instance rule).
              SECO_ASSIGN_OR_RETURN(
                  bool ok,
                  PipeGroupsHold(query, node.pipe_groups, extended.tuples));
              if (!ok) continue;
              out.push_back(std::move(extended));
              ++kept_for_row;
            }
          }
          if (kept_for_row == 0 && row_hit_failure) {
            // Degraded pass-through: the row's service data is gone, but
            // the partial combination stays alive so other services' joins
            // still produce (flagged) answers.
            Row passed = row;
            passed.parent = static_cast<int>(row_idx);
            passed.chunk_ord = 0;
            out.push_back(std::move(passed));
          }
        }
        streams[id] = std::move(out);
        break;
      }

      case PlanNodeKind::kSelection: {
        const Stream& in = streams[node.inputs[0]];
        Stream out;
        const std::vector<int> atoms = SelectionAtoms(query, node);
        for (const Row& row : in) {
          SECO_ASSIGN_OR_RETURN(
              bool ok, SelectionHolds(query, node, atoms, row.tuples,
                                      options_.input_bindings, degraded_atoms));
          if (ok) out.push_back(row);
        }
        streams[id] = std::move(out);
        break;
      }

      case PlanNodeKind::kParallelJoin: {
        // Group each branch stream by parent (upstream row index).
        std::vector<const Stream*> branches;
        for (int pred : node.inputs) branches.push_back(&streams[pred]);
        int upstream_size = 0;
        if (node.join_upstream >= 0) {
          upstream_size = static_cast<int>(streams[node.join_upstream].size());
        }
        std::vector<std::vector<std::vector<const Row*>>> grouped(
            branches.size());
        for (size_t b = 0; b < branches.size(); ++b) {
          grouped[b].resize(std::max(upstream_size, 1));
          for (const Row& row : *branches[b]) {
            int parent = upstream_size > 0 ? std::max(row.parent, 0) : 0;
            grouped[b][parent].push_back(&row);
          }
        }
        // Fetch-grid extents for the triangular completion filter.
        double fx = 1.0, fy = 1.0;
        if (node.strategy.completion == JoinCompletion::kTriangular &&
            branches.size() == 2) {
          for (const Row& row : *branches[0]) {
            fx = std::max(fx, row.chunk_ord + 1.0);
          }
          for (const Row& row : *branches[1]) {
            fy = std::max(fy, row.chunk_ord + 1.0);
          }
        }

        Stream out;
        for (int parent = 0; parent < std::max(upstream_size, 1); ++parent) {
          // Cross product across branches within this upstream row.
          std::vector<Row> partial;
          const Row* upstream_row = nullptr;
          if (upstream_size > 0) {
            upstream_row = &streams[node.join_upstream][parent];
          }
          bool first_branch = true;
          for (size_t b = 0; b < branches.size(); ++b) {
            std::vector<Row> next;
            for (const Row* branch_row : grouped[b][parent]) {
              if (first_branch) {
                Row merged = *branch_row;
                merged.parent = parent;
                // Triangular filter on the first two branches.
                next.push_back(std::move(merged));
              } else {
                for (const Row& existing : partial) {
                  if (b == 1 &&
                      node.strategy.completion == JoinCompletion::kTriangular) {
                    double pos = (existing.chunk_ord + 0.5) / fx +
                                 (branch_row->chunk_ord + 0.5) / fy;
                    if (pos > 1.0) continue;
                  }
                  Row merged = existing;
                  for (int a = 0; a < num_atoms; ++a) {
                    if (branch_row->tuples[a].has_value() &&
                        !merged.tuples[a].has_value()) {
                      merged.tuples[a] = branch_row->tuples[a];
                      merged.scores[a] = branch_row->scores[a];
                    }
                  }
                  next.push_back(std::move(merged));
                }
              }
            }
            partial = std::move(next);
            first_branch = false;
          }
          (void)upstream_row;
          // Evaluate the node's join groups.
          for (Row& row : partial) {
            SECO_ASSIGN_OR_RETURN(bool ok,
                                  JoinGroupsHold(query, node.join_groups,
                                                 row.tuples, degraded_atoms));
            if (ok) out.push_back(std::move(row));
          }
        }
        streams[id] = std::move(out);
        break;
      }

      case PlanNodeKind::kOutput: {
        const Stream& in = streams[node.inputs[0]];
        std::vector<double> weights = query.EffectiveWeights();
        result.total_combinations_produced = static_cast<int>(in.size());
        for (const Row& row : in) {
          Combination combo;
          if (AssembleCombination(row.tuples, row.scores, weights,
                                  degraded_atoms, &combo)) {
            result.combinations.push_back(std::move(combo));
          }
        }
        std::stable_sort(result.combinations.begin(), result.combinations.end(),
                         [](const Combination& a, const Combination& b) {
                           return a.combined_score > b.combined_score;
                         });
        if (options_.truncate_to_k &&
            static_cast<int>(result.combinations.size()) > options_.k) {
          result.combinations.resize(options_.k);
        }
        break;
      }
    }

    stats.tuples_out = node.kind == PlanNodeKind::kOutput
                           ? static_cast<int>(result.combinations.size())
                           : static_cast<int>(streams[id].size());
    stats.finished_at_ms = ready_ms + stats.latency_ms;
    finish[id] = stats.finished_at_ms;
    result.elapsed_ms = std::max(result.elapsed_ms, finish[id]);
  }
  scaffold.Finish(overhead_consumed_ms, &result);
  return result;
}

}  // namespace seco
