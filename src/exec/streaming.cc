#include "exec/streaming.h"

#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "data/column_chunk.h"
#include "data/kernels.h"
#include "exec/call_cache.h"
#include "exec/call_scheduler.h"
#include "repair/repair_driver.h"
#include "service/invocation.h"

namespace seco {

namespace {

/// A streaming row: one optional tuple+score per atom, plus the chunk index
/// that produced the newest tuple (for completion-strategy filtering).
struct SRow {
  std::vector<std::optional<Tuple>> tuples;
  std::vector<double> scores;
  int chunk_ord = 0;
};

/// One speculative fetch in flight. The pool job writes the response into
/// its slot and Puts it in the call cache; the demand path consumes the slot
/// and charges the call as if it had made it synchronously.
struct SpecFetch {
  std::future<Status> done;
  Result<ServiceResponse> response = Status::Internal("speculation pending");
};

/// Shared run-wide state: budgets, counters, and the speculation ledger.
///
/// The pull pipeline runs entirely on the calling thread; worker jobs touch
/// only their own `SpecFetch` slot and the (internally synchronized) call
/// cache, so none of these fields need locks.
struct RunState {
  const BoundQuery* query = nullptr;
  const StreamingOptions* options = nullptr;
  ServiceCallCache* cache = nullptr;
  CallScheduler* scheduler = nullptr;
  bool speculate = false;
  /// Calls charged against max_calls (the sequential engine's count).
  int charged_calls = 0;
  int cache_hits = 0;
  int cache_misses = 0;
  int speculative_issued = 0;
  int speculative_consumed = 0;
  std::map<int, NodeRuntimeStats> node_stats;
  std::vector<CallEvent> trace;
  /// Cache key -> in-flight speculative fetch. Consulted *before* the call
  /// cache on the demand path: a speculative result must be charged at
  /// consumption, never mistaken for a warm hit.
  std::unordered_map<std::string, std::unique_ptr<SpecFetch>> inflight;
  /// Every service node of the plan, in topological order, for row-driven
  /// downstream speculation.
  std::vector<const PlanNode*> service_nodes;

  // ---- Reliability (see docs/RELIABILITY.md) ----
  /// Effective policy; `resilient` caches `policy.enabled()`.
  ReliabilityPolicy policy;
  bool resilient = false;
  /// Per-service-node handlers, decorated by the run scaffold.
  std::map<int, std::shared_ptr<ServiceCallHandler>> handlers;
  /// Atoms whose service degraded; partial rows missing only these atoms
  /// survive selections, joins, and output as flagged partial answers.
  std::set<int> degraded_atoms;
  std::map<int, DegradedStatus> degraded;
  /// Pipeline-thread sums of consumed latency and reliability overhead —
  /// the deterministic mid-run clock the query deadline is checked against.
  double consumed_latency_ms = 0.0;
  double overhead_consumed_ms = 0.0;
  /// Columnar data-plane counters, merged from every JoinOp of the run.
  ColumnarStats columnar;

  ServiceCallHandler* HandlerFor(const PlanNode& node) const {
    return handlers.at(node.id).get();
  }

  bool PastQueryDeadline() const {
    return resilient && policy.query_deadline_ms > 0.0 &&
           consumed_latency_ms + overhead_consumed_ms >
               policy.query_deadline_ms;
  }

  /// Marks `node` degraded by `failure` (called on the pipeline thread at
  /// the deterministic consumption point of the failing fetch).
  /// `cascaded` failures are inherited from a degraded upstream; a node is
  /// flagged cascaded only while *every* failure it saw was. Degradations
  /// struck after the query deadline elapsed are flagged so the repair
  /// layer never mistakes a timeout for a service loss.
  void RecordDegraded(const PlanNode& node, const Status& failure,
                      bool cascaded = false) {
    degraded_atoms.insert(node.atom);
    DegradedStatus status;
    status.node = node.id;
    status.service = node.iface->name();
    status.reason = failure.ToString();
    status.cascaded = cascaded;
    status.query_deadline = PastQueryDeadline();
    auto [it, inserted] = degraded.emplace(node.id, std::move(status));
    ++it->second.failed_bindings;
    if (!inserted) {
      it->second.cascaded = it->second.cascaded && cascaded;
      it->second.query_deadline =
          it->second.query_deadline || PastQueryDeadline();
    }
  }

  /// True when this fetch failure should degrade the node instead of
  /// aborting the run.
  bool ShouldDegrade(const Status& failure) const {
    return resilient && policy.degrade && IsFaultStatus(failure);
  }

  /// Budget slots already spoken for: charged calls plus outstanding
  /// speculation. Real issued calls never exceed this.
  int reserved() const {
    return charged_calls + static_cast<int>(inflight.size());
  }
};

/// Lazily-fetched, cached result list for one (service, binding) pair.
struct CacheEntry {
  struct Item {
    Tuple tuple;
    double score;
    int chunk_ord;
  };
  std::vector<Item> items;
  int chunks_fetched = 0;
  bool exhausted = false;
};

/// Per-service-node fetch cache shared by every operator touching the node.
using FetchCache = std::map<std::string, CacheEntry>;

/// Chunks a node may fetch per binding: the fetch factor for chunked
/// services, exactly one call otherwise.
int FetchCap(const PlanNode& node) {
  return node.iface->is_chunked() ? std::max(node.fetch_factor, 1) : 1;
}

/// Books one charged call: budget, per-node counters, and the trace.
/// `overhead_ms` is the reliability overhead (backoff + charged deadlines)
/// the consumed response carried — accounted separately from the base
/// simulated clock so a recovered run matches the fault-free run.
void ChargeCall(const PlanNode& node, const std::string& binding_key,
                int chunk, double latency_ms, double overhead_ms,
                RunState* state) {
  // Every charge is observable forward progress for the stuck-query
  // watchdog; cancelled runs stop charging, so the heartbeat goes quiet.
  if (state->options->cancel != nullptr) state->options->cancel->Heartbeat();
  ++state->charged_calls;
  ++state->cache_misses;
  state->consumed_latency_ms += latency_ms;
  state->overhead_consumed_ms += overhead_ms;
  NodeRuntimeStats& stats = state->node_stats[node.id];
  ++stats.calls;
  stats.latency_ms += latency_ms;
  if (state->options->collect_trace) {
    state->trace.push_back(CallEvent{node.id, node.iface->name(), binding_key,
                                     chunk, latency_ms});
  }
}

/// Issues the fetch of (node, binding, chunk) on the pool unless it is
/// already in flight, already cached, or the budget has no free slot.
/// Every guard is evaluated on the pipeline thread, so whether a fetch is
/// speculated never races with demand accounting.
void TrySpeculate(const PlanNode& node, const std::string& binding_key,
                  const std::vector<Value>& binding, int chunk,
                  RunState* state) {
  if (!state->speculate) return;
  // A cancelled run abandons speculation outright: no new lookahead work
  // is worth issuing for an answer nobody will read.
  if (state->options->cancel != nullptr && state->options->cancel->cancelled()) {
    return;
  }
  // Never speculate against a service already declared lost: every such
  // fetch is guaranteed waste, and (for partial-outage fault profiles) its
  // stray successes must not seed the shared cache behind a node the run
  // has already degraded.
  if (state->degraded_atoms.count(node.atom) > 0) return;
  std::string key =
      ServiceCallCache::Key(node.iface->name(), binding_key, chunk);
  if (state->inflight.count(key) > 0) return;
  if (state->reserved() >= state->options->max_calls) return;
  if (state->cache->Contains(key)) return;
  auto fetch = std::make_unique<SpecFetch>();
  SpecFetch* slot = fetch.get();
  ServiceCallHandler* handler = state->HandlerFor(node);
  ServiceCallCache* cache = state->cache;
  std::shared_ptr<CancelToken> cancel = state->options->cancel;
  std::optional<std::future<Status>> job = state->scheduler->SubmitOne(
      [handler, cache, binding, chunk, key, slot, cancel]() -> Status {
        ServiceRequest request;
        request.inputs = binding;
        request.chunk_index = chunk;
        request.cancel = cancel;
        Result<ServiceResponse> resp = handler->Call(request);
        if (resp.ok()) {
          // Cache the clean response: reliability overhead is charged once,
          // at the consumption point of this fetch — a later cache hit must
          // not replay it. Errors are never cached, so a transiently failing
          // speculative fetch cannot poison the cache.
          ServiceResponse clean = resp.value();
          clean.fault_overhead_ms = 0.0;
          cache->Put(key, clean);
        }
        slot->response = std::move(resp);
        return slot->response.status();
      });
  if (!job.has_value()) return;  // inline mode: no thread to hide behind
  slot->done = std::move(*job);
  ++state->speculative_issued;
  state->inflight.emplace(std::move(key), std::move(fetch));
}

/// Speculates chunks [from, from + prefetch_depth) of one binding, within
/// the node's fetch cap.
void SpeculateChunks(const PlanNode& node, const std::string& binding_key,
                     const std::vector<Value>& binding, int from,
                     RunState* state) {
  if (!state->speculate) return;
  int limit = std::min(FetchCap(node), from + state->options->prefetch_depth);
  for (int chunk = from; chunk < limit; ++chunk) {
    TrySpeculate(node, binding_key, binding, chunk, state);
  }
}

/// The demand path: returns the response of (node, binding, chunk) from the
/// speculation ledger, the call cache, or a blocking call — charging
/// exactly when the sequential engine would have charged.
Result<ServiceResponse> FetchChunk(const PlanNode& node,
                                   const std::string& binding_key,
                                   const std::vector<Value>& binding,
                                   int chunk, RunState* state) {
  const int max_calls = state->options->max_calls;
  auto budget_error = [max_calls]() {
    return Status::ResourceExhausted("service call budget exceeded (" +
                                     std::to_string(max_calls) + ")");
  };
  // Query-deadline checks below run on the pipeline thread against the
  // cumulative *consumed* latency + overhead — a deterministic mid-run
  // clock — and guard every charge point. Cache hits stay free.
  std::string key =
      ServiceCallCache::Key(node.iface->name(), binding_key, chunk);
  auto it = state->inflight.find(key);
  if (it != state->inflight.end()) {
    // A speculative fetch covers this demand. It is charged like the fresh
    // call it replaced — including the budget check at the sequential
    // engine's exact abort point — and leaves the ledger, so a repeat
    // demand becomes an ordinary (free) cache hit, as it would have been
    // sequentially.
    if (state->options->cancel != nullptr &&
        state->options->cancel->cancelled()) {
      return state->options->cancel->ToStatus();
    }
    if (state->PastQueryDeadline()) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    if (state->charged_calls >= max_calls) return budget_error();
    std::unique_ptr<SpecFetch> fetch = std::move(it->second);
    state->inflight.erase(it);
    fetch->done.wait();
    // A failed speculation is never charged, so it must count as wasted —
    // consume-then-check would leak it out of both `total_calls` and
    // `speculative_wasted`, breaking `real calls = charged + wasted`.
    SECO_RETURN_IF_ERROR(fetch->response.status());
    ++state->speculative_consumed;
    ServiceResponse resp = std::move(fetch->response).value();
    ChargeCall(node, binding_key, chunk, resp.latency_ms,
               resp.fault_overhead_ms, state);
    return resp;
  }
  std::optional<ServiceResponse> cached = state->cache->Get(key);
  if (cached.has_value()) {
    ++state->cache_hits;
    ++state->node_stats[node.id].cache_hits;
    return std::move(*cached);
  }
  if (state->options->cancel != nullptr &&
      state->options->cancel->cancelled()) {
    return state->options->cancel->ToStatus();
  }
  if (state->PastQueryDeadline()) {
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  if (state->charged_calls >= max_calls) return budget_error();
  // Outstanding speculation holds the remaining budget slots; issuing one
  // more real call would overdraw max_calls. This can only fire while
  // speculation is in flight (never in a sequential run).
  if (state->reserved() >= max_calls) return budget_error();
  ServiceRequest request;
  request.inputs = binding;
  request.chunk_index = chunk;
  request.cancel = state->options->cancel;
  SECO_ASSIGN_OR_RETURN(ServiceResponse resp,
                        state->HandlerFor(node)->Call(request));
  // Cache the clean response — reliability overhead is charged exactly once,
  // here at consumption; a later cache hit must not replay it.
  ServiceResponse clean = resp;
  clean.fault_overhead_ms = 0.0;
  state->cache->Put(key, clean);
  ChargeCall(node, binding_key, chunk, resp.latency_ms,
             resp.fault_overhead_ms, state);
  return resp;
}

/// Fetches chunks into `entry` until it holds more than `index` items, the
/// fetch factor is reached, or the service is exhausted. Ahead of every
/// blocking fetch (and of the consumer, once enough items exist), the next
/// chunks of the binding are speculated so they overlap with consumption.
Status EnsureItem(const PlanNode& node, const std::string& binding_key,
                  const std::vector<Value>& binding, CacheEntry* entry,
                  RunState* state, size_t index) {
  const ServiceInterface& iface = *node.iface;
  int fetch_cap = FetchCap(node);
  while (entry->items.size() <= index && !entry->exhausted &&
         entry->chunks_fetched < fetch_cap) {
    // Chunk 0: one chunk ahead only — whether deeper chunks will ever be
    // consumed is unknown, and deep speculation would hold workers that
    // bindings further down the pipe need. Once the consumer crosses a
    // chunk boundary it has demonstrated appetite, so keep the full
    // `prefetch_depth` window in flight.
    if (entry->chunks_fetched == 0) {
      if (1 < fetch_cap) TrySpeculate(node, binding_key, binding, 1, state);
    } else {
      SpeculateChunks(node, binding_key, binding, entry->chunks_fetched + 1,
                      state);
    }
    SECO_ASSIGN_OR_RETURN(
        ServiceResponse resp,
        FetchChunk(node, binding_key, binding, entry->chunks_fetched, state));
    for (size_t t = 0; t < resp.tuples.size(); ++t) {
      entry->items.push_back(CacheEntry::Item{
          std::move(resp.tuples[t]),
          t < resp.scores.size() ? resp.scores[t] : 0.0,
          entry->chunks_fetched});
    }
    ++entry->chunks_fetched;
    if (resp.exhausted || !iface.is_chunked()) entry->exhausted = true;
  }
  if (!entry->exhausted && entry->chunks_fetched < fetch_cap) {
    SpeculateChunks(node, binding_key, binding, entry->chunks_fetched, state);
  }
  return Status::OK();
}

/// The distinct input bindings `node` derives from one pulled row; empty
/// when an input can only pipe from a degraded service.
Result<std::vector<std::vector<Value>>> ComputeNodeBindings(
    const PlanNode& node, const SRow& pulled, const RunState* state) {
  return NodeInputBindings(*state->query, node, pulled.tuples,
                           state->options->input_bindings,
                           state->degraded_atoms);
}

/// Row-driven speculation: a freshly pulled row already fixes the bindings
/// of every downstream service node whose providers it carries — in a pipe
/// the Flight and Hotel bindings are known the moment the Conference tuple
/// exists, long before the pull front reaches those operators. Warm their
/// opening chunks now, while the pull thread blocks on upstream demand
/// fetches. Binding computation is pure, so nodes whose providers are not
/// bound yet simply skip (the demand path surfaces real errors
/// deterministically); nodes whose atom the row already holds are upstream
/// and were fetched on the way here.
void SpeculateDownstream(const SRow& pulled, int self_id, RunState* state) {
  if (!state->speculate) return;
  for (const PlanNode* other : state->service_nodes) {
    if (other->id == self_id) continue;
    if (pulled.tuples[other->atom].has_value()) continue;
    Result<std::vector<std::vector<Value>>> bindings =
        ComputeNodeBindings(*other, pulled, state);
    if (!bindings.ok()) continue;
    // Opening chunk only: whether this row survives the intervening
    // selections is unknown until the upstream demand fetches return, so
    // deep speculation here is the most likely to be wasted — and it
    // would occupy workers that rows already past the filters need.
    // Deeper chunks pipeline through EnsureItem once consumption begins.
    size_t limit =
        std::min(static_cast<size_t>(state->options->prefetch_depth),
                 bindings.value().size());
    for (size_t b = 0; b < limit; ++b) {
      const std::vector<Value>& binding = bindings.value()[b];
      TrySpeculate(*other, SerializeBinding(binding), binding, 0, state);
    }
  }
}

/// Volcano-style operator interface.
class Op {
 public:
  virtual ~Op() = default;
  /// Fills *row with the next result; returns false at end of stream.
  virtual Result<bool> Next(SRow* row) = 0;
};

/// Emits the single empty seed row.
class InputOp : public Op {
 public:
  explicit InputOp(int num_atoms) : num_atoms_(num_atoms) {}
  Result<bool> Next(SRow* row) override {
    if (done_) return false;
    done_ = true;
    row->tuples.assign(num_atoms_, std::nullopt);
    row->scores.assign(num_atoms_, 0.0);
    row->chunk_ord = 0;
    return true;
  }

 private:
  int num_atoms_;
  bool done_ = false;
};

/// Emits one preset row (used to seed join-branch expanders).
class OneRowOp : public Op {
 public:
  explicit OneRowOp(SRow row) : row_(std::move(row)) {}
  Result<bool> Next(SRow* row) override {
    if (done_) return false;
    done_ = true;
    *row = row_;
    return true;
  }

 private:
  SRow row_;
  bool done_ = false;
};

/// Lazily extends upstream rows with a service's results: pipe joins,
/// constant/INPUT bindings, keep-per-input, pipe-group verification — the
/// streaming counterpart of the materializing engine's service node.
class ServiceCallOp : public Op {
 public:
  ServiceCallOp(std::unique_ptr<Op> upstream, const PlanNode* node,
                RunState* state, FetchCache* cache)
      : upstream_(std::move(upstream)), node_(node), state_(state),
        cache_(cache) {}

  Result<bool> Next(SRow* row) override {
    while (true) {
      if (!current_.has_value()) {
        SRow pulled;
        SECO_ASSIGN_OR_RETURN(bool got, upstream_->Next(&pulled));
        if (!got) return false;
        SECO_ASSIGN_OR_RETURN(bindings_,
                              ComputeNodeBindings(*node_, pulled, state_));
        SpeculateDownstream(pulled, node_->id, state_);
        current_ = std::move(pulled);
        binding_idx_ = 0;
        item_idx_ = 0;
        kept_ = 0;
        row_failed_ = false;
        if (bindings_.empty()) {
          // The row's only providers for this node's inputs came from a
          // degraded service: cascade the degradation so the partial row
          // passes through with this atom flagged missing too.
          state_->RecordDegraded(
              *node_,
              Status::Unavailable("input unavailable: piped from a "
                                  "degraded service"),
              /*cascaded=*/true);
          row_failed_ = true;
        }
      }
      while (binding_idx_ < bindings_.size()) {
        if (node_->keep_per_input > 0 && kept_ >= node_->keep_per_input) break;
        // While the current binding is consumed, warm up the opening chunks
        // of the next distinct bindings.
        if (state_->speculate) {
          size_t ahead = std::min(
              bindings_.size(),
              binding_idx_ + 1 +
                  static_cast<size_t>(state_->options->prefetch_depth));
          for (size_t b = binding_idx_ + 1; b < ahead; ++b) {
            TrySpeculate(*node_, SerializeBinding(bindings_[b]), bindings_[b],
                         0, state_);
          }
        }
        const std::vector<Value>& binding = bindings_[binding_idx_];
        CacheEntry& entry = (*cache_)[SerializeBinding(binding)];
        Status fetch_status = EnsureItem(*node_, SerializeBinding(binding),
                                         binding, &entry, state_, item_idx_);
        if (!fetch_status.ok()) {
          if (!state_->ShouldDegrade(fetch_status)) return fetch_status;
          // Permanent service failure under a degrade policy: mark the node
          // degraded, stop fetching this binding (items already fetched are
          // still consumed), and remember that this upstream row lost data —
          // if nothing else extends it, it passes through partially bound.
          state_->RecordDegraded(*node_, fetch_status);
          entry.exhausted = true;
          row_failed_ = true;
        }
        if (item_idx_ >= entry.items.size()) {
          ++binding_idx_;
          item_idx_ = 0;
          continue;
        }
        const CacheEntry::Item& item = entry.items[item_idx_++];
        SRow extended = *current_;
        extended.tuples[node_->atom] = item.tuple;
        extended.scores[node_->atom] = item.score;
        extended.chunk_ord = item.chunk_ord;
        SECO_ASSIGN_OR_RETURN(
            bool pipe_ok,
            PipeGroupsHold(*state_->query, node_->pipe_groups,
                           extended.tuples));
        if (!pipe_ok) continue;
        ++kept_;
        ++state_->node_stats[node_->id].tuples_out;
        *row = std::move(extended);
        return true;
      }
      // Row drained. If a degraded service left it with no extension at
      // all, pass it through unextended — downstream operators and the
      // output stage treat the missing (degraded) atom as partial data.
      if (kept_ == 0 && row_failed_) {
        SRow passthrough = std::move(*current_);
        current_.reset();
        ++state_->node_stats[node_->id].tuples_out;
        *row = std::move(passthrough);
        return true;
      }
      current_.reset();  // row drained; pull the next upstream row
    }
  }

 private:
  std::unique_ptr<Op> upstream_;
  const PlanNode* node_;
  RunState* state_;
  FetchCache* cache_;
  std::optional<SRow> current_;
  std::vector<std::vector<Value>> bindings_;
  size_t binding_idx_ = 0;
  size_t item_idx_ = 0;
  int kept_ = 0;
  /// True when a degraded-service failure cost the current row data.
  bool row_failed_ = false;
};

/// Filters rows by re-evaluating the touched atoms' selections (joint
/// single-instance rule) and residual join groups.
class SelectionOp : public Op {
 public:
  SelectionOp(std::unique_ptr<Op> upstream, const PlanNode* node,
              RunState* state)
      : upstream_(std::move(upstream)), node_(node), state_(state),
        atoms_(SelectionAtoms(*state->query, *node)) {}

  Result<bool> Next(SRow* row) override {
    while (true) {
      SRow pulled;
      SECO_ASSIGN_OR_RETURN(bool got, upstream_->Next(&pulled));
      if (!got) return false;
      SECO_ASSIGN_OR_RETURN(
          bool ok, SelectionHolds(*state_->query, *node_, atoms_, pulled.tuples,
                                  state_->options->input_bindings,
                                  state_->degraded_atoms));
      if (ok) {
        ++state_->node_stats[node_->id].tuples_out;
        *row = std::move(pulled);
        return true;
      }
    }
  }

 private:
  std::unique_ptr<Op> upstream_;
  const PlanNode* node_;
  RunState* state_;
  std::vector<int> atoms_;
};

/// Parallel join: per upstream row, materializes every branch but the last,
/// streams the last, and emits verified merges. With triangular completion
/// on two branches, candidate pairs beyond the fetch grid's anti-diagonal
/// are skipped (§4.4.2).
///
/// With speculation on, seeding an upstream row primes *all* branches
/// concurrently: the opening chunks of every branch's distinct bindings are
/// issued on the pool before the branch expanders start their (blocking)
/// demand fetches, so the branches' service calls overlap on the wall
/// clock — the §4 parallel invocation, realized at the fetch layer.
class JoinOp : public Op {
 public:
  JoinOp(std::unique_ptr<Op> upstream, std::vector<const PlanNode*> branches,
         const PlanNode* node, RunState* state,
         std::map<int, FetchCache>* caches)
      : upstream_(std::move(upstream)), branches_(std::move(branches)),
        node_(node), state_(state), caches_(caches) {}

  Result<bool> Next(SRow* row) override {
    const BoundQuery& query = *state_->query;
    while (true) {
      if (!seeded_) {
        SRow pulled;
        SECO_ASSIGN_OR_RETURN(bool got, upstream_->Next(&pulled));
        if (!got) return false;
        PrimeBranches(pulled);
        // Materialize all branches but the last.
        partials_.clear();
        partials_.push_back(pulled);
        for (size_t b = 0; b + 1 < branches_.size(); ++b) {
          std::vector<SRow> next;
          for (const SRow& base : partials_) {
            ServiceCallOp expander(std::make_unique<OneRowOp>(base),
                                   branches_[b], state_,
                                   &(*caches_)[branches_[b]->id]);
            SRow extended;
            while (true) {
              SECO_ASSIGN_OR_RETURN(bool more, expander.Next(&extended));
              if (!more) break;
              next.push_back(extended);
            }
          }
          partials_ = std::move(next);
        }
        last_ = std::make_unique<ServiceCallOp>(
            std::make_unique<OneRowOp>(pulled), branches_.back(), state_,
            &(*caches_)[branches_.back()->id]);
        have_last_row_ = false;
        partial_idx_ = 0;
        PrepareColumnar();
        seeded_ = true;
      }

      while (true) {
        if (!have_last_row_) {
          SECO_ASSIGN_OR_RETURN(bool got, last_->Next(&last_row_));
          if (!got) break;  // this upstream row is drained
          have_last_row_ = true;
          partial_idx_ = 0;
          PrepareMatches();
        }
        bool emitted = false;
        if (col_have_matches_) {
          // Kernel path: `col_matches_` holds exactly the partials whose key
          // equals this last row's (Value::Compare(kEq)-equivalent by
          // ComparableScalarMode), in ascending partial order — the scalar
          // loop's iteration order. The node's single equality group IS that
          // match, so no per-pair re-check runs.
          while (col_match_pos_ < col_matches_.size()) {
            const SRow& partial = partials_[col_matches_[col_match_pos_++]];
            if (branches_.size() == 2 &&
                node_->strategy.completion == JoinCompletion::kTriangular) {
              double fx = std::max(branches_[0]->fetch_factor, 1);
              double fy = std::max(branches_[1]->fetch_factor, 1);
              double pos = (partial.chunk_ord + 0.5) / fx +
                           (last_row_.chunk_ord + 0.5) / fy;
              if (pos > 1.0) continue;
            }
            SRow merged = partial;
            for (size_t a = 0; a < merged.tuples.size(); ++a) {
              if (last_row_.tuples[a].has_value() &&
                  !merged.tuples[a].has_value()) {
                merged.tuples[a] = last_row_.tuples[a];
                merged.scores[a] = last_row_.scores[a];
              }
            }
            ++state_->node_stats[node_->id].tuples_out;
            *row = std::move(merged);
            emitted = true;
            break;
          }
        } else {
          while (partial_idx_ < partials_.size()) {
            const SRow& partial = partials_[partial_idx_++];
            if (branches_.size() == 2 &&
                node_->strategy.completion == JoinCompletion::kTriangular) {
              double fx = std::max(branches_[0]->fetch_factor, 1);
              double fy = std::max(branches_[1]->fetch_factor, 1);
              double pos = (partial.chunk_ord + 0.5) / fx +
                           (last_row_.chunk_ord + 0.5) / fy;
              if (pos > 1.0) continue;
            }
            SRow merged = partial;
            for (size_t a = 0; a < merged.tuples.size(); ++a) {
              if (last_row_.tuples[a].has_value() &&
                  !merged.tuples[a].has_value()) {
                merged.tuples[a] = last_row_.tuples[a];
                merged.scores[a] = last_row_.scores[a];
              }
            }
            SECO_ASSIGN_OR_RETURN(
                bool ok, JoinGroupsHold(query, node_->join_groups,
                                        merged.tuples, state_->degraded_atoms));
            if (ok) {
              ++state_->node_stats[node_->id].tuples_out;
              *row = std::move(merged);
              emitted = true;
              break;
            }
          }
        }
        if (emitted) return true;
        have_last_row_ = false;  // exhausted partials for this last row
        col_have_matches_ = false;
      }
      seeded_ = false;  // advance to the next upstream row
    }
  }

 private:
  /// Issues the opening speculative fetches of every branch for one
  /// upstream row. Binding enumeration is repeated by the expanders right
  /// after (cheap, pure CPU); failures here are ignored — the demand path
  /// will surface them at the deterministic point.
  void PrimeBranches(const SRow& pulled) {
    if (!state_->speculate) return;
    // Seeding materializes every branch but the last in full, so those
    // branches' chunks up to the fetch cap are *certain* demand — issue
    // them all. The last branch streams on demand; only its opening chunk
    // is a sound bet here (deeper chunks pipeline once consumption proves
    // an appetite). Chunk-major across branches so that with few workers
    // every branch starts concurrently instead of one branch's deep chunks
    // starving the others' openers.
    struct Primed {
      const PlanNode* branch;
      std::vector<std::vector<Value>> bindings;
      int chunks;  // how deep to prime this branch
    };
    std::vector<Primed> primed;
    int max_chunks = 0;
    for (size_t b = 0; b < branches_.size(); ++b) {
      const PlanNode* branch = branches_[b];
      Result<std::vector<std::vector<Value>>> bindings =
          ComputeNodeBindings(*branch, pulled, state_);
      if (!bindings.ok()) continue;
      int chunks = b + 1 < branches_.size() ? FetchCap(*branch) : 1;
      max_chunks = std::max(max_chunks, chunks);
      primed.push_back(Primed{branch, std::move(bindings).value(), chunks});
    }
    for (int chunk = 0; chunk < max_chunks; ++chunk) {
      for (const Primed& p : primed) {
        if (chunk >= p.chunks) continue;
        for (const std::vector<Value>& binding : p.bindings) {
          TrySpeculate(*p.branch, SerializeBinding(binding), binding, chunk,
                       state_);
        }
      }
    }
  }

  /// Columnar fast path (docs/DATA_PLANE.md): when the node verifies exactly
  /// one all-atomic equality group whose endpoints split partials-side /
  /// last-branch-side, the partials' keys canonicalize once per seed and
  /// each last row takes one key-scan kernel over them instead of
  /// per-partial oracle calls. Any non-encodable key — or a degraded atom —
  /// falls back to the scalar loop, so answers are bit-identical.
  void PrepareColumnar() {
    col_ok_ = false;
    col_have_matches_ = false;
    if (!state_->degraded_atoms.empty()) return;
    if (node_->join_groups.size() != 1 || partials_.empty()) return;
    const BoundJoinGroup& group =
        state_->query->joins[node_->join_groups[0]];
    if (!IsAtomicEqJoinGroup(group)) return;
    const JoinClause& c = group.clauses[0];
    int last_atom = branches_.back()->atom;
    if (c.from_atom == last_atom && c.to_atom != last_atom) {
      col_last_path_ = c.from_path;
      col_partial_atom_ = c.to_atom;
      col_partial_path_ = c.to_path;
    } else if (c.to_atom == last_atom && c.from_atom != last_atom) {
      col_last_path_ = c.to_path;
      col_partial_atom_ = c.from_atom;
      col_partial_path_ = c.from_path;
    } else {
      return;
    }
    col_last_atom_ = last_atom;
    col_batch_.Clear();
    for (const SRow& partial : partials_) {
      const std::optional<Tuple>& t = partial.tuples[col_partial_atom_];
      if (!t.has_value() || col_partial_path_.attr_index < 0 ||
          col_partial_path_.attr_index >= t->num_slots() ||
          !t->IsAtomic(col_partial_path_.attr_index)) {
        col_batch_.Add(std::nullopt);
        break;
      }
      col_batch_.Add(CanonicalScalarKey(
          t->AtomicAt(col_partial_path_.attr_index), &col_dict_));
      if (!col_batch_.valid) break;
    }
    ++state_->columnar.chunks_decoded;
    if (!col_batch_.valid) {
      ++state_->columnar.decode_fallbacks;
      return;
    }
    col_ok_ = true;
  }

  /// Scans the current last row's canonical key against the partial batch.
  void PrepareMatches() {
    col_have_matches_ = false;
    if (!col_ok_) return;
    const std::optional<Tuple>& t = last_row_.tuples[col_last_atom_];
    std::optional<ScalarKey> key;
    if (t.has_value() && col_last_path_.attr_index >= 0 &&
        col_last_path_.attr_index < t->num_slots() &&
        t->IsAtomic(col_last_path_.attr_index)) {
      key = CanonicalScalarKey(t->AtomicAt(col_last_path_.attr_index),
                               &col_dict_);
    }
    KeyColumn view = col_batch_.View();
    std::optional<PairMode> mode;
    if (key.has_value()) mode = ComparableScalarMode(*key, view);
    if (!mode.has_value()) {
      ++state_->columnar.scalar_batches;
      state_->columnar.scalar_rows += static_cast<long long>(partials_.size());
      return;
    }
    auto t0 = std::chrono::steady_clock::now();
    col_matches_.clear();
    switch (*mode) {
      case PairMode::kI64:
        simd::MatchKeyI64(key->i64, view.i64, view.size, &col_matches_);
        break;
      case PairMode::kF64Bits:
        simd::MatchKeyI64(key->f64_bits, view.f64_bits, view.size,
                          &col_matches_);
        break;
      case PairMode::kDict:
        simd::MatchKeyU32(key->code, view.codes, view.size, &col_matches_);
        break;
    }
    state_->columnar.kernel_ns +=
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - t0)
            .count();
    ++state_->columnar.kernel_batches;
    state_->columnar.kernel_rows += static_cast<long long>(view.size);
    col_match_pos_ = 0;
    col_have_matches_ = true;
  }

  std::unique_ptr<Op> upstream_;
  std::vector<const PlanNode*> branches_;
  const PlanNode* node_;
  RunState* state_;
  std::map<int, FetchCache>* caches_;
  bool seeded_ = false;
  std::vector<SRow> partials_;
  std::unique_ptr<ServiceCallOp> last_;
  SRow last_row_;
  bool have_last_row_ = false;
  size_t partial_idx_ = 0;
  KeyDictionary col_dict_;
  ScalarKeyBatch col_batch_;
  bool col_ok_ = false;
  int col_partial_atom_ = -1;
  int col_last_atom_ = -1;
  AttrPath col_partial_path_;
  AttrPath col_last_path_;
  std::vector<int32_t> col_matches_;
  size_t col_match_pos_ = 0;
  bool col_have_matches_ = false;
};

/// Recursively builds the operator tree rooted at `node_id`.
Result<std::unique_ptr<Op>> BuildOp(const QueryPlan& plan, int node_id,
                                    RunState* state,
                                    std::map<int, FetchCache>* caches) {
  const PlanNode& node = plan.node(node_id);
  switch (node.kind) {
    case PlanNodeKind::kInput:
      return std::unique_ptr<Op>(
          std::make_unique<InputOp>(static_cast<int>(plan.query().atoms.size())));
    case PlanNodeKind::kServiceCall: {
      SECO_ASSIGN_OR_RETURN(std::unique_ptr<Op> upstream,
                            BuildOp(plan, node.inputs[0], state, caches));
      return std::unique_ptr<Op>(std::make_unique<ServiceCallOp>(
          std::move(upstream), &node, state, &(*caches)[node.id]));
    }
    case PlanNodeKind::kSelection: {
      SECO_ASSIGN_OR_RETURN(std::unique_ptr<Op> upstream,
                            BuildOp(plan, node.inputs[0], state, caches));
      return std::unique_ptr<Op>(
          std::make_unique<SelectionOp>(std::move(upstream), &node, state));
    }
    case PlanNodeKind::kParallelJoin: {
      if (node.join_upstream < 0) {
        return Status::Unsupported(
            "streaming engine requires join nodes with a recorded upstream");
      }
      SECO_ASSIGN_OR_RETURN(std::unique_ptr<Op> upstream,
                            BuildOp(plan, node.join_upstream, state, caches));
      std::vector<const PlanNode*> branches;
      for (int pred : node.inputs) {
        const PlanNode& branch = plan.node(pred);
        if (branch.kind != PlanNodeKind::kServiceCall) {
          return Status::Unsupported(
              "streaming engine supports service-call join branches only");
        }
        branches.push_back(&branch);
      }
      return std::unique_ptr<Op>(std::make_unique<JoinOp>(
          std::move(upstream), std::move(branches), &node, state, caches));
    }
    case PlanNodeKind::kOutput:
      return BuildOp(plan, node.inputs[0], state, caches);
  }
  return Status::Internal("unknown node kind");
}

}  // namespace

Result<StreamingResult> StreamingEngine::Execute(const QueryPlan& plan) {
  // An externally-imposed degradation level (docs/SERVER.md) only removes
  // work: level >= 1 drops speculation (the scaffold applies level >= 3).
  if (options_.degradation_level >= 1) options_.prefetch_depth = 0;
  return RunWithRepair(
      plan, options_, &StreamingResult::total_latency_ms,
      [this](const QueryPlan& p, ServiceCallCache* cache, bool force_degrade) {
        return ExecuteOnce(p, cache, force_degrade);
      });
}

Result<StreamingResult> StreamingEngine::ExecuteOnce(
    const QueryPlan& plan, ServiceCallCache* cache_override,
    bool force_degrade) {
  SECO_RETURN_IF_ERROR(plan.Validate());
  if (options_.interrupt != nullptr) options_.interrupt->Reset();
  // Link the sticky cancel token to the (resettable) pacing flag so a
  // cancel fired mid-run wakes realtime sleeps immediately. The Reset
  // above never un-cancels the token — only the flag is re-armed.
  if (options_.cancel != nullptr) {
    if (options_.cancel->cancelled()) return options_.cancel->ToStatus();
    options_.cancel->LinkInterrupt(options_.interrupt);
  }

  // The pool exists only to speculate on.
  RunScaffold scaffold(options_, cache_override, force_degrade,
                       options_.prefetch_depth > 0 ? options_.num_threads : 1,
                       options_.interrupt);
  RunState state;
  state.query = &plan.query();
  state.options = &options_;
  state.cache = scaffold.cache();
  state.scheduler = &scaffold.scheduler();
  state.speculate =
      scaffold.scheduler().concurrent() && options_.prefetch_depth > 0;
  state.policy = scaffold.policy();
  state.resilient = scaffold.resilient();
  SECO_ASSIGN_OR_RETURN(std::vector<int> order, plan.TopologicalOrder());
  for (int id : order) {
    const PlanNode& node = plan.node(id);
    if (node.kind == PlanNodeKind::kServiceCall && node.iface) {
      state.service_nodes.push_back(&node);
      state.handlers[node.id] = scaffold.Handler(*node.iface);
    }
  }
  std::map<int, FetchCache> caches;

  StreamingResult result;
  std::vector<double> weights = plan.query().EffectiveWeights();

  Status run_status = [&]() -> Status {
    SECO_ASSIGN_OR_RETURN(std::unique_ptr<Op> root,
                          BuildOp(plan, plan.output_node(), &state, &caches));
    SRow row;
    while (static_cast<int>(result.combinations.size()) < options_.k) {
      // Combination boundary: the pull pipeline's own cancellation point,
      // for plans whose next combination needs no further service calls
      // (everything cached) and would otherwise never hit a fetch check.
      if (options_.cancel != nullptr && options_.cancel->cancelled()) {
        return options_.cancel->ToStatus();
      }
      SECO_ASSIGN_OR_RETURN(bool got, root->Next(&row));
      if (!got) {
        result.exhausted = true;
        break;
      }
      Combination combo;
      if (!AssembleCombination(row.tuples, row.scores, weights,
                               state.degraded_atoms, &combo)) {
        continue;
      }
      result.combinations.push_back(std::move(combo));
    }
    return Status::OK();
  }();

  // Teardown: wake any realtime-mode sleeps, then wait out speculation still
  // in flight — worker jobs hold pointers into the run state and must not
  // outlive this frame. Their responses are already in the cache, so the
  // work is not lost, just not consumed by this run.
  if (options_.interrupt != nullptr) options_.interrupt->Trigger();
  for (auto& [key, fetch] : state.inflight) {
    if (fetch->done.valid()) fetch->done.wait();
  }
  result.speculative_calls = state.speculative_issued;
  result.speculative_wasted =
      state.speculative_issued - state.speculative_consumed;
  SECO_RETURN_IF_ERROR(run_status);

  result.total_calls = state.charged_calls;
  result.cache_hits = state.cache_hits;
  result.cache_misses = state.cache_misses;
  result.node_stats = std::move(state.node_stats);
  result.trace = std::move(state.trace);
  for (auto& [node_id, status] : state.degraded) {
    result.degraded.push_back(std::move(status));
  }
  result.columnar = state.columnar;

  // Overlap-aware simulated clock: per-node ready/finish times over the
  // plan DAG, exactly the materializing engine's model — parallel branches
  // count once, and the total is the critical path, not the sum. Computed
  // from charged latencies only, so it is identical at any thread count.
  std::map<int, double> finish;
  for (int id : order) {
    const PlanNode& node = plan.node(id);
    double ready_ms = 0.0;
    for (int pred : node.inputs) ready_ms = std::max(ready_ms, finish[pred]);
    NodeRuntimeStats& stats = result.node_stats[id];
    stats.finished_at_ms = ready_ms + stats.latency_ms;
    finish[id] = stats.finished_at_ms;
    result.total_latency_ms = std::max(result.total_latency_ms, finish[id]);
  }
  scaffold.Finish(state.overhead_consumed_ms, &result);
  return result;
}

}  // namespace seco
