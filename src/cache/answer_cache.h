#ifndef SECO_CACHE_ANSWER_CACHE_H_
#define SECO_CACHE_ANSWER_CACHE_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "cache/memo_table.h"
#include "cache/plan_memo.h"
#include "cache/signature.h"
#include "exec/streaming.h"
#include "reliability/policy.h"
#include "repair/repair.h"

namespace seco {

/// A complete served answer, stored once and shared by every warm hit.
/// Exactly the bytes a fresh execution would have produced: `execution` for
/// materializing requests, `streaming` for streaming ones.
struct CachedAnswer : RunPayload {};

/// Everything besides the query text and bindings that selects an answer.
/// Composition rules (see docs/CACHING.md):
///  IN  — k, call budget, degradation level, streaming mode, and the
///        reliability / repair / optimizer configuration fingerprints: each
///        of these changes which answers come back.
///  OUT — num_threads, prefetch_depth, kernel choice: the determinism
///        suites prove answers bit-identical across them, so folding them
///        in would only splinter the cache.
struct AnswerKey {
  Signature query;  ///< QueryAnswerSignature of the bound query
  int k = 10;
  int max_calls = 10000;
  int degradation_level = 0;
  bool streaming = false;
  uint64_t reliability_fp = 0;
  uint64_t repair_fp = 0;
  uint64_t optimizer_fp = 0;
};

/// Fingerprint of every ReliabilityPolicy field (retry schedule incl. the
/// jitter seed, deadlines, breaker thresholds, hedging, degrade flag) — any
/// of them can change answers or the reliability stats stored with them.
uint64_t ReliabilityFingerprint(const ReliabilityPolicy& policy);

/// Fingerprint of RepairOptions: policy, round budget, and the replanning
/// optimizer configuration. The registry pointer is excluded — registry
/// *content* changes are handled by generation invalidation instead.
uint64_t RepairFingerprint(const RepairOptions& options);

/// Folds an AnswerKey and the user's input bindings into the final
/// answer-cache signature.
Signature AnswerSignature(const AnswerKey& key,
                          const std::map<std::string, Value>& bindings);

/// Whole-answer cache: a lock-free MemoTable of CachedAnswers plus
/// single-flight dogpile suppression — when N identical cold queries arrive
/// concurrently, one (the leader) executes and publishes; the other N-1
/// (followers) block on a shared future and reuse the leader's answer.
/// Probes never block; only cold-miss coordination takes the flight mutex.
class AnswerCache {
 public:
  explicit AnswerCache(size_t byte_budget);

  /// Outcome of JoinOrLead. Exactly one of three shapes:
  ///  - `cached` set: warm hit, serve it;
  ///  - `leader` true: caller must execute and then call CompleteFlight
  ///    (with nullptr on failure) — exactly once;
  ///  - otherwise: follower; `wait.get()` yields the leader's answer, or
  ///    nullptr when the leader's execution was uncacheable (the follower
  ///    then executes on its own, without leading a new flight).
  struct Flight {
    bool leader = false;
    std::shared_ptr<const CachedAnswer> cached;
    std::shared_future<std::shared_ptr<const CachedAnswer>> wait;
  };

  /// Lock-free warm probe.
  std::shared_ptr<const CachedAnswer> Probe(const Signature& sig);

  /// Probe + single-flight admission for the execution path.
  Flight JoinOrLead(const Signature& sig);

  /// Publishes the leader's answer (nullptr = uncacheable) and releases all
  /// followers of `sig`. Must be called exactly once per led flight.
  void CompleteFlight(const Signature& sig,
                      std::shared_ptr<const CachedAnswer> answer);

  /// Direct insertion (no flight bookkeeping).
  void Insert(const Signature& sig, CachedAnswer answer);

  void BumpGeneration() { table_.BumpGeneration(); }
  uint64_t generation() const { return table_.generation(); }

  MemoStats stats() const { return table_.stats(); }
  int64_t flights_led() const;
  int64_t flights_followed() const;

 private:
  struct SigHash {
    size_t operator()(const Signature& s) const {
      return static_cast<size_t>(s.lo ^ Mix64(s.hi));
    }
  };
  struct InFlight {
    std::promise<std::shared_ptr<const CachedAnswer>> promise;
    std::shared_future<std::shared_ptr<const CachedAnswer>> future;
  };

  MemoTable<CachedAnswer> table_;
  std::mutex flights_mu_;
  std::unordered_map<Signature, std::shared_ptr<InFlight>, SigHash> inflight_;
  std::atomic<int64_t> flights_led_{0};
  std::atomic<int64_t> flights_followed_{0};
};

/// Rough payload footprint of a cached answer, for the table's byte budget.
size_t EstimateAnswerBytes(const CachedAnswer& answer);

}  // namespace seco

#endif  // SECO_CACHE_ANSWER_CACHE_H_
