#include "cache/answer_cache.h"

namespace seco {
namespace {

constexpr uint64_t kSaltReliability = 0x8E11AB111171ULL;
constexpr uint64_t kSaltRepair = 0x8E9A118C0DEULL;
constexpr uint64_t kSaltAnswerKey = 0xA05118E48E7ULL;

}  // namespace

uint64_t ReliabilityFingerprint(const ReliabilityPolicy& policy) {
  SignatureBuilder b(kSaltReliability);
  b.AddInt(policy.retry.max_retries);
  b.AddDouble(policy.retry.backoff_base_ms);
  b.AddDouble(policy.retry.backoff_multiplier);
  b.AddDouble(policy.retry.backoff_cap_ms);
  b.AddDouble(policy.retry.jitter_fraction);
  b.Add(policy.retry.jitter_seed);
  b.AddDouble(policy.call_deadline_ms);
  b.AddDouble(policy.query_deadline_ms);
  b.AddInt(policy.breaker_failure_threshold);
  b.AddInt(policy.breaker_probe_interval);
  b.AddDouble(policy.hedge_delay_ms);
  b.AddBool(policy.degrade);
  Signature s = b.Finish();
  return Mix64(s.lo) ^ s.hi;
}

uint64_t RepairFingerprint(const RepairOptions& options) {
  SignatureBuilder b(kSaltRepair);
  b.AddInt(static_cast<int64_t>(options.policy));
  b.AddInt(options.max_rounds);
  b.Add(OptimizerFingerprint(options.optimizer));
  Signature s = b.Finish();
  return Mix64(s.lo) ^ s.hi;
}

Signature AnswerSignature(const AnswerKey& key,
                          const std::map<std::string, Value>& bindings) {
  SignatureBuilder b(kSaltAnswerKey);
  b.AddSignature(key.query);
  b.AddInt(key.k);
  b.AddInt(key.max_calls);
  b.AddInt(key.degradation_level);
  b.AddBool(key.streaming);
  b.Add(key.reliability_fp);
  b.Add(key.repair_fp);
  b.Add(key.optimizer_fp);
  return CombineBindings(b.Finish(), bindings);
}

AnswerCache::AnswerCache(size_t byte_budget) : table_(byte_budget) {}

std::shared_ptr<const CachedAnswer> AnswerCache::Probe(const Signature& sig) {
  return table_.Probe(sig);
}

AnswerCache::Flight AnswerCache::JoinOrLead(const Signature& sig) {
  Flight flight;
  flight.cached = table_.Probe(sig);
  if (flight.cached) return flight;

  std::lock_guard<std::mutex> lock(flights_mu_);
  auto it = inflight_.find(sig);
  if (it != inflight_.end()) {
    flight.wait = it->second->future;
    flights_followed_.fetch_add(1, std::memory_order_relaxed);
    return flight;
  }
  // Re-probe under the flight lock: a leader may have published and erased
  // its flight since the lock-free probe above. CompleteFlight inserts
  // before it takes this lock to erase, so no flight here means any answer
  // it published is already visible.
  flight.cached = table_.Probe(sig);
  if (flight.cached) return flight;
  auto entry = std::make_shared<InFlight>();
  entry->future = entry->promise.get_future().share();
  inflight_.emplace(sig, std::move(entry));
  flight.leader = true;
  flights_led_.fetch_add(1, std::memory_order_relaxed);
  return flight;
}

void AnswerCache::CompleteFlight(const Signature& sig,
                                 std::shared_ptr<const CachedAnswer> answer) {
  if (answer) {
    // Benefit = simulated execution time saved per future hit.
    table_.Insert(sig, *answer, answer->critical_path_ms(),
                  EstimateAnswerBytes(*answer));
  }
  std::shared_ptr<InFlight> entry;
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = inflight_.find(sig);
    if (it == inflight_.end()) return;
    entry = std::move(it->second);
    inflight_.erase(it);
  }
  entry->promise.set_value(std::move(answer));
}

void AnswerCache::Insert(const Signature& sig, CachedAnswer answer) {
  const double benefit = answer.critical_path_ms();
  const size_t bytes = EstimateAnswerBytes(answer);
  table_.Insert(sig, std::move(answer), benefit, bytes);
}

int64_t AnswerCache::flights_led() const {
  return flights_led_.load(std::memory_order_relaxed);
}

int64_t AnswerCache::flights_followed() const {
  return flights_followed_.load(std::memory_order_relaxed);
}

namespace {

size_t CombinationBytes(const std::vector<Combination>& combinations) {
  size_t bytes = 0;
  for (const Combination& c : combinations) {
    bytes += sizeof(Combination) + c.components.size() * 160 +
             c.component_scores.size() * sizeof(double);
  }
  return bytes;
}

}  // namespace

size_t EstimateAnswerBytes(const CachedAnswer& answer) {
  const RunResult& run = answer.run();
  return sizeof(CachedAnswer) + 256 + CombinationBytes(run.combinations) +
         run.node_stats.size() * 96 + run.trace.size() * 128;
}

}  // namespace seco
