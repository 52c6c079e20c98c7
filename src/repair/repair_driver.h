#ifndef SECO_REPAIR_REPAIR_DRIVER_H_
#define SECO_REPAIR_REPAIR_DRIVER_H_

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/call_cache.h"
#include "exec/run.h"
#include "plan/plan.h"
#include "repair/plan_repairer.h"
#include "repair/repair.h"

namespace seco {

/// Per interface, the calls a round left warm in the call cache: charged
/// calls plus the hits it replayed itself, summed over its service nodes.
inline std::map<std::string, int64_t> WarmCalls(const RunResult& result,
                                                const QueryPlan& plan) {
  std::map<std::string, int64_t> warm_calls;
  for (const auto& [id, stats] : result.node_stats) {
    const PlanNode& node = plan.node(id);
    if (node.kind != PlanNodeKind::kServiceCall || node.iface == nullptr) {
      continue;
    }
    warm_calls[node.iface->name()] += stats.calls + stats.cache_hits;
  }
  return warm_calls;
}

/// The run-repair-rerun loop shared by both engines; `R` is the engine's
/// result type.
///
/// - `run_round(plan, cache_override, force_degrade)` executes one round.
///   The repair policies run every round with degradation forced on; the
///   failover policies also attach one `ServiceCallCache` to all rounds,
///   so an abandoned round's chunks are salvaged by the next round as
///   cache hits.
/// - `clock` is the member holding a round's simulated critical path,
///   logged as `abandoned_ms` for rounds that get replanned away.
///
/// Determinism: a round's degraded set derives from the seeded fault model
/// via deterministic request ordinals, so the lost-service set — and hence
/// every replanning decision — is identical at any `{num_threads,
/// prefetch_depth}`. Replanning time is wall-clock and goes to
/// `RepairStats.replan_ms` only.
template <typename R, typename RoundFn>
Result<R> RunWithRepair(const QueryPlan& plan, const RunOptions& run_options,
                        double R::*clock, const RoundFn& run_round) {
  const RepairOptions& options = run_options.repair;
  switch (options.policy) {
    case RepairPolicy::kOff:
      return run_round(plan, nullptr, /*force_degrade=*/false);
    case RepairPolicy::kDegrade:
      return run_round(plan, nullptr, /*force_degrade=*/true);
    default:
      break;
  }
  if (options.registry == nullptr) {
    return Status::InvalidArgument(
        "repair policy '" + std::string(RepairPolicyToString(options.policy)) +
        "' requires RepairOptions::registry");
  }
  // Wasted speculation of earlier rounds also lands in the shared cache, so
  // repaired runs compare on combinations, not call counts, across prefetch
  // depths.
  ServiceCallCache round_cache;
  ServiceCallCache* cache =
      run_options.cache != nullptr ? run_options.cache : &round_cache;
  PlanRepairer repairer(*options.registry, options.optimizer);
  RepairStats stats;
  std::set<std::string> dead;
  QueryPlan current = plan;

  for (int round = 0;; ++round) {
    SECO_ASSIGN_OR_RETURN(R result,
                          run_round(current, cache, /*force_degrade=*/true));

    // Services lost *by this round's own faults*: direct (non-cascaded,
    // non-deadline) degradations not already written off. Deterministic —
    // unlike the ServiceLostCollector, which also sees speculative fetches.
    std::vector<std::string> lost;
    for (const DegradedStatus& d : result.degraded) {
      if (d.cascaded || d.query_deadline) continue;
      if (d.service.empty() || dead.count(d.service) > 0) continue;
      lost.push_back(d.service);
    }
    std::sort(lost.begin(), lost.end());
    lost.erase(std::unique(lost.begin(), lost.end()), lost.end());

    const bool out_of_rounds = round >= options.max_rounds;
    if (lost.empty() || out_of_rounds) {
      stats.salvaged_calls = round > 0 ? result.cache_hits : 0;
      if (options.policy == RepairPolicy::kFailover && !result.complete) {
        std::string detail = out_of_rounds && !lost.empty()
                                 ? "repair rounds exhausted"
                                 : "plan still degraded after repair";
        return Status::Unavailable("failover repair failed: " + detail);
      }
      result.repair = std::move(stats);
      return result;
    }

    stats.events += static_cast<int>(lost.size());
    stats.abandoned_ms += result.*clock;
    std::map<std::string, int64_t> warm_calls = WarmCalls(result, current);
    for (const std::string& name : lost) dead.insert(name);

    auto t0 = std::chrono::steady_clock::now();
    Result<RepairedPlan> repaired =
        repairer.Repair(current, lost, dead, warm_calls);
    stats.replan_ms +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();

    if (!repaired.ok()) {
      if (options.policy == RepairPolicy::kFailover) {
        return repaired.status();
      }
      // failover_then_degrade: the round we already ran *is* the degraded
      // answer; keep it and log why no repair happened.
      for (const std::string& name : lost) {
        stats.log.push_back({name, "", repaired.status().message()});
      }
      stats.salvaged_calls = round > 0 ? result.cache_hits : 0;
      result.repair = std::move(stats);
      return result;
    }

    RepairedPlan rp = std::move(repaired).value();
    ++stats.replans;
    for (const ReplicaChoice& choice : rp.choices) {
      stats.log.push_back({choice.lost, choice.replacement, "failover"});
    }
    for (const std::string& name : rp.unrepaired) {
      stats.log.push_back({name, "", "no feasible replica"});
    }
    if (options.policy == RepairPolicy::kFailover && !rp.unrepaired.empty()) {
      std::string names;
      for (const std::string& name : rp.unrepaired) {
        if (!names.empty()) names += ", ";
        names += name;
      }
      return Status::Unavailable("no feasible replica for: " + names);
    }
    current = std::move(rp.plan);
  }
}

}  // namespace seco

#endif  // SECO_REPAIR_REPAIR_DRIVER_H_
