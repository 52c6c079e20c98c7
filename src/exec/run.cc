#include "exec/run.h"

#include <algorithm>

#include "reliability/resilient_handler.h"
#include "service/invocation.h"

namespace seco {

namespace {

ReliabilityPolicy EffectivePolicy(const RunOptions& options,
                                  bool force_degrade) {
  ReliabilityPolicy policy = options.reliability;
  if (force_degrade || options.degradation_level >= 3) policy.degrade = true;
  return policy;
}

}  // namespace

RunScaffold::RunScaffold(const RunOptions& options,
                         ServiceCallCache* cache_override, bool force_degrade,
                         int pool_threads,
                         std::shared_ptr<InterruptFlag> interrupt)
    : options_(options),
      start_(std::chrono::steady_clock::now()),
      policy_(EffectivePolicy(options, force_degrade)),
      resilient_(policy_.enabled()),
      budget_(resilient_ ? options.max_calls : -1, options.cancel),
      local_breakers_(policy_.breaker_failure_threshold,
                      policy_.breaker_probe_interval),
      breakers_(options.shared_breakers != nullptr ? *options.shared_breakers
                                                   : local_breakers_),
      cache_(cache_override != nullptr  ? cache_override
             : options.cache != nullptr ? options.cache
                                        : &local_cache_),
      interrupt_(std::move(interrupt)),
      pool_(pool_threads > 1 ? std::make_unique<ThreadPool>(pool_threads)
                             : nullptr),
      scheduler_(pool_.get()) {
  scheduler_.SetCancel(options.cancel);
}

std::shared_ptr<ServiceCallHandler> RunScaffold::Handler(
    const ServiceInterface& iface) {
  if (!resilient_) return iface.handler_ptr();
  ReliabilityContext ctx;
  ctx.policy = policy_;
  ctx.budget = &budget_;
  ctx.ledger = &ledger_;
  ctx.breakers = &breakers_;
  ctx.hedge_pool = pool_.get();
  ctx.interrupt = interrupt_;
  ctx.lost = &lost_;
  ctx.cancel = options_.cancel;
  return std::make_shared<ResilientHandler>(iface.handler_ptr(), iface.name(),
                                            std::move(ctx));
}

void RunScaffold::Finish(double overhead_ms, RunResult* result) const {
  if (resilient_) {
    result->reliability = ledger_.Snapshot();
    result->reliability.overhead_ms = overhead_ms;
    result->reliability.breakers = breakers_.States();
    result->reliability.services_lost = lost_.Snapshot();
    result->open_breakers = breakers_.OpenBreakers();
  }
  result->complete = result->degraded.empty();
  result->degradation_level = options_.degradation_level;
  result->wall_clock_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start_)
                              .count();
}

Result<std::vector<std::vector<Value>>> NodeInputBindings(
    const BoundQuery& query, const PlanNode& node,
    const std::vector<std::optional<Tuple>>& tuples,
    const std::map<std::string, Value>& input_bindings,
    const std::set<int>& degraded_atoms) {
  std::vector<std::vector<Value>> bindings;
  bindings.emplace_back();
  const ServiceInterface& iface = *node.iface;
  for (const AttrPath& in_path : iface.pattern().input_paths()) {
    // Candidate values of this input path (several when piped from a
    // repeating-group sub-attribute).
    std::vector<Value> values;
    bool provider_degraded = false;
    for (int sel_idx : node.input_selections) {
      const BoundSelection& sel = query.selections[sel_idx];
      if (sel.atom == node.atom && sel.path == in_path) {
        SECO_ASSIGN_OR_RETURN(Value v,
                              query.ResolveSelectionValue(sel, input_bindings));
        values.push_back(std::move(v));
      }
    }
    if (values.empty()) {
      for (int group_idx : node.pipe_groups) {
        for (const JoinClause& clause : query.joins[group_idx].clauses) {
          int provider = -1;
          AttrPath provider_path;
          if (clause.to_atom == node.atom && clause.to_path == in_path) {
            provider = clause.from_atom;
            provider_path = clause.from_path;
          } else if (clause.from_atom == node.atom &&
                     clause.from_path == in_path) {
            provider = clause.to_atom;
            provider_path = clause.to_path;
          }
          if (provider < 0) continue;
          if (!tuples[provider].has_value()) {
            if (degraded_atoms.count(provider) > 0) provider_degraded = true;
            continue;
          }
          tuples[provider]->ForEachCandidateAt(
              provider_path, [&values](const Value& v) {
                values.push_back(v);
                return true;
              });
        }
        if (!values.empty()) break;
      }
    }
    if (values.empty()) {
      if (provider_degraded) return std::vector<std::vector<Value>>{};
      return Status::Internal("engine: unbound input " +
                              iface.schema().PathToString(in_path) +
                              " of service " + iface.name());
    }
    std::vector<std::vector<Value>> next;
    for (const std::vector<Value>& prefix : bindings) {
      for (const Value& v : values) {
        std::vector<Value> extended = prefix;
        extended.push_back(v);
        next.push_back(std::move(extended));
      }
    }
    bindings = std::move(next);
  }
  return bindings;
}

Result<bool> PipeGroupsHold(const BoundQuery& query,
                            const std::vector<int>& groups,
                            const std::vector<std::optional<Tuple>>& tuples) {
  for (int group_idx : groups) {
    const BoundJoinGroup& group = query.joins[group_idx];
    int a = group.clauses[0].from_atom, b = group.clauses[0].to_atom;
    if (!tuples[a].has_value() || !tuples[b].has_value()) continue;
    SECO_ASSIGN_OR_RETURN(bool holds,
                          HoldsJoinGroup(query, group, *tuples[a], *tuples[b]));
    if (!holds) return false;
  }
  return true;
}

Result<bool> JoinGroupsHold(const BoundQuery& query,
                            const std::vector<int>& groups,
                            const std::vector<std::optional<Tuple>>& tuples,
                            const std::set<int>& degraded_atoms) {
  for (int group_idx : groups) {
    const BoundJoinGroup& group = query.joins[group_idx];
    int a = group.clauses[0].from_atom, b = group.clauses[0].to_atom;
    bool unverifiable = false;
    for (int atom : {a, b}) {
      if (tuples[atom].has_value()) continue;
      if (degraded_atoms.count(atom) == 0) return false;
      unverifiable = true;
    }
    if (unverifiable) continue;
    SECO_ASSIGN_OR_RETURN(bool holds,
                          HoldsJoinGroup(query, group, *tuples[a], *tuples[b]));
    if (!holds) return false;
  }
  return true;
}

std::vector<int> SelectionAtoms(const BoundQuery& query, const PlanNode& node) {
  std::vector<int> atoms;
  for (int sel_idx : node.selections) {
    int atom = query.selections[sel_idx].atom;
    if (std::find(atoms.begin(), atoms.end(), atom) == atoms.end()) {
      atoms.push_back(atom);
    }
  }
  return atoms;
}

Result<bool> SelectionHolds(const BoundQuery& query, const PlanNode& node,
                            const std::vector<int>& atoms,
                            const std::vector<std::optional<Tuple>>& tuples,
                            const std::map<std::string, Value>& input_bindings,
                            const std::set<int>& degraded_atoms) {
  for (int atom : atoms) {
    if (!tuples[atom].has_value()) {
      if (degraded_atoms.count(atom) > 0) continue;
      return false;
    }
    SECO_ASSIGN_OR_RETURN(
        bool holds,
        SatisfiesSelections(query, atom, *tuples[atom], input_bindings));
    if (!holds) return false;
  }
  return JoinGroupsHold(query, node.residual_join_groups, tuples,
                        degraded_atoms);
}

bool AssembleCombination(const std::vector<std::optional<Tuple>>& tuples,
                         const std::vector<double>& scores,
                         const std::vector<double>& weights,
                         const std::set<int>& degraded_atoms,
                         Combination* combo) {
  const size_t num_atoms = tuples.size();
  combo->components.reserve(num_atoms);
  combo->component_scores.reserve(num_atoms);
  double total = 0.0;
  for (size_t a = 0; a < num_atoms; ++a) {
    if (!tuples[a].has_value()) {
      // Partial answers survive only when every hole traces back to a
      // degraded service; structurally incomplete rows still drop.
      if (degraded_atoms.count(static_cast<int>(a)) == 0) return false;
      combo->components.emplace_back();
      combo->component_scores.push_back(0.0);
      combo->missing_atoms.push_back(static_cast<int>(a));
      continue;
    }
    combo->components.push_back(*tuples[a]);
    combo->component_scores.push_back(scores[a]);
    total += weights[a] * scores[a];
  }
  combo->combined_score = total;
  return true;
}

}  // namespace seco
