#ifndef SECO_CORE_SECO_H_
#define SECO_CORE_SECO_H_

/// \file
/// Umbrella header: include this to get the whole public SeCo API.
///
/// SeCo reproduces the Search Computing query processor: multi-domain
/// conjunctive queries over ranked *search services* and relational *exact
/// services*, compiled into dataflow plans whose joins are explored with
/// nested-loop / merge-scan invocation and rectangular / triangular
/// completion strategies, optimized by a three-phase branch-and-bound.
///
/// Layering (each header is independently includable):
///   common/    Status, Result, deterministic RNG
///   service/   values, tuples, schemas, access patterns, interfaces, marts
///   sim/       simulated service substrate + scenario fixtures
///   query/     parser, binder, feasibility, reference semantics
///   plan/      plan DAGs, cardinality annotation, topology builder
///   join/      search-space model, parallel/pipe join executors
///   cost/      the five cost metrics of the chapter
///   optimizer/ three-phase branch-and-bound + WSMS baseline
///   reliability/ fault-handling decorators: retry, deadlines, breakers
///   repair/    mid-query plan repair: replica failover + re-optimization
///   exec/      dataflow execution engine
///   server/    overload-safe query server: admission, shedding, degradation
///   net/       TCP front end, wire codec, remote backend adapters
///   core/      QuerySession facade

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/session.h"
#include "cost/metrics.h"
#include "exec/call_cache.h"
#include "exec/call_scheduler.h"
#include "exec/engine.h"
#include "exec/estimate_report.h"
#include "exec/resumable.h"
#include "exec/streaming.h"
#include "join/clock.h"
#include "join/parallel_join.h"
#include "join/pipe_join.h"
#include "join/search_space.h"
#include "join/strategy_select.h"
#include "join/topk_join.h"
#include "net/backend_server.h"
#include "net/chaos.h"
#include "net/client.h"
#include "net/net_server.h"
#include "net/remote_handler.h"
#include "net/socket.h"
#include "net/tcp_server.h"
#include "net/wire.h"
#include "optimizer/augmentation.h"
#include "optimizer/calibration.h"
#include "optimizer/optimizer.h"
#include "optimizer/wsms_baseline.h"
#include "plan/annotate.h"
#include "plan/builder.h"
#include "plan/plan.h"
#include "plan/plan_json.h"
#include "query/feasibility.h"
#include "query/parser.h"
#include "query/printer.h"
#include "query/semantics.h"
#include "reliability/circuit_breaker.h"
#include "reliability/policy.h"
#include "reliability/resilient_handler.h"
#include "repair/plan_repairer.h"
#include "repair/repair.h"
#include "repair/repair_driver.h"
#include "server/admission.h"
#include "server/degradation.h"
#include "server/server.h"
#include "service/registry.h"
#include "sim/fault_model.h"
#include "sim/fixtures.h"
#include "sim/load_generator.h"
#include "sim/service_builder.h"

#endif  // SECO_CORE_SECO_H_
