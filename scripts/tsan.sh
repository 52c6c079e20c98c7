#!/usr/bin/env bash
# Build the concurrency-sensitive targets under ThreadSanitizer and run the
# tests that exercise real multithreading. Use this after touching the thread
# pool, the call scheduler, the call cache, or the engine's fetch passes.
#
# Usage: scripts/tsan.sh [extra ctest args...]
#
# SECO_TSAN_TARGETS / SECO_TSAN_REGEX narrow the build targets and test
# selection (the CI net-chaos job uses them to sanitize just the network
# stack instead of rebuilding every concurrency test).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build-tsan

TARGETS="${SECO_TSAN_TARGETS:-thread_pool_test call_cache_test \
  concurrency_determinism_test streaming_prefetch_test streaming_test \
  join_methods_test engine_test engine_advanced_test integration_test \
  reliability_test fault_recovery_test columnar_kernels_test \
  memo_table_test answer_cache_test plan_signature_test query_server_test \
  wire_test remote_handler_test net_server_test net_equivalence_test \
  net_chaos_test net_cancel_test}"
REGEX="${SECO_TSAN_REGEX:-ThreadPool|CallCache|ConcurrencyDeterminism|StreamingPrefetch|Streaming|ParallelJoin|Engine|Integration|Reliability|RetryPolicy|CircuitBreaker|CallBudget|ResilientHandler|RetryStorm|FaultRecovery|KernelFuzz|CanonicalKey|ColumnChunk|Columnar|MemoTable|AnswerCache|PlanSignature|PlanMemo|Wire|FrameDecoder|AnswerBody|RemoteHandler|NetServer|NetEquivalence|NetChaos|NetCancel}"

cmake -B "${BUILD_DIR}" -S . -DSECO_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
# shellcheck disable=SC2086  # TARGETS is a word list by design
cmake --build "${BUILD_DIR}" -j"$(nproc)" --target ${TARGETS}

cd "${BUILD_DIR}"
ctest --output-on-failure -j"$(nproc)" -R "${REGEX}" "$@"
