#!/usr/bin/env bash
# Checks that test names depend only on the source: every test binary of one
# build, listed twice, must print the same names and parameter values.
# gtest_discover_tests names a parameterized instance after its printed
# parameter, and gtest prints a struct without a `PrintTo` as raw bytes —
# pointers and padding included — which differ on every run under ASLR.
#
# Usage: scripts/test_names.sh [BUILD_DIR]   (default: build, already built)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

status=0
checked=0
for bin in "${BUILD_DIR}"/tests/*_test; do
  [[ -x "${bin}" ]] || continue
  first="$("${bin}" --gtest_list_tests)"
  second="$("${bin}" --gtest_list_tests)"
  checked=$((checked + 1))
  if [[ "${first}" != "${second}" ]]; then
    echo "FAIL: ${bin} lists different tests on two runs:" >&2
    diff <(echo "${first}") <(echo "${second}") | head -n 10 >&2 || true
    status=1
  fi
done
if [[ "${checked}" -eq 0 ]]; then
  echo "FAIL: no test binaries under ${BUILD_DIR}/tests" >&2
  exit 1
fi
echo "test names: ${checked} binaries listed identically twice"
exit "${status}"
