#!/usr/bin/env bash
# Runs a gtest binary on a --gtest_filter, under a 600 s timeout, and fails
# when the filter selects no test: gtest itself exits 0 on an empty
# selection, so a filter left behind by a renamed or deleted test would
# pass silently.
#
# Usage: tools/run_gtest_filter.sh BINARY FILTER [GTEST_ARGS...]
set -euo pipefail
if [ "$#" -lt 2 ]; then
  echo "usage: $0 BINARY FILTER [GTEST_ARGS...]" >&2
  exit 2
fi
bin=$1
filter=$2
shift 2
# --gtest_list_tests prints each selected test indented under its suite.
selected=$("$bin" --gtest_list_tests --gtest_filter="$filter" | grep -c '^  ' || true)
if [ "$selected" -eq 0 ]; then
  echo "error: --gtest_filter='$filter' selects no test in $bin" >&2
  exit 1
fi
echo "$bin: --gtest_filter='$filter' selects $selected test(s)"
exec timeout 600 "$bin" --gtest_filter="$filter" "$@"
