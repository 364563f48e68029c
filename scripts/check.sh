#!/usr/bin/env bash
# Full verification ladder: lint, tier-1 tests, optimized perf gate (GP
# engine speedups + transport latency/recovery ceilings), the sanitizer
# tiers (ASan+UBSan+LSan, TSan at thread counts 2 and 8, then standalone
# UBSan with every finding fatal), the lockdep tier (whole suite plus the
# transport smoke with runtime lock-order checking fatal), and the
# multi-process transport smoke under both sanitizers.
#
#   scripts/check.sh            # every tier
#   scripts/check.sh --fast     # lint + tier-1 + release smoke only
#
# Builds live under build/, build-release/, build-asan/, build-tsan/,
# build-ubsan/, and build-lockdep/ (Debug: the affinity asserts and the
# EXPECT_DEATH coverage only exist without NDEBUG) so
# repeat runs are incremental. All builds carry EDGEBOL_WERROR=ON: a warning
# anywhere is a failure here even though plain developer builds stay lenient.
# A summary table of tier outcomes prints on exit, success or failure.

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

declare -a TIER_NAMES=() TIER_STATUS=()
CURRENT_TIER=""

summary() {
  echo
  echo "== tier summary =="
  printf '%-28s %s\n' "tier" "status"
  printf '%-28s %s\n' "----" "------"
  for i in "${!TIER_NAMES[@]}"; do
    printf '%-28s %s\n' "${TIER_NAMES[$i]}" "${TIER_STATUS[$i]}"
  done
  if [[ -n "$CURRENT_TIER" ]]; then
    printf '%-28s %s\n' "$CURRENT_TIER" "FAIL"
  fi
}
trap summary EXIT

begin_tier() {
  CURRENT_TIER="$1"
  echo
  echo "== $1 =="
}

end_tier() {  # $1 = status (pass/skip note)
  TIER_NAMES+=("$CURRENT_TIER")
  TIER_STATUS+=("${1:-pass}")
  CURRENT_TIER=""
}

begin_tier "lint"
# clang-format verification rides along via --check (skips when the tool is
# absent); clang-tidy + invariant lints are the hard gate.
scripts/lint.sh --check
end_tier pass

begin_tier "tier-1 (debug ctest)"
cmake -B build -S . -DEDGEBOL_WERROR=ON >/dev/null
cmake --build build -j >/dev/null
ctest --test-dir build --output-on-failure -j "$(nproc)"
end_tier pass

begin_tier "release smoke + perf gate"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DEDGEBOL_WERROR=ON \
  -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG" >/dev/null
cmake --build build-release -j >/dev/null
ctest --test-dir build-release --output-on-failure -j "$(nproc)"
# Engine-vs-reference correctness gate (1e-9) + per-phase timings; exits
# non-zero on mismatch (this includes the decide phase's engine-vs-legacy
# decision identity check). BENCH_gp.json lands in build-release/.
# Perf gates, two invocations over the same JSON (speedup mode and --ceiling
# mode are mutually exclusive in perf_gate.py):
#  1. Speedups: every phase must keep the engine at >= 0.95x of the
#     reference, except `track`, floored at 0.90: at smoke sizes the
#     engine's track used to sit at parity (0.91-1.04 across runs); the
#     fused cross-kernel rebuild now puts it above 1.0, but a 0.95 floor
#     would still gate on scheduler noise — 0.90 trips on real slowdowns.
#  2. Decision-path ceiling: one full decision (bound maintenance + safe
#     set + acquisition) at the full 11^4 grid with the budget at 200 must
#     stay under 1 ms at p99, serial and with an 8-thread pool (measured
#     p50 ~0.35 ms, p99 ~0.45 ms; see DESIGN.md "Performance model").
#     update_identity_mismatches=0: the one-sweep update_at_budget phase
#     (stage add + eviction, one sweep) matched add() then
#     remove_observation(0) bit for bit at every step.
# Every gate below logs the attempt that passed, so a gate that passes only
# on a retry shows in the log instead of hiding behind the loop.
# Timings interleave the two sides rep-by-rep (best-of-9 each), but a
# CPU-steal burst on a shared box can still sink one side's ratio or land
# in a p99 sample; re-measuring up to 3 times separates that (passes
# eventually) from a real regression (fails all attempts). Correctness runs
# every attempt.
gate_ok=0
for attempt in 1 2 3; do
  (cd build-release && ./bench/bench_micro_gp --smoke)
  if python3 scripts/perf_gate.py build-release/BENCH_gp.json \
      --min-speedup 0.95 --floor track=0.90 \
    && python3 scripts/perf_gate.py build-release/BENCH_gp.json \
      --ceiling decide_p99_ms_t1=1.0 --ceiling decide_p99_ms_t8=1.0 \
      --ceiling update_identity_mismatches=0; then
    gate_ok=1
    echo "perf gate: passed on attempt $attempt/3"
    break
  fi
  echo "perf gate: attempt $attempt/3 below threshold; re-measuring"
done
[[ "$gate_ok" == 1 ]]
# Transport bench: p99 indication-to-policy latency under an o1 flood plus
# recovery time after a seeded 4s E2 partition, then the multiplexed fleet
# phase (1000 cells over 8 TCP connections through MuxEndpoint). Smoke p99
# measures 30-45ms on an idle box; the 500ms ceiling is generous headroom
# for shared-CPU noise while still catching a real event-loop or
# backpressure regression (a blocking send on the hot path lands in the
# seconds). Recovery after the window is ~1s; 15s means reconnect/backoff
# supervision broke. Fleet ceilings:
#   p99_mux_ms=500          -> per-indication decision latency across 1000
#                              cells (measured p99 ~45-50ms; dominated by
#                              the engine's batched decide, not the wire);
#   mux_cells_shortfall=0   -> every cell completed every period;
#   mux_connections=8       -> the fleet really rode <= 8 connections.
# Timing metrics share the 3-attempt re-measure discipline; the
# deterministic ones must pass every attempt.
transport_ok=0
for attempt in 1 2 3; do
  (cd build-release && ./tools/bench_transport --smoke)
  if python3 scripts/perf_gate.py build-release/BENCH_transport.json \
      --ceiling p99_loaded_ms=500 --ceiling recovery_ms=15000 \
      --ceiling p99_mux_ms=500 --ceiling mux_cells_shortfall=0 \
      --ceiling mux_connections=8; then
    transport_ok=1
    echo "transport gate: passed on attempt $attempt/3"
    break
  fi
  echo "transport gate: attempt $attempt/3 out of bounds; re-measuring"
done
[[ "$transport_ok" == 1 ]]
# Mux ingest bench: one MuxEndpoint pair flooded over loopback (wire phase),
# then the decoder replayed standalone (decode phase). The gated floor is
# the BARE decode rate — >= 1M frames/s is the budget that keeps framing
# off the fleet's critical path (measured ~40M debug, ~80M release; the
# wire rate, ~1.7M frames/s, also lands above the floor but syscall cost
# makes it the noisier number, reported as wire_frames_per_sec).
ingest_ok=0
for attempt in 1 2 3; do
  (cd build-release && ./tools/load_ric --ingest --out BENCH_ingest.json)
  if python3 scripts/perf_gate.py build-release/BENCH_ingest.json \
      --metric-floor frames_per_sec=1000000; then
    ingest_ok=1
    echo "ingest gate: passed on attempt $attempt/3"
    break
  fi
  echo "ingest gate: attempt $attempt/3 below floor; re-measuring"
done
[[ "$ingest_ok" == 1 ]]
# Fleet bench: 1000 heterogeneous cells through the batched engine at 8
# threads. Ceilings encode the fleet acceptance floor (all lower-is-better):
#   cells_shortfall=0          -> the run really drove >= 1000 cells;
#   us_per_decision_agg=200    -> >= 5000 decisions/sec aggregate
#                                 (measured ~40-50k on an idle 8-core box);
#   decide_p99_ms=1.0          -> per-cell select() p99 under 1 ms;
#   identity_mismatches=0      -> batched dispatch bit-identical to the
#                                 serial per-cell loop;
#   warm_cold_ratio=0.5        -> a warm-started joiner converges in at
#                                 most half the cold joiner's periods
#                                 (measured ~0.1; deterministic, so any
#                                 flake here is a real regression).
# Timing metrics share the 3-attempt re-measure discipline of the GP gate;
# the deterministic metrics must pass on every attempt.
fleet_ok=0
for attempt in 1 2 3; do
  (cd build-release && ./bench/bench_fleet --smoke)
  if python3 scripts/perf_gate.py build-release/BENCH_fleet.json \
      --ceiling cells_shortfall=0 --ceiling us_per_decision_agg=200 \
      --ceiling decide_p99_ms=1.0 --ceiling identity_mismatches=0 \
      --ceiling warm_cold_ratio=0.5; then
    fleet_ok=1
    echo "fleet gate: passed on attempt $attempt/3"
    break
  fi
  echo "fleet gate: attempt $attempt/3 below threshold; re-measuring"
done
[[ "$fleet_ok" == 1 ]]
end_tier pass

if [[ "$FAST" == 1 ]]; then
  begin_tier "sanitizers (ASan/TSan/UBSan)"
  echo "skipped (--fast)"
  end_tier "SKIP (--fast)"
  begin_tier "lockdep (debug, fatal)"
  echo "skipped (--fast)"
  end_tier "SKIP (--fast)"
  echo
  echo "== fast checks passed =="
  exit 0
fi

begin_tier "ASan + UBSan + LSan"
# Leak detection is ON (no detect_leaks=0): ThreadPool shutdown and fixture
# teardown must release everything.
cmake -B build-asan -S . -DEDGEBOL_SANITIZE=address -DEDGEBOL_WERROR=ON >/dev/null
cmake --build build-asan -j >/dev/null
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)"
end_tier pass

begin_tier "TSan (threads 2, 8)"
# Runs the whole suite twice under ThreadSanitizer with the shared pool sized
# 2 then 8 (tests with explicit pools add their own counts on top).
# tsan.supp is intentionally empty — races get fixed, not suppressed.
cmake -B build-tsan -S . -DEDGEBOL_SANITIZE=thread -DEDGEBOL_WERROR=ON >/dev/null
cmake --build build-tsan -j >/dev/null
for threads in 2 8; do
  echo "-- TSan pass: EDGEBOL_THREADS=$threads --"
  TSAN_OPTIONS="suppressions=$PWD/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
    EDGEBOL_THREADS="$threads" \
    ctest --test-dir build-tsan --output-on-failure -j "$(nproc)"
done
end_tier pass

begin_tier "UBSan (standalone, fatal)"
# -fno-sanitize-recover=all: the first UB report aborts the test, so this
# tier cannot pass with findings scrolling by (the ASan tier's UBSan is
# recoverable and halts via halt_on_error instead).
cmake -B build-ubsan -S . -DEDGEBOL_SANITIZE=undefined -DEDGEBOL_WERROR=ON >/dev/null
cmake --build build-ubsan -j >/dev/null
ctest --test-dir build-ubsan --output-on-failure -j "$(nproc)"
end_tier pass

begin_tier "lockdep (debug, fatal)"
# Debug build (no NDEBUG): the EventLoop loop-affinity asserts are live and
# the sync death tests run. EDGEBOL_LOCKDEP=1 turns on runtime lock-order
# recording in common::Mutex; _FATAL=1 aborts on the first inversion, so a
# pass means the whole suite AND the three-process transport smoke ran with
# zero lock-order cycles against the DESIGN.md §5e hierarchy.
cmake -B build-lockdep -S . -DCMAKE_BUILD_TYPE=Debug -DEDGEBOL_WERROR=ON >/dev/null
cmake --build build-lockdep -j >/dev/null
EDGEBOL_LOCKDEP=1 EDGEBOL_LOCKDEP_FATAL=1 \
  ctest --test-dir build-lockdep --output-on-failure -j "$(nproc)"
EDGEBOL_LOCKDEP=1 EDGEBOL_LOCKDEP_FATAL=1 scripts/transport_smoke.sh build-lockdep
end_tier pass

begin_tier "transport (multi-process smoke)"
# Real three-OS-process O-RAN plane over TCP under both sanitizers: the
# loopback-equivalence check plus a partitioned run. Cross-process socket
# lifetimes, reconnect supervision, and shutdown ordering only get
# exercised here — in-process tests can't see them.
ASAN_OPTIONS=detect_leaks=1 scripts/transport_smoke.sh build-asan
TSAN_OPTIONS="suppressions=$PWD/tsan.supp halt_on_error=1" \
  scripts/transport_smoke.sh build-tsan
end_tier pass

echo
echo "== all checks passed =="
