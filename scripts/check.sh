#!/usr/bin/env bash
# Hardened check: configure with -Werror + ASan/UBSan (the "sanitize" preset
# in CMakePresets.json), build everything, and run the full test suite under
# the sanitizers, then the chaos tier (ctest label `chaos`) with the fixed CI
# seed set so the sanitizer pass over the fault schedules is pinned and
# reproducible. Usage: scripts/check.sh [preset]   (default: sanitize)
set -euo pipefail
cd "$(dirname "$0")/.."

preset="${1:-sanitize}"

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"
ctest --preset "$preset" -j "$(nproc)"

# Chaos tier. Each sweep's pinned seed set is the default of its
# SeedsFromEnv call (src/chaos/sweep.h), which is also what ctest registered
# at discovery time, so no seed variable is set here: a narrower set would
# leave registered names running zero tests. scripts/chaos.sh hunts with
# larger seed ranges. The determinism tests in
# this tier double as engine-fingerprint guards: each sweep replays one run
# under the reference heap engine and requires a byte-identical schedule and
# history versus the default timer wheel.
ctest --preset "$preset" -L chaos -j "$(nproc)"

# QoS tier: the scheduler/admission unit tests plus the chaos-with-QoS run
# (ctest label `qos`), then the overload figure at reduced scale — the fig21
# binary asserts its own acceptance criteria (foreground p99 isolation,
# background completion after load drops) and exits non-zero on regression.
ctest --preset "$preset" -L qos -j "$(nproc)"
builddir=build
[[ "$preset" == "sanitize" ]] && builddir=build-sanitize
CHEETAH_FIG21_SMOKE=1 "$builddir/bench/fig21_overload"

# Integrity tier: the bit-rot/LSE/gray-corruption sweep (ctest label
# `integrity`, pinned seeds) proving zero corrupt bytes reach clients and all
# at-rest damage is repaired, then the scrub-overhead bench at reduced scale —
# it asserts foreground GET p99 with scrubbing stays within 2x of scrub-off
# and that an injected bit-rot burst is fully repaired before its audit pass.
ctest --preset "$preset" -L integrity -j "$(nproc)"
CHEETAH_SCRUB_SMOKE=1 "$builddir/bench/scrub_overhead"

# EC/tiering tier: storage-class placement, demotion, degraded-read, and
# demotion-race tests plus the EC chunk-loss chaos sweep (ctest label `ec`,
# pinned seeds), then the storage-class frontier bench at reduced scale — it
# asserts every cold object demotes, EC storage overhead stays <= 1.6x, and
# the inline put path beats the replica put path on latency.
ctest --preset "$preset" -L ec -j "$(nproc)"
CHEETAH_EC_SMOKE=1 "$builddir/bench/ec_tradeoffs"

# Membership/migration tier: failure-detector units, live drain/migration
# tests, and the migration chaos sweep (ctest label `migrate`, pinned seeds —
# larger hunts via CHEETAH_MIGRATE_SEEDS), then the resize-under-fire bench at
# reduced scale — it asserts zero failed foreground ops while the cluster
# doubles and a node drains, foreground p99 within 2x of steady state, a
# completed drain, and a clean full audit afterwards.
ctest --preset "$preset" -L migrate -j "$(nproc)"
CHEETAH_RESIZE_SMOKE=1 "$builddir/bench/resize_under_fire"
# Fig. 14 is the only bench that drives the Cheetah-NoVG data migration
# (MigratePgData); it asserts zero errors and in-expansion GET p99 <= 3x
# steady state.
CHEETAH_BENCH_SCALE=0.02 "$builddir/bench/fig14_expansion"
# Fig. 13 boots a single meta server, whose PGs have no peer to pull from; it
# asserts zero failed puts, Meta/Dir >= 0.9 and a >= 3x rise from 5 to 30
# clients.
CHEETAH_BENCH_SCALE=0.02 "$builddir/bench/fig13_richmeta"
# Fig. 5 is the one line that runs all four clusters' handlers (Cheetah,
# Haystack, Tectonic, Ceph) end to end; it asserts zero failed ops in all 28
# cells, Cheetah the lowest mean put latency at 8KB-20 and the lowest mean
# delete latency in every cell.
CHEETAH_BENCH_SCALE=0.02 "$builddir/bench/fig5_latency"
# Fig. 11 runs at full scale (about 3 s in Release, about 47 s under the
# sanitize preset on a 4-core host): it asserts zero failed puts and that
# Flush+ and Merge+ each keep >= 0.9 of the Default throughput. At scale 0.1
# a KV without WAL group commit passes too, so reduced scale cannot catch
# that regression.
"$builddir/bench/fig11_kvconfig"

# Perf tier: simulator engine internals (timer wheel vs reference heap,
# InlineFn, Arena, AnyMsg, callback lifecycle; ctest label `perf`), then the
# engine microbench at reduced scale — it asserts the legacy/heap/wheel
# fingerprints are bit-identical and that the wheel clears a conservative
# throughput floor over the legacy priority_queue loop.
ctest --preset "$preset" -L perf -j "$(nproc)"
CHEETAH_SIM_ENGINE_SMOKE=1 "$builddir/bench/sim_engine_speed"

# Benchmark smoke: perfbench/ builds outside the main CMake tree, so a src/
# API change that breaks it would otherwise surface only in the benchmark
# run. One short trace-mix run must build, run and report correct (exit 0).
CARGO_TARGET_DIR=build-perfbench python3 perfbench/run.py --workload trace-mix --seed 1 --seconds 1 --trace 0
