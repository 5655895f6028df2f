#!/usr/bin/env bash
# Tier-1 gate: what CI runs, runnable locally. Builds the workspace, runs
# the full test suite, and holds the workspace to warning-free clippy.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --workspace --all-targets --offline -- -D warnings

# The paper-scale benchmark's harness (perfbench/, a workspace of its own)
# calls the program's public functions: build and test it here, so a change
# to one it calls fails this gate rather than the benchmark run. --locked
# fails on any new crate dependency edge, which would rewrite
# perfbench/Cargo.lock.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml \
    --target-dir target/perfbench

# Serve smoke test: start the service on an ephemeral port, probe every
# user-facing endpoint with the std-only client, and shut down cleanly.
# No curl, no python — serve-probe is built from crates/serve/src/bin.
serve_log="$(mktemp)"
./target/release/permadead serve --port 0 --seed 11 --workers 2 >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT

addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$serve_log")"
    [ -n "$addr" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "check.sh: permadead serve died before listening" >&2
        cat "$serve_log" >&2
        exit 1
    fi
    sleep 0.2
done
if [ -z "$addr" ]; then
    echo "check.sh: permadead serve never reported its address" >&2
    cat "$serve_log" >&2
    exit 1
fi

probe=./target/release/serve-probe
"$probe" "$addr" /healthz ok >/dev/null
"$probe" "$addr" /healthz '"watchlist"' >/dev/null
"$probe" "$addr" '/check?url=http%3A%2F%2Fexample.org%2Fsmoke' '"verdict":' >/dev/null
"$probe" "$addr" /metrics permadead_cache_hits_total >/dev/null
"$probe" "$addr" /metrics 'permadead_requests_total{endpoint="check"}' >/dev/null
"$probe" "$addr" /metrics permadead_watchlist_size >/dev/null
"$probe" "$addr" /metrics 'permadead_watch_state{state="healthy"}' >/dev/null
"$probe" "$addr" /metrics 'permadead_watch_policy{policy="iabot-strikes"}' >/dev/null
# rescue series render even with no --rediscovery index (all zeros), so
# dashboards never see the metric set change shape
"$probe" "$addr" /metrics permadead_rescue_queries_total >/dev/null
"$probe" "$addr" /metrics permadead_rescue_rescued_total >/dev/null
"$probe" "$addr" /metrics permadead_rescue_index_pages >/dev/null

# Reactor smoke: the event-driven server's own series render, and the
# golden request sequence above produced exactly the counters the blocking
# path used to produce (one /check, all of it 2xx, nothing aborted).
"$probe" "$addr" /metrics permadead_serve_open_connections >/dev/null
"$probe" "$addr" /metrics 'permadead_serve_write_aborted_total 0' >/dev/null
"$probe" "$addr" /metrics 'permadead_requests_total{endpoint="check"} 1' >/dev/null
"$probe" "$addr" /metrics 'permadead_responses_total{class="5xx"} 0' >/dev/null
echo "check.sh: reactor metrics parity green"

# The same /check again is a verdict-cache hit, which the reactor answers
# without a worker. It must be counted once, as a hit: two checks, one hit,
# one miss (each needle ends at its line's end, so 2 cannot match 20).
"$probe" "$addr" '/check?url=http%3A%2F%2Fexample.org%2Fsmoke' '"cached":true' >/dev/null
"$probe" "$addr" /metrics $'permadead_requests_total{endpoint="check"} 2\n' >/dev/null
"$probe" "$addr" /metrics $'permadead_cache_hits_total 1\n' >/dev/null
"$probe" "$addr" /metrics $'permadead_cache_misses_total 1\n' >/dev/null
echo "check.sh: cached /check counted once"

# 10k concurrent connections: a second process holds 10000 idle sockets
# mid-request while a fresh /healthz must still answer promptly. Split
# across two processes so each side stays under the per-process fd limit.
"$probe" "$addr" --flood 10000
echo "check.sh: reactor 10k-connection flood green"

kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
trap - EXIT
rm -f "$serve_log"
echo "check.sh: serve smoke test green"

# Fault campaign: the service under injected origin faults, with and without
# retries — exact per-cause /metrics counters against a local replay.
cargo test -q --offline -p permadead-serve --test fault_campaign
echo "check.sh: fault campaign green"

# Retry-counterfactual golden: the §4.1 table is a pure function of
# (seed, scale); a drift in any rescued/retries-spent cell on the pinned
# seed means a retry-subsystem regression.
retry_out="$(mktemp)"
PERMADEAD_SEED=42 PERMADEAD_SCALE=small PERMADEAD_RETRY_MAX=5 \
    ./target/release/repro_retry_table >"$retry_out" 2>/dev/null
if ! diff -u results/RETRY_TABLE_seed42.txt "$retry_out"; then
    echo "check.sh: retry counterfactual drifted from results/RETRY_TABLE_seed42.txt" >&2
    exit 1
fi
rm -f "$retry_out"
echo "check.sh: retry-table golden green"

# Watch-timeline golden: 30 simulated days of IABot-style continuous
# re-checking on the pinned seed. The table is a pure function of
# (seed, scale, sample, days, cadence, strikes) and identical for every
# --jobs, so any byte of drift is a scheduler regression.
watch_out="$(mktemp)"
./target/release/permadead watch --seed 42 --jobs 4 >"$watch_out" 2>/dev/null
if ! diff -u results/WATCH_TIMELINE_seed42.txt "$watch_out"; then
    echo "check.sh: watch timeline drifted from results/WATCH_TIMELINE_seed42.txt" >&2
    exit 1
fi
rm -f "$watch_out"
echo "check.sh: watch-timeline golden green"

# Policy-lab golden: the precision/recall scoreboard over the ground-truth
# fault lab, every policy × every profile. Pure function of (seed, days) —
# no world generation — so any drift is a policy or scheduler regression.
policy_out="$(mktemp)"
PERMADEAD_SEED=42 PERMADEAD_JOBS=4 \
    ./target/release/repro_policy_table >"$policy_out" 2>/dev/null
if ! diff -u results/POLICY_TABLE_seed42.txt "$policy_out"; then
    echo "check.sh: policy scoreboard drifted from results/POLICY_TABLE_seed42.txt" >&2
    exit 1
fi
rm -f "$policy_out"
echo "check.sh: policy-table golden green"

# Rediscovery-rescue golden: the E19 ladder (archive rescues vs
# lexical-signature rediscovery vs the ground-truth ceiling) is a pure
# function of (seed, scale) and identical for every PERMADEAD_JOBS; the
# binary itself asserts the extra rescue rate is strictly positive.
rescue_out="$(mktemp)"
PERMADEAD_SEED=42 PERMADEAD_SCALE=small PERMADEAD_JOBS=4 \
    ./target/release/repro_rescue_table >"$rescue_out" 2>/dev/null
if ! diff -u results/RESCUE_TABLE_seed42.txt "$rescue_out"; then
    echo "check.sh: rescue table drifted from results/RESCUE_TABLE_seed42.txt" >&2
    exit 1
fi
rm -f "$rescue_out"
echo "check.sh: rescue-table golden green"

# Headline golden: the paper-vs-measured tables for both samples on the
# pinned seed, as repro_summary prints them (tests/end_to_end.rs pins the
# same file).
summary_out="$(mktemp)"
PERMADEAD_SEED=42 PERMADEAD_SCALE=small ./target/release/repro_summary >"$summary_out" 2>/dev/null
if ! diff -u results/SUMMARY_seed42_small.txt "$summary_out"; then
    echo "check.sh: headline tables drifted from results/SUMMARY_seed42_small.txt" >&2
    exit 1
fi
rm -f "$summary_out"
echo "check.sh: summary golden green"

# World-cache round trip: `audit --world-cache` must miss (generate + save),
# then hit (decode the snapshot), and print the report `audit` prints with
# no cache at all (generate and lower in memory) — only the per-stage
# wall-clock latency rows may differ. Then the world-scale bench must run
# end to end and persist its JSON summary.
world_dir="$(mktemp -d)"
audit_nocache="$(mktemp)"
audit_miss="$(mktemp)"
audit_hit="$(mktemp)"
cache_log="$(mktemp)"
./target/release/permadead audit --seed 42 2>/dev/null | grep -v ' hits ' >"$audit_nocache"
./target/release/permadead audit --seed 42 --world-cache "$world_dir" 2>"$cache_log" \
    | grep -v ' hits ' >"$audit_miss"
grep -q 'world cache miss' "$cache_log"
./target/release/permadead audit --seed 42 --world-cache "$world_dir" 2>"$cache_log" \
    | grep -v ' hits ' >"$audit_hit"
grep -q 'world cache hit' "$cache_log"
if ! diff -u "$audit_nocache" "$audit_miss"; then
    echo "check.sh: cache-miss audit drifted from the uncached audit" >&2
    exit 1
fi
if ! diff -u "$audit_miss" "$audit_hit"; then
    echo "check.sh: snapshot-backed audit drifted from the generated audit" >&2
    exit 1
fi
results_tmp="$(mktemp -d)"
PERMADEAD_RESULTS_DIR="$results_tmp" PERMADEAD_WORLD_CACHE="$world_dir" \
    ./target/release/repro_world_scale >/dev/null
if [ ! -s "$results_tmp/BENCH_world.json" ]; then
    echo "check.sh: repro_world_scale did not persist BENCH_world.json" >&2
    exit 1
fi
# The per-section load breakdown accounts for every snapshot byte: the five
# body sections sum to the snapshot size minus the header and the checksum.
world_num='
    function num(key) {
        if (!match($0, "\"" key "\":[0-9]+")) return -1
        return substr($0, RSTART + length(key) + 3, RLENGTH - length(key) - 3) + 0
    }'
if ! awk "$world_num"'
    /"bench":"world\/save"/ { total = num("bytes") }
    /"bench":"world\/section"/ {
        if ($0 ~ /"section":"(header|checksum)"/) framing += num("bytes")
        else { body += num("bytes"); sections++ }
    }
    END { exit !(sections == 5 && total > 0 && body == total - framing) }
' "$results_tmp/BENCH_world.json"; then
    echo "check.sh: BENCH_world.json section bytes do not sum to the snapshot size" >&2
    exit 1
fi
# The streamed load holds no more than it keeps: its heap peak stays within
# 10% of the live heap after it (a whole-file read held through the decode
# peaked at 1.5x).
if ! awk "$world_num"'
    /"bench":"world\/load"/ { live = num("heap_bytes"); peak = num("heap_peak_bytes") }
    END { exit !(live > 0 && peak >= live && peak <= 1.1 * live) }
' "$results_tmp/BENCH_world.json"; then
    echo "check.sh: the snapshot load's heap peak is over 110% of what it keeps" >&2
    exit 1
fi
# ...and keeps no more than the committed results say: the small-scale
# load's live heap may exceed results/BENCH_world.json's small-scale
# world/load heap_bytes by at most 2%. The counting allocator's bytes repeat
# exactly run to run for one build; the band absorbs toolchain drift, not
# noise.
committed_heap="$(awk "$world_num"'
    /"bench":"world\/load"/ && /"scale":"small"/ { print num("heap_bytes") }
' results/BENCH_world.json)"
load_heap="$(awk "$world_num"'
    /"bench":"world\/load"/ { print num("heap_bytes") }
' "$results_tmp/BENCH_world.json")"
echo "check.sh: small-scale load keeps ${load_heap} heap bytes (committed ${committed_heap})"
if ! awk -v live="$load_heap" -v committed="$committed_heap" \
    'BEGIN { exit !(committed > 0 && live > 0 && live <= 1.02 * committed) }'; then
    echo "check.sh: the small-scale load keeps ${load_heap} heap bytes, over 102% of the committed ${committed_heap}" >&2
    exit 1
fi
rm -rf "$world_dir" "$results_tmp" "$audit_nocache" "$audit_miss" "$audit_hit" "$cache_log"
echo "check.sh: world-cache round trip green"

# Unknown flags and degenerate policy specs must fail fast, before any
# world generation.
if ./target/release/permadead watch --no-such-flag 2>/dev/null; then
    echo "check.sh: permadead watch accepted an unknown flag" >&2
    exit 1
fi
if ./target/release/permadead watch --policy bogus 2>/dev/null; then
    echo "check.sh: permadead watch accepted an unknown policy" >&2
    exit 1
fi
if ./target/release/permadead watch --strikes 0 2>/dev/null; then
    echo "check.sh: permadead watch accepted --strikes 0" >&2
    exit 1
fi
if ./target/release/permadead watch --rediscovery bogus 2>/dev/null; then
    echo "check.sh: permadead watch accepted --rediscovery bogus" >&2
    exit 1
fi
echo "check.sh: watch flag validation green"

# Saturated throughput, one bench-loadgen run per connection mode. Each run
# offers 10,000 requests in 50ms from 8 injector threads, far more than the
# server can take, to 4 workers, 1 reactor and a queue cap of 64 (8 per
# injector), so achieved_rps is what the server sustained; lateness grows by
# design and is not gated here. Close mode pays a connection per request;
# keepalive exercises the reactor's HTTP/1.1 connection reuse. Every
# response must be 2xx, with no transport failure. These runs and the smoke
# below persist into a scratch results directory, so a gate run leaves the
# committed results/BENCH_*.json alone and the persist checks see this
# run's files.
bench_results="$(mktemp -d)"
# The bench run just made must have persisted its summary: check it, then
# remove it so the next check sees only its own run's file.
persisted() {
    if [ ! -s "$bench_results/BENCH_$1.json" ]; then
        echo "check.sh: bench-$1 did not persist BENCH_$1.json" >&2
        exit 1
    fi
    rm -f "$bench_results/BENCH_$1.json"
}
for mode in close keepalive; do
    bench_sat="$(PERMADEAD_RESULTS_DIR="$bench_results" \
        ./target/release/bench-loadgen --rate 200000 --duration 0.05 --injectors 8 \
        --unique 64 --mode "$mode" 2>/dev/null | tail -1)"
    persisted loadgen
    sat_rps="$(sed -n 's/.*"achieved_rps":\([0-9.]*\).*/\1/p' <<<"$bench_sat")"
    echo "check.sh: bench-loadgen ${mode} mode saturated at ${sat_rps} req/s"
    # floor well above the old blocking server's ~8.4k so a regression back
    # to thread-per-connection behavior fails loudly. With --unique 64 nearly
    # every request is a verdict-cache hit, which the reactor answers
    # itself: twenty runs per mode on a 2-vCPU VM read 11.3-25.4k close and
    # 34.6-59.7k keepalive (11.7-19.9k and 24.2-50.2k when hits went through
    # a worker, interleaved); the host's drift moves close mode across the
    # floor, so a close-mode failure needs a rerun before it names the code
    if ! awk -v rps="$sat_rps" 'BEGIN { exit !(rps >= 12000) }'; then
        echo "check.sh: ${mode}-mode throughput ${sat_rps} req/s under the 12k floor" >&2
        exit 1
    fi
    if grep -qE '"(err_4xx|err_503|err_5xx_other|transport)":[1-9]' <<<"$bench_sat"; then
        echo "check.sh: ${mode}-mode run had a non-2xx response or a transport failure: $bench_sat" >&2
        exit 1
    fi
done
echo "check.sh: saturated throughput green"

# Open-loop load bench. First the determinism golden: the schedule head on
# the pinned seed is a pure function of (spec, world) — any drift in the
# RNG, the Zipf sampler, or the phase merge shows up as a diff here before
# it quietly invalidates every cross-commit benchmark comparison.
sched_out="$(mktemp)"
./target/release/bench-loadgen --rate 300 --duration 2 --seed 42 --unique 64 \
    --watch-rate 10 --print-schedule-head 20 2>/dev/null >"$sched_out"
if ! diff -u results/LOADGEN_SCHEDULE_seed42.txt "$sched_out"; then
    echo "check.sh: loadgen schedule drifted from results/LOADGEN_SCHEDULE_seed42.txt" >&2
    exit 1
fi
rm -f "$sched_out"
echo "check.sh: loadgen schedule golden green"

# Then the ~2s fixed-rate open-loop smoke against a 2-reactor server: the
# injector fires the same spec as the golden above and the report persists
# to BENCH_loadgen.json in the scratch results directory. Gates: the offered
# 300/s must be achieved (floor 200/s — a 2-reactor group must at least
# sustain the single-reactor smoke rate), injector lateness p99 must stay
# bounded (ceiling 250ms — generous for a 2-vCPU VM, but a seized
# reactor blows through it), and every scheduled request must complete at
# the transport level.
bench_lg="$(PERMADEAD_RESULTS_DIR="$bench_results" \
    ./target/release/bench-loadgen --rate 300 --duration 2 --seed 42 --unique 64 \
    --watch-rate 10 --reactors 2 --injectors 4 2>/dev/null | tail -1)"
lg_rps="$(sed -n 's/.*"achieved_rps":\([0-9.]*\).*/\1/p' <<<"$bench_lg")"
lg_late="$(sed -n 's/.*"lateness_p99_ms":\([0-9.]*\).*/\1/p' <<<"$bench_lg")"
echo "check.sh: bench-loadgen achieved=${lg_rps} req/s, lateness p99=${lg_late} ms"
if ! awk -v rps="$lg_rps" 'BEGIN { exit !(rps >= 200) }'; then
    echo "check.sh: open-loop throughput ${lg_rps} req/s under the 200 floor" >&2
    exit 1
fi
if ! awk -v late="$lg_late" 'BEGIN { exit !(late <= 250) }'; then
    echo "check.sh: injector lateness p99 ${lg_late} ms over the 250ms ceiling" >&2
    exit 1
fi
if grep -q '"transport":[1-9]' <<<"$bench_lg"; then
    echo "check.sh: open-loop run had transport failures: $bench_lg" >&2
    exit 1
fi
persisted loadgen
rm -rf "$bench_results"
echo "check.sh: open-loop loadgen smoke green"

echo "check.sh: all green"
