#!/bin/sh
# The repository's tier-1 gate plus the harness smoke sweep, in one
# command. Run from anywhere; everything executes at the repo root.
#
#   build   — release build (the smoke sweep runs the release binaries)
#   test    — full workspace test suite (unit + integration +
#             determinism + differential fast-path tests, every crate)
#   clippy  — every crate, all targets, warnings denied
#   benches — the criterion microbenchmarks build (not run)
#   smoke   — run_figures.sh --smoke: every figure binary end-to-end on
#             a tiny budget, including the stats-JSON byte-stability
#             check (jobs 1 vs 8, warm vs cold cell cache)
#   arena   — the predecode-arena differential suite (shared predecode
#             tables vs forced-private construction, byte-identical at
#             jobs 1/8, with arena hits asserted)
#   shadow  — fig6 MFI cells and the fig8 RT panel with the --shadow
#             lockstep oracle armed (cache off: warm cells skip
#             simulation and prove nothing), plus an RT-miss engagement
#             check on the fig8 cells
#   fig7    — a fig7 smoke sweep's compression ratios must match
#             scripts/fig7_smoke_golden.json cell for cell
#   golden  — the full selection golden-digest matrix under --release
#             (byte-identical compressor output, every Figure 7
#             configuration × v1/v2; `ignore`d in debug builds), and the
#             pruned-window-table differential on every benchmark
#   sim golden — the full timing-statistics golden-digest matrix under
#             --release (every exported counter of 168 Figure 6/7/8
#             cells byte-identical; `ignore`d in debug builds)
#   snapshot — the bit-identical-resume matrices under --release (they
#             are `ignore`d in debug builds: minutes-slow unoptimized)
#             plus fig6 smoke cells checkpointing at every instruction
#             and every 1000, both cmp-equal to the plain run, with the
#             second traced to prove every cell ran in several windows
#   tracing — spans are inert (figure output + stats-JSON cmp-equal with
#             and without a sink) and the exported Perfetto trace is
#             structurally valid (figure/cell/phase levels, phases
#             nested under cells)
#   replay  — the anomaly-triggered time-travel replay suite (release:
#             it simulates enough to need the fast path)
#   serve   — the concurrency round-trip also probes the live `stats`
#             command and validates the job→cell→phase trace exported
#             from the two-client run
set -e
cd "$(dirname "$0")/.."

echo "== ci: build ($(date)) =="
# --workspace: the root Cargo.toml carries a [package], so a bare
# `cargo build` stops at the root crate and leaves the bench binaries
# the smoke sweep runs stale.
cargo build --release --workspace

echo "== ci: test ($(date)) =="
# --workspace: a bare `cargo test` at the root tests only the root
# `dise` package, not the crates' unit tests and integration suites.
cargo test --workspace -q

echo "== ci: clippy ($(date)) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== ci: benches build ($(date)) =="
cargo bench --workspace --no-run

echo "== ci: smoke figures ($(date)) =="
./run_figures.sh --smoke

echo "== ci: predecode-arena differential ($(date)) =="
cargo test -q -p dise-bench --test predecode_arena

echo "== ci: shadow smoke cell ($(date)) =="
# Cache must be off: warm cells replay cached stats without simulating,
# so the shadow oracle would never engage.
DISE_BENCH_DYN=20000 DISE_BENCH_FILTER=gcc DISE_BENCH_CACHE=off \
    DISE_BENCH_JOBS=2 ./target/release/fig6_mfi top --shadow > /dev/null
# The Figure 8 RT panel: eager and compose-on-miss composition on
# 512/2K direct-mapped/2-way RTs. The shadow checks only the functional
# stream: every step report, including the engine reference (sequence
# id, inspected opcode) the simulator's PT/RT model replays. The tables
# themselves are timing state that neither oracle runs. The jq check
# proves the model engaged on that stream: some cell took more than
# 1000 RT misses, and some filled by composing.
SHADOWTMP=$(mktemp -d)
DISE_BENCH_DYN=20000 DISE_BENCH_FILTER=gzip DISE_BENCH_CACHE=off \
    DISE_BENCH_JOBS=2 ./target/release/fig8_composition rt --shadow \
    --stats-json "$SHADOWTMP/fig8rt.json" > /dev/null
jq -e '([.[] | .["engine.rt_misses"] // 0] | max) > 1000
       and ([.[] | .["engine.composed_fills"] // 0] | max) > 0' \
    "$SHADOWTMP/fig8rt.json" > /dev/null || {
    echo "fig8 RT-panel shadow run never thrashed the RT or never composed"
    rm -rf "$SHADOWTMP"; exit 1; }
rm -rf "$SHADOWTMP"

echo "== ci: fig7 compression smoke ($(date)) =="
# Golden compression ratios: dictionary selection is deterministic, so
# the smoke sweep's acf.compress.total_ratio telemetry must cover the
# same cells as scripts/fig7_smoke_golden.json and never regress
# (grow) on any of them. Improvements fail too — regenerate the golden
# deliberately (see the comment inside it) so ratio movement is always
# an explicit decision in review.
ACFTMP=$(mktemp -d)
DISE_BENCH_DYN=20000 DISE_BENCH_FILTER=gzip DISE_BENCH_JOBS=2 \
    DISE_BENCH_CACHE="$ACFTMP/cache" \
    ./target/release/fig7_compression --stats-json "$ACFTMP/fig7.json" > /dev/null
jq '[to_entries[] | select(.value["acf.compress.total_ratio"] != null)
     | {cell: .key, ratio: .value["acf.compress.total_ratio"]}]' \
    "$ACFTMP/fig7.json" > "$ACFTMP/ratios.json"
jq -e -n --slurpfile cur "$ACFTMP/ratios.json" \
    --slurpfile gold scripts/fig7_smoke_golden.json '
    ($cur[0] | map({(.cell): .ratio}) | add) as $c |
    ($gold[0].cells | map({(.cell): .ratio}) | add) as $g |
    ($c | keys) == ($g | keys) and
    all($g | keys[]; $c[.] <= $g[.] + 1e-9 and $c[.] >= $g[.] - 1e-9)' \
    > /dev/null || {
    echo "fig7 smoke ratios diverged from scripts/fig7_smoke_golden.json"
    rm -rf "$ACFTMP"; exit 1; }
rm -rf "$ACFTMP"

echo "== ci: selection golden digests ($(date)) =="
# Selection is byte-stable: digests of the whole compressor output
# (text, productions or dictionary, stats) for every benchmark × seed ×
# Figure 7 configuration × v1/v2 must match the committed table. The
# full matrix is `ignore`d under debug_assertions (debug runs cover a
# one-benchmark subset) and runs here under --release. No `--ignored`:
# release builds do not ignore it, so that flag would select nothing.
cargo test --release -q -p dise-acf --test select_golden
# The prefix-pruned window table against its unpruned reference model
# on every benchmark (same debug/release split; debug runs cover one).
cargo test --release -q -p dise-acf --lib pruned_window_table

echo "== ci: simulation golden digests ($(date)) =="
# The timing model is byte-stable: digests of every exported counter for
# each Figure 6 MFI cell (8KB and perfect I-cache) and each
# decompression/composition cell (512-entry direct-mapped RT) must match
# the committed table. The test also proves it engaged expansions, RT
# misses, I-cache misses, composed fills and line-straddling fetches.
# Same debug/release split as the selection digests above.
cargo test --release -q -p dise-bench --test sim_golden

echo "== ci: snapshot resume ($(date)) =="
# The differential snapshot fuzz suite, release-only: the two big
# scenario × RT-organization matrices are `ignore`d under
# debug_assertions (the workspace test stage above), so this is the
# gate that actually runs them.
cargo test --release -q --test snapshot_resume
# Harness checkpointing: unit tests (slicing neutrality, file
# round-trip), in-process crash-resume + job-count neutrality with
# checkpointing armed, and the SIGKILL-the-daemon restart round-trip.
cargo test -q -p dise-bench --lib
cargo test -q -p dise-bench --test checkpoint_resume --test serve_restart
# Checkpointing is a pure availability device: a smoke cell persisting
# (and immediately superseding) a snapshot after *every* instruction
# must export byte-identical stats-JSON to the plain run. Fresh cache
# dirs on both sides — a warm cell would replay cached stats without
# simulating — and a throwaway checkpoint dir that must be empty of
# .ckpt files afterwards (completed cells clean up after themselves).
# Smaller budget than the other smoke stages, and scratch space on
# tmpfs when the host has one: every:1 persists one ~100KB checkpoint
# file per dynamic instruction, and on a writeback-throttled disk the
# D-state wait (not CPU) would dominate the stage by an order of
# magnitude.
SNAPTMP=$(mktemp -d -p /dev/shm 2>/dev/null || mktemp -d)
DISE_BENCH_DYN=5000 DISE_BENCH_FILTER=gcc DISE_BENCH_JOBS=2 \
    DISE_BENCH_CACHE="$SNAPTMP/plain" \
    ./target/release/fig6_mfi top --stats-json "$SNAPTMP/plain.json" > /dev/null
DISE_SNAPSHOT=every:1 DISE_CHECKPOINT_DIR="$SNAPTMP/ckpt" \
    DISE_BENCH_DYN=5000 DISE_BENCH_FILTER=gcc DISE_BENCH_JOBS=2 \
    DISE_BENCH_CACHE="$SNAPTMP/snap" \
    ./target/release/fig6_mfi top --stats-json "$SNAPTMP/snap.json" > /dev/null
cmp "$SNAPTMP/plain.json" "$SNAPTMP/snap.json" || {
    echo "checkpointed stats-JSON diverged from the plain run"
    rm -rf "$SNAPTMP"; exit 1; }
if ls "$SNAPTMP/ckpt"/*.ckpt > /dev/null 2>&1; then
    echo "completed cells left checkpoints behind"
    rm -rf "$SNAPTMP"; exit 1; fi
# Engagement: a stage whose slicing never armed would pass the cmp
# above trivially. Each slice runs under a `window` span, so a traced
# run must show more than one per cell. The trace comes from a second
# run at every:1000: at every:1 the stream is over a million records,
# and the sink's size-rotated retention drops the early cells' spans.
DISE_OBS_SINK="jsonl:$SNAPTMP/obs" DISE_SNAPSHOT=every:1000 \
    DISE_CHECKPOINT_DIR="$SNAPTMP/ckpt" \
    DISE_BENCH_DYN=5000 DISE_BENCH_FILTER=gcc DISE_BENCH_JOBS=2 \
    DISE_BENCH_CACHE="$SNAPTMP/sliced" \
    ./target/release/fig6_mfi top --stats-json "$SNAPTMP/sliced.json" > /dev/null
cmp "$SNAPTMP/plain.json" "$SNAPTMP/sliced.json" || {
    echo "sliced stats-JSON diverged from the plain run"
    rm -rf "$SNAPTMP"; exit 1; }
jq -e -n --slurpfile stats "$SNAPTMP/sliced.json" '
    ([inputs | select(.kind == "span" and .name == "window") | .cell]
     | group_by(.) | map({(.[0]): length}) | add // {}) as $w
    | ($stats[0] | keys) | (length > 0) and all(($w[.] // 0) > 1)' \
    "$SNAPTMP/obs"/*.jsonl > /dev/null || {
    echo "some checkpointed cell ran in fewer than two windows"
    rm -rf "$SNAPTMP"; exit 1; }
rm -rf "$SNAPTMP"

echo "== ci: span tracing ($(date)) =="
# Spans are observability-only: the same smoke sweep with and without a
# sink must print byte-identical figure output and stats-JSON. Fresh
# cache dirs on both sides — a warm cell replays cached stats without
# simulating, so it would emit no phase spans and prove nothing.
TRACETMP=$(mktemp -d)
DISE_BENCH_DYN=20000 DISE_BENCH_FILTER=gcc DISE_BENCH_JOBS=2 \
    DISE_BENCH_CACHE="$TRACETMP/plain" \
    ./target/release/fig6_mfi top --stats-json "$TRACETMP/plain.json" \
    > "$TRACETMP/plain.out"
DISE_OBS_SINK="jsonl:$TRACETMP/obs" \
    DISE_BENCH_DYN=20000 DISE_BENCH_FILTER=gcc DISE_BENCH_JOBS=2 \
    DISE_BENCH_CACHE="$TRACETMP/spans" \
    ./target/release/fig6_mfi top --stats-json "$TRACETMP/spans.json" \
    > "$TRACETMP/spans.out"
cmp "$TRACETMP/plain.out" "$TRACETMP/spans.out" || {
    echo "figure output diverged with span tracing armed"
    rm -rf "$TRACETMP"; exit 1; }
cmp "$TRACETMP/plain.json" "$TRACETMP/spans.json" || {
    echo "stats-JSON diverged with span tracing armed"
    rm -rf "$TRACETMP"; exit 1; }
grep -rq '"kind":"span"' "$TRACETMP/obs" || {
    echo "no span records in the traced run"; rm -rf "$TRACETMP"; exit 1; }
./target/release/dise_trace_export --obs-dir "$TRACETMP/obs" \
    -o "$TRACETMP/trace.json" 2> /dev/null
# Structural validation: a non-empty trace of complete events with the
# figure/cell/phase levels present and every phase nested under a cell.
jq -e '
    ([.traceEvents[] | select(.name|startswith("cell ")) | .args.span]) as $cells |
    ((.traceEvents | length) > 0)
    and (.traceEvents | all(.ph == "X" and (.ts|type) == "number"
                            and (.dur|type) == "number"))
    and (([.traceEvents[] | select(.name|startswith("figure "))] | length) > 0)
    and (($cells | length) > 0)
    and ([.traceEvents[] | select(.name|startswith("phase ")) | .args.parent]
         | (length > 0) and all(. as $p | $cells | index($p) != null))
    ' "$TRACETMP/trace.json" > /dev/null || {
    echo "exported trace failed structural validation"
    rm -rf "$TRACETMP"; exit 1; }
rm -rf "$TRACETMP"

echo "== ci: time-travel replay ($(date)) =="
# Deterministic late anomalies (shadow divergence, watchdog trip) in
# forced-slice runs must replay only the last window and regenerate the
# deep report. Release: the staged runs simulate hundreds of thousands
# of instructions before tripping.
cargo test --release -q -p dise-bench --test replay

echo "== ci: serve concurrency round-trip ($(date)) =="
# The multi-tenant service must produce the same stats-JSON, byte for
# byte, as the figure binary running the same cells directly — with two
# clients submitting concurrently, each getting a correctly
# demultiplexed response stream, and heartbeat/completion/metrics
# records arriving through the sink. The daemon gets a *fresh* cache so
# its cells actually simulate: determinism makes the comparison exact
# either way, and a cold run emits the full job→cell→phase span
# hierarchy the trace validation below depends on.
SERVE_TMP=$(mktemp -d)
trap 'rm -rf "$SERVE_TMP"' EXIT
DISE_BENCH_DYN=20000 DISE_BENCH_FILTER=gcc,gzip DISE_BENCH_JOBS=2 \
    DISE_BENCH_CACHE="$SERVE_TMP/cache" \
    ./target/release/fig6_mfi top --stats-json "$SERVE_TMP/direct.json" > /dev/null
DISE_BENCH_DYN=20000 DISE_BENCH_JOBS=2 DISE_BENCH_CACHE="$SERVE_TMP/servecache" \
    ./target/release/dise_serve --socket "$SERVE_TMP/serve.sock" \
    --obs-dir "$SERVE_TMP/obs" --heartbeat-ms 50 \
    --stats-json "$SERVE_TMP/served.json" &
SERVE_PID=$!
for i in $(seq 1 100); do
    [ -S "$SERVE_TMP/serve.sock" ] && break
    sleep 0.1
done
[ -S "$SERVE_TMP/serve.sock" ] || { echo "dise_serve never bound its socket"; exit 1; }
./target/release/dise_serve --submit "$SERVE_TMP/serve.sock" "fig6_top gcc" \
    > "$SERVE_TMP/client_a.out" &
CLIENT_A=$!
./target/release/dise_serve --submit "$SERVE_TMP/serve.sock" "fig6_top gzip" \
    > "$SERVE_TMP/client_b.out" &
CLIENT_B=$!
wait $CLIENT_A || { echo "serve client A failed"; cat "$SERVE_TMP/client_a.out"; exit 1; }
wait $CLIENT_B || { echo "serve client B failed"; cat "$SERVE_TMP/client_b.out"; exit 1; }
grep -q "fig6_top gcc (6 cells)" "$SERVE_TMP/client_a.out" || {
    echo "client A never saw its final"; cat "$SERVE_TMP/client_a.out"; exit 1; }
grep -q "fig6_top gzip (6 cells)" "$SERVE_TMP/client_b.out" || {
    echo "client B never saw its final"; cat "$SERVE_TMP/client_b.out"; exit 1; }
if grep -q gzip "$SERVE_TMP/client_a.out"; then
    echo "client A saw client B's stream"; cat "$SERVE_TMP/client_a.out"; exit 1
fi
if grep -q gcc "$SERVE_TMP/client_b.out"; then
    echo "client B saw client A's stream"; cat "$SERVE_TMP/client_b.out"; exit 1
fi
# Live introspection: a `stats` probe after both finals must report the
# completed work without perturbing the (still running) daemon.
./target/release/dise_serve --submit "$SERVE_TMP/serve.sock" stats \
    > "$SERVE_TMP/stats.out"
grep -q '"kind":"stats"' "$SERVE_TMP/stats.out" || {
    echo "stats probe got no snapshot"; cat "$SERVE_TMP/stats.out"; exit 1; }
grep -q '"jobs_done":2' "$SERVE_TMP/stats.out" || {
    echo "stats snapshot missed the finished jobs"; cat "$SERVE_TMP/stats.out"; exit 1; }
./target/release/dise_serve --submit "$SERVE_TMP/serve.sock" shutdown > /dev/null
wait $SERVE_PID
cmp "$SERVE_TMP/direct.json" "$SERVE_TMP/served.json" || {
    echo "concurrent serve stats-JSON diverged from the serial direct run"; exit 1; }
for needle in '"name":"heartbeat"' '"name":"cell_done"' '"kind":"metrics"'; do
    grep -q "$needle" "$SERVE_TMP/obs/obs.jsonl" || {
        echo "missing $needle in serve obs stream"; exit 1; }
done
# The two-client run's trace covers the full hierarchy: every cell span
# nests under a job span, every phase span under a cell span.
./target/release/dise_trace_export --obs-dir "$SERVE_TMP/obs" \
    -o "$SERVE_TMP/trace.json" 2> /dev/null
jq -e '
    ([.traceEvents[] | select(.name|startswith("job ")) | .args.span]) as $jobs |
    ([.traceEvents[] | select(.name|startswith("cell ")) | .args.span]) as $cells |
    (($jobs | length) > 0) and (($cells | length) > 0)
    and ([.traceEvents[] | select(.name|startswith("cell ")) | .args.parent]
         | all(. as $p | $jobs | index($p) != null))
    and ([.traceEvents[] | select(.name|startswith("phase ")) | .args.parent]
         | (length > 0) and all(. as $p | $cells | index($p) != null))
    ' "$SERVE_TMP/trace.json" > /dev/null || {
    echo "serve trace failed job→cell→phase validation"; exit 1; }

echo "== ci: ok ($(date)) =="
