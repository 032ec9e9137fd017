#!/bin/sh
# Offline CI gate. The workspace has zero external dependencies, so
# every step runs with --offline on a bare Rust toolchain.
#
# Tiers:
#   ci.sh quick   fmt + frozen-benchmark ledger (the tags in crates/
#                 match DESIGN.md's table) + clippy + release build +
#                 tier-1 tests + fluid
#                 model tests + engine, transport and statistics unit
#                 tests (dctcp-sim, dctcp-tcp, dctcp-stats) + benchmark
#                 compile check
#                 (the frozen benchmark must still build against the
#                 workspace's public API) + rustdoc with warnings
#                 denied (the PR gate: minutes, catches most breakage)
#   ci.sh full    quick + zero-dependency guard (Cargo.lock must be
#                 workspace-only) + workspace tests + trace-oracle
#                 smoke + scenario-matrix gate (run cold, then
#                 repro_check on every envelope and every [xval] band
#                 of the DDE model vs its packet anchors, then warm
#                 from the result cache with byte-identity asserted
#                 between the two) + benchmark
#                 lint and smoke (benchmark/check.sh, then
#                 benchmark/run.sh --quick) + supervision gate (quarantine
#                 exit codes, failure replay from the cache, kill -9
#                 mid-matrix resume) + fct-parity gate (the million-flow churn
#                 scenario at 1 repro thread must render the FCT
#                 artifact the matrix gate's 2-thread cold pass
#                 rendered, byte for byte) + paper tier (scenarios/paper/,
#                 the paper's figures at paper scale, run cold after the
#                 matrix gate and checked against their envelopes)
#                 (the merge gate: everything the repo can check)
#   ci.sh         same as full
set -eu

cd "$(dirname "$0")"

TIER="${1:-full}"
case "$TIER" in
    quick|full) ;;
    *)
        echo "usage: ci.sh [quick|full]" >&2
        exit 2
        ;;
esac

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> frozen-benchmark ledger (tags in crates/ vs DESIGN.md's table)"
# Every stand-in kept only for the frozen benchmark carries one
# `frozen-benchmark: <tag>` comment, and DESIGN.md's ledger lists each
# tag once. A tag without a row, a row without a tag, or a tag used
# twice fails here.
TAGS="$(grep -rhoE 'frozen-benchmark: [a-z0-9-]+' crates --include='*.rs' --include='*.toml' \
    | sed 's/^frozen-benchmark: //' | sort)"
LEDGER="$(awk '/^## /{p = ($0 == "## Frozen-benchmark ledger")} p' DESIGN.md \
    | sed -n 's/^| `\([a-z0-9-]*\)` |.*/\1/p' | sort)"
if [ -z "$LEDGER" ] || [ "$TAGS" != "$LEDGER" ]; then
    echo "ci.sh: frozen-benchmark tags and DESIGN.md's ledger differ (tags, then ledger):" >&2
    printf '%s\n--\n%s\n' "$TAGS" "$LEDGER" >&2
    exit 1
fi

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --offline --release

echo "==> cargo test (tier-1: root package)"
cargo test --offline -q

echo "==> cargo test (fluid model unit + property tests)"
# The DDE integrator is pure math with no simulator dependency, so its
# full test suite (equilibrium fixed points, step-response determinism,
# damping ordering) is cheap enough for the PR gate.
cargo test --offline -q -p dctcp-fluid

echo "==> cargo test (engine + transport + statistics unit tests)"
# The calendar-queue differential and hot-bucket tests, the port-ring
# tests, the churn agents' tests and the quantile sketch's dense-oracle
# tests live in these crates' lib targets; under a second of test
# time, so they gate every PR.
cargo test --offline -q -p dctcp-sim -p dctcp-tcp -p dctcp-stats --lib

echo "==> cargo check (benchmark against the workspace API)"
# The benchmark is a separate package pinned to the public API it
# measures through; an API break fails here instead of at full's
# benchmark/check.sh.
cargo check --offline --locked --manifest-path benchmark/Cargo.toml --all-targets

echo "==> cargo doc --no-deps (warnings denied)"
# A few seconds; a broken intra-doc link (e.g. public docs naming a
# private item) fails here rather than stopping the full tier.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

if [ "$TIER" = "quick" ]; then
    echo "CI quick gate passed."
    exit 0
fi

echo "==> zero-dependency guard (Cargo.lock is workspace-only)"
# The workspace promises --offline builds on a bare toolchain; every
# package in Cargo.lock must therefore be a workspace member. The
# moment a third-party crate (or a stale lockfile entry) appears, this
# diff names it.
LOCKED="$(sed -n 's/^name = "\(.*\)"$/\1/p' Cargo.lock | sort)"
MEMBERS="$(for m in Cargo.toml crates/*/Cargo.toml; do
    awk '/^\[/{p = ($0 == "[package]")} p && sub(/^name = "/, ""){sub(/"$/, ""); print}' "$m"
done | sort)"
if [ "$LOCKED" != "$MEMBERS" ]; then
    echo "ci.sh: Cargo.lock is not workspace-only; lockfile vs members:" >&2
    printf '%s\n' "$LOCKED" > /tmp/ci_locked.$$
    printf '%s\n' "$MEMBERS" > /tmp/ci_members.$$
    diff /tmp/ci_locked.$$ /tmp/ci_members.$$ >&2 || true
    rm -f /tmp/ci_locked.$$ /tmp/ci_members.$$
    exit 1
fi

echo "==> cargo test (workspace)"
cargo test --offline --workspace -q

echo "==> trace-oracle smoke (traced run through the invariant oracle)"
cargo run --offline --release --example trace_dump -- --oracle

echo "==> scenario-matrix gate (cold repro -> repro_check -> warm repro)"
# Runs every committed scenario through the simulator and validates the
# resulting artifacts against the regression envelopes encoded in the
# scenario files themselves, and the fluid artifacts against their
# packet anchors within each committed [xval] relative-error band
# (what licenses the fluid_scaleout extrapolation to N = 10^4..10^6).
# Any nonzero exit fails the gate: on committed scenarios even exit 3,
# a skip because a cell is quarantined, means something upstream
# broke. Deterministic: artifacts are bit-identical across runs and
# thread counts.
#
# The gate runs twice. The cold pass starts from an empty result cache
# and simulates every cell; the warm pass must then be served entirely
# from the cache (>= 1 hit, 0 misses — asserted via repro's
# machine-readable stdout summary) and reproduce the cold artifacts
# byte for byte. That exercises the whole memoization path end to end:
# key derivation, entry round-trip, and bit-exact re-rendering. The
# cold pass runs at 2 threads, which makes it the 2-thread leg of the
# fct-parity gate below.
rm -rf artifacts/cache artifacts/repro
cargo run --offline --release -q -p dctcp-scenario --bin repro -- \
    --out artifacts/repro --cache artifacts/cache --threads 2 --all scenarios/
cargo run --offline --release -q -p dctcp-scenario --bin repro_check -- \
    --artifacts artifacts/repro --all scenarios/
REPRO_COLD="$(mktemp -d -t repro_cold.XXXXXX)"
trap 'rm -rf "$REPRO_COLD"' EXIT
cp artifacts/repro/*.json "$REPRO_COLD"/
WARM_SUMMARY="$(cargo run --offline --release -q -p dctcp-scenario --bin repro -- \
    --out artifacts/repro --cache artifacts/cache --all scenarios/)"
echo "$WARM_SUMMARY"
case "$WARM_SUMMARY" in
    *" 0 misses"*) ;;
    *)
        echo "ci.sh: warm repro re-simulated cells it should have cached: $WARM_SUMMARY" >&2
        exit 1
        ;;
esac
case "$WARM_SUMMARY" in
    *"cache 0 hits"*)
        echo "ci.sh: warm repro produced no cache hits: $WARM_SUMMARY" >&2
        exit 1
        ;;
esac
diff -r "$REPRO_COLD" artifacts/repro

echo "==> paper tier (scenarios/paper/ at paper scale -> repro_check)"
# The paper's figures (Figs. 1, 10-12, 14, 15 and the design
# ablations) at paper scale, one scenario file each. list_scenarios
# does not recurse, so the matrix gate above never sees them; their
# artifacts go to their own directory so its diff -r stays untouched.
# The run is cold (the paper cells share no key with the matrix cells
# in the cache), and every envelope - each file's figure claim - must
# hold.
rm -rf artifacts/paper
cargo run --offline --release -q -p dctcp-scenario --bin repro -- \
    --out artifacts/paper --cache artifacts/cache --all scenarios/paper/
cargo run --offline --release -q -p dctcp-scenario --bin repro_check -- \
    --artifacts artifacts/paper --all scenarios/paper/

echo "==> benchmark lint + self-tests (benchmark/check.sh)"
# The benchmark is a stand-alone package outside the workspace, so the
# fmt/clippy/test steps above never see it: rustfmt, clippy with
# warnings denied and its unit tests run here.
bash benchmark/check.sh

echo "==> benchmark smoke (benchmark/run.sh --quick)"
# Every benchmark workload on shortened cells, untraced and traced
# (about a minute after its build). Not a timing gate: it proves the
# benchmark still builds against the workspace and that every
# workload's output checks hold; run.sh exits nonzero if any fails.
# Results land in benchmark/out/ (ignored), the table goes to stdout.
bash benchmark/run.sh --quick

echo "==> supervision gate (quarantine exit codes + failure replay + kill -9 resume)"
# Three smokes over the supervised executor. First: a matrix with one
# panicking and one wedged (runaway, stopped by the simulator's event
# budget) cell must complete *partially* — repro exits 3, the artifact
# carries a machine-readable `failures` block, and repro_check accepts
# it with exit 3 (holds, with quarantine skips). Second: re-running
# that matrix against the same cache replays both failures from their
# cache entries and renders the same bytes. Third: a cold run
# SIGKILLed mid-matrix must
# resume from the result cache with zero recomputation of completed
# cells and render artifacts byte-identical to the uninterrupted cold
# pass above.
SUP_DIR="$(mktemp -d -t supervise.XXXXXX)"
trap 'rm -rf "$REPRO_COLD" "$SUP_DIR"' EXIT
cat > "$SUP_DIR/broken.scn" <<'EOF'
[scenario]
name = broken
kind = long_lived

[topology]
bottleneck = 1 Gbps

[run]
flows = 2
warmup = 20 ms
duration = 15 ms
trace = 100 us

[marking "ok"]
scheme = dctcp
k = 20 pkts

[marking "boom"]
scheme = dctcp
k = 21 pkts

[marking "wedge"]
scheme = dctcp
k = 22 pkts

[limits]
inject_panic = boom:2:1
inject_stall = wedge:2:1

[expect "saturated"]
check = metric_range
metric = utilization
marking = ok
min = 0.8

# Global (no marking selector), so it touches the quarantined cells and
# must be SKIPped - that is what drives repro_check's exit code to 3.
[expect "lossless"]
check = metric_range
metric = drops
max = 0
EOF
REPRO_CODE=0
cargo run --offline --release -q -p dctcp-scenario --bin repro -- \
    --out "$SUP_DIR/art" --cache "$SUP_DIR/broken_cache" "$SUP_DIR/broken.scn" || REPRO_CODE=$?
if [ "$REPRO_CODE" -ne 3 ]; then
    echo "ci.sh: partial matrix must exit 3, got $REPRO_CODE" >&2
    exit 1
fi
grep -q '"failures"' "$SUP_DIR/art/broken.json" || {
    echo "ci.sh: partial artifact lacks a failures block" >&2
    exit 1
}
CHECK_CODE=0
cargo run --offline --release -q -p dctcp-scenario --bin repro_check -- \
    --artifacts "$SUP_DIR/art" "$SUP_DIR/broken.scn" || CHECK_CODE=$?
if [ "$CHECK_CODE" -ne 3 ]; then
    echo "ci.sh: partial artifact must check with exit 3, got $CHECK_CODE" >&2
    exit 1
fi
REPRO_CODE=0
cargo run --offline --release -q -p dctcp-scenario --bin repro -- \
    --out "$SUP_DIR/replay" --cache "$SUP_DIR/broken_cache" "$SUP_DIR/broken.scn" \
    2> "$SUP_DIR/replay.err" || REPRO_CODE=$?
cat "$SUP_DIR/replay.err" >&2
if [ "$REPRO_CODE" -ne 3 ]; then
    echo "ci.sh: replayed partial matrix must exit 3, got $REPRO_CODE" >&2
    exit 1
fi
grep -q '(2 replayed from the cache)' "$SUP_DIR/replay.err" || {
    echo "ci.sh: second run must replay both broken cells" >&2
    exit 1
}
diff "$SUP_DIR/art/broken.json" "$SUP_DIR/replay/broken.json"

KILL_SCN="scenarios/fig05_oscillation.scn"
cargo run --offline --release -q -p dctcp-scenario --bin repro -- \
    --out "$SUP_DIR/resume" --cache "$SUP_DIR/cache" --threads 1 "$KILL_SCN" \
    > /dev/null 2>&1 &
REPRO_PID=$!
TRIES=0
while [ "$(find "$SUP_DIR/cache" -name '*.cell' 2>/dev/null | wc -l)" -eq 0 ]; do
    if ! kill -0 "$REPRO_PID" 2>/dev/null; then
        break # finished before the kill window - resume is then all-hit
    fi
    TRIES=$((TRIES + 1))
    if [ "$TRIES" -gt 6000 ]; then
        echo "ci.sh: no cell committed within the kill window" >&2
        exit 1
    fi
    sleep 0.01
done
kill -9 "$REPRO_PID" 2>/dev/null || true
wait "$REPRO_PID" 2>/dev/null || true
RESUME_SUMMARY="$(cargo run --offline --release -q -p dctcp-scenario --bin repro -- \
    --out "$SUP_DIR/resume" --cache "$SUP_DIR/cache" "$KILL_SCN")"
echo "$RESUME_SUMMARY"
case "$RESUME_SUMMARY" in
    *"cache 0 hits"*)
        echo "ci.sh: resume after kill -9 recomputed every cell: $RESUME_SUMMARY" >&2
        exit 1
        ;;
esac
diff "$SUP_DIR/resume/fig05_oscillation.json" artifacts/repro/fig05_oscillation.json

echo "==> fct-parity gate (thread-count byte-identity on the churn scenario)"
# The scenario-matrix gate above already ran fct_churn cold at 2
# threads, then warm, and validated its envelopes (a million completed
# flows per marking, DT-DCTCP short-flow p99 below DCTCP's). This gate
# pins the other half of the claim: the streaming FCT sketches must
# merge to byte-identical artifacts whether repro runs the cells on one
# worker thread or two. The 1-thread run is cold so each cell actually
# simulates, and is diffed against the matrix gate's 2-thread
# artifact. A quarantine (exit 3) of this committed scenario is a hard
# failure, named explicitly so the uploaded artifact can be found; any
# other nonzero exit fails too.
FCT_DIR="$(mktemp -d -t fct_parity.XXXXXX)"
trap 'rm -rf "$REPRO_COLD" "$SUP_DIR" "$FCT_DIR"' EXIT
FCT_CODE=0
cargo run --offline --release -q -p dctcp-scenario --bin repro -- \
    --out "$FCT_DIR/t1" --no-cache --threads 1 scenarios/fct_churn.scn || FCT_CODE=$?
if [ "$FCT_CODE" -eq 3 ]; then
    echo "ci.sh: fct_churn quarantined a cell at 1 thread" >&2
    echo "ci.sh: post-mortem artifact: $FCT_DIR/t1/fct_churn.json" >&2
    cp "$FCT_DIR/t1/fct_churn.json" artifacts/fct_churn_quarantined.json 2>/dev/null || true
    exit 1
elif [ "$FCT_CODE" -ne 0 ]; then
    echo "ci.sh: fct_churn failed at 1 thread (exit $FCT_CODE)" >&2
    exit 1
fi
diff "$FCT_DIR/t1/fct_churn.json" artifacts/repro/fct_churn.json

echo "CI full gate passed."
