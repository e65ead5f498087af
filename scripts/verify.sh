#!/usr/bin/env bash
# Tier-1 verification, exactly as CI would run it, with the network off.
#
#   1. No Cargo.toml may declare a non-path dependency (the workspace is
#      hermetic by construction; this catches regressions).
#   2. The workspace builds and tests with --offline.
#   3. If clippy is installed, it must pass with -D warnings.
#   4. rustdoc must build every crate's docs without a warning.
#
# Usage:
#   scripts/verify.sh           # full tier-1 run, per-suite wall times
#   scripts/verify.sh --quick   # dep check + build + lib/unit tests only
#                               # (budget: well under 60 s — skips the
#                               # statistical integration suites)
#
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

# Runs a labelled step and prints its wall time, so slow suites can't
# creep back in unnoticed. Pure bash integer math (no bc in the image).
timed() {
    local label="$1"
    shift
    local start_ms end_ms elapsed_ms
    start_ms=$(date +%s%3N)
    "$@"
    end_ms=$(date +%s%3N)
    elapsed_ms=$((end_ms - start_ms))
    printf '== %-28s %4d.%01ds ==\n' "$label" \
        $((elapsed_ms / 1000)) $((elapsed_ms % 1000 / 100))
}

echo "== checking that every dependency is a path dependency =="
fail=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Within [dependencies]/[dev-dependencies]/[build-dependencies]/
    # [workspace.dependencies] sections, every non-comment entry must
    # reference the workspace or a path.
    bad=$(awk '
        /^\[/ { in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]/) }
        in_deps && /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=/ {
            if ($0 !~ /workspace[[:space:]]*=[[:space:]]*true/ && $0 !~ /path[[:space:]]*=/) print
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "non-path dependency in $manifest:" >&2
        echo "$bad" >&2
        fail=1
    fi
done
[ "$fail" -eq 0 ] || exit 1
echo "ok: all dependencies are path/workspace entries"

echo "== offline release build =="
timed "release build" cargo build --workspace --release --offline

echo "== telemetry smoke =="
telemetry_smoke() {
    local workdir
    workdir=$(mktemp -d)
    ./target/release/banyan simulate --stages 3 --p 0.4 --cycles 2000 \
        --telemetry "$workdir/t.json" --dist-out "$workdir/d.json" \
        --trace-out "$workdir/tr.json" --progress > /dev/null
    python3 - "$workdir/t.json" <<'PY'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["schema"] == "banyan-obs/manifest/v2", m["schema"]
c = m["metrics"]["counters"]
for key in ("net.injected_total", "net.delivered_total", "net.in_flight_at_end"):
    assert key in c, f"missing counter {key}"
assert c["net.injected_total"] == c["net.delivered_total"] + c["net.in_flight_at_end"], c
assert any(s.startswith("net/") for s in m["spans"]), m["spans"].keys()
assert "net.wait.total" in m["distributions"], m["distributions"].keys()
assert m["span_quantiles"], "span quantiles missing"
assert any(g.startswith("net.drift.ks_ppm.") for g in m["metrics"]["gauges"]), \
    m["metrics"]["gauges"].keys()
print("ok: manifest v2 parses; conservation ledger closes; sketches + drift present")
PY
    # Structural validation of all three artifacts by the dedicated tool.
    ./target/release/manifest_check "$workdir/t.json" "$workdir/d.json" "$workdir/tr.json"
    rm -rf "$workdir"
}
timed "telemetry smoke" telemetry_smoke

echo "== serve smoke =="
serve_smoke() {
    local workdir pid addr expected
    workdir=$(mktemp -d)
    # Fast drift polling + cheap probes so the operational surface
    # (readyz, /metrics drift gauges) settles within the smoke budget.
    ./target/release/banyan serve --addr 127.0.0.1:0 \
        --telemetry "$workdir/serve.manifest.json" \
        --access-log "$workdir/access.jsonl" \
        --drift-threshold 0.9 --drift-poll-ms 100 \
        --probe-cycles 800 --probe-reps 2 > "$workdir/serve.out" &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^banyan serve listening on //p' "$workdir/serve.out")
        [ -n "$addr" ] && break
        sleep 0.05
    done
    if [ -z "$addr" ]; then
        echo "serve smoke: daemon never reported its address" >&2
        kill "$pid" 2>/dev/null || true
        exit 1
    fi
    # The daemon's analytic answer must agree with the CLI's evaluation
    # of the same closed form.
    expected=$(./target/release/banyan total --stages 6 --p 0.5 \
        | sed -n 's/^E(total waiting)[[:space:]]*= //p')
    python3 - "$addr" "$expected" <<'PY'
import http.client, json, sys, time
host, port = sys.argv[1].rsplit(":", 1)
expected = float(sys.argv[2])
conn = http.client.HTTPConnection(host, int(port), timeout=10)
body = json.dumps({"k": 2, "stages": 6, "p": 0.5, "mode": "analytic"})
conn.request("POST", "/query", body=body)
r = conn.getresponse()
assert r.status == 200, (r.status, r.read())
assert r.getheader("X-Banyan-Cache") == "miss", r.getheaders()
first = json.loads(r.read())
assert first["source"] == "analytic", first
assert abs(first["wait"]["mean"] - expected) < 5e-7, (first["wait"]["mean"], expected)
assert first["wait"]["p50"] <= first["wait"]["p99"] <= first["wait"]["p999"], first["wait"]
# Same query on the same keep-alive connection: a byte-identical cache hit.
conn.request("POST", "/query", body=body)
r = conn.getresponse()
assert r.getheader("X-Banyan-Cache") == "hit", r.getheaders()
assert json.loads(r.read()) == first
# Operational surface: liveness, the Prometheus exposition, readiness.
conn.request("GET", "/healthz")
r = conn.getresponse()
assert r.status == 200 and b"ok" in r.read(), "healthz must answer ok"
scrape = ""
for _ in range(100):  # wait for the drift monitor to probe the hot key
    conn.request("GET", "/metrics")
    r = conn.getresponse()
    assert r.status == 200, (r.status, r.read())
    ctype = r.getheader("Content-Type") or ""
    assert ctype.startswith("text/plain; version=0.0.4"), ctype
    scrape = r.read().decode()
    if "serve_drift_probe_ks_ppm" in scrape:
        break
    time.sleep(0.05)
else:
    raise AssertionError("drift monitor never probed the hot key:\n" + scrape)
assert "# TYPE serve_http_requests_total counter" in scrape, scrape
assert "serve_cache_hits 1" in scrape, scrape
assert 'serve_rolling_latency_us{route="query",window="10s",quantile="p99"}' in scrape, scrape
conn.request("GET", "/readyz")
r = conn.getresponse()
ready = r.read()
assert r.status == 200 and b"ready" in ready, (r.status, ready)
conn.request("POST", "/shutdown")
assert conn.getresponse().status == 200
print("ok: serve answered the closed form, cache hit, ops surface healthy")
PY
    wait "$pid"
    # The run manifest and the structured access log are both checked
    # structurally (the access log by its per-line v1 schema).
    ./target/release/manifest_check "$workdir/serve.manifest.json" \
        "$workdir/access.jsonl"

    # The other drift direction: a zero KS threshold marks every
    # analytic probe as drifted, which must flip /readyz to 503.
    ./target/release/banyan serve --addr 127.0.0.1:0 \
        --drift-threshold 0.0 --drift-poll-ms 100 \
        --probe-cycles 800 --probe-reps 2 > "$workdir/serve2.out" &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^banyan serve listening on //p' "$workdir/serve2.out")
        [ -n "$addr" ] && break
        sleep 0.05
    done
    if [ -z "$addr" ]; then
        echo "serve smoke: degraded daemon never reported its address" >&2
        kill "$pid" 2>/dev/null || true
        exit 1
    fi
    python3 - "$addr" <<'PY'
import http.client, json, sys, time
host, port = sys.argv[1].rsplit(":", 1)
conn = http.client.HTTPConnection(host, int(port), timeout=10)
body = json.dumps({"k": 2, "stages": 6, "p": 0.5, "mode": "analytic"})
conn.request("POST", "/query", body=body)
r = conn.getresponse()
assert r.status == 200, (r.status, r.read())
r.read()
text = ""
for _ in range(100):
    conn.request("GET", "/readyz")
    r = conn.getresponse()
    status, text = r.status, r.read().decode()
    if status == 503:
        break
    time.sleep(0.05)
else:
    raise AssertionError("readyz never went not-ready under a zero KS threshold")
assert "not-ready" in text and "drift" in text, text
conn.request("POST", "/shutdown")
assert conn.getresponse().status == 200
print("ok: zero-threshold drift flips /readyz to 503")
PY
    wait "$pid"
    rm -rf "$workdir"
}
timed "serve smoke" serve_smoke

echo "== flow smoke =="
flow_smoke() {
    local workdir pid addr
    workdir=$(mktemp -d)
    # CLI --json must be byte-identical to the daemon's GET /v1/flow
    # for the same canonical query.
    ./target/release/banyan flow --topo mesh --rows 2 --cols 2 --p 0.5 \
        --json > "$workdir/cli.json"
    ./target/release/banyan serve --addr 127.0.0.1:0 > "$workdir/serve.out" &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^banyan serve listening on //p' "$workdir/serve.out")
        [ -n "$addr" ] && break
        sleep 0.05
    done
    if [ -z "$addr" ]; then
        echo "flow smoke: daemon never reported its address" >&2
        kill "$pid" 2>/dev/null || true
        exit 1
    fi
    python3 - "$addr" "$workdir/cli.json" <<'PY'
import http.client, json, sys
host, port = sys.argv[1].rsplit(":", 1)
cli_body = open(sys.argv[2], "rb").read()
conn = http.client.HTTPConnection(host, int(port), timeout=10)
conn.request("GET", "/v1/flow?topo=mesh&rows=2&cols=2&p=0.5")
r = conn.getresponse()
assert r.status == 200, (r.status, r.read())
served = r.read()
assert served == cli_body, "CLI --json and /v1/flow bodies differ"
doc = json.loads(served)
assert doc["schema"] == "banyan-serve/flow/v1", doc["schema"]
assert doc["flows"] == 12 and len(doc["per_flow"]) == 12, doc["flows"]
# A batch: two identical capacity queries (the second must be served
# from the cache as the same answer) and one flow query.
batch = json.dumps([
    {"k": 2, "stages": 6, "p": 0.5, "mode": "analytic"},
    {"stages": 6, "k": 2, "mode": "analytic", "p": 0.5},
    {"topo": "mesh", "rows": 2, "cols": 2, "p": 0.5},
])
conn.request("POST", "/v1/batch", body=batch)
r = conn.getresponse()
assert r.status == 200, (r.status, r.read())
out = json.loads(r.read())
assert out["schema"] == "banyan-serve/batch/v1" and out["count"] == 3, out
assert out["results"][0] == out["results"][1], "batch cache must dedup"
assert out["results"][2]["schema"] == "banyan-serve/flow/v1", out["results"][2]
conn.request("POST", "/shutdown")
assert conn.getresponse().status == 200
print("ok: flow CLI/daemon bodies byte-identical; batch answered through the cache")
PY
    wait "$pid"
    # The flow drift path: a small sim dump must pass the dist checker.
    ./target/release/banyan flow --topo mesh --rows 2 --cols 2 --p 0.5 \
        --dist-out "$workdir/fd.json" --cycles 2000 --reps 1 > /dev/null
    ./target/release/manifest_check "$workdir/fd.json"
    rm -rf "$workdir"
}
timed "flow smoke" flow_smoke

echo "== msg-trace smoke =="
msgtrace_smoke() {
    local workdir
    workdir=$(mktemp -d)
    # The tracer's core contract: the scalar and stage-sweep engines
    # sample the same messages and emit byte-identical trace files.
    ./target/release/banyan simulate --stages 4 --p 0.5 --cycles 2000 \
        --reps 2 --engine scalar --msg-trace "$workdir/scalar.jsonl" \
        --msg-trace-rate 0.5 > /dev/null
    ./target/release/banyan simulate --stages 4 --p 0.5 --cycles 2000 \
        --reps 2 --engine sweep --msg-trace "$workdir/sweep.jsonl" \
        --msg-trace-rate 0.5 > /dev/null
    cmp "$workdir/scalar.jsonl" "$workdir/sweep.jsonl"
    echo "ok: scalar and sweep engine trace files byte-identical"
    # Structural validation (header schema, cycle chains, wait sums)
    # by the dedicated tool, then the inspector must accept the file.
    ./target/release/manifest_check "$workdir/scalar.jsonl"
    ./target/release/banyan trace --file "$workdir/scalar.jsonl" > /dev/null
    rm -rf "$workdir"
}
timed "msg-trace smoke" msgtrace_smoke

if [ "$QUICK" -eq 1 ]; then
    echo "== offline unit tests (--quick: libs + bins, minus the bench suites) =="
    # banyan-bench's lib tests exercise real timed benchmark runs
    # (calibration loops), far over the quick budget — full runs cover it.
    timed "unit tests" cargo test --workspace --exclude banyan-bench -q --offline --lib --bins
    # The line above also runs the flow engine's moment-table-equals-
    # per-hop-recompute tests (`engine::tests::moment_table_*`) and the
    # golden `/v1/flow` bodies (`serve::flow::tests`). The tiny-load cases
    # are CLI tests: a gamma fit whose mean²/var underflows must not
    # panic `banyan flow` or `banyan total`, and a first-stage quantile
    # at p = 1e-300 must not panic `banyan first-stage`.
    timed "tiny-load CLI" cargo test -q --offline --test cli tiny_load
    # The gamma quantile against an independent bisection oracle over
    # shapes 0.01..1000 and levels 1e-6..1-1e-9 (also in the unit tests
    # above; its own line keeps its wall time and failure visible).
    timed "gamma quantile oracle" cargo test -q --offline -p banyan-numerics --lib \
        inv_reg_gamma_matches_the_bisection_oracle
    # The line above includes banyan-obs's unit tests: the shared pmf
    # type (`sketch::tests`) and the msgtrace parser's refusals of
    # truncating or wrapping input. Also cheap: the pmf property suite
    # and manifest_check's sketch validator.
    timed "pmf properties" cargo test -q --offline -p banyan-stats --test properties histogram_
    timed "manifest_check tests" cargo test -q --offline -p banyan-bench --bin manifest_check
    # The paired estimator behind every overhead gate and perf verdict:
    # its interval against exact binomial order statistics, its power at
    # the guard's pass count, and bench_diff's verdicts over the
    # committed pairs fixture. (The rest of the bench lib times real
    # runs and stays out of the quick tier.)
    timed "paired estimator" cargo test -q --offline -p banyan-bench --lib paired::
    timed "bench_diff tests" cargo test -q --offline -p banyan-bench --bin bench_diff
    # The sweep-vs-scalar engine equivalence property test is cheap and
    # guards the simulator's core bit-identity contract, so it runs even
    # in the quick tier (integration suites are otherwise skipped).
    timed "sweep bit-identity" cargo test -q --offline -p banyan-sim --test properties sweep_engine_bit_identity
    # The same contract for telemetry: counters, gauges and their
    # high-water marks, the occupancy histogram and the wait sketches,
    # at sample cadences 1, 7, 64 and 256.
    timed "sweep telemetry parity" cargo test -q --offline -p banyan-sim --test properties sweep_engine_telemetry_parity
    # Replication merge is integer addition: forward, reversed and
    # shuffled merges of the same replications must compare equal.
    timed "order-free merge" cargo test -q --offline -p banyan-sim --test properties merge_is_order_free
    # The regimes only the scalar engine runs — finite-buffer blocking
    # and random-digit routing — pinned count for count, since the sweep
    # oracle above cannot cover them.
    timed "scalar pinned dynamics" cargo test -q --offline -p banyan-sim --test pinned_dynamics
    echo "verify: OK (quick tier — bench + integration suites not run)"
    exit 0
fi

echo "== offline test suite (per-suite wall times) =="
timed "lib + bin tests" cargo test --workspace -q --offline --lib --bins
# Workspace-level integration suites, one timing line each.
for suite in tests/*.rs; do
    name=$(basename "$suite" .rs)
    timed "suite: $name" cargo test -q --offline --test "$name"
done
# Per-crate integration suites.
for suite in crates/*/tests/*.rs; do
    dir=${suite%/tests/*}
    pkg=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1)
    name=$(basename "$suite" .rs)
    timed "suite: $pkg/$name" cargo test -q --offline -p "$pkg" --test "$name"
done
timed "doc tests" cargo test --workspace -q --offline --doc

echo "== telemetry overhead guard =="
timed "overhead guard" cargo run -q --offline --release -p banyan-bench --bin overhead_guard

echo "== manifest check over recorded artifacts =="
# Every committed run manifest (plus any freshly regenerated ones) must
# stay structurally valid: schema v1 or v2, finite numbers, pmf mass
# equal to sketch counts, conservation ledger closed.
timed "manifest check" ./target/release/manifest_check \
    results/*.manifest.json results/BENCH_serve.json results/BENCH_flow.json


if cargo clippy --version >/dev/null 2>&1; then
    echo "== clippy (-D warnings) =="
    timed "clippy" cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "== clippy not installed; skipping =="
fi

# Broken or private intra-doc links (say, to a deleted module) fail here.
echo "== rustdoc (-D warnings) =="
timed "rustdoc" env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "verify: OK"
