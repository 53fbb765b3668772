#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Fully offline — all dependencies are
# vendored in vendor/ and wired up via [workspace.dependencies].
#
# Usage: ci.sh [--bench-smoke] [--fault-smoke] [--trace-smoke] [--decision-smoke]
#              [--analysis-smoke] [--shard-smoke] [--serve-smoke] [--obs-smoke]
#              [--bench-diff]
#   --bench-smoke     additionally compiles every benchmark and runs a
#                     smoke-sized bench_sweep, writing BENCH_sweep.json.
#   --fault-smoke     additionally runs the tiny resilience sweep and
#                     checks its manifest carries a "faults" section.
#   --trace-smoke     additionally runs the traced demo sweep (which
#                     asserts serial == parallel trace bytes itself) and
#                     checks the Perfetto file and the manifest's "trace"
#                     section landed.
#   --decision-smoke  additionally runs the ledgered UGAL-L/UGAL-G sweeps
#                     (which assert serial == parallel manifest bytes
#                     themselves), checks both manifests carry
#                     "algorithm" and "decisions" sections, and runs
#                     d2net-compare over them expecting the hop-2
#                     blindness attribution.
#   --analysis-smoke  additionally runs the analytic-oracle gate
#                     (d2net-analyze: §4.2 exactness, divergence gate,
#                     serial == parallel manifest bytes), checks the
#                     manifests carry "analysis" sections with passing
#                     verdicts, and runs a smoke-sized bench_analysis
#                     writing BENCH_analysis.json.
#   --shard-smoke     additionally runs the intra-run sharding gate
#                     (d2net-shard: the Fig. 13 all-to-all on SF(5)
#                     under MIN, INR and UGAL-L reports the same
#                     ExchangeStats at 1, 2 and 3 shards; sharded sweep
#                     manifests byte-equal the serial engine's, through
#                     the serial harness at two shard counts and the
#                     parallel harness at two thread budgets) and checks
#                     the written manifest carries a "sharding" section.
#   --serve-smoke     additionally runs the batch sweep service gate
#                     (d2net-serve): spools two requests, SIGTERMs the
#                     server mid-sweep, restarts it with --once, and
#                     asserts the resumed manifest byte-equals an
#                     uninterrupted run's once the "supervision" section
#                     is stripped — and that the section records the
#                     resume.
#   --obs-smoke       additionally runs the observability gate: starts
#                     d2net-serve with a status endpoint and an event
#                     log, probes /healthz and /metrics through
#                     d2net-top (which enforces the exposition grammar),
#                     checks the service gauges, and asserts the event
#                     log carries the schema header plus the service and
#                     request lifecycle codes.
#   --bench-diff      additionally runs the bench-regression gate: two
#                     real smoke-sized bench_engine runs appended to a
#                     history file, bench_diff compare produces coded
#                     verdicts, and a planted regression (--scale) must
#                     trip the gate with a non-zero exit.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

BENCH_SMOKE=0
FAULT_SMOKE=0
TRACE_SMOKE=0
DECISION_SMOKE=0
ANALYSIS_SMOKE=0
SHARD_SMOKE=0
SERVE_SMOKE=0
OBS_SMOKE=0
BENCH_DIFF=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    --fault-smoke) FAULT_SMOKE=1 ;;
    --trace-smoke) TRACE_SMOKE=1 ;;
    --decision-smoke) DECISION_SMOKE=1 ;;
    --analysis-smoke) ANALYSIS_SMOKE=1 ;;
    --shard-smoke) SHARD_SMOKE=1 ;;
    --serve-smoke) SERVE_SMOKE=1 ;;
    --obs-smoke) OBS_SMOKE=1 ;;
    --bench-diff) BENCH_DIFF=1 ;;
    *) echo "ci.sh: unknown option '$arg'" >&2; exit 2 ;;
  esac
done

echo "== cargo build --release =="
cargo build --release --workspace --all-targets

echo "== cargo test =="
cargo test -q --release --workspace

echo "== determinism gates, single-threaded test runner =="
# The suite itself exercises the worker pool; running it under both the
# default and a single-threaded test runner rules out any dependence on
# harness-level interleaving.
cargo test -q --release --test determinism -- --test-threads=1

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== static verification gate (paper-standard configs) =="
cargo run --release --example d2net-verify -- --paper-gate

if [[ "$BENCH_SMOKE" == "1" ]]; then
  echo "== bench smoke: compile benches, time a reduced sweep =="
  cargo bench --no-run --workspace
  D2NET_BENCH_DURATION_NS=10000 D2NET_BENCH_LOAD_STEPS=4 \
    cargo run --release -p d2net-bench --bin bench_sweep -- BENCH_sweep.json
  grep -q '"schema":"d2net.bench-sweep/v1"' BENCH_sweep.json
fi

if [[ "$FAULT_SMOKE" == "1" ]]; then
  echo "== fault smoke: resilience sweep over SF/MLFM/OFT, manifest gate =="
  cargo run --release --example d2net-resilience -- --out FAULT_smoke.json
  grep -q '"faults"' FAULT_smoke.json
  grep -q '"unreachable_pairs"' FAULT_smoke.json
fi

if [[ "$TRACE_SMOKE" == "1" ]]; then
  echo "== trace smoke: traced sweep, Perfetto export + manifest gate =="
  cargo run --release --example d2net-trace -- \
    --rate 16 --out TRACE_smoke.json --manifest TRACE_manifest.json
  grep -q '"traceEvents"' TRACE_smoke.json
  grep -q '"schema":"d2net.chrome-trace/v1"' TRACE_smoke.json
  grep -q '"trace"' TRACE_manifest.json
  grep -q '"events_popped"' TRACE_manifest.json
fi

if [[ "$DECISION_SMOKE" == "1" ]]; then
  echo "== decision smoke: ledgered UGAL-L/UGAL-G sweeps, manifest + compare gate =="
  cargo run --release --example d2net-decisions -- \
    --manifest-l DECISIONS_ugal_l.json --manifest-g DECISIONS_ugal_g.json
  grep -q '"decisions"' DECISIONS_ugal_l.json
  grep -q '"decisions"' DECISIONS_ugal_g.json
  grep -q '"algorithm":{"kind":"ugal"' DECISIONS_ugal_l.json
  grep -q '"algorithm":{"kind":"ugal_g"' DECISIONS_ugal_g.json
  grep -q '"misroute_rate"' DECISIONS_ugal_l.json
  cargo run --release --example d2net-compare -- \
    DECISIONS_ugal_l.json DECISIONS_ugal_g.json | tee COMPARE_decisions.txt
  grep -q 'first divergence at load' COMPARE_decisions.txt
  grep -q 'first-hop-only cost visibility' COMPARE_decisions.txt
fi

if [[ "$ANALYSIS_SMOKE" == "1" ]]; then
  echo "== analysis smoke: analytic oracle gate + static-vs-sim bench =="
  cargo run --release --example d2net-analyze -- --prefix ANALYSIS_smoke_
  for f in ANALYSIS_smoke_SF5.json ANALYSIS_smoke_MLFM4.json ANALYSIS_smoke_OFT4.json; do
    grep -q '"analysis"' "$f"
    grep -q '"predicted_saturation"' "$f"
    grep -q '"passed":true' "$f"
  done
  D2NET_BENCH_DURATION_NS=10000 D2NET_BENCH_LOAD_STEPS=3 \
    cargo run --release -p d2net-bench --bin bench_analysis -- BENCH_analysis.json
  grep -q '"schema":"d2net.bench-analysis/v1"' BENCH_analysis.json
  grep -q '"gate_passed":true' BENCH_analysis.json
fi

if [[ "$SHARD_SMOKE" == "1" ]]; then
  echo "== shard smoke: sharded exchanges and sweeps byte-equal serial, manifest gate =="
  cargo run --release --example d2net-shard -- --out SHARD_smoke.json
  grep -q '"sharding"' SHARD_smoke.json
  grep -q '"shards":2' SHARD_smoke.json
  grep -q '"thread_budget":6' SHARD_smoke.json
fi

if [[ "$SERVE_SMOKE" == "1" ]]; then
  echo "== serve smoke: spool, SIGTERM mid-sweep, resume, byte-equality gate =="
  cargo build --release --example d2net-serve
  SERVE=target/release/examples/d2net-serve
  SPOOL=$(mktemp -d)
  trap 'rm -rf "$SPOOL"' EXIT
  mkdir -p "$SPOOL/spool" "$SPOOL/out" "$SPOOL/clean"
  # Request A is sized so SIGTERM lands mid-sweep (8 points x 60 us);
  # request B is small and should finish in the first pass.
  cat > "$SPOOL/req-a.json" <<'EOF'
{"id":"req-a","topology":"slim_fly:5","algorithm":"minimal","pattern":"uniform","steps":8,"duration_ns":60000,"warmup_ns":10000,"seed":21}
EOF
  cat > "$SPOOL/req-b.json" <<'EOF'
{"id":"req-b","topology":"mlfm:4","algorithm":"valiant","pattern":"uniform","loads":[0.2,0.5],"duration_ns":8000,"warmup_ns":1500,"seed":22}
EOF
  # Uninterrupted baseline for request A.
  cp "$SPOOL/req-a.json" "$SPOOL/clean/req-a.json"
  "$SERVE" "$SPOOL/clean" --out "$SPOOL/clean" --once > /dev/null

  cp "$SPOOL/req-a.json" "$SPOOL/req-b.json" "$SPOOL/spool/"
  "$SERVE" "$SPOOL/spool" --out "$SPOOL/out" --workers 1 &
  SRV=$!
  # SIGTERM once request A's journal holds at least two completed
  # points (header + 2 lines) — i.e. genuinely mid-sweep.
  for _ in $(seq 1 600); do
    LINES=$(wc -l < "$SPOOL/out/req-a.journal" 2>/dev/null || echo 0)
    [[ "$LINES" -ge 3 ]] && break
    sleep 0.05
  done
  kill -TERM "$SRV"
  wait "$SRV"
  test -f "$SPOOL/spool/req-a.json"        # interrupted request stays spooled
  test -f "$SPOOL/out/req-a.journal"       # with its journal
  # Restart drains the spool, resuming request A from the journal.
  "$SERVE" "$SPOOL/spool" --out "$SPOOL/out" --once
  test ! -e "$SPOOL/spool/req-a.json"
  grep -q '"supervision"' "$SPOOL/out/req-a.manifest.json"
  grep -q '"skipped_by_resume":' "$SPOOL/out/req-a.manifest.json"
  grep -q '"schema":"d2net.run-manifest/v1"' "$SPOOL/out/req-b.manifest.json"
  # The resumed manifest must byte-equal the uninterrupted one modulo
  # the supervision section (the one legitimate difference).
  sed 's/"supervision":{[^{}]*},//' "$SPOOL/out/req-a.manifest.json" > "$SPOOL/resumed_stripped.json"
  cmp "$SPOOL/resumed_stripped.json" "$SPOOL/clean/req-a.manifest.json"
  trap - EXIT
  rm -rf "$SPOOL"
fi

if [[ "$OBS_SMOKE" == "1" ]]; then
  echo "== obs smoke: status endpoint, metrics grammar, event log, live top =="
  cargo build --release --example d2net-serve --example d2net-top
  SERVE=target/release/examples/d2net-serve
  TOP=target/release/examples/d2net-top
  OBSD=$(mktemp -d)
  trap 'rm -rf "$OBSD"' EXIT
  mkdir -p "$OBSD/spool" "$OBSD/out"
  cat > "$OBSD/spool/req-obs.json" <<'EOF'
{"id":"req-obs","topology":"slim_fly:5","algorithm":"minimal","pattern":"uniform","steps":6,"duration_ns":30000,"warmup_ns":5000,"seed":33}
EOF
  "$SERVE" "$OBSD/spool" --out "$OBSD/out" --status-addr 127.0.0.1:0 \
    --events "$OBSD/events.jsonl" > "$OBSD/serve.log" &
  SRV=$!
  # The service binds port 0 and prints the resolved address.
  ADDR=
  for _ in $(seq 1 200); do
    ADDR=$(sed -n 's/^d2net-serve: status listening on //p' "$OBSD/serve.log" | head -1)
    [[ -n "$ADDR" ]] && break
    sleep 0.05
  done
  test -n "$ADDR"
  # Wait until the spooled request has fully completed so the lifecycle
  # codes and final counters are all in place.
  for _ in $(seq 1 600); do
    [[ -f "$OBSD/out/req-obs.manifest.json" ]] && break
    sleep 0.05
  done
  test -f "$OBSD/out/req-obs.manifest.json"
  # Dashboard probe: d2net-top exits non-zero on unreachable endpoints,
  # failed health checks, or exposition-grammar violations.
  "$TOP" --status "$ADDR" --once | tee "$OBSD/top.txt"
  grep -q 'points:' "$OBSD/top.txt"
  grep -q 'healthy' "$OBSD/top.txt"
  # Raw exposition carries the progress counters and service gauges.
  "$TOP" --status "$ADDR" --once --raw > "$OBSD/metrics.txt"
  grep -q '^d2net_spool_depth ' "$OBSD/metrics.txt"
  grep -q '^d2net_inflight_requests ' "$OBSD/metrics.txt"
  grep -q '^d2net_points_per_sec ' "$OBSD/metrics.txt"
  grep -q '^d2net_points_scheduled_total 6$' "$OBSD/metrics.txt"
  grep -q '^d2net_requests_total{outcome="completed"} 1$' "$OBSD/metrics.txt"
  kill -TERM "$SRV"
  wait "$SRV"
  grep -q 'drained and exiting' "$OBSD/serve.log"
  # The event log: schema header plus service/request lifecycle codes.
  head -1 "$OBSD/events.jsonl" | grep -q 'd2net.events/v1'
  grep -q '"code":"service_start"' "$OBSD/events.jsonl"
  grep -q '"code":"request_spooled"' "$OBSD/events.jsonl"
  grep -q '"code":"request_started"' "$OBSD/events.jsonl"
  grep -q '"code":"request_completed"' "$OBSD/events.jsonl"
  grep -q '"code":"sweep_start"' "$OBSD/events.jsonl"
  grep -q '"code":"point_run"' "$OBSD/events.jsonl"
  grep -q '"code":"service_stop"' "$OBSD/events.jsonl"
  # The tail view parses every line or dies.
  "$TOP" --events "$OBSD/events.jsonl" --once > /dev/null
  trap - EXIT
  rm -rf "$OBSD"
fi

if [[ "$BENCH_DIFF" == "1" ]]; then
  echo "== bench diff: history from two real runs, verdicts, planted regression trips =="
  cargo build --release -p d2net-bench --bin bench_engine --bin bench_diff
  BENGINE=target/release/bench_engine
  BDIFF=target/release/bench_diff
  DIFFD=$(mktemp -d)
  trap 'rm -rf "$DIFFD"' EXIT
  HIST="$DIFFD/bench_history.jsonl"
  D2NET_BENCH_DURATION_NS=10000 "$BENGINE" "$DIFFD/BENCH_engine_a.json"
  D2NET_BENCH_DURATION_NS=10000 "$BENGINE" "$DIFFD/BENCH_engine_b.json"
  "$BDIFF" append "$DIFFD/BENCH_engine_a.json" --history "$HIST" --label base
  "$BDIFF" append "$DIFFD/BENCH_engine_b.json" --history "$HIST" --label head
  # Two real smoke runs: verdicts must appear. The wide threshold keeps
  # CI timing noise from tripping the gate here.
  "$BDIFF" compare --history "$HIST" --threshold 0.9 | tee "$DIFFD/diff.txt"
  grep -Eq 'REGRESSION|IMPROVEMENT|NEUTRAL' "$DIFFD/diff.txt"
  # Plant a regression (documented --scale test hook); the gate must
  # trip with a non-zero exit and name the regressed groups.
  "$BDIFF" append "$DIFFD/BENCH_engine_b.json" --history "$HIST" --label planted --scale 0.4
  if "$BDIFF" compare --history "$HIST" --threshold 0.15 > "$DIFFD/diff_regression.txt"; then
    echo "ci.sh: planted regression did not trip the bench gate" >&2
    exit 1
  fi
  grep -q 'REGRESSION' "$DIFFD/diff_regression.txt"
  trap - EXIT
  rm -rf "$DIFFD"
fi

echo "ci.sh: all green"
