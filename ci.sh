#!/usr/bin/env bash
# Tier-1 gate: build, test, lint, and build and test the perfbench
# benchmark. Fully offline — all dependencies are vendored in vendor/
# and wired up via [workspace.dependencies].
#
# Usage: ci.sh [--bench-smoke] [--fault-smoke] [--trace-smoke] [--decision-smoke]
#              [--analysis-smoke] [--shard-smoke] [--serve-smoke] [--obs-smoke]
#              [--bench-diff]
#   --bench-smoke     additionally runs each perfbench workload for one
#                     second and checks its result line says
#                     "correct": true.
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
#                     serial == parallel manifest bytes) and checks the
#                     manifests carry "analysis" sections with passing
#                     verdicts.
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
#                     short real perfbench runs appended to a temp
#                     history as two builds, bench_diff compare produces
#                     coded verdicts, a planted regression (a copied
#                     result line with run_s x1.5) must trip the gate
#                     with exit 1, and a record with an edited host stamp
#                     must be reported INCOMPARABLE without tripping it.
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

echo "== perfbench: build the benchmark and run its planted-fault tests =="
# perfbench is a package of its own (not a workspace member); building
# it here catches an API change that breaks the benchmark's entry points.
cargo test --release --manifest-path perfbench/Cargo.toml

if [[ "$BENCH_SMOKE" == "1" ]]; then
  echo "== bench smoke: one second of each perfbench workload, correct results =="
  for w in coral_sweep exchange_a2a coral_certify; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1 \
      | grep -Eq '"correct": ?true'
  done
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
  echo "== analysis smoke: analytic oracle gate =="
  cargo run --release --example d2net-analyze -- --prefix ANALYSIS_smoke_
  for f in ANALYSIS_smoke_SF5.json ANALYSIS_smoke_MLFM4.json ANALYSIS_smoke_OFT4.json; do
    grep -q '"analysis"' "$f"
    grep -q '"predicted_saturation"' "$f"
    grep -q '"passed":true' "$f"
  done
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
  cargo build --release -p d2net-bench --bin bench_diff
  BDIFF=target/release/bench_diff
  DIFFD=$(mktemp -d)
  trap 'rm -rf "$DIFFD"' EXIT
  HIST="$DIFFD/bench_history.jsonl"
  LABEL=$(git rev-parse --short HEAD 2>/dev/null || echo run)
  # compare judges builds (labels), so the two runs of this build are
  # recorded as two.
  for seed in 1 2; do
    python3 perfbench/run.py --workload coral_certify --seed "$seed" --seconds 1 --trace 0 \
      > "$DIFFD/run_$seed.txt"
    "$BDIFF" append coral_certify "$seed" 1 0 "$DIFFD/run_$seed.txt" \
      --history "$HIST" --label "$LABEL-run$seed"
  done
  # Two real one-second runs: coded verdicts must appear. Exit 1 is
  # allowed here, since single short runs are noisy; exit 2 (no pair,
  # bad input) is not.
  STATUS=0
  "$BDIFF" compare --history "$HIST" > "$DIFFD/diff.txt" || STATUS=$?
  cat "$DIFFD/diff.txt"
  [[ "$STATUS" -le 1 ]]
  grep -Eq 'benchdiff: (REGRESSION|IMPROVEMENT|NEUTRAL) workload=coral_certify metric=run_s' \
    "$DIFFD/diff.txt"
  # Plant a regression: the last result line with run_s x1.5. The gate
  # must exit 1 and name it.
  python3 -c '
import json, sys
result = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
result["metrics"]["run_s"]["value"] *= 1.5
print(json.dumps(result))
' "$DIFFD/run_2.txt" > "$DIFFD/planted.txt"
  "$BDIFF" append coral_certify 2 1 0 "$DIFFD/planted.txt" --history "$HIST" --label planted
  STATUS=0
  "$BDIFF" compare --history "$HIST" > "$DIFFD/diff_regression.txt" || STATUS=$?
  cat "$DIFFD/diff_regression.txt"
  if [[ "$STATUS" -ne 1 ]]; then
    echo "ci.sh: planted regression did not trip the bench gate (exit $STATUS)" >&2
    exit 1
  fi
  grep -q 'benchdiff: REGRESSION workload=coral_certify metric=run_s' "$DIFFD/diff_regression.txt"
  # A record from another host (its stamp edited, run_s x1.5 again) is
  # INCOMPARABLE and never a regression.
  python3 -c '
import json, sys
record = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
record["host"]["cpu_model"] += " (other host)"
record["label"] = "other-host"
record["result"]["metrics"]["run_s"]["value"] *= 1.5
print(json.dumps(record))
' "$HIST" > "$DIFFD/other_host.jsonl"
  cat "$DIFFD/other_host.jsonl" >> "$HIST"
  "$BDIFF" compare --history "$HIST" > "$DIFFD/diff_host.txt"
  cat "$DIFFD/diff_host.txt"
  grep -q 'benchdiff: INCOMPARABLE workload=coral_certify' "$DIFFD/diff_host.txt"
  trap - EXIT
  rm -rf "$DIFFD"
fi

echo "ci.sh: all green"
