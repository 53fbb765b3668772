//! `coral_sweep`: one CORAL-scale supervised sweep per repetition.
//!
//! Two requests in the `d2net-serve` spool grammar go through
//! `SupervisedRequest::from_json` and `run_supervised`, each with a
//! journal and a written manifest: MLFM(h=15) under MIN with uniform
//! loads below and above saturation, and the same network under its
//! worst-case permutation. The run pins one sweep worker and two shards
//! through `D2NET_THREADS`/`D2NET_SHARDS` (set by `main`), so the
//! workload stays valid if the run API or sharding changes shape.

use std::path::Path;
use std::time::Instant;

use d2net_core::analysis::TrafficMatrix;
use d2net_core::prelude::*;

use crate::checks::{delay_at_least, matches, throughput_within};
use crate::timing::{repeat, Clock};
use crate::{counters_only, Outcome};

/// §4.1 CORAL config, in the request grammar.
const TOPOLOGY: &str = "mlfm:15";
/// Uniform offered loads: two below MIN's saturation, one above it.
const UNIFORM_LOADS: [f64; 3] = [0.2, 0.5, 0.95];
/// Index of the mid load whose mean delay is reported.
const MID: usize = 1;
/// Worst-case offered load, above the 1/h = 0.0667 saturation.
const WORST_LOAD: f64 = 0.15;
/// Simulated time of the uniform request; the worst-case request runs
/// longer, since its throughput is checked against the oracle and its
/// queues take longer to settle at the 1/h bottleneck.
const UNIFORM_NS: u64 = 2_000;
const WORST_NS: u64 = 6_000;
/// Worst-case throughput must match the oracle within this share.
const WORST_TOLERANCE: f64 = 0.03;

/// A request document; a quarter of the simulated time is warm-up.
fn request_json(id: &str, pattern: &str, loads: &[f64], duration_ns: u64, seed: u64) -> String {
    let loads: Vec<String> = loads.iter().map(|l| l.to_string()).collect();
    format!(
        "{{\"id\":\"{id}\",\"topology\":\"{TOPOLOGY}\",\"algorithm\":\"minimal\",\
         \"pattern\":\"{pattern}\",\"loads\":[{}],\"duration_ns\":{duration_ns},\
         \"warmup_ns\":{},\"seed\":{seed}}}",
        loads.join(","),
        duration_ns / 4
    )
}

/// One request's result as the repetition loop compares it.
#[derive(Debug, Clone, PartialEq)]
struct RequestRun {
    finished: bool,
    manifest: String,
    points: Vec<SyntheticStats>,
}

fn points_of(run: &SupervisedRun) -> Vec<SyntheticStats> {
    run.manifest
        .curves
        .iter()
        .flat_map(|c| c.points.iter().map(|p| p.stats.clone()))
        .collect()
}

/// Runs both requests once, journaling and writing manifests to `out`.
fn run_requests(clock: &mut Clock, reqs: &[SupervisedRequest], out: &Path) -> Vec<RequestRun> {
    reqs.iter()
        .map(|req| {
            let journal = out.join(format!("{}.journal", req.id));
            // A journal left by the previous repetition would resume
            // the sweep instead of rerunning it.
            let _ = std::fs::remove_file(&journal);
            let run = clock
                .span("supervised_s", || run_supervised(req, Some(&journal), None))
                .expect("journal inside the benchmark's output directory");
            let manifest = clock.span("manifest_encode_s", || run.manifest.to_json());
            clock
                .span("manifest_write_s", || {
                    write_atomic(out.join(format!("{}.manifest.json", req.id)), &manifest)
                })
                .expect("manifest inside the benchmark's output directory");
            RequestRun {
                finished: run.finished,
                points: points_of(&run),
                manifest,
            }
        })
        .collect()
}

fn set_shards(k: &str) {
    // Single-threaded here: every worker of the previous call has joined.
    std::env::set_var("D2NET_SHARDS", k);
}

pub fn run(seed: u64, seconds: f64, clock: &mut Clock, out: &Path, start: Instant) -> Outcome {
    let mut o = Outcome::default();
    let reqs: Vec<SupervisedRequest> = [
        ("coral-uniform", "uniform", &UNIFORM_LOADS[..], UNIFORM_NS),
        ("coral-worst", "worst_case", &[WORST_LOAD][..], WORST_NS),
    ]
    .iter()
    .map(|&(id, pattern, loads, duration_ns)| {
        let doc = request_json(id, pattern, loads, duration_ns, seed);
        clock
            .span("topo_build_s", || SupervisedRequest::from_json(&doc))
            .expect("benchmark request parses")
    })
    .collect();
    let net = &reqs[0].net;
    let min = clock.span("route_tables_s", || {
        RoutePolicy::new(net, Algorithm::Minimal)
    });
    o.set("setup_s", start.elapsed().as_secs_f64());

    let reps = repeat(clock, seconds, |c| run_requests(c, &reqs, out));
    let failed = reps
        .output
        .iter()
        .filter(|r| !r.finished || r.points.iter().any(|p| p.exhausted))
        .count();
    o.set_reps(&reps, reqs.len() as u64, failed as u64);
    let runs = &reps.output;

    // The same requests on one shard must give the same bytes.
    set_shards("1");
    let serial = run_requests(&mut Clock::new(false, start), &reqs, out);
    set_shards("2");
    if serial != *runs {
        o.violations
            .push("2-shard sweep differs from the same requests run on one shard".into());
    }

    // Oracle predictions on the same tables.
    let lat = LatencyModel::paper_default();
    let worst = parse_pattern("worst_case", net).expect("MLFM has a worst case");
    let SyntheticPattern::Permutation(perm) = &worst else {
        unreachable!("MLFM worst case is a permutation")
    };
    let (uni, wc, a2a, a2a_ugal) = clock.span("oracle_s", || {
        let analyze = |p: &RoutePolicy, tm: TrafficMatrix| {
            analyze_policy(net, p, &tm, &lat).expect("pristine network")
        };
        let ugal = RoutePolicy::new(net, best_adaptive(net).1);
        (
            analyze(&min, TrafficMatrix::uniform(net).expect("uniform")),
            analyze(
                &min,
                TrafficMatrix::permutation(net, perm).expect("permutation"),
            ),
            analyze(&min, TrafficMatrix::all_to_all(net).expect("all-to-all")),
            analyze(&ugal, TrafficMatrix::all_to_all(net).expect("all-to-all")),
        )
    });

    let (uniform, worst_run) = (&runs[0].points, &runs[1].points);
    if uniform.len() != UNIFORM_LOADS.len() || worst_run.len() != 1 {
        o.violations
            .push("a request returned the wrong number of points".into());
        return o;
    }
    for (p, load) in uniform.iter().zip(UNIFORM_LOADS) {
        let label = format!("uniform load {load}");
        o.check(throughput_within(
            &label,
            p.throughput,
            load,
            uni.saturation_hi,
        ));
        o.check(delay_at_least(
            &label,
            p.avg_delay_ns,
            uni.reports[0].zero_load_latency_ns,
        ));
    }
    let w = &worst_run[0];
    o.check(throughput_within(
        "worst case",
        w.throughput,
        WORST_LOAD,
        wc.saturation_hi,
    ));
    o.check(matches(
        "worst case vs oracle",
        w.throughput,
        wc.saturation_lo,
        WORST_TOLERANCE,
    ));
    o.check(delay_at_least(
        "worst case",
        w.avg_delay_ns,
        wc.reports[0].zero_load_latency_ns,
    ));
    for p in uniform.iter().chain(worst_run) {
        if p.dropped_packets > 0 || p.deadlocked {
            o.violations.push(format!(
                "load {}: {} packets dropped, deadlocked = {}",
                p.offered_load, p.dropped_packets, p.deadlocked
            ));
        }
    }
    o.set(
        "sat_throughput",
        uniform[UNIFORM_LOADS.len() - 1].throughput,
    );
    o.set("mean_delay_ns", uniform[MID].avg_delay_ns);
    o.set("a2a_throughput", a2a.saturation_hi);
    o.set("a2a_adaptive_throughput", a2a_ugal.saturation_lo);

    if clock.traced() {
        trace_layers(&mut o, clock, &reqs, &min, runs, out);
    }
    o
}

/// Runs every point of `reqs` straight through the engine, checking
/// each against the supervised point. Untimed runs attach a
/// counters-only trace, whose bookkeeping would inflate a timed one.
/// Returns the seconds, the packets delivered and the counters.
fn direct_points(
    o: &mut Outcome,
    reqs: &[SupervisedRequest],
    min: &RoutePolicy,
    runs: &[RequestRun],
    with_counters: bool,
) -> (f64, u64, Vec<HotCounters>) {
    let net = &reqs[0].net;
    let (mut seconds, mut packets, mut counters) = (0.0, 0u64, Vec::new());
    for (req, run) in reqs.iter().zip(runs) {
        let pattern = parse_pattern(&req.pattern_spec, net).expect("validated at parse time");
        for (idx, (&load, want)) in req.loads.iter().zip(&run.points).enumerate() {
            let mut cfg = req.cfg;
            cfg.seed = point_seed(req.cfg.seed, idx);
            let (dur, warm) = (req.duration_ns, req.warmup_ns);
            let t = Instant::now();
            let stats = if with_counters {
                let (stats, trace) = run_synthetic_sharded_traced(
                    net,
                    min,
                    &pattern,
                    load,
                    dur,
                    warm,
                    cfg,
                    counters_only(),
                );
                counters.push(trace.counters);
                stats
            } else {
                run_synthetic_sharded(net, min, &pattern, load, dur, warm, cfg)
            };
            seconds += t.elapsed().as_secs_f64();
            packets += stats.delivered_packets;
            if stats != *want {
                o.violations.push(format!(
                    "{}: load {load} run directly differs from the supervised point",
                    req.id
                ));
            }
        }
    }
    (seconds, packets, counters)
}

/// The per-layer pass of a traced run: the same points run straight
/// through the engine, one point at one and at two shards, and the
/// journal appends on their own.
fn trace_layers(
    o: &mut Outcome,
    clock: &mut Clock,
    reqs: &[SupervisedRequest],
    min: &RoutePolicy,
    runs: &[RequestRun],
    out: &Path,
) {
    // The harness costs about 1% of a repetition, far less than the
    // box's drift, so each supervised run is paired with a direct run
    // of the same points right after it and the differences are used.
    let (mut engine, mut harness, mut packets) = (Vec::new(), Vec::new(), 0);
    for _ in 0..2 {
        let t = Instant::now();
        run_requests(&mut Clock::new(false, t), reqs, out);
        let supervised_s = t.elapsed().as_secs_f64();
        let engine_s;
        (engine_s, packets, _) = direct_points(o, reqs, min, runs, false);
        clock.record("engine_s", engine_s);
        engine.push(engine_s);
        harness.push(supervised_s - engine_s);
    }
    for c in &direct_points(o, reqs, min, runs, true).2 {
        o.add_counters(c);
    }
    let engine_s = crate::timing::median(&engine);
    o.set("engine_s", engine_s);
    o.set("events_per_s", o.metrics["events_popped"] / engine_s);
    o.set("packets_per_s", packets as f64 / engine_s);
    o.set("harness_s", crate::timing::median(&harness));

    let net = &reqs[0].net;
    // Shard speedup on the highest uniform load, alternating 1 and 2
    // shards twice.
    let req = &reqs[0];
    let load = UNIFORM_LOADS[UNIFORM_LOADS.len() - 1];
    let mut cfg = req.cfg;
    cfg.seed = point_seed(req.cfg.seed, UNIFORM_LOADS.len() - 1);
    let mut times = [Vec::new(), Vec::new()];
    for _ in 0..2 {
        for (k, slot) in [("1", 0), ("2", 1)] {
            set_shards(k);
            let t = Instant::now();
            run_synthetic_sharded(
                net,
                min,
                &SyntheticPattern::Uniform,
                load,
                req.duration_ns,
                req.warmup_ns,
                cfg,
            );
            times[slot].push(t.elapsed().as_secs_f64());
        }
    }
    set_shards("2");
    o.set(
        "shard_speedup",
        crate::timing::median(&times[0]) / crate::timing::median(&times[1]),
    );

    // Journal appends alone, on a journal of their own.
    let mut append_s = 0.0;
    let mut journal_bytes = 0u64;
    for (req, run) in reqs.iter().zip(runs) {
        let path = out.join(format!("{}.append.journal", req.id));
        let _ = std::fs::remove_file(&path);
        let (journal, _) =
            PointJournal::open(&path, req.run_key(), run.points.len()).expect("journal opens");
        let t = Instant::now();
        for (idx, stats) in run.points.iter().enumerate() {
            journal.append(idx, stats).expect("journal append");
        }
        append_s += t.elapsed().as_secs_f64();
        journal_bytes +=
            std::fs::metadata(out.join(format!("{}.journal", req.id))).map_or(0, |m| m.len());
    }
    o.set("journal_append_s", append_s);
    o.set("journal_bytes", journal_bytes as f64);
    o.set("manifest_encode_s", clock.per_rep("manifest_encode_s"));
    o.set(
        "manifest_bytes",
        runs.iter().map(|r| r.manifest.len()).sum::<usize>() as f64,
    );
    o.set("topo_build_s", clock.once("topo_build_s"));
    o.set("route_tables_s", clock.once("route_tables_s"));
    o.set("oracle_s", clock.once("oracle_s"));
}
