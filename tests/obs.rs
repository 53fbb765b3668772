//! Integration tests for the observability layer (DESIGN.md §16):
//! event-log schema, progress-counter accounting under chaos and
//! budgets, the Prometheus exposition grammar over a live status
//! server, and the observer-only invariant — results byte-identical
//! with observability on or off, across thread and shard counts.

use d2net::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};

/// Observability state is process-global (enable flag, sink, progress
/// counters), so every test in this file serializes on one lock and
/// starts/ends from a clean slate.
static OBS_LOCK: Mutex<()> = Mutex::new(());

struct ObsGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn obs_guard() -> ObsGuard {
    let g = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    reset_obs();
    ObsGuard(g)
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        reset_obs();
    }
}

fn reset_obs() {
    obs::disable();
    let _ = obs::take_sink();
    obs::reset_progress();
}

fn fixture() -> (Network, SyntheticPattern, Vec<f64>, u64, u64) {
    let net = slim_fly(5, SlimFlyP::Floor);
    let loads = load_grid(6);
    (net, SyntheticPattern::Uniform, loads, 6_000, 1_000)
}

/// Every code the instrumented call sites can emit (DESIGN.md §16).
const KNOWN_CODES: &[&str] = &[
    "sweep_start",
    "sweep_done",
    "point_run",
    "point_panic",
    "point_retry",
    "chaos_armed",
    "wedged",
    "rejected",
    "panicked",
    "exhausted",
    "deadline",
    "env_invalid",
    "journal_append",
    "journal_resume",
    "request_spooled",
    "request_started",
    "request_completed",
    "request_rejected",
    "request_interrupted",
    "request_resumed",
    "heartbeat",
    "service_start",
    "service_stop",
];

/// A chaos-supervised sweep into a memory sink: events arrive with
/// strictly increasing sequence numbers, only known codes, and every
/// rendered line is well-formed JSON carrying the reserved keys.
#[test]
fn memory_sink_events_are_coded_and_ordered() {
    let _g = obs_guard();
    let (net, pattern, _, duration, warmup) = fixture();
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let loads = load_grid(20);
    let (sink, store) = obs::MemorySink::new();
    obs::install_sink(sink);
    obs::enable();

    let sup = SuperviseConfig {
        max_retries: 4,
        backoff_base_ms: 1,
        chaos: Some(ChaosConfig {
            panic_p: 0.05,
            stall_p: 0.05,
            seed: 0xC0FFEE,
        }),
        threads: 0,
    };
    let run = supervised_sweep(
        &net,
        &policy,
        &pattern,
        &loads,
        duration,
        warmup,
        SimConfig::default(),
        Observers::default(),
        &sup,
        &SuperviseHooks::default(),
    );
    assert_eq!(run.outcome.points.len(), loads.len());
    reset_obs();

    let events = store.lock().unwrap();
    assert!(
        events.len() >= loads.len() + 2,
        "at least sweep_start + one event per point + sweep_done, got {}",
        events.len()
    );
    let mut prev_seq = None;
    for ev in events.iter() {
        if let Some(p) = prev_seq {
            assert!(ev.seq > p, "seq must be strictly increasing: {} after {p}", ev.seq);
        }
        prev_seq = Some(ev.seq);
        assert!(
            KNOWN_CODES.contains(&ev.code),
            "unknown event code {:?}",
            ev.code
        );
        let doc = Json::parse(&ev.render_json())
            .unwrap_or_else(|e| panic!("event line must be JSON ({e}): {}", ev.render_json()));
        for key in ["seq", "t_ms", "level", "code", "message"] {
            assert!(doc.get(key).is_some(), "event missing reserved key {key}");
        }
        let level = doc.get("level").and_then(Json::as_str).expect("level is a string");
        assert!(obs::Level::parse(level).is_some(), "unknown level {level:?}");
    }
    assert_eq!(events.first().unwrap().code, "sweep_start");
    assert_eq!(events.last().unwrap().code, "sweep_done");
    let retries = events.iter().filter(|e| e.code == "point_retry").count();
    assert!(retries >= 1, "the chaos seed arms points, so retries must appear");
}

/// The file sink writes the schema header first, and every line round-
/// trips through `parse_event_line` — the contract `d2net-top --events`
/// relies on.
#[test]
fn file_sink_emits_parsable_jsonl_with_header() {
    let _g = obs_guard();
    let (net, pattern, loads, duration, warmup) = fixture();
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let path = std::env::temp_dir().join(format!("d2net-obs-test-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    obs::install_sink(obs::FileSink::create(&path).expect("create event log"));
    obs::enable();
    let outcome = sweep(
        &net,
        &policy,
        &pattern,
        &loads,
        duration,
        warmup,
        SimConfig::default(),
        Observers::default(),
        1,
    );
    assert_eq!(outcome.points.len(), loads.len());
    reset_obs(); // drops the sink, flushing the file

    let text = std::fs::read_to_string(&path).expect("event log readable");
    let _ = std::fs::remove_file(&path);
    let mut lines = text.lines();
    let header = lines.next().expect("log non-empty");
    assert!(
        header.contains(obs::EVENTS_SCHEMA),
        "first line must carry the schema: {header}"
    );
    assert!(
        parse_event_line(header).expect("header parses").is_none(),
        "header maps to None"
    );
    let mut parsed = 0usize;
    for line in lines {
        let ev = parse_event_line(line)
            .unwrap_or_else(|e| panic!("bad event line ({e}): {line}"))
            .expect("non-header lines are events");
        assert!(KNOWN_CODES.contains(&ev.code.as_str()), "unknown code {:?}", ev.code);
        parsed += 1;
    }
    assert!(
        parsed >= loads.len() + 2,
        "sweep_start + per-point events + sweep_done expected, got {parsed}"
    );
}

/// Progress counters reconcile exactly with the supervisor's own
/// summary under chaos — the accounting partition
/// `completed + panicked + exhausted + resumed + not_run + stubbed ==
/// points_total` holds, and live counters cover the fates.
#[test]
fn progress_counters_match_supervision_summary_under_chaos() {
    let _g = obs_guard();
    let (net, pattern, _, duration, warmup) = fixture();
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let loads = load_grid(20);
    obs::enable(); // no sink: counters still tick, events are dropped

    let sup = SuperviseConfig {
        max_retries: 4,
        backoff_base_ms: 1,
        chaos: Some(ChaosConfig {
            panic_p: 0.05,
            stall_p: 0.05,
            seed: 0xC0FFEE,
        }),
        threads: 0,
    };
    let run = supervised_sweep(
        &net,
        &policy,
        &pattern,
        &loads,
        duration,
        warmup,
        SimConfig::default(),
        Observers::default(),
        &sup,
        &SuperviseHooks::default(),
    );
    let snap = obs::snapshot();

    assert_eq!(snap.sweeps_started, 1);
    assert_eq!(snap.sweeps_finished, 1);
    assert_eq!(snap.points_total, loads.len() as u64);
    assert_eq!(
        snap.points_accounted(),
        snap.points_total,
        "fate buckets must partition the load grid: {snap:?}"
    );
    assert_eq!(snap.points_completed, run.summary.completed as u64);
    assert_eq!(snap.points_panicked, run.summary.panicked as u64);
    assert_eq!(snap.points_exhausted, run.summary.exhausted as u64);
    assert_eq!(snap.points_resumed, run.summary.skipped_by_resume as u64);
    assert_eq!(snap.points_not_run, run.summary.not_run as u64);
    assert_eq!(snap.points_retried, run.summary.retried as u64);
    assert!(
        snap.retry_attempts >= snap.points_retried,
        "each retried point takes at least one retry attempt"
    );
    // points_run counts attempts, so retries push it past the grid size.
    assert!(snap.points_run >= snap.points_total - snap.points_resumed - snap.points_not_run);
    assert!(snap.events_processed > 0, "runs must publish engine event counts");
    assert!(snap.point_wall_us > 0, "per-point wall clock must accumulate");
}

/// An event budget that trips mid-sweep lands points in the exhausted
/// bucket without breaking the partition.
#[test]
fn progress_counters_account_budget_exhaustion() {
    let _g = obs_guard();
    let (net, pattern, loads, duration, warmup) = fixture();
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    obs::enable();

    let cfg = SimConfig {
        budget: RunBudget::events(500),
        ..SimConfig::default()
    };
    let outcome = sweep(
        &net,
        &policy,
        &pattern,
        &loads,
        duration,
        warmup,
        cfg,
        Observers::default(),
        1,
    );
    assert_eq!(outcome.points.len(), loads.len());
    let snap = obs::snapshot();
    assert_eq!(snap.points_total, loads.len() as u64);
    assert_eq!(snap.points_accounted(), snap.points_total);
    assert!(
        snap.points_exhausted >= 1,
        "a 500-event budget must trip on a 6 µs horizon: {snap:?}"
    );
    assert_eq!(
        snap.points_completed + snap.points_exhausted,
        snap.points_total,
        "serial sweeps only complete or exhaust: {snap:?}"
    );
}

struct SnapshotSource;

impl StatusSource for SnapshotSource {
    fn ready(&self) -> bool {
        true
    }
    fn metrics_text(&self) -> String {
        prometheus_text(&progress_metrics(&obs::snapshot()))
    }
}

/// A live status server answers /healthz, /readyz, and /metrics, and
/// the exposition passes the full grammar check.
#[test]
fn status_server_serves_valid_prometheus_exposition() {
    let _g = obs_guard();
    let (net, pattern, loads, duration, warmup) = fixture();
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    obs::enable();
    let outcome = sweep(
        &net,
        &policy,
        &pattern,
        &loads,
        duration,
        warmup,
        SimConfig::default(),
        Observers::default(),
        1,
    );
    assert_eq!(outcome.points.len(), loads.len());

    let server =
        StatusServer::start("127.0.0.1:0", Arc::new(SnapshotSource)).expect("bind status server");
    let addr = server.local_addr().to_string();

    let (code, body) = http_get(&addr, "/healthz").expect("healthz reachable");
    assert_eq!(code, 200, "healthz body: {body}");
    let (code, _) = http_get(&addr, "/readyz").expect("readyz reachable");
    assert_eq!(code, 200);
    let (code, body) = http_get(&addr, "/metrics").expect("metrics reachable");
    assert_eq!(code, 200);
    validate_prometheus(&body).unwrap_or_else(|e| panic!("invalid exposition ({e}):\n{body}"));
    for name in [
        "d2net_points_scheduled_total",
        "d2net_points_run_total",
        "d2net_points_completed_total",
        "d2net_events_processed_total",
    ] {
        assert!(body.contains(name), "exposition must carry {name}:\n{body}");
    }
    let sample = body
        .lines()
        .find_map(|l| l.strip_prefix("d2net_points_scheduled_total "))
        .expect("scheduled_total sample present");
    assert_eq!(
        sample.trim().parse::<f64>().unwrap(),
        loads.len() as f64,
        "exposition reflects the live counters"
    );
    let (code, _) = http_get(&addr, "/nope").expect("unknown path reachable");
    assert_eq!(code, 404);
    server.shutdown();
}

/// The observer-only invariant: sweeps produce identical results and
/// notices with observability fully enabled (sink installed) and fully
/// disabled, serial and parallel across thread counts, sharded and
/// unsharded, and under chaos supervision.
#[test]
fn results_identical_with_obs_on_and_off() {
    let _g = obs_guard();
    let (net, pattern, loads, duration, warmup) = fixture();
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let sup = SuperviseConfig {
        max_retries: 4,
        backoff_base_ms: 1,
        chaos: Some(ChaosConfig {
            panic_p: 0.2,
            stall_p: 0.1,
            seed: 0xC0FFEE,
        }),
        threads: 0,
    };
    let sharded_cfg = SimConfig {
        shards: 2,
        ..SimConfig::default()
    };

    let run_all = || {
        let serial = sweep(
            &net,
            &policy,
            &pattern,
            &loads,
            duration,
            warmup,
            SimConfig::default(),
            Observers::default(),
            1,
        );
        let par2 = sweep(
            &net,
            &policy,
            &pattern,
            &loads,
            duration,
            warmup,
            SimConfig::default(),
            Observers::default(),
            2,
        );
        let par3 = sweep(
            &net,
            &policy,
            &pattern,
            &loads,
            duration,
            warmup,
            SimConfig::default(),
            Observers::default(),
            3,
        );
        let sharded = sweep(
            &net,
            &policy,
            &pattern,
            &loads,
            duration,
            warmup,
            sharded_cfg,
            Observers::default(),
            1,
        );
        let supervised = supervised_sweep(
            &net,
            &policy,
            &pattern,
            &loads,
            duration,
            warmup,
            SimConfig::default(),
            Observers::default(),
            &sup,
            &SuperviseHooks::default(),
        );
        (serial, par2, par3, sharded, supervised)
    };

    let (serial_off, par2_off, par3_off, sharded_off, sup_off) = run_all();

    let (sink, store) = obs::MemorySink::new();
    obs::install_sink(sink);
    obs::enable();
    let (serial_on, par2_on, par3_on, sharded_on, sup_on) = run_all();
    reset_obs();

    assert!(
        !store.lock().unwrap().is_empty(),
        "observability must actually have been live during the second pass"
    );
    assert_eq!(serial_off.points, serial_on.points);
    assert_eq!(serial_off.notices, serial_on.notices);
    assert_eq!(par2_off.points, par2_on.points);
    assert_eq!(par2_off.notices, par2_on.notices);
    assert_eq!(par3_off.points, par3_on.points);
    assert_eq!(par3_off.notices, par3_on.notices);
    assert_eq!(sharded_off.points, sharded_on.points);
    assert_eq!(sharded_off.notices, sharded_on.notices);
    assert_eq!(sup_off.outcome.points, sup_on.outcome.points);
    assert_eq!(sup_off.outcome.notices, sup_on.outcome.notices);
    assert_eq!(sup_off.summary, sup_on.summary);
    // And the observed runs agree with each other across parallelism.
    assert_eq!(serial_on.points, par2_on.points);
    assert_eq!(serial_on.points, par3_on.points);
    assert_eq!(serial_on.points, sharded_on.points);

    // The acceptance bar is manifest *bytes*: render each outcome
    // through the full manifest pipeline (supervision section included
    // for the chaos runs) and require byte identity obs-on vs obs-off.
    let manifest_of = |outcome: &SweepOutcome, summary: Option<&SupervisionSummary>| {
        let mut m = RunManifest::new(
            "obs parity",
            &net,
            "MIN",
            "uniform",
            duration,
            warmup,
            SimConfig::default(),
        );
        m.push_curve(Curve {
            label: "MIN uniform".into(),
            points: outcome.points.clone(),
        });
        m.push_notices(&outcome.notices);
        if let Some(s) = summary {
            m.set_supervision(supervision_manifest(s, 0));
        }
        m.to_json()
    };
    assert_eq!(manifest_of(&serial_off, None), manifest_of(&serial_on, None));
    assert_eq!(manifest_of(&par2_off, None), manifest_of(&par2_on, None));
    assert_eq!(manifest_of(&par3_off, None), manifest_of(&par3_on, None));
    assert_eq!(manifest_of(&sharded_off, None), manifest_of(&sharded_on, None));
    assert_eq!(
        manifest_of(&sup_off.outcome, Some(&sup_off.summary)),
        manifest_of(&sup_on.outcome, Some(&sup_on.summary))
    );
    // Serial bytes are the cross-mode baseline too.
    assert_eq!(manifest_of(&serial_on, None), manifest_of(&par2_on, None));
    assert_eq!(manifest_of(&serial_on, None), manifest_of(&sharded_on, None));
}
