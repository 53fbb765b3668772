//! End-to-end validation of the structured tracing layer: exported
//! trace files are valid JSON (checked with the manifest comparator's
//! parser, [`Json`] — the workspace carries no serde), sweeps export
//! byte-identical traces at every thread count, and tracing never
//! perturbs the simulated statistics.

use d2net::prelude::*;

// ----- shared fixture -----------------------------------------------

fn fixture() -> (Network, RoutePolicy) {
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(&net, Algorithm::Valiant);
    (net, policy)
}

const LOADS: [f64; 3] = [0.2, 0.5, 0.8];
const DURATION_NS: u64 = 20_000;
const WARMUP_NS: u64 = 4_000;

/// A uniform sweep of the fixture over `loads` on `threads` workers.
fn traced_sweep(loads: &[f64], obs: Observers, threads: usize) -> SweepOutcome {
    let (net, policy) = fixture();
    let (pattern, cfg) = (SyntheticPattern::Uniform, SimConfig::default());
    sweep(
        &net,
        &policy,
        &pattern,
        loads,
        DURATION_NS,
        WARMUP_NS,
        cfg,
        obs,
        threads,
    )
}

// ----- tests --------------------------------------------------------

#[test]
fn tracing_does_not_perturb_stats() {
    let (net, policy) = fixture();
    let cfg = SimConfig::default();
    let plain = traced_sweep(&LOADS, Observers::default(), 1);
    let mut traced = traced_sweep(&LOADS, Observers::traced(TraceConfig::default()), 1);
    let traces = std::mem::take(&mut traced.traces);
    assert_eq!(
        plain, traced,
        "attaching the trace recorder must be invisible in the stats"
    );
    assert_eq!(traces.len(), LOADS.len());

    // The exchange runner makes the same promise.
    let ex = all_to_all(net.num_nodes(), 512);
    let base = run_exchange(&net, &policy, &ex, 1, cfg);
    let (stats, trace) = run_exchange_traced(&net, &policy, &ex, 1, cfg, TraceConfig::default());
    assert_eq!(base, stats);
    assert!(!trace.flights.is_empty(), "A2A must sample some flights");
    // A run-to-completion exchange has a real drain phase.
    let drain = trace.phases.iter().find(|p| p.phase == SimPhase::Drain).unwrap();
    assert!(drain.end_ps > drain.start_ps, "exchange drain must be nonzero");
}

#[test]
fn serial_and_parallel_traces_are_byte_identical() {
    let tc = TraceConfig::default();
    let serial_out = traced_sweep(&LOADS, Observers::traced(tc), 1);
    let serial = &serial_out.traces;
    for threads in [2, 4] {
        let par_out = traced_sweep(&LOADS, Observers::traced(tc), threads);
        let par = &par_out.traces;
        assert_eq!(serial_out.points, par_out.points, "t={threads}");
        assert_eq!(serial, par, "t={threads}: structured traces diverged");
        let a = chrome_trace_json("t", &[], serial);
        let b = chrome_trace_json("t", &[], par);
        assert_eq!(a, b, "t={threads}: exported bytes diverged");
    }
}

#[test]
fn exported_trace_parses_and_matches_the_event_schema() {
    let traces = traced_sweep(&LOADS, Observers::traced(TraceConfig::default()), 1).traces;
    let text = chrome_trace_json("schema check", &[], &traces);
    let doc = Json::parse(&text).expect("exported trace must be valid JSON");

    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut phases_seen = Vec::new();
    let mut flows = 0;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("every event has ph");
        assert!(
            matches!(ph, "X" | "M" | "i" | "s" | "f"),
            "unexpected ph {ph:?}"
        );
        assert!(e.get("pid").and_then(Json::as_f64).is_some());
        let name = e.get("name").and_then(Json::as_str).expect("name");
        match ph {
            "X" => {
                let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
                let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0);
                if matches!(name, "warmup" | "measure" | "drain") {
                    phases_seen.push(name.to_string());
                }
            }
            "s" | "f" => {
                assert!(e.get("id").and_then(Json::as_f64).is_some(), "flows carry id");
                flows += 1;
            }
            _ => {}
        }
    }
    // Every traced point contributes its three phase slices.
    for want in ["warmup", "measure", "drain"] {
        assert_eq!(
            phases_seen.iter().filter(|p| *p == want).count(),
            traces.len(),
            "{want}"
        );
    }
    assert!(flows >= 2, "at least one s/f flow pair, got {flows} events");
}

#[test]
fn flight_timelines_are_causally_ordered() {
    let tc = TraceConfig {
        sample_rate: 16,
        ..TraceConfig::default()
    };
    let traces = traced_sweep(&[0.5], Observers::traced(tc), 1).traces;
    let flights: Vec<_> = traces.iter().flat_map(|p| &p.trace.flights).collect();
    assert!(!flights.is_empty());
    let mut delivered = 0;
    for f in flights {
        assert!(flight_sampled(16, f.flight_id), "only sampled ids recorded");
        assert!(
            f.events.windows(2).all(|w| w[0].t_ps <= w[1].t_ps),
            "flight {} timeline must be monotone",
            f.flight_id
        );
        if let Some(d) = f.delivered_ps {
            delivered += 1;
            assert!(d >= f.birth_ps);
            assert!(
                matches!(f.events.last().map(|e| e.kind), Some(FlightEventKind::Eject { .. })),
                "delivered flight must end in an eject"
            );
            assert!(!f.dropped);
        }
    }
    assert!(delivered > 0, "an uncongested run delivers sampled flights");
}

#[test]
fn phase_only_records_no_flights_but_keeps_counters() {
    let tc = TraceConfig {
        phase_only: true,
        ..TraceConfig::default()
    };
    let traces = traced_sweep(&[0.5], Observers::traced(tc), 1).traces;
    let t = &traces[0].trace;
    assert!(t.flights.is_empty());
    assert_eq!(t.eligible_flights, 0);
    assert!(t.counters.events_popped > 0);
    assert!(t.counters.in_q_pushes > 0);
    assert_eq!(t.phases.len(), 3);
}

#[test]
fn manifest_trace_section_roundtrips_through_the_parser() {
    let (net, _) = fixture();
    let tc = TraceConfig::default();
    let out = traced_sweep(&LOADS, Observers::traced(tc), 1);
    let traces = &out.traces;
    let mut m = RunManifest::new(
        "trace roundtrip",
        &net,
        "INR",
        "uniform",
        DURATION_NS,
        WARMUP_NS,
        SimConfig::default(),
    );
    m.push_notices(&out.notices);
    m.set_trace(TraceManifest::from_points(tc, traces));
    m.push_curve(Curve {
        label: "INR uniform".into(),
        points: out.points,
    });
    let doc = Json::parse(&m.to_json()).expect("manifest must be valid JSON");
    let trace = doc.get("trace").expect("traced manifest carries a trace key");
    assert_eq!(
        trace.get("sample_rate").and_then(Json::as_f64),
        Some(tc.sample_rate as f64)
    );
    let metrics = trace.get("metrics").and_then(Json::as_array).unwrap();
    assert!(metrics.len() >= 10);
    let popped = metrics
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("events_popped"))
        .expect("events_popped metric");
    assert_eq!(popped.get("kind").and_then(Json::as_str), Some("counter"));
    assert!(popped.get("value").and_then(Json::as_f64).unwrap() > 0.0);
}
