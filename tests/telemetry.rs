//! End-to-end validation of the observability probe: series sanity,
//! conservation against the engine's own counters, zero-perturbation of
//! the simulated schedule, and deadlock forensics on a config that is
//! deliberately not deadlock-free.

use d2net::prelude::*;

#[test]
fn probe_does_not_perturb_stats_and_series_are_sane() {
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let cfg = SimConfig::default();
    // Zero warm-up: every delivery lands in the measurement window, so
    // the probe's per-router ejection counts must add up to the stats'
    // delivered_packets exactly.
    let base = run_synthetic(&net, &policy, &SyntheticPattern::Uniform, 0.6, 60_000, 0, cfg);
    let (stats, report) = run(
        &net,
        &policy,
        &Synthetic::new(&SyntheticPattern::Uniform, 0.6, 60_000, 0),
        cfg,
        Observers::probed(ProbeConfig::default()),
    )
    .map(|r| (r.stats, r.telemetry.expect("probe was attached")))
    .unwrap();

    // The probe must not perturb the simulation at all.
    assert_eq!(stats, base);

    // (a) Every link-utilization sample is a fraction in [0, 1], and the
    // network actually carried traffic.
    assert!(report.num_samples > 0);
    assert!(report.link_util.iter().all(|&u| (0.0..=1.0).contains(&u)));
    assert!(report.link_util.iter().any(|&u| u > 0.0));
    // Occupancy fractions likewise.
    assert!(report
        .in_occupancy
        .iter()
        .chain(report.out_occupancy.iter())
        .all(|&o| (0.0..=1.0).contains(&o)));

    // (b) Conservation: per-router ejections sum to delivered packets.
    let ejected: u64 = report.ejected_per_router.iter().sum();
    assert_eq!(ejected, report.total_ejected_packets);
    assert_eq!(ejected, stats.delivered_packets);
    assert!(report.total_injected_packets >= report.total_ejected_packets);

    // Steady uniform traffic at moderate load settles quickly.
    assert!(
        report.converged_at_ns.is_some(),
        "0.6-load uniform run should reach a stable ejection rate"
    );
    assert!(report.deadlock.is_none());

    // Rings saw injections/ejections on every router (uniform traffic).
    assert!(report.rings.iter().all(|r| !r.is_empty()));

    let summary = report.summary();
    assert!(summary.mean_link_utilization > 0.0);
    assert!(summary.peak_link_utilization <= 1.0);
    assert_eq!(summary.deadlock_cycle_len, 0);
}

/// A 5-router ring with one node per router. Minimal routes between
/// routers at distance two all turn the same way around the ring, so a
/// single VC admits a cyclic channel dependency — exactly the situation
/// the paper's VC assignment exists to break.
fn ring5() -> Network {
    Network::from_parts(
        TopologyKind::Custom {
            label: "ring5".into(),
        },
        vec![vec![1, 4], vec![0, 2], vec![1, 3], vec![2, 4], vec![0, 3]],
        vec![1; 5],
    )
}

#[test]
fn forced_deadlock_produces_forensics_cycle() {
    let net = ring5();
    // Minimal routing squeezed onto one VC (the deliberately unsafe
    // negative control), with one-packet buffers for fast pressure.
    let policy = RoutePolicy::with_overrides(
        &net,
        Algorithm::Minimal,
        VcScheme::SingleVc,
        IntermediateSet::EndpointRouters,
        false,
    );
    let cfg = SimConfig {
        buffer_bytes: 256,
        ..Default::default()
    };
    // Every node sends two hops clockwise: all minimal routes chase each
    // other around the ring.
    let pattern = SyntheticPattern::Permutation(vec![2, 3, 4, 0, 1]);
    let (stats, report) = run(
        &net,
        &policy,
        &Synthetic::new(&pattern, 1.0, 50_000, 0),
        cfg,
        Observers::probed(ProbeConfig::default()),
    )
    .map(|r| (r.stats, r.telemetry.expect("probe was attached")))
    .unwrap();
    assert!(stats.deadlocked, "single-VC ring under pressure must wedge");

    let forensics = report
        .deadlock
        .as_ref()
        .expect("wedged run must carry forensics");
    assert!(
        !forensics.cycle.is_empty(),
        "forensics must exhibit a wait-for cycle"
    );
    assert!(forensics.stranded_packets > 0);
    // Structural sanity: every wait point sits on a real buffer with a
    // real head packet, and output-side points are short on credits.
    for w in &forensics.cycle {
        assert!(w.queue_len > 0);
        assert!(w.occupancy_bytes > 0);
        assert!(w.head_route.len() >= 2);
        assert!((w.router as usize) < 5);
        if w.side == WaitSide::Output {
            assert!(w.missing_credits > 0);
        }
    }
    let rendered = forensics.render();
    assert!(rendered.contains("DEADLOCK"));
    assert!(rendered.contains("waits on next"));

    assert!(report.summary().deadlock_cycle_len >= 2);
}

/// Regression for the fault-era counters: the engine has always counted
/// drops, retries and LinkDown flushes, but the probe's summary dropped
/// them on the floor and the manifest never serialized them. A faulted
/// probed run must now carry all four totals end to end — summary fields
/// tying out against the engine's own stats and the telemetry rings, and
/// the JSON manifest exposing them under the point's `telemetry` object.
#[test]
fn faulted_run_summary_carries_drop_retry_and_link_down_totals() {
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let victim = net.neighbors(0)[0];
    let schedule = FaultSchedule::new()
        .at(8_000, FaultSet::new().fail_link(0, victim).clone())
        .at(
            16_000,
            FaultSet::new()
                .fail_router(net.endpoint_routers()[0])
                .clone(),
        );
    let cfg = SimConfig::default();
    let (stats, report) = run(
        &net,
        &policy,
        &Synthetic::new(&SyntheticPattern::Uniform, 0.5, 40_000, 8_000).with_faults(&schedule),
        cfg,
        Observers::probed(ProbeConfig::default()),
    )
    .map(|r| (r.stats, r.telemetry.expect("probe was attached")))
    .expect("faulted run constructs");

    let summary = report.summary();
    assert_eq!(summary.dropped_packets, stats.dropped_packets);
    assert_eq!(summary.retried_packets, stats.retried_packets);
    assert_eq!(summary.link_down_events, report.total_link_down_events);
    assert!(
        summary.link_down_events > 0,
        "two fault events must take links down"
    );
    assert!(
        stats.dropped_packets > 0,
        "a dead endpoint router must shed traffic"
    );

    let mut m = RunManifest::new(
        "fault telemetry regression",
        &net,
        "MIN",
        "uniform",
        40_000,
        8_000,
        cfg,
    );
    m.push_curve(Curve {
        label: "faulted".into(),
        points: vec![SweepPoint {
            load: 0.5,
            stats,
            telemetry: Some(summary.clone()),
        }],
    });
    let json = m.to_json();
    for needle in [
        format!("\"link_down_events\":{}", summary.link_down_events),
        format!("\"link_down_flushed\":{}", summary.link_down_flushed),
        format!("\"retried_packets\":{}", summary.retried_packets),
        format!("\"dropped_packets\":{}", summary.dropped_packets),
    ] {
        assert!(json.contains(&needle), "manifest lacks {needle}");
    }
}

#[test]
fn probed_sweep_attaches_summaries_and_aborts_after_wedge() {
    let net = ring5();
    let policy = RoutePolicy::with_overrides(
        &net,
        Algorithm::Minimal,
        VcScheme::SingleVc,
        IntermediateSet::EndpointRouters,
        false,
    );
    let cfg = SimConfig {
        buffer_bytes: 256,
        ..Default::default()
    };
    let pattern = SyntheticPattern::Permutation(vec![2, 3, 4, 0, 1]);
    let obs = Observers::probed(ProbeConfig::default());
    let points = sweep(&net, &policy, &pattern, &[0.9, 1.0], 50_000, 0, cfg, obs, 1).points;
    assert_eq!(points.len(), 2);
    let first_wedged = points.iter().position(|p| p.stats.deadlocked).unwrap();
    // The wedged point was simulated (has telemetry); everything after it
    // is a stub that was never run.
    assert!(points[first_wedged].telemetry.is_some());
    for p in &points[first_wedged + 1..] {
        assert!(p.stats.deadlocked);
        assert!(p.telemetry.is_none());
        assert_eq!(p.stats.delivered_packets, 0);
    }
}
