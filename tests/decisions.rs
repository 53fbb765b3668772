//! End-to-end validation of the routing-decision ledger: attaching it
//! never perturbs the simulated statistics or the rng stream, serial
//! and parallel sweeps produce byte-identical ledgered manifests, the
//! ledger's misroute counts agree exactly with the telemetry probe's
//! indirect totals, and the manifest's `"decisions"` section roundtrips
//! through the library's JSON reader into `compare_manifests`.

use d2net::prelude::*;

// ----- shared fixture -----------------------------------------------

fn fixture() -> (Network, RoutePolicy) {
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(
        &net,
        Algorithm::Ugal {
            n_i: 4,
            c: 2.0,
            threshold: None,
        },
    );
    (net, policy)
}

const LOADS: [f64; 3] = [0.2, 0.5, 0.8];
const DURATION_NS: u64 = 20_000;
const WARMUP_NS: u64 = 4_000;

/// A sweep over `LOADS` on `threads` workers.
fn swept(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    obs: Observers,
    threads: usize,
) -> SweepOutcome {
    let cfg = SimConfig::default();
    sweep(
        net,
        policy,
        pattern,
        &LOADS,
        DURATION_NS,
        WARMUP_NS,
        cfg,
        obs,
        threads,
    )
}

fn ledgered_manifest(
    net: &Network,
    algo: Algorithm,
    routing: &str,
    lc: LedgerConfig,
    out: &SweepOutcome,
) -> String {
    let mut m = RunManifest::new(
        format!("{routing} decisions"),
        net,
        routing,
        "worst-case",
        DURATION_NS,
        WARMUP_NS,
        SimConfig::default(),
    );
    m.set_algorithm(algo);
    m.push_notices(&out.notices);
    m.set_decisions(DecisionsManifest::from_points(lc, &out.ledgers));
    m.push_curve(Curve {
        label: routing.to_string(),
        points: out.points.clone(),
    });
    m.to_json()
}

// ----- tests --------------------------------------------------------

#[test]
fn ledger_does_not_perturb_stats() {
    let (net, policy) = fixture();
    let cfg = SimConfig::default();
    let pattern = worst_case(&net);
    let plain = swept(&net, &policy, &pattern, Observers::default(), 1);
    let mut ledgered = swept(
        &net,
        &policy,
        &pattern,
        Observers::ledgered(LedgerConfig::default()),
        1,
    );
    let ledgers = std::mem::take(&mut ledgered.ledgers);
    assert_eq!(
        plain, ledgered,
        "attaching the decision ledger must be invisible in the stats"
    );
    assert_eq!(ledgers.len(), LOADS.len());
    for p in &ledgers {
        assert!(p.ledger.decisions > 0, "adaptive WC run takes decisions");
        assert!(
            p.ledger.indirect > 0,
            "adaptive WC run misroutes at load {}",
            p.load
        );
        assert!(!p.ledger.heat.is_empty());
    }

    // Single-run entry point makes the same promise.
    let base = run_synthetic(&net, &policy, &pattern, 0.5, DURATION_NS, WARMUP_NS, cfg);
    let (stats, ledger) = run(
        &net,
        &policy,
        &Synthetic::new(&pattern, 0.5, DURATION_NS, WARMUP_NS),
        cfg,
        Observers::ledgered(LedgerConfig::default()),
    )
    .map(|r| (r.stats, r.ledger.expect("ledger was attached")))
    .unwrap();
    assert_eq!(base, stats);
    assert!(ledger.decisions > 0);
}

#[test]
fn serial_and_parallel_ledgered_manifests_are_byte_identical() {
    let (net, policy) = fixture();
    let lc = LedgerConfig::default();
    let pattern = worst_case(&net);
    let algo = Algorithm::Ugal {
        n_i: 4,
        c: 2.0,
        threshold: None,
    };
    let serial_out = swept(&net, &policy, &pattern, Observers::ledgered(lc), 1);
    let ser_json = ledgered_manifest(&net, algo, "UGAL-L", lc, &serial_out);
    for threads in [2, 4] {
        let par_out = swept(&net, &policy, &pattern, Observers::ledgered(lc), threads);
        assert_eq!(serial_out.points, par_out.points, "t={threads}");
        assert_eq!(
            serial_out.ledgers, par_out.ledgers,
            "t={threads}: structured ledgers diverged"
        );
        let par_json = ledgered_manifest(&net, algo, "UGAL-L", lc, &par_out);
        assert_eq!(
            ser_json, par_json,
            "t={threads}: ledgered manifest bytes diverged"
        );
    }
}

#[test]
fn choosing_is_rng_neutral_under_the_ledger_across_sweeps() {
    // Satellite of the zero-overhead contract: the recorded chooser must
    // consume exactly the rng stream of the plain one, so plain and
    // ledgered sweeps simulate identical schedules — serial and
    // parallel. (Per-call neutrality is pinned in the routing crate;
    // this is the whole-engine version.)
    let (net, policy) = fixture();
    let pattern = worst_case(&net);
    let plain_par = swept(&net, &policy, &pattern, Observers::default(), 2);
    let lc = LedgerConfig {
        sample_rate: 1,
        max_samples: 64,
    };
    let led_par = swept(&net, &policy, &pattern, Observers::ledgered(lc), 2);
    assert_eq!(plain_par.points, led_par.points);
    // Sampling every flight with a tight cap truncates but must not
    // change the simulation either.
    assert!(led_par.ledgers.iter().all(|p| p.ledger.samples_truncated));
}

#[test]
fn probe_indirect_totals_agree_with_ledger_misroutes() {
    let (net, policy) = fixture();
    let cfg = SimConfig::default();
    let pattern = worst_case(&net);
    for load in [0.3, 0.7] {
        let (pstats, report) = run(
            &net,
            &policy,
            &Synthetic::new(&pattern, load, DURATION_NS, WARMUP_NS),
            cfg,
            Observers::probed(ProbeConfig::default()),
        )
        .map(|r| (r.stats, r.telemetry.expect("probe was attached")))
        .unwrap();
        let (lstats, ledger) = run(
            &net,
            &policy,
            &Synthetic::new(&pattern, load, DURATION_NS, WARMUP_NS),
            cfg,
            Observers::ledgered(LedgerConfig::default()),
        )
        .map(|r| (r.stats, r.ledger.expect("ledger was attached")))
        .unwrap();
        assert_eq!(pstats, lstats, "probe and ledger observe the same run");
        assert_eq!(
            report.total_indirect, ledger.indirect,
            "load {load}: the probe's indirect-injection total and the \
             ledger's misroute count are two views of the same decisions"
        );
        assert!(ledger.indirect > 0, "load {load}: WC traffic misroutes");
        // Per-router misroutes decompose the total exactly.
        let by_router: u64 = ledger.routers.iter().map(|(_, s)| s.indirect).sum();
        assert_eq!(by_router, ledger.indirect);
    }
}

#[test]
fn manifest_decisions_section_roundtrips_and_compares() {
    let (net, policy_l) = fixture();
    let lc = LedgerConfig::default();
    let pattern = worst_case(&net);
    let algo_l = Algorithm::Ugal {
        n_i: 4,
        c: 2.0,
        threshold: None,
    };
    let algo_g = Algorithm::UgalG { n_i: 4, c: 2.0 };
    let policy_g = RoutePolicy::new(&net, algo_g);

    let out_l = swept(&net, &policy_l, &pattern, Observers::ledgered(lc), 1);
    let out_g = swept(&net, &policy_g, &pattern, Observers::ledgered(lc), 1);
    let led_l = &out_l.ledgers;
    let json_l = ledgered_manifest(&net, algo_l, "UGAL-L", lc, &out_l);
    let json_g = ledgered_manifest(&net, algo_g, "UGAL-G", lc, &out_g);

    // Roundtrip: the digest must reproduce the ledger's exact numbers.
    let doc = Json::parse(&json_l).expect("manifest is valid JSON");
    assert_eq!(
        doc.get("algorithm").and_then(|a| a.get("kind")).and_then(|k| k.as_str()),
        Some("ugal")
    );
    let digest = digest_manifest(&doc, "L").expect("ledgered manifest digests");
    assert_eq!(digest.points.len(), led_l.len());
    for (dp, lp) in digest.points.iter().zip(led_l) {
        assert_eq!(dp.misroutes, lp.ledger.indirect);
        assert_eq!(dp.decisions, lp.ledger.decisions);
        assert_eq!(
            dp.routers.len(),
            lp.ledger.routers.len(),
            "full router table survives serialization"
        );
    }

    // And the two manifests diff cleanly.
    let rep = compare_manifests(&json_l, &json_g).expect("manifests compare");
    assert_eq!(rep.compared_loads.len(), LOADS.len());
    if let Some(d) = &rep.first_divergence {
        assert!(!d.router_deltas.is_empty());
        let attr = rep
            .attribution
            .as_ref()
            .expect("ugal-vs-ugal_g divergence is attributed");
        assert!(attr.contains("first-hop-only cost visibility"));
    }

    // The ledgered Perfetto export parses and carries decision events.
    let trace = chrome_trace_json_ledgered("roundtrip", &[], &[], led_l);
    let tdoc = Json::parse(&trace).expect("ledgered export is valid JSON");
    let events = tdoc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C")));
    assert!(events.iter().any(|e| {
        e.get("cat").and_then(|c| c.as_str()) == Some("decision")
            && e.get("ph").and_then(|p| p.as_str()) == Some("i")
    }));
}
