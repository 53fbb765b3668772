//! Integration tests of the analytic oracle: §4.2 exactness over real
//! route tables, measured-vs-predicted bound checks, the UGAL envelope,
//! and the divergence gate's pass/fail behavior — the cross-stack
//! contract that licenses using the oracle as a preflight tier.

use d2net::analysis::{LoadModel, TrafficMatrix};
use d2net::prelude::*;
use d2net::traffic::random_permutation;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn perm_of(pattern: &SyntheticPattern) -> &[u32] {
    match pattern {
        SyntheticPattern::Permutation(p) => p,
        _ => panic!("expected a permutation pattern"),
    }
}

fn minimal_report(net: &Network, perm: &[u32]) -> OracleReport {
    let policy = RoutePolicy::new(net, Algorithm::Minimal);
    let tm = TrafficMatrix::permutation(net, perm).expect("valid permutation");
    analyze_minimal(net, policy.tables(), &tm, &LatencyModel::paper_default())
        .expect("pristine network analyzes")
}

#[test]
fn oracle_reproduces_section_4_2_worst_cases_exactly() {
    // SF: the saturating construction concentrates exactly 2p flows on
    // one channel; MLFM/OFT: the shift patterns concentrate h and k.
    for net in [slim_fly(5, SlimFlyP::Floor), mlfm(4), oft(4)] {
        let wc = worst_case_exact(&net).expect("exact worst case exists");
        let rep = minimal_report(&net, perm_of(&wc));
        let closed = worst_case_saturation(&net);
        assert!(
            (rep.predicted_saturation - closed).abs() < 1e-9,
            "{}: oracle {:.6} vs closed form {:.6}",
            net.name(),
            rep.predicted_saturation,
            closed
        );
    }
    // The SF construction is exact, not just a bound: max load is 2p.
    let net = slim_fly(5, SlimFlyP::Floor);
    let wc = slim_fly_saturating_worst_case(&net).expect("q=5 admits the construction");
    let rep = minimal_report(&net, perm_of(&wc));
    assert!((rep.max_link_load - 6.0).abs() < 1e-9, "2p = 6, got {}", rep.max_link_load);
}

#[test]
fn table_model_agrees_with_ideal_split_on_pristine_networks() {
    let mut rng = SmallRng::seed_from_u64(42);
    for net in [slim_fly(5, SlimFlyP::Floor), mlfm(4), oft(4)] {
        for _ in 0..2 {
            let perm = random_permutation(net.num_nodes(), &mut rng);
            let p = perm_of(&perm);
            let tables = RoutePolicy::new(&net, Algorithm::Minimal);
            let ideal = try_permutation_link_load(&net, LoadModel::IdealSplit, p)
                .expect("pristine network");
            let real = try_permutation_link_load(&net, LoadModel::Tables(tables.tables()), p)
                .expect("pristine network");
            assert!(
                (ideal.max_link_load - real.max_link_load).abs() < 1e-9,
                "{}: ideal {:.6} vs tables {:.6}",
                net.name(),
                ideal.max_link_load,
                real.max_link_load
            );
            assert!((ideal.predicted_saturation - real.predicted_saturation).abs() < 1e-9);
        }
    }
}

#[test]
fn measured_saturation_respects_predicted_bounds_on_random_permutations() {
    // The fluid model ignores queueing and HOL blocking, so simulation
    // may fall short of the bound but must not exceed it beyond the
    // crosscheck band (0.15·pred + 0.02, as in tests/crosscheck.rs).
    let mut rng = SmallRng::seed_from_u64(99_991);
    for net in [mlfm(4), oft(4)] {
        for _ in 0..2 {
            let perm = random_permutation(net.num_nodes(), &mut rng);
            let rep = minimal_report(&net, perm_of(&perm));
            let policy = RoutePolicy::new(&net, Algorithm::Minimal);
            let measured = run_synthetic(
                &net,
                &policy,
                &perm,
                1.0,
                100_000,
                20_000,
                SimConfig::default(),
            );
            assert!(!measured.deadlocked, "{}", net.name());
            let tol = 0.15 * rep.predicted_mean_throughput + 0.02;
            assert!(
                measured.throughput <= rep.predicted_mean_throughput + tol,
                "{}: measured {:.4} exceeds predicted bound {:.4}",
                net.name(),
                measured.throughput,
                rep.predicted_mean_throughput
            );
        }
    }
}

#[test]
fn ugal_envelope_contains_measured_uniform_saturation() {
    let gate_cfg = DivergenceGateConfig::default();
    for net in [slim_fly(5, SlimFlyP::Floor), mlfm(4), oft(4)] {
        let policy = RoutePolicy::new(
            &net,
            Algorithm::Ugal {
                n_i: 4,
                c: 2.0,
                threshold: None,
            },
        );
        let tm = TrafficMatrix::uniform(&net).expect("uniform matrix");
        let pa = analyze_policy(&net, &policy, &tm, &LatencyModel::paper_default())
            .expect("pristine network analyzes");
        assert!(pa.saturation_lo <= pa.saturation_hi);
        let outcome = sweep(
            &net,
            &policy,
            &SyntheticPattern::Uniform,
            &[0.4, 0.8, 1.0],
            30_000,
            6_000,
            SimConfig::default(),
            Observers::default(),
            1,
        );
        let measured = measured_saturation(&outcome);
        let (summary, diags) = divergence_gate("uniform", &pa, measured, None, &gate_cfg);
        assert!(
            summary.passed,
            "{}: measured {:.4} outside [{:.4}, {:.4}]",
            net.name(),
            measured,
            pa.saturation_lo,
            pa.saturation_hi
        );
        assert!(diags.iter().any(|d| d.code == "divergence-ok"));
        assert!(diags.iter().all(|d| d.severity != Severity::Error));
    }
}

#[test]
fn divergence_gate_catches_planted_mismatch() {
    let net = mlfm(4);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let tm = TrafficMatrix::uniform(&net).expect("uniform matrix");
    let pa = analyze_policy(&net, &policy, &tm, &LatencyModel::paper_default())
        .expect("pristine network analyzes");
    let cfg = DivergenceGateConfig::default();

    // A "measured" saturation far below the envelope must raise the
    // coded error and an unambiguous summary.
    let planted = pa.saturation_lo - cfg.tolerance - 0.25;
    let (summary, diags) = divergence_gate("uniform", &pa, planted, None, &cfg);
    assert!(!summary.passed);
    assert!(summary.saturation_gap > cfg.tolerance);
    let err = diags
        .iter()
        .find(|d| d.code == "divergence-saturation")
        .expect("error diagnostic raised");
    assert_eq!(err.severity, Severity::Error);

    // And the summary round-trips through the manifest into the
    // comparison digest.
    let mut m = RunManifest::new(
        "planted", &net, "MIN", "uniform", 30_000, 6_000, SimConfig::default(),
    );
    let mut section = AnalysisManifest::from_policy(&pa);
    section.divergence = Some(summary);
    m.set_analysis(section);
    let json = m.to_json();
    assert!(json.contains("\"passed\":false"));
    let doc = Json::parse(&json).expect("manifest parses");
    let div = doc
        .get("analysis")
        .and_then(|a| a.get("divergence"))
        .expect("divergence section present");
    assert_eq!(div.get("passed"), Some(&Json::Bool(false)));
}

#[test]
fn zipf_matrix_is_skewed_but_conservative() {
    let net = mlfm(4);
    let uniform = TrafficMatrix::uniform(&net).expect("uniform matrix");
    let zipf = TrafficMatrix::zipf(&net, 1.0).expect("zipf matrix");
    // Same total offered demand, different concentration.
    assert!((zipf.total_demand() - uniform.total_demand()).abs() < 1e-6);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let lat = LatencyModel::paper_default();
    let u = analyze_minimal(&net, policy.tables(), &uniform, &lat).expect("analyzes");
    let z = analyze_minimal(&net, policy.tables(), &zipf, &lat).expect("analyzes");
    assert!(
        z.max_link_load > u.max_link_load,
        "skew must concentrate load: zipf {:.3} vs uniform {:.3}",
        z.max_link_load,
        u.max_link_load
    );
}

#[test]
fn degraded_networks_analyze_without_error() {
    let net = mlfm(4);
    let faults = FaultSet::sample_links(&net, 0.15, 7);
    let deg = net.degrade(&faults);
    let policy = RoutePolicy::repair(&deg, Algorithm::Minimal);
    let tm = TrafficMatrix::uniform(&deg).expect("uniform matrix");
    let rep = analyze_minimal(&deg, policy.tables(), &tm, &LatencyModel::paper_default())
        .expect("repaired tables analyze");
    // Longer repaired routes cannot beat the pristine saturation.
    let pristine = {
        let p = RoutePolicy::new(&net, Algorithm::Minimal);
        let t = TrafficMatrix::uniform(&net).expect("uniform matrix");
        analyze_minimal(&net, p.tables(), &t, &LatencyModel::paper_default()).expect("analyzes")
    };
    assert!(rep.predicted_saturation <= pristine.predicted_saturation + 1e-9);
    assert!(rep.unreachable_fraction >= 0.0);
}

#[test]
fn malformed_inputs_are_errors_not_panics() {
    let net = mlfm(4);
    // Short permutation.
    assert!(matches!(
        TrafficMatrix::permutation(&net, &[0, 1, 2]),
        Err(AnalysisError::SizeMismatch { .. })
    ));
    // Destination out of range.
    let mut perm: Vec<u32> = (0..net.num_nodes()).map(|i| (i + 1) % net.num_nodes()).collect();
    perm[0] = net.num_nodes() + 7;
    assert!(matches!(
        TrafficMatrix::permutation(&net, &perm),
        Err(AnalysisError::DestinationOutOfRange { .. })
    ));
    // Mismatched matrix/network pair.
    let other = oft(4);
    let tm = TrafficMatrix::uniform(&other).expect("uniform matrix");
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    assert!(analyze_minimal(&net, policy.tables(), &tm, &LatencyModel::paper_default()).is_err());
    // Single-router graphs are not bisectable.
    assert!(matches!(
        try_bisection(
            &Network::from_parts(TopologyKind::Custom { label: "lonely".into() }, vec![vec![]], vec![2]),
            1,
            0
        ),
        Err(AnalysisError::NotBisectable { .. })
    ));
}
