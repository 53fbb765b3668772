//! Cross-crate integration tests pinning the paper's headline claims:
//! analytic saturation bounds reproduced by the simulator, deadlock
//! freedom of the proposed schemes, and the §2/§4 structural numbers.

use d2net::prelude::*;

/// §4.2/§4.3.1: simulated worst-case saturation under minimal routing
/// matches the analytic 1/2p, 1/h, 1/k bounds for all three topologies.
#[test]
fn wc_saturation_matches_analysis() {
    // Small instances keep the test fast; the bound formulas are
    // scale-free.
    let nets = vec![slim_fly(5, SlimFlyP::Floor), mlfm(5), oft(4)];
    for net in &nets {
        let expected = worst_case_saturation(net);
        let policy = RoutePolicy::new(net, Algorithm::Minimal);
        let pattern = worst_case(net);
        let stats = run_synthetic(
            net,
            &policy,
            &pattern,
            1.0,
            120_000,
            24_000,
            SimConfig::default(),
        );
        assert!(!stats.deadlocked, "{}", net.name());
        assert!(
            (stats.throughput - expected).abs() < 0.25 * expected + 0.01,
            "{}: simulated {:.4}, analytic {:.4}",
            net.name(),
            stats.throughput,
            expected
        );
    }

    // Figs. 7–12: adaptive routing recovers much of the worst case that
    // minimal routing collapses on.
    let net = mlfm(4);
    let wc = worst_case(&net);
    let at_full_load = |algo| {
        let policy = RoutePolicy::new(&net, algo);
        run_synthetic(&net, &policy, &wc, 1.0, 30_000, 6_000, SimConfig::default()).throughput
    };
    let ugal = Algorithm::Ugal {
        n_i: 5,
        c: 2.0,
        threshold: None,
    };
    let (u_wc, m_wc) = (at_full_load(ugal), at_full_load(Algorithm::Minimal));
    assert!(u_wc > 1.2 * m_wc, "UGAL WC {u_wc} vs MIN WC {m_wc}");
}

/// §3.4: every (topology, routing) combination used in the evaluation is
/// provably deadlock-free — the exhaustive channel dependency graph under
/// the paper's VC assignment is acyclic.
#[test]
fn all_evaluated_schemes_are_deadlock_free() {
    for net in [slim_fly(5, SlimFlyP::Floor), mlfm(4), oft(4)] {
        for algo in [
            Algorithm::Minimal,
            Algorithm::Valiant,
            Algorithm::Ugal {
                n_i: 4,
                c: 2.0,
                threshold: Some(0.1),
            },
        ] {
            let policy = RoutePolicy::new(&net, algo);
            let cdg = build_cdg(&net, &policy);
            assert!(
                cdg.is_acyclic(),
                "{} under {:?} has CDG cycles",
                net.name(),
                algo
            );
        }
    }
}

/// Abstract claim of the paper (§1, Fig. 3 table): all three designs cost
/// 3 router ports and 2 links per endpoint at every buildable size.
#[test]
fn cost_claim_holds_across_sizes() {
    let mut nets = vec![mlfm(3), mlfm(8), mlfm(15), oft(3), oft(8), oft(12)];
    nets.push(slim_fly(13, SlimFlyP::Floor));
    for net in nets {
        let n = net.num_nodes() as f64;
        let ports = net.total_ports() as f64 / n;
        let links = net.total_links() as f64 / n;
        match net.kind() {
            TopologyKind::SlimFly(_) => {
                // SF is approximate: 2.9-3.11 ports depending on p rounding.
                assert!((ports - 3.0).abs() < 0.15, "{}: {ports}", net.name());
                assert!((links - 2.0).abs() < 0.15, "{}: {links}", net.name());
            }
            _ => {
                assert_eq!(net.total_ports(), 3 * net.num_nodes() as u64, "{}", net.name());
                assert_eq!(net.total_links(), 2 * net.num_nodes() as u64, "{}", net.name());
            }
        }
    }
}

/// §2.1.2 cost sensitivity: for q = 13, p = 10 gives 2.9 ports / 1.95
/// links per endpoint; p = 9 gives 3.11 / 2.05 (paper's exact numbers).
#[test]
fn sf_q13_cost_numbers() {
    let ceil = slim_fly(13, SlimFlyP::Ceil);
    let n = ceil.num_nodes() as f64;
    assert!((ceil.total_ports() as f64 / n - 2.9).abs() < 0.01);
    assert!((ceil.total_links() as f64 / n - 1.95).abs() < 0.01);
    let floor = slim_fly(13, SlimFlyP::Floor);
    let n = floor.num_nodes() as f64;
    assert!((floor.total_ports() as f64 / n - 3.11).abs() < 0.01);
    assert!((floor.total_links() as f64 / n - 2.05).abs() < 0.01);
}

/// End-to-end: the full reduced-scale Fig. 6 uniform pipeline produces
/// monotone-saturating curves with MIN above INR.
#[test]
fn fig6_pipeline_reduced() {
    let params = RunParams {
        duration_ns: 40_000,
        warmup_ns: 8_000,
        loads: vec![0.25, 0.5, 1.0],
        sim: SimConfig::default(),
    };
    let nets = vec![mlfm(5), oft(4)];
    let curves = fig6(&nets, Traffic::Uniform, &params, 0).curves;
    assert_eq!(curves.len(), 4);
    for c in &curves {
        // Accepted throughput is non-decreasing in offered load (within
        // simulation noise) until saturation.
        for w in c.points.windows(2) {
            assert!(
                w[1].stats.throughput >= w[0].stats.throughput - 0.03,
                "{}: throughput dipped {} -> {}",
                c.label,
                w[0].stats.throughput,
                w[1].stats.throughput
            );
        }
        assert!(!c.points.iter().any(|p| p.stats.deadlocked), "{}", c.label);
    }
    // MIN saturates above INR on uniform traffic.
    for pair in curves.chunks(2) {
        let min_sat = pair[0].points.last().unwrap().stats.throughput;
        let inr_sat = pair[1].points.last().unwrap().stats.throughput;
        assert!(min_sat > inr_sat, "{}: {min_sat} <= {inr_sat}", pair[0].label);
    }

    // §4.3.1: the Slim Fly with p = ⌈r'/2⌉ saturates earlier on uniform
    // traffic than p = ⌊r'/2⌋.
    let uniform_at_full_load = |net: &Network| {
        let policy = RoutePolicy::new(net, Algorithm::Minimal);
        let pattern = SyntheticPattern::Uniform;
        run_synthetic(
            net,
            &policy,
            &pattern,
            1.0,
            60_000,
            12_000,
            SimConfig::default(),
        )
        .throughput
    };
    let tf = uniform_at_full_load(&slim_fly(7, SlimFlyP::Floor));
    let tc = uniform_at_full_load(&slim_fly(7, SlimFlyP::Ceil));
    assert!(
        tf > tc,
        "floor ({tf}) must out-saturate ceil ({tc}) on uniform traffic"
    );
}

/// §4.4/Fig. 13: A2A effective throughput — MIN ≈ adaptive ≈ 2× INR.
#[test]
fn a2a_shape() {
    // mlfm(8) is the smallest size where the paper's contention effects
    // emerge cleanly; mlfm(4) is dominated by router-local traffic.
    let nets = vec![mlfm(8)];
    let params = RunParams::reduced();
    let rows = fig13(&nets, 1_024, &params);
    let get = |tag: &str| {
        rows.iter()
            .find(|r| r.routing.starts_with(tag))
            .unwrap()
            .stats
            .effective_throughput
    };
    assert!(get("MIN") > 0.8, "MIN {}", get("MIN"));
    assert!(get("INR") < 0.7 && get("INR") > 0.3, "INR {}", get("INR"));
    assert!(get("MLFM-A") > 0.95 * get("INR"), "adaptive beats INR");
}

/// §4.4/Fig. 14: NN exchange — MIN is worst; INR and adaptive recover.
#[test]
fn nn_shape() {
    let nets = vec![mlfm(8)];
    let params = RunParams::reduced();
    let rows = fig14(&nets, 16_384, &params);
    let get = |tag: &str| {
        rows.iter()
            .find(|r| r.routing.starts_with(tag))
            .unwrap()
            .stats
            .effective_throughput
    };
    assert!(
        get("INR") > get("MIN"),
        "INR {} must beat MIN {} on NN",
        get("INR"),
        get("MIN")
    );
    assert!(
        get("MLFM-A") > get("MIN"),
        "adaptive {} must beat MIN {}",
        get("MLFM-A"),
        get("MIN")
    );
}

/// The reduced- and full-scale configuration sets expose the same
/// four-way comparison.
#[test]
fn scales_are_parallel() {
    let reduced = eval_topologies(Scale::Reduced);
    let full = eval_topologies(Scale::Full);
    assert_eq!(reduced.len(), full.len());
    for (r, f) in reduced.iter().zip(&full) {
        assert_eq!(
            std::mem::discriminant(r.kind()),
            std::mem::discriminant(f.kind())
        );
    }
}
