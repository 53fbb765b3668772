//! The static verifier against the simulator it predicts: on random
//! unstructured topologies the preflight verdict must agree with what a
//! simulation actually does — certified configs never wedge, and every
//! rejection carries a genuine CDG cycle, not a rendering artifact.

use d2net::prelude::*;
use d2net::routing::cdg::all_policy_routes;
use d2net::routing::{
    for_each_policy_route, try_build_minimal_cdg, ChannelGraph, IntermediateSet, VcScheme,
};
use d2net::topo::random_connected;
use d2net::topo::TopologyKind;
use d2net::verify::verify_enumerated;
use proptest::prelude::*;
use std::ops::ControlFlow;

fn ring5() -> Network {
    Network::from_parts(
        TopologyKind::Custom {
            label: "ring5".into(),
        },
        vec![vec![1, 4], vec![0, 2], vec![1, 3], vec![2, 4], vec![0, 3]],
        vec![1; 5],
    )
}

/// A custom network from an adjacency list and per-router end-node counts.
fn custom(label: &str, adj: Vec<Vec<u32>>, nodes: Vec<u32>) -> Network {
    Network::from_parts(
        TopologyKind::Custom {
            label: label.into(),
        },
        adj,
        nodes,
    )
}

/// An `n`-router ring with one end-node per router.
fn ring(n: u32) -> Network {
    let adj = (0..n).map(|i| vec![(i + 1) % n, (i + n - 1) % n]).collect();
    custom(&format!("ring{n}"), adj, vec![1; n as usize])
}

/// `net` with the end-nodes stripped from every third router, so routes
/// may pivot on routers that no route starts or ends at.
fn sparse_endpoints(net: &Network) -> Network {
    let n = net.num_routers();
    let adj = (0..n).map(|r| net.neighbors(r).to_vec()).collect();
    let nodes = (0..n).map(|r| u32::from(r % 3 != 2)).collect();
    custom(&format!("{}-sparse", net.name()), adj, nodes)
}

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Minimal,
    Algorithm::Valiant,
    Algorithm::Ugal {
        n_i: 4,
        c: 2.0,
        threshold: None,
    },
];

/// The family's own policy plus every scheme × intermediate-set override.
fn policies(net: &Network, algo: Algorithm) -> Vec<RoutePolicy> {
    let mut out = vec![RoutePolicy::repair(net, algo)];
    for scheme in [VcScheme::HopIndex, VcScheme::PhaseBased, VcScheme::SingleVc] {
        for set in [
            IntermediateSet::AllRouters,
            IntermediateSet::EndpointRouters,
        ] {
            out.push(RoutePolicy::with_overrides(net, algo, scheme, set, false));
        }
    }
    out
}

/// The streamed CDG against the one `add_route` builds from every
/// enumerated route, and likewise the minimal-route escape sub-CDG: the
/// same canonical dependency lists, the same cycle witness, and the same
/// verifier report, message for message.
fn assert_streamed_matches_enumerated(net: &Network, policy: &RoutePolicy) {
    let what = format!(
        "{} {:?} {:?} ({} intermediates)",
        net.name(),
        policy.algorithm(),
        policy.vc_scheme(),
        policy.intermediates().len()
    );
    let mut full = ChannelGraph::new(net, policy.num_vcs());
    for (path, vcs) in all_policy_routes(net, policy) {
        full.add_route(&path, &vcs)
            .expect("routes stay on the network");
    }
    let mut minimal = ChannelGraph::new(net, policy.num_vcs());
    for_each_policy_route(net, policy, |choice, vcs| {
        if !choice.indirect {
            minimal
                .add_route(&choice.path, vcs)
                .expect("routes stay on the network");
        }
        ControlFlow::Continue(())
    });
    for (streamed, reference) in [
        (try_build_cdg(net, policy), full),
        (try_build_minimal_cdg(net, policy), minimal),
    ] {
        let streamed = streamed.expect("the streamed build fits the network");
        assert_eq!(streamed.num_channels(), reference.num_channels(), "{what}");
        for c in 0..streamed.num_channels() as u32 {
            assert_eq!(
                streamed.deps_of(c),
                reference.deps_of(c),
                "{what}: channel {c}"
            );
        }
        assert_eq!(streamed.find_cycle(), reference.find_cycle(), "{what}");
    }
    let params = VerifyParams::default();
    assert_eq!(
        verify(net, policy, &params),
        verify_enumerated(net, policy, &params),
        "{what}"
    );
}

#[test]
fn streamed_cdg_matches_enumeration_across_families_and_schemes() {
    // The families' own schemes, the SingleVc negative controls (cyclic:
    // the rejection path renders witnesses), pivots on routers without
    // end-nodes (MLFM, the fat tree, the sparse ring), a ring long enough
    // that the path-length bound prunes indirect routes, and a line with
    // two endpoint routers, where a route's source and destination rule
    // out most compositions. In the lollipop, the tip of the dead-end
    // branch 1–9–10 is nine hops from endpoint router 8, so the path
    // length bound leaves a head into it only its own source as a
    // destination — no route may pivot there.
    let nets = [
        slim_fly(3, SlimFlyP::Floor),
        mlfm(3),
        oft(3),
        fat_tree2(4),
        ring5(),
        ring(14),
        sparse_endpoints(&ring(9)),
        custom(
            "line4",
            vec![vec![1], vec![0, 2], vec![1, 3], vec![2]],
            vec![1, 0, 0, 1],
        ),
        custom(
            "lollipop",
            vec![
                vec![1],
                vec![0, 2, 9],
                vec![1, 3],
                vec![2, 4],
                vec![3, 5],
                vec![4, 6],
                vec![5, 7],
                vec![6, 8],
                vec![7],
                vec![1, 10],
                vec![9],
            ],
            vec![1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
        ),
    ];
    for net in &nets {
        for algo in ALGORITHMS {
            for policy in policies(net, algo) {
                assert_streamed_matches_enumerated(net, &policy);
            }
        }
    }
}

#[test]
fn streamed_cdg_matches_enumeration_on_degraded_networks() {
    for net in [slim_fly(3, SlimFlyP::Floor), mlfm(3), oft(3)] {
        let mut router_down = FaultSet::new();
        router_down.fail_router(0);
        // Severing router 0 outright partitions the network.
        let mut isolated = FaultSet::new();
        for &n in net.neighbors(0) {
            isolated.fail_link(0, n);
        }
        for faults in [FaultSet::sample_links(&net, 0.1, 7), router_down, isolated] {
            let degraded = net.degrade(&faults);
            for algo in ALGORITHMS {
                for policy in policies(&degraded, algo) {
                    assert_streamed_matches_enumerated(&degraded, &policy);
                }
            }
        }
    }
}

/// Rebuilds the single-VC minimal CDG the verifier analyzed and checks
/// that `find_cycle`'s witness is a real cycle: every consecutive pair of
/// channels (wrapping) is a registered dependency edge.
fn assert_genuine_cycle(net: &Network, policy: &RoutePolicy) -> usize {
    let mut cdg = ChannelGraph::new(net, policy.num_vcs());
    for (path, vcs) in all_policy_routes(net, policy) {
        cdg.add_route(&path, &vcs).expect("routes stay on the network");
    }
    let cycle = cdg
        .find_cycle()
        .expect("a rejected CDG must yield a counterexample");
    assert!(cycle.len() >= 2);
    for (i, &c) in cycle.iter().enumerate() {
        let next = cycle[(i + 1) % cycle.len()];
        assert!(
            cdg.deps_of(c).contains(&next),
            "cycle edge {c} -> {next} is not a registered dependency"
        );
    }
    cycle.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Certified ⇒ live: whenever the verifier certifies a random graph
    /// under the default (hop-indexed) scheme, a high-load simulation
    /// with `Preflight::Enforce` constructs fine and never wedges.
    #[test]
    fn certified_random_configs_simulate_without_wedging(
        seed in 0u64..400,
        routers in 8u32..16,
    ) {
        let net = random_connected(routers, 4, 2, 3, seed);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let report = verify(&net, &policy, &VerifyParams::default());
        prop_assert_eq!(
            report.verdict(),
            Verdict::Certified,
            "default scheme on a random graph must certify:\n{}",
            report.render()
        );
        let cfg = SimConfig {
            preflight: Preflight::Enforce, // would panic on disagreement
            ..Default::default()
        };
        let (stats, probe) = run_synthetic_probed(
            &net,
            &policy,
            &SyntheticPattern::Uniform,
            0.9,
            20_000,
            4_000,
            cfg,
            ProbeConfig::default(),
        );
        prop_assert!(!stats.deadlocked, "certified config wedged");
        prop_assert!(probe.deadlock.is_none(), "certified config produced forensics");
        prop_assert!(stats.delivered_packets > 0);
    }

    /// Certified ⇒ live holds on *degraded* networks too: sample a
    /// random link-failure set, repair the routing tables around it,
    /// and whenever the verifier certifies the degraded configuration
    /// the simulation never wedges — traffic toward severed pairs is
    /// dropped and accounted, never left to strand the network.
    #[test]
    fn certified_degraded_configs_never_wedge(
        seed in 0u64..400,
        routers in 8u32..16,
        fail_pct in 1u32..=10,
    ) {
        let net = random_connected(routers, 4, 2, 3, seed);
        let faults = FaultSet::sample_links(&net, fail_pct as f64 / 100.0, seed ^ 0x5eed);
        let degraded = net.degrade(&faults);
        let policy = RoutePolicy::repair(&degraded, Algorithm::Minimal);
        let report = verify(&degraded, &policy, &VerifyParams::default());
        prop_assert_eq!(
            report.verdict(),
            Verdict::Certified,
            "hop-indexed repair must certify any degradation:\n{}",
            report.render()
        );
        let cfg = SimConfig {
            preflight: Preflight::Enforce, // would panic on disagreement
            ..Default::default()
        };
        let stats = run_synthetic(
            &degraded,
            &policy,
            &SyntheticPattern::Uniform,
            0.8,
            20_000,
            4_000,
            cfg,
        );
        prop_assert!(!stats.deadlocked, "certified degraded config wedged");
        prop_assert!(stats.delivered_packets > 0);
        if policy.tables().unreachable_pairs() == 0 {
            prop_assert_eq!(stats.dropped_packets, 0, "no severed pairs, nothing to drop");
        }
    }

    /// The streamed CDG and report equal the enumerating reference on
    /// random graphs, pristine and degraded, with and without end-nodes
    /// on every router.
    #[test]
    fn streamed_cdg_matches_enumeration_on_random_graphs(
        seed in 0u64..400,
        routers in 6u32..12,
        fail_pct in 0u32..=10,
    ) {
        let dense = random_connected(routers, 3, 1, 4, seed);
        for net in [sparse_endpoints(&dense), dense] {
            let net = if fail_pct == 0 {
                net
            } else {
                net.degrade(&FaultSet::sample_links(&net, fail_pct as f64 / 100.0, seed))
            };
            for algo in ALGORITHMS {
                for policy in policies(&net, algo) {
                    assert_streamed_matches_enumerated(&net, &policy);
                }
            }
        }
    }

    /// The verdict on the unsafe single-VC ablation agrees with CDG
    /// structure either way: a rejection carries a genuine dependency
    /// cycle, a certification means the CDG really is acyclic.
    #[test]
    fn single_vc_verdict_matches_cdg_structure(seed in 0u64..200) {
        let net = random_connected(10, 4, 1, 3, seed);
        let policy = RoutePolicy::with_overrides(
            &net,
            Algorithm::Minimal,
            VcScheme::SingleVc,
            IntermediateSet::AllRouters,
            false,
        );
        let report = verify(&net, &policy, &VerifyParams::default());
        match report.verdict() {
            Verdict::Rejected => {
                prop_assert!(report.find("cdg-cycle").is_some());
                let len = assert_genuine_cycle(&net, &policy);
                prop_assert_eq!(
                    report.summary().cdg_cycle_len as usize, len,
                    "summary must carry the witness length"
                );
            }
            Verdict::Certified => {
                let cdg = build_cdg(&net, &policy);
                prop_assert!(cdg.is_acyclic(), "certified but the CDG is cyclic");
            }
        }
    }
}

/// The canonical unsafe config end to end: the verifier rejects it with a
/// concrete cycle, and the simulator — run anyway — actually deadlocks,
/// with forensics matching the static prediction.
#[test]
fn predicted_ring_deadlock_happens_in_simulation() {
    let net = ring5();
    let policy = RoutePolicy::with_overrides(
        &net,
        Algorithm::Minimal,
        VcScheme::SingleVc,
        IntermediateSet::EndpointRouters,
        false,
    );

    let report = verify(&net, &policy, &VerifyParams::default());
    assert_eq!(report.verdict(), Verdict::Rejected);
    let static_len = assert_genuine_cycle(&net, &policy);
    assert_eq!(report.summary().cdg_cycle_len as usize, static_len);

    // Warn mode prints the report but still simulates; the wedge then
    // demonstrates exactly what the verifier predicted.
    let cfg = SimConfig {
        buffer_bytes: 256,
        preflight: Preflight::Warn,
        ..Default::default()
    };
    let pattern = SyntheticPattern::Permutation(vec![2, 3, 4, 0, 1]);
    let (stats, probe) = run_synthetic_probed(
        &net, &policy, &pattern, 1.0, 50_000, 0, cfg, ProbeConfig::default(),
    );
    assert!(stats.deadlocked, "the predicted deadlock must materialize");
    let forensics = probe.deadlock.expect("wedged run carries forensics");
    assert!(!forensics.cycle.is_empty());
}

#[test]
#[should_panic(expected = "preflight rejected")]
fn enforce_mode_refuses_the_unsafe_ring() {
    let net = ring5();
    let policy = RoutePolicy::with_overrides(
        &net,
        Algorithm::Minimal,
        VcScheme::SingleVc,
        IntermediateSet::EndpointRouters,
        false,
    );
    let cfg = SimConfig {
        preflight: Preflight::Enforce,
        ..Default::default()
    };
    run_synthetic(&net, &policy, &SyntheticPattern::Uniform, 0.5, 10_000, 2_000, cfg);
}
