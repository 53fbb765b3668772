//! Fuzz the routing + simulation stacks on random *unstructured*
//! connected graphs: none of the invariants below may depend on the
//! symmetries of the paper's constructed topologies.

use d2net::prelude::*;
use d2net::topo::random_connected;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Synthetic runs on random graphs stay live and conserve bounds.
    #[test]
    fn random_graph_simulation_invariants(
        seed in 0u64..500,
        routers in 8u32..20,
        load_pct in 20u32..=100,
    ) {
        let net = random_connected(routers, 4, 2, 3, seed);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let stats = run_synthetic(
            &net,
            &policy,
            &SyntheticPattern::Uniform,
            load_pct as f64 / 100.0,
            30_000,
            6_000,
            SimConfig::default(),
        );
        prop_assert!(!stats.deadlocked, "minimal routing on a random graph wedged");
        prop_assert!(stats.throughput > 0.0);
        prop_assert!(stats.throughput <= load_pct as f64 / 100.0 + 0.03);
        // Physics floor: nothing beats the zero-load minimum.
        prop_assert!(stats.avg_delay_ns >= 240.0);
    }

    /// Valiant with the hop-indexed VC fallback is deadlock-free on
    /// random graphs too (VC strictly increases per hop, so the CDG is a
    /// DAG regardless of graph structure).
    #[test]
    fn random_graph_valiant_stays_live(seed in 0u64..300, routers in 8u32..16) {
        let net = random_connected(routers, 4, 2, 3, seed);
        let policy = RoutePolicy::new(&net, Algorithm::Valiant);
        let stats = run_synthetic(
            &net,
            &policy,
            &SyntheticPattern::Uniform,
            0.8,
            30_000,
            6_000,
            SimConfig::default(),
        );
        prop_assert!(!stats.deadlocked);
        prop_assert!(stats.delivered_packets > 0);
    }

    /// The CDG checker agrees on random graphs: hop-indexed VCs acyclic,
    /// single-VC indirect cyclic (whenever any 3+-hop dependency chain
    /// exists, which dense-random + Valiant guarantees).
    #[test]
    fn random_graph_cdg_properties(seed in 0u64..200) {
        let net = random_connected(12, 4, 1, 3, seed);
        let policy = RoutePolicy::new(&net, Algorithm::Valiant);
        let cdg = build_cdg(&net, &policy);
        prop_assert!(cdg.is_acyclic(), "hop-indexed VCs must be acyclic");
    }

    /// Arbitrary fault sets — sampled links, sampled routers, and pure
    /// nonsense ids far outside the network — degrade/repair/simulate
    /// without panicking, and the repaired config stays live.
    #[test]
    fn random_fault_sets_degrade_without_panics(
        seed in 0u64..400,
        routers in 8u32..16,
        link_pct in 0u32..=15,
        router_pct in 0u32..=10,
    ) {
        let net = random_connected(routers, 4, 2, 3, seed);
        let faults = FaultSet::sample_links(&net, link_pct as f64 / 100.0, seed ^ 0xa5a5)
            .merged(&FaultSet::sample_routers(&net, router_pct as f64 / 100.0, seed ^ 0x5a5a))
            .merged(
                FaultSet::new()
                    .fail_link(routers + 100, routers + 101)
                    .fail_router(u32::MAX - seed as u32 % 7)
                    .fail_link(0, 0),
            );
        let degraded = net.degrade(&faults);
        let policy = RoutePolicy::repair(&degraded, Algorithm::Minimal);
        let stats = run_synthetic(
            &degraded,
            &policy,
            &SyntheticPattern::Uniform,
            0.6,
            20_000,
            4_000,
            SimConfig::default(),
        );
        prop_assert!(!stats.deadlocked, "repaired random degradation wedged");
        // Whatever the damage, the books balance: something is delivered
        // unless the sample orphaned every live source's destinations.
        prop_assert!(stats.delivered_packets > 0 || stats.dropped_packets > 0);
    }

    /// Arbitrary *mid-run* fault schedules — random times, random link
    /// and router victims, nonsense ids included — never panic and never
    /// wedge: dying links drain or drop, they don't strand.
    #[test]
    fn random_midrun_fault_schedules_never_wedge(
        seed in 0u64..300,
        routers in 8u32..14,
        t1 in 2_000u64..20_000,
        t2 in 20_000u64..45_000,
    ) {
        let net = random_connected(routers, 4, 2, 3, seed);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let schedule = FaultSchedule::new()
            .at(t1, FaultSet::sample_links(&net, 0.08, seed ^ 0xfeed))
            .at(
                t2,
                FaultSet::sample_routers(&net, 0.05, seed ^ 0xbeef)
                    .merged(FaultSet::new().fail_link(routers + 7, routers + 8)),
            );
        let stats = run(
            &net,
            &policy,
            &Synthetic::new(&SyntheticPattern::Uniform, 0.5, 50_000, 8_000).with_faults(&schedule),
            SimConfig::default(),
            Observers::default(),
        )
        .map(|r| r.stats)
        .expect("faulted run constructs");
        prop_assert!(!stats.deadlocked, "mid-run faults wedged the network");
        prop_assert!(stats.delivered_packets > 0);
    }

    /// Exchange conservation on random graphs.
    #[test]
    fn random_graph_exchange_conserves(seed in 0u64..200) {
        let net = random_connected(10, 4, 2, 3, seed);
        let ex = all_to_all(net.num_nodes(), 700);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let stats = run_exchange(&net, &policy, &ex, 2, SimConfig::default());
        prop_assert!(!stats.deadlocked);
        prop_assert_eq!(stats.delivered_bytes, ex.total_bytes());
    }
}
