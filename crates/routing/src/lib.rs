//! # d2net-routing
//!
//! Routing and deadlock avoidance for the diameter-two topologies
//! (paper §3):
//!
//! - [`tables::MinimalTables`] — all-pairs minimal distances and first-hop
//!   choice sets, precomputed once per network;
//! - [`policy::RoutePolicy`] — oblivious minimal (MIN), oblivious indirect
//!   random (INR / Valiant) and local UGAL adaptive route selection
//!   (generic and thresholded), with the per-topology penalty rules;
//! - [`policy::VcScheme`] — the paper's VC assignments: hop-indexed for
//!   the Slim Fly (2 VCs minimal / 4 indirect), phase-based for the SSPTs
//!   (1 VC minimal / 2 indirect);
//! - [`cdg`] — channel-dependency-graph construction, streamed from the
//!   tables, and acyclicity checking to *prove* the schemes deadlock-free
//!   on concrete instances.

pub mod cdg;
pub mod path;
pub mod policy;
pub mod tables;

pub use cdg::{
    all_policy_routes, build_cdg, enumerate_min_paths, for_each_policy_route, route_census,
    try_build_cdg, try_build_minimal_cdg, ChannelError, ChannelGraph, RouteShape,
};
pub use path::{RoutePath, MAX_PATH_ROUTERS};
pub use policy::{
    vc_for_hop, Algorithm, DecisionCandidate, DecisionRecord, DecisionVerdict, IntermediateSet,
    OccupancyView, RouteChoice, RoutePolicy, VcScheme, ZeroOccupancy,
};
pub use tables::{MinimalTables, UNREACHABLE};

#[cfg(test)]
mod proptests {
    use super::*;
    use d2net_topo::{mlfm, oft, slim_fly, Network, SlimFlyP};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn nets() -> impl Strategy<Value = Network> {
        prop::sample::select(vec![0usize, 1, 2]).prop_map(|i| match i {
            0 => slim_fly(5, SlimFlyP::Floor),
            1 => mlfm(3),
            _ => oft(3),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn chosen_routes_are_walks_in_the_graph(net in nets(), seed in 0u64..1000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            for algo in [
                Algorithm::Minimal,
                Algorithm::Valiant,
                Algorithm::Ugal { n_i: 2, c: 2.0, threshold: Some(0.1) },
            ] {
                let policy = RoutePolicy::new(&net, algo);
                let eps = net.endpoint_routers();
                let s = eps[seed as usize % eps.len()];
                let d = eps[(seed as usize * 7 + 1) % eps.len()];
                if s == d { continue; }
                let c = policy.choose(s, d, &ZeroOccupancy, &mut rng);
                prop_assert_eq!(c.path.src(), s);
                prop_assert_eq!(c.path.dst(), d);
                for (a, b) in c.path.links() {
                    prop_assert!(net.are_adjacent(a, b));
                }
                if !c.indirect {
                    prop_assert_eq!(c.path.num_hops() as u8, policy.tables().dist(s, d));
                }
                // VC labels stay within the provisioned budget.
                for h in 0..c.path.num_hops() {
                    prop_assert!(policy.vc_for_hop(&c, h) < policy.num_vcs());
                }
            }
        }

        #[test]
        fn indirect_paths_visit_a_real_intermediate(net in nets(), seed in 0u64..1000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let policy = RoutePolicy::new(&net, Algorithm::Valiant);
            let eps = net.endpoint_routers();
            let s = eps[seed as usize % eps.len()];
            let d = eps[(seed as usize * 13 + 2) % eps.len()];
            if s == d { return Ok(()); }
            let c = policy.choose(s, d, &ZeroOccupancy, &mut rng);
            prop_assert!(c.indirect);
            let mid = c.path.routers()[c.phase_hops as usize];
            prop_assert!(mid != s && mid != d);
        }
    }
}
