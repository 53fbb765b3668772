//! Property-based cross-crate invariants: conservation laws of the
//! simulator, structural laws of the topologies, and route validity
//! under every policy, over randomized parameters.

use d2net::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn small_net(idx: usize) -> Network {
    match idx % 4 {
        0 => slim_fly(5, SlimFlyP::Floor),
        1 => mlfm(3),
        2 => oft(3),
        _ => fat_tree2(6),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation: every injected byte is either delivered or still in
    /// flight; exchanges deliver exactly the offered volume.
    #[test]
    fn exchange_conserves_bytes(idx in 0usize..4, bytes in 200u64..2000, seed in 0u64..50) {
        let net = small_net(idx);
        let policy = RoutePolicy::new(&net, Algorithm::Valiant);
        let ex = all_to_all(net.num_nodes().min(24), bytes);
        // Pad silent senders if the exchange is smaller than the network.
        let mut ex = ex;
        ex.sends.resize(net.num_nodes() as usize, Vec::new());
        let stats = run_exchange(&net, &policy, &ex, 2, SimConfig { seed, ..Default::default() });
        prop_assert!(!stats.deadlocked);
        prop_assert_eq!(stats.delivered_bytes, ex.total_bytes());
    }

    /// Accepted throughput never exceeds offered load nor 1.0, for every
    /// topology × algorithm at random loads.
    #[test]
    fn throughput_is_bounded(idx in 0usize..4, load_pct in 10u32..=100, algo_idx in 0usize..3) {
        let net = small_net(idx);
        let algo = match algo_idx {
            0 => Algorithm::Minimal,
            1 => Algorithm::Valiant,
            _ => Algorithm::Ugal { n_i: 2, c: 2.0, threshold: Some(0.1) },
        };
        let policy = RoutePolicy::new(&net, algo);
        let stats = run_synthetic(
            &net, &policy, &SyntheticPattern::Uniform,
            load_pct as f64 / 100.0, 25_000, 5_000, SimConfig::default(),
        );
        prop_assert!(!stats.deadlocked);
        prop_assert!(stats.throughput <= load_pct as f64 / 100.0 + 0.03);
        prop_assert!(stats.throughput <= 1.0 + 1e-9);
        prop_assert!(stats.throughput > 0.0);
    }

    /// Minimal delay floor: no packet is ever delivered faster than the
    /// zero-load analytic minimum (3 serializations + 3 links + 2
    /// switches for a 1-hop router path).
    #[test]
    fn delay_respects_physics(idx in 0usize..4, load_pct in 5u32..60) {
        let net = small_net(idx);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let stats = run_synthetic(
            &net, &policy, &SyntheticPattern::Uniform,
            load_pct as f64 / 100.0, 25_000, 5_000, SimConfig::default(),
        );
        // Cheapest possible delivery: same-router turnaround =
        // 2 ser + 2 link + 1 switch = 2*20.48 + 2*50 + 100 = 240.96 ns.
        prop_assert!(stats.avg_delay_ns >= 240.0, "avg delay {}", stats.avg_delay_ns);
    }

    /// Every route any policy produces is a connected walk ending at the
    /// destination router, with VC labels inside the provisioned budget.
    #[test]
    fn routes_are_valid_walks(idx in 0usize..4, seed in 0u64..200, algo_idx in 0usize..3) {
        let net = small_net(idx);
        let algo = match algo_idx {
            0 => Algorithm::Minimal,
            1 => Algorithm::Valiant,
            _ => Algorithm::Ugal { n_i: 3, c: 1.0, threshold: None },
        };
        let policy = RoutePolicy::new(&net, algo);
        let mut rng = SmallRng::seed_from_u64(seed);
        let eps = net.endpoint_routers();
        let s = eps[seed as usize % eps.len()];
        let d = eps[(seed as usize * 31 + 7) % eps.len()];
        prop_assume!(s != d);
        let c = policy.choose(s, d, &d2net::routing::ZeroOccupancy, &mut rng);
        prop_assert_eq!(c.path.src(), s);
        prop_assert_eq!(c.path.dst(), d);
        for (a, b) in c.path.links() {
            prop_assert!(net.are_adjacent(a, b));
        }
        for h in 0..c.path.num_hops() {
            prop_assert!(policy.vc_for_hop(&c, h) < policy.num_vcs());
        }
    }

    /// Worst-case permutations remain valid fixed-point-free permutations
    /// at every buildable size.
    #[test]
    fn worst_cases_are_permutations(which in 0usize..3) {
        let net = match which {
            0 => slim_fly(7, SlimFlyP::Floor),
            1 => mlfm(5),
            _ => oft(4),
        };
        let pat = worst_case(&net);
        prop_assert!(pat.is_valid_permutation(net.num_nodes()));
    }
}

/// Determinism across the whole pipeline: identical seeds yield identical
/// simulation outcomes for every algorithm.
#[test]
fn pipeline_is_deterministic() {
    for algo in [
        Algorithm::Minimal,
        Algorithm::Valiant,
        Algorithm::Ugal {
            n_i: 4,
            c: 2.0,
            threshold: None,
        },
    ] {
        let net = oft(3);
        let policy = RoutePolicy::new(&net, algo);
        let run = || {
            run_synthetic(
                &net,
                &policy,
                &SyntheticPattern::Uniform,
                0.7,
                30_000,
                6_000,
                SimConfig::default(),
            )
        };
        assert_eq!(run(), run(), "{algo:?}");
    }
}

/// `run` reports every configuration problem as `Err`, never a panic:
/// warm-up ≥ duration, buffers too small for one packet per VC, a
/// preflight-enforced rejection (the single-VC ring's cyclic channel
/// dependencies), and an exchange without a send list per node.
#[test]
fn run_returns_config_errors_instead_of_panicking() {
    use d2net::routing::{IntermediateSet, VcScheme};
    let net = mlfm(3);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let uniform = SyntheticPattern::Uniform;
    let ring = Network::from_parts(
        d2net::topo::TopologyKind::Custom {
            label: "ring5".into(),
        },
        vec![vec![1, 4], vec![0, 2], vec![1, 3], vec![2, 4], vec![0, 3]],
        vec![1; 5],
    );
    let single_vc = RoutePolicy::with_overrides(
        &ring,
        Algorithm::Minimal,
        VcScheme::SingleVc,
        IntermediateSet::EndpointRouters,
        false,
    );
    let short = all_to_all(net.num_nodes() - 1, 512);
    let cfg = SimConfig::default();
    let tiny_buffers = SimConfig {
        buffer_bytes: 10,
        ..cfg
    };
    let enforce = SimConfig {
        preflight: Preflight::Enforce,
        ..cfg
    };
    let no_obs = Observers::default();
    let must_err = |label: &str, case: &dyn Fn() -> Result<(), String>| {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(case));
        let out = result.unwrap_or_else(|_| panic!("{label}: run panicked"));
        assert!(out.is_err(), "{label}: run accepted the config");
    };
    let work = Synthetic::new(&uniform, 0.3, 5_000, 1_000);
    let no_warmup_left = Synthetic::new(&uniform, 0.3, 5_000, 5_000);
    must_err("warm-up >= duration", &|| {
        run(&net, &policy, &no_warmup_left, cfg, no_obs).map(drop)
    });
    must_err("undersized buffers", &|| {
        run(&net, &policy, &work, tiny_buffers, no_obs).map(drop)
    });
    must_err("enforced preflight on the single-VC ring", &|| {
        run(&ring, &single_vc, &work, enforce, no_obs).map(drop)
    });
    let exchange = ExchangeRun {
        exchange: &short,
        window: 1,
    };
    must_err("exchange missing a node's send list", &|| {
        run(&net, &policy, &exchange, cfg, no_obs).map(drop)
    });
}
