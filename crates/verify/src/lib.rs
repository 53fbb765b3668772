//! # d2net-verify
//!
//! Static preflight verification: proves — or refutes, with a concrete
//! counterexample — that a (topology, routing policy, VC assignment,
//! simulation parameters) combination is safe *before* any cycle is
//! simulated. The paper's deadlock-freedom argument (§3.4, after Dally &
//! Towles) is a static property of the channel dependency graph; this
//! crate checks it, plus everything else the simulator would otherwise
//! only discover by wedging:
//!
//! 1. **CDG acyclicity** with counterexample extraction — a rejected
//!    config comes with the shortest dependency cycle as concrete
//!    `(link, vc)` channels and the routes that induce it, rendered in
//!    the style of the telemetry deadlock forensics;
//! 2. **routing-table soundness** — every endpoint pair reachable,
//!    minimal paths within the class's diameter promise, indirect routes
//!    well-formed and VC-monotone;
//! 3. **topology structural lints** — connectivity, class invariants,
//!    diameter promises, SSPT layering/stacking, Slim Fly girth census,
//!    radix census;
//! 4. **escape coverage and buffer sufficiency** — adaptive policies keep
//!    an acyclic minimal-route escape, and every VC's buffer share holds
//!    at least one maximum-size packet;
//! 5. **analytic channel-load certification** — the `d2net-analysis`
//!    oracle evaluates uniform traffic over the policy's real tables and
//!    flags configs whose predicted saturation envelope collapses below
//!    [`VerifyParams::saturation_floor`] (WARN) or whose best-case link
//!    loads exceed [`VerifyParams::overload_limit`] (ERROR).
//!
//! The simulation engine calls [`verify`] from its `preflight()` hook;
//! the `d2net-verify` example exposes the same pass as a CLI.

pub mod checks;
pub mod diag;
pub mod invariant;

pub use diag::{Diagnostic, Report, Severity, Verdict, VerifySummary};

use d2net_routing::{Algorithm, RoutePolicy};
use d2net_topo::Network;

/// The simulation parameters the static checks consult. A plain struct
/// (rather than `SimConfig`) so this crate stays below `d2net-sim` in the
/// dependency graph; the sim crate converts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyParams {
    /// Buffer space per port per direction in bytes.
    pub buffer_bytes: u64,
    /// Maximum packet size in bytes.
    pub packet_bytes: u32,
    /// Link bandwidth in Gb/s (must divide 8000 ps/byte exactly).
    pub link_bandwidth_gbps: f64,
    /// Analytic-oracle floor: WARN when the predicted uniform-traffic
    /// saturation envelope tops out below this fraction of injection
    /// bandwidth (the config would crawl even before congestion).
    pub saturation_floor: f64,
    /// Analytic-oracle overload limit: ERROR when, even under the
    /// policy's most favorable load assignment, some directed link is
    /// expected to carry more than this many node-injection rates under
    /// uniform traffic at offered load 1.0. Ordinary diameter-two
    /// configs sit well below this (MLFM uniform peaks near 2); a
    /// breach means a planted hotspot or a broken table.
    pub overload_limit: f64,
}

impl Default for VerifyParams {
    /// The paper's §4.1 parameters.
    fn default() -> Self {
        VerifyParams {
            buffer_bytes: 100_000,
            packet_bytes: 256,
            link_bandwidth_gbps: 100.0,
            saturation_floor: 0.05,
            overload_limit: 8.0,
        }
    }
}

/// Short display name of an algorithm, matching the paper's labels.
fn algo_name(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Minimal => "MIN",
        Algorithm::Valiant => "INR",
        Algorithm::Ugal { .. } => "UGAL-L",
        Algorithm::UgalG { .. } => "UGAL-G",
    }
}

/// Runs every static check on `(net, policy, params)` and returns the
/// structured report. Never panics on unsafe or malformed inputs. The
/// channel dependency graph is streamed from the minimal tables and the
/// route checks run per route shape, so no route is materialised: cost
/// grows with the number of distinct dependencies, not routes, and
/// adaptive policies verify at paper (CORAL) scale.
pub fn verify(net: &Network, policy: &RoutePolicy, params: &VerifyParams) -> Report {
    verify_with(net, policy, params, checks::RouteSpace::streamed)
}

/// [`verify`] with the route space enumerated route by route instead of
/// streamed: the reference that differential tests hold [`verify`] to.
/// Memory grows with the number of routes, so keep it to small networks.
pub fn verify_enumerated(net: &Network, policy: &RoutePolicy, params: &VerifyParams) -> Report {
    verify_with(net, policy, params, checks::RouteSpace::enumerated)
}

fn verify_with(
    net: &Network,
    policy: &RoutePolicy,
    params: &VerifyParams,
    route_space: fn(&Network, &RoutePolicy) -> checks::RouteSpace,
) -> Report {
    let subject = format!(
        "{} under {} [{:?}, {} VCs]",
        net.name(),
        algo_name(policy.algorithm()),
        policy.vc_scheme(),
        policy.num_vcs()
    );
    let mut diags = Vec::new();
    checks::check_topology(net, &mut diags);
    checks::check_params(policy, params, &mut diags);
    let mut cdg_cycle_len = 0;
    // Route-space checks only make sense on a connected graph (the policy
    // could not even have been built otherwise, but stay defensive).
    if diags
        .iter()
        .all(|d| d.code != "topology-disconnected")
    {
        checks::check_tables(net, policy, &mut diags);
        let space = route_space(net, policy);
        checks::check_routes(policy, &space, &mut diags);
        cdg_cycle_len = checks::check_cdg(net, policy, &space, &mut diags);
        checks::check_analysis(net, policy, params, &mut diags);
    }
    Report {
        subject,
        diagnostics: diags,
        cdg_cycle_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2net_routing::{IntermediateSet, VcScheme};
    use d2net_topo::{mlfm, oft, slim_fly, SlimFlyP, TopologyKind};

    /// The 5-router single-node-per-router ring: the canonical unsafe
    /// config once minimal routing is squeezed onto one VC.
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
    fn certifies_paper_standard_configs() {
        // slim_fly(7) exercises the δ = −1 Hafner extension, where the
        // girth census must stay informational.
        for net in [
            slim_fly(5, SlimFlyP::Floor),
            slim_fly(7, SlimFlyP::Floor),
            mlfm(4),
            oft(4),
        ] {
            for algo in [
                Algorithm::Minimal,
                Algorithm::Valiant,
                Algorithm::Ugal {
                    n_i: 4,
                    c: 2.0,
                    threshold: None,
                },
            ] {
                let policy = RoutePolicy::new(&net, algo);
                let report = verify(&net, &policy, &VerifyParams::default());
                assert_eq!(
                    report.verdict(),
                    Verdict::Certified,
                    "{}\n{}",
                    report.subject,
                    report.render()
                );
                assert_eq!(report.cdg_cycle_len, 0);
            }
        }
    }

    #[test]
    fn rejects_single_vc_ring_with_cycle_counterexample() {
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
        let cyc = report.find("cdg-cycle").expect("must carry a counterexample");
        assert_eq!(cyc.severity, Severity::Error);
        assert!(report.cdg_cycle_len >= 2);
        let rendered = report.render();
        assert!(rendered.contains("REJECTED"));
        assert!(rendered.contains("CDG CYCLE"));
        assert!(rendered.contains("waits on next"));
        assert!(rendered.contains("via route"));
    }

    #[test]
    fn safe_ring_with_hop_index_vcs_is_certified() {
        // The same ring becomes safe once VC = hop index: the dependency
        // chain strictly climbs the VC ladder.
        let net = ring5();
        let policy = RoutePolicy::with_overrides(
            &net,
            Algorithm::Minimal,
            VcScheme::HopIndex,
            IntermediateSet::EndpointRouters,
            false,
        );
        let report = verify(&net, &policy, &VerifyParams::default());
        assert_eq!(report.verdict(), Verdict::Certified, "{}", report.render());
    }

    #[test]
    fn rejects_insufficient_buffers() {
        let net = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Valiant); // 4 VCs
        let params = VerifyParams {
            buffer_bytes: 512, // 128 B per VC < 256 B packet
            ..Default::default()
        };
        let report = verify(&net, &policy, &params);
        assert_eq!(report.verdict(), Verdict::Rejected);
        assert!(report.find("buffer-insufficient").is_some());
        // The CDG itself is still fine.
        assert_eq!(report.cdg_cycle_len, 0);
    }

    #[test]
    fn rejects_unquantizable_bandwidth() {
        let net = mlfm(3);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let params = VerifyParams {
            link_bandwidth_gbps: 3.0,
            ..Default::default()
        };
        let report = verify(&net, &policy, &params);
        assert_eq!(report.verdict(), Verdict::Rejected);
        assert!(report.find("bandwidth-quantization").is_some());
    }

    #[test]
    fn rejects_disconnected_topology() {
        // Two disjoint edges; build tables by hand is impossible (the
        // policy constructor would panic), so drive the topology check
        // directly through a connected policy on a different net — here
        // we just check the lint via a custom disconnected graph and the
        // check_topology path.
        let net = Network::from_parts(
            TopologyKind::Custom {
                label: "disc".into(),
            },
            vec![vec![1], vec![0], vec![3], vec![2]],
            vec![1; 4],
        );
        let mut diags = Vec::new();
        checks::check_topology(&net, &mut diags);
        assert!(diags.iter().any(|d| d.code == "topology-disconnected"));
    }

    #[test]
    fn adaptive_policy_reports_escape_coverage() {
        let net = mlfm(3);
        let policy = RoutePolicy::new(
            &net,
            Algorithm::Ugal {
                n_i: 4,
                c: 2.0,
                threshold: Some(0.1),
            },
        );
        let report = verify(&net, &policy, &VerifyParams::default());
        assert_eq!(report.verdict(), Verdict::Certified);
        assert!(report.find("escape-acyclic").is_some());
    }

    #[test]
    fn certifies_repaired_degraded_configs() {
        use d2net_topo::FaultSet;
        // Moderate link failures on each family: repair reroutes, the
        // degraded lints replace the structural ones, and the repaired
        // CDG is still provably acyclic — so the verdict is Certified
        // (possibly with degraded-diameter warnings).
        for net in [slim_fly(5, SlimFlyP::Floor), mlfm(4), oft(4)] {
            let deg = net.degrade(&FaultSet::sample_links(&net, 0.05, 11));
            for algo in [Algorithm::Minimal, Algorithm::Valiant] {
                let policy = RoutePolicy::repair(&deg, algo);
                let report = verify(&deg, &policy, &VerifyParams::default());
                assert_eq!(
                    report.verdict(),
                    Verdict::Certified,
                    "{}\n{}",
                    report.subject,
                    report.render()
                );
                assert!(report.find("degraded").is_some());
                assert!(report.find("topology-invariant").is_none());
                assert!(report.find("diameter-promise").is_none());
            }
        }
    }

    #[test]
    fn rejects_partitioned_degraded_config() {
        use d2net_topo::FaultSet;
        // Sever every link of endpoint router 0 on the MLFM: the surviving
        // endpoint routers can no longer reach it — partition, ERROR.
        let net = mlfm(3);
        let mut faults = FaultSet::new();
        for &n in net.neighbors(0) {
            faults.fail_link(0, n);
        }
        let deg = net.degrade(&faults);
        let policy = RoutePolicy::repair(&deg, Algorithm::Minimal);
        let report = verify(&deg, &policy, &VerifyParams::default());
        assert_eq!(report.verdict(), Verdict::Rejected, "{}", report.render());
        let part = report.find("degraded-partition").expect("partition lint");
        assert_eq!(part.severity, Severity::Error);
        assert!(report.find("degraded-unreachable").is_some());
    }

    #[test]
    fn failed_router_is_a_casualty_not_a_partition() {
        use d2net_topo::FaultSet;
        // A failed endpoint router takes its nodes offline (WARN), but the
        // surviving endpoint routers still form one component → Certified.
        let net = mlfm(4);
        let mut faults = FaultSet::new();
        faults.fail_router(0);
        let deg = net.degrade(&faults);
        let policy = RoutePolicy::repair(&deg, Algorithm::Valiant);
        let report = verify(&deg, &policy, &VerifyParams::default());
        assert_eq!(report.verdict(), Verdict::Certified, "{}", report.render());
        assert!(report.find("degraded-endpoints-lost").is_some());
        assert!(report.find("degraded-partition").is_none());
        assert!(report.find("degraded-unreachable").is_some());
    }

    #[test]
    fn analysis_tier_reports_saturation_on_certified_configs() {
        // Every connected verification carries the oracle's INFO line,
        // and the paper-standard configs stay Certified with the
        // default thresholds (MLFM's uniform max load ≈ 2 is expected
        // physics, not an overload).
        for net in [slim_fly(5, SlimFlyP::Floor), mlfm(4), oft(4)] {
            for algo in [
                Algorithm::Minimal,
                Algorithm::Valiant,
                Algorithm::Ugal { n_i: 4, c: 2.0, threshold: None },
            ] {
                let policy = RoutePolicy::new(&net, algo);
                let report = verify(&net, &policy, &VerifyParams::default());
                assert_eq!(report.verdict(), Verdict::Certified, "{}", report.render());
                let sat = report.find("analysis-saturation").expect("oracle INFO line");
                assert_eq!(sat.severity, Severity::Info);
                assert!(sat.message.contains("saturation envelope"));
                assert!(report.find("analysis-overload").is_none());
            }
        }
    }

    #[test]
    fn analysis_floor_warns_without_rejecting() {
        // An absurd floor trips the WARN but cannot reject on its own
        // (all-indirect uniform saturation on the MLFM is ≈ 0.52).
        let net = mlfm(4);
        let policy = RoutePolicy::new(&net, Algorithm::Valiant);
        let params = VerifyParams { saturation_floor: 0.99, ..Default::default() };
        let report = verify(&net, &policy, &params);
        let floor = report.find("analysis-saturation-floor").expect("floor WARN");
        assert_eq!(floor.severity, Severity::Warning);
        assert_eq!(report.verdict(), Verdict::Certified, "{}", report.render());
    }

    #[test]
    fn analysis_overload_rejects_with_link_forensics() {
        // Dropping the overload limit below ordinary uniform loads makes
        // the oracle's ERROR fire, naming the hottest directed link —
        // the same gate a genuinely pathological table would trip at the
        // default limit.
        let net = mlfm(4);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let params = VerifyParams { overload_limit: 0.5, ..Default::default() };
        let report = verify(&net, &policy, &params);
        assert_eq!(report.verdict(), Verdict::Rejected);
        let over = report.find("analysis-overload").expect("overload ERROR");
        assert_eq!(over.severity, Severity::Error);
        assert!(over.message.contains("router"), "{}", over.message);
    }

    #[test]
    fn mislabeled_network_fails_structural_lints() {
        use d2net_topo::slimfly::SlimFlyParams;
        // A square ring masquerading as a Slim Fly: class invariants and
        // the girth census must both object, without panicking.
        let net = Network::from_parts(
            TopologyKind::SlimFly(SlimFlyParams {
                q: 5,
                delta: 1,
                w: 1,
                p: 3,
                network_radix: 7,
            }),
            vec![vec![1, 3], vec![0, 2], vec![1, 3], vec![0, 2]],
            vec![3; 4],
        );
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let report = verify(&net, &policy, &VerifyParams::default());
        assert_eq!(report.verdict(), Verdict::Rejected);
        assert!(report.find("topology-invariant").is_some());
        let girth = report.find("sf-girth").expect("girth census");
        assert_eq!(girth.severity, Severity::Error, "q = 5 promises girth 5");
    }

    #[test]
    fn hoffman_singleton_slim_fly_has_girth_five() {
        let net = slim_fly(5, SlimFlyP::Floor);
        let mut diags = Vec::new();
        checks::check_topology(&net, &mut diags);
        let girth = diags
            .iter()
            .find(|d| d.code == "sf-girth")
            .expect("girth census");
        assert_eq!(girth.severity, Severity::Info);
        assert!(girth.message.contains("girth holds"), "{}", girth.message);
    }

    #[test]
    fn larger_slim_flies_certify_under_min() {
        // Beyond q = 5 no MMS graph has girth 5 (Hoffman–Singleton), so
        // the census is informational, and the paper's own SF(q=13)
        // configs certify.
        for net in [
            slim_fly(9, SlimFlyP::Floor),
            slim_fly(13, SlimFlyP::Floor),
            slim_fly(13, SlimFlyP::Ceil),
        ] {
            let policy = RoutePolicy::new(&net, Algorithm::Minimal);
            let report = verify(&net, &policy, &VerifyParams::default());
            assert_eq!(report.verdict(), Verdict::Certified, "{}", report.render());
            let girth = report.find("sf-girth").expect("girth census");
            assert_eq!(girth.severity, Severity::Info);
            assert!(girth.message.contains("q = "), "{}", girth.message);
            let dia = report.find("diameter").expect("diameter lint");
            assert_eq!(dia.message, "router diameter 2");
        }
    }
}
