//! # d2net-sim
//!
//! A from-scratch discrete-event flit/packet-level interconnect simulator
//! reproducing the evaluation substrate of Kathareios et al. (SC '15,
//! §4.1): virtual-channel input-output-buffered switches, credit-based
//! flow control, 100 KB buffers per port per direction, 100 ns switch
//! traversal, 100 Gb/s links with 50 ns latency, 256 B packets.
//!
//! Entry points:
//! - [`run()`] — one run of a [`Workload`]: steady-state [`Synthetic`]
//!   traffic with warm-up (accepted throughput, mean packet delay),
//!   optionally under a mid-run [`FaultSchedule`], or a fixed-size
//!   collective [`ExchangeRun`] (A2A / NN) drained to completion
//!   (effective throughput). [`Observers`] attach a telemetry probe
//!   ([`telemetry`]), a flight trace ([`trace`]) and a routing-decision
//!   ledger ([`ledger`]); the [`Run`] carries their output. The run is
//!   partitioned across router shards in conservative time windows when
//!   a shard count is requested (or auto picks one), byte-identical to
//!   serial at every count (see [`shard`]);
//! - [`run_synthetic`] / [`run_exchange`] — the observer-free shorthands;
//! - [`sweep()`] — the offered-load axes of Figs. 6–12: one point per
//!   load from index-derived seeds, fanned across a worker pool that
//!   shares one thread budget with the shards, with the same outcome at
//!   every thread count;
//! - [`supervised_sweep`] — the same pool with retries, chaos, resume
//!   and a stop signal (see [`supervise`]).

pub mod config;
pub mod engine;
pub mod envcfg;
pub mod equeue;
pub mod fault;
pub mod injector;
pub mod ledger;
pub mod obs;
pub mod par;
pub mod shard;
pub mod stats;
pub mod supervise;
pub mod sweep;
pub mod telemetry;
pub mod trace;

pub use config::{ChaosKind, EngineChaos, EventQueueKind, Preflight, RunBudget, SimConfig};
pub use engine::{preflight, Engine, EngineFault};
pub use equeue::CalendarStats;
pub use fault::{FaultEvent, FaultSchedule};
pub use ledger::{
    ledger_metrics, DecisionLedger, DecisionSample, EngineLedger, LedgerConfig, PointLedger,
    PortHeat, RouterDecisionStats, LEDGER_TOP_N, MARGIN_BOUNDS_BYTES,
};
pub use par::{par_curves, resolve_threads};
/// [`run_synthetic`] under its former name. Kept only because the
/// `perfbench` benchmark calls it; it goes when the benchmark migrates.
pub use shard::run_synthetic as run_synthetic_sharded;
pub use shard::{
    plan_shards, run, run_exchange, run_exchange_traced, run_synthetic,
    run_synthetic_sharded_traced, ExchangeRun, Observers, Run, Synthetic, Workload,
};
pub use stats::{DelayHistogram, ExchangeStats, SyntheticStats};
pub use supervise::{
    backoff_ms, supervised_sweep, ChaosConfig, SuperviseConfig, SuperviseHooks, SupervisedSweep,
    SupervisionSummary,
};
pub use sweep::{
    load_grid, load_grid_from, point_seed, sweep, sweep_with_order, SweepNotice, SweepOutcome,
    SweepPoint,
};
pub use telemetry::{
    DeadlockReport, ProbeConfig, RingEvent, RingEventKind, TelemetryReport, TelemetrySummary,
    WaitPoint, WaitSide,
};
pub use trace::{
    flight_sampled, sweep_metrics, EngineTrace, FlightEvent, FlightEventKind, HarnessSpan,
    HotCounters, Metric, MetricValue, MetricsRegistry, PacketFlight, PhaseSpan, PointTrace,
    SimPhase, SpanProfiler, TraceConfig,
};

#[cfg(test)]
mod tests {
    use super::*;
    use d2net_routing::{Algorithm, IntermediateSet, RoutePolicy, VcScheme};
    use d2net_topo::{
        fat_tree2, hyperx2_balanced, mlfm, oft, slim_fly, Network, SlimFlyP, TopologyKind,
    };
    use d2net_traffic::{all_to_all, worst_case, SyntheticPattern};

    /// Two routers, one node each, one link: the smallest network with a
    /// fully analyzable end-to-end latency.
    fn two_routers() -> Network {
        Network::from_parts(
            TopologyKind::Custom {
                label: "pair".into(),
            },
            vec![vec![1], vec![0]],
            vec![1, 1],
        )
    }

    #[test]
    fn single_hop_latency_is_analytic() {
        // node-ser + link + switch + ser + link + switch + ser + link
        // = 3·20480 + 3·50000 + 2·100000 = 411440 ps at the defaults.
        let net = two_routers();
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let pattern = SyntheticPattern::Permutation(vec![1, 0]);
        let stats = run_synthetic(
            &net,
            &policy,
            &pattern,
            0.01, // one packet every 2048 ns: zero queueing
            200_000,
            20_000,
            SimConfig::default(),
        );
        assert!(!stats.deadlocked);
        assert!(stats.delivered_packets > 50);
        assert!(
            (stats.avg_delay_ns - 411.44).abs() < 0.5,
            "expected ≈411.44 ns, got {}",
            stats.avg_delay_ns
        );
    }

    #[test]
    fn two_hop_latency_adds_one_stage() {
        // A distance-2 pair adds one switch traversal, one serialization
        // and one link: 411440 + 170480 = 581920 ps. Drive a single
        // distance-2 node pair (everything else "sends to itself" via a
        // router-local turnaround) and read the max delay.
        let net = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let r1 = (1..net.num_routers())
            .find(|&r| !net.are_adjacent(0, r))
            .unwrap();
        let mut perm: Vec<u32> = (0..net.num_nodes()).collect();
        let a = net.router_nodes(0).start;
        let b = net.router_nodes(r1).start;
        perm.swap(a as usize, b as usize);
        let pattern = SyntheticPattern::Permutation(perm);
        let stats = run_synthetic(
            &net,
            &policy,
            &pattern,
            0.005,
            400_000,
            40_000,
            SimConfig::default(),
        );
        assert!(!stats.deadlocked);
        assert!(
            (stats.max_delay_ns as f64 - 581.92).abs() < 1.0,
            "expected ≈581.92 ns max, got {}",
            stats.max_delay_ns
        );
    }

    #[test]
    fn uniform_low_load_throughput_tracks_offered() {
        let net = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let stats = run_synthetic(
            &net,
            &policy,
            &SyntheticPattern::Uniform,
            0.3,
            100_000,
            20_000,
            SimConfig::default(),
        );
        assert!(!stats.deadlocked);
        assert!(
            (stats.throughput - 0.3).abs() < 0.02,
            "accepted {} at offered 0.3",
            stats.throughput
        );
    }

    #[test]
    fn mlfm_worst_case_saturates_at_one_over_h() {
        let net = mlfm(4);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let pattern = worst_case(&net);
        let stats = run_synthetic(
            &net,
            &policy,
            &pattern,
            1.0,
            150_000,
            30_000,
            SimConfig::default(),
        );
        assert!(!stats.deadlocked);
        assert!(
            (stats.throughput - 0.25).abs() < 0.03,
            "h = 4 worst case must cap at 1/h = 0.25, got {}",
            stats.throughput
        );
    }

    #[test]
    fn oft_worst_case_saturates_at_one_over_k() {
        let net = oft(4);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let pattern = worst_case(&net);
        let stats = run_synthetic(
            &net,
            &policy,
            &pattern,
            1.0,
            150_000,
            30_000,
            SimConfig::default(),
        );
        assert!(!stats.deadlocked);
        assert!(
            (stats.throughput - 0.25).abs() < 0.03,
            "k = 4 worst case must cap at 1/k = 0.25, got {}",
            stats.throughput
        );
    }

    #[test]
    fn valiant_halves_uniform_capacity() {
        let net = mlfm(4);
        let min_p = RoutePolicy::new(&net, Algorithm::Minimal);
        let inr_p = RoutePolicy::new(&net, Algorithm::Valiant);
        let cfg = SimConfig::default();
        let min = run_synthetic(&net, &min_p, &SyntheticPattern::Uniform, 1.0, 100_000, 20_000, cfg);
        let inr = run_synthetic(&net, &inr_p, &SyntheticPattern::Uniform, 1.0, 100_000, 20_000, cfg);
        assert!(!min.deadlocked && !inr.deadlocked);
        assert!(min.throughput > 0.9, "MIN uniform ≈ full bw, got {}", min.throughput);
        assert!(
            (inr.throughput - 0.5).abs() < 0.08,
            "INR uniform ≈ half bw, got {}",
            inr.throughput
        );
        // All but the router-local (same source router) packets go indirect.
        assert!(inr.indirect_packets as f64 > 0.9 * inr.delivered_packets as f64);
    }

    #[test]
    fn valiant_rescues_worst_case() {
        let net = mlfm(4);
        let pattern = worst_case(&net);
        let cfg = SimConfig::default();
        let min_p = RoutePolicy::new(&net, Algorithm::Minimal);
        let inr_p = RoutePolicy::new(&net, Algorithm::Valiant);
        let min = run_synthetic(&net, &min_p, &pattern, 1.0, 100_000, 20_000, cfg);
        let inr = run_synthetic(&net, &inr_p, &pattern, 1.0, 100_000, 20_000, cfg);
        // §4.3.1: INR lifts WC throughput from 1/h toward ~0.5.
        assert!(min.throughput < 0.3);
        assert!(
            inr.throughput > 1.5 * min.throughput,
            "INR {} vs MIN {}",
            inr.throughput,
            min.throughput
        );
    }

    #[test]
    fn ugal_matches_min_on_uniform_and_helps_worst_case() {
        let net = mlfm(4);
        let cfg = SimConfig::default();
        let ugal = RoutePolicy::new(
            &net,
            Algorithm::Ugal {
                n_i: 4,
                c: 2.0,
                threshold: None,
            },
        );
        let uni = run_synthetic(&net, &ugal, &SyntheticPattern::Uniform, 0.8, 100_000, 20_000, cfg);
        assert!(!uni.deadlocked);
        assert!(
            uni.throughput > 0.75,
            "UGAL uniform at 0.8 load: {}",
            uni.throughput
        );
        let wc = run_synthetic(&net, &ugal, &worst_case(&net), 0.4, 100_000, 20_000, cfg);
        assert!(!wc.deadlocked);
        assert!(
            wc.throughput > 0.3,
            "UGAL worst-case at 0.4 load: {}",
            wc.throughput
        );
    }

    #[test]
    fn broken_single_vc_wedges_or_collapses() {
        // Ablation §3.4: indirect routing with one VC admits CDG cycles.
        // Under pressure with tiny buffers the simulator must either wedge
        // outright or collapse far below the 2-VC throughput.
        let net = mlfm(4);
        let cfg = SimConfig {
            buffer_bytes: 1024,
            ..Default::default()
        };
        let good = RoutePolicy::new(&net, Algorithm::Valiant);
        let bad = RoutePolicy::with_overrides(
            &net,
            Algorithm::Valiant,
            VcScheme::SingleVc,
            IntermediateSet::EndpointRouters,
            false,
        );
        let pattern = worst_case(&net);
        let g = run_synthetic(&net, &good, &pattern, 1.0, 150_000, 30_000, cfg);
        let b = run_synthetic(&net, &bad, &pattern, 1.0, 150_000, 30_000, cfg);
        assert!(!g.deadlocked, "2-VC run must stay live");
        assert!(
            b.deadlocked || b.throughput < 0.5 * g.throughput,
            "single-VC indirect routing should wedge or collapse: good={} bad={} deadlocked={}",
            g.throughput,
            b.throughput,
            b.deadlocked
        );
    }

    #[test]
    fn ugal_g_handles_worst_case_at_least_as_well() {
        // The idealized global variant should not underperform local UGAL
        // on the adversarial pattern.
        let net = mlfm(4);
        let cfg = SimConfig::default();
        let wc = worst_case(&net);
        let local = RoutePolicy::new(
            &net,
            Algorithm::Ugal {
                n_i: 4,
                c: 2.0,
                threshold: None,
            },
        );
        let global = RoutePolicy::new(&net, Algorithm::UgalG { n_i: 4, c: 2.0 });
        let l = run_synthetic(&net, &local, &wc, 1.0, 100_000, 20_000, cfg);
        let g = run_synthetic(&net, &global, &wc, 1.0, 100_000, 20_000, cfg);
        assert!(!l.deadlocked && !g.deadlocked);
        assert!(
            g.throughput > 0.8 * l.throughput,
            "UGAL-G {} should be competitive with UGAL-L {}",
            g.throughput,
            l.throughput
        );
    }

    #[test]
    fn a2a_exchange_completes_and_is_fast() {
        let net = fat_tree2(4);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let ex = all_to_all(net.num_nodes(), 1024);
        let stats = run_exchange(&net, &policy, &ex, 1, SimConfig::default());
        assert!(!stats.deadlocked);
        assert_eq!(stats.delivered_bytes, ex.total_bytes());
        assert!(stats.effective_throughput > 0.4, "{}", stats.effective_throughput);
    }

    #[test]
    fn exchange_on_oft_with_adaptive_routing() {
        let net = oft(3);
        let policy = RoutePolicy::new(
            &net,
            Algorithm::Ugal {
                n_i: 1,
                c: 2.0,
                threshold: Some(0.1),
            },
        );
        let ex = all_to_all(net.num_nodes(), 512);
        let stats = run_exchange(&net, &policy, &ex, 1, SimConfig::default());
        assert!(!stats.deadlocked);
        assert_eq!(stats.delivered_bytes, ex.total_bytes());
    }

    #[test]
    fn worst_case_bottleneck_link_runs_hot() {
        // Under the MLFM worst case the single-path bottleneck links are
        // the limiting resource: the busiest link must run near 100%.
        let net = mlfm(4);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let stats = run_synthetic(
            &net,
            &policy,
            &worst_case(&net),
            1.0,
            100_000,
            20_000,
            SimConfig::default(),
        );
        assert!(
            stats.max_link_utilization > 0.95,
            "bottleneck link utilization {}",
            stats.max_link_utilization
        );
        // While accepted throughput is capped at 1/h.
        assert!(stats.throughput < 0.3);
    }

    #[test]
    fn poisson_arrivals_raise_delay_at_equal_load() {
        let net = oft(3);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let base = SimConfig::default();
        let det = run_synthetic(&net, &policy, &SyntheticPattern::Uniform, 0.7, 60_000, 12_000, base);
        let exp = run_synthetic(
            &net,
            &policy,
            &SyntheticPattern::Uniform,
            0.7,
            60_000,
            12_000,
            SimConfig {
                arrival: config::Arrival::Exponential,
                ..base
            },
        );
        assert!(!det.deadlocked && !exp.deadlocked);
        // Same accepted load...
        assert!((det.throughput - exp.throughput).abs() < 0.03);
        // ...but the burstier process queues longer.
        assert!(
            exp.avg_delay_ns > det.avg_delay_ns,
            "Poisson {} vs deterministic {}",
            exp.avg_delay_ns,
            det.avg_delay_ns
        );
    }

    #[test]
    fn hop_counts_match_routing_mode() {
        let net = mlfm(4);
        let cfg = SimConfig::default();
        let min_p = RoutePolicy::new(&net, Algorithm::Minimal);
        let inr_p = RoutePolicy::new(&net, Algorithm::Valiant);
        let min = run_synthetic(&net, &min_p, &SyntheticPattern::Uniform, 0.3, 40_000, 8_000, cfg);
        let inr = run_synthetic(&net, &inr_p, &SyntheticPattern::Uniform, 0.3, 40_000, 8_000, cfg);
        // Minimal: nearly all routes are 2 hops (a few same-router zeros).
        assert!((1.6..=2.0).contains(&min.avg_hops), "MIN hops {}", min.avg_hops);
        // Valiant on an SSPT: 4 hops for all inter-router traffic.
        assert!((3.4..=4.0).contains(&inr.avg_hops), "INR hops {}", inr.avg_hops);
        // p99 sits above the mean and below the max.
        assert!(min.p99_delay_ns as f64 >= min.avg_delay_ns * 0.5);
        assert!(min.p99_delay_ns <= min.max_delay_ns * 4);
    }

    #[test]
    fn ejection_bottleneck_caps_hotspot_throughput() {
        // Three routers in a line network: nodes on routers 0 and 2 both
        // send everything to the single node on router 1. The ejection
        // link serializes, so each sender gets at most ~half bandwidth.
        let net = Network::from_parts(
            TopologyKind::Custom {
                label: "hotspot".into(),
            },
            vec![vec![1], vec![0, 2], vec![1]],
            vec![1, 1, 1],
        );
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        // Node ids: 0 on router 0, 1 on router 1, 2 on router 2.
        let pattern = SyntheticPattern::Permutation(vec![1, 2, 1]);
        let stats = run_synthetic(
            &net,
            &policy,
            &pattern,
            1.0,
            100_000,
            20_000,
            SimConfig::default(),
        );
        assert!(!stats.deadlocked);
        // Aggregate accepted: node 1 receives at link rate (1.0) and node
        // 2 receives node 1's flow at full rate: (1.0 + 1.0)/3 ≈ 0.667.
        assert!(
            (stats.throughput - 2.0 / 3.0).abs() < 0.05,
            "hotspot aggregate should be ~0.667, got {}",
            stats.throughput
        );
    }

    #[test]
    fn delay_rises_with_load() {
        let net = oft(3);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let cfg = SimConfig::default();
        let lo = run_synthetic(&net, &policy, &SyntheticPattern::Uniform, 0.1, 60_000, 12_000, cfg);
        let hi = run_synthetic(&net, &policy, &SyntheticPattern::Uniform, 0.9, 60_000, 12_000, cfg);
        assert!(
            hi.avg_delay_ns > lo.avg_delay_ns,
            "queueing delay must grow with load: {} vs {}",
            lo.avg_delay_ns,
            hi.avg_delay_ns
        );
        // At 10% load, delay is close to the zero-load path latency
        // (≈580-590 ns for a diameter-2 route plus some router-local
        // deliveries).
        assert!(lo.avg_delay_ns < 800.0, "low-load delay {}", lo.avg_delay_ns);
    }

    #[test]
    fn empty_exchange_finishes_instantly() {
        let net = oft(3);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let ex = d2net_traffic::Exchange {
            sends: vec![Vec::new(); net.num_nodes() as usize],
            label: "empty".into(),
        };
        let stats = run_exchange(&net, &policy, &ex, 1, SimConfig::default());
        assert!(!stats.deadlocked);
        assert_eq!(stats.delivered_bytes, 0);
        assert_eq!(stats.completion_ns, 0);
    }

    #[test]
    fn tiny_buffers_still_make_progress() {
        // One packet per VC buffer: maximum backpressure, but the paper's
        // VC scheme must still deliver (just slowly).
        let net = mlfm(3);
        let policy = RoutePolicy::new(&net, Algorithm::Valiant);
        let cfg = SimConfig {
            buffer_bytes: 512, // 256 per VC = exactly one packet
            ..Default::default()
        };
        let stats = run_synthetic(
            &net,
            &policy,
            &SyntheticPattern::Uniform,
            0.5,
            80_000,
            16_000,
            cfg,
        );
        assert!(!stats.deadlocked, "paper VC scheme must stay live");
        assert!(stats.delivered_packets > 100);
    }

    #[test]
    fn hyperx_simulates_with_generic_scheme() {
        // HyperX uses the hop-indexed fallback VC scheme; make sure the
        // whole pipeline holds together for the baseline topology too.
        let net = hyperx2_balanced(9);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let stats = run_synthetic(
            &net,
            &policy,
            &SyntheticPattern::Uniform,
            0.8,
            60_000,
            12_000,
            SimConfig::default(),
        );
        assert!(!stats.deadlocked);
        assert!(stats.throughput > 0.7, "{}", stats.throughput);
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let net = mlfm(3);
        let policy = RoutePolicy::new(&net, Algorithm::Valiant);
        let cfg = SimConfig::default();
        let a = run_synthetic(&net, &policy, &SyntheticPattern::Uniform, 0.5, 60_000, 10_000, cfg);
        let b = run_synthetic(&net, &policy, &SyntheticPattern::Uniform, 0.5, 60_000, 10_000, cfg);
        assert_eq!(a, b);
        let c = run_synthetic(
            &net,
            &policy,
            &SyntheticPattern::Uniform,
            0.5,
            60_000,
            10_000,
            SimConfig { seed: 99, ..cfg },
        );
        assert_ne!(a.delivered_packets, 0);
        assert_ne!(a, c, "different seeds should perturb the run");
    }

    #[test]
    fn throughput_never_exceeds_offered_or_unity() {
        let net = oft(3);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        for load in [0.2, 0.6, 1.0] {
            let s = run_synthetic(
                &net,
                &policy,
                &SyntheticPattern::Uniform,
                load,
                80_000,
                16_000,
                SimConfig::default(),
            );
            assert!(s.throughput <= load + 0.02, "load={load}: {}", s.throughput);
            assert!(s.throughput <= 1.0 + 1e-9);
            assert!(s.throughput > 0.0);
        }
    }

    // ----- mid-run faults (drain-or-drop, DESIGN.md §10) -------------

    #[test]
    fn empty_fault_schedule_matches_unfaulted_run() {
        let net = mlfm(3);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let cfg = SimConfig::default();
        let plain = run_synthetic(&net, &policy, &SyntheticPattern::Uniform, 0.4, 60_000, 10_000, cfg);
        let faulted = run(
            &net,
            &policy,
            &Synthetic::new(&SyntheticPattern::Uniform, 0.4, 60_000, 10_000)
                .with_faults(&FaultSchedule::new()),
            cfg,
            Observers::default(),
        )
        .map(|r| r.stats)
        .expect("empty schedule is a valid run");
        assert_eq!(plain, faulted, "no faults must mean a byte-identical run");
        assert_eq!(faulted.dropped_packets, 0);
        assert_eq!(faulted.retried_packets, 0);
    }

    #[test]
    fn midrun_link_failure_degrades_gracefully() {
        // Fail one link of a Slim Fly a third of the way into the run:
        // the repaired (hop-indexed) policy takes over for new traffic
        // and the run finishes without wedging.
        let net = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let cfg = SimConfig::default();
        let mut fs = d2net_topo::FaultSet::new();
        fs.fail_link(0, net.neighbors(0)[0]);
        let schedule = FaultSchedule::new().at(20_000, fs);
        let stats = run(
            &net,
            &policy,
            &Synthetic::new(&SyntheticPattern::Uniform, 0.4, 60_000, 10_000).with_faults(&schedule),
            cfg,
            Observers::default(),
        )
        .map(|r| r.stats)
        .expect("degraded slim fly remains simulable");
        assert!(!stats.deadlocked, "one failed link must not wedge the run");
        assert!(stats.delivered_packets > 100);
    }

    #[test]
    fn partitioning_the_only_link_drops_traffic_without_wedging() {
        // The pair network has exactly one link; killing it mid-run
        // strands cross traffic. Drops (in-flight drain-or-drop plus
        // source-side retry exhaustion) must account for every stranded
        // packet, so the run ends cleanly instead of wedging.
        let net = two_routers();
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let cfg = SimConfig::default();
        let mut fs = d2net_topo::FaultSet::new();
        fs.fail_link(0, 1);
        let schedule = FaultSchedule::new().at(40_000, fs);
        let stats = run(
            &net,
            &policy,
            &Synthetic::new(
                &SyntheticPattern::Permutation(vec![1, 0]),
                0.5,
                160_000,
                8_000,
            )
            .with_faults(&schedule),
            cfg,
            Observers::default(),
        )
        .map(|r| r.stats)
        .expect("a partitioned pair still simulates");
        assert!(
            !stats.deadlocked,
            "accounted drops must keep a partition from reading as deadlock"
        );
        assert!(stats.delivered_packets > 0, "pre-fault traffic delivered");
        assert!(
            stats.dropped_packets > 0,
            "post-fault traffic must be dropped, not lost silently"
        );
    }

    #[test]
    fn faulted_probe_records_link_down_events() {
        let net = two_routers();
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let cfg = SimConfig::default();
        let mut fs = d2net_topo::FaultSet::new();
        fs.fail_link(0, 1);
        let schedule = FaultSchedule::new().at(30_000, fs);
        let (stats, report) = run(
            &net,
            &policy,
            &Synthetic::new(
                &SyntheticPattern::Permutation(vec![1, 0]),
                0.5,
                120_000,
                8_000,
            )
            .with_faults(&schedule),
            cfg,
            Observers::probed(ProbeConfig::default()),
        )
        .map(|r| (r.stats, r.telemetry.expect("probe was attached")))
        .expect("probed faulted run");
        assert!(stats.dropped_packets > 0);
        let downs: usize = report
            .rings
            .iter()
            .flat_map(|ring| ring.iter())
            .filter(|e| matches!(e.kind, RingEventKind::LinkDown { .. }))
            .count();
        assert_eq!(downs, 2, "one LinkDown per endpoint router");
    }

    #[test]
    fn router_failure_orphans_its_destinations() {
        // Killing a router mid-run makes every destination behind it
        // unroutable: sources park, back off, and eventually drop those
        // packets at the source.
        let net = mlfm(3);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let cfg = SimConfig::default();
        let victim = net.endpoint_routers()[0];
        let mut fs = d2net_topo::FaultSet::new();
        fs.fail_router(victim);
        let schedule = FaultSchedule::new().at(20_000, fs);
        let stats = run(
            &net,
            &policy,
            &Synthetic::new(&SyntheticPattern::Uniform, 0.3, 120_000, 10_000)
                .with_faults(&schedule),
            cfg,
            Observers::default(),
        )
        .map(|r| r.stats)
        .expect("degraded mlfm remains simulable");
        assert!(!stats.deadlocked);
        assert!(stats.dropped_packets > 0, "orphaned traffic must be dropped");
    }

    #[test]
    fn fault_schedule_with_nonsense_ids_is_harmless() {
        let net = mlfm(3);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let cfg = SimConfig::default();
        let mut fs = d2net_topo::FaultSet::new();
        fs.fail_link(10_000, 10_001); // out of range
        fs.fail_link(0, 1); // not necessarily adjacent
        let schedule = FaultSchedule::new().at(20_000, fs);
        let stats = run(
            &net,
            &policy,
            &Synthetic::new(&SyntheticPattern::Uniform, 0.3, 60_000, 10_000).with_faults(&schedule),
            cfg,
            Observers::default(),
        )
        .map(|r| r.stats)
        .expect("invalid fault ids are filtered, not fatal");
        assert!(!stats.deadlocked);
    }

    #[test]
    fn retry_injects_after_policy_recovery_event() {
        use crate::engine::synthetic_sources;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let net = mlfm(3);
        let full = RoutePolicy::new(&net, Algorithm::Minimal);
        // A policy repaired around a *virtually* failed router: valid on
        // the real network, but blind to the victim's destinations.
        let victim = net.endpoint_routers()[0];
        let mut fs = d2net_topo::FaultSet::new();
        fs.fail_router(victim);
        let blind = RoutePolicy::repair(&net.degrade(&fs), Algorithm::Minimal);
        assert!(blind.tables().unreachable_pairs() > 0);

        let cfg = SimConfig::default();
        let end_ps = 120_000 * 1_000u64;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let sources =
            synthetic_sources(&net, &SyntheticPattern::Uniform, 0.3, end_ps, &cfg, &mut rng);
        // No ports die. At 20µs injections go blind — traffic toward the
        // victim parks for retry, because the 40µs event can still route
        // it. After 40µs the parked packets inject on retry.
        let events = vec![
            EngineFault {
                t_ps: 20_000_000,
                faults: d2net_topo::FaultSet::new(),
                policy: &blind,
            },
            EngineFault {
                t_ps: 40_000_000,
                faults: d2net_topo::FaultSet::new(),
                policy: &full,
            },
        ];
        let mut engine =
            Engine::try_new_faulted(&net, &full, cfg, sources, 10_000_000, rng, events)
                .expect("recovery schedule builds");
        let (stats, _) = engine.run_synthetic_to(0.3, end_ps);
        assert!(!stats.deadlocked);
        assert!(
            stats.retried_packets > 0,
            "packets parked during the blind window must inject after recovery"
        );
        assert!(stats.delivered_packets > 0);
    }

    #[test]
    fn statically_severed_destinations_drop_without_stalling_sources() {
        // A permanently orphaned router (no recovery pending) must not
        // head-of-line-block healthy traffic: drops are immediate and
        // the rest of the network keeps its throughput.
        let net = mlfm(3);
        let victim = net.endpoint_routers()[0];
        let mut fs = d2net_topo::FaultSet::new();
        fs.fail_router(victim);
        let degraded = net.degrade(&fs);
        let policy = RoutePolicy::repair(&degraded, Algorithm::Minimal);
        let stats = run_synthetic(
            &degraded,
            &policy,
            &SyntheticPattern::Uniform,
            0.4,
            60_000,
            10_000,
            SimConfig::default(),
        );
        assert!(!stats.deadlocked);
        assert!(stats.dropped_packets > 0, "severed traffic is dropped, counted");
        assert_eq!(stats.retried_packets, 0, "no pending recovery, no parking");
        assert!(
            stats.throughput > 0.2,
            "healthy pairs must keep most of the offered load, got {}",
            stats.throughput
        );
    }

    #[test]
    fn rejected_config_sweep_returns_stubs_and_notice_serial_and_parallel() {
        // An undersized buffer cannot hold a single packet per VC; both
        // sweep harnesses must surface that as a notice plus stub points
        // (identical shape), not a process abort.
        let net = two_routers();
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let cfg = SimConfig {
            buffer_bytes: 10,
            ..SimConfig::default()
        };
        let loads = [0.2, 0.4];
        let obs = Observers::default();
        let pattern = SyntheticPattern::Uniform;
        let serial = sweep(&net, &policy, &pattern, &loads, 30_000, 6_000, cfg, obs, 1);
        assert_eq!(serial.notices.len(), 1);
        assert!(
            serial.notices[0].message.contains("rejected"),
            "{}",
            serial.notices[0].message
        );
        assert!(serial
            .points
            .iter()
            .all(|p| p.stats.deadlocked && p.stats.delivered_packets == 0));
        let parallel = sweep(&net, &policy, &pattern, &loads, 30_000, 6_000, cfg, obs, 2);
        assert_eq!(serial, parallel, "rejection shape must match serial");
    }
}
