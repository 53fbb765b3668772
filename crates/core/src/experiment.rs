//! Experiment drivers — one function per table/figure of the paper's
//! evaluation. Each returns plain data rows; rendering lives in
//! [`crate::report`] and the `paper_figures` example.

use crate::configs::RunParams;
use d2net_analysis::{bisection, scale_table, ScaleRow};
use d2net_routing::{Algorithm, RoutePolicy};
use d2net_sim::{
    par_curves, plan_shards, resolve_threads, run_exchange, sweep, ExchangeStats, LedgerConfig,
    Observers, PointLedger, PointTrace, SweepNotice, SweepPoint, TraceConfig,
};
use d2net_topo::{mlfm, oft, slim_fly, Network, SlimFlyP, TopologyKind};
use d2net_traffic::{
    all_to_all_shuffled, nearest_neighbor, torus_dims_for, worst_case, SyntheticPattern,
};

/// Synthetic traffic selector for the §4.3 experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Global uniform random (UNI).
    Uniform,
    /// Per-topology adversarial permutation (WC, §4.2).
    WorstCase,
}

impl Traffic {
    pub fn pattern(&self, net: &Network) -> SyntheticPattern {
        match self {
            Traffic::Uniform => SyntheticPattern::Uniform,
            Traffic::WorstCase => worst_case(net),
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            Traffic::Uniform => "UNI",
            Traffic::WorstCase => "WC",
        }
    }
}

/// A labelled throughput/delay curve over offered load.
#[derive(Debug, Clone)]
pub struct Curve {
    pub label: String,
    pub points: Vec<SweepPoint>,
}

/// Curves plus the structured notices their sweeps raised — what the
/// figure drivers return so callers can route notices into a
/// [`crate::report::RunManifest`] instead of stderr.
#[derive(Debug, Clone)]
pub struct CurveSet {
    pub curves: Vec<Curve>,
    pub notices: Vec<SweepNotice>,
}

/// Fans labelled sweep jobs across `threads` workers (`0` = auto) and
/// reassembles them in job order; one thread is the serial driver.
/// Each job builds its policy, runs one whole curve on one worker and
/// drops the policy, so a serial run holds one route table at a time.
/// The budget is divided by the largest shard count any network's
/// points use, planned on its minimal policy (no other algorithm the
/// drivers run shards more). Per-point seeds make the result identical
/// at every thread count.
fn curves_in_parallel(
    jobs: Vec<(String, &Network, Algorithm, SyntheticPattern)>,
    params: &RunParams,
    threads: usize,
) -> CurveSet {
    // The drivers queue each network's jobs together.
    let mut nets: Vec<&Network> = jobs.iter().map(|&(_, net, _, _)| net).collect();
    nets.dedup_by(|a, b| std::ptr::eq(*a, *b));
    let shards = nets
        .iter()
        .map(|net| plan_shards(net, &RoutePolicy::new(net, Algorithm::Minimal), &params.sim))
        .max()
        .unwrap_or(1);
    let tasks: Vec<_> = jobs
        .into_iter()
        .map(|(label, net, algo, pattern)| {
            move || {
                let policy = RoutePolicy::new(net, algo);
                let out = sweep(
                    net,
                    &policy,
                    &pattern,
                    &params.loads,
                    params.duration_ns,
                    params.warmup_ns,
                    params.sim,
                    Observers::default(),
                    1,
                );
                (
                    Curve {
                        label,
                        points: out.points,
                    },
                    out.notices,
                )
            }
        })
        .collect();
    let mut curves = Vec::new();
    let mut notices = Vec::new();
    for (curve, mut n) in par_curves(tasks, (resolve_threads(threads) / shards).max(1)) {
        for notice in &mut n {
            notice.message = format!("{}: {}", curve.label, notice.message);
        }
        notices.append(&mut n);
        curves.push(curve);
    }
    CurveSet { curves, notices }
}

/// A traced sweep's curve, per-point engine traces, and notices — what
/// the `d2net-trace` CLI (and any traced campaign) hands to
/// [`crate::trace_export::chrome_trace_json`] and
/// [`crate::report::TraceManifest`].
#[derive(Debug, Clone)]
pub struct TracedCurve {
    pub curve: Curve,
    pub traces: Vec<PointTrace>,
    pub notices: Vec<SweepNotice>,
}

/// Runs one traced load sweep on `threads` workers. The traces are
/// byte-identical at every thread count (the pool merges them by point
/// index), which `tests/trace.rs` pins down.
#[allow(clippy::too_many_arguments)]
pub fn traced_curve(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    label: impl Into<String>,
    params: &RunParams,
    trace: TraceConfig,
    threads: usize,
) -> TracedCurve {
    let out = sweep(
        net,
        policy,
        pattern,
        &params.loads,
        params.duration_ns,
        params.warmup_ns,
        params.sim,
        Observers::traced(trace),
        threads,
    );
    TracedCurve {
        curve: Curve {
            label: label.into(),
            points: out.points,
        },
        traces: out.traces,
        notices: out.notices,
    }
}

/// A ledgered sweep's curve, per-point decision ledgers, and notices —
/// what the `d2net-decisions` CLI (and any forensic campaign) hands to
/// [`crate::report::DecisionsManifest`] and
/// [`crate::trace_export::chrome_trace_json_ledgered`].
#[derive(Debug, Clone)]
pub struct LedgeredCurve {
    pub curve: Curve,
    pub ledgers: Vec<PointLedger>,
    pub notices: Vec<SweepNotice>,
}

/// Runs one decision-ledgered load sweep on `threads` workers. The
/// ledgers are byte-identical at every thread count (the pool merges
/// them by point index), which `tests/decisions.rs` pins down.
#[allow(clippy::too_many_arguments)]
pub fn ledgered_curve(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    label: impl Into<String>,
    params: &RunParams,
    ledger: LedgerConfig,
    threads: usize,
) -> LedgeredCurve {
    let out = sweep(
        net,
        policy,
        pattern,
        &params.loads,
        params.duration_ns,
        params.warmup_ns,
        params.sim,
        Observers::ledgered(ledger),
        threads,
    );
    LedgeredCurve {
        curve: Curve {
            label: label.into(),
            points: out.points,
        },
        ledgers: out.ledgers,
        notices: out.notices,
    }
}

/// **Table 2**: the 4-ML3B tabular representation.
pub fn table2() -> Vec<Vec<u64>> {
    d2net_topo::ml3b(4)
}

/// **Fig. 3**: end-node scale vs router radix for six topologies.
pub fn fig3(radixes: &[u64]) -> Vec<ScaleRow> {
    scale_table(radixes)
}

/// **Fig. 4**: approximate per-node bisection bandwidth over a range of
/// network sizes for each evaluated family. Returns
/// `(family, N, per_node_bisection)` rows.
pub fn fig4(restarts: usize) -> Vec<(String, u32, f64)> {
    let mut out = Vec::new();
    let instances: Vec<Network> = vec![
        slim_fly(5, SlimFlyP::Floor),
        slim_fly(9, SlimFlyP::Floor),
        slim_fly(13, SlimFlyP::Floor),
        slim_fly(5, SlimFlyP::Ceil),
        slim_fly(9, SlimFlyP::Ceil),
        slim_fly(13, SlimFlyP::Ceil),
        mlfm(5),
        mlfm(9),
        mlfm(15),
        oft(4),
        oft(8),
        oft(12),
    ];
    for net in instances {
        let b = bisection(&net, restarts, 0xF164);
        let family = match net.kind() {
            TopologyKind::SlimFly(p) if p.p as u64 == p.network_radix as u64 / 2 => "SF(p=floor)",
            TopologyKind::SlimFly(_) => "SF(p=ceil)",
            TopologyKind::Mlfm(_) => "MLFM",
            TopologyKind::Oft(_) => "OFT",
            _ => "other",
        };
        out.push((family.to_string(), net.num_nodes(), b.per_node));
    }
    out
}

/// **Fig. 6**: throughput vs offered load under oblivious routing (MIN
/// and INR) for each evaluation topology, under `traffic`, with the
/// curves fanned across `threads` workers (`0` = auto, `1` = serial).
pub fn fig6(nets: &[Network], traffic: Traffic, params: &RunParams, threads: usize) -> CurveSet {
    let mut jobs = Vec::new();
    for net in nets {
        let pattern = traffic.pattern(net);
        for (algo, tag) in [(Algorithm::Minimal, "MIN"), (Algorithm::Valiant, "INR")] {
            jobs.push((
                format!("{} {} {}", net.name(), tag, traffic.label()),
                net,
                algo,
                pattern.clone(),
            ));
        }
    }
    curves_in_parallel(jobs, params, threads)
}

/// Generic driver behind **Figs. 7–12**: sweeps a UGAL parameter on one
/// topology under both UNI and WC traffic, with the curves fanned
/// across `threads` workers (`0` = auto, `1` = serial). `variants` are
/// `(label, n_i, c, threshold)` tuples.
pub fn adaptive_sweep(
    net: &Network,
    variants: &[(String, usize, f64, Option<f64>)],
    params: &RunParams,
    threads: usize,
) -> CurveSet {
    let mut jobs = Vec::new();
    for traffic in [Traffic::Uniform, Traffic::WorstCase] {
        let pattern = traffic.pattern(net);
        for (label, n_i, c, threshold) in variants {
            jobs.push((
                format!("{} {} {}", net.name(), label, traffic.label()),
                net,
                Algorithm::Ugal {
                    n_i: *n_i,
                    c: *c,
                    threshold: *threshold,
                },
                pattern.clone(),
            ));
        }
    }
    curves_in_parallel(jobs, params, threads)
}

/// The `(label, n_i, c, threshold)` variant grids of Figs. 7–12.
/// `fig` ∈ {7, 8, 9, 10, 11, 12}; panel `a` varies `n_i`, `b` varies `c`.
pub fn adaptive_variants(fig: u8, panel: char) -> Vec<(String, usize, f64, Option<f64>)> {
    let th = |fig: u8| -> Option<f64> {
        // Even figures (8, 11, 12) are the thresholded variants, T = 10 %.
        if fig == 8 || fig == 11 || fig == 12 {
            Some(0.10)
        } else {
            None
        }
    };
    let t = th(fig);
    match (fig, panel) {
        // SF-A / SF-ATh: (a) nI ∈ {1,2,4,8}, cSF = 1; (b) cSF ∈ {0.5,1,2,4}, nI = 4.
        (7 | 8, 'a') => [1usize, 2, 4, 8]
            .iter()
            .map(|&n| (format!("nI={n},c=1"), n, 1.0, t))
            .collect(),
        (7 | 8, 'b') => [0.5, 1.0, 2.0, 4.0]
            .iter()
            .map(|&c| (format!("nI=4,c={c}"), 4, c, t))
            .collect(),
        // MLFM-A / MLFM-ATh: (a) nI varies (c = 2); (b) c varies (nI = 5).
        (9 | 11, 'a') => [1usize, 2, 5, 10]
            .iter()
            .map(|&n| (format!("nI={n},c=2"), n, 2.0, t))
            .collect(),
        (9 | 11, 'b') => [0.5, 1.0, 2.0, 4.0]
            .iter()
            .map(|&c| (format!("nI=5,c={c}"), 5, c, t))
            .collect(),
        // OFT-A / OFT-ATh: (a) nI varies (c = 2); (b) c varies (nI = 1).
        (10 | 12, 'a') => [1usize, 2, 5, 10]
            .iter()
            .map(|&n| (format!("nI={n},c=2"), n, 2.0, t))
            .collect(),
        (10 | 12, 'b') => [0.5, 1.0, 2.0, 4.0]
            .iter()
            .map(|&c| (format!("nI=1,c={c}"), 1, c, t))
            .collect(),
        _ => panic!("unknown figure/panel {fig}{panel}"),
    }
}

/// The per-topology "best adaptive" configuration used for the exchange
/// comparisons (§4.4 compares MIN, INR and the best-performing adaptive
/// scheme per topology).
pub fn best_adaptive(net: &Network) -> (String, Algorithm) {
    match net.kind() {
        TopologyKind::SlimFly(_) => (
            "SF-A(nI=4,c=1)".into(),
            Algorithm::Ugal {
                n_i: 4,
                c: 1.0,
                threshold: None,
            },
        ),
        TopologyKind::Mlfm(_) => (
            "MLFM-A(nI=5,c=2)".into(),
            Algorithm::Ugal {
                n_i: 5,
                c: 2.0,
                threshold: None,
            },
        ),
        _ => (
            "OFT-A(nI=1,c=2)".into(),
            Algorithm::Ugal {
                n_i: 1,
                c: 2.0,
                threshold: None,
            },
        ),
    }
}

/// One bar of the Figs. 13/14 exchange comparison.
#[derive(Debug, Clone)]
pub struct ExchangeRow {
    pub topology: String,
    pub routing: String,
    pub stats: ExchangeStats,
}

/// **Fig. 13**: effective throughput of one all-to-all exchange
/// (`bytes_per_pair` = 7.5 KB in the paper) under MIN, INR and the best
/// adaptive scheme. Destination order is de-synchronized per node
/// (Kumar-style staging, §4.4).
pub fn fig13(nets: &[Network], bytes_per_pair: u64, params: &RunParams) -> Vec<ExchangeRow> {
    let mut out = Vec::new();
    for net in nets {
        let ex = all_to_all_shuffled(net.num_nodes(), bytes_per_pair, params.sim.seed);
        for (label, algo) in exchange_algos(net) {
            let policy = RoutePolicy::new(net, algo);
            let stats = run_exchange(net, &policy, &ex, 1, params.sim);
            out.push(ExchangeRow {
                topology: net.name(),
                routing: label,
                stats,
            });
        }
    }
    out
}

/// **Fig. 14**: effective throughput of one 3-D-torus nearest-neighbor
/// exchange (`bytes_per_pair` = 512 KB in the paper), contiguous mapping.
pub fn fig14(nets: &[Network], bytes_per_pair: u64, params: &RunParams) -> Vec<ExchangeRow> {
    let mut out = Vec::new();
    for net in nets {
        let dims = torus_dims_for(net);
        let mut ex = nearest_neighbor(dims, bytes_per_pair);
        // Ranks beyond the torus stay silent; pad the send lists up to N.
        ex.sends.resize(net.num_nodes() as usize, Vec::new());
        for (label, algo) in exchange_algos(net) {
            let policy = RoutePolicy::new(net, algo);
            let stats = run_exchange(net, &policy, &ex, 6, params.sim);
            out.push(ExchangeRow {
                topology: format!("{} {}x{}x{}", net.name(), dims[0], dims[1], dims[2]),
                routing: label,
                stats,
            });
        }
    }
    out
}

fn exchange_algos(net: &Network) -> Vec<(String, Algorithm)> {
    let (label, best) = best_adaptive(net);
    vec![
        ("MIN".into(), Algorithm::Minimal),
        ("INR".into(), Algorithm::Valiant),
        (label, best),
    ]
}

/// §2.3.3 path-diversity reproduction rows: `(description, mean, max)`.
pub fn diversity_report() -> Vec<(String, f64, u64)> {
    let sf = slim_fly(23, SlimFlyP::Floor);
    let d = d2net_analysis::non_adjacent_diversity(&sf);
    let m = d2net_analysis::endpoint_diversity(&mlfm(15));
    let o = d2net_analysis::endpoint_diversity(&oft(12));
    vec![
        ("SF q=23 non-adjacent router pairs".into(), d.mean, d.max),
        ("MLFM h=15 endpoint-router pairs".into(), m.mean, m.max),
        ("OFT k=12 endpoint-router pairs".into(), o.mean, o.max),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{eval_topologies, Scale};
    use d2net_sim::SimConfig;

    fn tiny_params() -> RunParams {
        RunParams {
            duration_ns: 30_000,
            warmup_ns: 6_000,
            loads: vec![0.2, 1.0],
            sim: SimConfig::default(),
        }
    }

    /// One run at full load over the 10 µs (2 µs warm-up) horizon of
    /// the short Fig. 6 pins; returns its accepted throughput.
    fn short_run(net: &Network, algo: Algorithm, pattern: &SyntheticPattern) -> f64 {
        let policy = RoutePolicy::new(net, algo);
        let stats = d2net_sim::run_synthetic(
            net,
            &policy,
            pattern,
            1.0,
            10_000,
            2_000,
            SimConfig::default(),
        );
        assert!(!stats.deadlocked, "{} under {algo:?}", net.name());
        stats.throughput
    }

    #[test]
    fn fig6_uniform_shape() {
        // MIN saturates near full bandwidth; INR near half (paper §4.3.1).
        let nets = vec![mlfm(4)];
        let curves = fig6(&nets, Traffic::Uniform, &tiny_params(), 1).curves;
        assert_eq!(curves.len(), 2);
        let min_full = curves[0].points.last().unwrap().stats.throughput;
        let inr_full = curves[1].points.last().unwrap().stats.throughput;
        assert!(min_full > 0.9, "MIN {min_full}");
        assert!((inr_full - 0.5).abs() < 0.1, "INR {inr_full}");
        // Already at the short horizon, MIN carries nearly full load.
        let min_uni = short_run(&nets[0], Algorithm::Minimal, &SyntheticPattern::Uniform);
        assert!(min_uni > 0.85, "MIN UNI {min_uni}");
    }

    #[test]
    fn fig6_worst_case_shape() {
        // MIN collapses to 1/h; INR recovers to ~0.4-0.5 (paper Fig. 6b).
        let nets = vec![mlfm(4)];
        let curves = fig6(&nets, Traffic::WorstCase, &tiny_params(), 1).curves;
        let min_full = curves[0].points.last().unwrap().stats.throughput;
        let inr_full = curves[1].points.last().unwrap().stats.throughput;
        assert!((min_full - 0.25).abs() < 0.05, "MIN WC {min_full}");
        assert!(inr_full > min_full, "INR {inr_full} vs MIN {min_full}");
        // The same shape at the short horizon.
        let wc = worst_case(&nets[0]);
        let min_wc = short_run(&nets[0], Algorithm::Minimal, &wc);
        let inr_wc = short_run(&nets[0], Algorithm::Valiant, &wc);
        assert!(min_wc < 0.35, "MIN WC {min_wc}");
        assert!(inr_wc > min_wc, "INR WC {inr_wc} vs MIN WC {min_wc}");
    }

    #[test]
    fn adaptive_variant_grids() {
        assert_eq!(adaptive_variants(7, 'a').len(), 4);
        assert_eq!(adaptive_variants(7, 'b').len(), 4);
        assert!(adaptive_variants(7, 'a')[0].3.is_none());
        assert_eq!(adaptive_variants(8, 'a')[0].3, Some(0.10));
        assert_eq!(adaptive_variants(11, 'b')[2].3, Some(0.10));
        assert_eq!(adaptive_variants(12, 'b')[0].1, 1); // OFT panel b: nI = 1
    }

    #[test]
    #[should_panic(expected = "unknown figure")]
    fn adaptive_variants_rejects_bad_panel() {
        adaptive_variants(7, 'z');
    }

    #[test]
    fn fig13_small_a2a() {
        let nets = vec![oft(3)];
        let rows = fig13(&nets, 512, &tiny_params());
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(!row.stats.deadlocked, "{} {}", row.topology, row.routing);
            assert!(row.stats.effective_throughput > 0.1);
        }
        // MIN and adaptive beat INR on A2A (paper Fig. 13).
        let by_routing = |tag: &str| {
            rows.iter()
                .find(|r| r.routing.starts_with(tag))
                .unwrap()
                .stats
                .effective_throughput
        };
        assert!(by_routing("MIN") > by_routing("INR"));
    }

    #[test]
    fn fig14_small_nn() {
        let nets = vec![mlfm(4)];
        let rows = fig14(&nets, 8_192, &tiny_params());
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(!row.stats.deadlocked);
        }
    }

    #[test]
    fn table2_is_paper_table() {
        let t = table2();
        assert_eq!(t[0], vec![9, 10, 11, 12]);
        assert_eq!(t[12], vec![12, 2, 4, 6]);
    }

    /// The fanned figure drivers and the Fig. 13 run matrix give the
    /// same curves, notices and exchange stats at 1 and 2 threads.
    #[test]
    fn figure_drivers_match_at_one_and_two_threads() {
        let short = RunParams {
            duration_ns: 10_000,
            warmup_ns: 2_000,
            loads: vec![0.5, 1.0],
            sim: SimConfig::default(),
        };
        let same = |serial: CurveSet, par: CurveSet| {
            assert_eq!(par.curves.len(), serial.curves.len());
            assert_eq!(par.notices, serial.notices);
            for (a, b) in par.curves.iter().zip(&serial.curves) {
                assert_eq!(a.label, b.label);
                assert_eq!(a.points, b.points, "curve {} diverged", a.label);
            }
        };
        let small = [slim_fly(5, SlimFlyP::Floor), mlfm(4), oft(4)];
        for (nets, params) in [(&small[1..2], tiny_params()), (&small[..], short.clone())] {
            let serial = fig6(nets, Traffic::Uniform, &params, 1);
            assert!(
                serial.notices.is_empty(),
                "no wedge expected on uniform traffic"
            );
            same(serial, fig6(nets, Traffic::Uniform, &params, 2));
        }
        let variants: Vec<_> = adaptive_variants(9, 'a').into_iter().take(2).collect();
        same(
            adaptive_sweep(&small[1], &variants, &short, 1),
            adaptive_sweep(&small[1], &variants, &short, 2),
        );

        let fig13_matrix = |threads: usize| {
            let jobs: Vec<_> = small
                .iter()
                .flat_map(|net| {
                    let ex = all_to_all_shuffled(net.num_nodes(), 512, 7);
                    exchange_algos(net).into_iter().map(move |(label, algo)| {
                        let ex = ex.clone();
                        move || {
                            let policy = RoutePolicy::new(net, algo);
                            (
                                label,
                                run_exchange(net, &policy, &ex, 1, SimConfig::default()),
                            )
                        }
                    })
                })
                .collect();
            par_curves(jobs, threads)
        };
        assert_eq!(
            fig13_matrix(1),
            fig13_matrix(2),
            "exchange fan-out diverged"
        );
    }

    #[test]
    fn best_adaptive_dispatch() {
        let nets = eval_topologies(Scale::Reduced);
        assert!(best_adaptive(&nets[0]).0.starts_with("SF-A"));
        assert!(best_adaptive(&nets[2]).0.starts_with("MLFM-A"));
        assert!(best_adaptive(&nets[3]).0.starts_with("OFT-A"));
    }
}
