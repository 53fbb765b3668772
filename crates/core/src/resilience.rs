//! Resilience sweeps: throughput/latency versus failure fraction.
//!
//! For each requested failure fraction the sweep samples that share of
//! the network's links ([`d2net_topo::FaultSet::sample_links`], seeded
//! per point), degrades the topology, repairs the routing tables around
//! the damage ([`d2net_routing::RoutePolicy::repair`] — hop-indexed VCs
//! over the repaired diameter, provably acyclic for any fault shape),
//! runs the static verifier on the degraded configuration, and simulates
//! the usual synthetic workload on it. Fraction `0.0` is the pristine
//! baseline under the paper's original VC scheme.
//!
//! Every point is a pure function of `(config, point index)`: the fault
//! sample, the RNG stream and the simulated schedule derive from
//! [`point_seed`] alone, so [`resilience_sweep`] is byte-identical at
//! every thread count — the same guarantee the load sweeps make,
//! extended to degraded networks.

use crate::report::{FaultPointRecord, FaultsManifest};
use d2net_routing::{Algorithm, RoutePolicy};
use d2net_sim::sweep::SweepNotice;
use d2net_sim::{
    par_curves, plan_shards, point_seed, resolve_threads, run, EngineTrace, Observers, PointTrace,
    Preflight, SimConfig, SweepPoint, Synthetic, SyntheticStats, TraceConfig,
};
use d2net_topo::{FaultSet, Network};
use d2net_traffic::SyntheticPattern;
use d2net_verify::{verify, Verdict};

/// One point of a resilience curve: the sampled degradation, what it did
/// to routing, and the measured traffic statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePoint {
    /// Requested failed fraction of the network's links.
    pub fraction: f64,
    pub failed_links: u32,
    pub failed_routers: u32,
    /// Ordered endpoint-router pairs the repaired tables cannot connect.
    pub unreachable_pairs: u64,
    /// Whether the verifier certified the (degraded, repaired) config.
    pub certified: bool,
    pub stats: SyntheticStats,
}

/// A full resilience curve plus any notices raised (rejected configs).
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceCurve {
    pub label: String,
    pub points: Vec<ResiliencePoint>,
    pub notices: Vec<SweepNotice>,
}

impl ResilienceCurve {
    /// The `"faults"` manifest section of this curve.
    pub fn faults_manifest(&self) -> FaultsManifest {
        FaultsManifest {
            points: self
                .points
                .iter()
                .map(|p| FaultPointRecord {
                    fraction: p.fraction,
                    failed_links: p.failed_links,
                    failed_routers: p.failed_routers,
                    unreachable_pairs: p.unreachable_pairs,
                    certified: p.certified,
                    dropped_packets: p.stats.dropped_packets,
                    retried_packets: p.stats.retried_packets,
                })
                .collect(),
        }
    }

    /// Renders this curve as a manifest [`crate::experiment::Curve`]
    /// whose x-axis (`load` of each point) is the **failure fraction**.
    pub fn to_curve(&self) -> crate::experiment::Curve {
        crate::experiment::Curve {
            label: self.label.clone(),
            points: self
                .points
                .iter()
                .map(|p| SweepPoint {
                    load: p.fraction,
                    stats: p.stats.clone(),
                    telemetry: None,
                })
                .collect(),
        }
    }
}

/// `steps` evenly spaced failure fractions from 0 to `max` inclusive —
/// the paper-style 0–10 % axis is `failure_fractions(0.10, 5)`.
pub fn failure_fractions(max: f64, steps: usize) -> Vec<f64> {
    assert!(steps >= 2, "a sweep needs at least the 0% and max points");
    assert!(max > 0.0 && max < 1.0, "max must be in (0, 1), got {max}");
    (0..steps)
        .map(|i| max * i as f64 / (steps - 1) as f64)
        .collect()
}

/// Simulates one resilience point; pure in `(cfg, idx)` so the result
/// is the same at every thread count. `pristine` is `net`'s own policy
/// under `algorithm`, which the `0.0` fraction simulates.
#[allow(clippy::too_many_arguments)]
fn resilience_point(
    net: &Network,
    pristine: &RoutePolicy,
    pattern: &SyntheticPattern,
    load: f64,
    fraction: f64,
    idx: usize,
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    trace: Option<TraceConfig>,
) -> (ResiliencePoint, Option<SweepNotice>, Option<EngineTrace>) {
    let seed = point_seed(cfg.seed, idx);
    // Verification runs explicitly below (so the verdict can be
    // recorded); the simulation itself must not re-verify or panic.
    let point_cfg = SimConfig {
        seed,
        preflight: Preflight::Off,
        ..cfg
    };
    let (degraded, faults) = if fraction > 0.0 {
        let faults = FaultSet::sample_links(net, fraction, seed);
        (Some(net.degrade(&faults)), faults)
    } else {
        (None, FaultSet::new())
    };
    let repaired;
    let (subject, policy) = match &degraded {
        // The pristine baseline keeps the paper's original VC scheme;
        // repair falls back to it on an undamaged network anyway.
        None => (net, pristine),
        Some(d) => {
            repaired = RoutePolicy::repair(d, pristine.algorithm());
            (d, &repaired)
        }
    };
    let report = verify(subject, policy, &point_cfg.verify_params());
    let certified = report.verdict() == Verdict::Certified;
    let (stats, notice, engine_trace) = if report.verdict() == Verdict::Rejected {
        let notice = SweepNotice::new(
            "rejected",
            idx,
            load,
            format!(
                "verifier rejected the repaired configuration at failure \
                 fraction {fraction:.3}; point carries a stub:\n{}",
                report.render()
            ),
        );
        // Rejected points carry no trace — rejection is pure per point,
        // so serial and parallel traced sweeps skip the same points.
        (SyntheticStats::rejected_stub(load), Some(notice), None)
    } else {
        let work = Synthetic::new(pattern, load, duration_ns, warmup_ns);
        let obs = Observers {
            trace,
            ..Observers::default()
        };
        let out = run(subject, policy, &work, point_cfg, obs).unwrap_or_else(|e| panic!("{e}"));
        (out.stats, None, out.trace)
    };
    let point = ResiliencePoint {
        fraction,
        failed_links: faults.failed_links().len() as u32,
        failed_routers: faults.failed_routers().len() as u32,
        unreachable_pairs: policy.tables().unreachable_pairs(),
        certified,
        stats,
    };
    (point, notice, engine_trace)
}

/// Sweeps `net` under `algorithm` across `fractions` of failed links at
/// a fixed offered `load`: the throughput/latency-vs-degradation axes of
/// the robustness evaluation. See the module docs for point semantics.
///
/// Points fan across `threads` workers (`0` = auto), the budget divided
/// by the points' own shard count. With a [`TraceConfig`], every
/// simulated point comes back as a [`PointTrace`] whose `load` field
/// carries the **failure fraction** (the sweep's x-axis); rejected
/// points have none.
#[allow(clippy::too_many_arguments)]
pub fn resilience_sweep(
    net: &Network,
    algorithm: Algorithm,
    pattern: &SyntheticPattern,
    load: f64,
    fractions: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    trace: Option<TraceConfig>,
    threads: usize,
) -> (ResilienceCurve, Vec<PointTrace>) {
    let pristine = RoutePolicy::new(net, algorithm);
    let pristine = &pristine;
    let jobs: Vec<_> = fractions
        .iter()
        .enumerate()
        .map(|(idx, &fraction)| {
            move || {
                resilience_point(
                    net,
                    pristine,
                    pattern,
                    load,
                    fraction,
                    idx,
                    duration_ns,
                    warmup_ns,
                    cfg,
                    trace,
                )
            }
        })
        .collect();
    let threads = (resolve_threads(threads) / plan_shards(net, pristine, &cfg)).max(1);
    let results = par_curves(jobs, threads);
    let mut points = Vec::with_capacity(results.len());
    let mut notices = Vec::new();
    let mut traces = Vec::new();
    for (idx, (point, notice, tr)) in results.into_iter().enumerate() {
        points.push(point);
        notices.extend(notice);
        if let Some(tr) = tr {
            traces.push(PointTrace {
                index: idx,
                load: fractions[idx],
                trace: tr,
            });
        }
    }
    (
        ResilienceCurve {
            label: curve_label(net, algorithm, load),
            points,
            notices,
        },
        traces,
    )
}

fn curve_label(net: &Network, algorithm: Algorithm, load: f64) -> String {
    format!("{} {:?} resilience @ load {load:.2}", net.name(), algorithm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2net_topo::mlfm;

    /// A 30 µs MIN sweep of MLFM(h=3) at load 0.3 on `threads` workers.
    fn tiny_sweep(fractions: &[f64], threads: usize) -> ResilienceCurve {
        let net = mlfm(3);
        let pattern = SyntheticPattern::Uniform;
        let cfg = SimConfig::default();
        let algo = Algorithm::Minimal;
        resilience_sweep(
            &net, algo, &pattern, 0.3, fractions, 30_000, 6_000, cfg, None, threads,
        )
        .0
    }

    #[test]
    fn fraction_axis_shape() {
        let f = failure_fractions(0.10, 5);
        assert_eq!(f.len(), 5);
        assert_eq!(f[0], 0.0);
        assert!((f[4] - 0.10).abs() < 1e-12);
        assert!(f.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pristine_point_is_the_plain_run() {
        let curve = tiny_sweep(&[0.0], 1);
        let p = &curve.points[0];
        assert_eq!(p.failed_links, 0);
        assert_eq!(p.unreachable_pairs, 0);
        assert!(p.certified);
        assert!(!p.stats.deadlocked);
        assert_eq!(p.stats.dropped_packets, 0);
    }

    #[test]
    fn degraded_points_survive_and_account_losses() {
        let curve = tiny_sweep(&failure_fractions(0.10, 3), 1);
        assert_eq!(curve.points.len(), 3);
        for p in &curve.points {
            assert!(!p.stats.deadlocked, "fraction {} wedged", p.fraction);
            if p.fraction > 0.0 {
                assert!(p.failed_links > 0, "sampling must fail at least a link");
            }
        }
        let manifest = curve.faults_manifest();
        assert_eq!(manifest.points.len(), 3);
        assert_eq!(manifest.points[0].fraction, 0.0);
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let fractions = failure_fractions(0.10, 3);
        let serial = tiny_sweep(&fractions, 1);
        let parallel = tiny_sweep(&fractions, 2);
        assert_eq!(serial, parallel);
    }
}
