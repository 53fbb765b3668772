//! Measured-vs-predicted divergence gate — the cross-check half of the
//! analytic oracle (see `d2net_analysis::oracle`).
//!
//! The oracle predicts, from the route tables alone, a saturation
//! envelope `[lo, hi]` and a per-directed-link expected-load vector. The
//! functions here compare both against a real sweep:
//!
//! - [`measured_saturation`] extracts the saturation throughput a sweep
//!   actually reached (peak accepted throughput over non-deadlocked
//!   points);
//! - [`link_residuals`] maps a telemetry probe's per-port mean
//!   utilizations onto the oracle's [`LinkIndex`](d2net_analysis::LinkIndex)
//!   order and reports `measured − predicted` residuals at the probe
//!   load;
//! - [`divergence_gate`] turns both into a [`DivergenceSummary`] for the
//!   run manifest plus coded [`Diagnostic`]s: `divergence-saturation`
//!   (ERROR) when the measured value falls outside the envelope beyond
//!   tolerance, `divergence-residual` (WARN) when some link's measured
//!   utilization strays from its static prediction.
//!
//! Everything here is a pure function of its inputs — no RNG, no clock —
//! so a manifest assembled from a serial sweep is byte-identical to one
//! assembled from the parallel sweep of the same grid.

use crate::report::DivergenceSummary;
use d2net_analysis::{LinkIndex, OracleReport, PolicyAnalysis};
use d2net_sim::{SweepOutcome, TelemetryReport};
use d2net_topo::Network;
use d2net_verify::{Diagnostic, Severity};

/// Thresholds of the divergence gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DivergenceGateConfig {
    /// Slack allowed beyond the predicted envelope edges before the
    /// measured saturation counts as divergent. The static model ignores
    /// queueing, finite buffers and warm-up transients, so a simulated
    /// plateau routinely lands a few percent under the fluid bound; the
    /// default mirrors the crosscheck suite's `0.15·pred` style margin
    /// at paper-scale saturations.
    pub tolerance: f64,
    /// Largest tolerated |measured − predicted| per-link utilization at
    /// the probe load before a WARN is raised.
    pub residual_warn: f64,
    /// Probe load for link residuals, as a fraction of the predicted
    /// lower saturation — below saturation the static loads scale
    /// linearly with offered load, so this is where the comparison is
    /// meaningful.
    pub probe_load_frac: f64,
}

impl Default for DivergenceGateConfig {
    fn default() -> Self {
        DivergenceGateConfig {
            tolerance: 0.1,
            residual_warn: 0.15,
            probe_load_frac: 0.7,
        }
    }
}

/// Peak accepted throughput over a sweep's non-deadlocked points — the
/// measured counterpart of the oracle's predicted saturation. Returns
/// 0.0 when every point wedged (or the sweep was empty).
pub fn measured_saturation(outcome: &SweepOutcome) -> f64 {
    outcome
        .points
        .iter()
        .filter(|p| !p.stats.deadlocked)
        .map(|p| p.stats.throughput)
        .fold(0.0, f64::max)
}

/// Per-link residuals between a telemetry probe and an oracle report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkResiduals {
    /// Offered load the probe ran at.
    pub probe_load: f64,
    /// Directed links with both a static load and a telemetry series.
    pub links_compared: usize,
    /// Mean |measured − predicted| utilization.
    pub mean_abs: f64,
    /// Largest |measured − predicted| utilization.
    pub max_abs: f64,
    /// Source router of the worst link.
    pub max_router: u32,
    /// Next-hop router of the worst link.
    pub max_next: u32,
}

/// Compares a probe's mean per-port link utilizations against an oracle
/// report's static loads, element-wise.
///
/// The mapping relies on the engine's port numbering: router `r` owns a
/// contiguous port range whose first `degree(r)` entries are network
/// ports in adjacency order — exactly the order
/// [`LinkIndex`](d2net_analysis::LinkIndex) assigns to directed links.
/// A static load of `x` node injection rates predicts a utilization of
/// `probe_load · x` (one node rate saturates one link), which is what
/// the residual is taken against.
pub fn link_residuals(
    net: &Network,
    report: &OracleReport,
    tel: &TelemetryReport,
    probe_load: f64,
) -> Result<LinkResiduals, String> {
    if tel.num_routers != net.num_routers() {
        return Err(format!(
            "telemetry is for {} routers, network has {}",
            tel.num_routers,
            net.num_routers()
        ));
    }
    if tel.num_samples == 0 {
        return Err("telemetry recorded no samples".into());
    }
    let idx = LinkIndex::new(net);
    if report.link_loads.len() != idx.num_links() {
        return Err(format!(
            "oracle report carries {} link loads, network has {} directed links",
            report.link_loads.len(),
            idx.num_links()
        ));
    }

    // First port owned by each router (ports are contiguous, ascending).
    let mut first_port = vec![u32::MAX; net.num_routers() as usize];
    for (port, &owner) in tel.port_owner.iter().enumerate() {
        let slot = &mut first_port[owner as usize];
        if *slot == u32::MAX {
            *slot = port as u32;
        }
    }

    let mut compared = 0usize;
    let mut sum_abs = 0.0f64;
    let mut max_abs = 0.0f64;
    let (mut max_router, mut max_next) = (0u32, 0u32);
    for r in 0..net.num_routers() {
        let base = first_port[r as usize];
        if base == u32::MAX {
            continue; // isolated router: owns no ports in this engine
        }
        for (j, &next) in net.neighbors(r).iter().enumerate() {
            let port = base + j as u32;
            if tel.port_is_node[port as usize] {
                return Err(format!(
                    "port {port} of router {r} is a node port where a network port was expected"
                ));
            }
            let mut measured = 0.0f64;
            for s in 0..tel.num_samples {
                measured += tel.link_utilization(s, port) as f64;
            }
            measured /= tel.num_samples as f64;
            let predicted = probe_load * report.link_loads[idx.offset(r) + j];
            let resid = (measured - predicted).abs();
            sum_abs += resid;
            compared += 1;
            if resid > max_abs {
                max_abs = resid;
                max_router = r;
                max_next = next;
            }
        }
    }
    Ok(LinkResiduals {
        probe_load,
        links_compared: compared,
        mean_abs: if compared > 0 { sum_abs / compared as f64 } else { 0.0 },
        max_abs,
        max_router,
        max_next,
    })
}

/// Judges a measured sweep against a policy's predicted saturation
/// envelope, returning the manifest summary plus coded diagnostics:
///
/// - INFO `divergence-ok` when the measured saturation lands inside
///   `[lo − tolerance, hi + tolerance]`;
/// - ERROR `divergence-saturation` otherwise — the static model and the
///   simulator disagree about this configuration, which means broken
///   tables, a mis-modeled traffic matrix, or a simulator regression;
/// - WARN `divergence-residual` when the per-link residuals (if
///   provided) exceed `residual_warn` somewhere.
pub fn divergence_gate(
    traffic: &str,
    pa: &PolicyAnalysis,
    measured: f64,
    residuals: Option<&LinkResiduals>,
    cfg: &DivergenceGateConfig,
) -> (DivergenceSummary, Vec<Diagnostic>) {
    let gap = (pa.saturation_lo - measured)
        .max(measured - pa.saturation_hi)
        .max(0.0);
    let passed = gap <= cfg.tolerance;
    let mut diags = Vec::new();
    if passed {
        diags.push(Diagnostic {
            severity: Severity::Info,
            code: "divergence-ok",
            message: format!(
                "measured saturation {measured:.3} under {traffic} traffic lies within the \
                 predicted {} envelope [{:.3}, {:.3}] (tolerance {:.3})",
                pa.algorithm, pa.saturation_lo, pa.saturation_hi, cfg.tolerance
            ),
        });
    } else {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "divergence-saturation",
            message: format!(
                "measured saturation {measured:.3} under {traffic} traffic falls {gap:.3} outside \
                 the predicted {} envelope [{:.3}, {:.3}] (tolerance {:.3}); static model and \
                 simulator disagree — suspect broken tables, a mis-modeled matrix, or an engine \
                 regression",
                pa.algorithm, pa.saturation_lo, pa.saturation_hi, cfg.tolerance
            ),
        });
    }
    if let Some(r) = residuals {
        if r.max_abs > cfg.residual_warn {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                code: "divergence-residual",
                message: format!(
                    "link router {} -> {} measured {:.3} utilization away from its static \
                     prediction at probe load {:.3} (warn threshold {:.3}, mean |residual| {:.3} \
                     over {} links)",
                    r.max_router,
                    r.max_next,
                    r.max_abs,
                    r.probe_load,
                    cfg.residual_warn,
                    r.mean_abs,
                    r.links_compared
                ),
            });
        }
    }
    let summary = DivergenceSummary {
        traffic: traffic.to_string(),
        predicted_saturation_lo: pa.saturation_lo,
        predicted_saturation_hi: pa.saturation_hi,
        measured_saturation: measured,
        saturation_gap: gap,
        tolerance: cfg.tolerance,
        passed,
        probe_load: residuals.map_or(0.0, |r| r.probe_load),
        links_compared: residuals.map_or(0, |r| r.links_compared as u64),
        mean_abs_residual: residuals.map_or(0.0, |r| r.mean_abs),
        max_abs_residual: residuals.map_or(0.0, |r| r.max_abs),
        max_residual_router: residuals.map_or(0, |r| r.max_router),
        max_residual_next: residuals.map_or(0, |r| r.max_next),
    };
    (summary, diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2net_analysis::{analyze_policy, LatencyModel, TrafficMatrix};
    use d2net_routing::{Algorithm, RoutePolicy};
    use d2net_sim::{
        run, Observers, ProbeConfig, SimConfig, SweepPoint, Synthetic, SyntheticStats,
        TelemetryReport,
    };
    use d2net_topo::{mlfm, Network};
    use d2net_traffic::SyntheticPattern;

    /// The telemetry of one probed uniform run.
    fn probed_run(
        net: &Network,
        policy: &RoutePolicy,
        load: f64,
        dur: u64,
        warm: u64,
    ) -> TelemetryReport {
        let work = Synthetic::new(&SyntheticPattern::Uniform, load, dur, warm);
        let obs = Observers::probed(ProbeConfig::default());
        run(net, policy, &work, SimConfig::default(), obs)
            .unwrap()
            .telemetry
            .unwrap()
    }

    fn point(load: f64, throughput: f64, deadlocked: bool) -> SweepPoint {
        let mut stats = SyntheticStats::deadlocked_stub(load);
        stats.deadlocked = deadlocked;
        stats.throughput = throughput;
        SweepPoint {
            load,
            stats,
            telemetry: None,
        }
    }

    #[test]
    fn measured_saturation_skips_wedged_points() {
        let outcome = SweepOutcome {
            points: vec![
                point(0.3, 0.3, false),
                point(0.6, 0.55, false),
                point(1.0, 0.0, true),
            ],
            ..SweepOutcome::default()
        };
        assert!((measured_saturation(&outcome) - 0.55).abs() < 1e-12);
        let all_wedged = SweepOutcome {
            points: vec![point(0.5, 0.0, true)],
            ..SweepOutcome::default()
        };
        assert_eq!(measured_saturation(&all_wedged), 0.0);
    }

    #[test]
    fn gate_passes_inside_and_errors_outside_the_envelope() {
        let net = mlfm(4);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let tm = TrafficMatrix::uniform(&net).expect("uniform matrix");
        let pa = analyze_policy(&net, &policy, &tm, &LatencyModel::paper_default())
            .expect("oracle runs");
        let cfg = DivergenceGateConfig::default();

        let inside = pa.saturation_lo;
        let (summary, diags) = divergence_gate("uniform", &pa, inside, None, &cfg);
        assert!(summary.passed);
        assert_eq!(summary.saturation_gap, 0.0);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "divergence-ok");
        assert_eq!(diags[0].severity, Severity::Info);

        let planted = pa.saturation_lo - cfg.tolerance - 0.2;
        let (summary, diags) = divergence_gate("uniform", &pa, planted, None, &cfg);
        assert!(!summary.passed);
        assert!(summary.saturation_gap > cfg.tolerance);
        assert_eq!(diags[0].code, "divergence-saturation");
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("outside"), "{}", diags[0].message);
    }

    #[test]
    fn residuals_track_telemetry_on_a_real_run() {
        let net = mlfm(4);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let tm = TrafficMatrix::uniform(&net).expect("uniform matrix");
        let pa = analyze_policy(&net, &policy, &tm, &LatencyModel::paper_default())
            .expect("oracle runs");
        let load = 0.4;
        let tel = probed_run(&net, &policy, load, 30_000, 6_000);
        let r = link_residuals(&net, &pa.reports[0], &tel, load).expect("geometries line up");
        // Every router-router directed link is compared.
        let directed: usize = (0..net.num_routers()).map(|v| net.degree(v) as usize).sum();
        assert_eq!(r.links_compared, directed);
        // Uniform traffic well below saturation: simulated utilizations
        // track the fluid prediction closely on average.
        assert!(r.mean_abs < 0.05, "mean |residual| {}", r.mean_abs);
        assert!(r.max_abs < DivergenceGateConfig::default().residual_warn,
            "max |residual| {} at {}->{}", r.max_abs, r.max_router, r.max_next);

        // The WARN path fires when the threshold is planted below the
        // observed residuals.
        let strict = DivergenceGateConfig {
            residual_warn: 0.0,
            ..Default::default()
        };
        let (summary, diags) =
            divergence_gate("uniform", &pa, pa.saturation_lo, Some(&r), &strict);
        assert_eq!(summary.links_compared, directed as u64);
        assert!(diags.iter().any(|d| d.code == "divergence-residual"
            && d.severity == Severity::Warning));
    }

    #[test]
    fn residuals_reject_mismatched_geometries() {
        let net = mlfm(4);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let tm = TrafficMatrix::uniform(&net).expect("uniform matrix");
        let pa = analyze_policy(&net, &policy, &tm, &LatencyModel::paper_default())
            .expect("oracle runs");
        let tel = probed_run(&net, &policy, 0.3, 10_000, 2_000);
        let other = d2net_topo::slim_fly(5, d2net_topo::SlimFlyP::Floor);
        let err = link_residuals(&other, &pa.reports[0], &tel, 0.3).unwrap_err();
        assert!(err.contains("routers"), "{err}");
    }
}
