//! Wall-clock comparison of the static analytic oracle against the
//! simulator it certifies — the machinery behind `BENCH_analysis.json`
//! (schema `d2net.bench-analysis/v1`).
//!
//! Each [`AnalysisCase`] is one (topology, policy) pair under uniform
//! traffic. [`time_analysis_case`] times (a) the full static pass —
//! route tables, traffic matrix, [`analyze_policy`] envelope — and
//! (b) the simulated load sweep the oracle replaces when only a
//! saturation estimate is needed, then runs the divergence gate on the
//! pair so the speedup number is only reported for agreeing stacks.
//! [`bench_analysis_json`] bundles the results; the `bench_analysis`
//! binary writes them to disk. See EXPERIMENTS.md for the how-to.

use std::time::Instant;

use d2net_core::prelude::*;

/// One timed oracle-vs-simulator case.
pub struct AnalysisCase {
    /// Case label (e.g. `"SF(q=5) UGAL-L"`).
    pub name: String,
    pub net: Network,
    pub algo: Algorithm,
    pub duration_ns: u64,
    pub warmup_ns: u64,
    pub loads: Vec<f64>,
    pub sim: SimConfig,
}

/// A timed case's outcome: both wall-clocks plus the envelope, the
/// measured saturation, and the gate verdict tying them together.
pub struct TimedAnalysis {
    pub name: String,
    pub static_ms: f64,
    pub sim_ms: f64,
    pub saturation_lo: f64,
    pub saturation_hi: f64,
    pub measured_saturation: f64,
    pub gate_passed: bool,
}

impl TimedAnalysis {
    /// How many times faster the static pass is than the sweep it
    /// stands in for.
    pub fn leverage(&self) -> f64 {
        if self.static_ms > 0.0 {
            self.sim_ms / self.static_ms
        } else {
            f64::INFINITY
        }
    }
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

/// The default benchmark set: the three evaluation families under
/// UGAL-L, sized via the same `D2NET_BENCH_DURATION_NS` /
/// `D2NET_BENCH_LOAD_STEPS` knobs as the sweep bench.
pub fn default_analysis_cases() -> Vec<AnalysisCase> {
    let duration_ns = env_u64("D2NET_BENCH_DURATION_NS").unwrap_or(30_000);
    let warmup_ns = duration_ns / 5;
    let steps = env_u64("D2NET_BENCH_LOAD_STEPS").unwrap_or(4).max(2) as usize;
    let loads = load_grid(steps);
    let mk = |name: &str, net: Network| AnalysisCase {
        name: format!("{name} UGAL-L UNI"),
        net,
        algo: Algorithm::Ugal {
            n_i: 4,
            c: 2.0,
            threshold: None,
        },
        duration_ns,
        warmup_ns,
        loads: loads.clone(),
        sim: SimConfig::default(),
    };
    vec![
        mk("SF(q=5)", slim_fly(5, SlimFlyP::Floor)),
        mk("MLFM(h=4)", mlfm(4)),
        mk("OFT(k=4)", oft(4)),
    ]
}

/// Times the static pass and the simulated sweep for `case` and gates
/// the pair. Panics if the network does not analyze — benchmark cases
/// are pristine by construction.
pub fn time_analysis_case(case: &AnalysisCase) -> TimedAnalysis {
    let t0 = Instant::now();
    let policy = RoutePolicy::new(&case.net, case.algo);
    let tm = TrafficMatrix::uniform(&case.net)
        .unwrap_or_else(|e| panic!("{}: uniform matrix: {e}", case.name));
    let pa = analyze_policy(&case.net, &policy, &tm, &LatencyModel::paper_default())
        .unwrap_or_else(|e| panic!("{}: oracle rejected a pristine network: {e}", case.name));
    let static_ms = t0.elapsed().as_secs_f64() * 1_000.0;

    let t1 = Instant::now();
    let outcome = sweep(
        &case.net,
        &policy,
        &SyntheticPattern::Uniform,
        &case.loads,
        case.duration_ns,
        case.warmup_ns,
        case.sim,
        Observers::default(),
        1,
    );
    let sim_ms = t1.elapsed().as_secs_f64() * 1_000.0;

    let measured = measured_saturation(&outcome);
    let (summary, _diags) = divergence_gate(
        "uniform",
        &pa,
        measured,
        None,
        &DivergenceGateConfig::default(),
    );
    TimedAnalysis {
        name: case.name.clone(),
        static_ms,
        sim_ms,
        saturation_lo: pa.saturation_lo,
        saturation_hi: pa.saturation_hi,
        measured_saturation: measured,
        gate_passed: summary.passed,
    }
}

/// Serializes timed cases into the `BENCH_analysis.json` document.
pub fn bench_analysis_json(results: &[TimedAnalysis]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("d2net.bench-analysis/v1");
    w.key("units").begin_object();
    w.key("wall_clock").string("ms");
    w.key("saturation").string("fraction of injection bandwidth");
    w.end_object();
    w.key("cases").begin_array();
    for r in results {
        w.begin_object();
        w.key("name").string(&r.name);
        w.key("static_ms").f64(r.static_ms);
        w.key("sim_ms").f64(r.sim_ms);
        w.key("leverage").f64(r.leverage());
        w.key("saturation_lo").f64(r.saturation_lo);
        w.key("saturation_hi").f64(r.saturation_hi);
        w.key("measured_saturation").f64(r.measured_saturation);
        w.key("gate_passed").bool(r.gate_passed);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// One-line human rendering of a timed case for the binary's stdout.
pub fn render_analysis_row(r: &TimedAnalysis) -> String {
    format!(
        "{:24} | {:9.2} | {:8.1} | {:8.0}x | [{:.3}, {:.3}] | {:8.3} | {}",
        r.name,
        r.static_ms,
        r.sim_ms,
        r.leverage(),
        r.saturation_lo,
        r.saturation_hi,
        r.measured_saturation,
        if r.gate_passed { "pass" } else { "FAIL" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_analysis_case_gates_and_serializes() {
        let mut cases = default_analysis_cases();
        let mut case = cases.remove(1); // MLFM(4): the fastest to sweep
        case.duration_ns = 10_000;
        case.warmup_ns = 2_000;
        case.loads = vec![0.5, 1.0];
        let timed = time_analysis_case(&case);
        assert!(timed.static_ms >= 0.0 && timed.sim_ms > 0.0);
        assert!(timed.saturation_lo <= timed.saturation_hi);
        assert!(timed.gate_passed, "bench case must agree with its oracle");

        let doc = bench_analysis_json(&[timed]);
        assert!(doc.contains("\"schema\":\"d2net.bench-analysis/v1\""));
        assert!(doc.contains("\"gate_passed\":true"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }
}
