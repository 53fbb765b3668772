//! Wall-clock timing of serial vs parallel load sweeps — the machinery
//! behind `BENCH_sweep.json` (schema `d2net.bench-sweep/v1`).
//!
//! Each [`SweepCase`] is one (topology, routing, pattern) sweep over a
//! load grid. [`time_case`] runs it twice — once through [`sweep`] on
//! one thread, once on the requested thread count —
//! asserts the two outputs are `==` point for point (the determinism
//! gate), and records both wall-clocks in a [`RunManifest`] with a
//! [`SweepTiming`] section. [`bench_sweep_json`] bundles the manifests
//! into one self-describing document; the `bench_sweep` binary writes
//! it to disk. See EXPERIMENTS.md for the how-to.

use std::time::Instant;

use d2net_core::prelude::*;

/// One timed sweep: a topology/routing/pattern triple plus the grid and
/// horizon to sweep it over.
pub struct SweepCase {
    /// Case label, used as the manifest title (e.g. `"MLFM(h=4) MIN UNI"`).
    pub name: String,
    pub net: Network,
    pub algo: Algorithm,
    /// Human label of `algo` for the manifest (e.g. `"MIN"`).
    pub routing: String,
    pub pattern: SyntheticPattern,
    /// Human label of `pattern` for the manifest (e.g. `"uniform"`).
    pub pattern_label: String,
    pub duration_ns: u64,
    pub warmup_ns: u64,
    pub loads: Vec<f64>,
    pub sim: SimConfig,
}

/// A timed case's outcome: the manifest (curve + timing + notices) plus
/// the standalone timing record.
pub struct TimedSweep {
    pub manifest: RunManifest,
    pub timing: SweepTiming,
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

/// The default benchmark set: one MLFM and one Slim Fly instance under
/// oblivious minimal routing and uniform traffic, on an 8-point grid.
///
/// Smoke-sized runs (CI) shrink the work via `D2NET_BENCH_DURATION_NS`
/// (warm-up is set to a fifth of it, mirroring `RunParams::for_scale`)
/// and `D2NET_BENCH_LOAD_STEPS`.
pub fn default_cases() -> Vec<SweepCase> {
    let duration_ns = env_u64("D2NET_BENCH_DURATION_NS").unwrap_or(60_000);
    let warmup_ns = duration_ns / 5;
    let steps = env_u64("D2NET_BENCH_LOAD_STEPS").unwrap_or(8).max(2) as usize;
    let loads = load_grid(steps);
    let mk = |name: &str, net: Network| SweepCase {
        name: format!("{name} MIN UNI"),
        net,
        algo: Algorithm::Minimal,
        routing: "MIN".into(),
        pattern: SyntheticPattern::Uniform,
        pattern_label: "uniform".into(),
        duration_ns,
        warmup_ns,
        loads: loads.clone(),
        sim: SimConfig::default(),
    };
    vec![
        mk("MLFM(h=4)", mlfm(4)),
        mk("SF(q=5)", slim_fly(5, SlimFlyP::Floor)),
    ]
}

/// Runs `case` serially and in parallel, asserts byte-identical output,
/// and returns the timed manifest. `threads == 0` resolves via
/// `D2NET_THREADS` / available parallelism.
pub fn time_case(case: &SweepCase, threads: usize) -> TimedSweep {
    let threads = resolve_threads(threads);
    let policy = RoutePolicy::new(&case.net, case.algo);

    let t0 = Instant::now();
    let serial = sweep(
        &case.net,
        &policy,
        &case.pattern,
        &case.loads,
        case.duration_ns,
        case.warmup_ns,
        case.sim,
        Observers::default(),
        1,
    );
    let serial_ms = t0.elapsed().as_secs_f64() * 1_000.0;

    let t1 = Instant::now();
    let par = sweep(
        &case.net,
        &policy,
        &case.pattern,
        &case.loads,
        case.duration_ns,
        case.warmup_ns,
        case.sim,
        Observers::default(),
        threads,
    );
    let parallel_ms = t1.elapsed().as_secs_f64() * 1_000.0;

    // The determinism gate: the parallel harness must reproduce the
    // serial sweep exactly, stats and notices alike.
    assert_eq!(
        par.points, serial.points,
        "parallel sweep diverged from serial on {}",
        case.name
    );
    assert_eq!(
        par.notices, serial.notices,
        "parallel sweep notices diverged on {}",
        case.name
    );

    let timing = SweepTiming {
        serial_ms,
        parallel_ms,
        threads: threads as u32,
        points: case.loads.len() as u32,
    };
    let mut manifest = RunManifest::new(
        case.name.clone(),
        &case.net,
        case.routing.clone(),
        case.pattern_label.clone(),
        case.duration_ns,
        case.warmup_ns,
        case.sim,
    );
    manifest.push_curve(Curve {
        label: format!("{} {}", case.routing, case.pattern_label),
        points: serial.points,
    });
    manifest.set_timing(timing.clone());
    manifest.push_notices(&serial.notices);
    TimedSweep { manifest, timing }
}

/// Serializes timed sweeps into the `BENCH_sweep.json` document: a
/// top-level timing table plus the full run manifest of every case
/// (spliced verbatim via [`JsonWriter::raw`]).
pub fn bench_sweep_json(results: &[TimedSweep]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("d2net.bench-sweep/v1");
    w.key("units").begin_object();
    w.key("wall_clock").string("ms");
    w.key("rate").string("sweep points per second");
    w.end_object();
    w.key("cases").begin_array();
    for r in results {
        w.begin_object();
        w.key("name").string(&r.manifest.title);
        w.key("serial_ms").f64(r.timing.serial_ms);
        w.key("parallel_ms").f64(r.timing.parallel_ms);
        w.key("threads").u64(r.timing.threads as u64);
        w.key("points").u64(r.timing.points as u64);
        w.key("serial_points_per_sec").f64(r.timing.serial_points_per_sec());
        w.key("parallel_points_per_sec")
            .f64(r.timing.parallel_points_per_sec());
        w.key("speedup").f64(r.timing.speedup());
        w.key("manifest").raw(&r.manifest.to_json());
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// One-line human rendering of a timed case for the binary's stdout.
pub fn render_timing_row(r: &TimedSweep) -> String {
    format!(
        "{:24} | {:9.1} | {:11.1} | {:7} | {:7.2}x",
        r.manifest.title, r.timing.serial_ms, r.timing.parallel_ms, r.timing.threads,
        r.timing.speedup()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_case_produces_manifest_with_timing() {
        let mut cases = default_cases();
        let mut case = cases.remove(0);
        // Tiny horizon: this test checks plumbing, not performance.
        case.duration_ns = 10_000;
        case.warmup_ns = 2_000;
        case.loads = vec![0.3, 0.6];
        let timed = time_case(&case, 2);
        assert_eq!(timed.timing.points, 2);
        assert_eq!(timed.timing.threads, 2);
        assert_eq!(timed.manifest.curves.len(), 1);
        assert_eq!(timed.manifest.curves[0].points.len(), 2);
        assert!(timed.manifest.timing.is_some());

        let doc = bench_sweep_json(&[timed]);
        assert!(doc.contains("\"schema\":\"d2net.bench-sweep/v1\""));
        assert!(doc.contains("\"schema\":\"d2net.run-manifest/v1\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }
}
