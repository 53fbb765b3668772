//! `coral_certify`: preflight and oracle certification of the four §4.1
//! CORAL configs under MIN, per repetition. No simulation runs.
//!
//! Each certification verifies the MIN tables and analyzes three traffic
//! matrices with the oracle: uniform, the exact §4.2 worst case, and a
//! seeded random permutation. `verify` rejects both SF(q=13) configs
//! today (its `sf-girth` check), so those two certifications count as
//! failed. UGAL-L certification takes 10–28 s per CORAL config; with
//! its warm-up one would fill a run's window, so a traced run times it
//! once on OFT(k=12) instead.

use std::time::Instant;

use d2net_core::analysis::TrafficMatrix;
use d2net_core::prelude::*;

use crate::checks::{close, endpoint_diameter, shape};
use crate::timing::{repeat, Clock};
use crate::Outcome;

/// The §4.1 table: name, (N, R, radix), closed-form worst-case
/// saturation under MIN (1/2p, 1/h, 1/k).
const TABLE: [(&str, (u32, u32, u32), f64); 4] = [
    ("SF(q=13,p=9)", (3042, 338, 28), 1.0 / 18.0),
    ("SF(q=13,p=10)", (3380, 338, 29), 1.0 / 20.0),
    ("MLFM(h=15)", (3600, 360, 30), 1.0 / 15.0),
    ("OFT(k=12)", (3192, 399, 24), 1.0 / 12.0),
];

/// Certifications `verify` rejects today: the two SF(q=13) configs.
const KNOWN_REJECTED: [&str; 2] = ["SF(q=13,p=9)", "SF(q=13,p=10)"];

struct Config {
    net: Network,
    min: RoutePolicy,
    uniform: TrafficMatrix,
    worst: TrafficMatrix,
    permutation: TrafficMatrix,
}

/// One certification as the repetition loop compares it.
#[derive(Debug, Clone, PartialEq)]
struct Certificate {
    verdict: Verdict,
    errors: Vec<String>,
    uniform_saturation: f64,
    worst_saturation: f64,
    permutation_throughput: f64,
    permutation_latency_ns: f64,
}

/// SplitMix64: the benchmark's own generator for seeded inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded node permutation from the benchmark's own generator.
fn permutation(n: u32, seed: u64) -> Vec<u32> {
    let mut state = seed;
    let mut p: Vec<u32> = (0..n).collect();
    for i in (1..p.len()).rev() {
        p.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    p
}

fn perm_of(pattern: &SyntheticPattern) -> &[u32] {
    match pattern {
        SyntheticPattern::Permutation(p) => p,
        _ => unreachable!("worst cases of SF, MLFM and OFT are permutations"),
    }
}

fn certify(clock: &mut Clock, cfg: &Config) -> Certificate {
    let report = clock.span("verify_s", || {
        verify(&cfg.net, &cfg.min, &VerifyParams::default())
    });
    let lat = LatencyModel::paper_default();
    let analyze = |clock: &mut Clock, tm: &TrafficMatrix| {
        clock.span("oracle_s", || {
            analyze_policy(&cfg.net, &cfg.min, tm, &lat).expect("pristine network")
        })
    };
    let uniform = analyze(clock, &cfg.uniform);
    let worst = analyze(clock, &cfg.worst);
    let perm = analyze(clock, &cfg.permutation);
    Certificate {
        verdict: report.verdict(),
        errors: report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| format!("{}: {}", d.code, d.message))
            .collect(),
        uniform_saturation: uniform.saturation_lo,
        worst_saturation: worst.saturation_lo,
        permutation_throughput: perm.reports[0].predicted_mean_throughput,
        permutation_latency_ns: perm.reports[0].zero_load_latency_ns,
    }
}

pub fn run(seed: u64, seconds: f64, clock: &mut Clock, start: Instant) -> Outcome {
    let mut o = Outcome::default();
    let nets = clock.span("topo_build_s", || eval_topologies(Scale::Full));
    let configs: Vec<Config> = nets
        .into_iter()
        .enumerate()
        .map(|(i, net)| {
            let min = clock.span("route_tables_s", || {
                RoutePolicy::new(&net, Algorithm::Minimal)
            });
            let (uniform, worst, permutation) = clock.span("traffic_build_s", || {
                let wc = worst_case_exact(&net).expect("§4.1 configs have an exact worst case");
                let perm = permutation(net.num_nodes(), seed ^ (i as u64) << 32);
                (
                    TrafficMatrix::uniform(&net).expect("uniform"),
                    TrafficMatrix::permutation(&net, perm_of(&wc))
                        .expect("worst case is a node map"),
                    TrafficMatrix::permutation(&net, &perm).expect("permutation is a node map"),
                )
            });
            Config {
                net,
                min,
                uniform,
                worst,
                permutation,
            }
        })
        .collect();
    o.set("setup_s", start.elapsed().as_secs_f64());

    let reps = repeat(clock, seconds, |c| {
        configs
            .iter()
            .map(|cfg| certify(c, cfg))
            .collect::<Vec<_>>()
    });
    let failed = reps
        .output
        .iter()
        .filter(|c| c.verdict != Verdict::Certified)
        .count() as u64;
    o.set_reps(&reps, configs.len() as u64, failed);

    for ((cfg, cert), (name, dims, closed_form)) in configs.iter().zip(&reps.output).zip(TABLE) {
        let net = &cfg.net;
        if net.name() != name {
            o.violations
                .push(format!("config {} where §4.1 lists {name}", net.name()));
        }
        o.check(shape(
            name,
            (net.num_nodes(), net.num_routers(), net.radix(0)),
            dims,
        ));
        let diameter = endpoint_diameter(net);
        if diameter != 2 {
            o.violations
                .push(format!("{name}: endpoint diameter {diameter}, want 2"));
        }
        o.check(close(
            &format!("{name} oracle worst case"),
            cert.worst_saturation,
            closed_form,
            1e-9,
        ));
        if cert.verdict != Verdict::Certified {
            eprintln!(
                "perfbench: {name} under MIN: {} ({})",
                cert.verdict,
                cert.errors.join("; ")
            );
            if !KNOWN_REJECTED.contains(&name) {
                o.violations
                    .push(format!("{name}: verify rejected MIN, expected Certified"));
            }
        }
    }

    let n = configs.len() as f64;
    let mean = |f: fn(&Certificate) -> f64| reps.output.iter().map(f).sum::<f64>() / n;
    o.set("sat_throughput", mean(|c| c.permutation_throughput));
    o.set("mean_delay_ns", mean(|c| c.permutation_latency_ns));
    o.set("a2a_throughput", mean(|c| c.uniform_saturation));
    let lat = LatencyModel::paper_default();
    let mut adaptive = 0.0;
    for cfg in &configs {
        let ugal = RoutePolicy::new(&cfg.net, best_adaptive(&cfg.net).1);
        let tm = TrafficMatrix::all_to_all(&cfg.net).expect("all-to-all");
        adaptive += analyze_policy(&cfg.net, &ugal, &tm, &lat)
            .expect("pristine network")
            .saturation_lo;
    }
    o.set("a2a_adaptive_throughput", adaptive / n);

    if clock.traced() {
        let oft = &configs[3].net;
        let ugal = RoutePolicy::new(oft, best_adaptive(oft).1);
        let report = clock.span("verify_ugal_s", || {
            verify(oft, &ugal, &VerifyParams::default())
        });
        if report.verdict() != Verdict::Certified {
            o.violations
                .push(format!("{} under UGAL-L: {}", oft.name(), report.verdict()));
        }
        o.set("verify_s", clock.per_rep("verify_s"));
        o.set("oracle_s", clock.per_rep("oracle_s"));
        o.set("verify_ugal_s", clock.once("verify_ugal_s"));
        o.set("topo_build_s", clock.once("topo_build_s"));
        o.set("route_tables_s", clock.once("route_tables_s"));
        o.set("traffic_build_s", clock.once("traffic_build_s"));
    }
    o
}
