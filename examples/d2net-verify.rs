//! `d2net-verify`: the static preflight verifier as a CLI (§3.4).
//!
//! Runs every static check — CDG acyclicity with counterexample
//! extraction, routing-table soundness, topology structural lints,
//! escape coverage and buffer sufficiency — over the paper-standard
//! evaluation configs, without simulating a single cycle.
//!
//! Usage:
//!   cargo run --release --example d2net-verify              # full demo
//!   cargo run --release --example d2net-verify -- --paper-gate
//!
//! `--paper-gate` verifies only the paper-figure configs — the reduced
//! ones under MIN, INR and UGAL-L, then the four §4.1 CORAL configs under
//! MIN and each family's best adaptive (UGAL-L) variant, timing each —
//! and exits non-zero if any ERROR diagnostic appears or the process's
//! peak resident set exceeds 1 GB: the CI gate.

use std::time::Instant;

use d2net::prelude::*;
use d2net::routing::cdg;

/// Peak resident set the paper-scale gate allows, in MB.
const PEAK_RSS_LIMIT_MB: f64 = 1024.0;

fn paper_configs() -> Vec<(Network, Algorithm)> {
    let algos = [
        Algorithm::Minimal,
        Algorithm::Valiant,
        Algorithm::Ugal {
            n_i: 4,
            c: 2.0,
            threshold: None,
        },
    ];
    let mut out = Vec::new();
    for net in eval_topologies(Scale::Reduced) {
        for algo in algos {
            out.push((net.clone(), algo));
        }
    }
    out
}

/// The §4.1 CORAL configs, each under MIN and its family's best adaptive
/// (UGAL-L) variant.
fn coral_configs() -> Vec<(Network, Algorithm)> {
    let mut out = Vec::new();
    for net in eval_topologies(Scale::Full) {
        let (_, adaptive) = best_adaptive(&net);
        out.push((net.clone(), Algorithm::Minimal));
        out.push((net, adaptive));
    }
    out
}

/// Peak resident set of this process in MB (`VmHWM` in Linux's
/// `/proc/self/status`), if the platform reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The canonical unsafe configuration: a 5-router ring with minimal
/// routing squeezed onto a single VC (§3.4's negative control).
fn unsafe_ring_demo() -> u32 {
    use d2net::routing::{IntermediateSet, RoutePolicy, VcScheme};
    use d2net::topo::TopologyKind;

    let net = Network::from_parts(
        TopologyKind::Custom {
            label: "ring5".into(),
        },
        vec![vec![1, 4], vec![0, 2], vec![1, 3], vec![2, 4], vec![0, 3]],
        vec![1; 5],
    );
    let policy = RoutePolicy::with_overrides(
        &net,
        Algorithm::Minimal,
        VcScheme::SingleVc,
        IntermediateSet::EndpointRouters,
        false,
    );
    let report = verify(&net, &policy, &VerifyParams::default());
    println!("{}", report.render());
    u32::from(report.verdict() == Verdict::Rejected)
}

fn main() {
    let gate = std::env::args().any(|a| a == "--paper-gate");

    let mut errors = 0u32;
    for (net, algo) in paper_configs() {
        let policy = RoutePolicy::new(&net, algo);
        let report = verify(&net, &policy, &VerifyParams::default());
        println!("{}", report.render());
        errors += report.count(Severity::Error);
    }

    if gate {
        println!("--- CORAL scale ---");
        for (net, algo) in coral_configs() {
            let policy = RoutePolicy::new(&net, algo);
            let start = Instant::now();
            let report = verify(&net, &policy, &VerifyParams::default());
            let secs = start.elapsed().as_secs_f64();
            if report.verdict() == Verdict::Certified {
                println!("{} in {secs:.3} s", report.summary());
            } else {
                println!("{}in {secs:.3} s", report.render());
            }
            errors += report.count(Severity::Error);
        }
        match peak_rss_mb() {
            Some(mb) => {
                println!("peak resident set {mb:.0} MB (limit {PEAK_RSS_LIMIT_MB:.0} MB)");
                if mb > PEAK_RSS_LIMIT_MB {
                    eprintln!("paper gate FAILED: peak resident set {mb:.0} MB");
                    std::process::exit(1);
                }
            }
            None => println!("peak resident set not reported on this platform"),
        }
        if errors > 0 {
            eprintln!("paper gate FAILED: {errors} error diagnostics across paper configs");
            std::process::exit(1);
        }
        println!("paper gate passed: every paper-standard config certified");
        return;
    }

    // Demo mode continues with the negative control: the verifier must
    // *reject* the single-VC ring and name the concrete dependency cycle.
    println!("--- negative control (expected REJECTED) ---");
    if unsafe_ring_demo() == 0 {
        eprintln!("BUG: the unsafe single-VC ring was not rejected");
        std::process::exit(1);
    }

    // And the same verdict is reachable through the engine's hook.
    let net = mlfm(4);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let report = preflight(&net, &policy, &SimConfig::default());
    println!("--- engine preflight hook ---");
    println!("{}", report.summary());
    let cdg = cdg::build_cdg(&net, &policy);
    println!(
        "(CDG spans {} channels; cycle search found {})",
        cdg.num_channels(),
        match cdg.find_cycle() {
            None => "none".to_string(),
            Some(c) => format!("one of length {}", c.len()),
        }
    );
}
