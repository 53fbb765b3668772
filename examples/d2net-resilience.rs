//! Resilience demo: throughput/latency versus link-failure fraction on
//! the paper's three main diameter-two families.
//!
//! ```text
//! cargo run --release --example d2net-resilience [-- --out FILE]
//! ```
//!
//! For each topology the sweep samples 0 %, 5 % and 10 % of the links
//! as failed, repairs the routing tables around the damage, certifies
//! the degraded configuration with the static verifier, and simulates
//! uniform traffic on what is left. Injected-but-unroutable traffic is
//! dropped (and counted) instead of wedging the network; the per-point
//! record lands in the run manifest's `"faults"` section — the target
//! of ci.sh's `--fault-smoke` gate.
//!
//! With `--out FILE` the JSON manifests (one per topology, as a JSON
//! array) are written to `FILE`; otherwise they print to stdout.

use d2net::prelude::*;

fn main() {
    let out = out_path();
    let duration_ns = 30_000;
    let warmup_ns = 6_000;
    let load = 0.3;
    let fractions = failure_fractions(0.10, 3);
    let cfg = SimConfig::default();

    let nets = vec![
        slim_fly(5, SlimFlyP::Floor),
        mlfm(4),
        oft(4),
    ];
    let mut manifests = Vec::new();
    for net in &nets {
        let (curve, _) = resilience_sweep(
            net,
            Algorithm::Minimal,
            &SyntheticPattern::Uniform,
            load,
            &fractions,
            duration_ns,
            warmup_ns,
            cfg,
            None,
            0,
        );
        print_curve(net, &curve);
        let mut m = RunManifest::new(
            format!("resilience sweep: {}", net.name()),
            net,
            "MIN (fault-repaired)",
            "uniform",
            duration_ns,
            warmup_ns,
            cfg,
        );
        m.push_notices(&curve.notices);
        m.set_faults(curve.faults_manifest());
        m.push_curve(curve.to_curve());
        manifests.push(m.to_json());
    }

    let json = format!("[\n{}\n]\n", manifests.join(",\n"));
    match out {
        Some(path) => {
            write_atomic(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("wrote {path}");
        }
        None => print!("{json}"),
    }
}

fn out_path() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--out" {
            return Some(args.next().unwrap_or_else(|| {
                eprintln!("--out requires a file path");
                std::process::exit(2);
            }));
        }
    }
    None
}

fn print_curve(net: &Network, curve: &ResilienceCurve) {
    println!("== {} ==", curve.label);
    println!(
        "{:>9} {:>6} {:>8} {:>11} {:>10} {:>9} {:>8} {:>8}",
        "fraction", "links", "routers", "unreachable", "certified", "thruput", "dropped", "delay"
    );
    for p in &curve.points {
        println!(
            "{:>8.1}% {:>6} {:>8} {:>11} {:>10} {:>9.3} {:>8} {:>7.0}n",
            p.fraction * 100.0,
            p.failed_links,
            p.failed_routers,
            p.unreachable_pairs,
            p.certified,
            p.stats.throughput,
            p.stats.dropped_packets,
            p.stats.avg_delay_ns,
        );
        assert!(
            !p.stats.deadlocked,
            "{} wedged at failure fraction {}",
            net.name(),
            p.fraction
        );
    }
    for n in &curve.notices {
        println!("notice[{}]: {}", n.index, n.message);
    }
    println!();
}
