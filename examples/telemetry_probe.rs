//! Observability demo: run a probed simulation and inspect what the
//! telemetry subsystem records.
//!
//! ```text
//! cargo run --release --example telemetry_probe
//! ```
//!
//! Three acts:
//! 1. a healthy Slim Fly under uniform load — link-utilization histogram,
//!    injection/ejection settling, convergence point;
//! 2. a deliberately broken configuration (minimal routing on a ring with
//!    a single VC) — deadlock forensics: the wait-for cycle, rendered;
//! 3. a probed load sweep folded into the self-describing JSON run
//!    manifest.

use d2net::prelude::*;

fn main() {
    healthy_run();
    forced_deadlock();
    manifest();
}

fn healthy_run() {
    println!("== 1. Probed Slim Fly (q=5), uniform traffic at 0.7 load ==\n");
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let (stats, report) = run(
        &net,
        &policy,
        &Synthetic::new(&SyntheticPattern::Uniform, 0.7, 100_000, 20_000),
        SimConfig::default(),
        Observers::probed(ProbeConfig::default()),
    )
    .map(|r| (r.stats, r.telemetry.expect("probe was attached")))
    .unwrap();
    println!(
        "throughput {:.3}, avg delay {:.0} ns, {} samples at {} ns",
        stats.throughput,
        stats.avg_delay_ns,
        report.num_samples,
        report.config.sample_interval_ns
    );
    match report.converged_at_ns {
        Some(t) => println!("ejection rate converged at t = {t} ns"),
        None => println!("ejection rate never converged"),
    }

    // Histogram of per-link mean utilization across network ports.
    println!("\nper-link mean utilization histogram (router-to-router links):");
    let mut means = Vec::new();
    for port in 0..report.num_ports {
        if report.port_is_node[port as usize] {
            continue;
        }
        let sum: f32 = (0..report.num_samples)
            .map(|s| report.link_utilization(s, port))
            .sum();
        means.push(sum / report.num_samples as f32);
    }
    let buckets = 10;
    let mut counts = vec![0usize; buckets];
    for &m in &means {
        let b = ((m * buckets as f32) as usize).min(buckets - 1);
        counts[b] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    for (b, &c) in counts.iter().enumerate() {
        let lo = b as f32 / buckets as f32;
        let hi = (b + 1) as f32 / buckets as f32;
        let bar = "#".repeat(c * 50 / peak);
        println!("  [{lo:.1}, {hi:.1}) {c:4} |{bar}");
    }
    let s = report.summary();
    println!(
        "\nmean link utilization {:.3}, peak window {:.3}, peak VC occupancy {:.3}\n",
        s.mean_link_utilization, s.peak_link_utilization, s.peak_occupancy
    );
}

fn forced_deadlock() {
    println!("== 2. Forced deadlock: minimal routing on a 5-ring, one VC ==\n");
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
    let cfg = SimConfig {
        buffer_bytes: 256, // one packet per buffer: pressure builds instantly
        ..Default::default()
    };
    // Everybody sends two hops clockwise: the minimal routes chase each
    // other around the ring and the single virtual network cannot break
    // the cycle.
    let pattern = SyntheticPattern::Permutation(vec![2, 3, 4, 0, 1]);
    let (stats, report) = run(
        &net,
        &policy,
        &Synthetic::new(&pattern, 1.0, 50_000, 0),
        cfg,
        Observers::probed(ProbeConfig::default()),
    )
    .map(|r| (r.stats, r.telemetry.expect("probe was attached")))
    .unwrap();
    println!(
        "deadlocked = {}, delivered {} packets before wedging\n",
        stats.deadlocked, stats.delivered_packets
    );
    match &report.deadlock {
        Some(forensics) => print!("{}", forensics.render()),
        None => println!("(no deadlock cycle found)"),
    }
    println!();
}

fn manifest() {
    println!("== 3. Run manifest (JSON) of a probed load sweep ==\n");
    let net = mlfm(4);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let cfg = SimConfig::default();
    let out = sweep(
        &net,
        &policy,
        &SyntheticPattern::Uniform,
        &[0.3, 0.6, 0.9],
        30_000,
        6_000,
        cfg,
        Observers::probed(ProbeConfig::default()),
        1,
    );
    out.print_notices();
    let points = out.points;
    let mut m = RunManifest::new(
        "telemetry_probe demo sweep",
        &net,
        "MIN",
        "uniform",
        30_000,
        6_000,
        cfg,
    );
    m.push_curve(Curve {
        label: format!("{} MIN UNI", net.name()),
        points,
    });
    println!("{}", m.to_json());
}
