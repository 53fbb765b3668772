//! Analytic-oracle demo: static channel-load and saturation
//! certification over the real route tables, cross-checked against the
//! simulator.
//!
//! ```text
//! cargo run --release --example d2net-analyze \
//!     [-- --tolerance T] [--prefix PATH] [--full]
//! ```
//!
//! Four acts:
//!
//! 1. **Exactness gate** — the §4.2 closed-form worst-case saturations
//!    (1/2p for Slim Fly, 1/h for MLFM, 1/k for OFT) reproduced by
//!    routing the adversarial permutations through the actual
//!    `MinimalTables`; any deviation beyond float noise fails the run.
//! 2. **Static prediction tables** — per family × traffic matrix ×
//!    routing policy: per-link load extremes, the saturation envelope,
//!    zero-load latency and cost per unit of delivered bandwidth, all
//!    without simulating a single packet.
//! 3. **Divergence gate** — a real uniform-traffic sweep per family
//!    under UGAL-L, compared against the predicted envelope, plus
//!    per-link residuals between a telemetry probe and the static
//!    loads. Serial and parallel sweeps must produce byte-identical
//!    `"analysis"`-bearing manifests (written to `--prefix<family>.json`).
//! 4. **Degraded bounds** — the same analysis over repaired route
//!    tables on a faulted network: saturation decays, unreachable
//!    demand is quantified.
//!
//! Exits nonzero when the exactness gate or any divergence gate fails.

use d2net::prelude::*;

fn families() -> Vec<(&'static str, Network)> {
    vec![
        ("SF(5)", slim_fly(5, SlimFlyP::Floor)),
        ("MLFM(4)", mlfm(4)),
        ("OFT(4)", oft(4)),
    ]
}

fn main() {
    let args = parse_args();
    let lat = LatencyModel::paper_default();
    let mut failures = 0u32;

    // ---- act 1: §4.2 closed forms from real tables -----------------
    println!("== worst-case saturations: closed form (paper ¤4.2) vs real route tables ==");
    println!("family   | closed form | from tables | max link load | verdict");
    println!("---------+-------------+-------------+---------------+--------");
    for (name, net) in families() {
        let closed = worst_case_saturation(&net);
        let Some(SyntheticPattern::Permutation(perm)) = worst_case_exact(&net) else {
            println!("{name:8} | {closed:11.4} |  (no exact adversarial permutation)");
            continue;
        };
        let tm = TrafficMatrix::permutation(&net, &perm)
            .expect("worst-case permutation is well-formed")
            .with_label("worst-case");
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let rep = analyze_minimal(&net, policy.tables(), &tm, &lat)
            .expect("pristine network analyzes");
        let exact = (rep.predicted_saturation - closed).abs() < 1e-9;
        if !exact {
            failures += 1;
        }
        println!(
            "{name:8} | {closed:11.4} | {:11.4} | {:13.2} | {}",
            rep.predicted_saturation,
            rep.max_link_load,
            if exact { "exact" } else { "MISMATCH" }
        );
    }
    // SF(q=7) is the δ = −1, girth-4 member: the unique-middle pattern
    // behind the saturating construction need not exist, so its row is
    // informational only.
    {
        let net = slim_fly(7, SlimFlyP::Floor);
        let closed = worst_case_saturation(&net);
        match worst_case_exact(&net) {
            Some(SyntheticPattern::Permutation(perm)) => {
                let tm = TrafficMatrix::permutation(&net, &perm)
                    .expect("worst-case permutation is well-formed")
                    .with_label("worst-case");
                let policy = RoutePolicy::new(&net, Algorithm::Minimal);
                let rep = analyze_minimal(&net, policy.tables(), &tm, &lat)
                    .expect("pristine network analyzes");
                println!(
                    "SF(7)    | {closed:11.4} | {:11.4} | {:13.2} | (informational)",
                    rep.predicted_saturation, rep.max_link_load
                );
            }
            _ => println!("SF(7)    | {closed:11.4} |  (no saturating permutation exists — girth 4)"),
        }
    }
    println!();

    // ---- act 2: static prediction tables ---------------------------
    let mut algos: Vec<(&str, Algorithm)> = vec![
        ("MIN", Algorithm::Minimal),
        (
            "UGAL-L",
            Algorithm::Ugal {
                n_i: 4,
                c: 2.0,
                threshold: None,
            },
        ),
    ];
    if args.full {
        algos.push(("INR", Algorithm::Valiant));
        algos.push(("UGAL-G", Algorithm::UgalG { n_i: 4, c: 2.0 }));
    }
    for (name, net) in families() {
        println!(
            "== {name}: static predictions ({} routers, {} nodes, {:.2} ports/node) ==",
            net.num_routers(),
            net.num_nodes(),
            net.total_ports() as f64 / net.num_nodes() as f64,
        );
        println!("traffic          | policy | envelope     | max load | saturation | mean thr | hops  | lat (ns) | cost/thr");
        println!("-----------------+--------+--------------+----------+------------+----------+-------+----------+---------");
        for tm in matrices(&net) {
            for (algo_name, algo) in &algos {
                let policy = RoutePolicy::new(&net, *algo);
                let pa = match analyze_policy(&net, &policy, &tm, &lat) {
                    Ok(pa) => pa,
                    Err(e) => {
                        println!("{:16} | {algo_name:6} | analysis failed: {e}", tm.label());
                        continue;
                    }
                };
                for rep in &pa.reports {
                    println!(
                        "{:16} | {algo_name:6} | {:12} | {:8.3} | {:10.3} | {:8.3} | {:5.2} | {:8.1} | {:8.2}",
                        tm.label(),
                        rep.envelope.name(),
                        rep.max_link_load,
                        rep.predicted_saturation,
                        rep.predicted_mean_throughput,
                        rep.mean_hops,
                        rep.zero_load_latency_ns,
                        rep.cost_per_unit_throughput,
                    );
                }
            }
        }
        println!();
    }

    // ---- act 3: divergence gate against real sweeps ----------------
    let gate_cfg = DivergenceGateConfig {
        tolerance: args.tolerance,
        ..Default::default()
    };
    let params = RunParams {
        duration_ns: 30_000,
        warmup_ns: 6_000,
        loads: vec![0.2, 0.5, 0.8, 1.0],
        sim: SimConfig::default(),
    };
    let algo = Algorithm::Ugal {
        n_i: 4,
        c: 2.0,
        threshold: None,
    };
    println!("== divergence gate: predicted envelope vs measured uniform sweeps (UGAL-L) ==");
    for (name, net) in families() {
        let policy = RoutePolicy::new(&net, algo);
        let tm = TrafficMatrix::uniform(&net).expect("uniform matrix");
        let pa = analyze_policy(&net, &policy, &tm, &lat).expect("pristine network analyzes");

        let probe = ProbeConfig::default();
        let serial = sweep(
            &net,
            &policy,
            &SyntheticPattern::Uniform,
            &params.loads,
            params.duration_ns,
            params.warmup_ns,
            params.sim,
            Observers::probed(probe),
            1,
        );
        let parallel = sweep(
            &net,
            &policy,
            &SyntheticPattern::Uniform,
            &params.loads,
            params.duration_ns,
            params.warmup_ns,
            params.sim,
            Observers::probed(probe),
            0,
        );
        let measured = measured_saturation(&serial);

        // Per-link residuals at a below-saturation probe point, against
        // the lower (minimal) envelope edge: UGAL holds minimal verdicts
        // when nothing is congested.
        let probe_load = (gate_cfg.probe_load_frac * pa.saturation_lo).clamp(0.05, 1.0);
        let (_, tel) = run(
            &net,
            &policy,
            &Synthetic::new(
                &SyntheticPattern::Uniform,
                probe_load,
                params.duration_ns,
                params.warmup_ns,
            ),
            params.sim,
            Observers::probed(probe),
        )
        .map(|r| (r.stats, r.telemetry.expect("probe was attached")))
        .unwrap();
        let residuals = link_residuals(&net, &pa.reports[0], &tel, probe_load)
            .expect("probe geometry matches the network");
        let (summary, diags) = divergence_gate("uniform", &pa, measured, Some(&residuals), &gate_cfg);

        let build_manifest = |outcome: &SweepOutcome| {
            let mut m = RunManifest::new(
                format!("{name} uniform analysis cross-check"),
                &net,
                "UGAL-L",
                "uniform",
                params.duration_ns,
                params.warmup_ns,
                params.sim,
            );
            m.set_algorithm(algo);
            m.push_notices(&outcome.notices);
            let mut section = AnalysisManifest::from_policy(&pa);
            section.divergence = Some(summary.clone());
            m.set_analysis(section);
            m.push_curve(Curve {
                label: format!("{name} UGAL-L uniform"),
                points: outcome.points.clone(),
            });
            m.to_json()
        };
        let ser_json = build_manifest(&serial);
        let par_json = build_manifest(&parallel);
        assert_eq!(
            ser_json, par_json,
            "serial and parallel sweeps must produce byte-identical analysis manifests"
        );

        for d in &diags {
            if d.severity == Severity::Error {
                failures += 1;
            }
            println!("  {:5} [{}] {}", d.severity.to_string(), d.code, d.message);
        }
        println!(
            "  {name}: measured {measured:.3} vs envelope [{:.3}, {:.3}] — {}; \
             residuals mean {:.4} / max {:.4} over {} links at load {:.2}",
            summary.predicted_saturation_lo,
            summary.predicted_saturation_hi,
            if summary.passed { "PASS" } else { "FAIL" },
            summary.mean_abs_residual,
            summary.max_abs_residual,
            summary.links_compared,
            summary.probe_load,
        );
        let path = format!("{}{}.json", args.prefix, name.replace(['(', ')'], ""));
        write_atomic(&path, &ser_json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("  wrote {path} ({} bytes)\n", ser_json.len());
    }

    // ---- act 4: degraded bounds ------------------------------------
    println!("== degraded bounds: MLFM(4) uniform under repaired tables ==");
    let net = mlfm(4);
    let pristine = {
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let tm = TrafficMatrix::uniform(&net).expect("uniform matrix");
        analyze_minimal(&net, policy.tables(), &tm, &lat).expect("pristine analyzes")
    };
    println!("fault fraction | saturation | unreachable | max link load");
    println!("---------------+------------+-------------+--------------");
    println!(
        "      pristine | {:10.3} | {:11.4} | {:12.3}",
        pristine.predicted_saturation, pristine.unreachable_fraction, pristine.max_link_load
    );
    for (i, frac) in [0.05f64, 0.10, 0.20].into_iter().enumerate() {
        let faults = FaultSet::sample_links(&net, frac, 3 + i as u64);
        let deg = net.degrade(&faults);
        let policy = RoutePolicy::repair(&deg, Algorithm::Minimal);
        let tm = TrafficMatrix::uniform(&deg).expect("uniform matrix");
        match analyze_minimal(&deg, policy.tables(), &tm, &lat) {
            Ok(rep) => println!(
                "         {frac:5.2} | {:10.3} | {:11.4} | {:12.3}",
                rep.predicted_saturation, rep.unreachable_fraction, rep.max_link_load
            ),
            Err(e) => println!("        {frac:5.2} | analysis failed: {e}"),
        }
    }

    if failures > 0 {
        eprintln!("\nd2net-analyze: {failures} gate failure(s)");
        std::process::exit(1);
    }
    println!("\nall gates passed");
}

/// The traffic matrices act 2 tabulates for one network. Matrices that
/// need structure the network lacks (e.g. no torus embedding) are
/// skipped silently.
fn matrices(net: &Network) -> Vec<TrafficMatrix> {
    let mut out = Vec::new();
    out.push(TrafficMatrix::uniform(net).expect("uniform matrix"));
    if let Some(SyntheticPattern::Permutation(perm)) = worst_case_exact(net) {
        out.push(
            TrafficMatrix::permutation(net, &perm)
                .expect("worst-case permutation is well-formed")
                .with_label("worst-case"),
        );
    }
    if let Ok(tm) = TrafficMatrix::all_to_all(net) {
        out.push(tm);
    }
    if let Ok(tm) = TrafficMatrix::nearest_neighbor(net) {
        out.push(tm);
    }
    if let Ok(tm) = TrafficMatrix::zipf(net, 1.0) {
        out.push(tm);
    }
    out
}

struct Args {
    tolerance: f64,
    prefix: String,
    full: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        tolerance: 0.1,
        prefix: "MANIFEST_analysis_".to_string(),
        full: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--tolerance" => {
                out.tolerance = value("--tolerance").parse().unwrap_or_else(|e| {
                    eprintln!("--tolerance: {e}");
                    std::process::exit(2);
                })
            }
            "--prefix" => out.prefix = value("--prefix"),
            "--full" => out.full = true,
            other => {
                eprintln!("unknown flag {other}; see the module docs");
                std::process::exit(2);
            }
        }
    }
    out
}
