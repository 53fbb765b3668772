//! Shard-smoke gate: intra-run sharded sweeps and exchanges must be
//! byte-identical to the serial engine, manifests and all.
//!
//! ```text
//! cargo run --release --example d2net-shard [-- --out FILE]
//! ```
//!
//! First runs the Fig. 13 shuffled all-to-all (7.5 KB per pair) on the
//! same Slim Fly under MIN, INR and UGAL-L at 1, 2 and 3 shards: the
//! exchanges drain on the window-barrier coordinator, and any
//! [`ExchangeStats`] that differs from the 1-shard run fails the gate.
//! Then it
//! runs one load sweep under Valiant routing four ways —
//! the serial engine, the 2-shard and 3-shard engines through the
//! serial sweep harness, and the 2-shard engine fanned across the
//! worker pool at two different thread budgets (which `par_load_sweep*`
//! splits between point workers and shards, DESIGN.md §14) — builds the
//! same run manifest from each, and asserts every manifest is
//! byte-identical to the serial one. The written file (default
//! `SHARD_smoke.json`) additionally carries the `"sharding"` section
//! recording how the thread budget was split; the byte comparison runs
//! before that section is attached, since it is the one part of the
//! manifest that legitimately differs from an unsharded run.

use d2net::prelude::*;

fn main() {
    let out = parse_out();
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(&net, Algorithm::Valiant);
    let pattern = SyntheticPattern::Uniform;
    let params = RunParams {
        duration_ns: 30_000,
        warmup_ns: 6_000,
        loads: vec![0.2, 0.5, 0.8],
        sim: SimConfig::default(),
    };
    let label = format!("{} INR uniform", net.name());

    check_exchanges(&net, params.sim);

    let manifest_of = |sweep: &SweepOutcome| -> RunManifest {
        let mut m = RunManifest::new(
            format!("shard smoke: {label}"),
            &net,
            "INR",
            "uniform",
            params.duration_ns,
            params.warmup_ns,
            params.sim,
        );
        m.push_curve(Curve {
            label: label.clone(),
            points: sweep.points.clone(),
        });
        m.push_notices(&sweep.notices);
        m
    };

    let mut cfg = params.sim;
    cfg.shards = 1;
    let serial = load_sweep_collect(
        &net,
        &policy,
        &pattern,
        &params.loads,
        params.duration_ns,
        params.warmup_ns,
        cfg,
    );
    let serial_json = manifest_of(&serial).to_json();

    // Sharded engines through the serial sweep harness: two shard
    // counts, so a layout-dependent bug cannot hide behind one split.
    for shards in [2u32, 3] {
        let mut cfg = params.sim;
        cfg.shards = shards;
        let sharded = load_sweep_collect(
            &net,
            &policy,
            &pattern,
            &params.loads,
            params.duration_ns,
            params.warmup_ns,
            cfg,
        );
        let json = manifest_of(&sharded).to_json();
        assert_eq!(
            json, serial_json,
            "{shards}-shard sweep manifest diverged from serial"
        );
        println!(
            "{shards}-shard manifest == serial manifest ({} bytes)",
            json.len()
        );
    }

    // Sharded engines under the parallel harness at two thread budgets:
    // the budget is split between point workers and shards, and neither
    // split may change a byte of output.
    let mut cfg = params.sim;
    cfg.shards = 2;
    let mut final_manifest = None;
    for threads in [2usize, 6] {
        let par = par_load_sweep_collect(
            &net,
            &policy,
            &pattern,
            &params.loads,
            params.duration_ns,
            params.warmup_ns,
            cfg,
            threads,
        );
        let json = manifest_of(&par).to_json();
        assert_eq!(
            json, serial_json,
            "2-shard parallel sweep manifest diverged from serial at {threads} threads"
        );
        println!("2-shard x {threads}-thread manifest == serial manifest");
        final_manifest = Some((manifest_of(&par), threads));
    }

    let (mut manifest, threads) = final_manifest.expect("two budgets ran");
    manifest.set_sharding(ShardingManifest {
        shards: cfg.shards,
        point_workers: (threads as u32 / cfg.shards).max(1),
        thread_budget: threads as u32,
    });
    let json = manifest.to_json();
    write_atomic(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out} ({} bytes)", json.len());
}

/// The Fig. 13 exchange at 1, 2 and 3 shards under each routing the
/// figure compares; panics (non-zero exit) on the first divergence.
fn check_exchanges(net: &Network, sim: SimConfig) {
    let ex = d2net::traffic::all_to_all_shuffled(net.num_nodes(), 7_500, sim.seed);
    let (adaptive, ugal) = best_adaptive(net);
    for (name, algo) in [
        ("MIN".to_string(), Algorithm::Minimal),
        ("INR".to_string(), Algorithm::Valiant),
        (adaptive, ugal),
    ] {
        let policy = RoutePolicy::new(net, algo);
        let run = |shards: u32| run_exchange(net, &policy, &ex, 1, SimConfig { shards, ..sim });
        let serial = run(1);
        assert!(!serial.deadlocked, "{name}: the exchange must complete");
        for shards in [2u32, 3] {
            assert_eq!(
                run(shards),
                serial,
                "{name}: {shards}-shard exchange stats diverged from serial"
            );
        }
        println!(
            "{name} all-to-all: 2- and 3-shard stats == serial (throughput {:.4}, {} ns)",
            serial.effective_throughput, serial.completion_ns
        );
    }
}

fn parse_out() -> String {
    let mut args = std::env::args().skip(1);
    let mut out = "SHARD_smoke.json".to_string();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().expect("--out needs a value"),
            other => panic!("unknown argument '{other}'"),
        }
    }
    out
}
