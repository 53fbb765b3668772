//! Decision-ledger overhead group: the same adaptive sweep point run
//! unledgered (no recorder attached — the production path), with
//! aggregates only (`sample_rate: 0`), and with full records sampled at
//! the default rate. The recorded chooser shares one implementation
//! with the plain one behind a compile-time sink, so the unledgered
//! path carries no residue; the stats gate at the bottom pins that
//! exactly: byte-identical results ledgered or not.

use criterion::{criterion_group, criterion_main, Criterion};
use d2net_bench::{bench_params, bench_topologies};
use d2net_core::prelude::*;
use std::hint::black_box;

fn sweep_point(
    net: &Network,
    policy: &RoutePolicy,
    ledger: Option<LedgerConfig>,
) -> SyntheticStats {
    let params = bench_params();
    let work = Synthetic::new(
        &SyntheticPattern::Uniform,
        0.6,
        params.duration_ns,
        params.warmup_ns,
    );
    let obs = Observers {
        ledger,
        ..Observers::default()
    };
    // One shard: the overhead is measured on the serial engine.
    let cfg = SimConfig {
        shards: 1,
        ..params.sim
    };
    run(net, policy, &work, cfg, obs).unwrap().stats
}

fn bench_decision_overhead(c: &mut Criterion) {
    let net = &bench_topologies()[0];
    let policy = RoutePolicy::new(
        net,
        Algorithm::Ugal {
            n_i: 4,
            c: 2.0,
            threshold: None,
        },
    );
    let mut g = c.benchmark_group("decision_overhead");
    g.sample_size(10);
    g.bench_function("unledgered", |b| {
        b.iter(|| black_box(sweep_point(net, &policy, None)))
    });
    g.bench_function("aggregates_only", |b| {
        b.iter(|| {
            black_box(sweep_point(
                net,
                &policy,
                Some(LedgerConfig {
                    sample_rate: 0,
                    ..LedgerConfig::default()
                }),
            ))
        })
    });
    g.bench_function("samples/rate=16", |b| {
        b.iter(|| black_box(sweep_point(net, &policy, Some(LedgerConfig::default()))))
    });
    g.finish();

    // The zero-overhead contract is about *results*, and that part is
    // exact: the ledger must never perturb the simulation.
    let plain = sweep_point(net, &policy, None);
    let ledgered = sweep_point(net, &policy, Some(LedgerConfig::default()));
    assert_eq!(plain, ledgered, "the ledger perturbed the simulated stats");
}

criterion_group!(benches, bench_decision_overhead);
criterion_main!(benches);
