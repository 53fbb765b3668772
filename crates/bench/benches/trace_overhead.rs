//! Trace-overhead group: the same sweep point run untraced, with
//! tracing disabled (no recorder attached — the production path), with
//! phase-only tracing, and with flight recording at the default rate.
//! The first two must be indistinguishable (the recorder is an
//! `Option` behind one branch per hook site), which the stats gate at
//! the bottom pins exactly: byte-identical results traced or not.

use criterion::{criterion_group, criterion_main, Criterion};
use d2net_bench::{bench_params, bench_topologies};
use d2net_core::prelude::*;
use std::hint::black_box;

fn sweep_point(net: &Network, policy: &RoutePolicy, trace: Option<TraceConfig>) -> SyntheticStats {
    let params = bench_params();
    let work = Synthetic::new(
        &SyntheticPattern::Uniform,
        0.6,
        params.duration_ns,
        params.warmup_ns,
    );
    let obs = Observers {
        trace,
        ..Observers::default()
    };
    // One shard: the overhead is measured on the serial engine.
    let cfg = SimConfig {
        shards: 1,
        ..params.sim
    };
    run(net, policy, &work, cfg, obs).unwrap().stats
}

fn bench_trace_overhead(c: &mut Criterion) {
    let net = &bench_topologies()[0];
    let policy = RoutePolicy::new(net, Algorithm::Minimal);
    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(10);
    g.bench_function("untraced", |b| {
        b.iter(|| black_box(sweep_point(net, &policy, None)))
    });
    g.bench_function("phase_only", |b| {
        b.iter(|| {
            black_box(sweep_point(
                net,
                &policy,
                Some(TraceConfig {
                    sample_rate: 0,
                    phase_only: true,
                    ..TraceConfig::default()
                }),
            ))
        })
    });
    g.bench_function("flights/rate=64", |b| {
        b.iter(|| {
            black_box(sweep_point(
                net,
                &policy,
                Some(TraceConfig::default()),
            ))
        })
    });
    g.finish();

    // The zero-overhead contract is about *results*, and that part is
    // exact: tracing must never perturb the simulation.
    let plain = sweep_point(net, &policy, None);
    let traced = sweep_point(net, &policy, Some(TraceConfig::default()));
    assert_eq!(plain, traced, "tracing perturbed the simulated stats");
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
