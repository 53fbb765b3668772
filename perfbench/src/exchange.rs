//! `exchange_a2a`: the Fig. 13 all-to-all, serially, per repetition.
//!
//! Every node sends 7.5 KB (the paper's size) to every other node in a
//! seeded, per-node shuffled order, under MIN, INR and the best UGAL-L
//! of each family, on the small MLFM(h=4) and OFT(k=4). Messages drain
//! to completion and the state stays cache-resident, so this workload
//! moves with routing and injector changes, not with CORAL locality.

use std::time::Instant;

use d2net_core::analysis::TrafficMatrix;
use d2net_core::prelude::*;
use d2net_core::traffic::{all_to_all_shuffled, Exchange};

use crate::checks::{completion_at_least, delivered_all, throughput_within, ExchangeTotals};
use crate::timing::{repeat, Clock};
use crate::{counters_only, Outcome};

/// Bytes each node sends each other node (paper §4.4, Fig. 13).
const BYTES_PER_PAIR: u64 = 7_500;
/// Messages in flight per node, as `fig13` runs them.
const WINDOW: usize = 1;

struct Config {
    net: Network,
    exchange: Exchange,
    /// MIN, INR, UGAL-L, in that order.
    policies: Vec<RoutePolicy>,
    totals: ExchangeTotals,
}

pub fn run(seed: u64, seconds: f64, clock: &mut Clock, start: Instant) -> Outcome {
    let mut o = Outcome::default();
    let sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let nets = clock.span("topo_build_s", || vec![mlfm(4), oft(4)]);
    let configs: Vec<Config> = nets
        .into_iter()
        .map(|net| {
            let exchange = clock.span("exchange_build_s", || {
                all_to_all_shuffled(net.num_nodes(), BYTES_PER_PAIR, seed)
            });
            let policies = clock.span("route_tables_s", || {
                [
                    Algorithm::Minimal,
                    Algorithm::Valiant,
                    best_adaptive(&net).1,
                ]
                .into_iter()
                .map(|a| RoutePolicy::new(&net, a))
                .collect()
            });
            let totals = ExchangeTotals::from_messages(&exchange.sends, sim.packet_bytes);
            Config {
                net,
                exchange,
                policies,
                totals,
            }
        })
        .collect();
    o.set("setup_s", start.elapsed().as_secs_f64());

    let reps = repeat(clock, seconds, |c| {
        let mut out = Vec::new();
        for cfg in &configs {
            for policy in &cfg.policies {
                out.push(c.span("engine_s", || {
                    run_exchange(&cfg.net, policy, &cfg.exchange, WINDOW, sim)
                }));
            }
        }
        out
    });
    let per_rep = reps.output.len() as u64;
    let failed = reps.output.iter().filter(|s| s.deadlocked).count() as u64;
    o.set_reps(&reps, per_rep, failed);

    let lat = LatencyModel::paper_default();
    let mut sums = [0.0f64; 4];
    for (cfg, stats) in configs.iter().zip(reps.output.chunks(3)) {
        let name = cfg.net.name();
        let (uniform, inr) = clock.span("oracle_s", || {
            let tm = TrafficMatrix::from_exchange(&cfg.net, &cfg.exchange, "a2a")
                .expect("exchange covers the network");
            let uni = TrafficMatrix::uniform(&cfg.net).expect("uniform");
            (
                analyze_policy(&cfg.net, &cfg.policies[0], &uni, &lat).expect("pristine network"),
                analyze_policy(&cfg.net, &cfg.policies[1], &tm, &lat).expect("pristine network"),
            )
        });
        for (s, algo) in stats.iter().zip(["MIN", "INR", "UGAL-L"]) {
            let label = format!("{name} {algo}");
            o.check(delivered_all(
                &label,
                s.delivered_bytes,
                s.delivered_packets,
                &cfg.totals,
            ));
            o.check(completion_at_least(
                &label,
                s.completion_ns,
                cfg.totals.max_node_bytes,
                sim.ps_per_byte(),
            ));
        }
        o.check(throughput_within(
            &format!("{name} INR"),
            stats[1].effective_throughput,
            1.0,
            inr.saturation_hi,
        ));
        sums[0] += uniform.saturation_hi;
        sums[1] += stats[0].avg_delay_ns;
        sums[2] += stats[0].effective_throughput;
        sums[3] += stats[2].effective_throughput;
    }
    let n = configs.len() as f64;
    o.set("sat_throughput", sums[0] / n);
    o.set("mean_delay_ns", sums[1] / n);
    o.set("a2a_throughput", sums[2] / n);
    o.set("a2a_adaptive_throughput", sums[3] / n);

    if clock.traced() {
        let mut packets = 0u64;
        for cfg in &configs {
            for policy in &cfg.policies {
                let (stats, trace) = run_exchange_traced(
                    &cfg.net,
                    policy,
                    &cfg.exchange,
                    WINDOW,
                    sim,
                    counters_only(),
                );
                o.add_counters(&trace.counters);
                packets += stats.delivered_packets;
            }
        }
        // The exchange runners return no decision ledger; UGAL-L decides
        // once per packet whose endpoints sit on different routers, and
        // the engine counts the packets it sent indirectly.
        let (mut decisions, mut misroutes) = (0u64, 0u64);
        for (cfg, stats) in configs.iter().zip(reps.output.chunks(3)) {
            let net = &cfg.net;
            for (src, list) in cfg.exchange.sends.iter().enumerate() {
                for m in list
                    .iter()
                    .filter(|m| net.node_router(m.dst) != net.node_router(src as u32))
                {
                    decisions += m.bytes.div_ceil(sim.packet_bytes as u64);
                }
            }
            misroutes += stats[2].indirect_packets;
        }
        let engine_s = clock.per_rep("engine_s");
        o.set("engine_s", engine_s);
        o.set("events_per_s", o.metrics["events_popped"] / engine_s);
        o.set("packets_per_s", packets as f64 / engine_s);
        o.set("ugal_decisions", decisions as f64);
        o.set("ugal_misroutes", misroutes as f64);
        o.set("topo_build_s", clock.once("topo_build_s"));
        o.set("route_tables_s", clock.once("route_tables_s"));
        o.set("exchange_build_s", clock.once("exchange_build_s"));
        o.set("oracle_s", clock.once("oracle_s"));
    }
    o
}
