//! Wall-clock timing of the serial engine vs the intra-run sharded
//! engine — the machinery behind `BENCH_engine.json` (schema
//! `d2net.bench-engine/v1`).
//!
//! Where `BENCH_sweep.json` measures *point-level* parallelism (many
//! independent runs), this measures *shard-level* parallelism inside a
//! single run (DESIGN.md §14): the same (topology, load) case is run
//! once through the serial engine and once per requested shard count
//! through [`run_synthetic_sharded_traced`], asserting identical
//! [`SyntheticStats`] and event totals every time (the determinism
//! gate), and recording events/second for each. Cases come in two
//! tiers: the reduced evaluation instances (~400-600 nodes) and the
//! paper's §4.1 CORAL-class instances (~3.0-3.6 K nodes), where
//! single-run parallelism is the only way to shorten one long run.

use std::time::Instant;

use d2net_core::prelude::*;

/// One timed engine case: a single (topology, routing, pattern, load)
/// run plus the horizon to run it over.
pub struct EngineCase {
    /// Case label (e.g. `"SF(q=13,p=9)"`).
    pub name: String,
    /// Scale tier label: `"reduced"` or `"coral"`.
    pub tier: String,
    pub net: Network,
    pub algo: Algorithm,
    pub pattern: SyntheticPattern,
    pub load: f64,
    pub duration_ns: u64,
    pub warmup_ns: u64,
    pub sim: SimConfig,
}

/// Wall-clock and throughput of one engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineTiming {
    /// Shard count (0 = the serial engine, no coordinator at all).
    pub shards: u32,
    pub wall_ms: f64,
    /// Events popped per wall-clock second.
    pub events_per_sec: f64,
}

/// A timed case's outcome: the serial baseline plus one entry per
/// sharded configuration, all byte-identical in simulation output.
pub struct TimedEngine {
    pub name: String,
    pub tier: String,
    pub num_nodes: u32,
    pub num_routers: u32,
    /// Engine events popped by the run (identical across all rows).
    pub events: u64,
    pub serial: EngineTiming,
    pub sharded: Vec<EngineTiming>,
}

impl TimedEngine {
    /// Speedup of the `shards`-way row over the serial baseline.
    pub fn speedup(&self, shards: u32) -> Option<f64> {
        self.sharded
            .iter()
            .find(|t| t.shards == shards)
            .map(|t| self.serial.wall_ms / t.wall_ms)
    }

    /// The best speedup over the serial baseline across all rows.
    pub fn best_speedup(&self) -> f64 {
        self.sharded
            .iter()
            .map(|t| self.serial.wall_ms / t.wall_ms)
            .fold(0.0, f64::max)
    }
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

/// The default benchmark set: SF, MLFM and OFT at the reduced
/// evaluation scale and at the paper's CORAL-class §4.1 scale, under
/// minimal routing and uniform traffic at mid load.
///
/// `D2NET_BENCH_DURATION_NS` shrinks both tiers for CI smoke (warm-up
/// is a fifth of it, mirroring `RunParams::for_scale`).
pub fn default_engine_cases() -> Vec<EngineCase> {
    let reduced_ns = env_u64("D2NET_BENCH_DURATION_NS").unwrap_or(60_000);
    let coral_ns = env_u64("D2NET_BENCH_DURATION_NS").unwrap_or(40_000);
    let mk = |tier: &str, net: Network, duration_ns: u64| EngineCase {
        name: net.name().to_string(),
        tier: tier.into(),
        net,
        algo: Algorithm::Minimal,
        pattern: SyntheticPattern::Uniform,
        load: 0.5,
        duration_ns,
        warmup_ns: duration_ns / 5,
        sim: SimConfig::default(),
    };
    vec![
        mk("reduced", slim_fly(7, SlimFlyP::Floor), reduced_ns),
        mk("reduced", mlfm(8), reduced_ns),
        mk("reduced", oft(6), reduced_ns),
        mk("coral", slim_fly(13, SlimFlyP::Floor), coral_ns),
        mk("coral", mlfm(15), coral_ns),
        mk("coral", oft(12), coral_ns),
    ]
}

/// The shard counts every case is timed at, per the benchmark layout:
/// a 1-shard run (the coordinator's serial fallback, measuring pure
/// overhead) through 8 shards.
pub const BENCH_SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// A trace that records only counters — the cheap way to count events.
fn counters_only() -> TraceConfig {
    TraceConfig {
        phase_only: true,
        ..TraceConfig::default()
    }
}

/// Runs `case` through the serial engine and through each sharded
/// configuration, asserting identical simulation output every time,
/// and returns the wall-clocks.
pub fn time_engine_case(case: &EngineCase, shard_counts: &[u32]) -> TimedEngine {
    let policy = RoutePolicy::new(&case.net, case.algo);

    let t0 = Instant::now();
    let (serial_stats, serial_trace) = run(
        &case.net,
        &policy,
        &Synthetic::new(&case.pattern, case.load, case.duration_ns, case.warmup_ns),
        SimConfig {
            shards: 1,
            ..case.sim
        },
        Observers::traced(counters_only()),
    )
    .map(|r| (r.stats, r.trace.expect("trace was attached")))
    .unwrap();
    let serial_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    let events = serial_trace.counters.events_popped;

    let mut sharded = Vec::with_capacity(shard_counts.len());
    for &k in shard_counts {
        let mut cfg = case.sim;
        cfg.shards = k;
        let t1 = Instant::now();
        let (stats, trace) = run_synthetic_sharded_traced(
            &case.net,
            &policy,
            &case.pattern,
            case.load,
            case.duration_ns,
            case.warmup_ns,
            cfg,
            counters_only(),
        );
        let wall_ms = t1.elapsed().as_secs_f64() * 1_000.0;
        // The determinism gate: sharding must not change the simulation.
        assert_eq!(
            stats, serial_stats,
            "{}-shard run diverged from serial on {}",
            k, case.name
        );
        assert_eq!(
            trace.counters.events_popped, events,
            "{}-shard run popped a different event count on {}",
            k, case.name
        );
        sharded.push(EngineTiming {
            shards: k,
            wall_ms,
            events_per_sec: events as f64 / (wall_ms / 1_000.0),
        });
    }

    TimedEngine {
        name: case.name.clone(),
        tier: case.tier.clone(),
        num_nodes: case.net.num_nodes(),
        num_routers: case.net.num_routers(),
        events,
        serial: EngineTiming {
            shards: 0,
            wall_ms: serial_ms,
            events_per_sec: events as f64 / (serial_ms / 1_000.0),
        },
        sharded,
    }
}

/// Serializes timed cases into the `BENCH_engine.json` document.
pub fn bench_engine_json(results: &[TimedEngine]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("d2net.bench-engine/v1");
    w.key("units").begin_object();
    w.key("wall_clock").string("ms");
    w.key("rate").string("engine events per second");
    w.end_object();
    w.key("cases").begin_array();
    for r in results {
        w.begin_object();
        w.key("name").string(&r.name);
        w.key("tier").string(&r.tier);
        w.key("num_nodes").u64(r.num_nodes as u64);
        w.key("num_routers").u64(r.num_routers as u64);
        w.key("events").u64(r.events);
        w.key("serial_ms").f64(r.serial.wall_ms);
        w.key("serial_events_per_sec").f64(r.serial.events_per_sec);
        w.key("sharded").begin_array();
        for t in &r.sharded {
            w.begin_object();
            w.key("shards").u64(t.shards as u64);
            w.key("wall_ms").f64(t.wall_ms);
            w.key("events_per_sec").f64(t.events_per_sec);
            w.key("speedup").f64(r.serial.wall_ms / t.wall_ms);
            w.end_object();
        }
        w.end_array();
        w.key("best_speedup").f64(r.best_speedup());
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// One-line human rendering of a timed case for the binary's stdout.
pub fn render_engine_row(r: &TimedEngine) -> String {
    let mut row = format!(
        "{:16} {:7} | {:9} | {:9.1}",
        r.name, r.tier, r.events, r.serial.wall_ms
    );
    for t in &r.sharded {
        row.push_str(&format!(
            " | {}sh {:8.1} ({:4.2}x)",
            t.shards,
            t.wall_ms,
            r.serial.wall_ms / t.wall_ms
        ));
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_engine_case_gates_and_serializes() {
        let net = slim_fly(5, SlimFlyP::Floor);
        let case = EngineCase {
            name: net.name().to_string(),
            tier: "reduced".into(),
            net,
            algo: Algorithm::Minimal,
            pattern: SyntheticPattern::Uniform,
            load: 0.4,
            duration_ns: 12_000,
            warmup_ns: 2_400,
            sim: SimConfig::default(),
        };
        let timed = time_engine_case(&case, &[1, 2]);
        assert!(timed.events > 0);
        assert_eq!(timed.sharded.len(), 2);
        assert_eq!(timed.serial.shards, 0);
        assert!(timed.speedup(2).is_some());
        assert!(timed.speedup(3).is_none());

        let doc = bench_engine_json(&[timed]);
        assert!(doc.contains("\"schema\":\"d2net.bench-engine/v1\""));
        assert!(doc.contains("\"tier\":\"reduced\""));
        assert!(doc.contains("\"best_speedup\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }
}
