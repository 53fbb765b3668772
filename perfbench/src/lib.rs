//! End-to-end and per-layer benchmark of the d2net workspace.
//!
//! Three closed-loop workloads drive the program through its public
//! entry points, one request or exchange at a time: a CORAL-scale
//! supervised sweep ([`sweep`]), the Fig. 13 all-to-all exchanges
//! ([`exchange`]), and CORAL certification ([`certify`]). Each checks
//! its outputs against values computed apart from the simulator
//! ([`checks`]). README.md lists the inputs, metrics and seeds.

pub mod certify;
pub mod checks;
pub mod exchange;
pub mod sweep;
pub mod timing;

use std::collections::BTreeMap;

use checks::Check;
use d2net_core::prelude::{HotCounters, TraceConfig};

/// End-to-end metrics, `(name, unit)`, printed by an untraced run. The
/// runner script adds `peak_rss_mb`, which only the parent process can
/// measure.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sat_throughput", "fraction"),
    ("mean_delay_ns", "ns"),
    ("a2a_throughput", "fraction"),
    ("a2a_adaptive_throughput", "fraction"),
];

/// Per-layer metrics, `(name, unit)`, printed by a traced run. A layer
/// the workload does not call reads 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("topo_build_s", "s"),
    ("route_tables_s", "s"),
    ("traffic_build_s", "s"),
    ("exchange_build_s", "s"),
    ("verify_s", "s"),
    ("verify_ugal_s", "s"),
    ("oracle_s", "s"),
    ("engine_s", "s"),
    ("events_per_s", "1/s"),
    ("packets_per_s", "1/s"),
    ("events_popped", "count"),
    ("events_scheduled", "count"),
    ("in_q_pushes", "count"),
    ("out_q_pushes", "count"),
    ("blocked_entries", "count"),
    ("ring_pushes", "count"),
    ("drain_pushes", "count"),
    ("overflow_pushes", "count"),
    ("days_collected", "count"),
    ("ugal_decisions", "count"),
    ("ugal_misroutes", "count"),
    ("harness_s", "s"),
    ("shard_speedup", "ratio"),
    ("journal_append_s", "s"),
    ("journal_bytes", "bytes"),
    ("manifest_encode_s", "s"),
    ("manifest_bytes", "bytes"),
    ("run_s_traced", "s"),
    ("trace_overhead", "ratio"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed repetitions.
    pub attempted: u64,
    /// Of those, the operations that failed.
    pub failed: u64,
    /// Checks that did not hold; any entry makes the run incorrect.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn check(&mut self, result: Check) {
        if let Err(e) = result {
            self.violations.push(e);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records the repetition loop's counts and host times: `run_s` is
    /// the median untraced repetition, and a traced run also gets the
    /// median traced one and their ratio.
    pub fn set_reps<O>(&mut self, reps: &timing::Reps<O>, ops_per_rep: u64, failed_per_rep: u64) {
        let n = reps.count() as u64;
        self.attempted = n * ops_per_rep;
        self.failed = n * failed_per_rep;
        if reps.mismatches > 0 {
            self.violations.push(format!(
                "{} of {n} repetitions differ from the warm-up repetition",
                reps.mismatches
            ));
        }
        let run_s = timing::median(&reps.untraced_s);
        self.set("run_s", run_s);
        if !reps.traced_s.is_empty() {
            let traced = timing::median(&reps.traced_s);
            self.set("run_s_traced", traced);
            self.set("trace_overhead", traced / run_s);
        }
    }

    /// Adds an engine trace's hot-path counters.
    pub fn add_counters(&mut self, c: &HotCounters) {
        let cal = c.calendar.unwrap_or_default();
        for (name, v) in [
            ("events_popped", c.events_popped),
            ("events_scheduled", c.events_scheduled),
            ("in_q_pushes", c.in_q_pushes),
            ("out_q_pushes", c.out_q_pushes),
            ("blocked_entries", c.blocked_entries),
            ("ring_pushes", cal.ring_pushes),
            ("drain_pushes", cal.drain_pushes),
            ("overflow_pushes", cal.overflow_pushes),
            ("days_collected", cal.days_collected),
        ] {
            *self.metrics.entry(name).or_insert(0.0) += v as f64;
        }
    }

    /// The result line: `metrics` holds the end-to-end set, or the
    /// per-layer set when `traced`. A missing end-to-end metric or a
    /// non-finite value makes the run incorrect.
    pub fn to_json(&mut self, traced: bool) -> String {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for &(name, unit) in names {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => {
                    self.violations
                        .push(format!("workload did not produce metric {name}"));
                    continue;
                }
            };
            if !value.is_finite() {
                self.violations
                    .push(format!("metric {name} is not finite: {value}"));
                continue;
            }
            fields.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            fields.join(",")
        )
    }
}

/// A trace that keeps only phase spans and counters, no packet flights.
pub fn counters_only() -> TraceConfig {
    TraceConfig {
        phase_only: true,
        ..TraceConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric_of_its_set() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.to_json(false);
        assert!(line.starts_with("{\"correct\":true,"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":1.5,\"unit\":\"{unit}\"}}")));
        }
        let traced = o.to_json(true);
        assert!(traced.contains("\"events_popped\":{\"value\":0,"));
        assert!(!traced.contains("sat_throughput"));
    }

    #[test]
    fn missing_or_non_finite_metric_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.set("run_s", f64::NAN);
        assert!(o.to_json(false).starts_with("{\"correct\":false,"));
    }
}
