//! Plain-text rendering of experiment data — the "same rows/series the
//! paper reports", printable from the `paper_figures` example — plus the
//! self-describing JSON run manifest ([`RunManifest`]).

use crate::experiment::{Curve, ExchangeRow};
use d2net_analysis::ScaleRow;
use d2net_routing::Algorithm;
use d2net_sim::{
    ledger_metrics, sweep_metrics, DecisionSample, LedgerConfig, MetricValue, MetricsRegistry,
    PointLedger, PointTrace, PortHeat, SimConfig, SweepNotice, TraceConfig, LEDGER_TOP_N,
    MARGIN_BOUNDS_BYTES,
};
use d2net_topo::Network;
use d2net_verify::VerifySummary;
use std::cmp::Ordering;

/// The `"sharding"` section of a [`RunManifest`]: how one thread budget
/// was split between point-level workers and intra-run shards (see
/// `d2net_sim::shard`). Recorded for forensics only; every simulated
/// result is byte-identical to an unsharded run's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardingManifest {
    /// Intra-run shard count every sweep point ran with (1 = serial).
    pub shards: u32,
    /// Point-level sweep workers running concurrently.
    pub point_workers: u32,
    /// Total thread budget the split started from.
    pub thread_budget: u32,
}

/// The `"supervision"` section of a [`RunManifest`]: per-category point
/// accounting from a supervised sweep (see `d2net_sim::supervise`) plus
/// the journal's replay record. Emitted only when the run had something
/// to report ([`SupervisionManifest::is_trivial`]) so clean supervised
/// manifests stay byte-identical to unsupervised ones; the serve-smoke
/// CI gate strips the section before comparing resumed against
/// uninterrupted manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SupervisionManifest {
    /// Points simulated to a real result this run (wedges included).
    pub completed: u32,
    /// Points that succeeded only after at least one retry.
    pub retried: u32,
    /// Points whose final outcome (after retries) was budget exhaustion.
    pub exhausted: u32,
    /// Points whose final outcome (after retries) was an isolated panic.
    pub panicked: u32,
    /// Points replayed from the resume journal instead of simulated.
    pub skipped_by_resume: u32,
    /// Points never started because the stop signal fired first.
    pub not_run: u32,
    /// Truncated or garbage trailing journal lines skipped on replay.
    pub journal_lines_skipped: u32,
}

impl SupervisionManifest {
    /// True when there is nothing beyond plain completions to report —
    /// the condition under which [`RunManifest::to_json`] omits the
    /// section entirely.
    pub fn is_trivial(&self) -> bool {
        self.retried == 0
            && self.exhausted == 0
            && self.panicked == 0
            && self.skipped_by_resume == 0
            && self.not_run == 0
            && self.journal_lines_skipped == 0
    }
}

/// One point of a resilience sweep in the manifest's `"faults"` section:
/// the degradation level and what it did to routing and traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPointRecord {
    /// Failed fraction of the network's links.
    pub fraction: f64,
    pub failed_links: u32,
    pub failed_routers: u32,
    /// Ordered endpoint-router pairs the repaired tables cannot connect.
    pub unreachable_pairs: u64,
    /// Whether the verifier certified the repaired configuration.
    pub certified: bool,
    pub dropped_packets: u64,
    pub retried_packets: u64,
}

/// The `"faults"` section of a [`RunManifest`]: one record per simulated
/// failure fraction of a resilience sweep (see
/// [`crate::resilience::resilience_sweep`]). Only emitted when the
/// campaign actually injected faults — pristine manifests carry no
/// `"faults"` key at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultsManifest {
    pub points: Vec<FaultPointRecord>,
}

/// The `"trace"` section of a [`RunManifest`]: the metrics-registry
/// snapshot of a traced campaign (see [`d2net_sim::sweep_metrics`]).
/// Like `"faults"`, the key is only emitted when the campaign actually
/// traced — the CI trace-smoke gate greps for its presence.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceManifest {
    /// Flight sampling rate the campaign traced with (1-in-N, 0 = off).
    pub sample_rate: u32,
    /// Whether flight recording was suppressed (`--phase-only`).
    pub phase_only: bool,
    pub metrics: MetricsRegistry,
}

impl TraceManifest {
    /// Snapshots the aggregate metrics of a traced sweep's points.
    pub fn from_points(cfg: TraceConfig, points: &[PointTrace]) -> Self {
        TraceManifest {
            sample_rate: cfg.sample_rate,
            phase_only: cfg.phase_only,
            metrics: sweep_metrics(points),
        }
    }
}

/// The `"decisions"` section of a [`RunManifest`]: the routing-decision
/// forensics of a ledgered adaptive campaign. Carries the summary
/// metrics registry (see [`d2net_sim::ledger_metrics`]) plus the full
/// per-point ledgers: exact per-router misroute tables, divergence
/// margin histograms, the hottest ports at decision time, and the
/// highest-|margin| sampled [`DecisionRecord`](d2net_routing::DecisionRecord)s
/// with every candidate they costed. Like `"faults"` and `"trace"`, the
/// key only appears when the campaign actually ran with a ledger — the
/// CI decision-smoke gate greps for its presence.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionsManifest {
    /// Flight sampling rate the ledger ran with (1-in-N, 0 = off).
    pub sample_rate: u32,
    /// Hard cap on retained full records per point.
    pub max_samples: usize,
    pub metrics: MetricsRegistry,
    pub points: Vec<PointLedger>,
}

impl DecisionsManifest {
    /// Snapshots the ledgers of a ledgered sweep's points.
    pub fn from_points(cfg: LedgerConfig, points: &[PointLedger]) -> Self {
        DecisionsManifest {
            sample_rate: cfg.sample_rate,
            max_samples: cfg.max_samples,
            metrics: ledger_metrics(points),
            points: points.to_vec(),
        }
    }
}

/// One row of the `"analysis"` section: the static oracle's verdict for
/// one (traffic matrix, routing envelope) pair, flattened from
/// [`d2net_analysis::OracleReport`] (the per-link load vector stays in
/// memory; the manifest carries the aggregates downstream tooling
/// diffs).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisPrediction {
    /// Label of the analyzed traffic matrix (e.g. `uniform`).
    pub traffic: String,
    /// Stable algorithm label (`minimal`, `valiant`, `ugal`, `ugal_g`).
    pub algorithm: String,
    /// Envelope edge this row describes (`minimal` or `all_indirect`).
    pub envelope: String,
    /// Hottest directed link, node-injection-rate units at load 1.0.
    pub max_link_load: f64,
    /// Mean load over links carrying any traffic.
    pub mean_link_load: f64,
    /// Directed links carrying traffic.
    pub loaded_links: u64,
    /// Predicted saturation throughput per node (capped at 1).
    pub predicted_saturation: f64,
    /// Per-flow bottleneck estimate of mean accepted throughput.
    pub predicted_mean_throughput: f64,
    /// Demand-weighted mean router-router hops over delivered demand.
    pub mean_hops: f64,
    /// Demand-weighted zero-load latency, ns.
    pub zero_load_latency_ns: f64,
    /// Fraction of demand with no surviving route.
    pub unreachable_fraction: f64,
    /// Router ports (network + endpoint) per end-node.
    pub cost_ports_per_node: f64,
    /// Ports per node divided by predicted saturation.
    pub cost_per_unit_throughput: f64,
}

impl AnalysisPrediction {
    /// Flattens one oracle report under its policy's stable label.
    pub fn from_report(algorithm: &str, r: &d2net_analysis::OracleReport) -> Self {
        AnalysisPrediction {
            traffic: r.traffic.clone(),
            algorithm: algorithm.to_string(),
            envelope: r.envelope.name().to_string(),
            max_link_load: r.max_link_load,
            mean_link_load: r.mean_link_load,
            loaded_links: r.loaded_links as u64,
            predicted_saturation: r.predicted_saturation,
            predicted_mean_throughput: r.predicted_mean_throughput,
            mean_hops: r.mean_hops,
            zero_load_latency_ns: r.zero_load_latency_ns,
            unreachable_fraction: r.unreachable_fraction,
            cost_ports_per_node: r.cost_ports_per_node,
            cost_per_unit_throughput: r.cost_per_unit_throughput,
        }
    }
}

/// Outcome of cross-checking the static predictions against a measured
/// sweep (see [`crate::divergence`]): did the measured saturation land
/// inside the predicted envelope, and how far do per-link static loads
/// stray from telemetry utilizations at the probe load.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceSummary {
    /// Traffic matrix the gate compared under.
    pub traffic: String,
    /// Lower edge of the predicted saturation envelope.
    pub predicted_saturation_lo: f64,
    /// Upper edge of the predicted saturation envelope.
    pub predicted_saturation_hi: f64,
    /// Peak accepted throughput over the sweep's non-deadlocked points.
    pub measured_saturation: f64,
    /// Distance from the measured value to the envelope (0 inside).
    pub saturation_gap: f64,
    /// Tolerance the gate allowed beyond the envelope edges.
    pub tolerance: f64,
    /// Whether the measured saturation fell within envelope ± tolerance.
    pub passed: bool,
    /// Offered load of the telemetry point used for link residuals
    /// (0 when no telemetry point was available).
    pub probe_load: f64,
    /// Directed links with both a static load and a telemetry sample.
    pub links_compared: u64,
    /// Mean |measured − predicted| link utilization at the probe load.
    pub mean_abs_residual: f64,
    /// Largest |measured − predicted| link utilization.
    pub max_abs_residual: f64,
    /// Source router of the worst-residual directed link.
    pub max_residual_router: u32,
    /// Next-hop router of the worst-residual directed link.
    pub max_residual_next: u32,
}

/// The `"analysis"` section of a [`RunManifest`]: the analytic oracle's
/// static channel-load predictions for the campaign's configuration,
/// plus the measured-vs-predicted divergence verdict when a sweep was
/// cross-checked. Like `"faults"`/`"trace"`/`"decisions"`, the key only
/// appears when the campaign ran the oracle — the CI analysis-smoke
/// gate greps for its presence.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisManifest {
    /// One row per (traffic, envelope edge) the oracle evaluated.
    pub predictions: Vec<AnalysisPrediction>,
    /// Cross-check against a measured sweep, when one ran.
    pub divergence: Option<DivergenceSummary>,
}

impl AnalysisManifest {
    /// Flattens a policy analysis into manifest rows (one per envelope
    /// edge), with no divergence verdict yet.
    pub fn from_policy(pa: &d2net_analysis::PolicyAnalysis) -> Self {
        AnalysisManifest {
            predictions: pa
                .reports
                .iter()
                .map(|r| AnalysisPrediction::from_report(pa.algorithm, r))
                .collect(),
            divergence: None,
        }
    }
}

/// Renders the Fig. 3 scale table.
pub fn render_fig3(rows: &[ScaleRow]) -> String {
    let mut s = String::new();
    s.push_str("radix |   2D-HyperX |    Slim Fly |   2-lvl FT |    3-lvl FT |        MLFM |         OFT\n");
    s.push_str("------+-------------+-------------+------------+-------------+-------------+------------\n");
    for r in rows {
        s.push_str(&format!(
            "{:5} | {:11} | {:11} | {:10} | {:11} | {:11} | {:11}\n",
            r.radix, r.hyperx2, r.slim_fly, r.fat_tree2, r.fat_tree3, r.mlfm, r.oft
        ));
    }
    s
}

/// Renders Fig. 4 bisection rows `(family, N, per-node)`.
pub fn render_fig4(rows: &[(String, u32, f64)]) -> String {
    let mut s = String::from("family       |     N | bisection b/node\n");
    s.push_str("-------------+-------+-----------------\n");
    for (family, n, b) in rows {
        s.push_str(&format!("{family:12} | {n:5} | {b:.3}\n"));
    }
    s
}

/// Renders throughput/delay curves (Figs. 6-12): one block per curve,
/// one `load throughput delay` row per point.
pub fn render_curves(curves: &[Curve]) -> String {
    let mut s = String::new();
    for c in curves {
        s.push_str(&format!("# {}\n", c.label));
        s.push_str("load  | accepted | avg delay (ns)\n");
        for p in &c.points {
            s.push_str(&format!(
                "{:5.2} | {:8.4} | {:10.1}{}\n",
                p.load,
                p.stats.throughput,
                p.stats.avg_delay_ns,
                if p.stats.deadlocked { "  [DEADLOCK]" } else { "" }
            ));
        }
        s.push('\n');
    }
    s
}

/// Renders exchange comparisons (Figs. 13/14).
pub fn render_exchange(rows: &[ExchangeRow]) -> String {
    let mut s = String::from("topology                 | routing            | eff.thr | completion (us)\n");
    s.push_str("-------------------------+--------------------+---------+----------------\n");
    for r in rows {
        s.push_str(&format!(
            "{:24} | {:18} | {:7.3} | {:12.1}{}\n",
            r.topology,
            r.routing,
            r.stats.effective_throughput,
            r.stats.completion_ns as f64 / 1_000.0,
            if r.stats.deadlocked { "  [DEADLOCK]" } else { "" }
        ));
    }
    s
}

/// Renders the ML3B table (Table 2).
pub fn render_table2(table: &[Vec<u64>]) -> String {
    let mut s = String::from("i  | j, s.t. (1,j) and (0,i) are connected\n");
    s.push_str("---+--------------------------------------\n");
    for (i, row) in table.iter().enumerate() {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:2}")).collect();
        s.push_str(&format!("{i:2} | {}\n", cells.join(" ")));
    }
    s
}

/// Minimal hand-rolled JSON emitter (the workspace carries no serde).
/// Keys/values are written in call order; comma placement and string
/// escaping are handled here, nesting is tracked with a stack.
pub struct JsonWriter {
    out: String,
    /// One entry per open container: whether an item was already written
    /// at that level (so the next one needs a comma).
    has_item: Vec<bool>,
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonWriter {
    pub fn new() -> Self {
        JsonWriter {
            out: String::new(),
            has_item: vec![false],
        }
    }

    fn comma(&mut self) {
        if let Some(top) = self.has_item.last_mut() {
            if *top {
                self.out.push(',');
            }
            *top = true;
        }
    }

    /// Writes `"key":` (inside an object, before the value call).
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.comma();
        d2net_sim::obs::escape_into(&mut self.out, k);
        self.out.push(':');
        // The upcoming value must not get its own comma.
        if let Some(top) = self.has_item.last_mut() {
            *top = false;
        }
        self
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.comma();
        self.out.push('{');
        self.has_item.push(false);
        self
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.has_item.pop();
        self.out.push('}');
        if let Some(top) = self.has_item.last_mut() {
            *top = true;
        }
        self
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.comma();
        self.out.push('[');
        self.has_item.push(false);
        self
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.has_item.pop();
        self.out.push(']');
        if let Some(top) = self.has_item.last_mut() {
            *top = true;
        }
        self
    }

    pub fn string(&mut self, v: &str) -> &mut Self {
        self.comma();
        d2net_sim::obs::escape_into(&mut self.out, v);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.comma();
        self.out.push_str(&v.to_string());
        self
    }

    /// Finite floats print with up to 6 significant decimals; NaN and
    /// infinities become `null` (JSON has no encoding for them).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.comma();
        if v.is_finite() {
            self.out.push_str(&format!("{v:.6}"));
        } else {
            self.out.push_str("null");
        }
        self
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.comma();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn null(&mut self) -> &mut Self {
        self.comma();
        self.out.push_str("null");
        self
    }

    /// Splices a pre-serialized JSON value verbatim — the embedding hook
    /// for composite documents (e.g. a `bench_diff` history record
    /// carrying a `perfbench` result line). The caller vouches that
    /// `json` is a complete, valid JSON value.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.comma();
        self.out.push_str(json);
        self
    }

    pub fn finish(self) -> String {
        self.out
    }
}

/// Serializes a [`MetricsRegistry`] as a JSON array of metric objects —
/// the shared encoding of the manifest's `"trace"` and `"decisions"`
/// sections (`{"name","labels",kind-specific value}` per metric).
fn write_metrics(w: &mut JsonWriter, metrics: &MetricsRegistry) {
    w.begin_array();
    for m in &metrics.metrics {
        w.begin_object();
        w.key("name").string(&m.name);
        w.key("labels").begin_object();
        for (k, v) in &m.labels {
            w.key(k).string(v);
        }
        w.end_object();
        match &m.value {
            MetricValue::Counter(v) => {
                w.key("kind").string("counter");
                w.key("value").u64(*v);
            }
            MetricValue::Gauge(v) => {
                w.key("kind").string("gauge");
                w.key("value").f64(*v);
            }
            MetricValue::Histogram { bounds_ns, counts } => {
                w.key("kind").string("histogram");
                w.key("bounds_ns").begin_array();
                for &b in bounds_ns {
                    w.u64(b);
                }
                w.end_array();
                w.key("counts").begin_array();
                for &c in counts {
                    w.u64(c);
                }
                w.end_array();
            }
        }
        w.end_object();
    }
    w.end_array();
}

/// A self-describing record of one simulation campaign: what was run
/// (topology, routing, traffic, simulator parameters) and what came out
/// (curves with per-point stats and optional telemetry summaries).
/// Serializes to JSON via [`RunManifest::to_json`] with explicit schema
/// and unit declarations so downstream tooling needs no out-of-band
/// knowledge.
#[derive(Debug, Clone)]
pub struct RunManifest {
    pub title: String,
    pub topology: String,
    pub num_routers: u32,
    pub num_nodes: u32,
    pub routing: String,
    /// The exact [`Algorithm`] variant and parameters the campaign ran
    /// with ([`RunManifest::set_algorithm`]), beyond the display string
    /// in `routing`; `None` emits no `"algorithm"` key (e.g. exchange
    /// comparisons that mix several).
    pub algorithm: Option<Algorithm>,
    pub pattern: String,
    pub duration_ns: u64,
    pub warmup_ns: u64,
    pub sim: SimConfig,
    /// Outcome of the static preflight verifier, when one ran for this
    /// campaign ([`RunManifest::set_preflight`]); `None` otherwise.
    pub preflight: Option<VerifySummary>,
    /// Structured notices the sweeps raised (early-abort on wedge, …),
    /// captured here instead of interleaving on stderr.
    pub notices: Vec<SweepNotice>,
    /// Supervision accounting of a supervised campaign
    /// ([`RunManifest::set_supervision`]); `None` — or a trivial record
    /// — emits no `"supervision"` key, keeping clean supervised
    /// manifests byte-identical to unsupervised ones.
    pub supervision: Option<SupervisionManifest>,
    /// Fault-injection record of a resilience campaign
    /// ([`RunManifest::set_faults`]); `None` for pristine runs, which
    /// then emit no `"faults"` key.
    pub faults: Option<FaultsManifest>,
    /// Metrics snapshot of a traced campaign
    /// ([`RunManifest::set_trace`]); `None` for untraced runs, which
    /// then emit no `"trace"` key.
    pub trace: Option<TraceManifest>,
    /// Routing-decision forensics of a ledgered campaign
    /// ([`RunManifest::set_decisions`]); `None` for unledgered runs,
    /// which then emit no `"decisions"` key.
    pub decisions: Option<DecisionsManifest>,
    /// Static channel-load predictions and divergence verdict from the
    /// analytic oracle ([`RunManifest::set_analysis`]); `None` for
    /// campaigns that never ran it, which then emit no `"analysis"` key.
    pub analysis: Option<AnalysisManifest>,
    /// Intra-run sharding record of the campaign
    /// ([`RunManifest::set_sharding`]); `None` for unsharded campaigns,
    /// which then emit no `"sharding"` key — sharding never changes
    /// simulated results (see `d2net_sim::shard`), so its record is
    /// deliberately outside the byte-compared result sections.
    pub sharding: Option<ShardingManifest>,
    pub curves: Vec<Curve>,
}

impl RunManifest {
    pub fn new(
        title: impl Into<String>,
        net: &Network,
        routing: impl Into<String>,
        pattern: impl Into<String>,
        duration_ns: u64,
        warmup_ns: u64,
        sim: SimConfig,
    ) -> Self {
        RunManifest {
            title: title.into(),
            topology: net.name(),
            num_routers: net.num_routers(),
            num_nodes: net.num_nodes(),
            routing: routing.into(),
            algorithm: None,
            pattern: pattern.into(),
            duration_ns,
            warmup_ns,
            sim,
            preflight: None,
            notices: Vec::new(),
            supervision: None,
            faults: None,
            trace: None,
            decisions: None,
            analysis: None,
            sharding: None,
            curves: Vec::new(),
        }
    }

    pub fn push_curve(&mut self, curve: Curve) -> &mut Self {
        self.curves.push(curve);
        self
    }

    /// Records the static-verification outcome for this campaign (from
    /// [`d2net_verify::Report::summary`]).
    pub fn set_preflight(&mut self, summary: VerifySummary) -> &mut Self {
        self.preflight = Some(summary);
        self
    }

    /// Appends sweep notices (e.g. from `SweepOutcome::notices`).
    pub fn push_notices(&mut self, notices: &[SweepNotice]) -> &mut Self {
        self.notices.extend_from_slice(notices);
        self
    }

    /// Records the supervision accounting of a supervised campaign.
    pub fn set_supervision(&mut self, supervision: SupervisionManifest) -> &mut Self {
        self.supervision = Some(supervision);
        self
    }

    /// Records the fault-injection section of a resilience campaign.
    pub fn set_faults(&mut self, faults: FaultsManifest) -> &mut Self {
        self.faults = Some(faults);
        self
    }

    /// Records the metrics snapshot of a traced campaign.
    pub fn set_trace(&mut self, trace: TraceManifest) -> &mut Self {
        self.trace = Some(trace);
        self
    }

    /// Records the exact routing algorithm the campaign ran with, so
    /// downstream tooling (and [`crate::compare`]) can key on the
    /// variant and its parameters rather than parse the display string.
    pub fn set_algorithm(&mut self, algorithm: Algorithm) -> &mut Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Records the routing-decision forensics of a ledgered campaign.
    pub fn set_decisions(&mut self, decisions: DecisionsManifest) -> &mut Self {
        self.decisions = Some(decisions);
        self
    }

    /// Records how the campaign's thread budget was split between
    /// point-level and shard-level parallelism.
    pub fn set_sharding(&mut self, sharding: ShardingManifest) -> &mut Self {
        self.sharding = Some(sharding);
        self
    }

    /// Records the analytic oracle's predictions (and, when a sweep was
    /// cross-checked, the divergence verdict) for this campaign.
    pub fn set_analysis(&mut self, analysis: AnalysisManifest) -> &mut Self {
        self.analysis = Some(analysis);
        self
    }

    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string("d2net.run-manifest/v1");
        w.key("units").begin_object();
        w.key("time").string("ns");
        w.key("load").string("fraction of injection bandwidth");
        w.key("throughput").string("fraction of link bandwidth");
        w.key("utilization").string("fraction of link bandwidth");
        w.end_object();
        w.key("title").string(&self.title);
        w.key("topology").begin_object();
        w.key("name").string(&self.topology);
        w.key("routers").u64(self.num_routers as u64);
        w.key("nodes").u64(self.num_nodes as u64);
        w.end_object();
        w.key("routing").string(&self.routing);
        // Emitted only when the campaign pinned a single algorithm, so
        // cross-run diffing can compare parameters structurally.
        if let Some(a) = &self.algorithm {
            let (kind, n_i, c, threshold) = match a {
                Algorithm::Minimal => ("minimal", None, None, None),
                Algorithm::Valiant => ("valiant", None, None, None),
                Algorithm::UgalG { n_i, c } => ("ugal_g", Some(*n_i), Some(*c), None),
                Algorithm::Ugal { n_i, c, threshold } => ("ugal", Some(*n_i), Some(*c), *threshold),
            };
            w.key("algorithm").begin_object();
            w.key("kind").string(kind);
            w.key("n_i");
            match n_i {
                Some(v) => {
                    w.u64(v as u64);
                }
                None => {
                    w.null();
                }
            }
            w.key("c");
            match c {
                Some(v) => {
                    w.f64(v);
                }
                None => {
                    w.null();
                }
            }
            w.key("threshold");
            match threshold {
                Some(v) => {
                    w.f64(v);
                }
                None => {
                    w.null();
                }
            }
            w.end_object();
        }
        w.key("pattern").string(&self.pattern);
        w.key("sim").begin_object();
        w.key("link_bandwidth_gbps").f64(self.sim.link_bandwidth_gbps);
        w.key("link_latency_ns").u64(self.sim.link_latency_ns);
        w.key("switch_latency_ns").u64(self.sim.switch_latency_ns);
        w.key("buffer_bytes").u64(self.sim.buffer_bytes);
        w.key("packet_bytes").u64(self.sim.packet_bytes as u64);
        w.key("seed").u64(self.sim.seed);
        w.key("arrival").string(&format!("{:?}", self.sim.arrival));
        w.key("duration_ns").u64(self.duration_ns);
        w.key("warmup_ns").u64(self.warmup_ns);
        w.end_object();
        w.key("preflight");
        match &self.preflight {
            None => {
                w.null();
            }
            Some(p) => {
                w.begin_object();
                w.key("subject").string(&p.subject);
                w.key("certified").bool(p.certified);
                w.key("errors").u64(p.errors as u64);
                w.key("warnings").u64(p.warnings as u64);
                w.key("infos").u64(p.infos as u64);
                w.key("cdg_cycle_len").u64(p.cdg_cycle_len as u64);
                w.end_object();
            }
        }
        w.key("notices").begin_array();
        for n in &self.notices {
            w.begin_object();
            w.key("code").string(n.code);
            w.key("index").u64(n.index as u64);
            w.key("load").f64(n.load);
            w.key("message").string(&n.message);
            w.end_object();
        }
        w.end_array();
        // Emitted only when supervision had something to report (see
        // `SupervisionManifest::is_trivial`), and kept flat so the
        // serve-smoke gate can strip it with one sed before byte-
        // comparing resumed manifests against uninterrupted ones.
        if let Some(sv) = self.supervision.filter(|sv| !sv.is_trivial()) {
            w.key("supervision").begin_object();
            w.key("completed").u64(sv.completed as u64);
            w.key("retried").u64(sv.retried as u64);
            w.key("exhausted").u64(sv.exhausted as u64);
            w.key("panicked").u64(sv.panicked as u64);
            w.key("skipped_by_resume").u64(sv.skipped_by_resume as u64);
            w.key("not_run").u64(sv.not_run as u64);
            w.key("journal_lines_skipped").u64(sv.journal_lines_skipped as u64);
            w.end_object();
        }
        // Emitted only for resilience campaigns so downstream tooling
        // (and the CI fault-smoke gate) can key on the section's presence.
        if let Some(f) = &self.faults {
            w.key("faults").begin_object();
            w.key("points").begin_array();
            for p in &f.points {
                w.begin_object();
                w.key("fraction").f64(p.fraction);
                w.key("failed_links").u64(p.failed_links as u64);
                w.key("failed_routers").u64(p.failed_routers as u64);
                w.key("unreachable_pairs").u64(p.unreachable_pairs);
                w.key("certified").bool(p.certified);
                w.key("dropped_packets").u64(p.dropped_packets);
                w.key("retried_packets").u64(p.retried_packets);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        // Emitted only for traced campaigns, mirroring `"faults"`.
        if let Some(t) = &self.trace {
            w.key("trace").begin_object();
            w.key("sample_rate").u64(t.sample_rate as u64);
            w.key("phase_only").bool(t.phase_only);
            w.key("metrics");
            write_metrics(&mut w, &t.metrics);
            w.end_object();
        }
        // Emitted only for ledgered campaigns — the decision-smoke
        // gate's and `d2net-compare`'s grep/parse target.
        if let Some(d) = &self.decisions {
            w.key("decisions").begin_object();
            w.key("sample_rate").u64(d.sample_rate as u64);
            w.key("max_samples").u64(d.max_samples as u64);
            w.key("margin_bounds_bytes").begin_array();
            for &b in MARGIN_BOUNDS_BYTES.iter() {
                w.u64(b);
            }
            w.end_array();
            w.key("metrics");
            write_metrics(&mut w, &d.metrics);
            w.key("points").begin_array();
            for p in &d.points {
                let l = &p.ledger;
                w.begin_object();
                w.key("index").u64(p.index as u64);
                w.key("load").f64(p.load);
                w.key("decisions").u64(l.decisions);
                w.key("misroutes").u64(l.indirect);
                w.key("forced_minimal").u64(l.forced_minimal);
                w.key("fallback_minimal").u64(l.fallback_minimal);
                w.key("misroute_rate").f64(l.misroute_rate());
                w.key("margin_diverted").begin_array();
                for &c in &l.margin_diverted {
                    w.u64(c);
                }
                w.end_array();
                w.key("margin_held").begin_array();
                for &c in &l.margin_held {
                    w.u64(c);
                }
                w.end_array();
                // Exact per-source-router table — the substrate of
                // `d2net-compare`'s per-router misroute deltas.
                w.key("routers").begin_array();
                for &(r, s) in &l.routers {
                    w.begin_object();
                    w.key("router").u64(r as u64);
                    w.key("decisions").u64(s.decisions);
                    w.key("misroutes").u64(s.indirect);
                    w.key("forced_minimal").u64(s.forced_minimal);
                    w.key("fallback_minimal").u64(s.fallback_minimal);
                    w.key("mean_margin").f64(if s.decisions == 0 {
                        0.0
                    } else {
                        s.margin_sum / s.decisions as f64
                    });
                    w.key("mean_q_m").f64(if s.decisions == 0 {
                        0.0
                    } else {
                        s.q_m_sum as f64 / s.decisions as f64
                    });
                    w.end_object();
                }
                w.end_array();
                // Hottest ports at decision time (by cumulative observed
                // bytes; deterministic tie-break on port id).
                let mut hot: Vec<&PortHeat> = l.heat.iter().collect();
                hot.sort_by(|a, b| {
                    b.sum_bytes
                        .cmp(&a.sum_bytes)
                        .then((a.router, a.next).cmp(&(b.router, b.next)))
                });
                w.key("hot_ports").begin_array();
                for h in hot.iter().take(LEDGER_TOP_N) {
                    w.begin_object();
                    w.key("router").u64(h.router as u64);
                    w.key("next").u64(h.next as u64);
                    w.key("observations").u64(h.observations);
                    w.key("mean_bytes").f64(if h.observations == 0 {
                        0.0
                    } else {
                        h.sum_bytes as f64 / h.observations as f64
                    });
                    w.key("max_bytes").u64(h.max_bytes);
                    w.end_object();
                }
                w.end_array();
                // The sampled records behind the largest divergence
                // gaps, full candidate sets included.
                let mut picked: Vec<&DecisionSample> = l.samples.iter().collect();
                picked.sort_by(|a, b| {
                    b.record
                        .margin
                        .abs()
                        .partial_cmp(&a.record.margin.abs())
                        .unwrap_or(Ordering::Equal)
                        .then(a.flight_id.cmp(&b.flight_id))
                });
                w.key("samples").begin_array();
                for s in picked.iter().take(LEDGER_TOP_N) {
                    let rec = &s.record;
                    w.begin_object();
                    w.key("flight_id").u64(s.flight_id);
                    w.key("t_ps").u64(s.t_ps);
                    w.key("src").u64(rec.src as u64);
                    w.key("dst").u64(rec.dst as u64);
                    w.key("verdict").string(rec.verdict.name());
                    w.key("min_first_hop").u64(rec.min_first_hop as u64);
                    w.key("q_m").u64(rec.q_m);
                    w.key("c_m").f64(rec.c_m);
                    w.key("threshold_margin");
                    match rec.threshold_margin {
                        Some(m) => {
                            w.f64(m);
                        }
                        None => {
                            w.null();
                        }
                    }
                    w.key("chosen_cost").f64(rec.chosen_cost);
                    w.key("margin").f64(rec.margin);
                    w.key("candidates").begin_array();
                    for cand in &rec.candidates {
                        w.begin_object();
                        w.key("intermediate").u64(cand.intermediate as u64);
                        w.key("first_hop").u64(cand.first_hop as u64);
                        w.key("occupancy_bytes").u64(cand.occupancy_bytes);
                        w.key("penalty").f64(cand.penalty);
                        w.key("cost").f64(cand.cost);
                        w.end_object();
                    }
                    w.end_array();
                    w.end_object();
                }
                w.end_array();
                w.key("samples_truncated").bool(l.samples_truncated);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        // Emitted only when the analytic oracle ran — the analysis-smoke
        // gate's and `d2net-compare`'s grep/parse target.
        if let Some(a) = &self.analysis {
            w.key("analysis").begin_object();
            w.key("load_units").string("node injection rates at offered load 1.0");
            w.key("predictions").begin_array();
            for p in &a.predictions {
                w.begin_object();
                w.key("traffic").string(&p.traffic);
                w.key("algorithm").string(&p.algorithm);
                w.key("envelope").string(&p.envelope);
                w.key("max_link_load").f64(p.max_link_load);
                w.key("mean_link_load").f64(p.mean_link_load);
                w.key("loaded_links").u64(p.loaded_links);
                w.key("predicted_saturation").f64(p.predicted_saturation);
                w.key("predicted_mean_throughput").f64(p.predicted_mean_throughput);
                w.key("mean_hops").f64(p.mean_hops);
                w.key("zero_load_latency_ns").f64(p.zero_load_latency_ns);
                w.key("unreachable_fraction").f64(p.unreachable_fraction);
                w.key("cost_ports_per_node").f64(p.cost_ports_per_node);
                w.key("cost_per_unit_throughput").f64(p.cost_per_unit_throughput);
                w.end_object();
            }
            w.end_array();
            w.key("divergence");
            match &a.divergence {
                None => {
                    w.null();
                }
                Some(d) => {
                    w.begin_object();
                    w.key("traffic").string(&d.traffic);
                    w.key("predicted_saturation_lo").f64(d.predicted_saturation_lo);
                    w.key("predicted_saturation_hi").f64(d.predicted_saturation_hi);
                    w.key("measured_saturation").f64(d.measured_saturation);
                    w.key("saturation_gap").f64(d.saturation_gap);
                    w.key("tolerance").f64(d.tolerance);
                    w.key("passed").bool(d.passed);
                    w.key("probe_load").f64(d.probe_load);
                    w.key("links_compared").u64(d.links_compared);
                    w.key("mean_abs_residual").f64(d.mean_abs_residual);
                    w.key("max_abs_residual").f64(d.max_abs_residual);
                    w.key("max_residual_router").u64(d.max_residual_router as u64);
                    w.key("max_residual_next").u64(d.max_residual_next as u64);
                    w.end_object();
                }
            }
            w.end_object();
        }
        // Emitted only when the campaign ran sharded — the shard-smoke
        // gate strips this section before comparing manifests, and its
        // absence keeps unsharded manifests byte-stable.
        if let Some(sh) = &self.sharding {
            w.key("sharding").begin_object();
            w.key("shards").u64(sh.shards as u64);
            w.key("point_workers").u64(sh.point_workers as u64);
            w.key("thread_budget").u64(sh.thread_budget as u64);
            w.end_object();
        }
        w.key("curves").begin_array();
        for c in &self.curves {
            w.begin_object();
            w.key("label").string(&c.label);
            w.key("points").begin_array();
            for p in &c.points {
                w.begin_object();
                w.key("load").f64(p.load);
                w.key("throughput").f64(p.stats.throughput);
                w.key("avg_delay_ns").f64(p.stats.avg_delay_ns);
                w.key("p99_delay_ns").u64(p.stats.p99_delay_ns);
                w.key("max_delay_ns").u64(p.stats.max_delay_ns);
                w.key("avg_hops").f64(p.stats.avg_hops);
                w.key("delivered_packets").u64(p.stats.delivered_packets);
                w.key("indirect_packets").u64(p.stats.indirect_packets);
                w.key("max_link_utilization").f64(p.stats.max_link_utilization);
                w.key("dropped_packets").u64(p.stats.dropped_packets);
                w.key("retried_packets").u64(p.stats.retried_packets);
                w.key("deadlocked").bool(p.stats.deadlocked);
                w.key("exhausted").bool(p.stats.exhausted);
                w.key("telemetry");
                match &p.telemetry {
                    None => {
                        w.null();
                    }
                    Some(t) => {
                        w.begin_object();
                        w.key("num_samples").u64(t.num_samples as u64);
                        w.key("sample_interval_ns").u64(t.sample_interval_ns);
                        w.key("mean_link_utilization").f64(t.mean_link_utilization);
                        w.key("peak_link_utilization").f64(t.peak_link_utilization);
                        w.key("peak_occupancy").f64(t.peak_occupancy);
                        w.key("mean_indirect_fraction").f64(t.mean_indirect_fraction);
                        w.key("converged_at_ns");
                        match t.converged_at_ns {
                            Some(ns) => {
                                w.u64(ns);
                            }
                            None => {
                                w.null();
                            }
                        }
                        w.key("deadlock_cycle_len").u64(t.deadlock_cycle_len as u64);
                        w.key("dropped_packets").u64(t.dropped_packets);
                        w.key("retried_packets").u64(t.retried_packets);
                        w.key("link_down_events").u64(t.link_down_events);
                        w.key("link_down_flushed").u64(t.link_down_flushed);
                        w.end_object();
                    }
                }
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::table2;

    #[test]
    fn table2_rendering_contains_paper_rows() {
        let s = render_table2(&table2());
        assert!(s.contains(" 0 |  9 10 11 12"));
        assert!(s.contains("12 | 12  2  4  6"));
    }

    #[test]
    fn fig3_rendering_alignment() {
        let rows = d2net_analysis::scale_table(&[16, 64]);
        let s = render_fig3(&rows);
        assert!(s.lines().count() == 4);
        assert!(s.contains("radix"));
    }

    #[test]
    fn json_writer_escapes_and_nests() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a\"b").string("line\nbreak\ttab \\ \u{1} end");
        w.key("nums").begin_array();
        w.u64(7).f64(0.5).f64(f64::NAN).bool(true).null();
        w.end_array();
        w.key("empty").begin_object().end_object();
        w.end_object();
        let s = w.finish();
        assert_eq!(
            s,
            "{\"a\\\"b\":\"line\\nbreak\\ttab \\\\ \\u0001 end\",\
             \"nums\":[7,0.500000,null,true,null],\"empty\":{}}"
        );
    }

    #[test]
    fn run_manifest_is_self_describing_json() {
        use d2net_sim::{SimConfig, SweepPoint, SyntheticStats, TelemetrySummary};
        use d2net_topo::mlfm;

        let net = mlfm(4);
        let mut m = RunManifest::new(
            "probe demo",
            &net,
            "MIN",
            "uniform",
            30_000,
            6_000,
            SimConfig::default(),
        );
        m.push_curve(Curve {
            label: "MIN UNI".into(),
            points: vec![SweepPoint {
                load: 0.5,
                stats: SyntheticStats::deadlocked_stub(0.5),
                telemetry: Some(TelemetrySummary {
                    num_samples: 30,
                    sample_interval_ns: 1_000,
                    mean_link_utilization: 0.4,
                    peak_link_utilization: 0.9,
                    peak_occupancy: 0.7,
                    mean_indirect_fraction: 0.0,
                    converged_at_ns: Some(12_000),
                    deadlock_cycle_len: 0,
                    dropped_packets: 11,
                    retried_packets: 5,
                    link_down_events: 2,
                    link_down_flushed: 7,
                }),
            }],
        });
        let s = m.to_json();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"schema\":\"d2net.run-manifest/v1\""));
        assert!(s.contains("\"units\""));
        assert!(s.contains("\"preflight\":null"));
        assert!(s.contains("\"converged_at_ns\":12000"));
        assert!(s.contains("\"deadlocked\":true"));
        // PR-4 loss counters must reach the serialized telemetry object.
        assert!(s.contains("\"link_down_events\":2"));
        assert!(s.contains("\"link_down_flushed\":7"));

        m.set_preflight(d2net_verify::VerifySummary {
            subject: "mlfm(4) under MIN".into(),
            certified: true,
            errors: 0,
            warnings: 1,
            infos: 5,
            cdg_cycle_len: 0,
        });
        let s = m.to_json();
        assert!(s.contains(
            "\"preflight\":{\"subject\":\"mlfm(4) under MIN\",\"certified\":true,\
             \"errors\":0,\"warnings\":1,\"infos\":5,\"cdg_cycle_len\":0}"
        ));
        // Braces and brackets balance (no string in this manifest
        // contains them, so plain counting is sound).
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn notices_serialize() {
        use d2net_sim::{SimConfig, SweepNotice};
        use d2net_topo::mlfm;

        let net = mlfm(4);
        let mut m = RunManifest::new(
            "noticed",
            &net,
            "MIN",
            "uniform",
            30_000,
            6_000,
            SimConfig::default(),
        );
        assert!(m.to_json().contains("\"notices\":[]"));

        m.push_notices(&[SweepNotice::new(
            "wedged",
            5,
            0.75,
            "network wedged at offered load 0.750".into(),
        )]);
        let s = m.to_json();
        assert!(s.contains("\"notices\":[{\"code\":\"wedged\",\"index\":5,\"load\":0.750000"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn sharding_section_is_optional_and_serializes() {
        use d2net_sim::SimConfig;
        use d2net_topo::mlfm;

        let net = mlfm(4);
        let mut m = RunManifest::new(
            "sharded", &net, "MIN", "uniform", 30_000, 6_000, SimConfig::default(),
        );
        // Unsharded campaigns emit no key at all — existing manifests
        // stay byte-stable.
        assert!(!m.to_json().contains("sharding"));

        m.set_sharding(ShardingManifest {
            shards: 4,
            point_workers: 2,
            thread_budget: 8,
        });
        let s = m.to_json();
        assert!(s.contains(
            "\"sharding\":{\"shards\":4,\"point_workers\":2,\"thread_budget\":8}"
        ));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn supervision_section_omitted_when_trivial_then_serializes_flat() {
        use d2net_sim::SimConfig;
        use d2net_topo::mlfm;

        let net = mlfm(4);
        let mut m = RunManifest::new(
            "supervised", &net, "MIN", "uniform", 30_000, 6_000, SimConfig::default(),
        );
        assert!(!m.to_json().contains("supervision"));

        // A clean run (only completions) must also emit nothing — that
        // is what keeps clean supervised manifests byte-identical to
        // unsupervised ones.
        m.set_supervision(SupervisionManifest {
            completed: 20,
            ..SupervisionManifest::default()
        });
        assert!(!m.to_json().contains("supervision"));

        m.set_supervision(SupervisionManifest {
            completed: 17,
            retried: 2,
            exhausted: 1,
            panicked: 0,
            skipped_by_resume: 8,
            not_run: 0,
            journal_lines_skipped: 1,
        });
        let s = m.to_json();
        assert!(s.contains(
            "\"supervision\":{\"completed\":17,\"retried\":2,\"exhausted\":1,\
             \"panicked\":0,\"skipped_by_resume\":8,\"not_run\":0,\
             \"journal_lines_skipped\":1}"
        ));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn faults_section_absent_until_set_then_serializes() {
        use d2net_sim::SimConfig;
        use d2net_topo::mlfm;

        let net = mlfm(4);
        let mut m = RunManifest::new(
            "faulted", &net, "MIN", "uniform", 30_000, 6_000, SimConfig::default(),
        );
        // The `"faults"` key is the CI smoke gate's grep target: it must
        // not appear on fault-free manifests.
        assert!(!m.to_json().contains("\"faults\""));

        m.set_faults(FaultsManifest {
            points: vec![
                FaultPointRecord {
                    fraction: 0.0,
                    failed_links: 0,
                    failed_routers: 0,
                    unreachable_pairs: 0,
                    certified: true,
                    dropped_packets: 0,
                    retried_packets: 0,
                },
                FaultPointRecord {
                    fraction: 0.05,
                    failed_links: 3,
                    failed_routers: 0,
                    unreachable_pairs: 2,
                    certified: true,
                    dropped_packets: 17,
                    retried_packets: 4,
                },
            ],
        });
        let s = m.to_json();
        assert!(s.contains("\"faults\":{\"points\":["));
        assert!(s.contains("\"fraction\":0.050000"));
        assert!(s.contains("\"failed_links\":3"));
        assert!(s.contains("\"unreachable_pairs\":2"));
        assert!(s.contains("\"certified\":true"));
        assert!(s.contains("\"dropped_packets\":17"));
        assert!(s.contains("\"retried_packets\":4"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn trace_section_absent_until_set_then_serializes() {
        use d2net_sim::SimConfig;
        use d2net_topo::mlfm;

        let net = mlfm(4);
        let mut m = RunManifest::new(
            "traced", &net, "MIN", "uniform", 30_000, 6_000, SimConfig::default(),
        );
        // The `"trace"` key is the trace-smoke gate's grep target: it
        // must not appear on untraced manifests.
        assert!(!m.to_json().contains("\"trace\""));

        let mut metrics = MetricsRegistry::new();
        metrics.counter("events_popped", &[], 42);
        metrics.counter("fifo_pushes", &[("queue", "input")], 17);
        metrics.gauge("sim_phase_ns", &[("phase", "measure")], 24_000.0);
        metrics.histogram("flight_latency_ns", &[], vec![250, 500], vec![1, 2, 0]);
        m.set_trace(TraceManifest {
            sample_rate: 64,
            phase_only: false,
            metrics,
        });
        let s = m.to_json();
        assert!(s.contains("\"trace\":{\"sample_rate\":64,\"phase_only\":false,\"metrics\":["));
        assert!(s.contains("{\"name\":\"events_popped\",\"labels\":{},\"kind\":\"counter\",\"value\":42}"));
        assert!(s.contains("\"labels\":{\"queue\":\"input\"}"));
        assert!(s.contains("\"kind\":\"gauge\",\"value\":24000.000000"));
        assert!(s.contains("\"kind\":\"histogram\",\"bounds_ns\":[250,500],\"counts\":[1,2,0]"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn algorithm_section_absent_until_set_then_serializes() {
        use d2net_sim::SimConfig;
        use d2net_topo::mlfm;

        let net = mlfm(4);
        let mut m = RunManifest::new(
            "adaptive", &net, "UGAL-L", "uniform", 30_000, 6_000, SimConfig::default(),
        );
        assert!(!m.to_json().contains("\"algorithm\""));

        m.set_algorithm(Algorithm::Ugal {
            n_i: 2,
            c: 2.0,
            threshold: Some(0.25),
        });
        let s = m.to_json();
        assert!(s.contains(
            "\"algorithm\":{\"kind\":\"ugal\",\"n_i\":2,\"c\":2.000000,\"threshold\":0.250000}"
        ));

        m.set_algorithm(Algorithm::Valiant);
        let s = m.to_json();
        assert!(s.contains(
            "\"algorithm\":{\"kind\":\"valiant\",\"n_i\":null,\"c\":null,\"threshold\":null}"
        ));

        m.set_algorithm(Algorithm::UgalG { n_i: 4, c: 1.0 });
        let s = m.to_json();
        assert!(s.contains(
            "\"algorithm\":{\"kind\":\"ugal_g\",\"n_i\":4,\"c\":1.000000,\"threshold\":null}"
        ));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn decisions_section_absent_until_set_then_serializes() {
        use d2net_routing::{DecisionCandidate, DecisionRecord, DecisionVerdict};
        use d2net_sim::{DecisionLedger, SimConfig};
        use d2net_topo::mlfm;

        let net = mlfm(4);
        let mut m = RunManifest::new(
            "ledgered", &net, "UGAL-G", "uniform", 30_000, 6_000, SimConfig::default(),
        );
        // The `"decisions"` key is the decision-smoke gate's grep
        // target: it must not appear on unledgered manifests.
        assert!(!m.to_json().contains("\"decisions\""));

        let cfg = LedgerConfig {
            sample_rate: 1,
            max_samples: 8,
        };
        let mut led = DecisionLedger::new(cfg);
        led.on_decision(
            2_000_000,
            1,
            7,
            &DecisionRecord {
                src: 0,
                dst: 6,
                capacity_bytes: 100_000,
                min_first_hop: 3,
                q_m: 90_000,
                c_m: 90_000.0,
                threshold_margin: None,
                candidates: vec![DecisionCandidate {
                    intermediate: 5,
                    first_hop: 2,
                    occupancy_bytes: 1_000,
                    penalty: 2.0,
                    cost: 2_000.0,
                }],
                verdict: DecisionVerdict::Indirect,
                chosen_cost: 2_000.0,
                margin: 88_000.0,
            },
        );
        m.set_decisions(DecisionsManifest::from_points(
            cfg,
            &[PointLedger {
                index: 1,
                load: 0.8,
                ledger: led.finish(),
            }],
        ));
        let s = m.to_json();
        assert!(s.contains("\"decisions\":{\"sample_rate\":1,\"max_samples\":8,"));
        assert!(s.contains("\"margin_bounds_bytes\":[256,1024,4096,16384,65536]"));
        assert!(s.contains("{\"name\":\"misroutes_total\",\"labels\":{},\"kind\":\"counter\",\"value\":1}"));
        assert!(s.contains("\"misroute_rate\":1.000000"));
        assert!(s.contains(
            "\"routers\":[{\"router\":0,\"decisions\":1,\"misroutes\":1,\
             \"forced_minimal\":0,\"fallback_minimal\":0,"
        ));
        // Both the consulted minimal port and the candidate port land in
        // the heatmap, hottest first.
        assert!(s.contains("\"hot_ports\":[{\"router\":0,\"next\":3,\"observations\":1,"));
        assert!(s.contains("\"verdict\":\"indirect\""));
        assert!(s.contains("\"t_ps\":2000000"));
        assert!(s.contains(
            "\"candidates\":[{\"intermediate\":5,\"first_hop\":2,\
             \"occupancy_bytes\":1000,\"penalty\":2.000000,\"cost\":2000.000000}]"
        ));
        assert!(s.contains("\"samples_truncated\":false"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn analysis_section_absent_until_set_then_serializes() {
        use d2net_analysis::{analyze_policy, LatencyModel, TrafficMatrix};
        use d2net_routing::RoutePolicy;
        use d2net_sim::SimConfig;
        use d2net_topo::mlfm;

        let net = mlfm(4);
        let mut m = RunManifest::new(
            "oracle", &net, "UGAL-L", "uniform", 30_000, 6_000, SimConfig::default(),
        );
        // The `"analysis"` key is the analysis-smoke gate's grep target:
        // it must not appear when the oracle never ran.
        assert!(!m.to_json().contains("\"analysis\""));

        let policy = RoutePolicy::new(&net, Algorithm::Ugal { n_i: 2, c: 2.0, threshold: None });
        let tm = TrafficMatrix::uniform(&net).expect("uniform matrix");
        let pa = analyze_policy(&net, &policy, &tm, &LatencyModel::paper_default())
            .expect("oracle runs");
        let mut section = AnalysisManifest::from_policy(&pa);
        // UGAL brackets between its minimal and all-indirect envelopes.
        assert_eq!(section.predictions.len(), 2);
        assert_eq!(section.predictions[0].algorithm, "ugal");
        section.divergence = Some(DivergenceSummary {
            traffic: "uniform".into(),
            predicted_saturation_lo: pa.saturation_lo,
            predicted_saturation_hi: pa.saturation_hi,
            measured_saturation: 0.95,
            saturation_gap: 0.0,
            tolerance: 0.1,
            passed: true,
            probe_load: 0.4,
            links_compared: 160,
            mean_abs_residual: 0.01,
            max_abs_residual: 0.04,
            max_residual_router: 3,
            max_residual_next: 9,
        });
        m.set_analysis(section);
        let s = m.to_json();
        assert!(s.contains("\"analysis\":{\"load_units\":"));
        assert!(s.contains("\"traffic\":\"uniform\",\"algorithm\":\"ugal\",\"envelope\":\"minimal\""));
        assert!(s.contains("\"envelope\":\"all_indirect\""));
        assert!(s.contains("\"predicted_saturation\":"));
        assert!(s.contains("\"divergence\":{\"traffic\":\"uniform\""));
        assert!(s.contains("\"measured_saturation\":0.950000"));
        assert!(s.contains("\"passed\":true"));
        assert!(s.contains("\"links_compared\":160"));
        // The section nests cleanly between "decisions" and "curves".
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn raw_splices_verbatim_json() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("inner").raw("{\"a\":[1,2]}");
        w.key("after").u64(3);
        w.end_object();
        assert_eq!(w.finish(), "{\"inner\":{\"a\":[1,2]},\"after\":3}");
    }
}
