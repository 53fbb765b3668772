//! # d2net-core
//!
//! The top-level API of `d2net`, a full reproduction of *"Cost-Effective
//! Diameter-Two Topologies: Analysis and Evaluation"* (Kathareios,
//! Minkenberg, Prisacari, Rodriguez, Hoefler — SC '15).
//!
//! Everything below re-exports the workspace crates:
//!
//! - [`topo`]: Slim Fly / MLFM / OFT / SSPT / Fat-Tree / HyperX builders;
//! - [`routing`]: MIN, INR (Valiant) and UGAL-L policies plus VC-based
//!   deadlock avoidance and CDG verification;
//! - [`traffic`]: uniform, adversarial worst-case, all-to-all and
//!   nearest-neighbor workloads;
//! - [`verify`]: the static preflight verifier — CDG acyclicity with
//!   counterexample extraction, routing-table soundness, topology lints;
//! - [`sim`]: the flit-level discrete-event simulator (§4.1 parameters);
//! - [`analysis`]: scalability, bisection-bandwidth and path-diversity
//!   analytics;
//! - [`configs`] / [`experiment`] / [`report`]: the §4 evaluation
//!   harness — one driver per table/figure.
//!
//! ## Quickstart
//!
//! ```
//! use d2net_core::prelude::*;
//!
//! // Build the paper's OFT evaluation config, route adaptively, measure.
//! let net = oft(6);
//! let policy = RoutePolicy::new(&net, Algorithm::Ugal { n_i: 1, c: 2.0, threshold: None });
//! let work = Synthetic::new(&SyntheticPattern::Uniform, 0.5, 30_000, 6_000);
//! let probed = run(&net, &policy, &work, SimConfig::default(),
//!                  Observers::probed(ProbeConfig::default())).unwrap();
//! assert!(!probed.stats.deadlocked);
//! assert!((probed.stats.throughput - 0.5).abs() < 0.05);
//! // Observers never perturb the run: the plain shorthand agrees.
//! let plain = run_synthetic(&net, &policy, &SyntheticPattern::Uniform,
//!                           0.5, 30_000, 6_000, SimConfig::default());
//! assert_eq!(plain, probed.stats);
//! ```

pub mod compare;
pub mod configs;
pub mod divergence;
pub mod experiment;
pub mod journal;
pub mod obs;
pub mod plot;
pub mod report;
pub mod resilience;
pub mod supervise;
pub mod trace_export;

pub use d2net_analysis as analysis;
pub use d2net_galois as galois;
pub use d2net_routing as routing;
pub use d2net_sim as sim;
pub use d2net_topo as topo;
pub use d2net_traffic as traffic;
pub use d2net_verify as verify;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use crate::compare::{
        compare_manifests, digest_manifest, AnalysisDigest, CompareReport, Divergence, Json,
        PointDigest, RunDigest, SampleDigest, DIVERGENCE_EPS,
    };
    pub use crate::configs::{eval_topologies, RunParams, Scale};
    pub use crate::divergence::{
        divergence_gate, link_residuals, measured_saturation, DivergenceGateConfig, LinkResiduals,
    };
    pub use crate::experiment::{
        adaptive_sweep, adaptive_variants, best_adaptive, diversity_report, fig13, fig14, fig3,
        fig4, fig6, ledgered_curve, table2, traced_curve, Curve, CurveSet, ExchangeRow,
        LedgeredCurve, TracedCurve, Traffic,
    };
    pub use crate::journal::{fnv1a, write_atomic, JournalReplay, PointJournal};
    pub use crate::obs;
    pub use crate::obs::{
        http_get, parse_event_line, progress_metrics, prometheus_text, validate_prometheus,
        ParsedEvent, StatusServer, StatusSource,
    };
    pub use crate::plot::{delay_chart, exchange_chart, throughput_chart, BarChart, LineChart};
    pub use crate::report::*;
    pub use crate::resilience::{
        failure_fractions, resilience_sweep, ResilienceCurve, ResiliencePoint,
    };
    pub use crate::supervise::{
        parse_algorithm, parse_pattern, parse_topology, run_supervised, supervision_manifest,
        SupervisedRequest, SupervisedRun,
    };
    pub use crate::trace_export::{chrome_trace_json, chrome_trace_json_ledgered};
    pub use d2net_analysis::{
        algorithm_label, analyze_all_indirect, analyze_minimal, analyze_policy, bisection,
        endpoint_diversity, non_adjacent_diversity, scale_table, try_bisection,
        try_permutation_link_load, AnalysisError, Envelope, LatencyModel, LinkIndex, LoadModel,
        OracleReport, PolicyAnalysis, TrafficMatrix,
    };
    pub use d2net_routing::{
        build_cdg, try_build_cdg, Algorithm, ChannelError, DecisionCandidate, DecisionRecord,
        DecisionVerdict, IntermediateSet, MinimalTables, RoutePolicy, VcScheme,
    };
    pub use d2net_sim::{
        backoff_ms, flight_sampled, ledger_metrics, load_grid, load_grid_from, par_curves,
        plan_shards, point_seed, preflight, resolve_threads, run, run_exchange,
        run_exchange_traced, run_synthetic, run_synthetic_sharded, run_synthetic_sharded_traced,
        supervised_sweep, sweep, sweep_metrics, sweep_with_order, CalendarStats, ChaosConfig,
        ChaosKind, DeadlockReport, DecisionLedger, DecisionSample, EngineChaos, EngineLedger,
        EngineTrace, EventQueueKind, ExchangeRun, ExchangeStats, FaultEvent, FaultSchedule,
        FlightEvent, FlightEventKind, HarnessSpan, HotCounters, LedgerConfig, Metric, MetricValue,
        MetricsRegistry, Observers, PacketFlight, PhaseSpan, PointLedger, PointTrace, PortHeat,
        Preflight, ProbeConfig, RingEvent, RingEventKind, RouterDecisionStats, Run, RunBudget,
        SimConfig, SimPhase, SpanProfiler, SuperviseConfig, SuperviseHooks, SupervisedSweep,
        SupervisionSummary, SweepNotice, SweepOutcome, SweepPoint, Synthetic, SyntheticStats,
        TelemetryReport, TelemetrySummary, TraceConfig, WaitPoint, WaitSide, LEDGER_TOP_N,
        MARGIN_BOUNDS_BYTES,
    };
    pub use d2net_topo::{
        fat_tree2, hyperx2, hyperx2_balanced, mlfm, mlfm_general, oft, oft_general, slim_fly,
        FaultSet, Network, SlimFlyP, TopologyKind,
    };
    pub use d2net_traffic::{
        all_to_all, fit_torus, nearest_neighbor, shift_pattern, slim_fly_saturating_worst_case,
        torus_dims_for, worst_case, worst_case_exact, worst_case_saturation, zipf_pattern,
        SyntheticPattern,
    };
    pub use d2net_verify::{
        verify, Diagnostic, Report as VerifyReport, Severity, Verdict, VerifyParams,
        VerifySummary,
    };
}
