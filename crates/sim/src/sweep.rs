//! Load sweeps and saturation search — the X axes of the paper's
//! throughput/delay figures (Figs. 6–12).
//!
//! Every sweep point runs from an **index-derived seed**
//! ([`point_seed`]), so a point's simulated schedule depends only on
//! `(base seed, index)` — never on which points ran before it or on
//! which thread. That is what lets [`crate::par::par_load_sweep`] return
//! byte-identical results to the serial functions here.

use crate::config::{EngineChaos, SimConfig};
use crate::engine::{synthetic_sources, Engine};
use crate::ledger::{EngineLedger, LedgerConfig, PointLedger};
use crate::stats::SyntheticStats;
use crate::telemetry::{ProbeConfig, TelemetryReport, TelemetrySummary};
use crate::trace::{EngineTrace, PointTrace, TraceConfig};
use d2net_routing::RoutePolicy;
use d2net_topo::Network;
use d2net_traffic::SyntheticPattern;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Write;

/// One point of a throughput/delay curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    pub load: f64,
    pub stats: SyntheticStats,
    /// Present when the sweep ran with a probe attached
    /// ([`load_sweep_probed`]); plain [`load_sweep`] leaves it `None`.
    pub telemetry: Option<TelemetrySummary>,
}

/// A structured event a sweep wants the caller to know about — an
/// early-abort on a wedged point, a rejected configuration, a point
/// isolated after a panic, or a point aborted by its run budget. Routed
/// through the report layer (it lands in `RunManifest`) instead of
/// being `eprintln!`ed from inside the sweep, so parallel workers never
/// interleave on stderr. `code` is the machine-readable discriminator
/// (`"wedged"`, `"rejected"`, `"panicked"`, `"exhausted"`, …);
/// `message` is the human-readable rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepNotice {
    /// Machine-readable notice code.
    pub code: &'static str,
    /// Index of the point that triggered the notice.
    pub index: usize,
    /// Offered load of that point.
    pub load: f64,
    pub message: String,
}

impl SweepNotice {
    /// A notice with a caller-chosen code — the hook for layers above
    /// `sim` (the journal replay, the batch service) to speak the same
    /// notice dialect as the sweeps.
    pub fn new(code: &'static str, index: usize, load: f64, message: String) -> Self {
        SweepNotice {
            code,
            index,
            load,
            message,
        }
    }

    pub(crate) fn wedged(index: usize, load: f64) -> Self {
        SweepNotice {
            code: "wedged",
            index,
            load,
            message: format!(
                "network wedged at offered load {load:.3}; \
                 marking remaining loads deadlocked without simulating them"
            ),
        }
    }

    /// A sweep whose configuration was rejected before any point could
    /// run (failed preflight, undersized buffers, warm-up ≥ duration).
    pub(crate) fn rejected(load: f64, reason: String) -> Self {
        SweepNotice {
            code: "rejected",
            index: 0,
            load,
            message: format!("configuration rejected before simulating any point: {reason}"),
        }
    }

    /// A point whose simulation panicked; `catch_unwind` isolated it
    /// into a [`SyntheticStats::panicked_stub`] instead of killing the
    /// process.
    pub(crate) fn panicked(index: usize, load: f64, panic_msg: &str) -> Self {
        SweepNotice {
            code: "panicked",
            index,
            load,
            message: format!(
                "point at offered load {load:.3} panicked and was stubbed: {panic_msg}"
            ),
        }
    }

    /// A point aborted by its [`crate::RunBudget`]; the point keeps its
    /// partial measurements with [`SyntheticStats::exhausted`] set.
    pub(crate) fn exhausted(index: usize, load: f64) -> Self {
        SweepNotice {
            code: "exhausted",
            index,
            load,
            message: format!(
                "run budget exhausted at offered load {load:.3}; \
                 partial measurements kept"
            ),
        }
    }

    /// One-line rendering, as the legacy stderr message.
    pub fn render(&self) -> String {
        format!("load_sweep: {}", self.message)
    }
}

/// The outcome of a sweep whose configuration was rejected up front:
/// every load carries a [`SyntheticStats::rejected_stub`] and a single
/// notice carries the reason — the same shape serial and parallel.
pub(crate) fn rejected_outcome(loads: &[f64], reason: String) -> SweepOutcome {
    let notice = SweepNotice::rejected(loads.first().copied().unwrap_or(0.0), reason);
    crate::obs::notice(&notice);
    SweepOutcome {
        points: loads
            .iter()
            .map(|&load| SweepPoint {
                load,
                stats: SyntheticStats::rejected_stub(load),
                telemetry: None,
            })
            .collect(),
        notices: vec![notice],
    }
}

/// A sweep's points plus any notices it raised.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    pub points: Vec<SweepPoint>,
    pub notices: Vec<SweepNotice>,
}

impl SweepOutcome {
    /// Renders all notices to stderr in a single locked write (safe to
    /// call from concurrent sweeps without interleaving garbage). With
    /// observability enabled ([`crate::obs::enabled`]) this is a no-op:
    /// every notice already reached the event stream, coded string
    /// intact, when the sweep assembled it.
    pub fn print_notices(&self) {
        if self.notices.is_empty() || crate::obs::enabled() {
            return;
        }
        let mut text = String::new();
        for n in &self.notices {
            text.push_str(&n.render());
            text.push('\n');
        }
        let _ = std::io::stderr().lock().write_all(text.as_bytes());
    }
}

/// How one sweep point ended — the discriminator [`sweep_impl`] (and
/// the parallel post-pass in [`crate::par`]) uses to decide which
/// notice, if any, a point raises. Kept separate from the stats so a
/// panicked point (whose stub also reads `deadlocked`) never triggers
/// the wedge early-abort: a panic is an isolated fault, not evidence
/// the network deadlocks at every higher load.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PointFate {
    /// Ran to completion; the stats are real (and may report a genuine
    /// wedge or a budget exhaustion).
    Simulated,
    /// Stubbed without simulating because a lower load already wedged.
    Skipped,
    /// The simulation panicked and was isolated; carries the panic
    /// message. The point holds a [`SyntheticStats::panicked_stub`].
    Panicked(String),
}

/// Extracts a human-readable message from a `catch_unwind` payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// True while this thread runs an isolated point — consulted by the
    /// wrapper panic hook below.
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: std::sync::Once = std::sync::Once::new();

/// Runs `f` with the default panic printout suppressed on this thread.
/// Installed process-wide exactly once as a wrapper that delegates to
/// the previous hook for every panic *not* raised under this guard, so
/// unrelated panics (test harness assertions, other threads) keep their
/// normal backtrace output.
pub(crate) fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
    QUIET_PANICS.with(|q| q.set(true));
    let out = f();
    QUIET_PANICS.with(|q| q.set(false));
    out
}

/// Derives the RNG seed for sweep point `idx` from the config's base
/// seed: a SplitMix64-style finalizer over `base ⊕ golden·(idx+1)`.
/// Deterministic, order-free, and well-spread even for adjacent indices
/// — serial and parallel sweeps both seed every point through here.
/// (Single runs via [`crate::run_synthetic`] keep the raw `cfg.seed`.)
pub fn point_seed(base: u64, idx: usize) -> u64 {
    let mut z = base ^ (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Simulates successive points of one sweep on a single reusable
/// [`Engine`]: the first point builds it, later points [`Engine::reset`]
/// it, so the flat per-port state is allocated once per curve (serial)
/// or once per worker (parallel) instead of once per point.
pub(crate) struct PointRunner<'a> {
    net: &'a Network,
    policy: &'a RoutePolicy,
    pattern: &'a SyntheticPattern,
    cfg: SimConfig,
    end_ps: u64,
    warmup_ps: u64,
    /// Intra-run shard count every point uses (see
    /// [`crate::shard::plan_shards`]); at `1` points run on the
    /// reusable serial engine below, otherwise each point runs the
    /// window-barrier protocol (whose output is byte-identical).
    shards: usize,
    engine: Option<Engine<'a>>,
    /// Per-point chaos override armed by the supervisor (see
    /// [`crate::supervise`]); `None` falls back to `cfg.chaos`, which
    /// applies the same fault to every point.
    chaos: Option<EngineChaos>,
}

impl<'a> PointRunner<'a> {
    /// `cfg` must already have preflight resolved (see
    /// [`crate::engine::try_preflight_once`]); the runner never
    /// re-verifies. Inconsistent parameters (warm-up ≥ duration, buffers
    /// too small for the policy's VCs) come back as a coded `Err` for the
    /// sweep to surface as a [`SweepNotice`] — after this succeeds,
    /// building the engine per point cannot fail.
    pub(crate) fn try_new(
        net: &'a Network,
        policy: &'a RoutePolicy,
        pattern: &'a SyntheticPattern,
        cfg: SimConfig,
        duration_ns: u64,
        warmup_ns: u64,
    ) -> Result<Self, String> {
        d2net_verify::invariant::warmup_within(warmup_ns, duration_ns)?;
        d2net_verify::invariant::vc_buffer_sufficient(
            cfg.buffer_bytes,
            policy.num_vcs(),
            cfg.packet_bytes,
        )?;
        Ok(PointRunner {
            net,
            policy,
            pattern,
            cfg,
            end_ps: duration_ns * 1_000,
            warmup_ps: warmup_ns * 1_000,
            shards: crate::shard::plan_shards(net, policy, &cfg),
            engine: None,
            chaos: None,
        })
    }

    /// Arms (or clears) a chaos fault for the *next* point only — the
    /// supervisor re-decides per (point, attempt).
    pub(crate) fn set_chaos(&mut self, chaos: Option<EngineChaos>) {
        self.chaos = chaos;
    }

    /// Runs point `idx` at `load`; the result depends only on
    /// `(cfg, idx, load)`, never on previously run points.
    pub(crate) fn run_point(
        &mut self,
        idx: usize,
        load: f64,
        probe: Option<ProbeConfig>,
        trace: Option<TraceConfig>,
        ledger: Option<LedgerConfig>,
    ) -> (
        SyntheticStats,
        Option<TelemetryReport>,
        Option<EngineTrace>,
        Option<EngineLedger>,
    ) {
        if self.shards > 1 {
            // The sharded runner re-derives the run's randomness from
            // `cfg.seed`; substituting the point seed reproduces
            // exactly the stream the serial branch below would use.
            let mut pcfg = self.cfg;
            pcfg.seed = point_seed(self.cfg.seed, idx);
            if self.chaos.is_some() {
                pcfg.chaos = self.chaos;
            }
            let work = crate::shard::Synthetic {
                pattern: self.pattern,
                schedule: None,
                load,
                end_ps: self.end_ps,
                warmup_ps: self.warmup_ps,
            };
            return crate::shard::run_sharded_inner(
                self.net,
                self.policy,
                &work,
                pcfg,
                probe,
                trace,
                ledger,
            )
            .expect("point parameters were validated in try_new");
        }
        let mut rng = SmallRng::seed_from_u64(point_seed(self.cfg.seed, idx));
        let sources = synthetic_sources(self.net, self.pattern, load, self.end_ps, &self.cfg, &mut rng);
        let engine = match &mut self.engine {
            Some(e) => {
                e.reset(sources, self.warmup_ps, rng);
                e
            }
            None => self.engine.insert(Engine::new(
                self.net,
                self.policy,
                self.cfg,
                sources,
                self.warmup_ps,
                rng,
            )),
        };
        engine.set_chaos(self.chaos.or(self.cfg.chaos));
        if let Some(p) = probe {
            engine.attach_probe(p);
        }
        if let Some(t) = trace {
            engine.attach_trace(t);
        }
        if let Some(l) = ledger {
            engine.attach_ledger(l);
        }
        let (stats, report) = engine.run_synthetic_to(load, self.end_ps);
        let tr = engine.take_trace();
        let led = engine.take_ledger();
        (stats, report, tr, led)
    }

    /// [`PointRunner::run_point`] behind `catch_unwind`: a panicking
    /// point comes back as `Err(panic message)` instead of unwinding
    /// into (and killing) the sweep. The reusable engine is dropped on
    /// the way out — it may hold arbitrary torn state — so the next
    /// point rebuilds from scratch.
    #[allow(clippy::type_complexity)]
    pub(crate) fn run_point_isolated(
        &mut self,
        idx: usize,
        load: f64,
        probe: Option<ProbeConfig>,
        trace: Option<TraceConfig>,
        ledger: Option<LedgerConfig>,
    ) -> Result<
        (
            SyntheticStats,
            Option<TelemetryReport>,
            Option<EngineTrace>,
            Option<EngineLedger>,
        ),
        String,
    > {
        let obs_t0 = crate::obs::enabled().then(std::time::Instant::now);
        let result = with_quiet_panics(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_point(idx, load, probe, trace, ledger)
            }))
        });
        let result = match result {
            Ok(out) => Ok(out),
            Err(payload) => {
                self.engine = None;
                Err(panic_message(payload.as_ref()))
            }
        };
        // Observer-only: live progress for every attempt, after the
        // result is fully formed — nothing here can influence it.
        if let Some(t0) = obs_t0 {
            let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;
            let events = crate::obs::take_run_events();
            match &result {
                Ok((stats, ..)) => crate::obs::point_run(
                    idx,
                    load,
                    wall_ms,
                    events,
                    stats.throughput,
                    stats.deadlocked,
                    stats.exhausted,
                ),
                Err(msg) => crate::obs::point_panic(idx, load, wall_ms, msg),
            }
        }
        result
    }
}

/// Simulates `net` at each offered load in `loads`, returning one curve
/// point per load plus any [`SweepNotice`]s raised.
///
/// If a point wedges, the remaining (higher) loads are not simulated: a
/// deadlocked network stays deadlocked under more pressure, and each
/// wedged point would otherwise burn a full simulated horizon. Skipped
/// points carry [`SyntheticStats::deadlocked_stub`] so curves keep one
/// entry per requested load.
pub fn load_sweep_collect(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
) -> SweepOutcome {
    // One static pass covers every load point: verification is
    // load-independent, so the per-point configs run with it disabled.
    let cfg = match crate::engine::try_preflight_once(net, policy, cfg) {
        Ok(cfg) => cfg,
        Err(e) => return rejected_outcome(loads, e),
    };
    let mut runner = match PointRunner::try_new(net, policy, pattern, cfg, duration_ns, warmup_ns) {
        Ok(r) => r,
        Err(e) => return rejected_outcome(loads, e),
    };
    sweep_impl(loads, |idx, load, first_wedge| {
        if first_wedge.is_some() {
            return stub_point(load);
        }
        match runner.run_point_isolated(idx, load, None, None, None) {
            Ok((stats, ..)) => (
                SweepPoint {
                    load,
                    stats,
                    telemetry: None,
                },
                PointFate::Simulated,
            ),
            Err(msg) => panicked_point(load, msg),
        }
    })
}

/// [`load_sweep_collect`], printing notices to stderr and returning the
/// bare points — the convenient form for interactive callers.
pub fn load_sweep(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
) -> Vec<SweepPoint> {
    let out = load_sweep_collect(net, policy, pattern, loads, duration_ns, warmup_ns, cfg);
    out.print_notices();
    out.points
}

/// [`load_sweep_collect`] with an observability probe attached to every
/// simulated point; each [`SweepPoint`] carries its [`TelemetrySummary`].
#[allow(clippy::too_many_arguments)]
pub fn load_sweep_probed_collect(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    probe: ProbeConfig,
) -> SweepOutcome {
    let cfg = match crate::engine::try_preflight_once(net, policy, cfg) {
        Ok(cfg) => cfg,
        Err(e) => return rejected_outcome(loads, e),
    };
    let mut runner = match PointRunner::try_new(net, policy, pattern, cfg, duration_ns, warmup_ns) {
        Ok(r) => r,
        Err(e) => return rejected_outcome(loads, e),
    };
    sweep_impl(loads, |idx, load, first_wedge| {
        if first_wedge.is_some() {
            return stub_point(load);
        }
        match runner.run_point_isolated(idx, load, Some(probe), None, None) {
            Ok((stats, report, _, _)) => (
                SweepPoint {
                    load,
                    stats,
                    telemetry: Some(report.expect("probe was attached").summary()),
                },
                PointFate::Simulated,
            ),
            Err(msg) => panicked_point(load, msg),
        }
    })
}

/// [`load_sweep`] with an observability probe attached to every simulated
/// point; each [`SweepPoint`] carries its [`TelemetrySummary`].
#[allow(clippy::too_many_arguments)]
pub fn load_sweep_probed(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    probe: ProbeConfig,
) -> Vec<SweepPoint> {
    let out =
        load_sweep_probed_collect(net, policy, pattern, loads, duration_ns, warmup_ns, cfg, probe);
    out.print_notices();
    out.points
}

/// [`load_sweep_collect`] with a [`TraceConfig`] attached to every
/// simulated point. Returns the outcome plus one [`PointTrace`] per
/// *simulated* point, in index order — wedge-stubbed points have no
/// trace, exactly like the parallel variant, so serial and parallel
/// trace files stay byte-identical.
#[allow(clippy::too_many_arguments)]
pub fn load_sweep_traced_collect(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    trace: TraceConfig,
) -> (SweepOutcome, Vec<PointTrace>) {
    let cfg = match crate::engine::try_preflight_once(net, policy, cfg) {
        Ok(cfg) => cfg,
        Err(e) => return (rejected_outcome(loads, e), Vec::new()),
    };
    let mut runner = match PointRunner::try_new(net, policy, pattern, cfg, duration_ns, warmup_ns) {
        Ok(r) => r,
        Err(e) => return (rejected_outcome(loads, e), Vec::new()),
    };
    let mut traces = Vec::new();
    let out = sweep_impl(loads, |idx, load, first_wedge| {
        if first_wedge.is_some() {
            return stub_point(load);
        }
        match runner.run_point_isolated(idx, load, None, Some(trace), None) {
            Ok((stats, _, tr, _)) => {
                traces.push(PointTrace {
                    index: idx,
                    load,
                    trace: tr.expect("trace was attached"),
                });
                (
                    SweepPoint {
                        load,
                        stats,
                        telemetry: None,
                    },
                    PointFate::Simulated,
                )
            }
            // A panicked point has no trace — same as the parallel
            // variant, which drops traces of stubbed points.
            Err(msg) => panicked_point(load, msg),
        }
    });
    (out, traces)
}

/// [`load_sweep_collect`] with a [`LedgerConfig`] attached to every
/// simulated point. Returns the outcome plus one [`PointLedger`] per
/// *simulated* point, in index order — wedge-stubbed points have no
/// ledger, exactly like the parallel variant, so serial and parallel
/// ledger serializations stay byte-identical.
#[allow(clippy::too_many_arguments)]
pub fn load_sweep_ledgered_collect(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    ledger: LedgerConfig,
) -> (SweepOutcome, Vec<PointLedger>) {
    let cfg = match crate::engine::try_preflight_once(net, policy, cfg) {
        Ok(cfg) => cfg,
        Err(e) => return (rejected_outcome(loads, e), Vec::new()),
    };
    let mut runner = match PointRunner::try_new(net, policy, pattern, cfg, duration_ns, warmup_ns) {
        Ok(r) => r,
        Err(e) => return (rejected_outcome(loads, e), Vec::new()),
    };
    let mut ledgers = Vec::new();
    let out = sweep_impl(loads, |idx, load, first_wedge| {
        if first_wedge.is_some() {
            return stub_point(load);
        }
        match runner.run_point_isolated(idx, load, None, None, Some(ledger)) {
            Ok((stats, _, _, led)) => {
                ledgers.push(PointLedger {
                    index: idx,
                    load,
                    ledger: led.expect("ledger was attached"),
                });
                (
                    SweepPoint {
                        load,
                        stats,
                        telemetry: None,
                    },
                    PointFate::Simulated,
                )
            }
            Err(msg) => panicked_point(load, msg),
        }
    });
    (out, ledgers)
}

/// Shared early-abort loop: `point` receives the index, the load and,
/// once any point has wedged, the load that first wedged, and reports
/// how the point ended via its [`PointFate`]. Only a genuinely
/// simulated wedge arms the early-abort; panicked and budget-exhausted
/// points raise their coded notice and let the sweep continue.
fn sweep_impl(
    loads: &[f64],
    mut point: impl FnMut(usize, f64, Option<f64>) -> (SweepPoint, PointFate),
) -> SweepOutcome {
    crate::obs::sweep_started(loads.len());
    let mut acc = crate::obs::SweepAccounting::default();
    let mut points = Vec::with_capacity(loads.len());
    let mut notices = Vec::new();
    let mut first_wedge: Option<f64> = None;
    for (idx, &load) in loads.iter().enumerate() {
        let (p, fate) = point(idx, load, first_wedge);
        match fate {
            PointFate::Simulated => {
                // `deadlocked` and `exhausted` are mutually exclusive: a
                // budget abort returns before the wedge check runs.
                if p.stats.exhausted {
                    acc.exhausted += 1;
                    notices.push(SweepNotice::exhausted(idx, load));
                    crate::obs::notice(notices.last().unwrap());
                } else {
                    acc.completed += 1;
                }
                if p.stats.deadlocked && first_wedge.is_none() {
                    first_wedge = Some(load);
                    notices.push(SweepNotice::wedged(idx, load));
                    crate::obs::notice(notices.last().unwrap());
                }
            }
            PointFate::Skipped => acc.stubbed += 1,
            PointFate::Panicked(msg) => {
                acc.panicked += 1;
                notices.push(SweepNotice::panicked(idx, load, &msg));
                crate::obs::notice(notices.last().unwrap());
            }
        }
        points.push(p);
    }
    crate::obs::sweep_finished(&acc);
    SweepOutcome { points, notices }
}

/// The stub-or-simulate skeleton every serial sweep closure shares:
/// stubs once a lower load wedged, otherwise runs the point isolated
/// and maps a panic to its stub + fate.
fn stub_point(load: f64) -> (SweepPoint, PointFate) {
    (
        SweepPoint {
            load,
            stats: SyntheticStats::deadlocked_stub(load),
            telemetry: None,
        },
        PointFate::Skipped,
    )
}

fn panicked_point(load: f64, msg: String) -> (SweepPoint, PointFate) {
    (
        SweepPoint {
            load,
            stats: SyntheticStats::panicked_stub(load),
            telemetry: None,
        },
        PointFate::Panicked(msg),
    )
}

/// The standard load grid used by the figure harness: `steps` evenly
/// spaced points from `1/steps` to 100 % of link bandwidth (so
/// `load_grid(20)` is the paper's 5 %–100 % axis, while `load_grid(10)`
/// starts at 10 %). For a grid whose floor is decoupled from its
/// resolution, use [`load_grid_from`].
pub fn load_grid(steps: usize) -> Vec<f64> {
    assert!(steps >= 2);
    (1..=steps)
        .map(|i| i as f64 / steps as f64)
        .collect()
}

/// `steps` evenly spaced offered loads from `start` to 100 % inclusive —
/// a sweep axis whose floor does not move when the resolution changes.
pub fn load_grid_from(start: f64, steps: usize) -> Vec<f64> {
    assert!(steps >= 2);
    assert!(
        start > 0.0 && start < 1.0,
        "start must be in (0, 1), got {start}"
    );
    (0..steps)
        .map(|i| start + (1.0 - start) * i as f64 / (steps - 1) as f64)
        .collect()
}

/// Estimates the saturation throughput: the accepted throughput when
/// offering full load (the plateau of the throughput curve).
pub fn saturation_throughput(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
) -> f64 {
    crate::engine::run_synthetic(net, policy, pattern, 1.0, duration_ns, warmup_ns, cfg).throughput
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape() {
        let g = load_grid(10);
        assert_eq!(g.len(), 10);
        assert!((g[0] - 0.1).abs() < 1e-12);
        assert!((g[9] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grid_from_pins_both_ends() {
        let g = load_grid_from(0.05, 20);
        assert_eq!(g.len(), 20);
        assert!((g[0] - 0.05).abs() < 1e-12);
        assert!((g[19] - 1.0).abs() < 1e-12);
        // Doubling the resolution keeps the floor (unlike load_grid).
        let fine = load_grid_from(0.05, 39);
        assert!((fine[0] - 0.05).abs() < 1e-12);
        assert!((fine[38] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_seeds_spread_and_are_index_pure() {
        let base = SimConfig::default().seed;
        let seeds: Vec<u64> = (0..64).map(|i| point_seed(base, i)).collect();
        for (i, &a) in seeds.iter().enumerate() {
            assert_eq!(a, point_seed(base, i), "pure function of (base, idx)");
            for &b in &seeds[i + 1..] {
                assert_ne!(a, b, "adjacent indices must not collide");
            }
        }
        assert_ne!(point_seed(1, 0), point_seed(2, 0), "base seed must matter");
    }

    #[test]
    fn early_abort_stubs_higher_loads_and_raises_one_notice() {
        // Simulate the sweep loop with a synthetic "wedges at 0.5" run.
        let mut simulated = Vec::new();
        let out = sweep_impl(&[0.25, 0.5, 0.75, 1.0], |_, load, first_wedge| {
            if first_wedge.is_some() {
                return stub_point(load);
            }
            simulated.push(load);
            let mut stats = SyntheticStats::deadlocked_stub(load);
            stats.deadlocked = load >= 0.5;
            stats.throughput = load;
            (
                SweepPoint {
                    load,
                    stats,
                    telemetry: None,
                },
                PointFate::Simulated,
            )
        });
        assert_eq!(simulated, vec![0.25, 0.5]);
        let points = &out.points;
        assert_eq!(points.len(), 4);
        assert!(!points[0].stats.deadlocked);
        assert!(points[1].stats.deadlocked);
        assert!(points[2].stats.deadlocked && points[2].stats.throughput == 0.0);
        assert!(points[3].stats.deadlocked && points[3].stats.delivered_packets == 0);
        assert_eq!(out.notices.len(), 1);
        assert_eq!(out.notices[0].code, "wedged");
        assert_eq!(out.notices[0].index, 1);
        assert!((out.notices[0].load - 0.5).abs() < 1e-12);
        assert!(out.notices[0].render().contains("wedged at offered load 0.500"));
    }

    #[test]
    fn panicked_point_raises_coded_notice_without_aborting_the_sweep() {
        let mut simulated = Vec::new();
        let out = sweep_impl(&[0.25, 0.5, 0.75], |_, load, first_wedge| {
            assert!(first_wedge.is_none(), "a panic must not arm early-abort");
            simulated.push(load);
            if (load - 0.5).abs() < 1e-12 {
                return panicked_point(load, "boom".to_string());
            }
            let mut stats = SyntheticStats::deadlocked_stub(load);
            stats.deadlocked = false;
            (
                SweepPoint {
                    load,
                    stats,
                    telemetry: None,
                },
                PointFate::Simulated,
            )
        });
        // Every load simulated: the panic at 0.5 did not stub 0.75.
        assert_eq!(simulated, vec![0.25, 0.5, 0.75]);
        assert!(out.points[1].stats.deadlocked, "panicked stub is unusable");
        assert!(!out.points[2].stats.deadlocked);
        assert_eq!(out.notices.len(), 1);
        assert_eq!(out.notices[0].code, "panicked");
        assert_eq!(out.notices[0].index, 1);
        assert!(out.notices[0].message.contains("boom"));
    }

    #[test]
    fn exhausted_point_keeps_partial_stats_and_raises_coded_notice() {
        let out = sweep_impl(&[0.25, 0.5], |_, load, _| {
            let mut stats = SyntheticStats::deadlocked_stub(load);
            stats.deadlocked = false;
            stats.exhausted = (load - 0.5).abs() < 1e-12;
            stats.throughput = load * 0.9;
            (
                SweepPoint {
                    load,
                    stats,
                    telemetry: None,
                },
                PointFate::Simulated,
            )
        });
        assert!(out.points[1].stats.exhausted);
        assert!(out.points[1].stats.throughput > 0.0, "partial stats kept");
        assert_eq!(out.notices.len(), 1);
        assert_eq!(out.notices[0].code, "exhausted");
        assert_eq!(out.notices[0].index, 1);
    }

    #[test]
    fn run_point_isolated_catches_chaos_panics_and_recovers() {
        use crate::config::{ChaosKind, EngineChaos};
        use d2net_routing::Algorithm;
        use d2net_topo::slim_fly;
        use d2net_topo::SlimFlyP;

        let net = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let pattern = SyntheticPattern::Uniform;
        let cfg = SimConfig::default();
        let mut runner =
            PointRunner::try_new(&net, &policy, &pattern, cfg, 2_000, 200).unwrap();

        // Arm a panic a few hundred events in; the point must come back
        // as Err, not kill the process.
        runner.set_chaos(Some(EngineChaos {
            kind: ChaosKind::Panic,
            after_events: 300,
        }));
        let err = runner
            .run_point_isolated(0, 0.3, None, None, None)
            .unwrap_err();
        assert!(err.contains("chaos: injected panic"), "{err}");

        // Disarm: the very next point on the same runner must simulate
        // normally (the torn engine was dropped and rebuilt).
        runner.set_chaos(None);
        let (stats, ..) = runner.run_point_isolated(1, 0.3, None, None, None).unwrap();
        assert!(!stats.deadlocked);
        assert!(stats.delivered_packets > 0);

        // And it must be byte-identical to a fresh runner that never
        // saw the panic — isolation cannot leak into later points.
        let mut clean = PointRunner::try_new(&net, &policy, &pattern, cfg, 2_000, 200).unwrap();
        let (clean_stats, ..) = clean.run_point_isolated(1, 0.3, None, None, None).unwrap();
        assert_eq!(stats, clean_stats);
    }
}
