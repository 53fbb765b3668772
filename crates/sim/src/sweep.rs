//! Load sweeps and saturation search — the X axes of the paper's
//! throughput/delay figures (Figs. 6–12).
//!
//! Every sweep point runs from an **index-derived seed**
//! ([`point_seed`]), so a point's simulated schedule depends only on
//! `(base seed, index)` — never on which points ran before it or on
//! which thread. That is what lets [`sweep`] return byte-identical
//! results at every thread count.

use crate::config::{EngineChaos, SimConfig};
use crate::engine::Engine;
use crate::ledger::PointLedger;
use crate::observer::Observers;
use crate::shard::{run_one_shard, Run, Synthetic, Workload};
use crate::stats::SyntheticStats;
use crate::supervise::{pool, SuperviseConfig, SuperviseHooks};
use crate::telemetry::TelemetrySummary;
use crate::trace::PointTrace;
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
    /// Present when the sweep ran with [`Observers::probe`] set.
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
        traces: Vec::new(),
        ledgers: Vec::new(),
    }
}

/// A sweep's points plus any notices it raised, and the trace and
/// ledger of every simulated point when those observers were attached.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepOutcome {
    pub points: Vec<SweepPoint>,
    pub notices: Vec<SweepNotice>,
    /// One per point that reached a simulated result, in index order;
    /// stubbed, panicked and resumed points have none, so the list is
    /// identical at every thread count.
    pub traces: Vec<PointTrace>,
    /// As `traces`, for the decision ledger.
    pub ledgers: Vec<PointLedger>,
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
/// — every sweep seeds its points through here.
/// (Single runs via [`crate::run_synthetic`] keep the raw `cfg.seed`.)
pub fn point_seed(base: u64, idx: usize) -> u64 {
    let mut z = base ^ (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Simulates successive points of one sweep on a single reusable
/// engine: the first point builds it, later points reset it, so the flat
/// per-port state is allocated once per sweep worker instead of once per
/// point.
pub(crate) struct PointRunner<'a> {
    net: &'a Network,
    policy: &'a RoutePolicy,
    /// Every point's workload; `load` is set per point.
    spec: Synthetic<'a>,
    cfg: SimConfig,
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
        spec: Synthetic<'a>,
        cfg: SimConfig,
    ) -> Result<Self, String> {
        spec.check(net)?;
        d2net_verify::invariant::vc_buffer_sufficient(
            cfg.buffer_bytes,
            policy.num_vcs(),
            cfg.packet_bytes,
        )?;
        Ok(PointRunner {
            net,
            policy,
            spec,
            cfg,
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
        obs: Observers,
    ) -> Run<SyntheticStats> {
        let spec = Synthetic { load, ..self.spec };
        if self.shards > 1 {
            // The sharded runner re-derives the run's randomness from
            // `cfg.seed`; substituting the point seed reproduces
            // exactly the stream the serial branch below would use.
            let mut pcfg = self.cfg;
            pcfg.seed = point_seed(self.cfg.seed, idx);
            if self.chaos.is_some() {
                pcfg.chaos = self.chaos;
            }
            return crate::shard::run(self.net, self.policy, &spec, pcfg, obs)
                .expect("point parameters were validated in try_new");
        }
        let warmup_ps = spec.warmup_ps();
        let seed = point_seed(self.cfg.seed, idx);
        let mut rng = SmallRng::seed_from_u64(seed);
        let sources = spec.sources(self.net, &self.cfg, &mut rng, 0, self.net.num_routers());
        let engine = match &mut self.engine {
            Some(e) => {
                e.reset(sources, warmup_ps, rng);
                e
            }
            None => self.engine.insert(
                Engine::build(
                    self.net,
                    self.policy,
                    self.cfg,
                    sources,
                    warmup_ps,
                    rng,
                    Vec::new(),
                    (0, self.net.num_routers()),
                )
                .expect("point parameters were validated in try_new"),
            ),
        };
        engine.set_point(seed, self.chaos.or(self.cfg.chaos));
        engine.attach(obs);
        run_one_shard(&spec, engine)
    }

    /// [`PointRunner::run_point`] behind `catch_unwind`: a panicking
    /// point comes back as `Err(panic message)` instead of unwinding
    /// into (and killing) the sweep. The reusable engine is dropped on
    /// the way out — it may hold arbitrary torn state — so the next
    /// point rebuilds from scratch.
    pub(crate) fn run_point_isolated(
        &mut self,
        idx: usize,
        load: f64,
        obs: Observers,
    ) -> Result<Run<SyntheticStats>, String> {
        let obs_t0 = crate::obs::enabled().then(std::time::Instant::now);
        let result = with_quiet_panics(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_point(idx, load, obs)
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
                Ok(run) => crate::obs::point_run(
                    idx,
                    load,
                    wall_ms,
                    events,
                    run.stats.throughput,
                    run.stats.deadlocked,
                    run.stats.exhausted,
                ),
                Err(msg) => crate::obs::point_panic(idx, load, wall_ms, msg),
            }
        }
        result
    }
}

/// Simulates `net` at each offered load in `loads` on `threads` workers
/// (`0` = auto, see [`crate::resolve_threads`]; `1` is the serial
/// sweep), returning one curve point per load plus any
/// [`SweepNotice`]s raised, and the trace and ledger of every simulated
/// point when `obs` attaches them. The outcome is `==` at every thread
/// count.
///
/// If a point wedges, the remaining (higher) loads are not simulated: a
/// deadlocked network stays deadlocked under more pressure, and each
/// wedged point would otherwise burn a full simulated horizon. Skipped
/// points carry [`SyntheticStats::deadlocked_stub`] so curves keep one
/// entry per requested load. A panicking point is isolated into a
/// [`SyntheticStats::panicked_stub`] with a `"panicked"` notice; a
/// rejected configuration stubs every point behind one `"rejected"`
/// notice.
///
/// This is [`crate::supervised_sweep`] with no retries, no chaos and
/// no hooks.
#[allow(clippy::too_many_arguments)]
pub fn sweep(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    obs: Observers,
    threads: usize,
) -> SweepOutcome {
    let order: Vec<usize> = (0..loads.len()).collect();
    sweep_with_order(
        net,
        policy,
        pattern,
        loads,
        duration_ns,
        warmup_ns,
        cfg,
        obs,
        threads,
        &order,
    )
}

/// [`sweep`] with an explicit work order — the audit hook for the
/// scheduling-independence property test: `order` is the sequence in
/// which the pool hands out point indices, and the result must be
/// identical for every permutation.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn sweep_with_order(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    obs: Observers,
    threads: usize,
    order: &[usize],
) -> SweepOutcome {
    let sup = SuperviseConfig {
        max_retries: 0,
        chaos: None,
        threads,
        ..SuperviseConfig::default()
    };
    let spec = Synthetic::new(pattern, 0.0, duration_ns, warmup_ns);
    pool(
        net,
        policy,
        spec,
        loads,
        cfg,
        obs,
        &sup,
        &SuperviseHooks::default(),
        order,
    )
    .outcome
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
    fn run_point_isolated_catches_chaos_panics_and_recovers() {
        use crate::config::{ChaosKind, EngineChaos};
        use d2net_routing::Algorithm;
        use d2net_topo::slim_fly;
        use d2net_topo::SlimFlyP;

        let net = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let pattern = SyntheticPattern::Uniform;
        let cfg = SimConfig::default();
        let spec = Synthetic::new(&pattern, 0.0, 2_000, 200);
        let mut runner = PointRunner::try_new(&net, &policy, spec, cfg).unwrap();

        // Arm a panic a few hundred events in; the point must come back
        // as Err, not kill the process.
        runner.set_chaos(Some(EngineChaos {
            kind: ChaosKind::Panic,
            after_events: 300,
        }));
        let err = runner
            .run_point_isolated(0, 0.3, Observers::default())
            .unwrap_err();
        assert!(err.contains("chaos: injected panic"), "{err}");

        // Disarm: the very next point on the same runner must simulate
        // normally (the torn engine was dropped and rebuilt).
        runner.set_chaos(None);
        let stats = runner
            .run_point_isolated(1, 0.3, Observers::default())
            .unwrap()
            .stats;
        assert!(!stats.deadlocked);
        assert!(stats.delivered_packets > 0);

        // And it must be byte-identical to a fresh runner that never
        // saw the panic — isolation cannot leak into later points.
        let mut clean = PointRunner::try_new(&net, &policy, spec, cfg).unwrap();
        let clean_stats = clean
            .run_point_isolated(1, 0.3, Observers::default())
            .unwrap()
            .stats;
        assert_eq!(stats, clean_stats);
    }
}
