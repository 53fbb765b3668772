//! Supervised sweeps, and the one sweep pool every sweep runs on.
//!
//! The pool fans the points of one sweep across scoped workers, each
//! with a reusable [`PointRunner`], and isolates a panicking point into
//! a coded stub; the plain [`crate::sweep()`] is the pool with no
//! supervision. The *supervisor* adds deterministic seeded **retries**
//! for points that fail
//! (panic or budget exhaustion), a seeded **chaos registry** that
//! injects panics and stalls inside the engine so the supervisor is
//! itself testable, per-point **completion hooks** (the durable journal
//! in `d2net-core` appends from them), **resume** from previously
//! completed points, and a cooperative **stop** signal for graceful
//! drains (the batch service's SIGTERM path).
//!
//! # Determinism contract
//!
//! With chaos disabled and no budget configured, a supervised sweep is
//! `==` to [`crate::sweep()`] at any thread count — points, notices,
//! traces, ledgers, everything. Every point retries
//! from the *same* index-derived seed, so a point that succeeds on a
//! retry is byte-identical to one that never failed; chaos decisions
//! are a pure function of `(chaos seed, point seed, attempt)`, so a
//! chaos run is reproducible end to end.

use crate::config::{ChaosKind, EngineChaos, SimConfig};
use crate::ledger::{EngineLedger, PointLedger};
use crate::shard::{Observers, Synthetic};
use crate::stats::SyntheticStats;
use crate::sweep::{point_seed, PointRunner, SweepNotice, SweepOutcome, SweepPoint};
use crate::telemetry::TelemetrySummary;
use crate::trace::{EngineTrace, PointTrace};
use d2net_routing::RoutePolicy;
use d2net_topo::Network;
use d2net_traffic::SyntheticPattern;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// SplitMix64-style mix of three words — the one hash behind chaos
/// decisions and backoff jitter, so both are pure functions of their
/// inputs.
fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(c.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fault-injection registry: seeded, deterministic probabilities of
/// an injected panic or stall per `(point, attempt)`. Parsed from the
/// `D2NET_CHAOS` environment variable (`panic=0.05,stall=0.02,seed=7`)
/// or built directly in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability an attempt panics mid-run.
    pub panic_p: f64,
    /// Probability an attempt stalls (stops making event progress until
    /// its wall budget trips — see [`crate::config::ChaosKind::Stall`]).
    pub stall_p: f64,
    /// Registry seed; decisions are pure in `(seed, point seed, attempt)`.
    pub seed: u64,
}

impl ChaosConfig {
    /// Parses the `D2NET_CHAOS` grammar: comma-separated `key=value`
    /// pairs with keys `panic`, `stall` (probabilities in `[0, 1]`) and
    /// `seed` (u64). Unmentioned keys default to zero.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let mut out = ChaosConfig {
            panic_p: 0.0,
            stall_p: 0.0,
            seed: 0,
        };
        for part in raw.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{part}'"))?;
            match key.trim() {
                "panic" | "stall" => {
                    let p: f64 = val
                        .trim()
                        .parse()
                        .map_err(|_| format!("'{val}' is not a probability"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("probability {p} outside [0, 1]"));
                    }
                    if key.trim() == "panic" {
                        out.panic_p = p;
                    } else {
                        out.stall_p = p;
                    }
                }
                "seed" => {
                    out.seed = val
                        .trim()
                        .parse()
                        .map_err(|_| format!("'{val}' is not a u64 seed"))?;
                }
                other => return Err(format!("unknown chaos key '{other}'")),
            }
        }
        Ok(out)
    }

    /// Reads `D2NET_CHAOS`. Unset (or set to a registry with zero
    /// probabilities) means no chaos; an unparsable value emits one
    /// coded `ENV_INVALID` WARN and disables chaos rather than guessing.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("D2NET_CHAOS").ok()?;
        match Self::parse(&raw) {
            Ok(c) if c.panic_p > 0.0 || c.stall_p > 0.0 => Some(c),
            Ok(_) => None,
            Err(e) => {
                crate::obs::warn_line(
                    "env_invalid",
                    &format!("d2net: WARN ENV_INVALID D2NET_CHAOS='{raw}' ({e}); chaos disabled"),
                );
                None
            }
        }
    }

    /// The registry's verdict for one `(point, attempt)`: `None` (run
    /// clean) or an armed [`EngineChaos`] with a derived fire point.
    /// Pure, so the same sweep under the same registry always fails at
    /// the same points — and a retry (higher `attempt`) re-rolls.
    pub fn decide(&self, pseed: u64, attempt: u32) -> Option<EngineChaos> {
        let r = mix3(self.seed, pseed, attempt as u64);
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        let kind = if u < self.panic_p {
            ChaosKind::Panic
        } else if u < self.panic_p + self.stall_p {
            ChaosKind::Stall
        } else {
            return None;
        };
        let after_events = 50 + mix3(self.seed ^ 0xA5A5, pseed, attempt as u64) % 4_000;
        Some(EngineChaos { kind, after_events })
    }
}

/// Supervisor policy: how many retries a failing point gets and how the
/// deterministic backoff between attempts is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperviseConfig {
    /// Retries per point after the first attempt (so a point runs at
    /// most `1 + max_retries` times).
    pub max_retries: u32,
    /// Base backoff in milliseconds; attempt `k` sleeps
    /// `base << k` plus a seeded jitter in `[0, base)`.
    pub backoff_base_ms: u64,
    /// Fault-injection registry; `None` runs clean.
    pub chaos: Option<ChaosConfig>,
    /// Worker threads (`0` = auto, same resolution as
    /// [`crate::par::resolve_threads`]).
    pub threads: usize,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            max_retries: 2,
            backoff_base_ms: 5,
            chaos: None,
            threads: 0,
        }
    }
}

/// Deterministic backoff for retry `attempt` of the point seeded
/// `pseed`: exponential in the attempt with a seeded jitter, no global
/// RNG — two runs of the same sweep sleep identically.
pub fn backoff_ms(cfg: &SuperviseConfig, pseed: u64, attempt: u32) -> u64 {
    let base = cfg.backoff_base_ms.max(1);
    (base << attempt.min(6)) + mix3(0xB0FF, pseed, attempt as u64) % base
}

/// Per-category point counts for the run's `"supervision"` report
/// section. `completed` counts points simulated to a real result this
/// run (wedges included — a wedge is a result); the other counters are
/// the exceptional paths. Counters need not sum to the point count:
/// early-abort stubs are in no category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SupervisionSummary {
    pub completed: usize,
    /// Points that succeeded only after at least one retry.
    pub retried: usize,
    /// Points whose final outcome (after retries) was budget exhaustion.
    pub exhausted: usize,
    /// Points whose final outcome (after retries) was an isolated panic.
    pub panicked: usize,
    /// Points prefilled from a resume journal instead of simulated.
    pub skipped_by_resume: usize,
    /// Points never started because the stop signal fired first.
    pub not_run: usize,
}

impl SupervisionSummary {
    /// True when the run had nothing to report beyond plain completions
    /// — the condition under which the manifest omits the section
    /// entirely, keeping supervised output byte-identical to
    /// unsupervised output.
    pub fn is_trivial(&self) -> bool {
        self.retried == 0
            && self.exhausted == 0
            && self.panicked == 0
            && self.skipped_by_resume == 0
            && self.not_run == 0
    }
}

/// A supervised sweep's outcome plus its supervision accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedSweep {
    pub outcome: SweepOutcome,
    pub summary: SupervisionSummary,
}

/// A completion-hook borrow: `(point index, its stats)`, callable from
/// worker threads.
pub type OnPointHook<'h> = &'h (dyn Fn(usize, &SyntheticStats) + Sync);

/// Caller hooks threaded through a supervised sweep. All default to
/// inert; every field is optional so plain callers pass
/// `SuperviseHooks::default()`.
#[derive(Default)]
pub struct SuperviseHooks<'h> {
    /// Resume prefill: `Some(stats)` at index `i` replays a previously
    /// journaled result for point `i` instead of simulating it. Length
    /// must equal the load grid's when present.
    pub prefilled: Option<&'h [Option<SyntheticStats>]>,
    /// Cooperative stop: polled before each point is claimed. Once it
    /// returns true, no new points start; in-flight points finish.
    pub stop: Option<&'h (dyn Fn() -> bool + Sync)>,
    /// Completion hook, called from worker threads for every point that
    /// reached a real simulated result this run (the journal's append
    /// point). Not called for resumed, exhausted, panicked, or stubbed
    /// points.
    pub on_point: Option<OnPointHook<'h>>,
}

/// How one slot ended — drives notices and accounting in the final pass.
enum SlotFate {
    /// Simulated to a real result this run, after `retries` retries.
    Fresh { retries: u32 },
    /// Prefilled from the resume journal.
    Resumed,
    /// Final outcome was budget exhaustion (stats are the last
    /// attempt's partial measurements).
    Exhausted,
    /// Final outcome was an isolated panic (stats are a panicked stub).
    Panicked { msg: String },
}

/// One point's result as the pool holds it until the final pass.
struct Slot {
    stats: SyntheticStats,
    telemetry: Option<TelemetrySummary>,
    trace: Option<EngineTrace>,
    ledger: Option<EngineLedger>,
    fate: SlotFate,
}

impl Slot {
    /// A genuine wedge (fresh or resumed) — not a panicked stub, which
    /// also reads `deadlocked` but is an isolated fault, not evidence
    /// the network deadlocks at every higher load.
    fn wedged(&self) -> bool {
        self.stats.deadlocked && !matches!(self.fate, SlotFate::Panicked { .. })
    }
}

/// [`crate::sweep()`] under supervision: panics isolated, budgets
/// enforced, failing points retried with seeded backoff, resume
/// prefill, a cooperative stop signal and a per-point completion hook
/// (see [`SuperviseHooks`]), and the outcome annotated with a
/// [`SupervisionSummary`]. Threads come from [`SuperviseConfig::threads`].
#[allow(clippy::too_many_arguments)]
pub fn supervised_sweep(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    obs: Observers,
    sup: &SuperviseConfig,
    hooks: &SuperviseHooks<'_>,
) -> SupervisedSweep {
    let order: Vec<usize> = (0..loads.len()).collect();
    let spec = Synthetic::new(pattern, 0.0, duration_ns, warmup_ns);
    pool(net, policy, spec, loads, cfg, obs, sup, hooks, &order)
}

/// The one sweep pool: workers claim point indices in `order` from an
/// atomic cursor, skip indices above the lowest wedged index seen so far
/// (a watermark), and a final pass in index order stubs every point
/// above the first genuine wedge and rebuilds the notices. Any index
/// below that first wedge was necessarily simulated (it could never
/// have been above the watermark), so the outcome equals a serial
/// in-order loop's regardless of thread count or completion order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pool(
    net: &Network,
    policy: &RoutePolicy,
    spec: Synthetic<'_>,
    loads: &[f64],
    cfg: SimConfig,
    obs: Observers,
    sup: &SuperviseConfig,
    hooks: &SuperviseHooks<'_>,
    order: &[usize],
) -> SupervisedSweep {
    let n = loads.len();
    assert_eq!(order.len(), n, "work order must cover every point once");
    debug_assert!({
        let mut seen = vec![false; n];
        order
            .iter()
            .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
    });
    if let Some(pre) = hooks.prefilled {
        assert_eq!(pre.len(), n, "prefill must cover every point");
    }
    // One static pass covers every load point: verification is
    // load-independent, so the per-point configs run with it disabled.
    let rejected = |e| SupervisedSweep {
        outcome: crate::sweep::rejected_outcome(loads, e),
        summary: SupervisionSummary::default(),
    };
    let cfg = match crate::engine::try_preflight_once(net, policy, cfg) {
        Ok(cfg) => cfg,
        Err(e) => return rejected(e),
    };
    if let Err(e) = PointRunner::try_new(net, policy, spec, cfg) {
        return rejected(e);
    }
    crate::obs::sweep_started(n);
    // Each point of a sharded sweep occupies `shards` threads of its
    // own (see `crate::shard`); divide the one budget between point-
    // and shard-level parallelism instead of oversubscribing.
    let shards = crate::shard::plan_shards(net, policy, &cfg);
    let threads = (crate::par::resolve_threads(sup.threads) / shards)
        .max(1)
        .min(n.max(1));
    let results: Vec<Mutex<Option<Slot>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Low-watermark of wedged point indices: workers skip indices
    // strictly above it instead of burning a full simulated horizon on a
    // point the final pass stubs anyway.
    let watermark = AtomicUsize::new(usize::MAX);
    // Replay the prefill before any worker starts: resumed wedges arm
    // the watermark exactly like freshly simulated ones.
    if let Some(pre) = hooks.prefilled {
        for (idx, slot) in pre.iter().enumerate() {
            if let Some(stats) = slot {
                if stats.deadlocked {
                    watermark.fetch_min(idx, Ordering::Relaxed);
                }
                *results[idx].lock().unwrap() = Some(Slot {
                    stats: stats.clone(),
                    telemetry: None,
                    trace: None,
                    ledger: None,
                    fate: SlotFate::Resumed,
                });
            }
        }
    }
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut runner = PointRunner::try_new(net, policy, spec, cfg)
            .expect("validated before spawning workers");
        loop {
            if hooks.stop.is_some_and(|stop| stop()) {
                break;
            }
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= n {
                break;
            }
            let idx = order[k];
            if results[idx].lock().unwrap().is_some() {
                continue; // prefilled by the resume journal
            }
            if idx > watermark.load(Ordering::Relaxed) {
                continue; // will be stubbed by the final pass
            }
            let slot = run_supervised_point(&mut runner, idx, loads[idx], cfg.seed, obs, sup);
            if slot.wedged() {
                watermark.fetch_min(idx, Ordering::Relaxed);
            }
            if let (Some(hook), SlotFate::Fresh { .. }) = (hooks.on_point, &slot.fate) {
                hook(idx, &slot.stats);
            }
            *results[idx].lock().unwrap() = Some(slot);
        }
    };
    // Even a lone worker gets a thread of its own: running it on the
    // calling thread raised `perfbench` `coral_sweep` (1 worker × 2
    // shards) peak RSS from 150–155 MB to 182–202 MB, results unchanged.
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(worker);
        }
    });
    let first_wedge = results
        .iter()
        .position(|slot| slot.lock().unwrap().as_ref().is_some_and(Slot::wedged));
    let mut outcome = SweepOutcome {
        points: Vec::with_capacity(n),
        notices: Vec::new(),
        traces: Vec::new(),
        ledgers: Vec::new(),
    };
    let mut notices = Vec::new();
    let mut note = |notice: SweepNotice| {
        crate::obs::notice(&notice);
        notices.push(notice);
    };
    let mut summary = SupervisionSummary::default();
    let mut stub_count: u64 = 0;
    // Notices are rebuilt here in index order — one fate notice per
    // surviving point plus the single wedge notice — so they compare
    // `==` at every thread count. Traces and ledgers of points simulated
    // only by racing ahead of the watermark are dropped with their stats.
    for (idx, slot) in results.into_iter().enumerate() {
        let load = loads[idx];
        let stubbed = first_wedge.is_some_and(|w| idx > w);
        let point = match (stubbed, slot.into_inner().unwrap()) {
            (false, Some(slot)) => {
                match slot.fate {
                    SlotFate::Fresh { retries } => {
                        summary.completed += 1;
                        if retries > 0 {
                            summary.retried += 1;
                        }
                    }
                    SlotFate::Resumed => summary.skipped_by_resume += 1,
                    SlotFate::Exhausted => {
                        summary.exhausted += 1;
                        note(SweepNotice::exhausted(idx, load));
                    }
                    SlotFate::Panicked { msg } => {
                        summary.panicked += 1;
                        note(SweepNotice::panicked(idx, load, &msg));
                    }
                }
                if first_wedge == Some(idx) {
                    note(SweepNotice::wedged(idx, load));
                }
                if let Some(trace) = slot.trace {
                    outcome.traces.push(PointTrace {
                        index: idx,
                        load,
                        trace,
                    });
                }
                if let Some(ledger) = slot.ledger {
                    outcome.ledgers.push(PointLedger {
                        index: idx,
                        load,
                        ledger,
                    });
                }
                SweepPoint {
                    load,
                    stats: slot.stats,
                    telemetry: slot.telemetry,
                }
            }
            (stubbed, _) => {
                if !stubbed {
                    // Never claimed: the stop signal fired first. The
                    // stub keeps the curve one-entry-per-load; resume
                    // re-simulates it.
                    if summary.not_run == 0 {
                        note(SweepNotice::new(
                            "deadline",
                            idx,
                            load,
                            format!(
                                "sweep stopped before offered load {load:.3}; \
                                 remaining points left for resume"
                            ),
                        ));
                    }
                    summary.not_run += 1;
                } else {
                    stub_count += 1;
                }
                SweepPoint {
                    load,
                    stats: SyntheticStats::deadlocked_stub(load),
                    telemetry: None,
                }
            }
        };
        outcome.points.push(point);
    }
    outcome.notices = notices;
    crate::obs::sweep_finished(&crate::obs::SweepAccounting {
        completed: summary.completed as u64,
        retried: summary.retried as u64,
        panicked: summary.panicked as u64,
        exhausted: summary.exhausted as u64,
        resumed: summary.skipped_by_resume as u64,
        not_run: summary.not_run as u64,
        stubbed: stub_count,
    });
    SupervisedSweep { outcome, summary }
}

/// One point's retry loop: decide chaos for the attempt, run isolated,
/// retry panics and exhaustions with deterministic backoff, give up
/// into a coded fate after `max_retries`.
fn run_supervised_point(
    runner: &mut PointRunner<'_>,
    idx: usize,
    load: f64,
    base_seed: u64,
    obs: Observers,
    sup: &SuperviseConfig,
) -> Slot {
    let pseed = point_seed(base_seed, idx);
    let mut attempt: u32 = 0;
    loop {
        let chaos = sup.chaos.as_ref().and_then(|c| c.decide(pseed, attempt));
        if let Some(c) = &chaos {
            let kind = match c.kind {
                ChaosKind::Panic => "panic",
                ChaosKind::Stall => "stall",
            };
            crate::obs::chaos_armed(idx, attempt, kind, c.after_events);
        }
        runner.set_chaos(chaos);
        let result = runner.run_point_isolated(idx, load, obs);
        runner.set_chaos(None);
        let give_up = attempt >= sup.max_retries;
        let reason = match result {
            Ok(run) if !run.stats.exhausted || give_up => {
                let fate = if run.stats.exhausted {
                    SlotFate::Exhausted
                } else {
                    SlotFate::Fresh { retries: attempt }
                };
                return Slot {
                    telemetry: run.telemetry.map(|r| r.summary()),
                    stats: run.stats,
                    trace: run.trace,
                    ledger: run.ledger,
                    fate,
                };
            }
            Err(msg) if give_up => {
                return Slot {
                    stats: SyntheticStats::panicked_stub(load),
                    telemetry: None,
                    trace: None,
                    ledger: None,
                    fate: SlotFate::Panicked { msg },
                };
            }
            Ok(_) => "exhausted",
            Err(_) => "panic",
        };
        crate::obs::retry(idx, load, attempt + 1, reason);
        std::thread::sleep(std::time::Duration::from_millis(backoff_ms(
            sup, pseed, attempt,
        )));
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunBudget;
    use crate::sweep::{load_grid, sweep};
    use d2net_routing::Algorithm;
    use d2net_topo::{slim_fly, SlimFlyP};

    fn fixture() -> (Network, RoutePolicy, SyntheticPattern) {
        let net = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        (net, policy, SyntheticPattern::Uniform)
    }

    /// A 6 µs supervised sweep of `fixture()` with a 1 µs warm-up.
    fn supervised(
        loads: &[f64],
        cfg: SimConfig,
        sup: &SuperviseConfig,
        hooks: &SuperviseHooks<'_>,
    ) -> SupervisedSweep {
        let (net, policy, pattern) = fixture();
        let obs = Observers::default();
        supervised_sweep(
            &net, &policy, &pattern, loads, 6_000, 1_000, cfg, obs, sup, hooks,
        )
    }

    #[test]
    fn chaos_parse_grammar() {
        let c = ChaosConfig::parse("panic=0.05,stall=0.02,seed=7").unwrap();
        assert_eq!(c.panic_p, 0.05);
        assert_eq!(c.stall_p, 0.02);
        assert_eq!(c.seed, 7);
        assert_eq!(
            ChaosConfig::parse("panic=0.5").unwrap(),
            ChaosConfig {
                panic_p: 0.5,
                stall_p: 0.0,
                seed: 0
            }
        );
        assert!(ChaosConfig::parse("panic=2.0").is_err());
        assert!(ChaosConfig::parse("frob=1").is_err());
        assert!(ChaosConfig::parse("panic").is_err());
    }

    #[test]
    fn chaos_decisions_are_pure_and_roughly_calibrated() {
        let c = ChaosConfig {
            panic_p: 0.2,
            stall_p: 0.1,
            seed: 42,
        };
        let mut fired = 0;
        for i in 0..1_000u64 {
            let d0 = c.decide(i, 0);
            assert_eq!(d0, c.decide(i, 0), "decision must be pure");
            if d0.is_some() {
                fired += 1;
            }
        }
        // 30 % nominal; allow a generous band.
        assert!((200..=400).contains(&fired), "fired {fired}/1000");
        // Attempts re-roll: some point that fails at attempt 0 must run
        // clean at attempt 1.
        assert!(
            (0..1_000u64).any(|i| c.decide(i, 0).is_some() && c.decide(i, 1).is_none()),
            "retries must be able to clear chaos"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let sup = SuperviseConfig::default();
        let a = backoff_ms(&sup, 123, 0);
        assert_eq!(a, backoff_ms(&sup, 123, 0));
        assert!(backoff_ms(&sup, 123, 3) >= backoff_ms(&sup, 123, 0));
    }

    #[test]
    fn clean_supervised_sweep_equals_parallel_sweep() {
        let (net, policy, pattern) = fixture();
        let loads = load_grid(4);
        let cfg = SimConfig::default();
        let obs = Observers::default();
        let plain = sweep(&net, &policy, &pattern, &loads, 6_000, 1_000, cfg, obs, 2);
        let sup = supervised(
            &loads,
            cfg,
            &SuperviseConfig {
                threads: 2,
                ..SuperviseConfig::default()
            },
            &SuperviseHooks::default(),
        );
        assert_eq!(
            sup.outcome, plain,
            "supervision must be invisible when clean"
        );
        assert!(sup.summary.is_trivial());
        assert_eq!(sup.summary.completed, loads.len());
    }

    #[test]
    fn chaos_panics_are_retried_to_byte_identical_results() {
        let loads = load_grid(4);
        let cfg = SimConfig::default();
        let clean = supervised(
            &loads,
            cfg,
            &SuperviseConfig::default(),
            &SuperviseHooks::default(),
        );
        // Heavy panic chaos, plenty of retries: every point must still
        // come back identical to the clean run because retries reuse the
        // point seed.
        let chaotic = supervised(
            &loads,
            cfg,
            &SuperviseConfig {
                max_retries: 8,
                backoff_base_ms: 1,
                chaos: Some(ChaosConfig {
                    panic_p: 0.5,
                    stall_p: 0.0,
                    seed: 3,
                }),
                threads: 2,
            },
            &SuperviseHooks::default(),
        );
        assert_eq!(chaotic.outcome, clean.outcome);
        assert!(chaotic.summary.retried > 0, "chaos at 50 % must have fired");
        assert_eq!(chaotic.summary.panicked, 0);
    }

    #[test]
    fn exhausted_retries_give_up_into_coded_notice() {
        let loads = [0.3, 0.6];
        // A budget so small every point exhausts, with no chaos: the
        // supervisor must retry, give up, and keep the partial stats.
        let cfg = SimConfig {
            budget: RunBudget::events(200),
            ..SimConfig::default()
        };
        let sup = supervised(
            &loads,
            cfg,
            &SuperviseConfig {
                max_retries: 1,
                backoff_base_ms: 1,
                ..SuperviseConfig::default()
            },
            &SuperviseHooks::default(),
        );
        assert_eq!(sup.summary.exhausted, 2);
        assert_eq!(sup.summary.completed, 0);
        assert!(sup.outcome.points.iter().all(|p| p.stats.exhausted));
        assert!(!sup.outcome.points.iter().any(|p| p.stats.deadlocked));
        assert_eq!(sup.outcome.notices.len(), 2);
        assert!(sup.outcome.notices.iter().all(|n| n.code == "exhausted"));
    }

    #[test]
    fn resume_prefill_skips_points_and_reproduces_the_full_run() {
        let loads = load_grid(4);
        let cfg = SimConfig::default();
        let full = supervised(
            &loads,
            cfg,
            &SuperviseConfig::default(),
            &SuperviseHooks::default(),
        );
        // Prefill the first half from the "journal" and resume.
        let prefilled: Vec<Option<SyntheticStats>> = full
            .outcome
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| (i < 2).then(|| p.stats.clone()))
            .collect();
        let resumed_points = Mutex::new(Vec::new());
        let on_point = |idx: usize, _: &SyntheticStats| {
            resumed_points.lock().unwrap().push(idx);
        };
        let resumed = supervised(
            &loads,
            cfg,
            &SuperviseConfig::default(),
            &SuperviseHooks {
                prefilled: Some(&prefilled),
                stop: None,
                on_point: Some(&on_point),
            },
        );
        assert_eq!(resumed.outcome, full.outcome, "resume must be invisible");
        assert_eq!(resumed.summary.skipped_by_resume, 2);
        assert_eq!(resumed.summary.completed, 2);
        let mut sim_idxs = resumed_points.into_inner().unwrap();
        sim_idxs.sort_unstable();
        assert_eq!(sim_idxs, vec![2, 3], "only the missing points re-simulate");
    }

    #[test]
    fn stop_signal_drains_gracefully_with_deadline_notice() {
        let loads = load_grid(4);
        let cfg = SimConfig::default();
        let stop = || true; // stop before anything starts
        let out = supervised(
            &loads,
            cfg,
            &SuperviseConfig {
                threads: 2,
                ..SuperviseConfig::default()
            },
            &SuperviseHooks {
                prefilled: None,
                stop: Some(&stop),
                on_point: None,
            },
        );
        assert_eq!(out.summary.not_run, loads.len());
        assert_eq!(out.summary.completed, 0);
        assert_eq!(out.outcome.notices.len(), 1);
        assert_eq!(out.outcome.notices[0].code, "deadline");
        assert_eq!(out.outcome.points.len(), loads.len());
    }
}
