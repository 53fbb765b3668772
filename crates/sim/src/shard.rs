//! Intra-run sharded simulation: conservative time-window engine
//! parallelism.
//!
//! Routers are partitioned into `k` contiguous shards, each a full
//! [`Engine`] restricted to its own router range
//! (`Engine::build_shard`). A coordinator runs the shards in lock-step
//! **conservative windows** (shard 0 on the coordinator's thread, each
//! other shard on a worker thread of its own): every cross-router
//! interaction (a packet's link traversal, a credit's return trip)
//! takes at least one link latency `L`, so if `T` is the global minimum
//! timestamp over all shard queues and undelivered mailbox items,
//! nothing a sibling emits at `t ≥ T` can influence another shard
//! before `T + L` — every shard may drain events with `t < T + L`
//! without synchronizing.
//!
//! Cross-shard transfers are staged into per-shard outboxes during a
//! window and routed to their owning shards at the barrier. The sender
//! assigns each staged event the exact `(time, key)` it would have
//! carried serially; keys are globally unique (per-router lanes, see
//! `Engine::next_key`), so each receiving queue's `(time, key)` order
//! reproduces the serial schedule byte-for-byte — the same total-order
//! argument that lets the calendar and heap queues cross-check today.
//! Mid-run faults ([`EngineFault`]) are applied at barriers; the
//! coordinator never opens a window across a fault time.
//!
//! One coordinator, [`run`], serves every [`Workload`]: a [`Synthetic`]
//! run stops at its horizon, an [`ExchangeRun`] drains until every
//! queue and mailbox is empty.
//!
//! Every observable output — [`SyntheticStats`], [`ExchangeStats`],
//! telemetry reports, traces, ledgers, and the manifests derived from
//! them — is byte-identical to the serial engine's for every shard
//! count. The
//! window protocol, the mailbox merge-ordering proof sketch, and the
//! shard-layout decisions are documented in DESIGN.md §14.

use crate::config::{EventQueueKind, SimConfig};
use crate::engine::{
    deadlock_forensics_sharded, engine_faults, partition_report_sharded, resolve_fault_policies,
    synthetic_sources, try_preflight_once, Engine, OutEv,
};
use crate::fault::FaultSchedule;
use crate::injector::NodeSource;
use crate::ledger::{EngineLedger, LedgerConfig};
use crate::stats::{ExchangeStats, SyntheticStats};
use crate::telemetry::{ProbeConfig, TelemetryReport};
use crate::trace::{EngineTrace, TraceConfig};
use d2net_routing::{Algorithm, RoutePolicy};
use d2net_topo::Network;
use d2net_traffic::{Exchange, SyntheticPattern};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::mpsc;

/// Below this router count the auto heuristic stays serial. Not because
/// windows fail to pay on small networks: on a 2-vCPU Xeon VM, 2 shards
/// ran a 60 µs uniform run at load 0.8 1.37–1.61× faster than 1 on
/// MLFM(h=4) and OFT(k=4) (30 and 39 routers), and the Fig. 13
/// all-to-all 1.06–1.65×. But the parallel sweeps split one thread
/// budget between point workers and shards, and whole points need no
/// barriers, so a small network's many short points get more from
/// point-level workers. CORAL-scale networks (hundreds to thousands of
/// routers) run fewer, longer points and are where shards take the
/// threads. An explicit request (`SimConfig::shards`, `D2NET_SHARDS`)
/// skips this floor.
const AUTO_MIN_ROUTERS: u32 = 128;

/// Ceiling on the auto-selected shard count; barrier traffic grows with
/// the shard count while per-shard work shrinks. The value is
/// unmeasured: the only multi-core shard measurements come from a 2-vCPU
/// VM (1.5–1.8× at 2 shards on an MLFM(h=15) MIN sweep), which cannot
/// show where returns diminish.
const AUTO_MAX_SHARDS: usize = 8;

/// The requested shard count before correctness clamps: an explicit
/// [`SimConfig::shards`] wins, then the `D2NET_SHARDS` environment
/// variable, then the machine's parallelism (capped). The flag says
/// whether the count was an explicit request (which skips the
/// small-network heuristic) or auto.
fn requested_shards(cfg: &SimConfig) -> (usize, bool) {
    if cfg.shards > 0 {
        return (cfg.shards as usize, true);
    }
    if let Some(n) = crate::envcfg::env_positive("D2NET_SHARDS") {
        return (n as usize, true);
    }
    let auto = std::thread::available_parallelism()
        .map(|n| n.get().min(AUTO_MAX_SHARDS))
        .unwrap_or(1);
    (auto, false)
}

/// The shard count a fault-free run over `net` under `policy`/`cfg` —
/// a synthetic run or an exchange — will actually use (`1` = serial).
/// The parallel sweeps call this to split one thread budget between
/// point-level and shard-level parallelism.
pub fn plan_shards(net: &Network, policy: &RoutePolicy, cfg: &SimConfig) -> usize {
    effective_shards(net, policy, cfg, false)
}

/// The shard count every run resolves through [`run`]:
/// the request from [`requested_shards`] (auto stays serial below
/// [`AUTO_MIN_ROUTERS`]), clamped to the router count, and forced to 1
/// where sharding cannot reproduce serial — the heap queue, global
/// UGAL, a fault at `t = 0`.
fn effective_shards(
    net: &Network,
    policy: &RoutePolicy,
    cfg: &SimConfig,
    fault_at_zero: bool,
) -> usize {
    let (k, explicit) = requested_shards(cfg);
    let mut k = k.min(net.num_routers() as usize).max(1);
    if !explicit && net.num_routers() < AUTO_MIN_ROUTERS {
        k = 1;
    }
    // The heap queue stays the unsharded reference implementation the
    // determinism suite cross-checks against.
    if cfg.event_queue == EventQueueKind::Heap {
        k = 1;
    }
    // Global UGAL reads *remote* output occupancies at injection time;
    // a shard only maintains its own routers' buffers, so the remote
    // view would be stale and diverge from serial. (Local UGAL — the
    // paper's variant — reads only the injection router's buffers.)
    if matches!(policy.algorithm(), Algorithm::UgalG { .. }) {
        k = 1;
    }
    // A fault at t = 0 shares its timestamp with the build-time
    // NodeWake events, which serial orders *before* it by formula key;
    // the barrier protocol applies faults before a window, so it
    // cannot reproduce that interleaving. Faults at any t > 0 only
    // ever share a timestamp with runtime-keyed events, which sort
    // after the fault exactly as the barrier applies them.
    if fault_at_zero {
        k = 1;
    }
    k
}

/// Contiguous router ranges `[lo, hi)` per shard, sizes differing by at
/// most one. Requires `1 ≤ k ≤ num_routers`; every range is non-empty.
fn shard_bounds(num_routers: u32, k: usize) -> Vec<(u32, u32)> {
    let k32 = k as u32;
    let base = num_routers / k32;
    let rem = num_routers % k32;
    let mut bounds = Vec::with_capacity(k);
    let mut lo = 0u32;
    for i in 0..k32 {
        let size = base + u32::from(i < rem);
        bounds.push((lo, lo + size));
        lo += size;
    }
    debug_assert_eq!(lo, num_routers);
    bounds
}

/// A mailbox item tagged with its destination shard.
type Routed = (usize, (u64, u64, OutEv));

/// Coordinator → shard commands. Each of the first two is answered by
/// exactly one [`Reply`].
enum Cmd {
    /// Deliver `inbox` into the shard's queue, then drain every event
    /// with `t < until`.
    Window {
        until: u64,
        inbox: Vec<(u64, u64, OutEv)>,
    },
    /// Apply fault-schedule entry `i` at this barrier — the sharded
    /// equivalent of popping the serial `Ev::LinkFail`.
    Fault(usize),
    /// Final bookkeeping (clock to `force_to`, the horizon, if events
    /// remained beyond it; probe flush to `flush_to`); the shard is
    /// then ready to be absorbed. `inbox` holds mailbox items still
    /// undelivered at the break — arrivals beyond the horizon. Serial
    /// keeps the matching events (and their trace flight records)
    /// queued past `end_ps`, so they are delivered rather than dropped:
    /// a migrant flight's record travels inside its `OutEv::Arrive` and
    /// would otherwise vanish from the merged trace.
    Finish {
        force_to: Option<u64>,
        flush_to: u64,
        inbox: Vec<(u64, u64, OutEv)>,
    },
}

/// Shard → coordinator barrier reply: the cross-shard events staged
/// during the window (already routed to their destination shards), the
/// shard's next queued timestamp and its clock.
struct Reply {
    shard: usize,
    outbox: Vec<Routed>,
    min_peek: Option<u64>,
    now: u64,
    /// The shard's run budget tripped inside the window (see
    /// [`crate::RunBudget`]): the coordinator stops opening windows and
    /// finalizes the partial run as exhausted.
    exhausted: bool,
}

/// Executes one coordinator command on a shard: the barrier reply, or
/// `None` after [`Cmd::Finish`], when the engine is ready to absorb.
fn serve(eng: &mut Engine, shard: usize, bounds: &[(u32, u32)], cmd: Cmd) -> Option<Reply> {
    match cmd {
        Cmd::Window { until, inbox } => {
            for (t, key, ev) in inbox {
                eng.deliver(t, key, ev);
            }
            eng.run_window(until);
        }
        Cmd::Fault(i) => eng.apply_fault(i),
        Cmd::Finish {
            force_to,
            flush_to,
            inbox,
        } => {
            for (t, key, ev) in inbox {
                eng.deliver(t, key, ev);
            }
            if let Some(t) = force_to {
                eng.force_now(t);
            }
            eng.flush_probe_to(flush_to);
            return None;
        }
    }
    let outbox = eng
        .take_outbox()
        .into_iter()
        .map(|(t, key, ev)| {
            let dst = Engine::owner_shard(bounds, eng.out_ev_router(&ev));
            (dst, (t, key, ev))
        })
        .collect();
    Some(Reply {
        shard,
        outbox,
        min_peek: eng.min_peek(),
        now: eng.now(),
        exhausted: eng.budget_exhausted(),
    })
}

/// A worker thread's loop over shards `1..k`; shard 0 runs on the
/// coordinator's own thread.
fn shard_worker<'a>(
    mut eng: Engine<'a>,
    shard: usize,
    bounds: &[(u32, u32)],
    rx: mpsc::Receiver<Cmd>,
    tx: mpsc::Sender<Reply>,
) -> Engine<'a> {
    for cmd in rx {
        match serve(&mut eng, shard, bounds, cmd) {
            Some(reply) => {
                let _ = tx.send(reply);
            }
            None => break,
        }
    }
    eng
}

/// Takes shard 0's own reply and waits for one [`Reply`] from each of
/// the other `k − 1` shards, refreshing each shard's queue minimum,
/// advancing `clock` to the latest shard clock, and routing staged
/// events into the destination inboxes. Returns whether any shard's run
/// budget tripped.
fn collect_replies(
    lead: Option<Reply>,
    rx: &mpsc::Receiver<Reply>,
    k: usize,
    min_peeks: &mut [Option<u64>],
    inboxes: &mut [Vec<(u64, u64, OutEv)>],
    clock: &mut u64,
) -> bool {
    let lead = lead.expect("window and fault commands are answered");
    let mut exhausted = false;
    let others = (1..k).map(|_| rx.recv().expect("shard worker alive"));
    for r in std::iter::once(lead).chain(others) {
        min_peeks[r.shard] = r.min_peek;
        *clock = (*clock).max(r.now);
        exhausted |= r.exhausted;
        for (dst, item) in r.outbox {
            inboxes[dst].push(item);
        }
    }
    exhausted
}

mod sealed {
    pub trait Sealed {}
}

/// What one [`run`] simulates: [`Synthetic`] traffic to a horizon or an
/// [`ExchangeRun`] drained to completion. The window-barrier coordinator
/// is shared by every workload; a workload only says how an engine's
/// node sources are built, where the run stops, and how the finished
/// engine is turned into statistics. Sealed: the two spec types are the
/// only implementations.
pub trait Workload: sealed::Sealed {
    /// What a finished run reports.
    type Stats;
    /// Rejects a spec that cannot run on `net` (before any engine is built).
    #[doc(hidden)]
    fn check(&self, net: &Network) -> Result<(), String>;
    /// `Some(end_ps)`: events past the horizon stay unprocessed (a
    /// steady-state run). `None`: run until every queue and mailbox is
    /// empty (an exchange drains to completion).
    #[doc(hidden)]
    fn horizon_ps(&self) -> Option<u64>;
    #[doc(hidden)]
    fn warmup_ps(&self) -> u64;
    #[doc(hidden)]
    fn schedule(&self) -> Option<&FaultSchedule>;
    /// One source per node for an engine owning routers `[lo, hi)`,
    /// drawn from the run's identically seeded master RNG.
    #[doc(hidden)]
    fn sources(
        &self,
        net: &Network,
        cfg: &SimConfig,
        rng: &mut SmallRng,
        lo: u32,
        hi: u32,
    ) -> Vec<NodeSource>;
    /// The unsharded run on a fully built engine.
    #[doc(hidden)]
    fn run_serial(&self, eng: &mut Engine) -> (Self::Stats, Option<TelemetryReport>);
    /// Statistics of a sharded run's merged engine (also finalizes its
    /// trace and ledger).
    #[doc(hidden)]
    fn stats(&self, eng: &mut Engine, wedged: bool) -> Self::Stats;
}

/// Steady-state synthetic traffic: `load` is the per-node offered load
/// as a fraction of link bandwidth, simulated for `duration_ns` with
/// statistics collected after `warmup_ns` (paper §4.1: 200 µs with a
/// 20 µs warm-up). Under `faults`, each event's failures fire at their
/// simulated time with drain-or-drop semantics, and injections from then
/// on route with a policy repaired around the cumulative degradation
/// ([`d2net_routing::RoutePolicy::repair`]); unroutable traffic retries
/// at the source with exponential backoff before being dropped.
#[derive(Debug, Clone, Copy)]
pub struct Synthetic<'w> {
    pub pattern: &'w SyntheticPattern,
    pub load: f64,
    pub duration_ns: u64,
    pub warmup_ns: u64,
    pub faults: Option<&'w FaultSchedule>,
}

impl<'w> Synthetic<'w> {
    /// A fault-free synthetic run.
    pub fn new(pattern: &'w SyntheticPattern, load: f64, duration_ns: u64, warmup_ns: u64) -> Self {
        Synthetic {
            pattern,
            load,
            duration_ns,
            warmup_ns,
            faults: None,
        }
    }

    /// The same run under a mid-run fault schedule.
    pub fn with_faults(self, faults: &'w FaultSchedule) -> Self {
        Synthetic {
            faults: Some(faults),
            ..self
        }
    }

    fn end_ps(&self) -> u64 {
        self.duration_ns * 1_000
    }
}

impl sealed::Sealed for Synthetic<'_> {}

impl Workload for Synthetic<'_> {
    type Stats = SyntheticStats;

    fn check(&self, _net: &Network) -> Result<(), String> {
        d2net_verify::invariant::warmup_within(self.warmup_ns, self.duration_ns)
    }

    fn horizon_ps(&self) -> Option<u64> {
        Some(self.end_ps())
    }

    fn warmup_ps(&self) -> u64 {
        self.warmup_ns * 1_000
    }

    fn schedule(&self) -> Option<&FaultSchedule> {
        self.faults
    }

    /// Every shard builds every node's source: each draws its random
    /// phase from the master RNG in node order, so skipping one would
    /// shift every later node's stream.
    fn sources(
        &self,
        net: &Network,
        cfg: &SimConfig,
        rng: &mut SmallRng,
        _lo: u32,
        _hi: u32,
    ) -> Vec<NodeSource> {
        synthetic_sources(net, self.pattern, self.load, self.end_ps(), cfg, rng)
    }

    fn run_serial(&self, eng: &mut Engine) -> (SyntheticStats, Option<TelemetryReport>) {
        eng.run_synthetic_to(self.load, self.end_ps())
    }

    fn stats(&self, eng: &mut Engine, wedged: bool) -> SyntheticStats {
        eng.synthetic_stats(self.load, self.end_ps(), wedged)
    }
}

/// A fixed-size collective exchange run to completion; `window` is the
/// number of messages each node keeps in flight (1 = fully staged).
#[derive(Debug, Clone, Copy)]
pub struct ExchangeRun<'w> {
    pub exchange: &'w Exchange,
    pub window: usize,
}

impl sealed::Sealed for ExchangeRun<'_> {}

impl Workload for ExchangeRun<'_> {
    type Stats = ExchangeStats;

    fn check(&self, net: &Network) -> Result<(), String> {
        if self.exchange.sends.len() == net.num_nodes() as usize {
            Ok(())
        } else {
            Err(format!(
                "exchange pattern must cover every node ({} send lists, {} nodes)",
                self.exchange.sends.len(),
                net.num_nodes()
            ))
        }
    }

    fn horizon_ps(&self) -> Option<u64> {
        None
    }

    fn warmup_ps(&self) -> u64 {
        0
    }

    fn schedule(&self) -> Option<&FaultSchedule> {
        None
    }

    /// Exchange sources draw no randomness, so a shard gives the nodes
    /// it does not own an empty placeholder instead of a copy of their
    /// message lists: it never wakes them.
    fn sources(
        &self,
        net: &Network,
        cfg: &SimConfig,
        _rng: &mut SmallRng,
        lo: u32,
        hi: u32,
    ) -> Vec<NodeSource> {
        (0..net.num_nodes())
            .map(|n| {
                if (lo..hi).contains(&net.node_router(n)) {
                    NodeSource::exchange(self.exchange, n, self.window, cfg.packet_bytes)
                } else {
                    NodeSource::idle(cfg.packet_bytes)
                }
            })
            .collect()
    }

    fn run_serial(&self, eng: &mut Engine) -> (ExchangeStats, Option<TelemetryReport>) {
        eng.run_exchange_to(self.exchange.total_bytes())
    }

    fn stats(&self, eng: &mut Engine, wedged: bool) -> ExchangeStats {
        eng.exchange_stats(self.exchange.total_bytes(), wedged)
    }
}

/// The observers attached to a run, or to every simulated point of a
/// sweep. Each is optional, and none perturbs the simulated schedule:
/// stats are byte-identical with any combination attached.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Observers {
    /// Telemetry probe: utilization/occupancy series, per-router event
    /// rings and deadlock forensics (see [`crate::telemetry`]).
    pub probe: Option<ProbeConfig>,
    /// Flight trace and hot-loop counters (see [`crate::trace`]).
    pub trace: Option<TraceConfig>,
    /// Routing-decision ledger (see [`crate::ledger`]).
    pub ledger: Option<LedgerConfig>,
}

impl Observers {
    /// Just a telemetry probe.
    pub fn probed(probe: ProbeConfig) -> Self {
        Observers {
            probe: Some(probe),
            ..Self::default()
        }
    }

    /// Just a trace recorder.
    pub fn traced(trace: TraceConfig) -> Self {
        Observers {
            trace: Some(trace),
            ..Self::default()
        }
    }

    /// Just a decision ledger.
    pub fn ledgered(ledger: LedgerConfig) -> Self {
        Observers {
            ledger: Some(ledger),
            ..Self::default()
        }
    }

    pub(crate) fn attach(&self, eng: &mut Engine) {
        if let Some(p) = self.probe {
            eng.attach_probe(p);
        }
        if let Some(t) = self.trace {
            eng.attach_trace(t);
        }
        if let Some(l) = self.ledger {
            eng.attach_ledger(l);
        }
    }
}

/// What one [`run`] produced: the workload's statistics plus the output
/// of each attached observer (`None` where none was attached).
#[derive(Debug, Clone, PartialEq)]
pub struct Run<S> {
    pub stats: S,
    pub telemetry: Option<TelemetryReport>,
    pub trace: Option<EngineTrace>,
    pub ledger: Option<EngineLedger>,
}

impl<S> Run<S> {
    /// Finalizes an engine whose run produced `stats`: takes the trace
    /// and ledger it carried.
    pub(crate) fn from_engine(
        stats: S,
        telemetry: Option<TelemetryReport>,
        eng: &mut Engine,
    ) -> Self {
        Run {
            stats,
            telemetry,
            trace: eng.take_trace(),
            ledger: eng.take_ledger(),
        }
    }
}

/// Runs one workload on `net` under `policy` — the one run core behind
/// every single run and every sweep point.
///
/// The shard count comes from [`SimConfig::shards`], then
/// `D2NET_SHARDS`, then the auto heuristic (see [`plan_shards`]);
/// `cfg.shards = 1` is the serial reference, and the output is
/// byte-identical at every count. At one shard the run is the plain
/// serial engine; otherwise it runs the window-barrier protocol and
/// absorbs every shard into one engine for the ordinary finalization
/// path.
///
/// Configuration problems come back as `Err`: warm-up ≥ duration,
/// buffers too small for the policy's VCs, a [`crate::Preflight::Enforce`]
/// rejection, an unsorted fault schedule, or an exchange that does not
/// give every node a send list.
pub fn run<W: Workload>(
    net: &Network,
    policy: &RoutePolicy,
    work: &W,
    cfg: SimConfig,
    obs: Observers,
) -> Result<Run<W::Stats>, String> {
    work.check(net)?;
    let schedule = work.schedule();
    let horizon = work.horizon_ps();
    let policies = schedule
        .map(|s| resolve_fault_policies(net, policy, s))
        .unwrap_or_default();
    let fault_at_zero = schedule.is_some_and(|s| s.events().iter().any(|e| e.t_ns == 0));
    let k = effective_shards(net, policy, &cfg, fault_at_zero);

    if k <= 1 {
        // Serial fallback: identical to the unsharded entry points.
        let faults = schedule
            .map(|s| engine_faults(net, s, &policies))
            .unwrap_or_default();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let sources = work.sources(net, &cfg, &mut rng, 0, net.num_routers());
        let mut eng =
            Engine::try_new_faulted(net, policy, cfg, sources, work.warmup_ps(), rng, faults)?;
        obs.attach(&mut eng);
        let (stats, tel) = work.run_serial(&mut eng);
        return Ok(Run::from_engine(stats, tel, &mut eng));
    }

    // The static preflight pass is shard-independent; run it once here
    // rather than once per shard build.
    let cfg = try_preflight_once(net, policy, cfg)?;
    let bounds = shard_bounds(net.num_routers(), k);
    let fault_times: Vec<u64> = schedule
        .map(|s| s.events().iter().map(|e| e.t_ns * 1_000).collect())
        .unwrap_or_default();

    let mut engines: Vec<Engine> = Vec::with_capacity(k);
    for (i, &(lo, hi)) in bounds.iter().enumerate() {
        // Every shard derives the run's randomness from an identically
        // seeded master RNG and an identically drawn source vector, so
        // a node's stochastic stream is the same no matter which shard
        // owns it (see `derive_node_rngs`).
        let faults = schedule
            .map(|s| engine_faults(net, s, &policies))
            .unwrap_or_default();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let sources = work.sources(net, &cfg, &mut rng, lo, hi);
        // An armed chaos fault fires once per run, not once per shard:
        // only shard 0 carries it (its fire point counts that shard's
        // own pops, so sharded chaos timing differs from serial — chaos
        // runs never claim byte-identity, see DESIGN.md §15).
        let mut scfg = cfg;
        if i != 0 {
            scfg.chaos = None;
        }
        let mut eng = Engine::build_shard(
            net,
            policy,
            scfg,
            sources,
            work.warmup_ps(),
            rng,
            faults,
            lo,
            hi,
            i == 0,
        )?;
        obs.attach(&mut eng);
        engines.push(eng);
    }

    let link_ps = cfg.link_ps();
    let mut min_peeks: Vec<Option<u64>> = engines.iter_mut().map(|e| e.min_peek()).collect();
    let mut inboxes: Vec<Vec<(u64, u64, OutEv)>> = (0..k).map(|_| Vec::new()).collect();
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    // Latest event time any shard has handled: where a drained run's
    // clock stands, as a serial engine's would after its last event.
    let mut clock = 0u64;
    let mut at_horizon = false;
    let mut drained = false;

    // Shard 0 runs on this thread between sending the other shards'
    // commands and collecting their replies: k threads for k shards.
    let mut engines = engines.into_iter();
    let mut lead = engines.next().expect("k >= 2 shards");
    let workers: Vec<Engine> = std::thread::scope(|s| {
        let bounds = &bounds;
        let mut cmd_txs = Vec::with_capacity(k - 1);
        let mut handles = Vec::with_capacity(k - 1);
        for (i, eng) in (1..k).zip(engines) {
            let (tx, rx) = mpsc::channel::<Cmd>();
            cmd_txs.push(tx);
            let reply_tx = reply_tx.clone();
            handles.push(s.spawn(move || shard_worker(eng, i, bounds, rx, reply_tx)));
        }
        // Only workers send replies: one that dies drops its sender.
        drop(reply_tx);
        let mut next_fault = 0usize;
        loop {
            let queue_min = min_peeks.iter().flatten().copied().min();
            let inbox_min = inboxes
                .iter()
                .flat_map(|b| b.iter().map(|&(t, _, _)| t))
                .min();
            let global_min = match (queue_min, inbox_min) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            // Apply every fault due at or before the next event, in
            // schedule order. Faults beyond the horizon stay pending,
            // exactly as their serial `Ev::LinkFail` would stay queued.
            if next_fault < fault_times.len()
                && horizon.is_none_or(|end| fault_times[next_fault] <= end)
                && global_min.is_none_or(|m| fault_times[next_fault] <= m)
            {
                for tx in &cmd_txs {
                    tx.send(Cmd::Fault(next_fault)).expect("shard worker alive");
                }
                let own = serve(&mut lead, 0, bounds, Cmd::Fault(next_fault));
                let _ = collect_replies(
                    own,
                    &reply_rx,
                    k,
                    &mut min_peeks,
                    &mut inboxes,
                    &mut clock,
                );
                next_fault += 1;
                continue;
            }
            let Some(m) = global_min else {
                // All queues and mailboxes are empty. Serial would
                // still hold any beyond-horizon LinkFail events, so it
                // only counts as drained when none are pending.
                if next_fault < fault_times.len() {
                    at_horizon = true;
                } else {
                    drained = true;
                }
                break;
            };
            if horizon.is_some_and(|end| m > end) {
                at_horizon = true;
                break;
            }
            // One conservative window: everything below the global
            // minimum plus one link latency is causally sealed. Clamp
            // to the horizon (serial processes t == end_ps, stops
            // beyond) and to the next fault time; a drained run has no
            // horizon to clamp to.
            let mut until = m + link_ps;
            if let Some(end) = horizon {
                until = until.min(end + 1);
            }
            if next_fault < fault_times.len() {
                until = until.min(fault_times[next_fault]);
            }
            for (i, tx) in (1..k).zip(&cmd_txs) {
                tx.send(Cmd::Window {
                    until,
                    inbox: std::mem::take(&mut inboxes[i]),
                })
                .expect("shard worker alive");
            }
            let inbox = std::mem::take(&mut inboxes[0]);
            let own = serve(&mut lead, 0, bounds, Cmd::Window { until, inbox });
            if collect_replies(
                own,
                &reply_rx,
                k,
                &mut min_peeks,
                &mut inboxes,
                &mut clock,
            ) {
                // A shard's run budget tripped mid-window: stop opening
                // windows and finalize the partial run — the absorbed
                // engine's `exhausted` flag marks the stats.
                at_horizon = true;
                break;
            }
        }
        // A horizon run ends with every shard's clock and probe at the
        // horizon; a drained run flushes every probe to the global
        // clock, where the serial engine stopped.
        let (force_to, flush_to) = match horizon {
            Some(end) => (at_horizon.then_some(end), end),
            None => (None, clock),
        };
        for (i, tx) in (1..k).zip(&cmd_txs) {
            tx.send(Cmd::Finish {
                force_to,
                flush_to,
                inbox: std::mem::take(&mut inboxes[i]),
            })
            .expect("shard worker alive");
        }
        drop(cmd_txs);
        let inbox = std::mem::take(&mut inboxes[0]);
        serve(&mut lead, 0, bounds, Cmd::Finish { force_to, flush_to, inbox });
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });
    let mut engines: Vec<Engine> = std::iter::once(lead).chain(workers).collect();

    // Wedge check over global counters, mirroring the serial loop's
    // drained-queue test.
    let (created, done) = engines.iter().fold((0u64, 0u64), |(c, d), e| {
        let (ec, ed) = e.wedge_counts();
        (c + ec, d + ed)
    });
    let wedged = drained && created > done;
    let forensics = if wedged {
        let refs: Vec<&Engine> = engines.iter().collect();
        Some(
            deadlock_forensics_sharded(&refs)
                .unwrap_or_else(|| partition_report_sharded(&refs)),
        )
    } else {
        None
    };

    let (first, rest) = engines.split_first_mut().expect("k >= 2 shards");
    for other in rest.iter_mut() {
        first.absorb_shard(other);
    }
    let telemetry = first.take_probe_report_with(forensics);
    let stats = work.stats(first, wedged);
    Ok(Run::from_engine(stats, telemetry, first))
}

/// Runs steady-state synthetic traffic on `net` under `policy`: [`run`]
/// of a fault-free [`Synthetic`] with no observers, panicking on a
/// configuration error.
pub fn run_synthetic(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    load: f64,
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
) -> SyntheticStats {
    let work = Synthetic::new(pattern, load, duration_ns, warmup_ns);
    run(net, policy, &work, cfg, Observers::default())
        .unwrap_or_else(|e| panic!("{e}"))
        .stats
}

/// Runs a fixed-size exchange to completion: [`run`] of an
/// [`ExchangeRun`] with no observers, panicking on a configuration
/// error.
pub fn run_exchange(
    net: &Network,
    policy: &RoutePolicy,
    exchange: &Exchange,
    window: usize,
    cfg: SimConfig,
) -> ExchangeStats {
    let work = ExchangeRun { exchange, window };
    run(net, policy, &work, cfg, Observers::default())
        .unwrap_or_else(|e| panic!("{e}"))
        .stats
}

/// [`run_synthetic`] with a trace recorder attached. Kept only because
/// the `perfbench` benchmark calls it; it goes when the benchmark
/// migrates to [`run`].
#[allow(clippy::too_many_arguments)]
pub fn run_synthetic_sharded_traced(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    load: f64,
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    trace: TraceConfig,
) -> (SyntheticStats, EngineTrace) {
    let work = Synthetic::new(pattern, load, duration_ns, warmup_ns);
    let out =
        run(net, policy, &work, cfg, Observers::traced(trace)).unwrap_or_else(|e| panic!("{e}"));
    (out.stats, out.trace.expect("trace was attached"))
}

/// [`run_exchange`] with a trace recorder attached. Kept only because
/// the `perfbench` benchmark calls it; it goes when the benchmark
/// migrates to [`run`].
pub fn run_exchange_traced(
    net: &Network,
    policy: &RoutePolicy,
    exchange: &Exchange,
    window: usize,
    cfg: SimConfig,
    trace: TraceConfig,
) -> (ExchangeStats, EngineTrace) {
    let work = ExchangeRun { exchange, window };
    let out =
        run(net, policy, &work, cfg, Observers::traced(trace)).unwrap_or_else(|e| panic!("{e}"));
    (out.stats, out.trace.expect("trace was attached"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2net_topo::slim_fly;

    fn cfg_with(shards: u32) -> SimConfig {
        SimConfig {
            shards,
            ..SimConfig::default()
        }
    }

    #[test]
    fn bounds_cover_router_range_evenly() {
        assert_eq!(shard_bounds(10, 1), vec![(0, 10)]);
        assert_eq!(shard_bounds(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(shard_bounds(4, 4), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        for (n, k) in [(50u32, 7usize), (338, 8), (3, 2)] {
            let b = shard_bounds(n, k);
            assert_eq!(b.len(), k);
            assert_eq!(b[0].0, 0);
            assert_eq!(b.last().unwrap().1, n);
            assert!(b.iter().all(|&(lo, hi)| lo < hi));
            assert!(b.windows(2).all(|w| w[0].1 == w[1].0));
        }
    }

    #[test]
    fn sharded_matches_serial_stats() {
        let net = slim_fly(5, d2net_topo::SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let pattern = SyntheticPattern::Uniform;
        let serial = run_synthetic(&net, &policy, &pattern, 0.3, 6_000, 1_000, cfg_with(1));
        for k in [2u32, 3, 5] {
            let sharded = run_synthetic(&net, &policy, &pattern, 0.3, 6_000, 1_000, cfg_with(k));
            assert_eq!(sharded, serial, "shard count {k} diverged");
        }
    }

    /// A chaos panic fires on shard 0, which runs on the coordinator's
    /// thread: it must unwind out of the run (for the supervisor's
    /// `catch_unwind`) instead of leaving the coordinator waiting for a
    /// reply that never comes.
    #[test]
    fn chaos_panic_in_a_sharded_run_unwinds_to_the_caller() {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let net = slim_fly(5, d2net_topo::SlimFlyP::Floor);
            let policy = RoutePolicy::new(&net, Algorithm::Minimal);
            let cfg = SimConfig {
                chaos: Some(crate::config::EngineChaos {
                    kind: crate::config::ChaosKind::Panic,
                    after_events: 1_000,
                }),
                ..cfg_with(2)
            };
            let run = std::panic::catch_unwind(|| {
                run_synthetic(
                    &net,
                    &policy,
                    &SyntheticPattern::Uniform,
                    0.5,
                    6_000,
                    0,
                    cfg,
                )
            });
            let _ = tx.send(run.is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a sharded chaos panic hung the coordinator");
        assert!(panicked, "the armed chaos panic never fired");
    }

    #[test]
    fn explicit_shards_override_heuristics_but_not_correctness_clamps() {
        let net = slim_fly(5, d2net_topo::SlimFlyP::Floor); // 50 routers
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        // Explicit request beats the small-network heuristic.
        assert_eq!(plan_shards(&net, &policy, &cfg_with(4)), 4);
        // Requests beyond the router count clamp down.
        assert_eq!(plan_shards(&net, &policy, &cfg_with(999)), 50);
        // The heap queue stays serial regardless.
        let heap = SimConfig {
            event_queue: EventQueueKind::Heap,
            ..cfg_with(4)
        };
        assert_eq!(plan_shards(&net, &policy, &heap), 1);
    }
}
