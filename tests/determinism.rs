//! The determinism gates, end to end:
//!
//! 1. every sweep must equal a per-point reference (below): one `run`
//!    per point at its derived seed on one shard, every point after the
//!    first genuine wedge stubbed. `sweep` at 1, 2 and 4 threads, under
//!    shuffled work orders, with sharded points, and the supervised
//!    sweep with no retries all match it exactly — points, notices,
//!    traces and ledgers — on every evaluation family, pattern and
//!    observer set, on a wedging config, and under injected panics;
//! 2. the calendar event queue must schedule byte-identically to the
//!    reference binary heap on full simulations, not just unit streams;
//! 3. sharded runs (`SimConfig::shards`) must be byte-identical to
//!    serial at every shard count — stats, telemetry, traces (modulo
//!    the queue-internal calendar counters, which are shard-local by
//!    construction), ledgers, and faulted runs alike.

use d2net::prelude::*;
use d2net::routing::{IntermediateSet, VcScheme};
use d2net::topo::TopologyKind;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn families() -> Vec<Network> {
    vec![slim_fly(5, SlimFlyP::Floor), mlfm(4), oft(4)]
}

fn with_shards(cfg: SimConfig, shards: u32) -> SimConfig {
    SimConfig { shards, ..cfg }
}

fn sharded_cfg(shards: u32) -> SimConfig {
    with_shards(SimConfig::default(), shards)
}

/// Every observer at its defaults.
fn all_observers() -> Observers {
    Observers {
        probe: Some(ProbeConfig::default()),
        trace: Some(TraceConfig::default()),
        ledger: Some(LedgerConfig::default()),
    }
}

/// One uniform-or-pattern sweep: everything but the harness knobs.
struct Sweep<'a> {
    net: &'a Network,
    policy: &'a RoutePolicy,
    pattern: &'a SyntheticPattern,
    loads: &'a [f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    obs: Observers,
}

impl Sweep<'_> {
    fn run(&self, cfg: SimConfig, threads: usize) -> SweepOutcome {
        let (dur, warm) = (self.duration_ns, self.warmup_ns);
        let (net, policy, pattern, loads, obs) =
            (self.net, self.policy, self.pattern, self.loads, self.obs);
        sweep(net, policy, pattern, loads, dur, warm, cfg, obs, threads)
    }

    fn ordered(&self, threads: usize, order: &[usize]) -> SweepOutcome {
        let (dur, warm) = (self.duration_ns, self.warmup_ns);
        let (net, policy, pattern, loads, obs) =
            (self.net, self.policy, self.pattern, self.loads, self.obs);
        sweep_with_order(
            net, policy, pattern, loads, dur, warm, self.cfg, obs, threads, order,
        )
    }

    fn supervised(&self, threads: usize) -> SweepOutcome {
        let sup = SuperviseConfig {
            max_retries: 0,
            threads,
            ..SuperviseConfig::default()
        };
        let (dur, warm, hooks) = (self.duration_ns, self.warmup_ns, SuperviseHooks::default());
        let (net, policy, pattern, loads, obs) =
            (self.net, self.policy, self.pattern, self.loads, self.obs);
        supervised_sweep(
            net, policy, pattern, loads, dur, warm, self.cfg, obs, &sup, &hooks,
        )
        .outcome
    }

    /// The per-point reference every sweep is held to: `run` at
    /// `point_seed(seed, idx)` on one shard, a panic caught into a
    /// panicked stub, and every point after the first genuine wedge
    /// stubbed without running.
    fn reference(&self) -> SweepOutcome {
        let mut out = SweepOutcome::default();
        let mut wedged = false;
        for (idx, &load) in self.loads.iter().enumerate() {
            if wedged {
                let stats = SyntheticStats::deadlocked_stub(load);
                out.points.push(SweepPoint {
                    load,
                    stats,
                    telemetry: None,
                });
                continue;
            }
            let cfg = SimConfig {
                seed: point_seed(self.cfg.seed, idx),
                shards: 1,
                ..self.cfg
            };
            let work = Synthetic::new(self.pattern, load, self.duration_ns, self.warmup_ns);
            let attempt = || run(self.net, self.policy, &work, cfg, self.obs);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt));
            let r = match result {
                Ok(r) => r.expect("reference points are valid"),
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default();
                    let text =
                        format!("point at offered load {load:.3} panicked and was stubbed: {msg}");
                    out.notices
                        .push(SweepNotice::new("panicked", idx, load, text));
                    let stats = SyntheticStats::panicked_stub(load);
                    out.points.push(SweepPoint {
                        load,
                        stats,
                        telemetry: None,
                    });
                    continue;
                }
            };
            if r.stats.exhausted {
                let text = format!(
                    "run budget exhausted at offered load {load:.3}; partial measurements kept"
                );
                out.notices
                    .push(SweepNotice::new("exhausted", idx, load, text));
            }
            if r.stats.deadlocked {
                wedged = true;
                let text = format!(
                    "network wedged at offered load {load:.3}; \
                     marking remaining loads deadlocked without simulating them"
                );
                out.notices
                    .push(SweepNotice::new("wedged", idx, load, text));
            }
            if let Some(trace) = r.trace {
                out.traces.push(PointTrace {
                    index: idx,
                    load,
                    trace,
                });
            }
            if let Some(ledger) = r.ledger {
                out.ledgers.push(PointLedger {
                    index: idx,
                    load,
                    ledger,
                });
            }
            let telemetry = r.telemetry.map(|t| t.summary());
            out.points.push(SweepPoint {
                load,
                stats: r.stats,
                telemetry,
            });
        }
        out
    }

    /// Asserts `sweep` at 1, 2 and 4 threads reproduces
    /// [`Sweep::reference`], and returns the reference.
    fn assert_threads_match_reference(&self, label: &str) -> SweepOutcome {
        let want = self.reference();
        for threads in [1, 2, 4] {
            assert_eq!(
                self.run(self.cfg, threads),
                want,
                "{label}: {threads} threads"
            );
        }
        want
    }

    /// Asserts every harness reproduces [`Sweep::reference`]: the thread
    /// counts above, a reversed order, the supervised sweep and sharded
    /// points. Sharded points are skipped under chaos (an armed fault
    /// fires on shard 0 only, so its timing is shard-dependent) and
    /// compared without the calendar counters, which are shard-local;
    /// `sharded_sweep_matches_serial_sweep_point_for_point` covers more
    /// shard and thread counts.
    fn assert_all_match_reference(&self, label: &str) -> SweepOutcome {
        let want = self.assert_threads_match_reference(label);
        let n = self.loads.len();
        let reversed: Vec<usize> = (0..n).rev().collect();
        assert_eq!(self.ordered(2, &reversed), want, "{label}: reversed order");
        assert_eq!(self.supervised(2), want, "{label}: supervised, no retries");
        if self.cfg.chaos.is_none() {
            let got = without_calendars(self.run(with_shards(self.cfg, 3), 2));
            assert_eq!(got, without_calendars(want.clone()), "{label}: 3 shards");
        }
        want
    }
}

/// The outcome with every trace's calendar counters removed.
fn without_calendars(mut out: SweepOutcome) -> SweepOutcome {
    for t in &mut out.traces {
        t.trace.counters.calendar = None;
    }
    out
}

/// Every family and pattern at 1, 2 and 4 threads; the reversed-order,
/// supervised and sharded harnesses are held to the same reference on
/// the probed, wedging and chaos configs below.
#[test]
fn par_sweep_matches_serial_for_all_families_and_patterns() {
    let loads = load_grid(4);
    for net in families() {
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        for (pattern, tag) in [(SyntheticPattern::Uniform, "UNI"), (worst_case(&net), "WC")] {
            let label = format!("{} {tag}", net.name());
            let out = Sweep {
                net: &net,
                policy: &policy,
                pattern: &pattern,
                loads: &loads,
                duration_ns: 20_000,
                warmup_ns: 4_000,
                cfg: SimConfig::default(),
                obs: Observers::default(),
            }
            .assert_threads_match_reference(&label);
            // These configs are certified: nothing may wedge, so the
            // parity above covers fully simulated sweeps.
            assert!(out.notices.is_empty(), "{label}");
        }
    }
}

#[test]
fn par_probed_sweep_matches_serial_with_telemetry() {
    let sf = slim_fly(5, SlimFlyP::Floor);
    for (net, pattern) in [
        (mlfm(4), SyntheticPattern::Uniform),
        (sf.clone(), worst_case(&sf)),
    ] {
        let policy = RoutePolicy::new(&net, best_adaptive(&net).1);
        let out = Sweep {
            net: &net,
            policy: &policy,
            pattern: &pattern,
            loads: &load_grid(3),
            duration_ns: 20_000,
            warmup_ns: 4_000,
            cfg: SimConfig::default(),
            obs: all_observers(),
        }
        .assert_all_match_reference(&net.name());
        // Every simulated point carries every observer's output.
        assert!(out.points.iter().all(|p| p.telemetry.is_some()));
        assert_eq!(out.traces.len(), 3);
        assert_eq!(out.ledgers.len(), 3);
        assert!(out.ledgers.iter().all(|p| p.ledger.decisions > 0));
    }
}

#[test]
fn calendar_queue_matches_heap_on_synthetic_runs() {
    for net in families() {
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        for (pattern, load, tag) in [
            (SyntheticPattern::Uniform, 0.9, "UNI"),
            (worst_case(&net), 1.0, "WC"),
        ] {
            let run = |queue: EventQueueKind| {
                let cfg = SimConfig {
                    event_queue: queue,
                    ..Default::default()
                };
                run_synthetic(&net, &policy, &pattern, load, 30_000, 6_000, cfg)
            };
            let cal = run(EventQueueKind::Calendar);
            let heap = run(EventQueueKind::Heap);
            assert_eq!(cal, heap, "{} {tag}: queues disagree", net.name());
            assert!(cal.delivered_packets > 0, "{} {tag}", net.name());
        }
    }
}

#[test]
fn calendar_queue_matches_heap_on_exchanges() {
    let net = mlfm(4);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let ex = d2net::traffic::all_to_all_shuffled(net.num_nodes(), 512, 7);
    let run = |queue: EventQueueKind| {
        let cfg = SimConfig {
            event_queue: queue,
            ..Default::default()
        };
        run_exchange(&net, &policy, &ex, 1, cfg)
    };
    let cal = run(EventQueueKind::Calendar);
    let heap = run(EventQueueKind::Heap);
    assert_eq!(cal, heap, "queues disagree on an exchange");
    assert!(!cal.deadlocked);
}

/// The canonical wedging config (single-VC 5-ring, tiny buffers): the
/// early-abort path must agree between the reference and every harness,
/// notice and stubbed tail included, for any completion order.
fn wedging_ring() -> (Network, RoutePolicy, SyntheticPattern, SimConfig) {
    let net = Network::from_parts(
        TopologyKind::Custom {
            label: "ring5".into(),
        },
        vec![vec![1, 4], vec![0, 2], vec![1, 3], vec![2, 4], vec![0, 3]],
        vec![1; 5],
    );
    let policy = RoutePolicy::with_overrides(
        &net,
        Algorithm::Minimal,
        VcScheme::SingleVc,
        IntermediateSet::EndpointRouters,
        false,
    );
    let cfg = SimConfig {
        buffer_bytes: 256,
        preflight: Preflight::Off, // the wedge is the point here
        ..Default::default()
    };
    (
        net,
        policy,
        SyntheticPattern::Permutation(vec![2, 3, 4, 0, 1]),
        cfg,
    )
}

const RING_LOADS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

#[test]
fn early_abort_parity_on_wedging_ring() {
    let (net, policy, pattern, cfg) = wedging_ring();
    let ring = Sweep {
        net: &net,
        policy: &policy,
        pattern: &pattern,
        loads: &RING_LOADS,
        duration_ns: 50_000,
        warmup_ns: 0,
        cfg,
        obs: all_observers(),
    };
    let out = ring.assert_all_match_reference("wedging ring");
    assert_eq!(out.notices.len(), 1, "the ring must wedge exactly once");
    assert_eq!(out.notices[0].code, "wedged");
    let w = out.notices[0].index;
    assert!(out.points[w..].iter().all(|p| p.stats.deadlocked));
    assert_eq!(out.traces.len(), w + 1, "stubbed points carry no trace");

    // Adversarial completion orders around the watermark: highest-first
    // (workers hit wedged points before the low ones), and interleaved.
    for order in [vec![3usize, 2, 1, 0], vec![1, 3, 0, 2]] {
        assert_eq!(ring.ordered(2, &order), out, "order {order:?}");
    }
}

/// An armed chaos panic (every point panics once it has popped enough
/// events) isolates each panicking point into a coded stub: low loads
/// finish before the fire point, high loads panic, and no panic arms
/// the wedge early-abort.
#[test]
fn chaos_panics_match_the_reference_at_every_thread_count() {
    let net = mlfm(4);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let cfg = SimConfig {
        chaos: Some(EngineChaos {
            kind: ChaosKind::Panic,
            after_events: 40_000,
        }),
        ..SimConfig::default()
    };
    let out = Sweep {
        net: &net,
        policy: &policy,
        pattern: &SyntheticPattern::Uniform,
        loads: &[0.05, 0.1, 0.8, 1.0],
        duration_ns: 10_000,
        warmup_ns: 2_000,
        cfg,
        obs: Observers::ledgered(LedgerConfig::default()),
    }
    .assert_all_match_reference("chaos panics");
    assert!(out.notices.iter().all(|n| n.code == "panicked"));
    assert!(!out.notices.is_empty(), "the high loads must panic");
    assert!(out.notices.len() < 4, "the low loads must finish");
    assert_eq!(out.ledgers.len(), 4 - out.notices.len());
}

#[test]
fn sweep_points_equal_standalone_runs_with_derived_seeds() {
    let net = mlfm(4);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let loads = [0.3, 0.7, 1.0];
    let base = SimConfig::default();
    let pattern = SyntheticPattern::Uniform;
    let obs = Observers::default();
    let swept = sweep(&net, &policy, &pattern, &loads, 20_000, 4_000, base, obs, 1);
    for (i, (point, &load)) in swept.points.iter().zip(&loads).enumerate() {
        let cfg = SimConfig {
            seed: point_seed(base.seed, i),
            ..base
        };
        let standalone = run_synthetic(&net, &policy, &pattern, load, 20_000, 4_000, cfg);
        assert_eq!(
            point.stats, standalone,
            "point {i}: engine reuse leaked state between sweep points"
        );
    }
}

/// The resilience sweep (fault sampling + table repair + degraded
/// simulation per point) must be byte-identical at every thread count
/// on every evaluation family.
#[test]
fn resilience_sweep_serial_matches_parallel_across_families() {
    let fractions = failure_fractions(0.10, 3);
    let cfg = SimConfig::default();
    let pattern = SyntheticPattern::Uniform;
    for net in families() {
        let curve = |threads| {
            let (alg, frac) = (Algorithm::Minimal, &fractions);
            resilience_sweep(
                &net, alg, &pattern, 0.3, frac, 20_000, 4_000, cfg, None, threads,
            )
            .0
        };
        let serial = curve(1);
        assert_eq!(
            serial,
            curve(3),
            "{}: resilience sweeps diverged",
            net.name()
        );
        assert!(
            serial.points.iter().all(|p| !p.stats.deadlocked),
            "{}: a repaired point wedged",
            net.name()
        );
    }
}

/// One traced uniform run at load 0.7.
fn traced_run(
    net: &Network,
    policy: &RoutePolicy,
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
) -> (SyntheticStats, EngineTrace) {
    let work = Synthetic::new(&SyntheticPattern::Uniform, 0.7, duration_ns, warmup_ns);
    let r = run(
        net,
        policy,
        &work,
        cfg,
        Observers::traced(TraceConfig::default()),
    )
    .unwrap();
    (r.stats, r.trace.unwrap())
}

/// The traced engine exposes the calendar queue's internals read-only,
/// which lets the cross-check go one level deeper than stats equality:
/// under both queue implementations the *hot-loop counters* must agree
/// (same events popped and scheduled, same FIFO traffic, same blocking),
/// and the calendar's own push accounting must tie out exactly against
/// the engine's monotonic event counter.
#[test]
fn calendar_queue_counters_cross_check_against_heap() {
    for net in families() {
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let traced = |queue: EventQueueKind| {
            let cfg = SimConfig {
                event_queue: queue,
                ..Default::default()
            };
            traced_run(&net, &policy, 30_000, 6_000, cfg)
        };
        let (cal_stats, cal_trace) = traced(EventQueueKind::Calendar);
        let (heap_stats, heap_trace) = traced(EventQueueKind::Heap);
        assert_eq!(cal_stats, heap_stats, "{}: stats diverged", net.name());

        let cal = cal_trace.counters;
        let heap = heap_trace.counters;
        assert_eq!(cal.events_popped, heap.events_popped, "{}", net.name());
        assert_eq!(
            cal.events_scheduled,
            heap.events_scheduled,
            "{}",
            net.name()
        );
        assert_eq!(cal.in_q_pushes, heap.in_q_pushes, "{}", net.name());
        assert_eq!(cal.out_q_pushes, heap.out_q_pushes, "{}", net.name());
        assert_eq!(cal.blocked_entries, heap.blocked_entries, "{}", net.name());

        // The queue-internal stats are implementation-specific: present
        // and self-consistent on the calendar, absent on the heap.
        assert!(heap.calendar.is_none(), "{}", net.name());
        let cq = cal.calendar.expect("calendar stats present");
        assert_eq!(
            cq.total_pushes(),
            cal.events_scheduled,
            "{}: calendar lost or double-counted a push",
            net.name()
        );
        assert!(cq.ring_highwater > 0, "{}", net.name());
    }
}

/// A faulted uniform run: a link fails at 8 µs and an endpoint router
/// at 16 µs over 40 µs (`router_too`), or only the link over 30 µs.
fn faulted_run(
    net: &Network,
    cfg: SimConfig,
    router_too: bool,
    obs: Observers,
) -> Run<SyntheticStats> {
    let victim = net.neighbors(0)[0];
    let mut schedule = FaultSchedule::new().at(8_000, FaultSet::new().fail_link(0, victim).clone());
    if router_too {
        schedule = schedule.at(
            16_000,
            FaultSet::new()
                .fail_router(net.endpoint_routers()[0])
                .clone(),
        );
    }
    let policy = RoutePolicy::new(net, Algorithm::Minimal);
    let (dur, warm) = if router_too {
        (40_000, 8_000)
    } else {
        (30_000, 6_000)
    };
    let work = Synthetic::new(&SyntheticPattern::Uniform, 0.5, dur, warm).with_faults(&schedule);
    run(net, &policy, &work, cfg, obs).expect("faulted run constructs")
}

/// Mid-run fault injection must not break queue-implementation parity:
/// a faulted run schedules byte-identically on the calendar queue and
/// the reference binary heap.
#[test]
fn calendar_queue_matches_heap_on_faulted_runs() {
    for net in families() {
        let faulted = |queue: EventQueueKind| {
            let cfg = SimConfig {
                event_queue: queue,
                ..Default::default()
            };
            faulted_run(&net, cfg, true, Observers::default()).stats
        };
        let cal = faulted(EventQueueKind::Calendar);
        let heap = faulted(EventQueueKind::Heap);
        assert_eq!(cal, heap, "{}: queues disagree under faults", net.name());
        assert!(!cal.deadlocked, "{}: faulted run wedged", net.name());
        assert!(cal.delivered_packets > 0, "{}", net.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scheduling independence: for a random permutation of the work
    /// order and a random worker count, the sweep returns the reference
    /// outcome — on both a clean config and the early-aborting wedged
    /// ring.
    #[test]
    fn completion_order_never_changes_the_outcome(
        shuffle_seed in 0u64..1000,
        threads in 1usize..5,
    ) {
        let mut rng = SmallRng::seed_from_u64(shuffle_seed);

        // Clean config: everything simulates.
        let net = mlfm(4);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let loads = load_grid(4);
        let clean = Sweep {
            net: &net,
            policy: &policy,
            pattern: &SyntheticPattern::Uniform,
            loads: &loads,
            duration_ns: 10_000,
            warmup_ns: 2_000,
            cfg: SimConfig::default(),
            obs: Observers::default(),
        };
        let mut order: Vec<usize> = (0..loads.len()).collect();
        order.shuffle(&mut rng);
        prop_assert_eq!(clean.ordered(threads, &order), clean.reference());

        // Wedging config: the watermark path must be order-blind too.
        let (net, policy, pattern, cfg) = wedging_ring();
        let ring = Sweep {
            net: &net,
            policy: &policy,
            pattern: &pattern,
            loads: &RING_LOADS,
            duration_ns: 50_000,
            warmup_ns: 0,
            cfg,
            obs: Observers::default(),
        };
        let mut order: Vec<usize> = (0..RING_LOADS.len()).collect();
        order.shuffle(&mut rng);
        prop_assert_eq!(ring.ordered(threads, &order), ring.reference());
    }
}

// ---------------------------------------------------------------------
// Sharded-vs-serial gates: the window-barrier runner must reproduce the
// serial engine byte for byte at every shard count (see
// `d2net_sim::shard` and DESIGN.md §14).
// ---------------------------------------------------------------------

#[test]
fn sharded_run_matches_serial_across_families_patterns_and_algorithms() {
    for net in families() {
        for alg in [Algorithm::Minimal, Algorithm::Valiant] {
            let policy = RoutePolicy::new(&net, alg);
            for (pattern, load, tag) in [
                (SyntheticPattern::Uniform, 0.6, "UNI"),
                (worst_case(&net), 0.9, "WC"),
            ] {
                let at =
                    |k| run_synthetic(&net, &policy, &pattern, load, 20_000, 4_000, sharded_cfg(k));
                let serial = at(1);
                for k in [2u32, 4, 7] {
                    assert_eq!(
                        at(k),
                        serial,
                        "{} {alg:?} {tag}: {k} shards diverged from serial",
                        net.name()
                    );
                }
            }
        }
    }
}

/// A run of `pattern` at `load` on `k` shards with `obs` attached.
fn observed_run(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    load: f64,
    cfg: SimConfig,
    obs: Observers,
) -> Run<SyntheticStats> {
    run(
        net,
        policy,
        &Synthetic::new(pattern, load, 20_000, 4_000),
        cfg,
        obs,
    )
    .unwrap()
}

/// Adaptive (UGAL) routing consults buffer occupancies and the per-node
/// RNG on every injection — the strongest exercise of the claim that
/// shard-local state reproduces the serial decision stream. The ledger
/// records that stream.
#[test]
fn sharded_run_matches_serial_under_adaptive_routing() {
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(&net, best_adaptive(&net).1);
    let pattern = worst_case(&net);
    let obs = Observers::ledgered(LedgerConfig::default());
    let serial = observed_run(&net, &policy, &pattern, 0.8, sharded_cfg(1), obs);
    assert!(
        serial.ledger.as_ref().unwrap().decisions > 0,
        "ledger must see decisions"
    );
    for k in [2u32, 5] {
        let sharded = observed_run(&net, &policy, &pattern, 0.8, sharded_cfg(k), obs);
        assert_eq!(sharded, serial, "{k} shards diverged under UGAL");
    }
}

#[test]
fn sharded_probed_run_matches_serial_telemetry_exactly() {
    let obs = Observers::probed(ProbeConfig::default());
    for net in [mlfm(4), oft(4)] {
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let pattern = SyntheticPattern::Uniform;
        let serial = observed_run(&net, &policy, &pattern, 0.7, sharded_cfg(1), obs);
        for k in [2u32, 4] {
            let sharded = observed_run(&net, &policy, &pattern, 0.7, sharded_cfg(k), obs);
            assert_eq!(
                sharded,
                serial,
                "{}: {k}-shard stats and telemetry",
                net.name()
            );
        }
        assert!(serial.telemetry.unwrap().num_samples > 0);
    }
}

#[test]
fn sharded_traced_run_matches_serial_modulo_calendar_internals() {
    for net in families() {
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let (serial_stats, mut serial_trace) =
            traced_run(&net, &policy, 20_000, 4_000, sharded_cfg(1));
        for k in [2u32, 4] {
            let (stats, mut trace) = traced_run(&net, &policy, 20_000, 4_000, sharded_cfg(k));
            assert_eq!(stats, serial_stats, "{}: {k}-shard stats", net.name());
            // The calendar's ring/drain/overflow split and day-jump
            // count depend on each queue's local contents, so they are
            // the one legitimately shard-dependent diagnostic; every
            // engine-level counter and the full flight log must agree.
            let cal = trace.counters.calendar.take();
            serial_trace.counters.calendar = None;
            assert!(cal.is_some(), "{}: calendar stats missing", net.name());
            assert_eq!(trace, serial_trace, "{}: {k}-shard trace", net.name());
        }
    }
}

#[test]
fn sharded_ledgered_run_matches_serial_ledger_exactly() {
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(&net, best_adaptive(&net).1);
    let pattern = worst_case(&net);
    let obs = Observers::ledgered(LedgerConfig::default());
    let plain = run_synthetic(&net, &policy, &pattern, 0.8, 20_000, 4_000, sharded_cfg(1));
    let serial = observed_run(&net, &policy, &pattern, 0.8, sharded_cfg(1), obs);
    assert_eq!(serial.stats, plain, "the ledger must not perturb the run");
    for k in [2u32, 5] {
        let sharded = observed_run(&net, &policy, &pattern, 0.8, sharded_cfg(k), obs);
        assert_eq!(sharded.ledger, serial.ledger, "{k}-shard ledger");
    }
}

#[test]
fn sharded_faulted_run_matches_serial_through_window_barriers() {
    for net in families() {
        let serial = faulted_run(&net, sharded_cfg(1), true, Observers::default()).stats;
        for k in [2u32, 4] {
            let sharded = faulted_run(&net, sharded_cfg(k), true, Observers::default()).stats;
            assert_eq!(sharded, serial, "{}: {k} shards under faults", net.name());
        }
        assert!(serial.dropped_packets > 0 || serial.retried_packets > 0);
    }
}

#[test]
fn sharded_faulted_probed_run_matches_serial_link_down_accounting() {
    let net = mlfm(4);
    let obs = Observers::probed(ProbeConfig::default());
    let serial = faulted_run(&net, sharded_cfg(1), false, obs);
    assert!(serial.telemetry.as_ref().unwrap().total_link_down_events > 0);
    for k in [2u32, 4] {
        let sharded = faulted_run(&net, sharded_cfg(k), false, obs);
        assert_eq!(
            sharded, serial,
            "{k}-shard stats and telemetry under faults"
        );
    }
}

/// Sweeps pass the shard count through `PointRunner`: a sweep whose
/// points run sharded must equal the per-point reference (the sharded
/// point substitutes the derived per-point seed, see
/// `PointRunner::run_point`) at one and at several threads.
#[test]
fn sharded_sweep_matches_serial_sweep_point_for_point() {
    let loads = load_grid(4);
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let uniform = Sweep {
        net: &net,
        policy: &policy,
        pattern: &SyntheticPattern::Uniform,
        loads: &loads,
        duration_ns: 20_000,
        warmup_ns: 4_000,
        cfg: SimConfig::default(),
        obs: Observers::probed(ProbeConfig::default()),
    };
    let want = uniform.reference();
    for k in [3u32, 4] {
        for threads in [1, 4] {
            let got = uniform.run(sharded_cfg(k), threads);
            assert_eq!(got, want, "{k}-shard sweep on {threads} threads");
        }
    }
}

/// A wedging configuration must wedge identically sharded: same
/// deadlock verdict, same stranded-packet forensics in the probe.
#[test]
fn sharded_wedge_detection_matches_serial() {
    let (net, policy, pattern, cfg) = wedging_ring();
    let obs = Observers::probed(ProbeConfig::default());
    let wedge = |k| {
        run(
            &net,
            &policy,
            &Synthetic::new(&pattern, 1.0, 50_000, 0),
            with_shards(cfg, k),
            obs,
        )
        .unwrap()
    };
    let serial = wedge(1);
    assert!(serial.stats.deadlocked, "the ring must wedge");
    for k in [2u32, 5] {
        assert_eq!(wedge(k), serial, "{k}-shard wedge stats and forensics");
    }
}

// ---------------------------------------------------------------------
// Sharded exchanges: the Fig. 13/14 exchanges run on the same
// window-barrier coordinator in drain mode (no horizon) and must match
// the serial engine byte for byte — stats, telemetry, trace and ledger.
// ---------------------------------------------------------------------

/// The shuffled all-to-all (window 1, Fig. 13) and a nearest-neighbour
/// exchange on the network's torus (window 6, Fig. 14), both sized for
/// a debug-build test.
fn exchanges(net: &Network) -> Vec<(d2net::traffic::Exchange, usize, &'static str)> {
    let a2a = d2net::traffic::all_to_all_shuffled(net.num_nodes(), 256, 11);
    let mut nn = d2net::traffic::nearest_neighbor(torus_dims_for(net), 2_048);
    nn.sends.resize(net.num_nodes() as usize, Vec::new());
    vec![(a2a, 1, "A2A"), (nn, 6, "NN")]
}

/// An exchange run with `obs` attached, its trace's calendar counters
/// removed (they are shard-local, see
/// `sharded_traced_run_matches_serial_modulo_calendar_internals`).
fn exchange_run(
    net: &Network,
    policy: &RoutePolicy,
    exchange: &d2net::traffic::Exchange,
    window: usize,
    cfg: SimConfig,
    obs: Observers,
) -> Run<ExchangeStats> {
    let mut r = run(net, policy, &ExchangeRun { exchange, window }, cfg, obs).unwrap();
    if let Some(t) = &mut r.trace {
        assert!(
            t.counters.calendar.take().is_some(),
            "calendar stats missing"
        );
    }
    r
}

#[test]
fn sharded_exchange_matches_serial_stats_telemetry_trace_and_ledger() {
    for net in [slim_fly(5, SlimFlyP::Floor), mlfm(3), oft(3)] {
        for alg in [
            Algorithm::Minimal,
            Algorithm::Valiant,
            best_adaptive(&net).1,
        ] {
            let policy = RoutePolicy::new(&net, alg);
            for (ex, window, tag) in exchanges(&net) {
                let label = format!("{} {alg:?} {tag}", net.name());
                let at =
                    |k| exchange_run(&net, &policy, &ex, window, sharded_cfg(k), all_observers());
                let serial = at(1);
                assert!(!serial.stats.deadlocked, "{label}: exchange must complete");
                assert_eq!(serial.stats.delivered_bytes, ex.total_bytes(), "{label}");
                let plain = run_exchange(&net, &policy, &ex, window, sharded_cfg(1));
                assert_eq!(serial.stats, plain, "{label}: observers perturbed the run");
                for k in [2u32, 3, 5] {
                    assert_eq!(
                        at(k),
                        serial,
                        "{label}: {k}-shard stats, telemetry, trace, ledger"
                    );
                }
            }
        }
    }
}

/// A wedging exchange (the single-VC 5-ring with tiny buffers) must
/// report `deadlocked` identically at every shard count, forensics
/// included.
#[test]
fn sharded_exchange_wedge_matches_serial() {
    use d2net::traffic::{Exchange, Message};
    let (net, policy, pattern, cfg) = wedging_ring();
    let SyntheticPattern::Permutation(perm) = pattern else {
        unreachable!("the wedging ring runs a permutation")
    };
    // Every node streams to the node two hops clockwise: the same
    // single-VC cycle the synthetic wedge test closes.
    let ex = Exchange {
        sends: perm
            .iter()
            .map(|&dst| vec![Message { dst, bytes: 65_536 }])
            .collect(),
        label: "ring5 shift-2".into(),
    };
    let obs = Observers::probed(ProbeConfig::default());
    let at = |k| exchange_run(&net, &policy, &ex, 1, with_shards(cfg, k), obs);
    let serial = at(1);
    assert!(serial.stats.deadlocked, "the ring exchange must wedge");
    assert!(
        serial.telemetry.as_ref().unwrap().deadlock.is_some(),
        "serial forensics missing"
    );
    for k in [2u32, 3, 5] {
        assert_eq!(
            at(k),
            serial,
            "{k}-shard wedged exchange stats and forensics"
        );
    }
}

/// The exchange ledger is the engine's own account of the run: one
/// UGAL-L decision per packet whose endpoints sit on different routers,
/// one misroute per packet the engine sent indirectly, and the same
/// ledger at one and two shards.
#[test]
fn exchange_ledger_counts_every_decision_and_misroute() {
    for net in [mlfm(3), oft(3)] {
        let (_, alg) = best_adaptive(&net);
        assert!(
            matches!(alg, Algorithm::Ugal { .. }),
            "{}: UGAL-L expected",
            net.name()
        );
        let policy = RoutePolicy::new(&net, alg);
        let ex = d2net::traffic::all_to_all_shuffled(net.num_nodes(), 7_500, 3);
        let obs = Observers::ledgered(LedgerConfig::default());
        let serial = exchange_run(&net, &policy, &ex, 1, sharded_cfg(1), obs);
        let (stats, led) = (&serial.stats, serial.ledger.as_ref().unwrap());
        let packets = SimConfig::default().packet_bytes as u64;
        let remote: u64 = ex
            .sends
            .iter()
            .enumerate()
            .flat_map(|(src, list)| list.iter().map(move |m| (src as u32, m)))
            .filter(|(src, m)| net.node_router(*src) != net.node_router(m.dst))
            .map(|(_, m)| m.bytes.div_ceil(packets))
            .sum();
        assert!(remote > 0);
        assert_eq!(led.decisions, remote, "{}: ledger decisions", net.name());
        assert_eq!(
            led.indirect,
            stats.indirect_packets,
            "{}: ledger misroutes",
            net.name()
        );
        assert!(
            led.indirect > 0,
            "{}: UGAL-L must misroute some packets",
            net.name()
        );
        let sharded = exchange_run(&net, &policy, &ex, 1, sharded_cfg(2), obs);
        assert_eq!(sharded, serial, "{}: 2-shard stats and ledger", net.name());
    }
}

/// Exchanges plan their shard count exactly as synthetic runs do: the
/// heap queue (the unsharded reference) and global UGAL (which reads
/// remote occupancies) stay serial even under an explicit request. For
/// UGAL-G the calendar counters in the trace show it: a sharded run
/// merges one calendar per shard, a serial run reports its one queue.
#[test]
fn heap_queue_and_global_ugal_keep_exchanges_serial() {
    let net = slim_fly(5, SlimFlyP::Floor);
    let ex = d2net::traffic::all_to_all_shuffled(net.num_nodes(), 256, 5);
    let min = RoutePolicy::new(&net, Algorithm::Minimal);
    let ugal_g = RoutePolicy::new(&net, Algorithm::UgalG { n_i: 4, c: 2.0 });
    let heap = SimConfig {
        event_queue: EventQueueKind::Heap,
        ..sharded_cfg(4)
    };
    assert_eq!(plan_shards(&net, &min, &sharded_cfg(4)), 4);
    assert_eq!(plan_shards(&net, &ugal_g, &sharded_cfg(4)), 1);
    assert_eq!(plan_shards(&net, &min, &heap), 1);

    let traced = |policy: &RoutePolicy, cfg: SimConfig| {
        let work = ExchangeRun {
            exchange: &ex,
            window: 1,
        };
        let r = run(
            &net,
            policy,
            &work,
            cfg,
            Observers::traced(TraceConfig::default()),
        )
        .unwrap();
        (r.stats, r.trace.unwrap())
    };
    // Sharded: same stats, different calendar internals.
    let (serial_stats, serial_trace) = traced(&min, sharded_cfg(1));
    let (stats, trace) = traced(&min, sharded_cfg(4));
    assert_eq!(stats, serial_stats);
    assert_ne!(trace.counters.calendar, serial_trace.counters.calendar);
    // Clamped to serial: the whole trace, calendar included, is the
    // serial one.
    let (serial_stats, serial_trace) = traced(&ugal_g, sharded_cfg(1));
    let (stats, trace) = traced(&ugal_g, sharded_cfg(4));
    assert_eq!(stats, serial_stats);
    assert_eq!(trace, serial_trace, "UGAL-G exchange must stay serial");
}

/// `Engine::reset` must rewind the calendar queue's diagnostic counters
/// along with its contents — a traced sweep point's calendar stats must
/// equal a standalone traced run's.
#[test]
fn calendar_stats_reset_between_sweep_points() {
    let net = mlfm(4);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let loads = [0.3, 0.7];
    let base = SimConfig::default();
    let pattern = SyntheticPattern::Uniform;
    let obs = Observers::traced(TraceConfig::default());
    let outcome = sweep(&net, &policy, &pattern, &loads, 20_000, 4_000, base, obs, 1);
    assert_eq!(outcome.traces.len(), loads.len());
    for (i, (pt, &load)) in outcome.traces.iter().zip(&loads).enumerate() {
        let cfg = SimConfig {
            seed: point_seed(base.seed, i),
            ..base
        };
        let standalone = observed_run(&net, &policy, &pattern, load, cfg, obs)
            .trace
            .unwrap();
        assert_eq!(
            pt.trace.counters.calendar, standalone.counters.calendar,
            "point {i}: calendar stats leaked across Engine::reset"
        );
        assert_eq!(pt.trace, standalone, "point {i}: trace diverged");
    }
    assert!(outcome.notices.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shard-count independence: a random shard count (including counts
    /// that don't divide the router count, and 1) never changes the
    /// simulated statistics.
    #[test]
    fn random_shard_counts_never_change_stats(
        k in 1u32..10,
        load_idx in 0usize..3,
    ) {
        let net = mlfm(4);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let load = [0.3, 0.6, 1.0][load_idx];
        let at = |k| run_synthetic(&net, &policy, &SyntheticPattern::Uniform, load, 10_000, 2_000, sharded_cfg(k));
        prop_assert_eq!(at(k), at(1));
    }
}
