//! Structured tracing for the simulator: span profiling, a sampled
//! packet flight recorder, hot-loop counters and a metrics registry.
//!
//! Three coordinated pieces, all following the observer slot's
//! zero-overhead discipline (the recorder lives in the engine's one
//! observer slot, [`crate::observer`], and the hot loop pays one branch
//! per event point when the slot is empty; recorded state never feeds
//! back into the simulation, so stats are byte-identical with tracing on
//! or off):
//!
//! - **engine phase spans** ([`PhaseSpan`]) — the sim-time extents of the
//!   warmup, measurement and drain phases of a run, plus wall-clock
//!   harness spans ([`SpanProfiler`]) for the phases that happen outside
//!   the engine (topology build, route tables, preflight);
//! - **packet flight recorder** ([`PacketFlight`]) — a deterministic
//!   sample of packets (SplitMix64 hash of the per-run injection ordinal
//!   against a 1-in-N rate) with their full hop timelines: inject,
//!   per-hop arrival, blocked, switch allocation, serialization, eject
//!   or drop;
//! - **hot-loop counters** ([`HotCounters`]) and a hand-rolled
//!   [`MetricsRegistry`] of counters/gauges/histograms, snapshotted into
//!   the RunManifest's `"trace"` section by `d2net-core`.
//!
//! Everything recorded is a pure function of the simulated schedule:
//! per-point traces ([`PointTrace`]) produced by the parallel sweeps are
//! merged by point index and compare byte-identical to serial sweeps.
//! Wall-clock spans are deliberately kept *out* of [`EngineTrace`] — they
//! live in [`SpanProfiler`], which callers may print or export alongside
//! the deterministic data.

use crate::equeue::CalendarStats;
use std::time::Instant;

/// Trace configuration. Defaults sample one packet in 64 and bound the
/// recorder's memory via [`TraceConfig::max_flights`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Flight sampling rate as 1-in-N packets (`0` disables the flight
    /// recorder entirely; phase spans and counters are still kept).
    pub sample_rate: u32,
    /// Record only phase spans and counters, no packet flights.
    pub phase_only: bool,
    /// Hard cap on recorded flights per run (default 1024).
    pub max_flights: usize,
    /// Hard cap on events per flight; a capped flight is marked
    /// [`PacketFlight::truncated`] (default 64).
    pub max_events_per_flight: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_rate: 64,
            phase_only: false,
            max_flights: 1024,
            max_events_per_flight: 64,
        }
    }
}

/// SplitMix64 finalizer — the same mix the sweep seeds use. Hashing the
/// flight id decorrelates the sample from injection order so "every Nth
/// packet" artifacts cannot line up with periodic traffic.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether the flight with per-run injection ordinal `flight_id` is in
/// the deterministic 1-in-`rate` sample.
#[inline]
pub fn flight_sampled(rate: u32, flight_id: u64) -> bool {
    rate > 0 && mix64(flight_id).is_multiple_of(rate as u64)
}

/// One step of a sampled packet's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// Injection committed at the source node (serialization onto the
    /// injection link starts now); `router` is the source's router.
    Inject { router: u32 },
    /// Full packet received at `router`'s input buffer.
    ArriveRouter { router: u32, hop: u8 },
    /// Input head blocked on a full output buffer at `router`.
    Blocked { router: u32, out_port: u32, out_vc: u8 },
    /// Switch allocated: transferred input → output buffer at `router`.
    SwitchAlloc { router: u32, out_port: u32, out_vc: u8 },
    /// Output `port` started serializing the packet onto its link.
    SerializeStart { port: u32 },
    /// Delivered to the destination node attached to `router`.
    Eject { router: u32 },
    /// Dropped at `router` (dead link flush, stale route, or severed
    /// destination discovered at the router's door).
    Drop { router: u32 },
}

/// A timestamped [`FlightEventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    pub t_ps: u64,
    pub kind: FlightEventKind,
}

/// The recorded timeline of one sampled packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketFlight {
    /// Per-run injection ordinal (1-based): stable across the packet
    /// slab's id recycling and unique within a run.
    pub flight_id: u64,
    pub src: u32,
    pub dst: u32,
    pub bytes: u32,
    /// Generation instant of the packet (its latency epoch).
    pub birth_ps: u64,
    /// Whether the routing decision took an indirect (Valiant) path.
    pub indirect: bool,
    pub events: Vec<FlightEvent>,
    /// Delivery time, `None` for dropped or still-in-flight packets.
    pub delivered_ps: Option<u64>,
    pub dropped: bool,
    /// True when the per-flight event cap cut the timeline short.
    pub truncated: bool,
}

/// Engine phases a run moves through, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPhase {
    Warmup,
    Measure,
    Drain,
}

impl SimPhase {
    pub fn name(self) -> &'static str {
        match self {
            SimPhase::Warmup => "warmup",
            SimPhase::Measure => "measure",
            SimPhase::Drain => "drain",
        }
    }
}

/// Sim-time extent of one engine phase; `end_ps >= start_ps`, zero-width
/// spans are legal (e.g. drain on a horizon-bounded synthetic run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    pub phase: SimPhase,
    pub start_ps: u64,
    pub end_ps: u64,
}

/// Hot-loop counters of one traced run. All are exact (not sampled) and
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HotCounters {
    /// Events dequeued by the run loop.
    pub events_popped: u64,
    /// Events scheduled, counted on the sender side (each event exactly
    /// once, whether it lands on the local queue or a cross-shard
    /// mailbox).
    pub events_scheduled: u64,
    /// Pushes into input-FIFO queues (packet arrivals at routers).
    pub in_q_pushes: u64,
    /// Pushes into output-FIFO queues (switch allocations).
    pub out_q_pushes: u64,
    /// Input (port, VC)s entering the blocked state.
    pub blocked_entries: u64,
    /// Calendar-queue internals; `None` under the reference heap.
    pub calendar: Option<CalendarStats>,
}

/// Full deterministic trace of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineTrace {
    pub cfg: TraceConfig,
    /// The warmup/measure/drain spans, in order.
    pub phases: Vec<PhaseSpan>,
    pub flights: Vec<PacketFlight>,
    pub counters: HotCounters,
    /// Packets that matched the sampling hash (recorded or not — the
    /// flight cap can leave `eligible > flights.len()`).
    pub eligible_flights: u64,
}

/// One traced point of a sweep: the deterministic merge key is `index`,
/// which is why serial and parallel sweeps emit identical trace files.
#[derive(Debug, Clone, PartialEq)]
pub struct PointTrace {
    pub index: usize,
    /// The sweep's x-axis value at this point (offered load, or failure
    /// fraction for resilience sweeps).
    pub load: f64,
    pub trace: EngineTrace,
}

/// Live recorder held in the engine's observer slot during a traced
/// run. Its hooks never touch simulation state.
#[derive(Debug)]
pub struct TraceRecorder {
    cfg: TraceConfig,
    /// Recorded flights keyed by their injection's `(t_ps, key)`
    /// schedule key — the global alloc order. `None` tombstones mark
    /// flights handed to another shard via
    /// [`TraceRecorder::extract_flight`]; tombstones keep indices stable
    /// so `slot` never needs patching.
    flights: Vec<Option<((u64, u64), PacketFlight)>>,
    /// Packet-slab slot → index into `flights` (`u32::MAX` when the slab
    /// entry's current occupant is unsampled). Re-assigned on every
    /// alloc, so slab id recycling can never cross flight timelines.
    slot: Vec<u32>,
    eligible: u64,
    /// Flights this recorder recorded *at alloc time* (migrants implanted
    /// by other shards excluded). The flight cap compares against this,
    /// so a shard's recorded set is exactly the serial recorder's sample
    /// restricted to the shard's sources — [`TraceRecorder::finish`]'s
    /// sort-and-truncate then reproduces the serial flight list.
    alloc_recorded: usize,
    /// Commit time of the most recent injection (any packet, sampled or
    /// not) — the exchange runner's measure/drain boundary.
    pub(crate) last_alloc_ps: u64,
}

const NO_FLIGHT: u32 = u32::MAX;

impl TraceRecorder {
    pub fn new(cfg: TraceConfig) -> Self {
        TraceRecorder {
            cfg,
            flights: Vec::new(),
            slot: Vec::new(),
            eligible: 0,
            alloc_recorded: 0,
            last_alloc_ps: 0,
        }
    }

    /// A packet entered the slab at `pkt` with injection ordinal
    /// `flight_id` and alloc schedule key `key`; decides whether this
    /// flight is sampled.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_alloc(
        &mut self,
        pkt: u32,
        flight_id: u64,
        key: (u64, u64),
        t_ps: u64,
        router: u32,
        src: u32,
        dst: u32,
        bytes: u32,
        birth_ps: u64,
    ) {
        self.clear_slot(pkt);
        self.last_alloc_ps = self.last_alloc_ps.max(t_ps);
        if self.cfg.phase_only || !flight_sampled(self.cfg.sample_rate, flight_id) {
            return;
        }
        self.eligible += 1;
        if self.alloc_recorded >= self.cfg.max_flights {
            return;
        }
        self.alloc_recorded += 1;
        self.slot[pkt as usize] = self.flights.len() as u32;
        self.flights.push(Some((
            key,
            PacketFlight {
                flight_id,
                src,
                dst,
                bytes,
                birth_ps,
                indirect: false,
                events: vec![FlightEvent {
                    t_ps,
                    kind: FlightEventKind::Inject { router },
                }],
                delivered_ps: None,
                dropped: false,
                truncated: false,
            },
        )));
    }

    /// Clears any stale flight mapping for slab slot `pkt`. Called on
    /// every slab (re)allocation — including cross-shard implants of
    /// unsampled packets — so id recycling cannot splice timelines.
    #[inline]
    pub(crate) fn clear_slot(&mut self, pkt: u32) {
        if self.slot.len() <= pkt as usize {
            self.slot.resize(pkt as usize + 1, NO_FLIGHT);
        }
        self.slot[pkt as usize] = NO_FLIGHT;
    }

    /// Removes the flight tracking slab slot `pkt` (if any) so it can
    /// migrate to the receiving shard's recorder. Leaves a tombstone.
    #[inline]
    pub(crate) fn extract_flight(&mut self, pkt: u32) -> Option<((u64, u64), PacketFlight)> {
        match self.slot.get(pkt as usize) {
            Some(&f) if f != NO_FLIGHT => {
                self.slot[pkt as usize] = NO_FLIGHT;
                self.flights[f as usize].take()
            }
            _ => None,
        }
    }

    /// Adopts a flight extracted on another shard, binding it to the
    /// local slab slot `pkt`. Bypasses the flight cap on purpose: the
    /// flight was already admitted by its source recorder.
    #[inline]
    pub(crate) fn implant_flight(&mut self, pkt: u32, key: (u64, u64), flight: PacketFlight) {
        self.clear_slot(pkt);
        self.slot[pkt as usize] = self.flights.len() as u32;
        self.flights.push(Some((key, flight)));
    }

    /// Folds another shard's recorder in after a sharded run: flights
    /// concatenate (each lives in exactly one recorder once the run
    /// stops), the final sort in [`TraceRecorder::finish`] restores
    /// global alloc order. Slab mappings are shard-local and meaningless
    /// after the merge.
    pub(crate) fn absorb(&mut self, other: TraceRecorder) {
        self.flights.extend(other.flights);
        self.eligible += other.eligible;
        self.alloc_recorded += other.alloc_recorded;
        self.last_alloc_ps = self.last_alloc_ps.max(other.last_alloc_ps);
        self.slot.clear();
    }

    #[inline]
    fn flight_mut(&mut self, pkt: u32) -> Option<&mut PacketFlight> {
        match self.slot.get(pkt as usize) {
            Some(&f) if f != NO_FLIGHT => self.flights[f as usize].as_mut().map(|e| &mut e.1),
            _ => None,
        }
    }

    #[inline]
    fn push_event(&mut self, pkt: u32, t_ps: u64, kind: FlightEventKind) {
        let cap = self.cfg.max_events_per_flight;
        if let Some(f) = self.flight_mut(pkt) {
            if f.events.len() < cap {
                f.events.push(FlightEvent { t_ps, kind });
            } else {
                f.truncated = true;
            }
        }
    }

    /// The routing decision for `pkt` was made (hop 0).
    #[inline]
    pub(crate) fn on_route(&mut self, pkt: u32, indirect: bool) {
        if let Some(f) = self.flight_mut(pkt) {
            f.indirect = indirect;
        }
    }

    #[inline]
    pub(crate) fn on_arrive_router(&mut self, pkt: u32, t_ps: u64, router: u32, hop: u8) {
        self.push_event(pkt, t_ps, FlightEventKind::ArriveRouter { router, hop });
    }

    #[inline]
    pub(crate) fn on_blocked(&mut self, pkt: u32, t_ps: u64, router: u32, out_port: u32, out_vc: u8) {
        self.push_event(
            pkt,
            t_ps,
            FlightEventKind::Blocked {
                router,
                out_port,
                out_vc,
            },
        );
    }

    #[inline]
    pub(crate) fn on_switch_alloc(
        &mut self,
        pkt: u32,
        t_ps: u64,
        router: u32,
        out_port: u32,
        out_vc: u8,
    ) {
        self.push_event(
            pkt,
            t_ps,
            FlightEventKind::SwitchAlloc {
                router,
                out_port,
                out_vc,
            },
        );
    }

    #[inline]
    pub(crate) fn on_serialize(&mut self, pkt: u32, t_ps: u64, port: u32) {
        self.push_event(pkt, t_ps, FlightEventKind::SerializeStart { port });
    }

    /// Terminal hooks also clear the slab slot: the id is about to be
    /// recycled and must not extend this flight's timeline.
    #[inline]
    pub(crate) fn on_eject(&mut self, pkt: u32, t_ps: u64, router: u32) {
        let cap = self.cfg.max_events_per_flight;
        if let Some(f) = self.flight_mut(pkt) {
            f.delivered_ps = Some(t_ps);
            if f.events.len() < cap {
                f.events.push(FlightEvent {
                    t_ps,
                    kind: FlightEventKind::Eject { router },
                });
            } else {
                f.truncated = true;
            }
            self.slot[pkt as usize] = NO_FLIGHT;
        }
    }

    #[inline]
    pub(crate) fn on_drop(&mut self, pkt: u32, t_ps: u64, router: u32) {
        let cap = self.cfg.max_events_per_flight;
        if let Some(f) = self.flight_mut(pkt) {
            f.dropped = true;
            if f.events.len() < cap {
                f.events.push(FlightEvent {
                    t_ps,
                    kind: FlightEventKind::Drop { router },
                });
            } else {
                f.truncated = true;
            }
            self.slot[pkt as usize] = NO_FLIGHT;
        }
    }

    /// Finalizes the recorder into an [`EngineTrace`] carrying the run's
    /// `counters`. `measure_end_ps` is the statistics horizon
    /// (synthetic: the run's `end_ps`; exchange: the last injection, at
    /// most the last delivery); `final_ps` is the engine clock when the
    /// event loop stopped.
    ///
    /// Flights are emitted sorted by their alloc `(t_ps, key)` schedule
    /// key and truncated to [`TraceConfig::max_flights`]. Serial runs
    /// record in that order already, so the sort is the identity there;
    /// after a sharded merge it restores global order, and the truncate
    /// drops exactly the flights a serial recorder's cap would have
    /// rejected (each shard's cap admits a superset of the serial sample
    /// restricted to its sources).
    pub(crate) fn finish(
        self,
        counters: HotCounters,
        warmup_ps: u64,
        measure_end_ps: u64,
        final_ps: u64,
    ) -> EngineTrace {
        let mut keyed: Vec<((u64, u64), PacketFlight)> =
            self.flights.into_iter().flatten().collect();
        keyed.sort_by_key(|&(k, _)| k);
        keyed.truncate(self.cfg.max_flights);
        let flights: Vec<PacketFlight> = keyed.into_iter().map(|(_, f)| f).collect();
        let warmup_end = warmup_ps.min(measure_end_ps);
        let phases = vec![
            PhaseSpan {
                phase: SimPhase::Warmup,
                start_ps: 0,
                end_ps: warmup_end,
            },
            PhaseSpan {
                phase: SimPhase::Measure,
                start_ps: warmup_end,
                end_ps: measure_end_ps,
            },
            PhaseSpan {
                phase: SimPhase::Drain,
                start_ps: measure_end_ps,
                end_ps: final_ps.max(measure_end_ps),
            },
        ];
        EngineTrace {
            cfg: self.cfg,
            phases,
            flights,
            counters,
            eligible_flights: self.eligible,
        }
    }
}

// ----- metrics registry ---------------------------------------------

/// A metric's value. Histograms carry explicit upper bounds plus an
/// implicit overflow bucket (`counts.len() == bounds.len() + 1`).
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram { bounds_ns: Vec<u64>, counts: Vec<u64> },
}

/// One named metric with a static label set.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: MetricValue,
}

/// A hand-rolled metrics registry: an ordered list of metrics, appended
/// in registration order so serialization is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    pub metrics: Vec<Metric>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: &str, labels: &[(&str, &str)], value: MetricValue) {
        self.metrics.push(Metric {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
    }

    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.push(name, labels, MetricValue::Counter(v));
    }

    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.push(name, labels, MetricValue::Gauge(v));
    }

    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], bounds_ns: Vec<u64>, counts: Vec<u64>) {
        assert_eq!(
            counts.len(),
            bounds_ns.len() + 1,
            "histogram needs one overflow bucket past the last bound"
        );
        self.push(name, labels, MetricValue::Histogram { bounds_ns, counts });
    }
}

/// Delay-histogram bounds for [`sweep_metrics`]' flight-latency metric:
/// powers of two from 250 ns, wide enough for any diameter-2 run.
const LATENCY_BOUNDS_NS: [u64; 7] = [250, 500, 1_000, 2_000, 4_000, 8_000, 16_000];

/// Aggregates the traces of a sweep into the registry snapshotted under
/// the RunManifest's `"trace"` section. Purely derived from the traces,
/// so it inherits their determinism.
pub fn sweep_metrics(points: &[PointTrace]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let mut popped = 0u64;
    let mut scheduled = 0u64;
    let mut in_pushes = 0u64;
    let mut out_pushes = 0u64;
    let mut blocked = 0u64;
    let mut ring = 0u64;
    let mut drain = 0u64;
    let mut overflow = 0u64;
    let mut jumps = 0u64;
    let mut flights = 0u64;
    let mut flight_events = 0u64;
    let mut dropped = 0u64;
    let mut sim_ps = [0u64; 3];
    let mut lat_counts = vec![0u64; LATENCY_BOUNDS_NS.len() + 1];
    for p in points {
        let c = &p.trace.counters;
        popped += c.events_popped;
        scheduled += c.events_scheduled;
        in_pushes += c.in_q_pushes;
        out_pushes += c.out_q_pushes;
        blocked += c.blocked_entries;
        if let Some(cal) = c.calendar {
            ring += cal.ring_pushes;
            drain += cal.drain_pushes;
            overflow += cal.overflow_pushes;
            jumps += cal.day_jumps;
        }
        for (i, span) in p.trace.phases.iter().enumerate().take(3) {
            sim_ps[i] += span.end_ps - span.start_ps;
        }
        flights += p.trace.flights.len() as u64;
        for f in &p.trace.flights {
            flight_events += f.events.len() as u64;
            dropped += f.dropped as u64;
            if let Some(d) = f.delivered_ps {
                let ns = (d - f.birth_ps) / 1_000;
                let bucket = LATENCY_BOUNDS_NS
                    .iter()
                    .position(|&b| ns <= b)
                    .unwrap_or(LATENCY_BOUNDS_NS.len());
                lat_counts[bucket] += 1;
            }
        }
    }
    reg.counter("points_traced", &[], points.len() as u64);
    reg.counter("events_popped", &[], popped);
    reg.counter("events_scheduled", &[], scheduled);
    reg.counter("fifo_pushes", &[("queue", "input")], in_pushes);
    reg.counter("fifo_pushes", &[("queue", "output")], out_pushes);
    reg.counter("blocked_entries", &[], blocked);
    reg.counter("calendar_pushes", &[("path", "ring")], ring);
    reg.counter("calendar_pushes", &[("path", "drain")], drain);
    reg.counter("calendar_pushes", &[("path", "overflow")], overflow);
    reg.counter("calendar_day_jumps", &[], jumps);
    reg.counter("flights_recorded", &[], flights);
    reg.counter("flight_events", &[], flight_events);
    reg.counter("flights_dropped", &[], dropped);
    for (i, phase) in [SimPhase::Warmup, SimPhase::Measure, SimPhase::Drain]
        .into_iter()
        .enumerate()
    {
        reg.gauge(
            "sim_phase_ns",
            &[("phase", phase.name())],
            sim_ps[i] as f64 / 1_000.0,
        );
    }
    reg.histogram(
        "flight_latency_ns",
        &[],
        LATENCY_BOUNDS_NS.to_vec(),
        lat_counts,
    );
    reg
}

// ----- wall-clock span profiler -------------------------------------

/// One wall-clock harness span (topology build, route tables, preflight,
/// sweep, ...). Times are relative to the profiler's construction, so a
/// span list forms a self-contained timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessSpan {
    pub name: String,
    /// Nesting depth at `enter` time (0 = top level).
    pub depth: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Hierarchical wall-clock profiler for the harness phases that happen
/// outside the engine. Wall times are nondeterministic by nature, so
/// they are kept separate from [`EngineTrace`]; callers decide whether
/// to print them or export them alongside the deterministic trace.
#[derive(Debug)]
pub struct SpanProfiler {
    epoch: Instant,
    stack: Vec<(String, Instant)>,
    spans: Vec<HarnessSpan>,
}

impl SpanProfiler {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        SpanProfiler {
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`SpanProfiler::exit`]. Spans nest.
    pub fn enter(&mut self, name: &str) {
        self.stack.push((name.to_string(), Instant::now()));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let (name, start) = self.stack.pop().expect("exit without a matching enter");
        self.spans.push(HarnessSpan {
            name,
            depth: self.stack.len() as u32,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: start.elapsed().as_nanos() as u64,
        });
    }

    /// Times `f` under a span named `name`, returning its result.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Completed spans, in completion order (children before parents).
    pub fn spans(&self) -> &[HarnessSpan] {
        &self.spans
    }

    /// Plain-text table of the recorded spans, earliest-start first.
    pub fn render(&self) -> String {
        let mut rows: Vec<&HarnessSpan> = self.spans.iter().collect();
        rows.sort_by_key(|s| s.start_ns);
        let mut out = String::from("harness spans (wall clock):\n");
        for s in rows {
            out.push_str(&format!(
                "  {:indent$}{:<24} {:>12.3} ms\n",
                "",
                s.name,
                s.dur_ns as f64 / 1e6,
                indent = (s.depth * 2) as usize,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_rate_shaped() {
        let rate = 8u32;
        let hits: Vec<u64> = (1..=10_000).filter(|&id| flight_sampled(rate, id)).collect();
        // Deterministic: same answer on every call.
        assert!(hits.iter().all(|&id| flight_sampled(rate, id)));
        // Roughly 1-in-8 (hash-based, so allow a generous band).
        assert!(hits.len() > 800 && hits.len() < 1700, "{}", hits.len());
        // Rate 0 disables sampling.
        assert!(!(1..=1000).any(|id| flight_sampled(0, id)));
        // Rate 1 samples everything.
        assert!((1..=1000).all(|id| flight_sampled(1, id)));
    }

    #[test]
    fn recorder_tracks_a_flight_across_slab_recycling() {
        let cfg = TraceConfig {
            sample_rate: 1,
            ..TraceConfig::default()
        };
        let mut tr = TraceRecorder::new(cfg);
        tr.on_alloc(0, 1, (100, 1), 100, 5, 10, 20, 256, 90);
        tr.on_arrive_router(0, 300, 5, 0);
        tr.on_eject(0, 900, 7);
        // Slab slot 0 is recycled by a new, also-sampled flight.
        tr.on_alloc(0, 2, (1_000, 2), 1_000, 6, 11, 21, 256, 950);
        tr.on_drop(0, 1_200, 6);
        let counters = HotCounters {
            events_scheduled: 42,
            ..HotCounters::default()
        };
        let t = tr.finish(counters, 0, 2_000, 2_000);
        assert_eq!(t.flights.len(), 2);
        assert_eq!(t.flights[0].flight_id, 1);
        assert_eq!(t.flights[0].delivered_ps, Some(900));
        assert_eq!(t.flights[0].events.len(), 3);
        assert!(t.flights[1].dropped);
        assert_eq!(t.flights[1].events.len(), 2);
        assert_eq!(t.counters.events_scheduled, 42);
        assert_eq!(t.eligible_flights, 2);
    }

    #[test]
    fn event_cap_truncates_and_marks() {
        let cfg = TraceConfig {
            sample_rate: 1,
            max_events_per_flight: 2,
            ..TraceConfig::default()
        };
        let mut tr = TraceRecorder::new(cfg);
        tr.on_alloc(3, 1, (0, 1), 0, 0, 0, 1, 256, 0);
        tr.on_arrive_router(3, 10, 0, 0);
        tr.on_arrive_router(3, 20, 1, 1); // over the cap
        tr.on_eject(3, 30, 1);
        let t = tr.finish(HotCounters::default(), 0, 100, 100);
        assert_eq!(t.flights[0].events.len(), 2);
        assert!(t.flights[0].truncated);
        // Terminal metadata still lands even when the event was cut.
        assert_eq!(t.flights[0].delivered_ps, Some(30));
    }

    #[test]
    fn flight_migration_and_merge_restore_alloc_order() {
        let cfg = TraceConfig {
            sample_rate: 1,
            ..TraceConfig::default()
        };
        // Shard A records two flights; the first migrates to shard B,
        // finishes there, then B is absorbed into A.
        let mut a = TraceRecorder::new(cfg);
        let mut b = TraceRecorder::new(cfg);
        a.on_alloc(0, 1, (100, 1), 100, 5, 10, 20, 256, 90);
        a.on_alloc(1, 2, (150, 2), 150, 5, 12, 22, 256, 140);
        let (key, flight) = a.extract_flight(0).expect("sampled flight migrates");
        assert_eq!(key, (100, 1));
        // Slot 0 on A is recycled by an unsampled implant: must not
        // splice into the extracted flight's tombstone.
        a.clear_slot(0);
        b.implant_flight(7, key, flight);
        b.on_arrive_router(7, 300, 9, 1);
        b.on_eject(7, 900, 9);
        a.on_eject(1, 400, 5);
        b.absorb(a);
        let t = b.finish(HotCounters::default(), 0, 1_000, 1_000);
        // Sorted by alloc key, not merge order.
        assert_eq!(t.flights.len(), 2);
        assert_eq!(t.flights[0].flight_id, 1);
        assert_eq!(t.flights[0].delivered_ps, Some(900));
        assert_eq!(t.flights[0].events.len(), 3);
        assert_eq!(t.flights[1].flight_id, 2);
        assert_eq!(t.eligible_flights, 2);
    }

    #[test]
    fn phase_spans_partition_the_run() {
        let tr = TraceRecorder::new(TraceConfig::default());
        let t = tr.finish(HotCounters::default(), 5_000, 20_000, 26_000);
        assert_eq!(t.phases.len(), 3);
        assert_eq!((t.phases[0].start_ps, t.phases[0].end_ps), (0, 5_000));
        assert_eq!((t.phases[1].start_ps, t.phases[1].end_ps), (5_000, 20_000));
        assert_eq!((t.phases[2].start_ps, t.phases[2].end_ps), (20_000, 26_000));
        assert_eq!(t.phases[0].phase.name(), "warmup");
    }

    #[test]
    fn metrics_registry_shapes_hold() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a", &[("k", "v")], 3);
        reg.gauge("b", &[], 1.5);
        reg.histogram("c", &[], vec![10, 20], vec![1, 2, 3]);
        assert_eq!(reg.metrics.len(), 3);
        assert_eq!(reg.metrics[0].labels, vec![("k".into(), "v".into())]);
    }

    #[test]
    #[should_panic(expected = "overflow bucket")]
    fn histogram_rejects_mismatched_buckets() {
        let mut reg = MetricsRegistry::new();
        reg.histogram("c", &[], vec![10, 20], vec![1, 2]);
    }

    #[test]
    fn span_profiler_nests_and_renders() {
        let mut p = SpanProfiler::new();
        p.enter("outer");
        p.scope("inner", || std::hint::black_box(17));
        p.exit();
        assert_eq!(p.spans().len(), 2);
        let inner = p.spans().iter().find(|s| s.name == "inner").unwrap();
        let outer = p.spans().iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.depth, 0);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(p.render().contains("inner"));
    }
}
