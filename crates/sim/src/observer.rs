//! The observers a run can carry, and the one slot that holds them in
//! the engine.
//!
//! [`Observers`] is what a caller asks for. [`Attached`] is what the
//! engine owns while it runs: the live telemetry probe, trace recorder
//! and decision ledger, plus the hot-loop counters the trace reports.
//! The engine keeps it in a single `Option<Box<Attached>>` and makes one
//! call per event point, so a run without observers pays one predicted
//! branch per point. No hook feeds back into the simulation: stats are
//! byte-identical with any combination attached.

use crate::ledger::{DecisionLedger, LedgerConfig};
use crate::telemetry::{ProbeConfig, Telemetry};
use crate::trace::{HotCounters, PacketFlight, TraceConfig, TraceRecorder};

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
}

/// A migrating packet's flight record, keyed by its alloc `(t, key)`.
pub(crate) type Flight = ((u64, u64), PacketFlight);

/// The live observers of one engine (one shard of a sharded run). Each
/// hook forwards to whichever observers are present.
#[derive(Debug)]
pub(crate) struct Attached {
    pub(crate) probe: Option<Telemetry>,
    pub(crate) trace: Option<TraceRecorder>,
    pub(crate) ledger: Option<DecisionLedger>,
    /// Exact hot-loop counts, reported in the trace. `events_scheduled`
    /// and `calendar` are filled in when the trace is finalized.
    pub(crate) counters: HotCounters,
}

impl Attached {
    /// The live state for `obs`; the engine builds the probe, which
    /// needs its port geometry.
    pub(crate) fn new(obs: Observers, probe: Option<Telemetry>) -> Self {
        Attached {
            probe,
            trace: obs.trace.map(TraceRecorder::new),
            ledger: obs.ledger.map(DecisionLedger::new),
            counters: HotCounters::default(),
        }
    }

    /// The clock reached `t`: flushes probe sample windows up to it.
    /// `popped` counts an event pop (a barrier-applied fault counts on
    /// the accounting shard only; the final flush counts nothing).
    #[inline]
    pub(crate) fn on_clock(&mut self, t: u64, in_occ: &[u64], out_occ: &[u64], popped: bool) {
        if let Some(tel) = self.probe.as_mut() {
            tel.sample_to(t, in_occ, out_occ);
        }
        self.counters.events_popped += u64::from(popped);
    }

    /// A packet entered the slab (see [`TraceRecorder::on_alloc`]).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_alloc(
        &mut self,
        pkt: u32,
        flight_id: u64,
        key: (u64, u64),
        router: u32,
        src: u32,
        dst: u32,
        bytes: u32,
        birth_ps: u64,
    ) {
        if let Some(tr) = self.trace.as_mut() {
            tr.on_alloc(
                pkt, flight_id, key, key.0, router, src, dst, bytes, birth_ps,
            );
        }
    }

    /// The source router routed `pkt` and admitted it to its input.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_inject(
        &mut self,
        pkt: u32,
        t: u64,
        router: u32,
        src: u32,
        dst: u32,
        bytes: u32,
        indirect: bool,
    ) {
        if let Some(tel) = self.probe.as_mut() {
            tel.on_inject(t, router, src, dst, bytes, indirect);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.on_route(pkt, indirect);
        }
    }

    /// `pkt` entered an input FIFO of `router` at route hop `hop`.
    #[inline]
    pub(crate) fn on_arrive(&mut self, pkt: u32, t: u64, router: u32, hop: u8) {
        self.counters.in_q_pushes += 1;
        if let Some(tr) = self.trace.as_mut() {
            tr.on_arrive_router(pkt, t, router, hop);
        }
    }

    /// Input `(in_port, in_vc)`, headed by `pkt`, blocked on a full
    /// output `(out_port, out_vc)`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_blocked(
        &mut self,
        pkt: u32,
        t: u64,
        router: u32,
        in_port: u32,
        in_vc: u8,
        out_port: u32,
        out_vc: u8,
    ) {
        self.counters.blocked_entries += 1;
        if let Some(tel) = self.probe.as_mut() {
            tel.on_blocked(t, in_port, in_vc, out_port, out_vc);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.on_blocked(pkt, t, router, out_port, out_vc);
        }
    }

    /// `pkt` crossed the switch into output `(out_port, out_vc)`.
    #[inline]
    pub(crate) fn on_switch(&mut self, pkt: u32, t: u64, router: u32, out_port: u32, out_vc: u8) {
        self.counters.out_q_pushes += 1;
        if let Some(tr) = self.trace.as_mut() {
            tr.on_switch_alloc(pkt, t, router, out_port, out_vc);
        }
    }

    /// Output `port` started serializing `pkt`.
    #[inline]
    pub(crate) fn on_send(&mut self, pkt: u32, t: u64, port: u32, bytes: u32) {
        if let Some(tel) = self.probe.as_mut() {
            tel.on_send(t, port, bytes);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.on_serialize(pkt, t, port);
        }
    }

    /// `pkt` reached its destination node on `router`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn on_eject(
        &mut self,
        pkt: u32,
        t: u64,
        router: u32,
        node: u32,
        src: u32,
        bytes: u32,
        delay_ps: u64,
    ) {
        if let Some(tel) = self.probe.as_mut() {
            tel.on_eject(t, router, node, src, bytes, delay_ps);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.on_eject(pkt, t, router);
        }
    }

    /// `pkt` was dropped at `router` (see DESIGN.md §10).
    #[inline]
    pub(crate) fn on_drop(&mut self, pkt: u32, t: u64, router: u32) {
        if let Some(tr) = self.trace.as_mut() {
            tr.on_drop(pkt, t, router);
        }
    }

    /// A fault killed one of `router`'s links, flushing `flushed`
    /// queued packets.
    #[inline]
    pub(crate) fn on_link_down(&mut self, t: u64, router: u32, peer: u32, flushed: u32) {
        if let Some(tel) = self.probe.as_mut() {
            tel.on_link_down(t, router, peer, flushed);
        }
    }

    /// `pkt` leaves this shard: hands over its flight record, if sampled.
    #[inline]
    pub(crate) fn migrate_out(&mut self, pkt: u32) -> Option<Flight> {
        self.trace.as_mut().and_then(|tr| tr.extract_flight(pkt))
    }

    /// A packet from another shard took slab slot `pkt`.
    #[inline]
    pub(crate) fn migrate_in(&mut self, pkt: u32, flight: Option<Flight>) {
        if let Some(tr) = self.trace.as_mut() {
            match flight {
                Some((k, f)) => tr.implant_flight(pkt, k, f),
                // Unsampled migrant: still reset the slab slot's
                // mapping so id recycling can't splice timelines.
                None => tr.clear_slot(pkt),
            }
        }
    }

    /// Folds a sibling shard's observers in after a sharded run.
    pub(crate) fn absorb(&mut self, other: Attached) {
        if let (Some(t), Some(o)) = (self.probe.as_mut(), other.probe) {
            t.absorb(o);
        }
        if let (Some(t), Some(o)) = (self.trace.as_mut(), other.trace) {
            t.absorb(o);
        }
        if let (Some(l), Some(o)) = (self.ledger.as_mut(), other.ledger) {
            l.absorb(o);
        }
        let (c, o) = (&mut self.counters, other.counters);
        c.events_popped += o.events_popped;
        c.in_q_pushes += o.in_q_pushes;
        c.out_q_pushes += o.out_q_pushes;
        c.blocked_entries += o.blocked_entries;
    }
}
