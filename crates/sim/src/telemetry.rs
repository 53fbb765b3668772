//! Runtime observability for the simulator.
//!
//! A probe is attached to an [`crate::Engine`] before the run and records,
//! at a fixed sampling interval:
//!
//! - per-link utilization (bytes serialized per output port per window);
//! - per-VC buffer occupancy, input and output side, as a fraction of the
//!   per-VC capacity;
//! - aggregate injection/ejection rates and the indirect-route fraction;
//!
//! plus a bounded ring buffer of recent noteworthy events per router and,
//! when the run wedges, a deadlock forensics report: the cycle of blocked
//! (port, VC) pairs with their occupancies, head-packet routes and missing
//! credits.
//!
//! The probe is **zero-overhead when disabled**: it lives in the engine's
//! one observer slot ([`crate::observer`]), and the event loop pays
//! exactly one branch per event point when the slot is empty. When enabled, all series storage is
//! preallocated at attach time and samples are taken lazily when event
//! time crosses a window boundary — the event heap never carries probe
//! events, so the simulated schedule is identical with and without the
//! probe.

use std::collections::VecDeque;

/// Probe configuration. All knobs have conservative defaults; the
/// defaults sample every microsecond and bound total series memory via
/// [`ProbeConfig::max_samples`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeConfig {
    /// Window length between samples in ns (default 1000 = 1 µs).
    pub sample_interval_ns: u64,
    /// Hard cap on recorded samples; once reached, counters keep
    /// accumulating but no further series rows are stored (default 1024).
    pub max_samples: usize,
    /// Events retained per router in the rolling ring (default 32).
    pub ring_capacity: usize,
    /// Consecutive samples whose ejection rate must agree for the run to
    /// count as converged (default 8).
    pub convergence_window: usize,
    /// Relative spread (max-min over mean) tolerated inside the
    /// convergence window (default 0.05).
    pub convergence_tolerance: f64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            sample_interval_ns: 1_000,
            max_samples: 1024,
            ring_capacity: 32,
            convergence_window: 8,
            convergence_tolerance: 0.05,
        }
    }
}

/// One entry of a router's bounded event ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingEvent {
    /// Simulated time of the event in ps.
    pub t_ps: u64,
    pub kind: RingEventKind,
}

/// The event classes retained in router rings: injections, ejections and
/// transitions into a blocked input (port, VC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingEventKind {
    /// A node attached to this router injected a packet.
    Inject { node: u32, dst: u32, indirect: bool },
    /// A packet was delivered to a node attached to this router.
    Eject { node: u32, src: u32, delay_ps: u64 },
    /// An input (port, VC) became blocked on a full output buffer.
    Blocked {
        in_port: u32,
        in_vc: u8,
        out_port: u32,
        out_vc: u8,
    },
    /// A scheduled fault took this router's link to `peer_router` down;
    /// `dropped` packets were flushed from the dead output's buffers.
    LinkDown { peer_router: u32, dropped: u32 },
}

/// Which side of a switch a blocked buffer sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitSide {
    /// Input FIFO waiting for space in an output buffer.
    Input,
    /// Output buffer waiting for downstream credits.
    Output,
}

/// One (port, VC) buffer participating in a deadlock cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitPoint {
    pub router: u32,
    pub port: u32,
    pub vc: u8,
    pub side: WaitSide,
    /// Bytes currently occupying this buffer.
    pub occupancy_bytes: u64,
    /// Packets queued in this buffer.
    pub queue_len: usize,
    /// Head packet's source and destination nodes.
    pub head_src: u32,
    pub head_dst: u32,
    /// Head packet's position along its route (router-sequence index).
    pub head_hop: u8,
    /// The head packet's full planned router sequence.
    pub head_route: Vec<u32>,
    /// For output-side points: credit bytes short of the head packet's
    /// size. Zero for input-side points.
    pub missing_credits: u64,
}

/// Forensics for a wedged run: the first wait-for cycle found over
/// blocked buffers. Each element waits on the next (wrapping around).
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlockReport {
    /// The cycle of mutually waiting buffers, in wait-for order.
    pub cycle: Vec<WaitPoint>,
    /// Packets stranded in-network at wedge time (created - delivered).
    pub stranded_packets: u64,
    /// Wedge time in ps.
    pub t_ps: u64,
}

impl DeadlockReport {
    /// True when the wedge shows **no** wait-for cycle: packets are
    /// stranded but nothing is circularly blocked. With faults in play
    /// this is the signature of a partition (traffic committed to
    /// destinations that became unreachable), not of a VC credit
    /// deadlock — the two need different fixes, so forensics keeps them
    /// apart. The cycle is empty exactly in this case.
    pub fn is_partition(&self) -> bool {
        self.cycle.is_empty()
    }

    /// Human-readable rendering of the cycle, one line per wait point.
    pub fn render(&self) -> String {
        if self.is_partition() {
            return format!(
                "WEDGED WITHOUT A WAIT-FOR CYCLE at t={} ns: {} packets stranded \
                 but no buffer waits on another — consistent with a network \
                 partition (in-flight traffic toward unreachable destinations), \
                 not a VC credit deadlock\n",
                self.t_ps / 1_000,
                self.stranded_packets,
            );
        }
        let mut s = format!(
            "DEADLOCK at t={} ns: {} packets stranded; wait-for cycle of {} buffers:\n",
            self.t_ps / 1_000,
            self.stranded_packets,
            self.cycle.len()
        );
        for (i, w) in self.cycle.iter().enumerate() {
            let side = match w.side {
                WaitSide::Input => "in ",
                WaitSide::Output => "out",
            };
            s.push_str(&format!(
                "  [{i}] router {:>3} port {:>3} vc {} {side}: occ {:>6} B, {} queued, head {}->{} hop {}/{} route {:?}",
                w.router,
                w.port,
                w.vc,
                w.occupancy_bytes,
                w.queue_len,
                w.head_src,
                w.head_dst,
                w.head_hop,
                w.head_route.len().saturating_sub(1),
                w.head_route,
            ));
            if w.side == WaitSide::Output {
                s.push_str(&format!(", {} B of credit missing", w.missing_credits));
            }
            s.push_str("  -> waits on next\n");
        }
        s
    }
}

/// Compact per-run digest of a telemetry report — cheap to clone and
/// attach to sweep points.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySummary {
    pub num_samples: usize,
    pub sample_interval_ns: u64,
    /// Mean utilization over all router-to-router links and samples.
    pub mean_link_utilization: f64,
    /// Peak single-link single-window utilization.
    pub peak_link_utilization: f64,
    /// Peak per-VC buffer occupancy fraction (input or output side).
    pub peak_occupancy: f64,
    /// Indirect fraction of all injected packets.
    pub mean_indirect_fraction: f64,
    /// First time (ns) the ejection rate stabilized, if it did.
    pub converged_at_ns: Option<u64>,
    /// Length of the deadlock cycle (0 when the run did not wedge).
    pub deadlock_cycle_len: usize,
    /// Packets dropped over the whole run (in-flight + injection-side),
    /// mirroring the engine's fault counters.
    pub dropped_packets: u64,
    /// Injection retries the run performed after transient faults.
    pub retried_packets: u64,
    /// Scheduled link-failure events the run observed.
    pub link_down_events: u64,
    /// Packets flushed from dead output buffers across all link failures.
    pub link_down_flushed: u64,
}

/// Full probe output of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    pub config: ProbeConfig,
    /// Samples actually recorded (≤ `config.max_samples`).
    pub num_samples: usize,
    pub num_routers: u32,
    pub num_nodes: u32,
    /// Total ports (network + node) across all routers.
    pub num_ports: u32,
    pub num_vcs: u32,
    /// Router owning each port.
    pub port_owner: Vec<u32>,
    /// True for node (injection/ejection) ports.
    pub port_is_node: Vec<bool>,

    /// Flattened `[sample * num_ports + port]` link utilization per
    /// window, as a fraction of link bandwidth.
    pub link_util: Vec<f32>,
    /// Flattened `[sample * num_ports * num_vcs + pv]` input-buffer
    /// occupancy fraction at each window boundary.
    pub in_occupancy: Vec<f32>,
    /// Same layout, output-buffer side.
    pub out_occupancy: Vec<f32>,
    /// Per-sample aggregate injection rate (fraction of total injection
    /// bandwidth).
    pub injection_rate: Vec<f32>,
    /// Per-sample aggregate ejection rate (same normalization).
    pub ejection_rate: Vec<f32>,
    /// Per-sample fraction of injected packets routed indirectly.
    pub indirect_fraction: Vec<f32>,

    /// Bounded recent-event ring per router, oldest first.
    pub rings: Vec<Vec<RingEvent>>,
    /// Packets injected over the whole run (warm-up included).
    pub total_injected_packets: u64,
    /// Packets delivered over the whole run (warm-up included).
    pub total_ejected_packets: u64,
    /// Deliveries broken down by destination router.
    pub ejected_per_router: Vec<u64>,
    /// Indirect injections over the whole run.
    pub total_indirect: u64,
    /// Packets dropped over the whole run (in-flight + injection-side).
    /// Filled in by the engine when the probe detaches; the probe itself
    /// only observes deliveries and link failures.
    pub total_dropped_packets: u64,
    /// Injection retries performed after transient faults (engine-filled).
    pub total_retried_packets: u64,
    /// Scheduled link-failure events observed via `on_link_down`.
    pub total_link_down_events: u64,
    /// Packets flushed from dead output buffers, summed over failures.
    pub total_link_down_flushed: u64,

    /// First time (ns) the ejection rate stayed inside the convergence
    /// band for a full window, if ever.
    pub converged_at_ns: Option<u64>,
    /// Present iff the run wedged.
    pub deadlock: Option<DeadlockReport>,
}

impl TelemetryReport {
    /// Utilization of `port` during sample window `sample`.
    pub fn link_utilization(&self, sample: usize, port: u32) -> f32 {
        self.link_util[sample * self.num_ports as usize + port as usize]
    }

    /// Input-buffer occupancy fraction of (`port`, `vc`) at the end of
    /// window `sample`.
    pub fn input_occupancy(&self, sample: usize, port: u32, vc: u8) -> f32 {
        let pvs = (self.num_ports * self.num_vcs) as usize;
        self.in_occupancy[sample * pvs + (port * self.num_vcs + vc as u32) as usize]
    }

    /// Output-buffer occupancy fraction of (`port`, `vc`) at the end of
    /// window `sample`.
    pub fn output_occupancy(&self, sample: usize, port: u32, vc: u8) -> f32 {
        let pvs = (self.num_ports * self.num_vcs) as usize;
        self.out_occupancy[sample * pvs + (port * self.num_vcs + vc as u32) as usize]
    }

    /// Condenses the report into a [`TelemetrySummary`].
    pub fn summary(&self) -> TelemetrySummary {
        let mut sum = 0.0f64;
        let mut n = 0u64;
        let mut peak = 0.0f64;
        for s in 0..self.num_samples {
            for port in 0..self.num_ports {
                if self.port_is_node[port as usize] {
                    continue;
                }
                let u = self.link_utilization(s, port) as f64;
                sum += u;
                n += 1;
                peak = peak.max(u);
            }
        }
        let peak_occupancy = self
            .in_occupancy
            .iter()
            .chain(self.out_occupancy.iter())
            .fold(0.0f32, |a, &b| a.max(b)) as f64;
        TelemetrySummary {
            num_samples: self.num_samples,
            sample_interval_ns: self.config.sample_interval_ns,
            mean_link_utilization: if n > 0 { sum / n as f64 } else { 0.0 },
            peak_link_utilization: peak,
            peak_occupancy,
            mean_indirect_fraction: if self.total_injected_packets > 0 {
                self.total_indirect as f64 / self.total_injected_packets as f64
            } else {
                0.0
            },
            converged_at_ns: self.converged_at_ns,
            deadlock_cycle_len: self.deadlock.as_ref().map_or(0, |d| d.cycle.len()),
            dropped_packets: self.total_dropped_packets,
            retried_packets: self.total_retried_packets,
            link_down_events: self.total_link_down_events,
            link_down_flushed: self.total_link_down_flushed,
        }
    }
}

/// Live probe state owned by the engine during a run. Constructed via
/// [`Telemetry::new`] with the engine's port geometry; all series storage
/// is preallocated here, so the event loop never allocates on the probe's
/// behalf.
#[derive(Debug)]
pub struct Telemetry {
    cfg: ProbeConfig,
    num_routers: u32,
    num_nodes: u32,
    num_ports: u32,
    num_vcs: u32,
    port_owner: Vec<u32>,
    port_is_node: Vec<bool>,
    vc_cap: u64,
    /// Link capacity of one sample window in bytes.
    window_bytes: u64,
    sample_interval_ps: u64,

    // Window accumulators, reset at every sample boundary.
    win_sent: Vec<u64>,
    win_injected_pkts: u64,
    win_injected_bytes: u64,
    win_ejected_bytes: u64,
    win_indirect_pkts: u64,

    // Whole-run totals.
    total_injected: u64,
    total_ejected: u64,
    total_indirect: u64,
    ejected_per_router: Vec<u64>,
    total_link_down: u64,
    total_flushed: u64,

    next_sample_ps: u64,
    samples_taken: usize,
    /// Window contributions recorded at `t >= next_sample_ps` before the
    /// enclosing window was flushed. Windows are half-open `[start, end)`:
    /// an event at exactly the boundary belongs to the *later* window, so
    /// it must not be absorbed into the accumulators until the earlier
    /// window has been sampled. The engine flushes before it handles each
    /// event, so this stays empty on the hot path; it only fills when a
    /// caller records ahead of `sample_to` (API use, run-end paths).
    pending: Vec<(u64, PendingSample)>,

    link_util: Vec<f32>,
    in_occupancy: Vec<f32>,
    out_occupancy: Vec<f32>,
    // Per-sample aggregate window counters, kept as raw integers: the
    // f32 rate series are derived in `into_report`. Raw storage makes
    // the sharded merge exact — summing integer window counters and
    // dividing once is the same arithmetic the serial probe performs,
    // whereas summing per-shard f32 quotients would not be.
    raw_inj_pkts: Vec<u64>,
    raw_inj_bytes: Vec<u64>,
    raw_ej_bytes: Vec<u64>,
    raw_indirect_pkts: Vec<u64>,

    rings: Vec<VecDeque<RingEvent>>,
}

/// A deferred window contribution (see [`Telemetry::pending`]-field docs).
#[derive(Debug, Clone, Copy)]
enum PendingSample {
    Inject { bytes: u32, indirect: bool },
    Eject { bytes: u32 },
    Send { port: u32, bytes: u32 },
}

impl Telemetry {
    /// Builds a probe for an engine with the given geometry.
    /// `ps_per_byte` converts window byte counts into utilizations.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: ProbeConfig,
        num_routers: u32,
        num_nodes: u32,
        num_vcs: u32,
        port_owner: Vec<u32>,
        port_is_node: Vec<bool>,
        vc_cap: u64,
        ps_per_byte: u64,
    ) -> Self {
        assert!(cfg.sample_interval_ns > 0, "sample interval must be positive");
        assert!(cfg.convergence_window >= 2, "convergence window must be >= 2");
        let num_ports = port_owner.len() as u32;
        let interval_ps = cfg.sample_interval_ns * 1_000;
        let window_bytes = (interval_ps / ps_per_byte).max(1);
        let pv_total = (num_ports * num_vcs) as usize;
        Telemetry {
            num_routers,
            num_nodes,
            num_ports,
            num_vcs,
            port_owner,
            port_is_node,
            vc_cap,
            window_bytes,
            sample_interval_ps: interval_ps,
            win_sent: vec![0; num_ports as usize],
            win_injected_pkts: 0,
            win_injected_bytes: 0,
            win_ejected_bytes: 0,
            win_indirect_pkts: 0,
            total_injected: 0,
            total_ejected: 0,
            total_indirect: 0,
            ejected_per_router: vec![0; num_routers as usize],
            total_link_down: 0,
            total_flushed: 0,
            next_sample_ps: interval_ps,
            samples_taken: 0,
            pending: Vec::new(),
            link_util: Vec::with_capacity(cfg.max_samples * num_ports as usize),
            in_occupancy: Vec::with_capacity(cfg.max_samples * pv_total),
            out_occupancy: Vec::with_capacity(cfg.max_samples * pv_total),
            raw_inj_pkts: Vec::with_capacity(cfg.max_samples),
            raw_inj_bytes: Vec::with_capacity(cfg.max_samples),
            raw_ej_bytes: Vec::with_capacity(cfg.max_samples),
            raw_indirect_pkts: Vec::with_capacity(cfg.max_samples),
            rings: vec![VecDeque::with_capacity(cfg.ring_capacity); num_routers as usize],
            cfg,
        }
    }

    #[inline]
    fn ring_push(&mut self, router: u32, ev: RingEvent) {
        let ring = &mut self.rings[router as usize];
        if ring.len() == self.cfg.ring_capacity {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    /// True when a contribution at `t_ps` falls past the next window
    /// boundary and must wait for that window to be flushed first
    /// (half-open windows: a boundary event belongs to the later one).
    /// Once the sample cap is hit no further rows are stored, so late
    /// contributions can be absorbed directly instead of queueing.
    #[inline]
    fn defer(&self, t_ps: u64) -> bool {
        t_ps >= self.next_sample_ps && self.samples_taken < self.cfg.max_samples
    }

    /// A node attached to `router` injected a packet.
    #[inline]
    pub fn on_inject(&mut self, t_ps: u64, router: u32, node: u32, dst: u32, bytes: u32, indirect: bool) {
        if self.defer(t_ps) {
            self.pending
                .push((t_ps, PendingSample::Inject { bytes, indirect }));
        } else {
            self.win_injected_pkts += 1;
            self.win_injected_bytes += bytes as u64;
            if indirect {
                self.win_indirect_pkts += 1;
            }
        }
        self.total_injected += 1;
        if indirect {
            self.total_indirect += 1;
        }
        self.ring_push(
            router,
            RingEvent {
                t_ps,
                kind: RingEventKind::Inject { node, dst, indirect },
            },
        );
    }

    /// A packet was delivered to `node` on `router`.
    #[inline]
    pub fn on_eject(&mut self, t_ps: u64, router: u32, node: u32, src: u32, bytes: u32, delay_ps: u64) {
        if self.defer(t_ps) {
            self.pending.push((t_ps, PendingSample::Eject { bytes }));
        } else {
            self.win_ejected_bytes += bytes as u64;
        }
        self.total_ejected += 1;
        self.ejected_per_router[router as usize] += 1;
        self.ring_push(
            router,
            RingEvent {
                t_ps,
                kind: RingEventKind::Eject { node, src, delay_ps },
            },
        );
    }

    /// An output port started serializing `bytes` at `t_ps`.
    #[inline]
    pub fn on_send(&mut self, t_ps: u64, port: u32, bytes: u32) {
        if self.defer(t_ps) {
            self.pending.push((t_ps, PendingSample::Send { port, bytes }));
        } else {
            self.win_sent[port as usize] += bytes as u64;
        }
    }

    /// A scheduled fault killed one of `router`'s links; `dropped`
    /// queued packets were flushed from the dead output buffers.
    #[inline]
    pub fn on_link_down(&mut self, t_ps: u64, router: u32, peer_router: u32, dropped: u32) {
        self.total_link_down += 1;
        self.total_flushed += dropped as u64;
        self.ring_push(
            router,
            RingEvent {
                t_ps,
                kind: RingEventKind::LinkDown {
                    peer_router,
                    dropped,
                },
            },
        );
    }

    /// An input (port, VC) transitioned into the blocked state.
    #[inline]
    pub fn on_blocked(&mut self, t_ps: u64, in_port: u32, in_vc: u8, out_port: u32, out_vc: u8) {
        let router = self.port_owner[in_port as usize];
        self.ring_push(
            router,
            RingEvent {
                t_ps,
                kind: RingEventKind::Blocked {
                    in_port,
                    in_vc,
                    out_port,
                    out_vc,
                },
            },
        );
    }

    /// Flushes every sample window whose half-open span `[start, end)`
    /// ends at or before simulated time `t`. Buffer state is
    /// piecewise-constant between events, so reading the occupancies once
    /// per crossed boundary is exact. An event recorded at exactly a
    /// window boundary counts toward the *later* window.
    pub fn sample_to(&mut self, t: u64, in_occ: &[u64], out_occ: &[u64]) {
        while self.next_sample_ps <= t && self.samples_taken < self.cfg.max_samples {
            self.absorb_pending();
            self.take_sample(in_occ, out_occ);
        }
        self.absorb_pending();
    }

    /// Merges deferred contributions that now fall strictly inside the
    /// open window (`t < next_sample_ps`) into the accumulators. Window
    /// counters are commutative, so removal order doesn't matter.
    fn absorb_pending(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            let (t, p) = self.pending[i];
            if t < self.next_sample_ps {
                match p {
                    PendingSample::Inject { bytes, indirect } => {
                        self.win_injected_pkts += 1;
                        self.win_injected_bytes += bytes as u64;
                        if indirect {
                            self.win_indirect_pkts += 1;
                        }
                    }
                    PendingSample::Eject { bytes } => self.win_ejected_bytes += bytes as u64,
                    PendingSample::Send { port, bytes } => {
                        self.win_sent[port as usize] += bytes as u64
                    }
                }
                self.pending.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn take_sample(&mut self, in_occ: &[u64], out_occ: &[u64]) {
        let wb = self.window_bytes as f32;
        for port in 0..self.num_ports as usize {
            // A send is attributed to its start window, so a window can
            // nominally exceed capacity by one packet; clamp for reporting.
            let u = (self.win_sent[port] as f32 / wb).min(1.0);
            self.link_util.push(u);
            self.win_sent[port] = 0;
        }
        let cap = self.vc_cap as f32;
        for &occ in in_occ {
            self.in_occupancy.push(occ as f32 / cap);
        }
        for &occ in out_occ {
            self.out_occupancy.push(occ as f32 / cap);
        }
        self.raw_inj_pkts.push(self.win_injected_pkts);
        self.raw_inj_bytes.push(self.win_injected_bytes);
        self.raw_ej_bytes.push(self.win_ejected_bytes);
        self.raw_indirect_pkts.push(self.win_indirect_pkts);
        self.win_injected_pkts = 0;
        self.win_injected_bytes = 0;
        self.win_ejected_bytes = 0;
        self.win_indirect_pkts = 0;
        self.samples_taken += 1;
        self.next_sample_ps += self.sample_interval_ps;
    }

    /// Folds the probe of a sibling shard into this one. Exactness
    /// argument: every per-port/per-VC sample value is non-zero on at
    /// most one shard (only a router's owner touches its state), so the
    /// f32 element-wise sums are `x + 0.0`; the aggregate window
    /// counters are raw integers here and become rates only after the
    /// merge; and the per-router rings are disjoint, so concatenation
    /// reproduces each router's serial ring. Both probes must have
    /// flushed to the same horizon first (equal sample counts).
    pub(crate) fn absorb(&mut self, other: Telemetry) {
        assert_eq!(
            self.samples_taken, other.samples_taken,
            "shard probes must be flushed to the same horizon before merging"
        );
        for (a, b) in self.link_util.iter_mut().zip(&other.link_util) {
            *a += *b;
        }
        for (a, b) in self.in_occupancy.iter_mut().zip(&other.in_occupancy) {
            *a += *b;
        }
        for (a, b) in self.out_occupancy.iter_mut().zip(&other.out_occupancy) {
            *a += *b;
        }
        for (a, b) in self.raw_inj_pkts.iter_mut().zip(&other.raw_inj_pkts) {
            *a += *b;
        }
        for (a, b) in self.raw_inj_bytes.iter_mut().zip(&other.raw_inj_bytes) {
            *a += *b;
        }
        for (a, b) in self.raw_ej_bytes.iter_mut().zip(&other.raw_ej_bytes) {
            *a += *b;
        }
        for (a, b) in self.raw_indirect_pkts.iter_mut().zip(&other.raw_indirect_pkts) {
            *a += *b;
        }
        for (a, b) in self.ejected_per_router.iter_mut().zip(&other.ejected_per_router) {
            *a += *b;
        }
        self.total_injected += other.total_injected;
        self.total_ejected += other.total_ejected;
        self.total_indirect += other.total_indirect;
        self.total_link_down += other.total_link_down;
        self.total_flushed += other.total_flushed;
        for (ring, other_ring) in self.rings.iter_mut().zip(other.rings) {
            debug_assert!(
                ring.is_empty() || other_ring.is_empty(),
                "router ring populated on two shards"
            );
            ring.extend(other_ring);
        }
    }

    /// Consumes the probe into its report, attaching forensics when the
    /// run wedged. The f32 rate series and the convergence scan are
    /// computed here from the raw window counters — after any shard
    /// merge, with exactly the arithmetic the serial probe used to
    /// perform sample-by-sample.
    pub fn into_report(self, deadlock: Option<DeadlockReport>) -> TelemetryReport {
        let node_window = self.window_bytes as f32 * self.num_nodes as f32;
        let injection_rate: Vec<f32> = self
            .raw_inj_bytes
            .iter()
            .map(|&b| b as f32 / node_window)
            .collect();
        let ejection_rate: Vec<f32> = self
            .raw_ej_bytes
            .iter()
            .map(|&b| b as f32 / node_window)
            .collect();
        let indirect_fraction: Vec<f32> = self
            .raw_inj_pkts
            .iter()
            .zip(&self.raw_indirect_pkts)
            .map(|(&pkts, &ind)| {
                if pkts > 0 {
                    ind as f32 / pkts as f32
                } else {
                    0.0
                }
            })
            .collect();
        // Convergence scan: first sample whose trailing window of
        // ejection rates agrees within tolerance.
        let w = self.cfg.convergence_window;
        let mut converged_at_ps = None;
        for s in w..=self.samples_taken {
            let tail = &ejection_rate[s - w..s];
            let (mut lo, mut hi, mut sum) = (f32::MAX, f32::MIN, 0.0f64);
            for &r in tail {
                lo = lo.min(r);
                hi = hi.max(r);
                sum += r as f64;
            }
            let mean = sum / w as f64;
            if mean > 0.0 && ((hi - lo) as f64) <= self.cfg.convergence_tolerance * mean {
                converged_at_ps = Some(s as u64 * self.sample_interval_ps);
                break;
            }
        }
        TelemetryReport {
            num_samples: self.samples_taken,
            num_routers: self.num_routers,
            num_nodes: self.num_nodes,
            num_ports: self.num_ports,
            num_vcs: self.num_vcs,
            port_owner: self.port_owner,
            port_is_node: self.port_is_node,
            link_util: self.link_util,
            in_occupancy: self.in_occupancy,
            out_occupancy: self.out_occupancy,
            injection_rate,
            ejection_rate,
            indirect_fraction,
            rings: self.rings.into_iter().map(Vec::from).collect(),
            total_injected_packets: self.total_injected,
            total_ejected_packets: self.total_ejected,
            total_indirect: self.total_indirect,
            total_dropped_packets: 0,
            total_retried_packets: 0,
            total_link_down_events: self.total_link_down,
            total_link_down_flushed: self.total_flushed,
            ejected_per_router: self.ejected_per_router,
            converged_at_ns: converged_at_ps.map(|t| t / 1_000),
            deadlock,
            config: self.cfg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_2ports() -> Telemetry {
        Telemetry::new(
            ProbeConfig {
                sample_interval_ns: 100, // window = 1250 bytes at 80 ps/B
                max_samples: 4,
                ring_capacity: 2,
                convergence_window: 2,
                convergence_tolerance: 0.5,
            },
            1,
            1,
            1,
            vec![0, 0],
            vec![false, true],
            1000,
            80,
        )
    }

    #[test]
    fn sampling_is_lazy_and_bounded() {
        let mut t = probe_2ports();
        t.on_send(0, 0, 625);
        // Jumping far ahead flushes the first window then (max_samples-1)
        // empty ones, and no more.
        t.sample_to(10_000_000, &[0, 0], &[500, 0]);
        assert_eq!(t.samples_taken, 4);
        let r = t.into_report(None);
        assert_eq!(r.num_samples, 4);
        assert!((r.link_utilization(0, 0) - 0.5).abs() < 1e-6);
        assert_eq!(r.link_utilization(1, 0), 0.0);
        assert!((r.output_occupancy(0, 0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn utilization_clamps_at_unity() {
        let mut t = probe_2ports();
        t.on_send(0, 0, 99_999);
        t.sample_to(100_000, &[0, 0], &[0, 0]);
        let r = t.into_report(None);
        assert_eq!(r.link_utilization(0, 0), 1.0);
    }

    #[test]
    fn ring_is_bounded_and_fifo() {
        let mut t = probe_2ports();
        for i in 0..5u32 {
            t.on_inject(i as u64, 0, 0, i, 256, false);
        }
        let r = t.into_report(None);
        assert_eq!(r.rings[0].len(), 2);
        assert_eq!(r.rings[0][0].t_ps, 3);
        assert_eq!(r.rings[0][1].t_ps, 4);
    }

    #[test]
    fn convergence_detects_stable_ejection() {
        let mut t = probe_2ports();
        // Two equal-rate windows inside a window-2 band.
        t.on_eject(0, 0, 0, 0, 625, 0);
        t.sample_to(100_000, &[0, 0], &[0, 0]);
        t.on_eject(0, 0, 0, 0, 625, 0);
        t.sample_to(200_000, &[0, 0], &[0, 0]);
        let r = t.into_report(None);
        assert_eq!(r.converged_at_ns, Some(200));
    }

    #[test]
    fn idle_run_never_converges() {
        let mut t = probe_2ports();
        t.sample_to(400_000, &[0, 0], &[0, 0]);
        let r = t.into_report(None);
        assert_eq!(r.converged_at_ns, None);
    }

    #[test]
    fn summary_aggregates_network_ports_only() {
        let mut t = probe_2ports();
        t.on_send(0, 0, 625); // network port
        t.on_send(0, 1, 1250); // node port: excluded from link stats
        t.on_inject(0, 0, 0, 0, 256, true);
        t.sample_to(100_000, &[0, 0], &[0, 0]);
        let r = t.into_report(None);
        let s = r.summary();
        assert!((s.mean_link_utilization - 0.5).abs() < 1e-6);
        assert!((s.peak_link_utilization - 0.5).abs() < 1e-6);
        assert_eq!(s.mean_indirect_fraction, 1.0);
        assert_eq!(s.deadlock_cycle_len, 0);
    }

    #[test]
    fn deadlock_report_renders_cycle() {
        let rep = DeadlockReport {
            cycle: vec![
                WaitPoint {
                    router: 0,
                    port: 1,
                    vc: 0,
                    side: WaitSide::Input,
                    occupancy_bytes: 256,
                    queue_len: 1,
                    head_src: 0,
                    head_dst: 2,
                    head_hop: 1,
                    head_route: vec![0, 1, 2],
                    missing_credits: 0,
                },
                WaitPoint {
                    router: 1,
                    port: 4,
                    vc: 0,
                    side: WaitSide::Output,
                    occupancy_bytes: 256,
                    queue_len: 1,
                    head_src: 1,
                    head_dst: 3,
                    head_hop: 1,
                    head_route: vec![1, 2, 3],
                    missing_credits: 256,
                },
            ],
            stranded_packets: 7,
            t_ps: 5_000_000,
        };
        let s = rep.render();
        assert!(s.contains("DEADLOCK at t=5000 ns"));
        assert!(s.contains("7 packets stranded"));
        assert!(s.contains("cycle of 2 buffers"));
        assert!(s.contains("credit missing"));
        assert!(!rep.is_partition());
    }

    #[test]
    fn partition_report_renders_distinctly_from_deadlock() {
        let rep = DeadlockReport {
            cycle: Vec::new(),
            stranded_packets: 3,
            t_ps: 2_000_000,
        };
        assert!(rep.is_partition());
        let s = rep.render();
        assert!(s.contains("WEDGED WITHOUT A WAIT-FOR CYCLE at t=2000 ns"));
        assert!(s.contains("3 packets stranded"));
        assert!(s.contains("partition"));
        assert!(!s.contains("DEADLOCK at"));
    }

    #[test]
    fn link_down_events_land_in_the_ring() {
        let mut t = probe_2ports();
        t.on_link_down(5, 0, 7, 2);
        let r = t.into_report(None);
        assert_eq!(r.rings[0].len(), 1);
        assert!(matches!(
            r.rings[0][0].kind,
            RingEventKind::LinkDown {
                peer_router: 7,
                dropped: 2
            }
        ));
    }

    #[test]
    fn link_down_totals_reach_the_summary() {
        let mut t = probe_2ports();
        t.on_link_down(5, 0, 7, 2);
        t.on_link_down(9, 0, 3, 4);
        let mut r = t.into_report(None);
        assert_eq!(r.total_link_down_events, 2);
        assert_eq!(r.total_link_down_flushed, 6);
        // The engine folds its drop/retry counters in when detaching.
        r.total_dropped_packets = 11;
        r.total_retried_packets = 5;
        let s = r.summary();
        assert_eq!(s.link_down_events, 2);
        assert_eq!(s.link_down_flushed, 6);
        assert_eq!(s.dropped_packets, 11);
        assert_eq!(s.retried_packets, 5);
    }

    #[test]
    fn boundary_event_belongs_to_the_later_window() {
        // An ejection at exactly the first window's end (t == 100 µs·ps
        // boundary) must land in window [100k, 200k), not [0, 100k) —
        // windows are half-open. Recording before flushing is the order
        // that used to double-count into the earlier window.
        let mut t = probe_2ports();
        t.on_eject(100_000, 0, 0, 0, 625, 0);
        t.sample_to(100_000, &[0, 0], &[0, 0]);
        t.sample_to(200_000, &[0, 0], &[0, 0]);
        let r = t.into_report(None);
        assert_eq!(r.ejection_rate[0], 0.0, "boundary event leaked into the earlier window");
        assert!((r.ejection_rate[1] - 0.5).abs() < 1e-6);
        // Totals are unaffected by the deferral.
        assert_eq!(r.total_ejected_packets, 1);
    }

    #[test]
    fn strictly_interior_events_stay_in_their_window() {
        let mut t = probe_2ports();
        t.on_eject(99_999, 0, 0, 0, 625, 0);
        t.sample_to(100_000, &[0, 0], &[0, 0]);
        t.sample_to(200_000, &[0, 0], &[0, 0]);
        let r = t.into_report(None);
        assert!((r.ejection_rate[0] - 0.5).abs() < 1e-6);
        assert_eq!(r.ejection_rate[1], 0.0);
    }

    #[test]
    fn boundary_send_defers_like_ejections() {
        let mut t = probe_2ports();
        t.on_send(100_000, 0, 625);
        t.sample_to(100_000, &[0, 0], &[0, 0]);
        t.sample_to(200_000, &[0, 0], &[0, 0]);
        let r = t.into_report(None);
        assert_eq!(r.link_utilization(0, 0), 0.0);
        assert!((r.link_utilization(1, 0) - 0.5).abs() < 1e-6);
    }
}
