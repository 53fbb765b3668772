//! The discrete-event network simulator.
//!
//! Model (paper §4.1): input-output-buffered virtual-channel switches,
//! credit-based flow control on every channel, store-and-forward packet
//! transfer with pipelined link serialization:
//!
//! - a packet arriving at a router occupies its input buffer (per
//!   input-port, per-VC FIFO) and becomes eligible to cross the switch
//!   after the 100 ns traversal latency;
//! - crossing requires free space in the target output buffer; full
//!   output buffers backpressure the input FIFO (and, transitively, the
//!   upstream credit loop), so routing deadlock is physically expressible;
//! - output ports arbitrate VCs round-robin and serialize one packet at a
//!   time onto the link; a packet may only start when the downstream
//!   input VC has credit for its full size;
//! - credits return to the upstream router one link latency after a
//!   packet vacates the input buffer.
//!
//! All state lives in flat arrays indexed by dense port ids; the event
//! queue dequeues in `(time_ps, seq, event)` order — a calendar/bucket
//! queue by default, a binary heap as the cross-check reference (see
//! [`crate::equeue`]). Per-queue state (input/output FIFOs, blocked
//! lists) is held in intrusive linked lists over flat arrays so an
//! [`Engine::reset`] between sweep points reuses every allocation.

use crate::config::{ChaosKind, EngineChaos, EventQueueKind, Preflight, SimConfig};
use crate::equeue::{CalendarQueue, CalendarStats, EventQ};
use crate::fault::FaultSchedule;
use crate::injector::{NextPacket, NodeSource, PacketSpec};
use crate::ledger::{DecisionLedger, EngineLedger, LedgerConfig};
use crate::stats::{Accumulator, ExchangeStats, SyntheticStats};
use crate::telemetry::{
    DeadlockReport, ProbeConfig, Telemetry, TelemetryReport, WaitPoint, WaitSide,
};
use crate::trace::{EngineTrace, PacketFlight, TraceConfig, TraceRecorder};
use d2net_routing::{vc_for_hop, OccupancyView, RouteChoice, RoutePath, RoutePolicy, VcScheme};
use d2net_topo::{FaultSet, Network, NodeId, RouterId};
use d2net_verify::{debug_invariant, invariant, Verdict};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BinaryHeap;

/// Sentinel for "no element" in the intrusive lists below.
const NIL: u32 = u32::MAX;

/// First retry delay for a packet whose destination is unroutable at
/// injection time (typically: just orphaned by a mid-run failure, with
/// the repaired policy not able to reach it). Doubles per attempt.
const RETRY_BASE_PS: u64 = 2_000_000;

/// Retry attempts before an unroutable packet is dropped at the source.
const MAX_INJECT_RETRIES: u32 = 4;

/// A family of FIFO queues threaded through a shared `next` array (one
/// slot per potential member, each member in at most one queue of the
/// family at a time). Compared with `Vec<VecDeque<_>>` this is a single
/// flat allocation that survives [`Engine::reset`], and push/pop are
/// two or three stores with no capacity checks.
#[derive(Debug)]
struct FifoSet {
    head: Vec<u32>,
    tail: Vec<u32>,
    len: Vec<u32>,
}

impl FifoSet {
    fn new(queues: usize) -> Self {
        FifoSet {
            head: vec![NIL; queues],
            tail: vec![NIL; queues],
            len: vec![0; queues],
        }
    }

    fn clear(&mut self) {
        self.head.fill(NIL);
        self.tail.fill(NIL);
        self.len.fill(0);
    }

    #[inline]
    fn push_back(&mut self, q: usize, id: u32, next: &mut [u32]) {
        next[id as usize] = NIL;
        if self.tail[q] == NIL {
            self.head[q] = id;
        } else {
            next[self.tail[q] as usize] = id;
        }
        self.tail[q] = id;
        self.len[q] += 1;
    }

    #[inline]
    fn front(&self, q: usize) -> Option<u32> {
        let h = self.head[q];
        (h != NIL).then_some(h)
    }

    #[inline]
    fn pop_front(&mut self, q: usize, next: &[u32]) -> Option<u32> {
        let h = self.head[q];
        if h == NIL {
            return None;
        }
        self.head[q] = next[h as usize];
        if self.head[q] == NIL {
            self.tail[q] = NIL;
        }
        self.len[q] -= 1;
        Some(h)
    }

    #[inline]
    fn len(&self, q: usize) -> usize {
        self.len[q] as usize
    }
}

/// A packet in flight. `hop` is the index (within the route's router
/// sequence) of the router the packet currently occupies or is arriving
/// at; `link_vc` is the VC of the last link traversed (= the input VC).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packet {
    src: NodeId,
    dst: NodeId,
    bytes: u32,
    birth_ps: u64,
    ready_ps: u64,
    choice: RouteChoice,
    hop: u8,
    link_vc: u8,
    /// `(src_node << 32) | per-node injection ordinal` (slab ids recycle;
    /// this never does). Composite so every shard of a sharded run can
    /// assign it locally, identical to serial. Links the flight
    /// recorder's and the decision ledger's samples.
    flight_id: u64,
    /// VC scheme of the policy that routed this packet: after a mid-run
    /// repair switches the injection policy, packets routed before and
    /// after coexist and each must keep its own VC ladder.
    scheme: VcScheme,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Re-examine a node source (generation instant reached).
    NodeWake(u32),
    /// Node finished serializing a packet onto its injection link.
    NodeSendDone(u32),
    /// Packet fully received at a router input buffer.
    ArriveRouter(u32),
    /// Attempt the input→output transfer at an input (port, VC).
    TrySwitch(u32),
    /// Output port finished serializing: buffer space frees, link idles.
    SendDone(u32),
    /// Packet fully received by the destination node.
    ArriveNode(u32),
    /// Credit arrives back at an upstream output (port, VC).
    Credit { pv: u32, bytes: u32 },
    /// Credit arrives back at an injecting node.
    NodeCredit { node: u32, bytes: u32 },
    /// Fault event (index into `Engine::fault_events`) fires: links go
    /// dead, queued packets on them drop, injection policy switches.
    LinkFail(u32),
}

/// A cross-shard event staged into a shard's `outbox` during a
/// conservative window and delivered into the owning shard's queue at
/// the window barrier (see [`crate::shard`]). The sender assigns the
/// `(time, key)` the event would have carried in a serial run, so the
/// merged global schedule is byte-identical to serial.
#[derive(Debug, Clone)]
pub(crate) enum OutEv {
    /// A packet finishing its link traversal into a router owned by
    /// another shard, together with its in-progress flight record when
    /// the sending shard's trace recorder was tracking it.
    Arrive(Packet, Option<((u64, u64), PacketFlight)>),
    /// A credit returning to an output `(port, VC)` owned by another
    /// shard.
    Credit { pv: u32, bytes: u32 },
}

/// Dense port numbering: router `r` owns ports `base[r] .. base[r+1]`;
/// the first `deg(r)` are network ports (in adjacency order), the rest
/// are node ports (ejection on the output side, injection on the input
/// side), one per attached end-node.
struct Ports {
    base: Vec<u32>,
    /// Router owning each port.
    owner: Vec<RouterId>,
    /// For network ports: the mirror port on the peer router
    /// (downstream input for sends, upstream output for credits);
    /// `u32::MAX` for node ports.
    peer: Vec<u32>,
}

impl Ports {
    fn build(net: &Network) -> Self {
        let r = net.num_routers() as usize;
        let mut base = Vec::with_capacity(r + 1);
        let mut owner = Vec::new();
        let mut total = 0u32;
        for i in 0..r as u32 {
            base.push(total);
            let radix = net.radix(i);
            owner.extend(std::iter::repeat_n(i, radix as usize));
            total += radix;
        }
        base.push(total);
        let mut peer = vec![u32::MAX; total as usize];
        for i in 0..r as u32 {
            for (j, &v) in net.neighbors(i).iter().enumerate() {
                let back = net
                    .neighbors(v)
                    .binary_search(&i)
                    .expect("adjacency is symmetric");
                peer[(base[i as usize] + j as u32) as usize] = base[v as usize] + back as u32;
            }
        }
        Ports { base, owner, peer }
    }

    #[inline]
    fn network_port(&self, net: &Network, r: RouterId, next: RouterId) -> u32 {
        let j = net
            .neighbors(r)
            .binary_search(&next)
            .expect("next hop must be adjacent");
        self.base[r as usize] + j as u32
    }

    #[inline]
    fn node_port(&self, net: &Network, r: RouterId, node: NodeId) -> u32 {
        let local = node - net.router_nodes(r).start;
        self.base[r as usize] + net.degree(r) + local
    }

    #[inline]
    fn is_node_port(&self, net: &Network, port: u32) -> bool {
        let r = self.owner[port as usize];
        port - self.base[r as usize] >= net.degree(r)
    }
}

/// Occupancy view handed to the routing policy: the injection router's
/// output-buffer fill levels (local UGAL's only input).
struct OccView<'a> {
    net: &'a Network,
    ports: &'a Ports,
    /// Per-(port, VC) output occupancies.
    out_occ: &'a [u64],
    num_vcs: u32,
    cap: u64,
}

impl OccupancyView for OccView<'_> {
    #[inline]
    fn occupancy_bytes(&self, router: RouterId, next: RouterId) -> u64 {
        // UGAL observes the physical port's total buffer fill.
        let port = self.ports.network_port(self.net, router, next);
        let base = (port * self.num_vcs) as usize;
        self.out_occ[base..base + self.num_vcs as usize].iter().sum()
    }
    fn capacity_bytes(&self) -> u64 {
        self.cap
    }
}

/// One pre-resolved entry of a mid-run fault schedule, as the engine
/// consumes it: the caller ([`crate::run`]) has already
/// built the cumulatively degraded network and a policy repaired around
/// it for each event.
pub struct EngineFault<'a> {
    /// Simulated time the failures occur, in ps.
    pub t_ps: u64,
    /// The links/routers newly failing at this instant (already filtered
    /// against the pristine network's ids).
    pub faults: FaultSet,
    /// Policy repaired around every failure up to and including this
    /// event; injections from `t_ps` on route with it.
    pub policy: &'a RoutePolicy,
}

/// The simulator engine for one run. Construct via [`crate::run_synthetic`]
/// or [`crate::run_exchange`].
pub struct Engine<'a> {
    net: &'a Network,
    policy: &'a RoutePolicy,
    cfg: SimConfig,
    num_vcs: u32,
    /// Per-VC buffer capacity, input and output side alike (the paper's
    /// 100 KB per port per direction, statically partitioned across VCs
    /// so the virtual networks stay independent — a shared pool would
    /// couple them and void the deadlock-freedom argument of §3.4).
    vc_cap: u64,
    ports: Ports,

    // Per output port.
    busy_until: Vec<u64>,
    /// Payload bytes serialized per output port after warm-up (for link
    /// utilization reporting).
    sent_bytes: Vec<u64>,
    /// `(bytes, pv)` of the packet currently on the wire head.
    sending: Vec<(u32, u32)>,
    rr: Vec<u8>,
    /// Per output port: FIFO of input `pv`s blocked on its buffer space,
    /// threaded through `blocked_next`.
    blocked: FifoSet,

    // Per (port, VC).
    out_occ: Vec<u64>,
    /// Output FIFOs per `pv`, threaded through `pkt_next`.
    out_q: FifoSet,
    credits: Vec<u64>,
    /// Input FIFOs per `pv`, threaded through `pkt_next`.
    in_q: FifoSet,
    in_occ: Vec<u64>,
    blocked_flag: Vec<bool>,
    /// Link slot per input `pv` for the `blocked` lists.
    blocked_next: Vec<u32>,

    // Per node.
    sources: Vec<NodeSource>,
    node_busy: Vec<u64>,
    node_sending: Vec<bool>,
    node_credits: Vec<u64>,
    node_wake: Vec<bool>,

    // Packet slab. `pkt_next` is the parallel link slot: a packet sits
    // in at most one `in_q`/`out_q` FIFO at a time.
    packets: Vec<Packet>,
    pkt_next: Vec<u32>,
    free: Vec<u32>,
    created: u64,
    delivered: u64,

    queue: EventQ<Ev>,
    now: u64,
    acc: Accumulator,
    warmup_ps: u64,

    // ----- event keying & sharding ----------------------------------
    // A serial engine is the degenerate one-shard case: it owns every
    // router, so the ownership branches below are perfectly predicted
    // and the outbox stays empty.
    /// Owned router range `[own_lo, own_hi)`. Events whose handling
    /// router falls outside it never enter this engine's queue; the
    /// emissions that would cross the boundary go to `outbox` instead.
    own_lo: u32,
    own_hi: u32,
    /// Cross-shard events staged during the current window.
    outbox: Vec<(u64, u64, OutEv)>,
    /// Per-lane schedule counters: lane `r + 1` is router `r`'s stream
    /// (keyed `(lane << 32) | ctr`), lane 0 carries the formula-keyed
    /// build-time events (node wakes, fault events).
    lane_ctr: Vec<u32>,
    /// Lane of the event currently being handled — the lane every
    /// `schedule` call during that handling keys into.
    cur_lane: u32,
    /// Full `(lane << 32) | ctr` key of the event currently being
    /// handled; observers use `(now, cur_key)` as a global sort key.
    cur_key: u64,
    /// Total events scheduled (the role the globally monotonic `seq`
    /// played before keys became per-lane).
    events_scheduled: u64,
    /// Whether this engine accounts for the fault events' build-time
    /// schedule entries and their pops (serial engines and shard 0).
    count_fault_events: bool,
    /// Per-node RNG streams, derived from one draw of the master RNG so
    /// every shard (seeded identically) derives identical streams. All
    /// stochastic per-node decisions (arrival sampling, route sampling)
    /// draw from the owning node's stream, making the draw sequence
    /// independent of global event interleaving.
    node_rngs: Vec<SmallRng>,
    /// Per-node injection ordinal (the low word of `Packet::flight_id`).
    node_seq: Vec<u32>,
    /// Calendar statistics absorbed from sibling shards, merged into
    /// the finalized trace next to this engine's own queue stats.
    extra_calendar: Option<CalendarStats>,
    /// Optional observability probe (see [`crate::telemetry`]). `None`
    /// costs the event loop a single branch per event and leaves the
    /// simulated schedule byte-identical to an unprobed run.
    telemetry: Option<Telemetry>,
    /// Optional structured trace recorder (see [`crate::trace`]); same
    /// zero-overhead contract as the probe — one branch per hook site
    /// when `None`, and recorded state never feeds the simulation.
    trace: Option<TraceRecorder>,
    /// Finalized trace of the last run, parked here by the run methods
    /// (which only borrow the engine) for [`Engine::take_trace`].
    finished_trace: Option<EngineTrace>,
    /// Optional routing-decision ledger (see [`crate::ledger`]); same
    /// zero-overhead contract as the probe and tracer — one branch at
    /// the injection decision when `None`, recorded state never feeds
    /// the simulation, and the recorded entry point is rng-neutral.
    ledger: Option<DecisionLedger>,
    /// Finalized ledger of the last run, for [`Engine::take_ledger`].
    finished_ledger: Option<EngineLedger>,

    // ----- fault machinery (all inert when `fault_events` is empty) --
    /// Mid-run fault schedule, sorted by time; re-armed by `reset`.
    fault_events: Vec<EngineFault<'a>>,
    /// Policy routing *new* injections: starts at `policy`, switches to
    /// each fault event's repaired policy as the event fires.
    cur_policy: &'a RoutePolicy,
    /// Dead output ports — both directions of every failed link. Node
    /// (injection/ejection) ports never die.
    dead: Vec<bool>,
    /// Per-node parked unroutable packet: (spec, attempts, retry time).
    /// A parked packet holds the head of the node's injection queue.
    retry: Vec<Option<(PacketSpec, u32, u64)>>,
    /// Index of the first fault event that has not fired yet — the tail
    /// `fault_events[next_fault..]` is what retry parking can wait for.
    next_fault: usize,
    /// Packets dropped in-network: flushed from a dying link's output
    /// buffers, or arriving at a switch whose chosen route crosses one.
    dropped_flight: u64,
    /// Packets dropped at the source: destination permanently severed,
    /// or the injector's retries ran out waiting for a recovery event.
    dropped_injection: u64,
    /// Packets injected after at least one unroutable-destination retry.
    retried: u64,

    // ----- run-budget supervision (see `SimConfig::budget`) ----------
    /// Events popped this run — the counter the event budget (and the
    /// chaos registry's fire point) is enforced against.
    popped: u64,
    /// Set when the run budget tripped: the loop stopped before the
    /// horizon and the accumulated measurements are partial.
    exhausted: bool,
    /// Wall-clock start of the run, lazily armed at the first budget
    /// check so unbudgeted runs never touch the clock.
    wall_start: Option<std::time::Instant>,
}

impl<'a> Engine<'a> {
    /// Builds an engine; `sources` must hold one [`NodeSource`] per node.
    /// Panics where [`Engine::try_new`] returns an error — kept for the
    /// single-run entry points whose configs are caller-validated.
    pub fn new(
        net: &'a Network,
        policy: &'a RoutePolicy,
        cfg: SimConfig,
        sources: Vec<NodeSource>,
        warmup_ps: u64,
        rng: SmallRng,
    ) -> Self {
        Self::try_new(net, policy, cfg, sources, warmup_ps, rng).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible construction: a config the preflight verifier rejects
    /// (under [`Preflight::Enforce`]) or a buffer too small to partition
    /// across the policy's VCs comes back as a coded `Err` instead of
    /// aborting the process, so sweep harnesses can surface it as a
    /// [`crate::SweepNotice`].
    pub fn try_new(
        net: &'a Network,
        policy: &'a RoutePolicy,
        cfg: SimConfig,
        sources: Vec<NodeSource>,
        warmup_ps: u64,
        rng: SmallRng,
    ) -> Result<Self, String> {
        Self::build(net, policy, cfg, sources, warmup_ps, rng, Vec::new())
    }

    /// [`Engine::try_new`] plus a mid-run fault schedule, pre-resolved by
    /// [`crate::run`] for a faulted [`crate::Synthetic`]: each
    /// [`EngineFault`] fires as an ordinary event at its time. VC buffers are provisioned for the
    /// maximum VC count across the initial policy and every repaired
    /// policy, so packets routed before and after a failure coexist.
    pub fn try_new_faulted(
        net: &'a Network,
        policy: &'a RoutePolicy,
        cfg: SimConfig,
        sources: Vec<NodeSource>,
        warmup_ps: u64,
        rng: SmallRng,
        faults: Vec<EngineFault<'a>>,
    ) -> Result<Self, String> {
        Self::build(net, policy, cfg, sources, warmup_ps, rng, faults)
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        net: &'a Network,
        policy: &'a RoutePolicy,
        cfg: SimConfig,
        sources: Vec<NodeSource>,
        warmup_ps: u64,
        rng: SmallRng,
        fault_events: Vec<EngineFault<'a>>,
    ) -> Result<Self, String> {
        Self::build_shard(
            net,
            policy,
            cfg,
            sources,
            warmup_ps,
            rng,
            fault_events,
            0,
            net.num_routers(),
            true,
        )
    }

    /// [`Engine::build`] restricted to the router range `[own_lo,
    /// own_hi)`: only owned nodes' wake events are armed, and fault
    /// events are not enqueued (the shard coordinator applies them at
    /// window barriers). `count_fault_events` marks the one shard that
    /// carries the fault events' schedule/pop accounting so summed
    /// counters match serial.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build_shard(
        net: &'a Network,
        policy: &'a RoutePolicy,
        cfg: SimConfig,
        sources: Vec<NodeSource>,
        warmup_ps: u64,
        rng: SmallRng,
        fault_events: Vec<EngineFault<'a>>,
        own_lo: u32,
        own_hi: u32,
        count_fault_events: bool,
    ) -> Result<Self, String> {
        preflight_gate(net, policy, &cfg)?;
        invariant!(
            sources.len() == net.num_nodes() as usize,
            "one traffic source per node required ({} sources, {} nodes)",
            sources.len(),
            net.num_nodes()
        );
        if fault_events.windows(2).any(|w| w[1].t_ps < w[0].t_ps) {
            return Err("fault schedule must be sorted by time".into());
        }
        let max_vcs = fault_events
            .iter()
            .map(|f| f.policy.num_vcs())
            .fold(policy.num_vcs(), u8::max);
        let num_vcs = max_vcs as u32;
        let ports = Ports::build(net);
        let total = *ports.base.last().unwrap() as usize;
        let pv_total = total * num_vcs as usize;
        let vc_cap = d2net_verify::invariant::vc_buffer_sufficient(
            cfg.buffer_bytes,
            max_vcs,
            cfg.packet_bytes,
        )?;
        let n = net.num_nodes() as usize;
        invariant!(
            own_lo < own_hi && own_hi <= net.num_routers(),
            "shard router range [{own_lo}, {own_hi}) out of bounds"
        );
        let mut rng = rng;
        let node_rngs = derive_node_rngs(&mut rng, n);
        let queue = match cfg.event_queue {
            EventQueueKind::Heap => EventQ::Heap(BinaryHeap::new()),
            EventQueueKind::Calendar => {
                // Buckets near the packet serialization time; window wide
                // enough for the largest single-step offset the engine
                // schedules (switch + serialization + link). Far-future
                // NodeWakes at low load spill into the overflow heap.
                let ser = cfg.ser_ps(cfg.packet_bytes);
                let max_offset = cfg.switch_ps() + ser + cfg.link_ps();
                let (shift, days) = CalendarQueue::<Ev>::sizing(ser, max_offset);
                EventQ::Calendar(CalendarQueue::new(shift, days))
            }
        };
        let mut engine = Engine {
            net,
            policy,
            cfg,
            num_vcs,
            vc_cap,
            ports,
            busy_until: vec![0; total],
            sent_bytes: vec![0; total],
            sending: vec![(0, 0); total],
            rr: vec![0; total],
            blocked: FifoSet::new(total),
            out_occ: vec![0; pv_total],
            out_q: FifoSet::new(pv_total),
            credits: vec![vc_cap; pv_total],
            in_q: FifoSet::new(pv_total),
            in_occ: vec![0; pv_total],
            blocked_flag: vec![false; pv_total],
            blocked_next: vec![NIL; pv_total],
            sources,
            node_busy: vec![0; n],
            node_sending: vec![false; n],
            node_credits: vec![cfg.buffer_bytes; n],
            node_wake: vec![false; n],
            packets: Vec::new(),
            pkt_next: Vec::new(),
            free: Vec::new(),
            created: 0,
            delivered: 0,
            queue,
            now: 0,
            acc: Accumulator::default(),
            warmup_ps,
            own_lo,
            own_hi,
            outbox: Vec::new(),
            lane_ctr: vec![0; net.num_routers() as usize + 1],
            cur_lane: 0,
            cur_key: 0,
            events_scheduled: 0,
            count_fault_events,
            node_rngs,
            node_seq: vec![0; n],
            extra_calendar: None,
            telemetry: None,
            trace: None,
            finished_trace: None,
            ledger: None,
            finished_ledger: None,
            fault_events,
            cur_policy: policy,
            dead: vec![false; total],
            retry: vec![None; n],
            next_fault: 0,
            dropped_flight: 0,
            dropped_injection: 0,
            retried: 0,
            popped: 0,
            exhausted: false,
            wall_start: None,
        };
        engine.arm_initial_events();
        Ok(engine)
    }

    /// Schedules the lane-0 build-time events: wake events for owned
    /// nodes (keyed by node id) and, on full-range engines, the fault
    /// events (keyed past the node range). The formula keys are
    /// identical no matter how the routers are sharded, which is what
    /// makes the merged sharded schedule equal the serial one from the
    /// very first event.
    fn arm_initial_events(&mut self) {
        let n = self.net.num_nodes();
        for node in 0..n {
            if !self.owns(self.net.node_router(node)) {
                continue;
            }
            self.schedule_keyed(0, node as u64, Ev::NodeWake(node));
            self.node_wake[node as usize] = true;
        }
        let full = self.own_lo == 0 && self.own_hi == self.net.num_routers();
        for i in 0..self.fault_events.len() {
            if full {
                let t = self.fault_events[i].t_ps;
                self.schedule_keyed(t, (n as usize + i) as u64, Ev::LinkFail(i as u32));
            } else if self.count_fault_events {
                // Shard 0 carries the accounting for the fault events
                // the coordinator will apply at window barriers, so the
                // summed `events_scheduled` matches serial.
                self.events_scheduled += 1;
            }
        }
    }

    /// Rewinds the engine to the just-constructed state for a fresh run
    /// on the same (network, policy, config) triple, reusing every flat
    /// allocation — sweep points stop paying construction cost. The
    /// result of a run after `reset` is byte-identical to a run on a
    /// freshly built engine handed the same `sources` and `rng`.
    pub fn reset(&mut self, sources: Vec<NodeSource>, warmup_ps: u64, rng: SmallRng) {
        invariant!(
            sources.len() == self.net.num_nodes() as usize,
            "one traffic source per node required ({} sources, {} nodes)",
            sources.len(),
            self.net.num_nodes()
        );
        self.busy_until.fill(0);
        self.sent_bytes.fill(0);
        self.sending.fill((0, 0));
        self.rr.fill(0);
        self.blocked.clear();
        self.out_occ.fill(0);
        self.out_q.clear();
        self.credits.fill(self.vc_cap);
        self.in_q.clear();
        self.in_occ.fill(0);
        self.blocked_flag.fill(false);
        self.blocked_next.fill(NIL);
        self.sources = sources;
        self.node_busy.fill(0);
        self.node_sending.fill(false);
        self.node_credits.fill(self.cfg.buffer_bytes);
        self.node_wake.fill(false);
        self.packets.clear();
        self.pkt_next.clear();
        self.free.clear();
        self.created = 0;
        self.delivered = 0;
        self.queue.clear();
        self.now = 0;
        let mut rng = rng;
        self.node_rngs = derive_node_rngs(&mut rng, self.sources.len());
        self.node_seq.fill(0);
        self.outbox.clear();
        self.lane_ctr.fill(0);
        self.cur_lane = 0;
        self.cur_key = 0;
        self.events_scheduled = 0;
        self.extra_calendar = None;
        self.acc = Accumulator::default();
        self.warmup_ps = warmup_ps;
        self.telemetry = None;
        self.trace = None;
        self.finished_trace = None;
        self.ledger = None;
        self.finished_ledger = None;
        self.cur_policy = self.policy;
        self.dead.fill(false);
        self.retry.fill(None);
        self.next_fault = 0;
        self.dropped_flight = 0;
        self.dropped_injection = 0;
        self.retried = 0;
        self.popped = 0;
        self.exhausted = false;
        self.wall_start = None;
        self.arm_initial_events();
    }

    /// Runs the static preflight verifier on exactly the (network,
    /// policy, config) triple this engine would simulate, regardless of
    /// the config's [`Preflight`] mode. The verdict mirrors what
    /// simulation would discover the hard way: a rejected config carries
    /// a concrete CDG cycle counterexample.
    pub fn preflight(&self) -> d2net_verify::Report {
        preflight(self.net, self.policy, &self.cfg)
    }

    /// Attaches an observability probe; must be called before the run
    /// starts. See [`crate::telemetry`] for what gets recorded.
    pub fn attach_probe(&mut self, probe: ProbeConfig) {
        let total = *self.ports.base.last().unwrap();
        let port_is_node = (0..total)
            .map(|p| self.ports.is_node_port(self.net, p))
            .collect();
        self.telemetry = Some(Telemetry::new(
            probe,
            self.net.num_routers(),
            self.net.num_nodes(),
            self.num_vcs,
            self.ports.owner.clone(),
            port_is_node,
            self.vc_cap,
            self.cfg.ps_per_byte(),
        ));
    }

    /// Flushes probe sample windows up to simulated time `t`.
    fn flush_probe(&mut self, t: u64) {
        if let Some(tel) = self.telemetry.as_mut() {
            tel.sample_to(t, &self.in_occ, &self.out_occ);
        }
    }

    /// Attaches a structured trace recorder; must be called before the
    /// run starts. See [`crate::trace`] for what gets recorded.
    pub fn attach_trace(&mut self, cfg: TraceConfig) {
        self.trace = Some(TraceRecorder::new(cfg));
    }

    /// The finalized trace of the last run, when one was attached. The
    /// run methods finalize it; calling this again returns `None`.
    pub fn take_trace(&mut self) -> Option<EngineTrace> {
        self.finished_trace.take()
    }

    /// Detaches the recorder into [`Engine::take_trace`]'s slot, closing
    /// the phase spans with the run's statistics horizon.
    fn finalize_trace(&mut self, measure_end_ps: u64) {
        if let Some(tr) = self.trace.take() {
            let cal = match (self.queue.calendar_stats(), self.extra_calendar.take()) {
                (Some(own), Some(extra)) => Some(own.merged(&extra)),
                (own, extra) => own.or(extra),
            };
            self.finished_trace = Some(tr.finish(
                self.warmup_ps,
                measure_end_ps,
                self.now,
                self.events_scheduled,
                cal,
            ));
        }
    }

    /// Attaches a routing-decision ledger; must be called before the run
    /// starts. See [`crate::ledger`] for what gets recorded.
    pub fn attach_ledger(&mut self, cfg: LedgerConfig) {
        self.ledger = Some(DecisionLedger::new(cfg));
    }

    /// The finalized ledger of the last run, when one was attached. The
    /// run methods finalize it; calling this again returns `None`.
    pub fn take_ledger(&mut self) -> Option<EngineLedger> {
        self.finished_ledger.take()
    }

    /// Detaches the ledger into [`Engine::take_ledger`]'s slot.
    fn finalize_ledger(&mut self) {
        if let Some(led) = self.ledger.take() {
            self.finished_ledger = Some(led.finish());
        }
    }

    /// Whether this engine owns router `r`'s state.
    #[inline]
    fn owns(&self, r: RouterId) -> bool {
        r >= self.own_lo && r < self.own_hi
    }

    /// Assigns the next key on the current lane. Keys are unique across
    /// an entire (possibly sharded) run: a lane's events are emitted
    /// only while handling that lane's router, and every sharding
    /// processes a given router's events in the same order, so the
    /// `ctr` sequence — and hence the key — of each logical event is
    /// identical no matter how routers are partitioned.
    #[inline]
    fn next_key(&mut self) -> u64 {
        let lane = self.cur_lane as usize;
        let key = ((self.cur_lane as u64) << 32) | self.lane_ctr[lane] as u64;
        self.lane_ctr[lane] += 1;
        self.events_scheduled += 1;
        key
    }

    #[inline]
    fn schedule(&mut self, t: u64, ev: Ev) {
        let key = self.next_key();
        self.queue.push((t, key, ev));
    }

    /// Schedules a lane-0 build-time event under a formula-assigned key
    /// (all of which sort before every runtime key, whose lane is ≥ 1).
    #[inline]
    fn schedule_keyed(&mut self, t: u64, key: u64, ev: Ev) {
        self.events_scheduled += 1;
        self.queue.push((t, key, ev));
    }

    #[inline]
    fn pv(&self, port: u32, vc: u8) -> usize {
        (port * self.num_vcs + vc as u32) as usize
    }

    /// Slab allocation without the `created` accounting — used directly
    /// when a cross-shard packet is implanted (its injection was already
    /// counted by the shard that created it).
    fn alloc_slot(&mut self, p: Packet) -> u32 {
        if let Some(id) = self.free.pop() {
            self.packets[id as usize] = p;
            id
        } else {
            self.packets.push(p);
            self.pkt_next.push(NIL);
            (self.packets.len() - 1) as u32
        }
    }

    fn alloc(&mut self, p: Packet) -> u32 {
        self.created += 1;
        self.alloc_slot(p)
    }

    // ----- node side ------------------------------------------------

    fn node_kick(&mut self, node: u32) {
        if self.node_sending[node as usize] {
            return; // NodeSendDone re-kicks
        }
        // A parked unroutable packet holds the head of the injection
        // queue until it is injected or given up on.
        if let Some((spec, attempts, at)) = self.retry[node as usize] {
            if self.now < at {
                if !self.node_wake[node as usize] {
                    self.node_wake[node as usize] = true;
                    self.schedule(at, Ev::NodeWake(node));
                }
                return;
            }
            if self.routable(node, spec.dst) {
                if self.node_credits[node as usize] < spec.bytes as u64 {
                    return; // NodeCredit re-kicks
                }
                self.retry[node as usize] = None;
                self.retried += 1;
                self.inject_spec(node, spec);
                return;
            }
            if attempts + 1 >= MAX_INJECT_RETRIES || !self.recovery_possible(node, spec.dst) {
                // Give up — retries exhausted, or no pending fault event
                // can restore the route. Drop at the source; the node
                // moves on to its next generation below.
                self.retry[node as usize] = None;
                self.dropped_injection += 1;
            } else {
                let at = self.now + (RETRY_BASE_PS << (attempts + 1));
                self.retry[node as usize] = Some((spec, attempts + 1, at));
                if !self.node_wake[node as usize] {
                    self.node_wake[node as usize] = true;
                    self.schedule(at, Ev::NodeWake(node));
                }
                return;
            }
        }
        let n_nodes = self.net.num_nodes();
        loop {
            let next = self.sources[node as usize].next(
                self.now,
                n_nodes,
                node,
                &mut self.node_rngs[node as usize],
            );
            match next {
                NextPacket::Exhausted => return,
                NextPacket::WakeAt(t) => {
                    if !self.node_wake[node as usize] {
                        self.node_wake[node as usize] = true;
                        self.schedule(t, Ev::NodeWake(node));
                    }
                    return;
                }
                NextPacket::Ready(spec) => {
                    if self.node_credits[node as usize] < spec.bytes as u64 {
                        return; // NodeCredit re-kicks
                    }
                    self.sources[node as usize].consume(&mut self.node_rngs[node as usize]);
                    if !self.routable(node, spec.dst) {
                        if self.recovery_possible(node, spec.dst) {
                            // A pending fault event's policy can still
                            // reach this destination: park for
                            // retry/backoff instead of committing the
                            // packet to the wire.
                            let at = self.now + RETRY_BASE_PS;
                            self.retry[node as usize] = Some((spec, 0, at));
                            if !self.node_wake[node as usize] {
                                self.node_wake[node as usize] = true;
                                self.schedule(at, Ev::NodeWake(node));
                            }
                            return;
                        }
                        // Permanently severed destination: drop at the
                        // source and keep generating — parking would
                        // head-of-line-block the node forever.
                        self.dropped_injection += 1;
                        continue;
                    }
                    self.inject_spec(node, spec);
                    return;
                }
            }
        }
    }

    /// Whether the current injection policy can reach `dst_node`.
    #[inline]
    fn routable(&self, src_node: u32, dst_node: u32) -> bool {
        self.cur_policy
            .is_routable(self.net.node_router(src_node), self.net.node_router(dst_node))
    }

    /// Whether any *pending* fault event installs a policy that can
    /// still reach `dst_node` — the condition under which parking an
    /// unroutable packet for retry can ever pay off. Monotone
    /// degradation schedules never satisfy it; engine-level recovery
    /// events (a new policy with no new dead ports) do.
    #[inline]
    fn recovery_possible(&self, src_node: u32, dst_node: u32) -> bool {
        let src_r = self.net.node_router(src_node);
        let dst_r = self.net.node_router(dst_node);
        self.fault_events[self.next_fault..]
            .iter()
            .any(|f| f.policy.is_routable(src_r, dst_r))
    }

    /// Commits an already-consumed `spec` to the injection link (credits
    /// must have been checked by the caller).
    fn inject_spec(&mut self, node: u32, spec: PacketSpec) {
        self.node_credits[node as usize] -= spec.bytes as u64;
        self.node_sending[node as usize] = true;
        // The flight id is `(src_node << 32) | injection ordinal` — a
        // per-node counter, so shards assign ids identical to serial
        // without global coordination (slab ids recycle; this doesn't).
        let ordinal = self.node_seq[node as usize];
        self.node_seq[node as usize] = ordinal + 1;
        let flight_id = ((node as u64) << 32) | ordinal as u64;
        let pkt = self.alloc(Packet {
            src: node,
            dst: spec.dst,
            bytes: spec.bytes,
            birth_ps: spec.birth_ps,
            ready_ps: 0,
            choice: RouteChoice {
                path: RoutePath::new(0),
                phase_hops: 0,
                indirect: false,
            },
            hop: 0,
            link_vc: 0,
            flight_id,
            scheme: self.cur_policy.vc_scheme(),
        });
        if let Some(tr) = self.trace.as_mut() {
            tr.on_alloc(
                pkt,
                flight_id,
                (self.now, self.cur_key),
                self.now,
                self.net.node_router(node),
                node,
                spec.dst,
                spec.bytes,
                spec.birth_ps,
            );
        }
        let done = self.now + self.cfg.ser_ps(spec.bytes);
        self.node_busy[node as usize] = done;
        self.schedule(done, Ev::NodeSendDone(node));
        self.schedule(done + self.cfg.link_ps(), Ev::ArriveRouter(pkt));
    }

    // ----- router side ----------------------------------------------

    fn arrive_router(&mut self, pkt: u32) {
        let (src, dst, bytes, hop, link_vc) = {
            let p = &self.packets[pkt as usize];
            (p.src, p.dst, p.bytes, p.hop, p.link_vc)
        };
        let (r, in_port, in_vc) = if hop == 0 {
            // Injection: decide the route now, at the source router, from
            // its local output occupancies (paper §3.3).
            let src_r = self.net.node_router(src);
            let dst_r = self.net.node_router(dst);
            let choice = if src_r == dst_r {
                RouteChoice {
                    path: RoutePath::new(src_r),
                    phase_hops: 0,
                    indirect: false,
                }
            } else {
                let view = OccView {
                    net: self.net,
                    ports: &self.ports,
                    out_occ: &self.out_occ,
                    num_vcs: self.num_vcs,
                    cap: self.cfg.buffer_bytes,
                };
                // With a ledger attached, route through the recorded
                // entry point — rng-neutral by construction, so the
                // simulated schedule is byte-identical either way.
                // Route sampling draws from the source node's stream —
                // the node's injections route through a deterministic
                // draw sequence regardless of global interleaving.
                let decided = if self.ledger.is_some() {
                    match self.cur_policy.try_choose_recorded(
                        src_r,
                        dst_r,
                        &view,
                        &mut self.node_rngs[src as usize],
                    ) {
                        Some((c, rec)) => {
                            let fid = self.packets[pkt as usize].flight_id;
                            if let Some(led) = self.ledger.as_mut() {
                                led.on_decision(self.now, self.cur_key, fid, &rec);
                            }
                            Some(c)
                        }
                        None => None,
                    }
                } else {
                    self.cur_policy.try_choose(
                        src_r,
                        dst_r,
                        &view,
                        &mut self.node_rngs[src as usize],
                    )
                };
                match decided {
                    Some(c) => c,
                    None => {
                        // A failure fired while the packet serialized and
                        // took its last route away: it vanishes at the
                        // router's door, returning the node-buffer space
                        // it held like an ordinary ejection credit.
                        self.dropped_flight += 1;
                        if let Some(tr) = self.trace.as_mut() {
                            tr.on_drop(pkt, self.now, src_r);
                        }
                        self.schedule(self.now, Ev::NodeCredit { node: src, bytes });
                        self.free.push(pkt);
                        return;
                    }
                }
            };
            self.packets[pkt as usize].choice = choice;
            self.packets[pkt as usize].scheme = self.cur_policy.vc_scheme();
            if let Some(tel) = self.telemetry.as_mut() {
                tel.on_inject(self.now, src_r, src, dst, bytes, choice.indirect);
            }
            if let Some(tr) = self.trace.as_mut() {
                tr.on_route(pkt, choice.indirect);
            }
            (src_r, self.ports.node_port(self.net, src_r, src), 0u8)
        } else {
            let p = &self.packets[pkt as usize];
            let routers = p.choice.path.routers();
            let r = routers[hop as usize];
            let prev = routers[hop as usize - 1];
            (r, self.ports.network_port(self.net, r, prev), link_vc)
        };
        if let Some(tr) = self.trace.as_mut() {
            tr.counters.in_q_pushes += 1;
            tr.on_arrive_router(pkt, self.now, r, hop);
        }
        let pv = self.pv(in_port, in_vc);
        self.in_occ[pv] += bytes as u64;
        let ready = self.now + self.cfg.switch_ps();
        self.packets[pkt as usize].ready_ps = ready;
        self.in_q.push_back(pv, pkt, &mut self.pkt_next);
        if self.in_q.len(pv) == 1 {
            self.schedule(ready, Ev::TrySwitch(pv as u32));
        }
    }

    fn try_switch(&mut self, pv: usize) {
        let Some(pkt) = self.in_q.front(pv) else {
            return;
        };
        let (bytes, ready, hop, dst, choice, scheme) = {
            let p = &self.packets[pkt as usize];
            (p.bytes, p.ready_ps, p.hop as usize, p.dst, p.choice, p.scheme)
        };
        if ready > self.now {
            self.schedule(ready, Ev::TrySwitch(pv as u32));
            return;
        }
        let in_port = pv as u32 / self.num_vcs;
        let r = self.ports.owner[in_port as usize];
        let routers = choice.path.routers();
        debug_invariant!(
            routers[hop] == r,
            "packet at router {r} but its route places hop {hop} at {}",
            routers[hop]
        );
        let at_dst = hop == routers.len() - 1;
        let (out_port, out_vc) = if at_dst {
            (self.ports.node_port(self.net, r, dst), 0u8)
        } else {
            let next = routers[hop + 1];
            (
                self.ports.network_port(self.net, r, next),
                vc_for_hop(scheme, &choice, hop),
            )
        };
        if self.dead[out_port as usize] {
            // The route was computed before this link failed: drop the
            // packet here, with the same upstream credit bookkeeping as a
            // forward transfer so the drop can never wedge the sender
            // (drain-or-drop, DESIGN.md §10).
            self.release_input_head(pv, bytes);
            self.dropped_flight += 1;
            if let Some(tr) = self.trace.as_mut() {
                tr.on_drop(pkt, self.now, r);
            }
            self.free.push(pkt);
            if let Some(nx) = self.in_q.front(pv) {
                let t = self.packets[nx as usize].ready_ps.max(self.now);
                self.schedule(t, Ev::TrySwitch(pv as u32));
            }
            return;
        }
        let out_pv = self.pv(out_port, out_vc);
        if self.out_occ[out_pv] + bytes as u64 > self.vc_cap {
            if !self.blocked_flag[pv] {
                self.blocked_flag[pv] = true;
                self.blocked
                    .push_back(out_port as usize, pv as u32, &mut self.blocked_next);
                if let Some(tel) = self.telemetry.as_mut() {
                    let in_vc = (pv as u32 % self.num_vcs) as u8;
                    tel.on_blocked(self.now, in_port, in_vc, out_port, out_vc);
                }
                if let Some(tr) = self.trace.as_mut() {
                    tr.counters.blocked_entries += 1;
                    tr.on_blocked(pkt, self.now, r, out_port, out_vc);
                }
            }
            return;
        }
        // Transfer input → output.
        self.release_input_head(pv, bytes);
        self.out_occ[out_pv] += bytes as u64;
        self.packets[pkt as usize].link_vc = out_vc;
        if let Some(tr) = self.trace.as_mut() {
            tr.counters.out_q_pushes += 1;
            tr.on_switch_alloc(pkt, self.now, r, out_port, out_vc);
        }
        self.out_q.push_back(out_pv, pkt, &mut self.pkt_next);
        self.kick_output(out_port);
        // Wake the next packet waiting on this input FIFO.
        if let Some(nx) = self.in_q.front(pv) {
            let t = self.packets[nx as usize].ready_ps.max(self.now);
            self.schedule(t, Ev::TrySwitch(pv as u32));
        }
    }

    /// Pops the head of input `pv`, releasing its buffer space and
    /// scheduling the upstream credit — shared by the forward transfer
    /// and the dead-link drop so both sides see identical bookkeeping.
    fn release_input_head(&mut self, pv: usize, bytes: u32) {
        self.in_q.pop_front(pv, &self.pkt_next);
        self.blocked_flag[pv] = false;
        self.in_occ[pv] -= bytes as u64;
        let in_port = pv as u32 / self.num_vcs;
        let r = self.ports.owner[in_port as usize];
        let in_idx = in_port - self.ports.base[r as usize];
        let credit_at = self.now + self.cfg.link_ps();
        if in_idx >= self.net.degree(r) {
            let node = self.net.router_nodes(r).start + (in_idx - self.net.degree(r));
            self.schedule(credit_at, Ev::NodeCredit { node, bytes });
        } else {
            let up_out = self.ports.peer[in_port as usize];
            let vc = pv as u32 % self.num_vcs;
            let up_pv = up_out * self.num_vcs + vc;
            if self.owns(self.ports.owner[up_out as usize]) {
                self.schedule(credit_at, Ev::Credit { pv: up_pv, bytes });
            } else {
                // Upstream output lives on another shard: stage the
                // credit into the mailbox under the key the local lane
                // just assigned it.
                let key = self.next_key();
                self.outbox
                    .push((credit_at, key, OutEv::Credit { pv: up_pv, bytes }));
            }
        }
    }

    /// Applies fault event `i`: marks both directed ports of every newly
    /// failed link dead, flushes their queued output packets (the packet
    /// already serializing finishes its traversal — drain-or-drop),
    /// re-examines inputs blocked on them, and switches injection routing
    /// to the event's repaired policy.
    fn link_fail(&mut self, i: usize) {
        let faults = self.fault_events[i].faults.clone();
        let mut newly_dead: Vec<u32> = Vec::new();
        let r_count = self.net.num_routers();
        for &(a, b) in faults.failed_links() {
            if a < r_count && b < r_count && self.net.are_adjacent(a, b) {
                newly_dead.push(self.ports.network_port(self.net, a, b));
                newly_dead.push(self.ports.network_port(self.net, b, a));
            }
        }
        for &r in faults.failed_routers() {
            if r < r_count {
                for &v in self.net.neighbors(r) {
                    newly_dead.push(self.ports.network_port(self.net, r, v));
                    newly_dead.push(self.ports.network_port(self.net, v, r));
                }
            }
        }
        for port in newly_dead {
            if std::mem::replace(&mut self.dead[port as usize], true) {
                continue; // already dead from an earlier event
            }
            let owner = self.ports.owner[port as usize];
            if !self.owns(owner) {
                // Every shard marks the port dead (routing reads the
                // flag), but flush/wake bookkeeping belongs to the
                // owning shard alone.
                continue;
            }
            // Emissions from this port's teardown (the TrySwitch wakes
            // below) key into the owning router's lane, exactly as if
            // the teardown ran on that router.
            self.cur_lane = owner + 1;
            let mut flushed = 0u32;
            for vc in 0..self.num_vcs {
                let pv = (port * self.num_vcs + vc) as usize;
                while let Some(pkt) = self.out_q.pop_front(pv, &self.pkt_next) {
                    let bytes = self.packets[pkt as usize].bytes;
                    self.out_occ[pv] -= bytes as u64;
                    self.dropped_flight += 1;
                    if let Some(tr) = self.trace.as_mut() {
                        let r = self.ports.owner[port as usize];
                        tr.on_drop(pkt, self.now, r);
                    }
                    self.free.push(pkt);
                    flushed += 1;
                }
            }
            // Inputs blocked on this output re-evaluate (and drop their
            // heads through the dead-port path of try_switch).
            while let Some(bpv) = self.blocked.pop_front(port as usize, &self.blocked_next) {
                self.blocked_flag[bpv as usize] = false;
                self.schedule(self.now, Ev::TrySwitch(bpv));
            }
            let router = self.ports.owner[port as usize];
            let peer = self.ports.owner[self.ports.peer[port as usize] as usize];
            if let Some(tel) = self.telemetry.as_mut() {
                tel.on_link_down(self.now, router, peer, flushed);
            }
        }
        self.cur_policy = self.fault_events[i].policy;
        self.next_fault = self.next_fault.max(i + 1);
    }

    fn kick_output(&mut self, out_port: u32) {
        // Dead ports never serialize again; whatever is mid-wire drains
        // via its pending SendDone.
        if self.dead[out_port as usize] {
            return;
        }
        // Gate on the explicit in-progress marker, not the clock: a Credit
        // event with the same timestamp as the pending SendDone must not
        // start a second transmission before the first one is retired.
        if self.sending[out_port as usize].0 != 0 {
            return; // SendDone re-kicks
        }
        let is_node = self.ports.is_node_port(self.net, out_port);
        for i in 0..self.num_vcs {
            let vc = ((self.rr[out_port as usize] as u32 + i) % self.num_vcs) as u8;
            let out_pv = self.pv(out_port, vc);
            let Some(pkt) = self.out_q.front(out_pv) else {
                continue;
            };
            let bytes = self.packets[pkt as usize].bytes;
            if !is_node && self.credits[out_pv] < bytes as u64 {
                continue;
            }
            // Send.
            self.out_q.pop_front(out_pv, &self.pkt_next);
            if !is_node {
                self.credits[out_pv] -= bytes as u64;
            }
            self.rr[out_port as usize] = ((vc as u32 + 1) % self.num_vcs) as u8;
            self.sending[out_port as usize] = (bytes, out_pv as u32);
            if let Some(tel) = self.telemetry.as_mut() {
                tel.on_send(self.now, out_port, bytes);
            }
            if let Some(tr) = self.trace.as_mut() {
                tr.on_serialize(pkt, self.now, out_port);
            }
            if self.now >= self.warmup_ps {
                self.sent_bytes[out_port as usize] += bytes as u64;
            }
            let done = self.now + self.cfg.ser_ps(bytes);
            self.busy_until[out_port as usize] = done;
            self.schedule(done, Ev::SendDone(out_port));
            let arrive = done + self.cfg.link_ps();
            if is_node {
                self.schedule(arrive, Ev::ArriveNode(pkt));
            } else {
                let peer_r =
                    self.ports.owner[self.ports.peer[out_port as usize] as usize];
                if self.owns(peer_r) {
                    self.packets[pkt as usize].hop += 1;
                    self.schedule(arrive, Ev::ArriveRouter(pkt));
                } else {
                    // Cross-shard hop: ship the packet (and its flight
                    // record, if sampled) through the mailbox under the
                    // key this lane would have given the arrival. The
                    // local slab slot is recycled; the receiving shard
                    // re-allocates one at the window barrier.
                    let key = self.next_key();
                    let mut p = self.packets[pkt as usize];
                    p.hop += 1;
                    let flight = self.trace.as_mut().and_then(|tr| tr.extract_flight(pkt));
                    self.free.push(pkt);
                    self.outbox.push((arrive, key, OutEv::Arrive(p, flight)));
                }
            }
            return;
        }
    }

    fn send_done(&mut self, out_port: u32) {
        let (bytes, pv) = self.sending[out_port as usize];
        self.out_occ[pv as usize] -= bytes as u64;
        self.sending[out_port as usize] = (0, 0);
        // Output space freed: retry every input transfer blocked on it,
        // in the order they blocked (FIFO drain of the intrusive list).
        while let Some(pv) = self.blocked.pop_front(out_port as usize, &self.blocked_next) {
            self.blocked_flag[pv as usize] = false;
            self.schedule(self.now, Ev::TrySwitch(pv));
        }
        self.kick_output(out_port);
    }

    fn arrive_node(&mut self, pkt: u32) {
        let p = self.packets[pkt as usize];
        debug_invariant!(
            self.net.node_router(p.dst) == p.choice.path.dst(),
            "packet delivered to a router its destination node is not attached to"
        );
        self.delivered += 1;
        if let Some(tel) = self.telemetry.as_mut() {
            let r = self.net.node_router(p.dst);
            tel.on_eject(self.now, r, p.dst, p.src, p.bytes, self.now - p.birth_ps);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.on_eject(pkt, self.now, self.net.node_router(p.dst));
        }
        if self.now >= self.warmup_ps {
            self.acc.record(
                self.now - p.birth_ps,
                p.bytes,
                p.choice.indirect,
                p.choice.path.num_hops() as u32,
                self.now,
            );
        }
        self.free.push(pkt);
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::NodeWake(n) => {
                self.node_wake[n as usize] = false;
                self.node_kick(n);
            }
            Ev::NodeSendDone(n) => {
                self.node_sending[n as usize] = false;
                self.node_kick(n);
            }
            Ev::ArriveRouter(p) => self.arrive_router(p),
            Ev::TrySwitch(pv) => self.try_switch(pv as usize),
            Ev::SendDone(port) => self.send_done(port),
            Ev::ArriveNode(p) => self.arrive_node(p),
            Ev::Credit { pv, bytes } => {
                self.credits[pv as usize] += bytes as u64;
                debug_invariant!(
                    self.credits[pv as usize] <= self.vc_cap,
                    "credit return overflows the per-VC buffer capacity"
                );
                self.kick_output(pv / self.num_vcs);
            }
            Ev::NodeCredit { node, bytes } => {
                self.node_credits[node as usize] += bytes as u64;
                self.node_kick(node);
            }
            Ev::LinkFail(i) => self.link_fail(i as usize),
        }
    }

    /// Lane (router stream) handling `ev` — the lane every event it
    /// emits while being handled keys into.
    #[inline]
    fn lane_of(&self, ev: &Ev) -> u32 {
        match *ev {
            Ev::NodeWake(n) | Ev::NodeSendDone(n) | Ev::NodeCredit { node: n, .. } => {
                self.net.node_router(n) + 1
            }
            Ev::ArriveRouter(p) => {
                let pkt = &self.packets[p as usize];
                if pkt.hop == 0 {
                    self.net.node_router(pkt.src) + 1
                } else {
                    pkt.choice.path.routers()[pkt.hop as usize] + 1
                }
            }
            Ev::TrySwitch(pv) | Ev::Credit { pv, .. } => {
                self.ports.owner[(pv / self.num_vcs) as usize] + 1
            }
            Ev::SendDone(port) => self.ports.owner[port as usize] + 1,
            Ev::ArriveNode(p) => self.net.node_router(self.packets[p as usize].dst) + 1,
            // link_fail sets the lane per affected port itself.
            Ev::LinkFail(_) => 0,
        }
    }

    /// Pops-side bookkeeping plus dispatch for one event.
    #[inline]
    fn step(&mut self, t: u64, key: u64, ev: Ev) {
        self.now = t;
        if self.telemetry.is_some() {
            self.flush_probe(t);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.counters.events_popped += 1;
        }
        self.cur_key = key;
        self.cur_lane = self.lane_of(&ev);
        self.handle(ev);
    }

    /// Runs until the event horizon `end_ps` (events beyond it are left
    /// unprocessed) or the queue drains. Returns `true` if the run wedged
    /// with packets still in flight — a deadlock.
    fn run(&mut self, end_ps: Option<u64>) -> bool {
        // Budget/chaos bookkeeping is hoisted behind one branch so the
        // default (unlimited, chaos-free) hot loop is unchanged.
        let guarded = !self.cfg.budget.is_unlimited() || self.cfg.chaos.is_some();
        while let Some(t) = self.queue.peek_time() {
            if let Some(end) = end_ps {
                if t > end {
                    self.now = end;
                    return false;
                }
            }
            if guarded && self.budget_spent() {
                return false;
            }
            let (t, key, ev) = self.queue.pop().unwrap();
            self.step(t, key, ev);
        }
        let wedged = self.created > self.delivered + self.dropped_flight;
        if wedged && std::env::var_os("D2NET_DEBUG_WEDGE").is_some() {
            self.dump_wedge();
        }
        wedged
    }

    /// One guarded-loop bookkeeping step: counts the pop about to
    /// happen, fires an armed chaos fault at its event count, and
    /// returns `true` (setting [`Engine::exhausted`]) when the run
    /// budget is spent. Only called when a budget or a chaos fault is
    /// configured.
    fn budget_spent(&mut self) -> bool {
        self.popped += 1;
        if let Some(ch) = self.cfg.chaos {
            if self.popped == ch.after_events {
                match ch.kind {
                    ChaosKind::Panic => panic!(
                        "chaos: injected panic after {} events (seed {:#x})",
                        self.popped, self.cfg.seed
                    ),
                    ChaosKind::Stall => return self.chaos_stall(),
                }
            }
        }
        let budget = self.cfg.budget;
        if budget.max_events > 0 && self.popped > budget.max_events {
            self.exhausted = true;
            return true;
        }
        if budget.max_wall_ms > 0 && self.popped & 0x3FF == 0 {
            let start = *self.wall_start.get_or_insert_with(std::time::Instant::now);
            if start.elapsed().as_millis() as u64 >= budget.max_wall_ms {
                self.exhausted = true;
                return true;
            }
        }
        false
    }

    /// An injected chaos stall: stop making event progress until the
    /// wall-clock budget trips — what a genuinely hung run looks like
    /// from the supervisor's side. A 2 s failsafe bounds unbudgeted
    /// runs so a misconfigured chaos test cannot hang forever. Always
    /// ends exhausted.
    fn chaos_stall(&mut self) -> bool {
        let start = std::time::Instant::now();
        let limit_ms = match self.cfg.budget.max_wall_ms {
            0 => 2_000,
            ms => ms,
        };
        while (start.elapsed().as_millis() as u64) < limit_ms {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        self.exhausted = true;
        true
    }

    /// Whether the last run was aborted by its budget (see
    /// [`crate::RunBudget`]); cleared by [`Engine::reset`].
    pub fn budget_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Arms (or clears) a chaos fault for the next run and records the
    /// run's seed (which a chaos panic reports) — a reused sweep engine's
    /// per-point hook.
    pub(crate) fn set_point(&mut self, seed: u64, chaos: Option<EngineChaos>) {
        self.cfg.seed = seed;
        self.cfg.chaos = chaos;
    }

    // ----- shard-coordinator surface (see `crate::shard`) -----------

    /// Drains every queued event with `t < until` — this shard's share
    /// of one conservative window. Within the window no cross-shard
    /// influence is possible: anything a sibling shard emits at `t ≥`
    /// the global minimum arrives a full link latency later, which is
    /// exactly how `until` is chosen.
    pub(crate) fn run_window(&mut self, until: u64) {
        let guarded = !self.cfg.budget.is_unlimited() || self.cfg.chaos.is_some();
        while let Some(t) = self.queue.peek_time() {
            if t >= until {
                break;
            }
            if guarded && self.budget_spent() {
                break;
            }
            let (t, key, ev) = self.queue.pop().unwrap();
            self.step(t, key, ev);
        }
    }

    /// This shard's clock: the time of the last event it handled.
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Timestamp of this shard's next queued event.
    pub(crate) fn min_peek(&mut self) -> Option<u64> {
        self.queue.peek_time()
    }

    /// Takes the cross-shard events staged during the last window.
    pub(crate) fn take_outbox(&mut self) -> Vec<(u64, u64, OutEv)> {
        std::mem::take(&mut self.outbox)
    }

    /// Owning shard of router `r` under this engine's shard layout —
    /// used by the coordinator to route mailbox items.
    pub(crate) fn owner_shard(bounds: &[(u32, u32)], r: RouterId) -> usize {
        bounds
            .iter()
            .position(|&(lo, hi)| r >= lo && r < hi)
            .expect("router outside every shard range")
    }

    /// Destination router of a staged mailbox event.
    pub(crate) fn out_ev_router(&self, ev: &OutEv) -> RouterId {
        match ev {
            OutEv::Arrive(p, _) => p.choice.path.routers()[p.hop as usize],
            OutEv::Credit { pv, .. } => self.ports.owner[(pv / self.num_vcs) as usize],
        }
    }

    /// Merges one mailbox event into this shard's queue under the
    /// sender-assigned `(t, key)`; called at window barriers before the
    /// next window runs. The schedule accounting stays with the sender.
    pub(crate) fn deliver(&mut self, t: u64, key: u64, ev: OutEv) {
        match ev {
            OutEv::Arrive(p, flight) => {
                let id = self.alloc_slot(p);
                if let Some(tr) = self.trace.as_mut() {
                    match flight {
                        Some((k, f)) => tr.implant_flight(id, k, f),
                        // Unsampled migrant: still reset the slab slot's
                        // mapping so id recycling can't splice timelines.
                        None => tr.clear_slot(id),
                    }
                }
                self.queue.push((t, key, Ev::ArriveRouter(id)));
            }
            OutEv::Credit { pv, bytes } => {
                self.queue.push((t, key, Ev::Credit { pv, bytes }));
            }
        }
    }

    /// Applies fault event `i` at a window barrier: the sharded
    /// equivalent of popping the serial `Ev::LinkFail` event. Every
    /// shard advances its clock and marks ports dead; the designated
    /// accounting shard also books the pop the serial engine would have
    /// counted.
    pub(crate) fn apply_fault(&mut self, i: usize) {
        let t = self.fault_events[i].t_ps;
        debug_invariant!(self.now <= t, "fault applied in this shard's past");
        self.now = t;
        if self.telemetry.is_some() {
            self.flush_probe(t);
        }
        if self.count_fault_events {
            if let Some(tr) = self.trace.as_mut() {
                tr.counters.events_popped += 1;
            }
        }
        self.link_fail(i);
    }

    /// Forces the clock to the run horizon, mirroring the serial loop's
    /// `now = end` when events remain beyond it.
    pub(crate) fn force_now(&mut self, t: u64) {
        self.now = self.now.max(t);
    }

    /// This shard's contribution to the global wedge check:
    /// `(created, delivered + dropped_flight)`.
    pub(crate) fn wedge_counts(&self) -> (u64, u64) {
        (self.created, self.delivered + self.dropped_flight)
    }

    /// Folds a sibling shard's run products into this engine so the
    /// ordinary finalization path emits merged, serial-identical output.
    /// Element-wise sums are exact because every per-router quantity has
    /// disjoint support across shards.
    pub(crate) fn absorb_shard(&mut self, other: &mut Engine<'a>) {
        self.created += other.created;
        self.delivered += other.delivered;
        self.dropped_flight += other.dropped_flight;
        self.dropped_injection += other.dropped_injection;
        self.retried += other.retried;
        self.events_scheduled += other.events_scheduled;
        self.popped += other.popped;
        self.exhausted |= other.exhausted;
        self.now = self.now.max(other.now);
        self.acc.absorb(&other.acc);
        for (a, b) in self.sent_bytes.iter_mut().zip(&other.sent_bytes) {
            *a += *b;
        }
        if let Some(cs) = other.queue.calendar_stats() {
            let merged = match self.extra_calendar.take() {
                Some(acc) => acc.merged(&cs),
                None => cs,
            };
            self.extra_calendar = Some(merged);
        }
        if let (Some(t), Some(o)) = (self.telemetry.as_mut(), other.telemetry.take()) {
            t.absorb(o);
        }
        if let (Some(t), Some(o)) = (self.trace.as_mut(), other.trace.take()) {
            t.absorb(o);
        }
        if let (Some(l), Some(o)) = (self.ledger.as_mut(), other.ledger.take()) {
            l.absorb(o);
        }
    }

    /// Diagnostic dump of stuck state (enabled via D2NET_DEBUG_WEDGE).
    fn dump_wedge(&self) {
        eprintln!(
            "WEDGE at t={} ps: created={} delivered={} dropped={}",
            self.now, self.created, self.delivered, self.dropped_flight
        );
        let pv_total = self.in_occ.len();
        let mut in_total = 0usize;
        let mut printed = 0;
        for pv in 0..pv_total {
            let len = self.in_q.len(pv);
            if len > 0 {
                in_total += len;
                let port = pv as u32 / self.num_vcs;
                let owner = self.ports.owner[port as usize];
                let is_injection = port - self.ports.base[owner as usize] >= self.net.degree(owner);
                if !is_injection && printed < 40 {
                    printed += 1;
                    let vc = pv as u32 % self.num_vcs;
                    let head = &self.packets[self.in_q.front(pv).unwrap() as usize];
                    eprintln!(
                        "  in_q port={} (router {}, idx {}) vc={} len={} head: hop={} path={:?} ready={} blocked_flag={}",
                        port,
                        self.ports.owner[port as usize],
                        port - self.ports.base[self.ports.owner[port as usize] as usize],
                        vc,
                        len,
                        head.hop,
                        head.choice.path.routers(),
                        head.ready_ps,
                        self.blocked_flag[pv],
                    );
                }
            }
        }
        let mut out_total = 0usize;
        for pv in 0..pv_total {
            let len = self.out_q.len(pv);
            if len > 0 {
                out_total += len;
                if out_total < 4000 {
                    let port = pv as u32 / self.num_vcs;
                    eprintln!(
                        "  out_q port={} (router {}) vc={} len={} credits={} busy_until={} occ={}",
                        port,
                        self.ports.owner[port as usize],
                        pv as u32 % self.num_vcs,
                        len,
                        self.credits[pv],
                        self.busy_until[port as usize],
                        self.out_occ[pv],
                    );
                }
            }
        }
        eprintln!("  totals: in_q={in_total} out_q={out_total}");
    }

    /// Reconstructs the wait-for cycle of a wedged run. Call only after
    /// [`Engine::run`] returned wedged: the frozen buffer state is walked
    /// as a functional graph — each blocked input FIFO waits on exactly
    /// one full output buffer, and each credit-starved output buffer
    /// waits on exactly one downstream input buffer — so the first
    /// revisited node closes the cycle.
    fn deadlock_forensics(&self) -> Option<DeadlockReport> {
        let pv_total = self.in_occ.len();
        const NONE: u32 = u32::MAX;
        // Node ids: In(pv) = pv, Out(pv) = pv_total + pv.
        let mut succ = vec![NONE; 2 * pv_total];
        for pv in 0..pv_total {
            if let Some(pkt) = self.in_q.front(pv) {
                let p = &self.packets[pkt as usize];
                let in_port = pv as u32 / self.num_vcs;
                let r = self.ports.owner[in_port as usize];
                let routers = p.choice.path.routers();
                let hop = p.hop as usize;
                let (out_port, out_vc) = if hop == routers.len() - 1 {
                    (self.ports.node_port(self.net, r, p.dst), 0u8)
                } else {
                    let next = routers[hop + 1];
                    (
                        self.ports.network_port(self.net, r, next),
                        vc_for_hop(p.scheme, &p.choice, hop),
                    )
                };
                let out_pv = self.pv(out_port, out_vc);
                if self.out_occ[out_pv] + p.bytes as u64 > self.vc_cap {
                    succ[pv] = (pv_total + out_pv) as u32;
                }
            }
            if let Some(pkt) = self.out_q.front(pv) {
                let port = pv as u32 / self.num_vcs;
                if !self.ports.is_node_port(self.net, port) {
                    let bytes = self.packets[pkt as usize].bytes as u64;
                    if self.credits[pv] < bytes {
                        let down_port = self.ports.peer[port as usize];
                        let vc = pv as u32 % self.num_vcs;
                        succ[pv_total + pv] = down_port * self.num_vcs + vc;
                    }
                }
            }
        }
        let mut state = vec![0u8; 2 * pv_total]; // 0 new, 1 on path, 2 done
        for start in 0..2 * pv_total {
            if state[start] != 0 {
                continue;
            }
            let mut path = Vec::new();
            let mut cur = start;
            loop {
                if state[cur] == 1 {
                    let pos = path.iter().position(|&x| x == cur).unwrap();
                    let cycle = path[pos..]
                        .iter()
                        .map(|&id| self.wait_point(id, pv_total))
                        .collect();
                    return Some(DeadlockReport {
                        cycle,
                        stranded_packets: self.created - self.delivered - self.dropped_flight,
                        t_ps: self.now,
                    });
                }
                if state[cur] == 2 || succ[cur] == NONE {
                    state[cur] = 2;
                    for &x in &path {
                        state[x] = 2;
                    }
                    break;
                }
                state[cur] = 1;
                path.push(cur);
                cur = succ[cur] as usize;
            }
        }
        None
    }

    /// Snapshots one wait-for-graph node for the forensics report.
    fn wait_point(&self, id: usize, pv_total: usize) -> WaitPoint {
        let (side, pv) = if id < pv_total {
            (WaitSide::Input, id)
        } else {
            (WaitSide::Output, id - pv_total)
        };
        let port = pv as u32 / self.num_vcs;
        let (q, occ) = match side {
            WaitSide::Input => (&self.in_q, self.in_occ[pv]),
            WaitSide::Output => (&self.out_q, self.out_occ[pv]),
        };
        let head = &self.packets[q.front(pv).expect("wait point has a head") as usize];
        let missing_credits = match side {
            WaitSide::Input => 0,
            WaitSide::Output => (head.bytes as u64).saturating_sub(self.credits[pv]),
        };
        WaitPoint {
            router: self.ports.owner[port as usize],
            port,
            vc: (pv as u32 % self.num_vcs) as u8,
            side,
            occupancy_bytes: occ,
            queue_len: q.len(pv),
            head_src: head.src,
            head_dst: head.dst,
            head_hop: head.hop,
            head_route: head.choice.path.routers().to_vec(),
            missing_credits,
        }
    }

    /// Detaches the probe (if any) into its report, running deadlock
    /// forensics on the frozen state when the run wedged.
    fn take_probe_report(&mut self, wedged: bool) -> Option<TelemetryReport> {
        let forensics = if wedged {
            // A wedged run with no wait-for cycle is a partition (or
            // otherwise unreachable traffic), not a credit deadlock:
            // synthesize a cycle-less report so the two render
            // distinctly (see DeadlockReport::is_partition).
            self.deadlock_forensics().or(Some(DeadlockReport {
                cycle: Vec::new(),
                stranded_packets: self.created - self.delivered - self.dropped_flight,
                t_ps: self.now,
            }))
        } else {
            None
        };
        self.take_probe_report_with(forensics)
    }

    /// [`Engine::take_probe_report`] with the forensics already computed
    /// — the sharded runner walks the wait-for graph across every shard
    /// before absorbing them into one engine.
    pub(crate) fn take_probe_report_with(
        &mut self,
        forensics: Option<DeadlockReport>,
    ) -> Option<TelemetryReport> {
        self.telemetry.take().map(|tel| {
            let mut report = tel.into_report(forensics);
            // The probe never sees drops or retries directly (they have
            // no hook of their own); fold the engine counters in so the
            // summary and manifest surface them.
            report.total_dropped_packets = self.dropped_flight + self.dropped_injection;
            report.total_retried_packets = self.retried;
            report
        })
    }

    /// Runs one synthetic workload to `end_ps` **without consuming the
    /// engine**: afterwards [`Engine::reset`] rewinds it for the next
    /// point of a sweep, reusing every allocation.
    pub fn run_synthetic_to(
        &mut self,
        load: f64,
        end_ps: u64,
    ) -> (SyntheticStats, Option<TelemetryReport>) {
        let deadlocked = self.run(Some(end_ps));
        if self.telemetry.is_some() {
            self.flush_probe(end_ps);
        }
        let telemetry = self.take_probe_report(deadlocked);
        let stats = self.synthetic_stats(load, end_ps, deadlocked);
        (stats, telemetry)
    }

    /// Builds the run's [`SyntheticStats`] from the accumulated state and
    /// finalizes the attached trace/ledger — the tail shared by the
    /// serial and sharded runners (which differ only in how the run and
    /// the probe report happen).
    pub(crate) fn synthetic_stats(
        &mut self,
        load: f64,
        end_ps: u64,
        deadlocked: bool,
    ) -> SyntheticStats {
        self.finalize_trace(end_ps);
        self.finalize_ledger();
        // Observer-only: record this run's engine-event count for the
        // progress layer (serial and sharded runs both finalize here,
        // on the thread that drove the run — after an `absorb_shard`
        // merge the count already spans every shard).
        if crate::obs::enabled() {
            crate::obs::note_run_events(self.events_scheduled);
        }
        let window = (end_ps - self.warmup_ps) as f64;
        let n = self.net.num_nodes() as f64;
        let throughput =
            self.acc.delivered_bytes as f64 * self.cfg.ps_per_byte() as f64 / (window * n);
        // Busiest router-to-router link, as a fraction of link bandwidth.
        let mut max_sent = 0u64;
        for (port, &sent) in self.sent_bytes.iter().enumerate() {
            if !self.ports.is_node_port(self.net, port as u32) {
                max_sent = max_sent.max(sent);
            }
        }
        let max_link_utilization =
            (max_sent as f64 * self.cfg.ps_per_byte() as f64 / window).min(1.0);
        SyntheticStats {
            offered_load: load,
            throughput,
            avg_delay_ns: self.acc.avg_delay_ns(),
            max_delay_ns: self.acc.max_delay_ps / 1_000,
            delivered_packets: self.acc.delivered_packets,
            indirect_packets: self.acc.indirect_packets,
            avg_hops: self.acc.avg_hops(),
            p99_delay_ns: self.acc.histogram.quantile_ns(0.99),
            max_link_utilization,
            dropped_packets: self.dropped_flight + self.dropped_injection,
            retried_packets: self.retried,
            deadlocked,
            exhausted: self.exhausted,
        }
    }

    /// Flushes the probe's sample windows to the run horizon — the
    /// sharded runner's per-shard equivalent of the flush
    /// [`Engine::run_synthetic_to`] performs after the event loop.
    pub(crate) fn flush_probe_to(&mut self, t: u64) {
        if self.telemetry.is_some() {
            self.flush_probe(t);
        }
    }

    /// Runs an exchange until the queue drains, returning the telemetry
    /// report when a probe was attached; an attached trace or ledger is
    /// left for [`Engine::take_trace`] / [`Engine::take_ledger`].
    pub fn run_exchange_to(
        &mut self,
        total_bytes: u64,
    ) -> (ExchangeStats, Option<TelemetryReport>) {
        let deadlocked = self.run(None);
        if self.telemetry.is_some() {
            self.flush_probe(self.now);
        }
        let telemetry = self.take_probe_report(deadlocked);
        let stats = self.exchange_stats(total_bytes, deadlocked);
        (stats, telemetry)
    }

    /// Builds the run's [`ExchangeStats`] from the accumulated state and
    /// finalizes the attached trace/ledger — the tail shared by the
    /// serial and sharded runners. The trace's measure phase spans the
    /// injection period (up to the last packet committed into the
    /// network); the drain phase covers the deliveries, credits and
    /// wake events that settle afterwards.
    pub(crate) fn exchange_stats(&mut self, total_bytes: u64, deadlocked: bool) -> ExchangeStats {
        let measure_end = self
            .trace
            .as_ref()
            .map_or(self.acc.last_delivery_ps, |tr| {
                tr.last_alloc_ps.min(self.acc.last_delivery_ps)
            });
        self.finalize_trace(measure_end);
        self.finalize_ledger();
        let completion_ps = self.acc.last_delivery_ps;
        let n = self.net.num_nodes() as f64;
        let effective = if completion_ps > 0 {
            self.acc.delivered_bytes as f64 * self.cfg.ps_per_byte() as f64
                / (completion_ps as f64 * n)
        } else {
            0.0
        };
        debug_invariant!(
            deadlocked || self.acc.delivered_bytes == total_bytes,
            "exchange completed without delivering every byte"
        );
        ExchangeStats {
            delivered_bytes: self.acc.delivered_bytes,
            completion_ns: completion_ps / 1_000,
            effective_throughput: effective,
            avg_delay_ns: self.acc.avg_delay_ns(),
            p99_delay_ns: self.acc.histogram.quantile_ns(0.99),
            delivered_packets: self.acc.delivered_packets,
            indirect_packets: self.acc.indirect_packets,
            deadlocked: deadlocked || self.acc.delivered_bytes < total_bytes,
        }
    }
}

/// [`Engine::deadlock_forensics`] across the shards of a wedged sharded
/// run: the wait-for graph spans shard boundaries (an output starved of
/// credits waits on a downstream input buffer that may live on another
/// shard), so each global `pv`'s frozen state is read from the shard
/// owning its router. Shards hold full-length arrays with only owned
/// slots populated, so the per-shard reads compose into exactly the walk
/// the serial engine would have done.
pub(crate) fn deadlock_forensics_sharded(shards: &[&Engine]) -> Option<DeadlockReport> {
    let e0 = shards[0];
    let pv_total = e0.in_occ.len();
    let shard_of = |pv: usize| -> &Engine {
        let port = pv as u32 / e0.num_vcs;
        let r = e0.ports.owner[port as usize];
        shards
            .iter()
            .copied()
            .find(|s| s.owns(r))
            .expect("every router is owned by exactly one shard")
    };
    const NONE: u32 = u32::MAX;
    let mut succ = vec![NONE; 2 * pv_total];
    for pv in 0..pv_total {
        let e = shard_of(pv);
        if let Some(pkt) = e.in_q.front(pv) {
            let p = &e.packets[pkt as usize];
            let in_port = pv as u32 / e.num_vcs;
            let r = e.ports.owner[in_port as usize];
            let routers = p.choice.path.routers();
            let hop = p.hop as usize;
            let (out_port, out_vc) = if hop == routers.len() - 1 {
                (e.ports.node_port(e.net, r, p.dst), 0u8)
            } else {
                let next = routers[hop + 1];
                (
                    e.ports.network_port(e.net, r, next),
                    vc_for_hop(p.scheme, &p.choice, hop),
                )
            };
            let out_pv = e.pv(out_port, out_vc);
            if e.out_occ[out_pv] + p.bytes as u64 > e.vc_cap {
                succ[pv] = (pv_total + out_pv) as u32;
            }
        }
        if let Some(pkt) = e.out_q.front(pv) {
            let port = pv as u32 / e.num_vcs;
            if !e.ports.is_node_port(e.net, port) {
                let bytes = e.packets[pkt as usize].bytes as u64;
                if e.credits[pv] < bytes {
                    let down_port = e.ports.peer[port as usize];
                    let vc = pv as u32 % e.num_vcs;
                    succ[pv_total + pv] = down_port * e.num_vcs + vc;
                }
            }
        }
    }
    let stranded: u64 = shards
        .iter()
        .map(|s| s.created - s.delivered - s.dropped_flight)
        .sum();
    let t_ps = shards.iter().map(|s| s.now).max().unwrap();
    let mut state = vec![0u8; 2 * pv_total];
    for start in 0..2 * pv_total {
        if state[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            if state[cur] == 1 {
                let pos = path.iter().position(|&x| x == cur).unwrap();
                let cycle = path[pos..]
                    .iter()
                    .map(|&id| {
                        let pv = if id < pv_total { id } else { id - pv_total };
                        shard_of(pv).wait_point(id, pv_total)
                    })
                    .collect();
                return Some(DeadlockReport {
                    cycle,
                    stranded_packets: stranded,
                    t_ps,
                });
            }
            if state[cur] == 2 || succ[cur] == NONE {
                state[cur] = 2;
                for &x in &path {
                    state[x] = 2;
                }
                break;
            }
            state[cur] = 1;
            path.push(cur);
            cur = succ[cur] as usize;
        }
    }
    None
}

/// Cycle-less [`DeadlockReport`] for a wedged sharded run whose wait-for
/// walk found no cycle — a partition, rendered distinctly (see
/// [`DeadlockReport::is_partition`]); mirrors the serial fallback in
/// [`Engine::take_probe_report`].
pub(crate) fn partition_report_sharded(shards: &[&Engine]) -> DeadlockReport {
    DeadlockReport {
        cycle: Vec::new(),
        stranded_packets: shards
            .iter()
            .map(|s| s.created - s.delivered - s.dropped_flight)
            .sum(),
        t_ps: shards.iter().map(|s| s.now).max().unwrap(),
    }
}

/// Per-node RNG streams for one run, derived from a single draw of the
/// master RNG: every shard of a sharded run (handed an identically
/// seeded master) derives identical streams without consuming the
/// master differently, and each node's stochastic decisions (arrival
/// sampling, route sampling) become independent of the global event
/// interleaving. The per-node seeds are decorrelated by
/// `SmallRng::seed_from_u64`'s SplitMix initialization.
pub(crate) fn derive_node_rngs(rng: &mut SmallRng, n: usize) -> Vec<SmallRng> {
    use rand::RngCore;
    let base: u64 = rng.next_u64();
    (0..n as u64)
        .map(|i| SmallRng::seed_from_u64(base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))))
        .collect()
}

/// Statically verifies the (network, policy, config) triple the way the
/// engine would before simulating it: the full `d2net_verify` pass over
/// the policy's exhaustive route space plus the config consistency laws.
pub fn preflight(net: &Network, policy: &RoutePolicy, cfg: &SimConfig) -> d2net_verify::Report {
    d2net_verify::verify(net, policy, &cfg.verify_params())
}

/// Applies the config's [`Preflight`] mode at engine construction:
/// `Warn` prints a rejected config's report to stderr and proceeds,
/// `Enforce` refuses with the rendered report as the error.
fn preflight_gate(net: &Network, policy: &RoutePolicy, cfg: &SimConfig) -> Result<(), String> {
    if cfg.preflight == Preflight::Off {
        return Ok(());
    }
    let report = preflight(net, policy, cfg);
    if report.verdict() == Verdict::Rejected {
        match cfg.preflight {
            Preflight::Off => unreachable!(),
            Preflight::Warn => eprintln!("preflight: simulating anyway\n{}", report.render()),
            Preflight::Enforce => {
                return Err(format!(
                    "preflight rejected this configuration:\n{}",
                    report.render()
                ));
            }
        }
    }
    Ok(())
}

/// Runs the configured preflight action once and hands back the config
/// with verification disabled — sweeps simulate the same triple at many
/// loads, and the static pass is load-independent. An Enforce-rejected
/// config comes back as `Err` for the sweep to surface as a notice.
pub(crate) fn try_preflight_once(
    net: &Network,
    policy: &RoutePolicy,
    mut cfg: SimConfig,
) -> Result<SimConfig, String> {
    preflight_gate(net, policy, &cfg)?;
    cfg.preflight = Preflight::Off;
    Ok(cfg)
}

/// Builds one synthetic [`NodeSource`] per node, drawing each source's
/// random phase from `rng` in node order — the single place that fixes
/// the RNG consumption sequence serial and parallel sweeps must share.
pub(crate) fn synthetic_sources(
    net: &Network,
    pattern: &d2net_traffic::SyntheticPattern,
    load: f64,
    end_ps: u64,
    cfg: &SimConfig,
    rng: &mut SmallRng,
) -> Vec<NodeSource> {
    let interval = cfg.interval_ps(load);
    (0..net.num_nodes())
        .map(|_| {
            NodeSource::synthetic_with(
                pattern.clone(),
                interval,
                cfg.packet_bytes,
                end_ps,
                cfg.arrival,
                rng,
            )
        })
        .collect()
}

/// Pre-resolves a [`FaultSchedule`]: for each event, a policy repaired
/// around the cumulatively degraded network. Out-of-range or
/// non-adjacent ids are filtered downstream; re-failing an
/// already-failed link is a no-op in the engine.
pub(crate) fn resolve_fault_policies(
    net: &Network,
    policy: &RoutePolicy,
    schedule: &FaultSchedule,
) -> Vec<RoutePolicy> {
    let mut nets: Vec<Network> = Vec::with_capacity(schedule.events().len());
    for ev in schedule.events() {
        let base = nets.last().unwrap_or(net);
        nets.push(base.degrade(&ev.faults));
    }
    nets.iter()
        .map(|n| RoutePolicy::repair(n, policy.algorithm()))
        .collect()
}

/// Builds the engine-facing fault events from a schedule and its
/// pre-resolved policies — shared by the serial and sharded faulted
/// entry points (each shard holds its own copy of the events, all
/// borrowing the same policies).
pub(crate) fn engine_faults<'a>(
    net: &Network,
    schedule: &FaultSchedule,
    policies: &'a [RoutePolicy],
) -> Vec<EngineFault<'a>> {
    schedule
        .events()
        .iter()
        .zip(policies)
        .map(|(ev, p)| EngineFault {
            t_ps: ev.t_ns * 1_000,
            faults: ev.faults.applied_to(net),
            policy: p,
        })
        .collect()
}
