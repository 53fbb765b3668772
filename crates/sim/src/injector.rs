//! Per-node packet sources.
//!
//! Two injection modes mirror the paper's experiments (§4.1):
//!
//! - **Synthetic**: packets are generated continuously at a fixed fraction
//!   of link rate for the whole run; destinations come from a
//!   [`SyntheticPattern`]. Generation is *implicit* — the backlog is
//!   derived from the clock, so an over-saturated source costs O(1) memory
//!   instead of materializing millions of queued packets.
//! - **Exchange**: the node drains a list of messages (A2A or NN),
//!   keeping up to `window` messages active simultaneously and
//!   round-robining packets across them (Kumar-et-al.-style staging when
//!   `window = 1` for A2A; fully concurrent neighbor streams for NN).

use crate::config::Arrival;
use d2net_traffic::{Exchange, Message, SyntheticPattern};
use rand::Rng;

/// The specification of the next packet a node wants to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSpec {
    pub dst: u32,
    pub bytes: u32,
    /// Generation timestamp (ps) — source queueing delay is measured from
    /// here.
    pub birth_ps: u64,
}

/// What a node source reports when asked for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextPacket {
    /// A packet is ready to serialize now.
    Ready(PacketSpec),
    /// Nothing yet; wake the node at this time.
    WakeAt(u64),
    /// The source is exhausted (exchange complete).
    Exhausted,
}

/// One node's packet source.
pub enum NodeSource {
    Synthetic {
        pattern: SyntheticPattern,
        /// Mean inter-arrival in ps.
        interval_ps: u64,
        /// Birth time of the next packet (ps).
        next_birth_ps: u64,
        /// Packets already handed to the link.
        consumed: u64,
        packet_bytes: u32,
        /// Stop generating at this time (ps); the run keeps draining.
        horizon_ps: u64,
        arrival: Arrival,
    },
    Exchange {
        /// Remaining inactive messages, in reverse order (pop from back).
        pending: Vec<Message>,
        /// Active messages: `(dst, remaining_bytes)`.
        active: Vec<(u32, u64)>,
        window: usize,
        rr: usize,
        packet_bytes: u32,
    },
}

impl NodeSource {
    /// Builds a synthetic source for `node`.
    pub fn synthetic<R: Rng>(
        pattern: SyntheticPattern,
        interval_ps: u64,
        packet_bytes: u32,
        horizon_ps: u64,
        rng: &mut R,
    ) -> Self {
        Self::synthetic_with(
            pattern,
            interval_ps,
            packet_bytes,
            horizon_ps,
            Arrival::Deterministic,
            rng,
        )
    }

    /// Builds a synthetic source with an explicit inter-arrival process.
    pub fn synthetic_with<R: Rng>(
        pattern: SyntheticPattern,
        interval_ps: u64,
        packet_bytes: u32,
        horizon_ps: u64,
        arrival: Arrival,
        rng: &mut R,
    ) -> Self {
        NodeSource::Synthetic {
            pattern,
            interval_ps,
            next_birth_ps: rng.gen_range(0..interval_ps.max(1)),
            consumed: 0,
            packet_bytes,
            horizon_ps,
            arrival,
        }
    }

    /// Draws the next inter-arrival gap in ps.
    fn draw_gap<R: Rng>(interval_ps: u64, arrival: Arrival, rng: &mut R) -> u64 {
        match arrival {
            Arrival::Deterministic => interval_ps,
            Arrival::Exponential => {
                // Inverse-CDF sampling; clamp away from 0 to keep event
                // counts bounded.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                ((-u.ln()) * interval_ps as f64).max(1.0).round() as u64
            }
        }
    }

    /// Builds an exchange source for `node` from its message list.
    pub fn exchange(exchange: &Exchange, node: u32, window: usize, packet_bytes: u32) -> Self {
        let mut pending: Vec<Message> = exchange.sends[node as usize].clone();
        pending.reverse();
        let mut src = NodeSource::Exchange {
            pending,
            active: Vec::new(),
            window: window.max(1),
            rr: 0,
            packet_bytes,
        };
        src.refill();
        src
    }

    /// An exchange source with nothing to send: what a shard holds for
    /// the nodes it does not own.
    pub(crate) fn idle(packet_bytes: u32) -> Self {
        NodeSource::Exchange {
            pending: Vec::new(),
            active: Vec::new(),
            window: 1,
            rr: 0,
            packet_bytes,
        }
    }

    fn refill(&mut self) {
        if let NodeSource::Exchange {
            pending,
            active,
            window,
            ..
        } = self
        {
            while active.len() < *window {
                match pending.pop() {
                    Some(m) => active.push((m.dst, m.bytes)),
                    None => break,
                }
            }
        }
    }

    /// Asks for the next packet at time `now`. A `Ready` result *must* be
    /// followed by [`NodeSource::consume`] once the packet is accepted.
    pub fn next<R: Rng>(&mut self, now: u64, n_nodes: u32, src_node: u32, rng: &mut R) -> NextPacket {
        match self {
            NodeSource::Synthetic {
                pattern,
                next_birth_ps,
                packet_bytes,
                horizon_ps,
                ..
            } => {
                let birth = *next_birth_ps;
                if birth >= *horizon_ps {
                    return NextPacket::Exhausted;
                }
                if birth > now {
                    return NextPacket::WakeAt(birth);
                }
                NextPacket::Ready(PacketSpec {
                    dst: pattern.dest(src_node, n_nodes, rng),
                    bytes: *packet_bytes,
                    birth_ps: birth,
                })
            }
            NodeSource::Exchange {
                active,
                rr,
                packet_bytes,
                ..
            } => {
                if active.is_empty() {
                    return NextPacket::Exhausted;
                }
                let idx = *rr % active.len();
                let (dst, remaining) = active[idx];
                NextPacket::Ready(PacketSpec {
                    dst,
                    bytes: (*packet_bytes as u64).min(remaining) as u32,
                    // Exchange packets are "born" when the node gets to
                    // them, so recorded delay is pure network transit
                    // (serialization + links + queueing), not the
                    // position in the node's send list.
                    birth_ps: now,
                })
            }
        }
    }

    /// Commits the packet returned by the last `next` call.
    pub fn consume<R: Rng>(&mut self, rng: &mut R) {
        match self {
            NodeSource::Synthetic {
                consumed,
                next_birth_ps,
                interval_ps,
                arrival,
                ..
            } => {
                *consumed += 1;
                *next_birth_ps += Self::draw_gap(*interval_ps, *arrival, rng);
            }
            NodeSource::Exchange {
                active,
                rr,
                packet_bytes,
                ..
            } => {
                let idx = *rr % active.len();
                let sent = (*packet_bytes as u64).min(active[idx].1);
                active[idx].1 -= sent;
                if active[idx].1 == 0 {
                    active.swap_remove(idx);
                    // rr stays: swap_remove moved a fresh message here.
                } else {
                    *rr = idx + 1;
                }
                self.refill();
            }
        }
    }

    /// Remaining bytes (exchange sources; synthetic sources report 0).
    pub fn remaining_bytes(&self) -> u64 {
        match self {
            NodeSource::Synthetic { .. } => 0,
            NodeSource::Exchange {
                pending, active, ..
            } => {
                pending.iter().map(|m| m.bytes).sum::<u64>()
                    + active.iter().map(|&(_, b)| b).sum::<u64>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2net_traffic::all_to_all;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn synthetic_paces_generation() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut s = NodeSource::synthetic(
            SyntheticPattern::Uniform,
            1000,
            256,
            1_000_000,
            &mut rng,
        );
        // The first birth is the random phase in [0, interval).
        let phase = match &s {
            NodeSource::Synthetic { next_birth_ps, .. } => *next_birth_ps,
            _ => unreachable!(),
        };
        assert!(phase < 1000);
        match s.next(phase, 8, 0, &mut rng) {
            NextPacket::Ready(p) => assert_eq!(p.birth_ps, phase),
            other => panic!("expected Ready, got {other:?}"),
        }
        s.consume(&mut rng);
        // Second packet is born one interval later.
        match s.next(phase, 8, 0, &mut rng) {
            NextPacket::WakeAt(t) => assert_eq!(t, phase + 1000),
            other => panic!("expected WakeAt, got {other:?}"),
        }
    }

    #[test]
    fn synthetic_stops_at_horizon() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut s =
            NodeSource::synthetic(SyntheticPattern::Uniform, 1000, 256, 5_000, &mut rng);
        let mut count = 0;
        loop {
            match s.next(u64::MAX - 1, 8, 0, &mut rng) {
                NextPacket::Ready(_) => {
                    s.consume(&mut rng);
                    count += 1;
                }
                NextPacket::Exhausted => break,
                NextPacket::WakeAt(_) => unreachable!(),
            }
        }
        // horizon/interval = 5 births (phases shift by < one interval).
        assert_eq!(count, 5);
    }

    #[test]
    fn exponential_arrivals_have_varying_gaps() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut s = NodeSource::synthetic_with(
            SyntheticPattern::Uniform,
            1_000,
            256,
            u64::MAX / 2,
            Arrival::Exponential,
            &mut rng,
        );
        let mut births = Vec::new();
        for _ in 0..200 {
            match s.next(u64::MAX / 2 - 1, 8, 0, &mut rng) {
                NextPacket::Ready(p) => {
                    births.push(p.birth_ps);
                    s.consume(&mut rng);
                }
                other => panic!("{other:?}"),
            }
        }
        let gaps: Vec<u64> = births.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!((mean - 1_000.0).abs() < 250.0, "mean gap {mean}");
        // Truly stochastic: not all gaps equal.
        assert!(gaps.iter().any(|&g| g != gaps[0]));
    }

    #[test]
    fn exchange_staged_window_one() {
        // Window 1 on A2A: messages drain strictly in phase order.
        let e = all_to_all(4, 512); // 2 packets of 256 per message
        let mut s = NodeSource::exchange(&e, 1, 1, 256);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut dsts = Vec::new();
        while let NextPacket::Ready(p) = s.next(0, 4, 1, &mut rng) {
            assert_eq!(p.bytes, 256);
            dsts.push(p.dst);
            s.consume(&mut rng);
        }
        assert_eq!(dsts, vec![2, 2, 3, 3, 0, 0]);
        assert_eq!(s.remaining_bytes(), 0);
    }

    #[test]
    fn exchange_window_interleaves() {
        let e = all_to_all(4, 512);
        let mut s = NodeSource::exchange(&e, 0, 3, 256);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut dsts = Vec::new();
        while let NextPacket::Ready(p) = s.next(0, 4, 0, &mut rng) {
            dsts.push(p.dst);
            s.consume(&mut rng);
        }
        // All three messages (to 1, 2, 3) interleave round-robin.
        assert_eq!(dsts.len(), 6);
        assert_eq!(&dsts[..3], &[1, 2, 3]);
    }

    #[test]
    fn exchange_partial_tail_packet() {
        let e = Exchange {
            sends: vec![vec![Message { dst: 1, bytes: 300 }], vec![]],
            label: "t".into(),
        };
        let mut s = NodeSource::exchange(&e, 0, 1, 256);
        let mut rng = SmallRng::seed_from_u64(7);
        let sizes: Vec<u32> = std::iter::from_fn(|| match s.next(0, 2, 0, &mut rng) {
            NextPacket::Ready(p) => {
                s.consume(&mut rng);
                Some(p.bytes)
            }
            _ => None,
        })
        .collect();
        assert_eq!(sizes, vec![256, 44]);
    }
}
