//! Output checks, computed apart from the simulator.
//!
//! Every function here takes plain numbers (or the benchmark's own input
//! lists) and returns `Err` with a one-line reason when a program output
//! breaks a property it must have. The expected values come from the
//! §4.1 table, closed forms, the benchmark's own BFS and message lists,
//! or the analytic oracle — never from the simulator being checked.

use d2net_core::topo::Network;
use d2net_core::traffic::Message;

/// Outcome of one check: `Err` carries the reason it failed.
pub type Check = Result<(), String>;

/// Relative slack for comparing a simulated rate with a bound. Accepted
/// throughput is measured over a finite window, so packets generated
/// just before the window opens may land inside it.
const RATE_SLACK: f64 = 0.01;

/// Accepted throughput stays at or below the offered load and the
/// oracle's predicted saturation on the same route tables.
pub fn throughput_within(
    label: &str,
    accepted: f64,
    offered: f64,
    oracle_saturation: f64,
) -> Check {
    let bound = offered.min(oracle_saturation);
    if !accepted.is_finite() || accepted <= 0.0 {
        return Err(format!(
            "{label}: accepted throughput {accepted} is not positive"
        ));
    }
    if accepted > bound * (1.0 + RATE_SLACK) {
        return Err(format!(
            "{label}: accepted throughput {accepted:.6} above min(offered {offered:.6}, \
             oracle saturation {oracle_saturation:.6})"
        ));
    }
    Ok(())
}

/// A measured rate matches a predicted one within `rel_tol`.
pub fn matches(label: &str, measured: f64, predicted: f64, rel_tol: f64) -> Check {
    if (measured - predicted).abs() <= rel_tol * predicted.abs() {
        Ok(())
    } else {
        Err(format!(
            "{label}: measured {measured:.6} differs from predicted {predicted:.6} by more than {:.1}%",
            rel_tol * 100.0
        ))
    }
}

/// Two values agree to an absolute tolerance (exact analytic results).
pub fn close(label: &str, got: f64, want: f64, abs_tol: f64) -> Check {
    if (got - want).abs() <= abs_tol {
        Ok(())
    } else {
        Err(format!(
            "{label}: got {got:.12}, want {want:.12} (tolerance {abs_tol:e})"
        ))
    }
}

/// A simulated mean delay is at least the zero-load latency the oracle
/// predicts for the same traffic.
pub fn delay_at_least(label: &str, delay_ns: f64, zero_load_ns: f64) -> Check {
    if delay_ns.is_finite() && delay_ns >= zero_load_ns {
        Ok(())
    } else {
        Err(format!(
            "{label}: mean delay {delay_ns:.3} ns below zero-load latency {zero_load_ns:.3} ns"
        ))
    }
}

/// Totals an exchange must deliver, computed from its message lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeTotals {
    pub bytes: u64,
    pub packets: u64,
    /// Largest byte count any single node sends or receives: its
    /// injection or ejection link must serialize at least that much.
    pub max_node_bytes: u64,
}

impl ExchangeTotals {
    pub fn from_messages(sends: &[Vec<Message>], packet_bytes: u32) -> Self {
        let mut received = vec![0u64; sends.len()];
        let mut totals = ExchangeTotals {
            bytes: 0,
            packets: 0,
            max_node_bytes: 0,
        };
        for list in sends {
            let mut sent = 0u64;
            for m in list {
                sent += m.bytes;
                received[m.dst as usize] += m.bytes;
                totals.packets += m.bytes.div_ceil(packet_bytes as u64);
            }
            totals.bytes += sent;
            totals.max_node_bytes = totals.max_node_bytes.max(sent);
        }
        totals.max_node_bytes = totals
            .max_node_bytes
            .max(received.into_iter().max().unwrap_or(0));
        totals
    }
}

/// Delivered bytes and packets equal the totals of the message lists.
pub fn delivered_all(label: &str, bytes: u64, packets: u64, want: &ExchangeTotals) -> Check {
    if bytes == want.bytes && packets == want.packets {
        Ok(())
    } else {
        Err(format!(
            "{label}: delivered {bytes} B in {packets} packets, message lists hold {} B in {} packets",
            want.bytes, want.packets
        ))
    }
}

/// Completion time is at least the time the busiest node's link needs
/// to serialize its bytes.
pub fn completion_at_least(
    label: &str,
    completion_ns: u64,
    max_node_bytes: u64,
    ps_per_byte: u64,
) -> Check {
    let bound_ns = max_node_bytes * ps_per_byte / 1_000;
    if completion_ns >= bound_ns {
        Ok(())
    } else {
        Err(format!(
            "{label}: completed in {completion_ns} ns, serialization bound is {bound_ns} ns"
        ))
    }
}

/// Nodes, routers and radix match a published configuration.
pub fn shape(label: &str, got: (u32, u32, u32), want: (u32, u32, u32)) -> Check {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{label}: (N, R, radix) = {got:?}, §4.1 gives {want:?}"
        ))
    }
}

/// Largest router-hop distance between two routers that host
/// endpoints, by breadth-first search over the adjacency lists.
pub fn endpoint_diameter(net: &Network) -> u32 {
    let r = net.num_routers() as usize;
    let hosts: Vec<bool> = (0..r as u32).map(|x| net.nodes_at(x) > 0).collect();
    let mut dist = vec![u32::MAX; r];
    let mut queue = Vec::with_capacity(r);
    let mut diameter = 0;
    for src in (0..r).filter(|&s| hosts[s]) {
        dist.fill(u32::MAX);
        queue.clear();
        dist[src] = 0;
        queue.push(src as u32);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in net.neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    queue.push(v);
                }
            }
        }
        for (d, _) in dist.iter().zip(&hosts).filter(|(_, &h)| h) {
            diameter = diameter.max(*d);
        }
    }
    diameter
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2net_core::topo::{mlfm, oft, slim_fly, SlimFlyP};
    use d2net_core::traffic::all_to_all;

    #[test]
    fn throughput_above_the_oracle_bound_fails() {
        assert!(throughput_within("ok", 0.066, 0.15, 1.0 / 15.0).is_ok());
        // Planted: a worst-case point claiming twice the 1/h bound.
        assert!(throughput_within("planted", 2.0 / 15.0, 0.15, 1.0 / 15.0).is_err());
        // Planted: more accepted than offered.
        assert!(throughput_within("planted", 0.6, 0.5, 1.0).is_err());
        assert!(throughput_within("planted", 0.0, 0.5, 1.0).is_err());
    }

    #[test]
    fn missing_message_fails_the_delivery_check() {
        let ex = all_to_all(6, 7_500);
        let full = ExchangeTotals::from_messages(&ex.sends, 256);
        assert_eq!(full.bytes, 6 * 5 * 7_500);
        assert_eq!(full.packets, 6 * 5 * 30);
        assert!(delivered_all("ok", full.bytes, full.packets, &full).is_ok());
        // Planted: the simulator delivered every list but one message.
        let mut short = ex.sends.clone();
        short[3].pop();
        let want = ExchangeTotals::from_messages(&ex.sends, 256);
        let got = ExchangeTotals::from_messages(&short, 256);
        assert!(delivered_all("planted", got.bytes, got.packets, &want).is_err());
    }

    #[test]
    fn completion_faster_than_serialization_fails() {
        let t = ExchangeTotals::from_messages(&all_to_all(4, 1_000).sends, 256);
        assert_eq!(t.max_node_bytes, 3_000);
        // 3000 B at 80 ps/B take 240 ns.
        assert!(completion_at_least("ok", 240, t.max_node_bytes, 80).is_ok());
        assert!(completion_at_least("planted", 239, t.max_node_bytes, 80).is_err());
    }

    #[test]
    fn wrong_node_count_fails_the_shape_check() {
        let net = mlfm(15);
        let got = (net.num_nodes(), net.num_routers(), net.radix(0));
        assert!(shape("ok", got, (3600, 360, 30)).is_ok());
        assert!(shape("planted", (3599, 360, 30), (3600, 360, 30)).is_err());
    }

    #[test]
    fn low_delay_and_wrong_saturation_fail() {
        assert!(delay_at_least("ok", 600.0, 560.96).is_ok());
        assert!(delay_at_least("planted", 500.0, 560.96).is_err());
        assert!(delay_at_least("planted", f64::NAN, 560.96).is_err());
        assert!(close("ok", 1.0 / 18.0, 1.0 / 18.0, 1e-9).is_ok());
        assert!(close("planted", 1.0 / 16.0, 1.0 / 18.0, 1e-9).is_err());
        assert!(matches("ok", 0.0664, 1.0 / 15.0, 0.03).is_ok());
        assert!(matches("planted", 0.05, 1.0 / 15.0, 0.03).is_err());
    }

    #[test]
    fn own_bfs_finds_diameter_two() {
        for net in [slim_fly(5, SlimFlyP::Floor), mlfm(4), oft(4)] {
            assert_eq!(endpoint_diameter(&net), 2, "{}", net.name());
        }
    }
}
