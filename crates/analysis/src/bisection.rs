//! Approximate bisection bandwidth via balanced min-cut graph
//! partitioning (paper §2.3.2, Fig. 4).
//!
//! The paper uses METIS [10]; we implement a Fiduccia–Mattheyses
//! refinement with random restarts — the same class of balanced min-cut
//! heuristic — which reproduces the reported ordering and approximate
//! magnitudes. Routers are weighted by their attached end-nodes so the
//! two halves split the *end-nodes* evenly; the cut counts router-router
//! links.

use crate::error::AnalysisError;
use d2net_topo::Network;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Result of a bisection search.
#[derive(Debug, Clone, PartialEq)]
pub struct Bisection {
    /// Number of router-router links crossing the best cut found.
    pub cut_links: u64,
    /// Bisection bandwidth per end-node, in units of link bandwidth `b`
    /// (`cut · b / (N/2)`).
    pub per_node: f64,
    /// The side assignment of the best partition (true = side B).
    pub side: Vec<bool>,
}

/// Runs FM bisection with `restarts` random starts; returns the best
/// cut, or [`AnalysisError::NotBisectable`] when the network has fewer
/// than two routers or no end-nodes to balance.
pub fn try_bisection(net: &Network, restarts: usize, seed: u64) -> Result<Bisection, AnalysisError> {
    if net.num_routers() < 2 || net.num_nodes() == 0 {
        return Err(AnalysisError::NotBisectable { routers: net.num_routers() });
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut best = fm_once(net, &mut rng);
    for _ in 1..restarts.max(1) {
        let b = fm_once(net, &mut rng);
        if b.cut_links < best.cut_links {
            best = b;
        }
    }
    Ok(best)
}

/// Panicking convenience wrapper around [`try_bisection`].
pub fn bisection(net: &Network, restarts: usize, seed: u64) -> Bisection {
    try_bisection(net, restarts, seed).unwrap_or_else(|e| panic!("{e}"))
}

fn fm_once(net: &Network, rng: &mut SmallRng) -> Bisection {
    let r = net.num_routers() as usize;
    let weights: Vec<i64> = (0..r as u32).map(|i| net.nodes_at(i) as i64).collect();
    let total_w: i64 = weights.iter().sum();
    // Balance tolerance: one router's worth of endpoints (try_bisection
    // guarantees at least one router and one end-node here).
    let max_w = weights.iter().copied().max().unwrap_or(0);
    let target = total_w / 2;

    // Random balanced initial partition by weight.
    let mut order: Vec<usize> = (0..r).collect();
    for i in (1..r).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut side = vec![false; r];
    let mut w_b = 0i64;
    for &v in &order {
        if w_b + weights[v] <= target {
            side[v] = true;
            w_b += weights[v];
        }
    }

    let cut = |side: &[bool]| -> u64 {
        net.links()
            .iter()
            .filter(|&&(a, b)| side[a as usize] != side[b as usize])
            .count() as u64
    };

    // FM passes: move the best-gain unlocked vertex that keeps balance,
    // lock it, and roll back to the best prefix.
    let mut cur_cut = cut(&side) as i64;
    loop {
        let mut locked = vec![false; r];
        let mut gains: Vec<i64> = (0..r)
            .map(|v| {
                let mut g = 0i64;
                for &n in net.neighbors(v as u32) {
                    if side[n as usize] != side[v] {
                        g += 1; // external edge: moving v removes it from the cut
                    } else {
                        g -= 1;
                    }
                }
                g
            })
            .collect();
        let mut best_prefix_cut = cur_cut;
        let mut best_prefix_len = 0usize;
        let mut moves: Vec<usize> = Vec::with_capacity(r);
        let mut running_cut = cur_cut;
        let mut wb = side
            .iter()
            .zip(&weights)
            .filter(|&(s, _)| *s)
            .map(|(_, w)| w)
            .sum::<i64>();
        for _ in 0..r {
            // Pick the max-gain movable vertex respecting balance.
            let mut pick: Option<(i64, usize)> = None;
            for v in 0..r {
                if locked[v] {
                    continue;
                }
                let new_wb = if side[v] { wb - weights[v] } else { wb + weights[v] };
                if (new_wb - target).abs() > max_w {
                    continue;
                }
                if pick.is_none_or(|(g, _)| gains[v] > g) {
                    pick = Some((gains[v], v));
                }
            }
            let Some((g, v)) = pick else { break };
            // Apply the move.
            wb = if side[v] { wb - weights[v] } else { wb + weights[v] };
            side[v] = !side[v];
            locked[v] = true;
            running_cut -= g;
            moves.push(v);
            for &n in net.neighbors(v as u32) {
                let n = n as usize;
                // v changed sides: edges to same-side-as-new neighbors
                // became internal for them, and vice versa.
                if side[n] == side[v] {
                    gains[n] -= 2;
                } else {
                    gains[n] += 2;
                }
            }
            if running_cut < best_prefix_cut {
                best_prefix_cut = running_cut;
                best_prefix_len = moves.len();
            }
        }
        // Roll back moves beyond the best prefix.
        for &v in moves.iter().skip(best_prefix_len).rev() {
            side[v] = !side[v];
        }
        if best_prefix_cut >= cur_cut {
            break;
        }
        cur_cut = best_prefix_cut;
    }

    let final_cut = cut(&side);
    // Normalize by the smaller side's end-node count: the balance
    // tolerance admits partitions one router off exact halves, and
    // dividing by N/2 would understate those cuts.
    let side_b: u64 = (0..r)
        .filter(|&v| side[v])
        .map(|v| weights[v] as u64)
        .sum();
    let min_side = side_b.min(total_w as u64 - side_b).max(1);
    Bisection {
        cut_links: final_cut,
        per_node: final_cut as f64 / min_side as f64,
        side,
    }
}

/// Verifies the partition is balanced to within one router's endpoints.
pub fn is_balanced(net: &Network, side: &[bool]) -> bool {
    let w_b: i64 = (0..net.num_routers())
        .filter(|&r| side[r as usize])
        .map(|r| net.nodes_at(r) as i64)
        .sum();
    let total: i64 = (0..net.num_routers()).map(|r| net.nodes_at(r) as i64).sum();
    let max_w = (0..net.num_routers())
        .map(|r| net.nodes_at(r) as i64)
        .max()
        .unwrap_or(0);
    (2 * w_b - total).abs() <= 2 * max_w
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2net_topo::{fat_tree2, mlfm, oft, slim_fly, SlimFlyP};

    #[test]
    fn fat_tree_has_full_bisection() {
        // A full-bisection two-level Fat-Tree: per-node bisection ≈ 1.
        let net = fat_tree2(8);
        let b = bisection(&net, 8, 1);
        assert!(is_balanced(&net, &b.side));
        assert!(
            (b.per_node - 1.0).abs() < 0.15,
            "FT2 per-node bisection ≈ 1b, got {}",
            b.per_node
        );
    }

    #[test]
    fn mlfm_is_half_bisection() {
        // Fig. 4: MLFM ≈ 0.5 b per node.
        let net = mlfm(8);
        let b = bisection(&net, 8, 2);
        assert!(is_balanced(&net, &b.side));
        assert!(
            (0.40..=0.65).contains(&b.per_node),
            "MLFM per-node bisection ≈ 0.5b, got {}",
            b.per_node
        );
    }

    #[test]
    fn fig4_ordering_at_paper_scale() {
        // Fig. 4 at the §4.1 evaluation scale (N ≈ 3.0-3.6 K):
        // OFT(k=12) > SF(q=13, p=9) > SF(q=13, p=10) > MLFM(h=15).
        // Paper values ≈ 0.81-0.89 / 0.71 / 0.67 / 0.5; our FM heuristic
        // measures 0.750 / 0.726 / 0.654 / 0.537 — same ordering, same
        // ballpark (METIS vs FM accounts for the small offsets).
        let o = bisection(&oft(12), 8, 3);
        let sf = bisection(&slim_fly(13, SlimFlyP::Floor), 8, 3);
        let sfc = bisection(&slim_fly(13, SlimFlyP::Ceil), 8, 3);
        let m = bisection(&mlfm(15), 8, 3);
        assert!(
            o.per_node > sf.per_node
                && sf.per_node > sfc.per_node
                && sfc.per_node > m.per_node,
            "expected OFT > SF(p9) > SF(p10) > MLFM, got {} / {} / {} / {}",
            o.per_node,
            sf.per_node,
            sfc.per_node,
            m.per_node
        );
        assert!(o.per_node > 0.70, "OFT, got {}", o.per_node);
        assert!((0.62..=0.82).contains(&sf.per_node), "SF ≈ 0.71b, got {}", sf.per_node);
        assert!((0.45..=0.62).contains(&m.per_node), "MLFM ≈ 0.5b, got {}", m.per_node);

        // The same claim at comparable reduced scales (N ≈ 250-400):
        // MLFM is still the lowest of the three.
        let m = bisection(&mlfm(8), 4, 1).per_node;
        let s = bisection(&slim_fly(7, SlimFlyP::Floor), 4, 1).per_node;
        let o = bisection(&oft(6), 4, 1).per_node;
        assert!(m < s && m < o, "MLFM must be lowest: {m} vs {s} / {o}");
    }

    #[test]
    fn sf_ceil_is_below_floor() {
        // More endpoints per router (p = ⌈r'/2⌉) dilute per-node bisection.
        let lo = bisection(&slim_fly(7, SlimFlyP::Ceil), 8, 4);
        let hi = bisection(&slim_fly(7, SlimFlyP::Floor), 8, 4);
        assert!(
            lo.per_node < hi.per_node,
            "ceil {} must be below floor {}",
            lo.per_node,
            hi.per_node
        );
    }

    #[test]
    fn single_router_is_not_bisectable() {
        use d2net_topo::TopologyKind;
        let net = Network::from_parts(
            TopologyKind::Custom { label: "lonely".into() },
            vec![vec![]],
            vec![4],
        );
        assert_eq!(
            try_bisection(&net, 4, 0),
            Err(crate::AnalysisError::NotBisectable { routers: 1 })
        );
    }

    #[test]
    fn partitions_are_always_balanced() {
        for net in [mlfm(4), oft(4), slim_fly(5, SlimFlyP::Floor)] {
            for seed in 0..4 {
                let b = bisection(&net, 2, seed);
                assert!(is_balanced(&net, &b.side), "{} seed {seed}", net.name());
                assert!(b.cut_links > 0);
            }
        }
    }
}
