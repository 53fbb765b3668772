//! Adversarial / worst-case permutations (paper §4.2).
//!
//! Under minimal routing each topology has a pattern that funnels the
//! traffic of whole routers over single links:
//!
//! - **Slim Fly**: routers communicate in distance-2 pairs whose routes
//!   overlap pairwise (`A→B→C` and `B→C→D` share link `B→C`, which then
//!   carries `2p` flows → 1/2p throughput). Built here with a greedy
//!   chain assignment.
//! - **MLFM**: node shift by `h` — every LR sends to an LR outside its
//!   column, overloading the unique minimal path with `h` flows → 1/h.
//! - **OFT**: node shift by `k` — every outer router sends to a
//!   non-counterpart router, `k` flows on the single path → 1/k.

use crate::patterns::{shift_pattern, SyntheticPattern};
use d2net_topo::{Network, RouterId, TopologyKind};

/// Builds the worst-case permutation for `net` under minimal routing,
/// dispatching on the topology family. Panics for families without a
/// defined worst case (HyperX/custom).
pub fn worst_case(net: &Network) -> SyntheticPattern {
    match net.kind() {
        TopologyKind::SlimFly(_) => slim_fly_worst_case(net),
        TopologyKind::Mlfm(p) => shift_pattern(net.num_nodes(), p.p),
        TopologyKind::Oft(p) => shift_pattern(net.num_nodes(), p.p),
        // Generic SSPT: shifting by one router concentrates the p flows of
        // every level-1 router on its (generically unique) minimal path.
        TopologyKind::Sspt(p) => shift_pattern(net.num_nodes(), p.p),
        k => panic!("no worst-case pattern defined for {}", k.name()),
    }
}

/// The saturation throughput (fraction of injection bandwidth) that the
/// worst-case pattern admits under minimal routing: `1/2p`, `1/h`, `1/k`
/// for SF, MLFM, OFT respectively (§4.2).
pub fn worst_case_saturation(net: &Network) -> f64 {
    match net.kind() {
        TopologyKind::SlimFly(p) => 1.0 / (2.0 * p.p as f64),
        TopologyKind::Mlfm(p) => 1.0 / p.p as f64,
        TopologyKind::Oft(p) => 1.0 / p.p as f64,
        TopologyKind::Sspt(p) => 1.0 / p.p as f64,
        k => panic!("no worst-case saturation defined for {}", k.name()),
    }
}

/// Greedy construction of the Slim Fly worst case: a router-level
/// permutation `σ` in which routers communicate in chains
/// `A → B → C → D` with `σ(A) = C`, `σ(B) = D`, where both 2-hop routes
/// are *unique* minimal paths (so minimal routing has no escape), making
/// link `B→C` carry the flows of both `A` and `B`.
///
/// Node level: node `j` of router `X` sends to node `j` of `σ(X)`.
pub fn slim_fly_worst_case(net: &Network) -> SyntheticPattern {
    let r = net.num_routers();
    let mut dst_of: Vec<Option<RouterId>> = vec![None; r as usize];
    let mut used_dst = vec![false; r as usize];

    // Distance-2 pair (x, y) with a unique common neighbor `via`.
    let unique_via = |x: RouterId, y: RouterId| -> Option<RouterId> {
        if x == y || net.are_adjacent(x, y) {
            return None;
        }
        let cn = net.common_neighbors(x, y);
        (cn.len() == 1).then(|| cn[0])
    };

    // Phase 1: greedy chain pairing A→(B)→C, B→(C)→D.
    for a in 0..r {
        if dst_of[a as usize].is_some() {
            continue;
        }
        'search: for &b in net.neighbors(a) {
            if dst_of[b as usize].is_some() {
                continue;
            }
            for &c in net.neighbors(b) {
                if used_dst[c as usize] || unique_via(a, c) != Some(b) {
                    continue;
                }
                for &d in net.neighbors(c) {
                    if d == c || used_dst[d as usize] || unique_via(b, d) != Some(c) {
                        continue;
                    }
                    if d == a {
                        // σ would map B onto A's own router while A is a
                        // source; allowed (A receives from B) but keep it —
                        // permutations may include 2-cycles across chains.
                    }
                    dst_of[a as usize] = Some(c);
                    used_dst[c as usize] = true;
                    dst_of[b as usize] = Some(d);
                    used_dst[d as usize] = true;
                    break 'search;
                }
            }
        }
    }

    // Phase 2: any leftover routers get a best-effort distance-2 partner
    // with a unique path; Phase 3 falls back to any free destination.
    for a in 0..r {
        if dst_of[a as usize].is_some() {
            continue;
        }
        let pick = (0..r)
            .find(|&c| !used_dst[c as usize] && unique_via(a, c).is_some())
            .or_else(|| (0..r).find(|&c| c != a && !used_dst[c as usize]));
        let c = pick.expect("a free destination always exists");
        dst_of[a as usize] = Some(c);
        used_dst[c as usize] = true;
    }

    // Expand to node level; all SF routers carry the same p.
    let p = net.nodes_at(0);
    let mut perm = vec![0u32; net.num_nodes() as usize];
    for a in 0..r {
        let c = dst_of[a as usize].unwrap();
        let (src_base, dst_base) = (
            net.router_nodes(a).start,
            net.router_nodes(c).start,
        );
        for j in 0..p {
            perm[(src_base + j) as usize] = dst_base + j;
        }
    }
    SyntheticPattern::Permutation(perm)
}

/// The worst-case pattern that *exactly* attains the paper's §4.2
/// closed-form saturation under minimal routing — `1/h` and `1/k` come
/// straight from the shift patterns; for Slim Fly this builds a
/// permutation that loads one link with exactly `2p` full flows (the
/// greedy chain of [`slim_fly_worst_case`] tops out at `2p − 2`).
/// `None` when the construction finds no suitable link (possible on the
/// girth-4 Hafner extensions, where unique-midpoint pairs are scarcer)
/// or the family has no defined worst case.
pub fn worst_case_exact(net: &Network) -> Option<SyntheticPattern> {
    match net.kind() {
        TopologyKind::SlimFly(_) => slim_fly_saturating_worst_case(net),
        TopologyKind::Mlfm(_) | TopologyKind::Oft(_) | TopologyKind::Sspt(_) => {
            Some(worst_case(net))
        }
        _ => None,
    }
}

/// Builds a Slim Fly permutation whose hottest link carries exactly
/// `2p` unsplittable flows (§4.2's `1/2p` bound, attained):
///
/// - pick an adjacent router pair `(a, b)`;
/// - `a`'s `p` nodes send to `p` distinct routers `d ∈ N(b)` whose
///   *only* common neighbor with `a` is `b`, putting `p` full flows on
///   `a→b` (on the girth-5 Hoffman–Singleton graph, q = 5, every
///   neighbor of `b` other than `a` qualifies; larger MMS graphs have
///   triangles and quadrilaterals, so the search filters for them);
/// - `p` routers `s ∈ N(a)` whose only common neighbor with `b` is `a`
///   each send one node's flow to `b`'s nodes — `p` more full flows on
///   `a→b`;
/// - every remaining node pairs up in a rotation, which can never touch
///   `a→b` (a minimal route crosses it only when the source router is
///   `a` or the destination router is `b`, and those endpoints are
///   exhausted above).
pub fn slim_fly_saturating_worst_case(net: &Network) -> Option<SyntheticPattern> {
    let p = net.nodes_at(0);
    if p == 0 {
        return None;
    }
    let unique_mid = |x: RouterId, y: RouterId, mid: RouterId| -> bool {
        x != y && !net.are_adjacent(x, y) && net.common_neighbors(x, y) == vec![mid]
    };
    for (a, b) in net.links() {
        // The link is undirected; try both orientations.
        for (a, b) in [(a, b), (b, a)] {
            let dsts: Vec<RouterId> = net
                .neighbors(b)
                .iter()
                .copied()
                .filter(|&d| d != a && unique_mid(a, d, b))
                .take(p as usize)
                .collect();
            let srcs: Vec<RouterId> = net
                .neighbors(a)
                .iter()
                .copied()
                .filter(|&s| s != b && unique_mid(s, b, a))
                .take(p as usize)
                .collect();
            if dsts.len() < p as usize || srcs.len() < p as usize {
                continue;
            }
            if let Some(pat) = assemble_saturating(net, a, b, &srcs, &dsts) {
                return Some(pat);
            }
        }
    }
    None
}

/// Expands the router-level plan of [`slim_fly_saturating_worst_case`]
/// to a fixed-point-free node permutation, or `None` when the leftover
/// rotation cannot avoid a self-send (only possible on degenerate
/// remainders; the caller then tries another link).
fn assemble_saturating(
    net: &Network,
    a: RouterId,
    b: RouterId,
    srcs: &[RouterId],
    dsts: &[RouterId],
) -> Option<SyntheticPattern> {
    let n = net.num_nodes();
    const UNSET: u32 = u32::MAX;
    let mut perm = vec![UNSET; n as usize];
    let mut dst_used = vec![false; n as usize];
    // a's nodes → the first node of each chosen destination router.
    for (j, &d) in dsts.iter().enumerate() {
        let src_node = net.router_nodes(a).start + j as u32;
        let dst_node = net.router_nodes(d).start;
        perm[src_node as usize] = dst_node;
        dst_used[dst_node as usize] = true;
    }
    // One node of each chosen source router → b's nodes.
    for (j, &s) in srcs.iter().enumerate() {
        let src_node = net.router_nodes(s).start;
        let dst_node = net.router_nodes(b).start + j as u32;
        perm[src_node as usize] = dst_node;
        dst_used[dst_node as usize] = true;
    }
    // Rotation over the leftovers, repaired to stay fixed-point free.
    let rem_src: Vec<u32> = (0..n).filter(|&i| perm[i as usize] == UNSET).collect();
    let rem_dst: Vec<u32> = (0..n).filter(|&i| !dst_used[i as usize]).collect();
    debug_assert_eq!(rem_src.len(), rem_dst.len());
    let m = rem_src.len();
    let mut target: Vec<u32> = (0..m).map(|i| rem_dst[(i + 1) % m.max(1)]).collect();
    for i in 0..m {
        if rem_src[i] == target[i] {
            if m < 2 {
                return None;
            }
            let j = (i + 1) % m;
            target.swap(i, j);
            // Both lists are sorted, so the swapped assignments cannot
            // introduce a new fixed point (see sorted-rotation argument).
            if rem_src[i] == target[i] || rem_src[j] == target[j] {
                return None;
            }
        }
    }
    for (i, &s) in rem_src.iter().enumerate() {
        perm[s as usize] = target[i];
    }
    debug_assert!(perm.iter().all(|&d| d != UNSET));
    let pat = SyntheticPattern::Permutation(perm);
    pat.is_valid_permutation(n).then_some(pat)
}

/// Counts, for a router-level interpretation of a permutation pattern
/// under *unique-path* minimal routing, the maximum number of flows that
/// share a directed link. Used to verify adversarial pressure.
pub fn max_link_flows(net: &Network, pattern: &SyntheticPattern) -> u32 {
    let perm = match pattern {
        SyntheticPattern::Permutation(p) => p,
        _ => panic!("flow counting requires a permutation"),
    };
    use std::collections::HashMap;
    let mut flows: HashMap<(RouterId, RouterId), u32> = HashMap::new();
    for (src, &dst) in perm.iter().enumerate() {
        let (rs, rd) = (net.node_router(src as u32), net.node_router(dst));
        if rs == rd {
            continue;
        }
        if net.are_adjacent(rs, rd) {
            *flows.entry((rs, rd)).or_default() += 1;
        } else {
            // Attribute the flow to all minimal paths' links, weighted as
            // the worst case: a unique path takes the whole flow; for
            // diversity > 1 assume perfect splitting (conservative).
            let cn = net.common_neighbors(rs, rd);
            let share = 1.0 / cn.len() as f64;
            if share == 1.0 {
                let via = cn[0];
                *flows.entry((rs, via)).or_default() += 1;
                *flows.entry((via, rd)).or_default() += 1;
            }
        }
    }
    flows.values().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2net_topo::{mlfm, oft, slim_fly, MlfmLayout, SlimFlyP};

    #[test]
    fn sf_worst_case_is_permutation_with_overloaded_links() {
        for q in [5u64, 7, 13] {
            let net = slim_fly(q, SlimFlyP::Floor);
            let pat = slim_fly_worst_case(&net);
            assert!(pat.is_valid_permutation(net.num_nodes()), "q={q}");
            let p = net.nodes_at(0);
            let worst = max_link_flows(&net, &pat);
            // The chain construction drives some link to 2p flows.
            assert!(
                worst >= 2 * p - 2,
                "q={q}: expected ≈{} flows on the hottest link, got {worst}",
                2 * p
            );
        }
    }

    #[test]
    fn sf_worst_case_pairs_are_distance_two() {
        let net = slim_fly(5, SlimFlyP::Floor);
        let pat = slim_fly_worst_case(&net);
        let perm = match &pat {
            SyntheticPattern::Permutation(p) => p,
            _ => unreachable!(),
        };
        let mut distance2 = 0;
        let mut total = 0;
        for (s, &d) in perm.iter().enumerate() {
            let (rs, rd) = (net.node_router(s as u32), net.node_router(d));
            total += 1;
            if !net.are_adjacent(rs, rd) && rs != rd {
                distance2 += 1;
            }
        }
        // The greedy phase covers almost all routers; allow a small
        // fallback remainder.
        assert!(
            distance2 as f64 >= 0.9 * total as f64,
            "only {distance2}/{total} flows at distance 2"
        );
    }

    #[test]
    fn mlfm_worst_case_crosses_columns() {
        let h = 4u64;
        let net = mlfm(h);
        let pat = worst_case(&net);
        assert!(pat.is_valid_permutation(net.num_nodes()));
        let perm = match &pat {
            SyntheticPattern::Permutation(p) => p,
            _ => unreachable!(),
        };
        let layout = MlfmLayout { h, l: h };
        for (s, &d) in perm.iter().enumerate() {
            let (rs, rd) = (net.node_router(s as u32), net.node_router(d));
            assert_ne!(rs, rd, "self-router traffic would not stress the network");
            let (_, ps) = layout.lr_coords(rs);
            let (_, pd) = layout.lr_coords(rd);
            assert_ne!(ps, pd, "worst case must avoid same-column pairs (h paths)");
        }
        assert_eq!(max_link_flows(&net, &pat), h as u32);
    }

    #[test]
    fn oft_worst_case_avoids_counterparts() {
        let k = 4u64;
        let net = oft(k);
        let pat = worst_case(&net);
        assert!(pat.is_valid_permutation(net.num_nodes()));
        let perm = match &pat {
            SyntheticPattern::Permutation(p) => p,
            _ => unreachable!(),
        };
        let rl = d2net_topo::oft::routers_per_level(k) as u32;
        for (s, &d) in perm.iter().enumerate() {
            let (rs, rd) = (net.node_router(s as u32), net.node_router(d));
            assert_ne!(rs, rd);
            // Counterpart pairs (0,i)/(2,i) have k paths; the shift must
            // never produce one.
            assert_ne!(rs % rl, rd % rl, "shift hit a counterpart/self pair");
        }
        assert_eq!(max_link_flows(&net, &pat), k as u32);
    }

    #[test]
    fn generic_sspt_worst_case() {
        let net = d2net_topo::stacked_sspt(4, 4, 4);
        let pat = worst_case(&net);
        assert!(pat.is_valid_permutation(net.num_nodes()));
        assert!((worst_case_saturation(&net) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn saturating_worst_case_attains_exactly_2p() {
        // δ = 1 MMS instances (q ≡ 1 mod 4): girth 5 at q = 5 (the
        // Hoffman–Singleton graph), short cycles at q = 13. Either way the
        // exact construction must land exactly 2p unsplittable flows on
        // one link.
        for q in [5u64, 13] {
            let net = slim_fly(q, SlimFlyP::Floor);
            let pat = slim_fly_saturating_worst_case(&net)
                .unwrap_or_else(|| panic!("q={q}: construction must succeed on δ = 1 MMS"));
            assert!(pat.is_valid_permutation(net.num_nodes()), "q={q}");
            let p = net.nodes_at(0);
            assert_eq!(max_link_flows(&net, &pat), 2 * p, "q={q}");
        }
    }

    #[test]
    fn worst_case_exact_dispatch() {
        assert!(worst_case_exact(&mlfm(4)).is_some());
        assert!(worst_case_exact(&oft(4)).is_some());
        assert!(worst_case_exact(&d2net_topo::fat_tree2(4)).is_none());
    }

    #[test]
    fn saturation_formulas() {
        let sf = slim_fly(13, SlimFlyP::Floor);
        assert!((worst_case_saturation(&sf) - 1.0 / 18.0).abs() < 1e-12);
        let m = mlfm(15);
        assert!((worst_case_saturation(&m) - 1.0 / 15.0).abs() < 1e-12);
        let o = oft(12);
        assert!((worst_case_saturation(&o) - 1.0 / 12.0).abs() < 1e-12);
    }
}
