//! Precomputed all-pairs minimal-distance and first-hop tables.
//!
//! Built once per network with BFS from every router; afterwards every
//! routing query is an O(1) index into flat arrays (a CSR layout holds the
//! variable-length first-hop choice lists).

use crate::path::RoutePath;
use d2net_topo::{Network, RouterId};
use rand::Rng;

/// All-pairs minimal routing data for one network.
#[derive(Debug, Clone)]
pub struct MinimalTables {
    r: usize,
    /// `dist[s * r + d]` = minimal hop count between routers `s` and `d`.
    dist: Vec<u8>,
    /// CSR offsets into `first_hops`, one slot per `(s, d)` pair.
    offsets: Vec<u32>,
    /// Concatenated first-hop choice lists.
    first_hops: Vec<RouterId>,
}

/// Distance sentinel for an unreachable router pair in a
/// [`MinimalTables`] built with [`MinimalTables::build_partial`].
pub const UNREACHABLE: u8 = u8::MAX;

impl MinimalTables {
    /// Builds tables for `net`. Cost: one BFS per router plus an
    /// O(R² · degree) first-hop scan. Panics if the router graph is
    /// disconnected; see [`MinimalTables::build_partial`] for the
    /// fault-tolerant variant.
    pub fn build(net: &Network) -> Self {
        let t = Self::build_partial(net);
        assert!(t.unreachable_pairs() == 0, "network is disconnected");
        t
    }

    /// Builds tables for a possibly disconnected (e.g. degraded) network:
    /// unreachable pairs get distance [`UNREACHABLE`] and an empty
    /// first-hop list, reported as data via
    /// [`MinimalTables::unreachable_pairs`] instead of a panic.
    pub fn build_partial(net: &Network) -> Self {
        let r = net.num_routers() as usize;
        let mut dist = vec![0u8; r * r];
        for s in 0..r as u32 {
            let d = net.bfs_distances(s);
            for (t, &x) in d.iter().enumerate() {
                dist[s as usize * r + t] = if x >= UNREACHABLE as u32 {
                    UNREACHABLE
                } else {
                    x as u8
                };
            }
        }
        let mut offsets = Vec::with_capacity(r * r + 1);
        let mut first_hops = Vec::new();
        offsets.push(0u32);
        for s in 0..r {
            for d in 0..r {
                if s != d && dist[s * r + d] != UNREACHABLE {
                    let target = dist[s * r + d] - 1;
                    for &n in net.neighbors(s as u32) {
                        if dist[n as usize * r + d] == target {
                            first_hops.push(n);
                        }
                    }
                }
                offsets.push(first_hops.len() as u32);
            }
        }
        MinimalTables {
            r,
            dist,
            offsets,
            first_hops,
        }
    }

    /// True if a minimal route from `s` to `d` exists.
    #[inline]
    pub fn is_reachable(&self, s: RouterId, d: RouterId) -> bool {
        self.dist(s, d) != UNREACHABLE
    }

    /// Number of ordered router pairs (`s != d`) with no surviving route.
    pub fn unreachable_pairs(&self) -> u64 {
        self.dist.iter().filter(|&&d| d == UNREACHABLE).count() as u64
    }

    /// The largest finite distance in the table — the repaired diameter
    /// of a degraded network (0 for a single router or a fully
    /// partitioned table).
    pub fn max_finite_dist(&self) -> u8 {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0)
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.r
    }

    /// Minimal hop count between `s` and `d`.
    #[inline]
    pub fn dist(&self, s: RouterId, d: RouterId) -> u8 {
        self.dist[s as usize * self.r + d as usize]
    }

    /// Minimal hop counts from `s` to every router, indexed by router —
    /// on the undirected router graph, also the counts *to* `s`.
    #[inline]
    pub fn dist_row(&self, s: RouterId) -> &[u8] {
        &self.dist[s as usize * self.r..(s as usize + 1) * self.r]
    }

    /// Neighbors of `s` that begin a minimal path to `d` (empty iff `s == d`).
    #[inline]
    pub fn first_hops(&self, s: RouterId, d: RouterId) -> &[RouterId] {
        let idx = s as usize * self.r + d as usize;
        let (a, b) = (self.offsets[idx] as usize, self.offsets[idx + 1] as usize);
        &self.first_hops[a..b]
    }

    /// Number of distinct minimal paths from `s` to `d`, counting full
    /// paths (for diameter-two pairs this equals the first-hop count).
    pub fn minimal_path_count(&self, s: RouterId, d: RouterId) -> usize {
        if s == d {
            return 0;
        }
        if self.dist(s, d) <= 2 {
            self.first_hops(s, d).len()
        } else {
            // General case: product along the DAG, summed recursively.
            self.first_hops(s, d)
                .iter()
                .map(|&n| if n == d { 1 } else { self.minimal_path_count(n, d) })
                .sum()
        }
    }

    /// Samples one minimal path from `s` to `d`, choosing uniformly among
    /// first hops at every step (paper §3.1: "select one of them at
    /// random").
    pub fn sample_min_path<R: Rng>(&self, s: RouterId, d: RouterId, rng: &mut R) -> RoutePath {
        let mut path = RoutePath::new(s);
        let mut cur = s;
        while cur != d {
            let hops = self.first_hops(cur, d);
            let next = hops[rng.gen_range(0..hops.len())];
            path.push(next);
            cur = next;
        }
        path
    }

    /// The unique minimal path when `s` and `d` are joined by exactly one;
    /// `None` if the pair has diversity > 1 (or `s == d`).
    pub fn unique_min_path(&self, s: RouterId, d: RouterId) -> Option<RoutePath> {
        if s == d {
            return None;
        }
        let mut path = RoutePath::new(s);
        let mut cur = s;
        while cur != d {
            let hops = self.first_hops(cur, d);
            if hops.len() != 1 {
                return None;
            }
            path.push(hops[0]);
            cur = hops[0];
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2net_topo::{mlfm, oft, slim_fly, SlimFlyP};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn distances_match_bfs_on_slim_fly() {
        let net = slim_fly(5, SlimFlyP::Floor);
        let t = MinimalTables::build(&net);
        for s in 0..net.num_routers() {
            let bfs = net.bfs_distances(s);
            for d in 0..net.num_routers() {
                assert_eq!(t.dist(s, d) as u32, bfs[d as usize]);
            }
        }
    }

    #[test]
    fn first_hops_advance_toward_destination() {
        let net = mlfm(3);
        let t = MinimalTables::build(&net);
        for s in 0..net.num_routers() {
            for d in 0..net.num_routers() {
                if s == d {
                    assert!(t.first_hops(s, d).is_empty());
                    continue;
                }
                let hops = t.first_hops(s, d);
                assert!(!hops.is_empty());
                for &n in hops {
                    assert!(net.are_adjacent(s, n));
                    assert_eq!(t.dist(n, d), t.dist(s, d) - 1);
                }
            }
        }
    }

    #[test]
    fn sampled_paths_are_minimal_and_valid() {
        let net = oft(3);
        let t = MinimalTables::build(&net);
        let mut rng = SmallRng::seed_from_u64(7);
        for s in 0..net.num_routers() {
            for d in 0..net.num_routers() {
                if s == d {
                    continue;
                }
                let p = t.sample_min_path(s, d, &mut rng);
                assert_eq!(p.src(), s);
                assert_eq!(p.dst(), d);
                assert_eq!(p.num_hops(), t.dist(s, d) as usize);
                for (a, b) in p.links() {
                    assert!(net.are_adjacent(a, b));
                }
            }
        }
    }

    #[test]
    fn path_counts_match_common_neighbors() {
        let net = slim_fly(5, SlimFlyP::Floor);
        let t = MinimalTables::build(&net);
        for s in 0..net.num_routers() {
            for d in 0..net.num_routers() {
                if s == d {
                    continue;
                }
                assert_eq!(t.minimal_path_count(s, d), net.shortest_path_count(s, d));
            }
        }
    }

    #[test]
    fn fat_tree_first_hop_diversity_is_full() {
        // FT2 leaves see all r/2 spines as first hops — the high-diversity
        // reference the SSPTs trade away.
        let net = d2net_topo::fat_tree2(8);
        let t = MinimalTables::build(&net);
        for a in 0..8u32 {
            for b in 0..8u32 {
                if a == b {
                    continue;
                }
                assert_eq!(t.first_hops(a, b).len(), 4);
                assert_eq!(t.minimal_path_count(a, b), 4);
            }
        }
    }

    #[test]
    fn hyperx_distances_and_paths() {
        let net = d2net_topo::hyperx2(3, 3, 1);
        let t = MinimalTables::build(&net);
        // Same row/column: distance 1; both differ: distance 2 with two
        // first hops (route through either dimension first).
        assert_eq!(t.dist(0, 1), 1);
        assert_eq!(t.dist(0, 4), 2);
        assert_eq!(t.first_hops(0, 4).len(), 2);
    }

    #[test]
    fn unique_path_detection() {
        let net = mlfm(3);
        let t = MinimalTables::build(&net);
        // LR 0 (layer 0, pos 0) and LR 5 (layer 1, pos 1): different
        // column → unique path. LR 0 and LR 4 (layer 1, pos 0): same
        // column → h = 3 paths.
        assert!(t.unique_min_path(0, 5).is_some());
        assert!(t.unique_min_path(0, 4).is_none());
        assert!(t.unique_min_path(0, 0).is_none());
    }
}
