//! Channel dependency graph (CDG) construction and acyclicity checking —
//! the formal tool behind the paper's deadlock-freedom arguments (§3.4,
//! after Dally & Towles).
//!
//! A *channel* is a directed router-to-router link paired with a VC. A
//! route that uses channel `c1` immediately followed by channel `c2`
//! induces the dependency `c1 → c2`; routing is deadlock-free if the
//! union of dependencies over every route the policy can produce is
//! acyclic.
//!
//! [`try_build_cdg`] streams that union straight from the minimal tables
//! and never materialises a route, so it runs at paper scale.
//! [`for_each_policy_route`] enumerates the same route space route by
//! route: the reference the streamed graph is tested against, and the
//! source of the concrete routes a rejected config's report names.

use crate::path::{RoutePath, MAX_PATH_ROUTERS};
use crate::policy::{vc_for_hop, Algorithm, RouteChoice, RoutePolicy, VcScheme};
use crate::tables::{MinimalTables, UNREACHABLE};
use d2net_topo::{Network, RouterId};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::ControlFlow;

/// A channel lookup or route registration that does not fit the network
/// the CDG was built for. Surfaced as a value (not a panic) so static
/// analysis can report broken adjacency as a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// The route claims a link the network does not have.
    MissingLink { from: RouterId, to: RouterId },
    /// A VC label at or beyond the provisioned VC count.
    VcOutOfRange { vc: u8, num_vcs: u8 },
    /// A route's VC label list does not cover its hops one-to-one.
    LabelMismatch { hops: usize, labels: usize },
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::MissingLink { from, to } => {
                write!(f, "no link {from} -> {to} in the network adjacency")
            }
            ChannelError::VcOutOfRange { vc, num_vcs } => {
                write!(f, "VC {vc} out of range (provisioned {num_vcs})")
            }
            ChannelError::LabelMismatch { hops, labels } => {
                write!(f, "route has {hops} hops but {labels} VC labels")
            }
        }
    }
}

impl std::error::Error for ChannelError {}

/// A CDG over `channels = directed links × VCs`.
pub struct ChannelGraph {
    /// Per-router offset into the directed-edge id space.
    edge_offset: Vec<u32>,
    /// Neighbor lists (mirrors the network adjacency) for edge-id lookup.
    neighbors: Vec<Vec<RouterId>>,
    num_vcs: u8,
    /// Dependency adjacency: `deps[c1]` lists the channels reachable from
    /// `c1`, ascending and without repeats. The lists are canonical, so
    /// the same dependency set gives the same graph — and the same
    /// [`ChannelGraph::find_cycle`] witness — whatever order it was
    /// registered in.
    deps: Vec<Vec<u32>>,
}

impl ChannelGraph {
    /// Creates an empty CDG for `net` with `num_vcs` virtual channels.
    pub fn new(net: &Network, num_vcs: u8) -> Self {
        assert!(num_vcs >= 1);
        let r = net.num_routers();
        let mut edge_offset = Vec::with_capacity(r as usize);
        let mut neighbors = Vec::with_capacity(r as usize);
        let mut total = 0u32;
        for u in 0..r {
            edge_offset.push(total);
            let nb = net.neighbors(u).to_vec();
            total += nb.len() as u32;
            neighbors.push(nb);
        }
        ChannelGraph {
            edge_offset,
            neighbors,
            num_vcs,
            deps: vec![Vec::new(); total as usize * num_vcs as usize],
        }
    }

    /// Directed-edge id of link `(u, v)`.
    fn edge(&self, u: RouterId, v: RouterId) -> Result<u32, ChannelError> {
        let nb = self
            .neighbors
            .get(u as usize)
            .ok_or(ChannelError::MissingLink { from: u, to: v })?;
        let j = nb
            .binary_search(&v)
            .map_err(|_| ChannelError::MissingLink { from: u, to: v })?;
        Ok(self.edge_offset[u as usize] + j as u32)
    }

    /// Channel id of directed edge `edge` on `vc`.
    fn on_vc(&self, edge: u32, vc: u8) -> Result<u32, ChannelError> {
        if vc >= self.num_vcs {
            return Err(ChannelError::VcOutOfRange {
                vc,
                num_vcs: self.num_vcs,
            });
        }
        Ok(edge * self.num_vcs as u32 + vc as u32)
    }

    /// Channel id of directed link `(u, v)` on `vc`, or a [`ChannelError`]
    /// if the link or VC does not exist in this network.
    pub fn channel(&self, u: RouterId, v: RouterId, vc: u8) -> Result<u32, ChannelError> {
        self.on_vc(self.edge(u, v)?, vc)
    }

    /// Inverse of [`ChannelGraph::channel`]: channel id back to
    /// `(from, to, vc)`.
    pub fn decode(&self, c: u32) -> (RouterId, RouterId, u8) {
        let vc = (c % self.num_vcs as u32) as u8;
        let edge = c / self.num_vcs as u32;
        let u = self.edge_offset.partition_point(|&off| off <= edge) - 1;
        let v = self.neighbors[u][(edge - self.edge_offset[u]) as usize];
        (u as RouterId, v, vc)
    }

    /// Total channel count.
    pub fn num_channels(&self) -> usize {
        self.deps.len()
    }

    /// VC count the graph was provisioned with.
    pub fn num_vcs(&self) -> u8 {
        self.num_vcs
    }

    /// Channels that `c` depends on, in ascending order.
    pub fn deps_of(&self, c: u32) -> &[u32] {
        &self.deps[c as usize]
    }

    /// Registers the dependency `c1 → c2` once, keeping `deps[c1]` sorted.
    fn add_dep(&mut self, c1: u32, c2: u32) {
        let ds = &mut self.deps[c1 as usize];
        if let Err(pos) = ds.binary_search(&c2) {
            ds.insert(pos, c2);
        }
    }

    /// Replaces the dependency lists with the `(c1, c2)` pairs of `deps`,
    /// each list sorted and deduplicated.
    fn set_deps(&mut self, deps: Vec<(u32, u32)>) {
        let mut len = vec![0usize; self.deps.len()];
        for &(c1, _) in &deps {
            len[c1 as usize] += 1;
        }
        for (ds, &n) in self.deps.iter_mut().zip(&len) {
            *ds = Vec::with_capacity(n);
        }
        for (c1, c2) in deps {
            self.deps[c1 as usize].push(c2);
        }
        for ds in &mut self.deps {
            ds.sort_unstable();
            ds.dedup();
        }
    }

    /// Registers the dependencies induced by one route: consecutive
    /// `(link, vc)` pairs along the path. Duplicate dependencies are
    /// stored once.
    pub fn add_route(&mut self, path: &RoutePath, vcs: &[u8]) -> Result<(), ChannelError> {
        if vcs.len() != path.num_hops() {
            return Err(ChannelError::LabelMismatch {
                hops: path.num_hops(),
                labels: vcs.len(),
            });
        }
        let routers = path.routers();
        for i in 0..path.num_hops().saturating_sub(1) {
            let c1 = self.channel(routers[i], routers[i + 1], vcs[i])?;
            let c2 = self.channel(routers[i + 1], routers[i + 2], vcs[i + 1])?;
            self.add_dep(c1, c2);
        }
        Ok(())
    }

    /// True if the dependency graph contains no cycle (iterative
    /// three-color DFS).
    pub fn is_acyclic(&self) -> bool {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = self.deps.len();
        let mut color = vec![Color::White; n];
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..n as u32 {
            if color[start as usize] != Color::White {
                continue;
            }
            color[start as usize] = Color::Gray;
            stack.push((start, 0));
            while let Some(&mut (u, ref mut i)) = stack.last_mut() {
                if *i < self.deps[u as usize].len() {
                    let v = self.deps[u as usize][*i];
                    *i += 1;
                    match color[v as usize] {
                        Color::White => {
                            color[v as usize] = Color::Gray;
                            stack.push((v, 0));
                        }
                        Color::Gray => return false,
                        Color::Black => {}
                    }
                } else {
                    color[u as usize] = Color::Black;
                    stack.pop();
                }
            }
        }
        true
    }

    /// Extracts a concrete deadlock counterexample: a shortest dependency
    /// cycle, as channel ids in order (`out[i] → out[i+1]`, last wrapping
    /// to first). Returns `None` iff the graph is acyclic.
    ///
    /// An acyclic graph is settled by the linear [`ChannelGraph::is_acyclic`]
    /// pass alone. Otherwise the cycle is found by strongly-connected-component
    /// decomposition followed by BFS from members of the smallest non-trivial
    /// SCC, so it is a shortest cycle within that component (on very large
    /// cyclic components the BFS start set is capped at 512 members, keeping
    /// the search near-linear while still producing a short witness).
    pub fn find_cycle(&self) -> Option<Vec<u32>> {
        if self.is_acyclic() {
            return None;
        }
        let n = self.deps.len();
        // Self-dependencies cannot arise from real routes (a hop leaves
        // the router the previous hop entered), but a one-channel cycle is
        // the shortest possible counterexample, so check anyway.
        for (c, ds) in self.deps.iter().enumerate() {
            if ds.contains(&(c as u32)) {
                return Some(vec![c as u32]);
            }
        }

        // Kosaraju: order by reverse finish time on the forward graph,
        // then peel components off the transposed graph.
        let mut order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..n as u32 {
            if visited[start as usize] {
                continue;
            }
            visited[start as usize] = true;
            stack.push((start, 0));
            while let Some(&mut (u, ref mut i)) = stack.last_mut() {
                if *i < self.deps[u as usize].len() {
                    let v = self.deps[u as usize][*i];
                    *i += 1;
                    if !visited[v as usize] {
                        visited[v as usize] = true;
                        stack.push((v, 0));
                    }
                } else {
                    order.push(u);
                    stack.pop();
                }
            }
        }
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (u, ds) in self.deps.iter().enumerate() {
            for &v in ds {
                rev[v as usize].push(u as u32);
            }
        }
        const NO_COMP: u32 = u32::MAX;
        let mut comp = vec![NO_COMP; n];
        let mut comp_members: Vec<Vec<u32>> = Vec::new();
        let mut dfs: Vec<u32> = Vec::new();
        for &start in order.iter().rev() {
            if comp[start as usize] != NO_COMP {
                continue;
            }
            let id = comp_members.len() as u32;
            let mut members = Vec::new();
            comp[start as usize] = id;
            dfs.push(start);
            while let Some(u) = dfs.pop() {
                members.push(u);
                for &v in &rev[u as usize] {
                    if comp[v as usize] == NO_COMP {
                        comp[v as usize] = id;
                        dfs.push(v);
                    }
                }
            }
            comp_members.push(members);
        }

        // Smallest component that can host a cycle.
        let scc = comp_members
            .iter()
            .filter(|m| m.len() > 1)
            .min_by_key(|m| m.len())?;
        let scc_id = comp[scc[0] as usize];

        // Shortest cycle through any of (up to 512 of) its members: BFS
        // restricted to the component, looking for a path back to the
        // start node.
        let stride = scc.len().div_ceil(512);
        let mut best: Option<Vec<u32>> = None;
        let mut parent: Vec<u32> = vec![NO_COMP; n];
        let mut queue: std::collections::VecDeque<(u32, u32)> = std::collections::VecDeque::new();
        for &src in scc.iter().step_by(stride) {
            if let Some(ref b) = best {
                if b.len() <= 2 {
                    break;
                }
            }
            for &m in scc.iter() {
                parent[m as usize] = NO_COMP;
            }
            queue.clear();
            queue.push_back((src, 0));
            'bfs: while let Some((u, depth)) = queue.pop_front() {
                if let Some(ref b) = best {
                    if depth + 1 >= b.len() as u32 {
                        break;
                    }
                }
                for &v in &self.deps[u as usize] {
                    if v == src {
                        // Closed a cycle: src → … → u → src.
                        let mut cyc = vec![u];
                        let mut cur = u;
                        while cur != src {
                            cur = parent[cur as usize];
                            cyc.push(cur);
                        }
                        cyc.reverse();
                        best = Some(cyc);
                        break 'bfs;
                    }
                    if comp[v as usize] == scc_id && parent[v as usize] == NO_COMP {
                        parent[v as usize] = u;
                        queue.push_back((v, depth + 1));
                    }
                }
            }
        }
        debug_assert!(best.is_some(), "non-trivial SCC must contain a cycle");
        best
    }
}

/// Enumerates every minimal path between `s` and `d` (DFS over the
/// first-hop DAG).
pub fn enumerate_min_paths(tables: &MinimalTables, s: RouterId, d: RouterId) -> Vec<RoutePath> {
    fn rec(tables: &MinimalTables, cur: RouterId, d: RouterId, prefix: RoutePath, out: &mut Vec<RoutePath>) {
        if cur == d {
            out.push(prefix);
            return;
        }
        for &n in tables.first_hops(cur, d) {
            let mut p = prefix;
            p.push(n);
            rec(tables, n, d, p, out);
        }
    }
    let mut out = Vec::new();
    if s != d {
        rec(tables, s, d, RoutePath::new(s), &mut out);
    }
    out
}

/// Longest route, in hops, a [`RoutePath`] can carry.
const MAX_HOPS: usize = MAX_PATH_ROUTERS - 1;

/// Visits every route `policy` can produce, with its per-hop VC labels:
/// all minimal paths for every endpoint-router pair `(s, d)`, then — for
/// indirect-capable algorithms — all `minimal ∘ minimal` compositions
/// through every eligible intermediate, by `(s, m, d)`. The order is
/// fixed; `f` stops the walk by returning `Break`. Exhaustive, so only
/// feasible on small networks or for searches that stop early.
pub fn for_each_policy_route(
    net: &Network,
    policy: &RoutePolicy,
    mut f: impl FnMut(&RouteChoice, &[u8]) -> ControlFlow<()>,
) {
    let _ = visit_policy_routes(net, policy, &mut f);
}

fn visit_policy_routes(
    net: &Network,
    policy: &RoutePolicy,
    f: &mut dyn FnMut(&RouteChoice, &[u8]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let tables = policy.tables();
    let mut vcs = Vec::with_capacity(MAX_HOPS);
    let mut visit = |path: RoutePath, phase_hops: u8, indirect: bool| {
        let choice = RouteChoice {
            path,
            phase_hops,
            indirect,
        };
        vcs.clear();
        vcs.extend((0..path.num_hops()).map(|h| policy.vc_for_hop(&choice, h)));
        f(&choice, &vcs)
    };
    let endpoint_routers = net.endpoint_routers();
    for &s in &endpoint_routers {
        for &d in &endpoint_routers {
            if s == d {
                continue;
            }
            for p in enumerate_min_paths(tables, s, d) {
                visit(p, p.num_hops() as u8, false)?;
            }
        }
    }
    if matches!(policy.algorithm(), Algorithm::Minimal) {
        return ControlFlow::Continue(());
    }
    // Indirect routes, through exactly the intermediates the policy may
    // sample (this respects `with_overrides` ablations too).
    for &s in &endpoint_routers {
        for &m in policy.intermediates() {
            // Unreachable, or too long to leave a hop for a tail.
            if m == s || tables.dist(s, m) as usize >= MAX_HOPS {
                continue;
            }
            let heads = enumerate_min_paths(tables, s, m);
            for &d in &endpoint_routers {
                // Mirror `sample_intermediate`'s eligibility rule: both
                // segments must survive and the composition must fit a
                // RoutePath (relevant on degraded networks only).
                if d == s
                    || d == m
                    || !tables.is_reachable(m, d)
                    || tables.dist(s, m) as usize + tables.dist(m, d) as usize > MAX_HOPS
                {
                    continue;
                }
                for head in &heads {
                    for tail in enumerate_min_paths(tables, m, d) {
                        visit(head.join(&tail), head.num_hops() as u8, true)?;
                    }
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// Every route `policy` can produce, paired with its per-hop VC labels,
/// in [`for_each_policy_route`] order. Exhaustive, so only feasible on
/// small networks; [`try_build_cdg`] needs none of it.
pub fn all_policy_routes(net: &Network, policy: &RoutePolicy) -> Vec<(RoutePath, Vec<u8>)> {
    let mut out = Vec::new();
    for_each_policy_route(net, policy, |choice, vcs| {
        out.push((choice.path, vcs.to_vec()));
        ControlFlow::Continue(())
    });
    out
}

/// What a route's VC labels depend on: whether it is indirect, where its
/// phases split, and its length ([`vc_for_hop`] reads nothing else).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouteShape {
    /// True for an indirect (Valiant) route.
    pub indirect: bool,
    /// Hops in the first phase (all of them for a minimal route).
    pub phase_hops: u8,
    /// Router-to-router hops.
    pub hops: u8,
}

impl RouteShape {
    /// The shape of `choice`.
    pub fn of(choice: &RouteChoice) -> Self {
        RouteShape {
            indirect: choice.indirect,
            phase_hops: choice.phase_hops,
            hops: choice.path.num_hops() as u8,
        }
    }

    /// Per-hop VC labels of every route of this shape under `scheme`.
    pub fn vcs(self, scheme: VcScheme) -> Vec<u8> {
        let choice = RouteChoice {
            path: RoutePath::new(0),
            phase_hops: self.phase_hops,
            indirect: self.indirect,
        };
        (0..self.hops as usize)
            .map(|h| vc_for_hop(scheme, &choice, h))
            .collect()
    }
}

/// The routers a policy's routes start, end and pivot at, and the
/// per-destination walk order over its tables. Distances *to* a router
/// are read from its row of the table, the distances *from* it: the
/// router graph is undirected, and a row is contiguous where a column is
/// strided.
struct Space<'a> {
    net: &'a Network,
    tables: &'a MinimalTables,
    eps: Vec<RouterId>,
    is_ep: Vec<bool>,
    /// Valiant intermediates; empty when only minimal routes count.
    mids: &'a [RouterId],
    is_mid: Vec<bool>,
    /// `sources[m][k]`: endpoint routers other than intermediate `m` at
    /// distance `k` from it — the heads of length `k` into `m`, and, as
    /// paths are reversible, the tails of length `k` out of it.
    sources: Vec<[u32; MAX_HOPS + 1]>,
}

impl<'a> Space<'a> {
    fn new(net: &'a Network, policy: &'a RoutePolicy, indirect: bool) -> Self {
        let tables = policy.tables();
        let n = net.num_routers() as usize;
        let eps = net.endpoint_routers();
        let mut is_ep = vec![false; n];
        for &e in &eps {
            is_ep[e as usize] = true;
        }
        let mids: &[RouterId] = if indirect {
            policy.intermediates()
        } else {
            &[]
        };
        let mut is_mid = vec![false; n];
        let mut sources = vec![[0u32; MAX_HOPS + 1]; n];
        for &m in mids {
            is_mid[m as usize] = true;
            let row = tables.dist_row(m);
            for &s in &eps {
                let k = row[s as usize] as usize;
                if s != m && k <= MAX_HOPS {
                    sources[m as usize][k] += 1;
                }
            }
        }
        Space {
            net,
            tables,
            eps,
            is_ep,
            mids,
            is_mid,
            sources,
        }
    }

    /// Fills `order` with the routers that reach the destination whose
    /// distance row is `row`, nearest first (a counting sort).
    fn toward(row: &[u8], order: &mut Vec<RouterId>) {
        let mut start = [0u32; UNREACHABLE as usize + 1];
        for &d in row {
            start[d as usize] += 1;
        }
        let reachable = row.len() - start[UNREACHABLE as usize] as usize;
        let mut next = 0;
        for slot in &mut start {
            next += std::mem::replace(slot, next);
        }
        order.clear();
        order.resize(reachable, 0);
        for (a, &d) in row.iter().enumerate() {
            if d != UNREACHABLE {
                order[start[d as usize] as usize] = a as RouterId;
                start[d as usize] += 1;
            }
        }
    }

    /// True if some destination completes an indirect route whose head
    /// into `m` has `k` hops: an endpoint router other than `m` and the
    /// head's source whose tail fits the hops the head leaves.
    fn head_fits(&self, m: RouterId, k: u8) -> bool {
        let k = k as usize;
        if k >= MAX_HOPS {
            return false;
        }
        let room = MAX_HOPS - k;
        let tails: u32 = self.sources[m as usize][1..=room].iter().sum();
        tails > u32::from(k <= room)
    }

    /// Hop indices a tail of `l` hops from `m` to an endpoint router can
    /// start at: the head lengths `k` of the sources other than that
    /// destination which `m` serves within the hop budget.
    fn tail_starts(&self, m: RouterId, l: u8) -> HopMask {
        let l = l as usize;
        let mut starts = 0;
        for k in 1..=MAX_HOPS.saturating_sub(l) {
            if self.sources[m as usize][k] > u32::from(k == l) {
                starts |= 1 << k;
            }
        }
        starts
    }

    /// Adds to `counts`, by shape, the routes that end at `t` (if it is
    /// an endpoint router) and those that pivot on it (if it is an
    /// intermediate), by a minimal-path DP over `order`, the routers that
    /// reach `t`, nearest first. `paths` is scratch.
    fn count_routes(
        &self,
        t: RouterId,
        row: &[u8],
        order: &[RouterId],
        paths: &mut [u64],
        counts: &mut BTreeMap<RouteShape, u64>,
    ) {
        let mut add = |shape: RouteShape, n: u64| {
            let c = counts.entry(shape).or_default();
            *c = c.saturating_add(n);
        };
        // `paths[a]`: minimal paths from `a` to `t`.
        for &a in order {
            paths[a as usize] = if row[a as usize] <= 1 {
                1
            } else {
                self.tables
                    .first_hops(a, t)
                    .iter()
                    .fold(0u64, |n, &b| n.saturating_add(paths[b as usize]))
            };
        }
        // `mass[k]`: minimal paths into `t` from endpoint routers `k` hops
        // away; `square[k]`: the same, squared router by router.
        let mut mass = [0u64; MAX_HOPS + 1];
        let mut square = [0u64; MAX_HOPS + 1];
        for &s in &self.eps {
            let (k, n) = (row[s as usize], paths[s as usize]);
            if s == t || k == UNREACHABLE {
                continue;
            }
            if self.is_ep[t as usize] {
                let shape = RouteShape {
                    indirect: false,
                    phase_hops: k,
                    hops: k,
                };
                add(shape, n);
            }
            if let (Some(m), Some(q)) = (mass.get_mut(k as usize), square.get_mut(k as usize)) {
                *m = m.saturating_add(n);
                *q = q.saturating_add(n.saturating_mul(n));
            }
        }
        if self.is_mid[t as usize] {
            // Paths are reversible, so the tails out of `t` mirror the
            // heads into it; a route's source and destination differ,
            // which takes out the `s = d` compositions.
            for k in 1..MAX_HOPS {
                for l in 1..=MAX_HOPS - k {
                    let both = mass[k].saturating_mul(mass[l]);
                    let n = if k == l {
                        both.saturating_sub(square[k])
                    } else {
                        both
                    };
                    if n > 0 {
                        let shape = RouteShape {
                            indirect: true,
                            phase_hops: k as u8,
                            hops: (k + l) as u8,
                        };
                        add(shape, n);
                    }
                }
            }
        }
    }
}

/// Hop indices, one bit each: bit `i` set on a router means a hop of
/// index `i` can leave it.
type HopMask = u16;

/// Every hop index a route can use.
const ALL_HOPS: HopMask = (1 << MAX_HOPS) - 1;

/// VC of each hop index in a route's first phase (a minimal route, or an
/// indirect route's leg toward its intermediate) or its second phase. The
/// streamed build relies on a hop's VC depending on nothing else, which
/// holds for every [`VcScheme`].
fn phase_vcs(policy: &RoutePolicy, second: bool) -> [u8; MAX_HOPS] {
    let choice = RouteChoice {
        path: RoutePath::new(0),
        phase_hops: if second { 0 } else { MAX_HOPS as u8 },
        indirect: second,
    };
    std::array::from_fn(|h| policy.vc_for_hop(&choice, h))
}

/// Collects into `deps`, repeats and all, every dependency on the
/// minimal-route DAG toward `dest` between consecutive hops of the routes
/// the seeded hop masks start, labelled by `vcs[hop]`. `order` lists the
/// routers that reach `dest`, nearest first; the masks flow down the DAG
/// and are left cleared.
fn walk(
    g: &ChannelGraph,
    deps: &mut Vec<(u32, u32)>,
    tables: &MinimalTables,
    dest: RouterId,
    order: &[RouterId],
    mask: &mut [HopMask],
    vcs: &[u8; MAX_HOPS],
) -> Result<(), ChannelError> {
    let row = tables.dist_row(dest);
    for &a in order.iter().rev() {
        let hops = std::mem::take(&mut mask[a as usize]);
        if hops == 0 {
            continue;
        }
        for &b in tables.first_hops(a, dest) {
            mask[b as usize] |= (hops << 1) & ALL_HOPS;
            if b == dest {
                continue;
            }
            let ab = g.edge(a, b)?;
            // One hop out, `dest` is the only first hop: skip the lookup.
            let next = if row[b as usize] == 1 {
                std::slice::from_ref(&dest)
            } else {
                tables.first_hops(b, dest)
            };
            for &c in next {
                let bc = g.edge(b, c)?;
                // Hop `i` into `b`, hop `i + 1` out of it.
                let mut bits = hops & (ALL_HOPS >> 1);
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    deps.push((g.on_vc(ab, vcs[i])?, g.on_vc(bc, vcs[i + 1])?));
                }
            }
        }
    }
    Ok(())
}

/// Collects into `deps` the dependencies across intermediate `m`: the
/// last hop of a head into `m` (hop `k − 1`, first phase) followed by the
/// first hop of a tail out of it (hop `k`, second phase), for every head
/// length `k`.
fn junction(
    g: &ChannelGraph,
    deps: &mut Vec<(u32, u32)>,
    space: &Space<'_>,
    m: RouterId,
    first: &[u8; MAX_HOPS],
    second: &[u8; MAX_HOPS],
) -> Result<(), ChannelError> {
    let tables = space.tables;
    let nb = space.net.neighbors(m);
    let deg = nb.len();
    let at = |k: usize, r: RouterId| -> Result<usize, ChannelError> {
        let j = nb
            .binary_search(&r)
            .map_err(|_| ChannelError::MissingLink { from: m, to: r })?;
        Ok(k * deg + j)
    };
    // `ends[k][x]`: endpoint routers `k` hops from `m` with a minimal path
    // through neighbor `x` — heads entering from `x`, and tails leaving
    // toward it. `last[k][x]` is one of them.
    let mut ends = vec![0u32; MAX_HOPS * deg];
    let mut last = vec![0 as RouterId; MAX_HOPS * deg];
    let row = tables.dist_row(m);
    for &e in &space.eps {
        let k = row[e as usize] as usize;
        if e == m || k >= MAX_HOPS {
            continue;
        }
        for &x in tables.first_hops(m, e) {
            let i = at(k, x)?;
            ends[i] += 1;
            last[i] = e;
        }
    }
    // `within[l][y]`: tails of at most `l` hops leaving toward `y`.
    let mut within = ends.clone();
    for i in deg..within.len() {
        within[i] += within[i - deg];
    }
    for k in 1..MAX_HOPS {
        let room = MAX_HOPS - k;
        for (x, &into) in nb.iter().enumerate() {
            let heads = ends[k * deg + x];
            if heads == 0 {
                continue;
            }
            // A lone source is not its own destination: its tails are out.
            let lone = (heads == 1 && k <= room).then(|| tables.first_hops(m, last[k * deg + x]));
            let c1 = g.on_vc(g.edge(into, m)?, first[k - 1])?;
            for (y, &out) in nb.iter().enumerate() {
                let own = lone.is_some_and(|hops| hops.contains(&out));
                if within[room * deg + y] > u32::from(own) {
                    deps.push((c1, g.on_vc(g.edge(m, out)?, second[k])?));
                }
            }
        }
    }
    Ok(())
}

/// Streams the CDG of every route `policy` can produce — only its minimal
/// routes unless `indirect` — from the minimal tables, never materialising
/// a route, and with `census` also counts those routes by shape. Each
/// dependency joins two consecutive hops, and a hop's VC depends only on
/// its phase and hop index ([`phase_vcs`]), so three passes cover the
/// route space:
///
/// - **first phase**, per destination `t`: minimal routes toward an
///   endpoint router, and heads toward an intermediate. A walk down the
///   minimal-route DAG toward `t` carries, per router, the hop indices it
///   can be left at, seeded with hop 0 at every source; the route count
///   DP reads the same table column while it is still in cache;
/// - **second phase**, per endpoint destination `d`: tails out of the
///   intermediates, seeded at each intermediate with the head lengths of
///   the sources it serves;
/// - **junction**, per intermediate: last head hop joined with first tail
///   hop, grouped by head length.
///
/// Eligibility is [`for_each_policy_route`]'s to the letter, including the
/// `s ≠ d` rule and the [`MAX_PATH_ROUTERS`] bound that couple a route's
/// phases, so the graph is the one its routes induce. Each channel's list
/// is sorted and deduplicated once at the end. The census does not depend
/// on the graph, so it is complete even when the graph is an error.
fn stream(
    net: &Network,
    policy: &RoutePolicy,
    indirect: bool,
    census: bool,
) -> (Vec<(RouteShape, u64)>, Result<ChannelGraph, ChannelError>) {
    let space = Space::new(net, policy, indirect);
    let tables = space.tables;
    let first = phase_vcs(policy, false);
    let second = phase_vcs(policy, true);
    let mut g = ChannelGraph::new(net, policy.num_vcs());
    let mut deps = Vec::new();
    let mut built = Ok(());
    let mut counts = BTreeMap::new();
    let n = net.num_routers() as usize;
    let mut paths = vec![0u64; if census { n } else { 0 }];
    let mut mask: Vec<HopMask> = vec![0; n];
    let mut order = Vec::new();
    for t in 0..net.num_routers() {
        let (to_ep, to_mid) = (space.is_ep[t as usize], space.is_mid[t as usize]);
        if !to_ep && !to_mid {
            continue;
        }
        let row = tables.dist_row(t);
        Space::toward(row, &mut order);
        if built.is_ok() {
            for &s in &space.eps {
                let k = row[s as usize];
                if s != t && k != UNREACHABLE && (to_ep || space.head_fits(t, k)) {
                    mask[s as usize] = 1;
                }
            }
            built = walk(&g, &mut deps, tables, t, &order, &mut mask, &first);
        }
        if census {
            space.count_routes(t, row, &order, &mut paths, &mut counts);
        }
    }
    if built.is_ok() && !space.mids.is_empty() {
        built = (|| {
            for &d in &space.eps {
                let row = tables.dist_row(d);
                for &m in space.mids {
                    let l = row[m as usize];
                    if m != d && l != UNREACHABLE {
                        mask[m as usize] |= space.tail_starts(m, l);
                    }
                }
                Space::toward(row, &mut order);
                walk(&g, &mut deps, tables, d, &order, &mut mask, &second)?;
            }
            for &m in space.mids {
                junction(&g, &mut deps, &space, m, &first, &second)?;
            }
            Ok(())
        })();
    }
    let cdg = built.map(|()| {
        g.set_deps(deps);
        g
    });
    (counts.into_iter().collect(), cdg)
}

/// Every route shape `policy` can produce, ascending, with the number of
/// routes of that shape — the census of [`for_each_policy_route`], counted
/// by a minimal-path DP — and the CDG of those routes ([`try_build_cdg`]),
/// streamed together from the tables.
pub fn route_census(
    net: &Network,
    policy: &RoutePolicy,
) -> (Vec<(RouteShape, u64)>, Result<ChannelGraph, ChannelError>) {
    stream(net, policy, is_indirect(policy), true)
}

/// True unless `policy` routes minimally only.
fn is_indirect(policy: &RoutePolicy) -> bool {
    !matches!(policy.algorithm(), Algorithm::Minimal)
}

/// Builds the full CDG for `net` under `policy` — the graph
/// [`ChannelGraph::add_route`] over [`all_policy_routes`] gives — streamed
/// from the tables, surfacing any route/adjacency inconsistency as an
/// error instead of panicking.
pub fn try_build_cdg(net: &Network, policy: &RoutePolicy) -> Result<ChannelGraph, ChannelError> {
    stream(net, policy, is_indirect(policy), false).1
}

/// The CDG of `policy`'s minimal routes alone: the escape an adaptive
/// policy falls back on.
pub fn try_build_minimal_cdg(
    net: &Network,
    policy: &RoutePolicy,
) -> Result<ChannelGraph, ChannelError> {
    stream(net, policy, false, false).1
}

/// Builds the full CDG for `net` under `policy`.
pub fn build_cdg(net: &Network, policy: &RoutePolicy) -> ChannelGraph {
    try_build_cdg(net, policy)
        .unwrap_or_else(|e| panic!("policy produced a route off the network: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Algorithm, RoutePolicy};
    use d2net_topo::{mlfm, oft, slim_fly, SlimFlyP};

    #[test]
    fn sf_minimal_two_vcs_acyclic() {
        let net = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        assert_eq!(policy.num_vcs(), 2);
        assert!(build_cdg(&net, &policy).is_acyclic());
    }

    #[test]
    fn sf_indirect_four_vcs_acyclic() {
        let net = slim_fly(3, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Valiant);
        assert_eq!(policy.num_vcs(), 4);
        assert!(build_cdg(&net, &policy).is_acyclic());
    }

    #[test]
    fn sspt_minimal_single_vc_acyclic() {
        // §3.4: MLFM and OFT are inherently deadlock-free under minimal
        // routing — every route is a towards link followed by an away link.
        for net in [mlfm(3), oft(3)] {
            let policy = RoutePolicy::new(&net, Algorithm::Minimal);
            assert_eq!(policy.num_vcs(), 1);
            assert!(build_cdg(&net, &policy).is_acyclic(), "{}", net.name());
        }
    }

    #[test]
    fn generic_sspt_schemes_deadlock_free() {
        // The stacked-SSPT generic builder inherits the MLFM/OFT VC rules.
        let net = d2net_topo::stacked_sspt(4, 2, 4);
        for algo in [Algorithm::Minimal, Algorithm::Valiant] {
            let policy = RoutePolicy::new(&net, algo);
            assert!(build_cdg(&net, &policy).is_acyclic(), "{algo:?}");
        }
        assert_eq!(RoutePolicy::new(&net, Algorithm::Minimal).num_vcs(), 1);
        assert_eq!(RoutePolicy::new(&net, Algorithm::Valiant).num_vcs(), 2);
    }

    #[test]
    fn sspt_indirect_two_vcs_acyclic() {
        for net in [mlfm(3), oft(3)] {
            let policy = RoutePolicy::new(&net, Algorithm::Valiant);
            assert_eq!(policy.num_vcs(), 2);
            assert!(build_cdg(&net, &policy).is_acyclic(), "{}", net.name());
        }
    }

    #[test]
    fn sspt_indirect_single_vc_has_cycles() {
        // The negative control for §3.4: collapsing both phases onto one VC
        // leaves towards→away→towards→away routes that close cycles in the
        // CDG. This is the deadlock the second VC exists to break.
        for net in [mlfm(3), oft(3)] {
            let policy = RoutePolicy::new(&net, Algorithm::Valiant);
            let mut g = ChannelGraph::new(&net, 1);
            for (path, _) in all_policy_routes(&net, &policy) {
                let vcs = vec![0u8; path.num_hops()];
                g.add_route(&path, &vcs).unwrap();
            }
            assert!(!g.is_acyclic(), "{}", net.name());
        }
    }

    #[test]
    fn sf_indirect_single_vc_has_cycles() {
        let net = slim_fly(3, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Valiant);
        let mut g = ChannelGraph::new(&net, 1);
        for (path, _) in all_policy_routes(&net, &policy) {
            let vcs = vec![0u8; path.num_hops()];
            g.add_route(&path, &vcs).unwrap();
        }
        assert!(!g.is_acyclic());
        // The extracted counterexample must be a genuine cycle: every
        // consecutive pair is a registered dependency, the last wraps to
        // the first, and consecutive channels chain head-to-tail.
        let cyc = g.find_cycle().expect("cyclic CDG must yield a witness");
        assert!(cyc.len() >= 2);
        for i in 0..cyc.len() {
            let c1 = cyc[i];
            let c2 = cyc[(i + 1) % cyc.len()];
            assert!(g.deps_of(c1).contains(&c2), "edge {c1}->{c2} not in CDG");
            let (_, v1, _) = g.decode(c1);
            let (u2, _, _) = g.decode(c2);
            assert_eq!(v1, u2, "cycle channels must chain head-to-tail");
        }
    }

    #[test]
    fn acyclic_cdg_has_no_cycle_witness() {
        let net = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let g = build_cdg(&net, &policy);
        assert!(g.is_acyclic());
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn missing_link_is_an_error_not_a_panic() {
        let net = mlfm(3);
        let g = ChannelGraph::new(&net, 2);
        let (u, v) = (0..net.num_routers())
            .flat_map(|u| (0..net.num_routers()).map(move |v| (u, v)))
            .find(|&(u, v)| u != v && !net.neighbors(u).contains(&v))
            .expect("a diameter-two network has some non-adjacent pair");
        assert_eq!(
            g.channel(u, v, 0),
            Err(ChannelError::MissingLink { from: u, to: v })
        );
        let w = net.neighbors(0)[0];
        assert_eq!(
            g.channel(0, w, 2),
            Err(ChannelError::VcOutOfRange { vc: 2, num_vcs: 2 })
        );
    }

    #[test]
    fn decode_roundtrips_channel_ids() {
        let net = mlfm(3);
        let g = ChannelGraph::new(&net, 2);
        for u in 0..net.num_routers() {
            for &v in net.neighbors(u) {
                for vc in 0..2 {
                    let c = g.channel(u, v, vc).unwrap();
                    assert_eq!(g.decode(c), (u, v, vc));
                }
            }
        }
    }

    #[test]
    fn ugal_uses_same_route_space_as_valiant() {
        // UGAL chooses per packet between the same minimal and indirect
        // routes, so its CDG is a subgraph of Valiant's: acyclic too.
        let net = mlfm(3);
        let policy = RoutePolicy::new(
            &net,
            Algorithm::Ugal {
                n_i: 4,
                c: 2.0,
                threshold: Some(0.1),
            },
        );
        assert!(build_cdg(&net, &policy).is_acyclic());
    }

    #[test]
    fn enumerate_min_paths_counts() {
        let net = mlfm(3);
        let t = MinimalTables::build(&net);
        // Same-column LR pair: h = 3 paths; cross-column pair: 1.
        assert_eq!(enumerate_min_paths(&t, 0, 4).len(), 3);
        assert_eq!(enumerate_min_paths(&t, 0, 5).len(), 1);
        assert!(enumerate_min_paths(&t, 0, 0).is_empty());
    }

    #[test]
    fn channel_ids_are_dense_and_distinct() {
        let net = mlfm(3);
        let g = ChannelGraph::new(&net, 2);
        let mut seen = std::collections::HashSet::new();
        for u in 0..net.num_routers() {
            for &v in net.neighbors(u) {
                for vc in 0..2 {
                    let c = g.channel(u, v, vc).unwrap();
                    assert!((c as usize) < g.num_channels());
                    assert!(seen.insert(c));
                }
            }
        }
        assert_eq!(seen.len(), g.num_channels());
    }

    #[test]
    fn phase_labels_depend_only_on_phase_and_hop() {
        // The streamed build labels a hop by phase and hop index alone:
        // heads like minimal routes, tails whatever their split.
        let path = RoutePath::new(0);
        for scheme in [VcScheme::HopIndex, VcScheme::PhaseBased, VcScheme::SingleVc] {
            for hop in 0..MAX_HOPS {
                let at = |phase_hops: usize, indirect: bool| {
                    let choice = RouteChoice {
                        path,
                        phase_hops: phase_hops as u8,
                        indirect,
                    };
                    vc_for_hop(scheme, &choice, hop)
                };
                for split in 0..=MAX_HOPS {
                    let expect = if split > hop {
                        at(MAX_HOPS, false)
                    } else {
                        at(0, true)
                    };
                    assert_eq!(
                        at(split, true),
                        expect,
                        "{scheme:?} hop {hop} split {split}"
                    );
                    assert_eq!(
                        at(split, false),
                        at(MAX_HOPS, false),
                        "{scheme:?} hop {hop}"
                    );
                }
            }
        }
    }

    #[test]
    fn route_census_counts_every_route() {
        for net in [slim_fly(3, SlimFlyP::Floor), mlfm(3)] {
            for algo in [Algorithm::Minimal, Algorithm::Valiant] {
                let policy = RoutePolicy::new(&net, algo);
                let mut counted: BTreeMap<RouteShape, u64> = BTreeMap::new();
                for_each_policy_route(&net, &policy, |choice, vcs| {
                    assert_eq!(RouteShape::of(choice).vcs(policy.vc_scheme()), vcs);
                    *counted.entry(RouteShape::of(choice)).or_default() += 1;
                    ControlFlow::Continue(())
                });
                let counted: Vec<_> = counted.into_iter().collect();
                let (shapes, _) = route_census(&net, &policy);
                assert_eq!(shapes, counted, "{} {algo:?}", net.name());
            }
        }
    }

    #[test]
    fn route_visitor_stops_on_break() {
        let net = mlfm(3);
        let policy = RoutePolicy::new(&net, Algorithm::Valiant);
        let mut seen = 0;
        for_each_policy_route(&net, &policy, |_, _| {
            seen += 1;
            if seen == 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, 5);
    }
}
