//! The individual static checks. Each takes the network/policy/params
//! and appends [`Diagnostic`]s; none of them panics on a malformed
//! input — that is the whole point.

use crate::diag::{Diagnostic, Severity};
use crate::VerifyParams;
use d2net_routing::{
    for_each_policy_route, route_census, try_build_minimal_cdg, Algorithm, ChannelError,
    ChannelGraph, RouteChoice, RoutePath, RoutePolicy, RouteShape,
};
use d2net_topo::{try_validate_sspt, Network, TopologyKind};
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// How many concrete instances of one violation code are spelled out
/// before the rest are folded into a count.
const MAX_SHOWN: usize = 3;

fn push(diags: &mut Vec<Diagnostic>, severity: Severity, code: &'static str, message: String) {
    diags.push(Diagnostic {
        severity,
        code,
        message,
    });
}

/// The route space the route and CDG checks read: every route shape the
/// policy can produce with its route count, the CDG over all its routes,
/// and, for adaptive policies, the minimal-route escape sub-CDG.
pub(crate) struct RouteSpace {
    shapes: Vec<(RouteShape, u64)>,
    cdg: Result<ChannelGraph, ChannelError>,
    escape: Option<Result<ChannelGraph, ChannelError>>,
}

/// True for policies that may fall back on a minimal route per packet.
fn is_adaptive(policy: &RoutePolicy) -> bool {
    matches!(
        policy.algorithm(),
        Algorithm::Ugal { .. } | Algorithm::UgalG { .. }
    )
}

impl RouteSpace {
    /// Streamed from the minimal tables; no route is materialised.
    pub(crate) fn streamed(net: &Network, policy: &RoutePolicy) -> Self {
        let (shapes, cdg) = route_census(net, policy);
        RouteSpace {
            shapes,
            cdg,
            escape: is_adaptive(policy).then(|| try_build_minimal_cdg(net, policy)),
        }
    }

    /// Enumerated route by route: the reference the streamed space must
    /// equal.
    pub(crate) fn enumerated(net: &Network, policy: &RoutePolicy) -> Self {
        fn add(g: &mut Result<ChannelGraph, ChannelError>, choice: &RouteChoice, vcs: &[u8]) {
            if let Ok(graph) = g {
                if let Err(e) = graph.add_route(&choice.path, vcs) {
                    *g = Err(e);
                }
            }
        }
        let mut shapes: BTreeMap<RouteShape, u64> = BTreeMap::new();
        let mut cdg = Ok(ChannelGraph::new(net, policy.num_vcs()));
        let mut escape = is_adaptive(policy).then(|| Ok(ChannelGraph::new(net, policy.num_vcs())));
        for_each_policy_route(net, policy, |choice, vcs| {
            *shapes.entry(RouteShape::of(choice)).or_default() += 1;
            add(&mut cdg, choice, vcs);
            if let (false, Some(esc)) = (choice.indirect, escape.as_mut()) {
                add(esc, choice, vcs);
            }
            ControlFlow::Continue(())
        });
        RouteSpace {
            shapes: shapes.into_iter().collect(),
            cdg,
            escape,
        }
    }
}

/// Check 3 (topology lints): connectivity, the declared class's own
/// structural laws, diameter promises, SSPT layering/stacking, Slim Fly
/// MMS girth, and the radix/port census.
pub(crate) fn check_topology(net: &Network, diags: &mut Vec<Diagnostic>) {
    if net.is_degraded() {
        // A degraded network deliberately breaks the class's structural
        // laws (regularity, girth, layering, the diameter promise): those
        // lints would only re-report the injected faults. What matters now
        // is what routing can still deliver: partition among surviving
        // endpoint routers is fatal, a stretched diameter is degradation
        // to quantify, endpoints on failed routers are expected casualties.
        check_degraded_topology(net, diags);
        return;
    }
    if !net.is_connected() {
        push(
            diags,
            Severity::Error,
            "topology-disconnected",
            "router graph is disconnected: no routing policy can serve it".into(),
        );
        return;
    }
    let validated = net.validate();
    if let Err(e) = &validated {
        push(diags, Severity::Error, "topology-invariant", e.clone());
    }

    // Diameter promise of the class (SF/HyperX promise router diameter 2;
    // the indirect SSPT designs promise endpoint diameter 2). `validate`
    // checks exactly that promise for every class but `Custom`, so a
    // passing class needs no second all-pairs BFS.
    let promises_diameter_two = !matches!(net.kind(), TopologyKind::Custom { .. });
    let router_scope = matches!(
        net.kind(),
        TopologyKind::SlimFly(_) | TopologyKind::HyperX2(_)
    );
    let scope = if router_scope { "router" } else { "endpoint" };
    let dia = if promises_diameter_two && validated.is_ok() {
        2
    } else if router_scope {
        net.diameter()
    } else {
        net.endpoint_diameter()
    };
    if promises_diameter_two && dia > 2 {
        push(
            diags,
            Severity::Error,
            "diameter-promise",
            format!(
                "{} claims diameter 2 but {scope} diameter is {dia}",
                net.name()
            ),
        );
    } else {
        push(
            diags,
            Severity::Info,
            "diameter",
            format!("{scope} diameter {dia}"),
        );
    }

    match net.kind() {
        TopologyKind::Mlfm(_) | TopologyKind::Oft(_) | TopologyKind::Sspt(_) => {
            match try_validate_sspt(net) {
                Ok(rep) => push(
                    diags,
                    Severity::Info,
                    "sspt-structure",
                    format!(
                        "SSPT layering holds: {} single-path pairs, {} counterpart pairs \
                         (diversity {})",
                        rep.single_path_pairs,
                        rep.multi_path_pairs,
                        rep.multi_path_diversity.unwrap_or(1)
                    ),
                ),
                Err(e) => push(diags, Severity::Error, "sspt-structure", e),
            }
        }
        TopologyKind::SlimFly(p) => check_sf_girth(net, p.q, p.delta, diags),
        _ => {}
    }

    // Radix/port census: the class builders promise uniform degree on
    // endpoint routers; wildly uneven radix means a mis-built instance.
    let eps = net.endpoint_routers();
    let (mut min_radix, mut max_radix) = (u32::MAX, 0u32);
    for &r in &eps {
        min_radix = min_radix.min(net.radix(r));
        max_radix = max_radix.max(net.radix(r));
    }
    if promises_diameter_two && min_radix != max_radix {
        push(
            diags,
            Severity::Warning,
            "radix-uniformity",
            format!(
                "endpoint-router radix varies from {min_radix} to {max_radix} \
                 in a class that promises regularity"
            ),
        );
    }
    push(
        diags,
        Severity::Info,
        "port-budget",
        format!(
            "{} routers, {} nodes, {} total ports ({:.2} ports/node), max radix {}",
            net.num_routers(),
            net.num_nodes(),
            net.total_ports(),
            net.total_ports() as f64 / net.num_nodes().max(1) as f64,
            max_radix,
        ),
    );
}

/// Degraded-config diagnostics: fault inventory, endpoints lost to failed
/// routers (WARN — expected casualties), partition among the *surviving*
/// endpoint routers ("degraded-partition", ERROR — repaired routing
/// cannot serve such a config), and the repaired endpoint-router diameter
/// against the class's pristine promise of 2 ("degraded-diameter", WARN
/// with the affected pair count — the config still works, slower).
fn check_degraded_topology(net: &Network, diags: &mut Vec<Diagnostic>) {
    let faults = net.faults().expect("degraded network records its faults");
    push(
        diags,
        Severity::Info,
        "degraded",
        format!("degraded config: {}", faults.describe()),
    );

    let eps = net.endpoint_routers();
    let (live, lost): (Vec<_>, Vec<_>) = eps
        .iter()
        .copied()
        .partition(|&r| !faults.router_is_failed(r));
    if !lost.is_empty() {
        let lost_nodes: u64 = lost.iter().map(|&r| net.nodes_at(r) as u64).sum();
        push(
            diags,
            Severity::Warning,
            "degraded-endpoints-lost",
            format!(
                "{} endpoint router(s) failed outright, taking {lost_nodes} node(s) offline",
                lost.len()
            ),
        );
    }

    // Reachability census over the surviving endpoint routers. One BFS
    // per live endpoint router — same budget as the pristine diameter
    // lint, and it must not use `Network::diameter` (panics when faults
    // disconnect the graph).
    let mut unreachable_pairs = 0u64;
    let mut over_promise_pairs = 0u64;
    let mut max_dia = 0u32;
    for &s in &live {
        let dist = net.bfs_distances(s);
        for &d in &live {
            if s == d {
                continue;
            }
            let x = dist[d as usize];
            if x == u32::MAX {
                unreachable_pairs += 1;
            } else {
                max_dia = max_dia.max(x);
                if x > 2 {
                    over_promise_pairs += 1;
                }
            }
        }
    }
    if unreachable_pairs > 0 {
        push(
            diags,
            Severity::Error,
            "degraded-partition",
            format!(
                "failures partition the network: {unreachable_pairs} ordered pairs of \
                 surviving endpoint routers are mutually unreachable"
            ),
        );
    }
    let promises_diameter_two = !matches!(net.kind(), TopologyKind::Custom { .. });
    if promises_diameter_two && over_promise_pairs > 0 {
        push(
            diags,
            Severity::Warning,
            "degraded-diameter",
            format!(
                "{} promises diameter 2 pristine; failures stretch {over_promise_pairs} \
                 ordered endpoint-router pairs (repaired diameter {max_dia})",
                net.name()
            ),
        );
    } else {
        push(
            diags,
            Severity::Info,
            "diameter",
            format!("repaired endpoint-router diameter {max_dia}"),
        );
    }
    push(
        diags,
        Severity::Info,
        "port-budget",
        format!(
            "{} routers ({} live endpoint routers), {} nodes, {} surviving links",
            net.num_routers(),
            live.len(),
            net.num_nodes(),
            net.links().len(),
        ),
    );
}

/// Slim Fly girth census: adjacent router pairs that share a neighbor
/// (triangles) and non-adjacent pairs that share two or more
/// (quadrilaterals). Girth 5 at diameter 2 makes a Moore graph, which by
/// Hoffman–Singleton exists only for degree 2, 3, 7 and perhaps 57. Of
/// the MMS graphs only q = 5 — the Hoffman–Singleton graph, degree 7 — is
/// one, so short cycles there are an ERROR; every other q and δ has them
/// by necessity and the census is informational. (`Network::validate`
/// already holds each MMS graph to its 2q² routers, degree r′ and
/// diameter 2.) Common neighbors are counted by popcount over bitset
/// adjacency rows.
fn check_sf_girth(net: &Network, q: u64, delta: i64, diags: &mut Vec<Diagnostic>) {
    let r = net.num_routers() as usize;
    let words = r.div_ceil(64);
    let mut rows = vec![0u64; r * words];
    for a in 0..r {
        for &b in net.neighbors(a as u32) {
            rows[a * words + b as usize / 64] |= 1 << (b % 64);
        }
    }
    let row = |a: usize| &rows[a * words..(a + 1) * words];
    let mut triangles = 0u64;
    let mut quads = 0u64;
    for a in 0..r {
        for b in (a + 1)..r {
            let common: u64 = row(a)
                .iter()
                .zip(row(b))
                .map(|(x, y)| u64::from((x & y).count_ones()))
                .sum();
            if row(a)[b / 64] >> (b % 64) & 1 == 1 {
                triangles += common;
            } else if common >= 2 {
                quads += 1;
            }
        }
    }
    if triangles == 0 && quads == 0 {
        push(
            diags,
            Severity::Info,
            "sf-girth",
            "MMS girth holds: no triangles, no quadrilaterals (girth ≥ 5)".into(),
        );
    } else if q == 5 {
        push(
            diags,
            Severity::Error,
            "sf-girth",
            format!(
                "MMS girth violated: {triangles} adjacent pairs share a neighbor, \
                 {quads} pairs share ≥ 2 neighbors"
            ),
        );
    } else {
        push(
            diags,
            Severity::Info,
            "sf-girth",
            format!(
                "girth census (q = {q}, δ = {delta}; girth 5 is promised only at q = 5): \
                 {triangles} adjacent pairs share a neighbor, {quads} pairs share ≥ 2 neighbors"
            ),
        );
    }
}

/// Check 2 (routing-table soundness): every endpoint pair reachable, all
/// minimal distances within the class promise, and every first-hop entry
/// actually one hop closer to the destination.
pub(crate) fn check_tables(net: &Network, policy: &RoutePolicy, diags: &mut Vec<Diagnostic>) {
    let tables = policy.tables();
    let eps = net.endpoint_routers();
    let mut unreachable = 0u64;
    let mut over_diameter = 0u64;
    let mut bad_first_hops = 0u64;
    let mut shown = Vec::new();
    let dia = policy.diameter();
    for &s in &eps {
        for &d in &eps {
            if s == d {
                continue;
            }
            let hops = tables.first_hops(s, d);
            if hops.is_empty() {
                unreachable += 1;
                if shown.len() < MAX_SHOWN {
                    shown.push(format!("no route {s} -> {d}"));
                }
                continue;
            }
            let dist = tables.dist(s, d);
            if dist > dia {
                over_diameter += 1;
                if shown.len() < MAX_SHOWN {
                    shown.push(format!("dist({s}, {d}) = {dist} exceeds diameter {dia}"));
                }
            }
            for &n in hops {
                if !net.are_adjacent(s, n) || tables.dist(n, d) != dist - 1 {
                    bad_first_hops += 1;
                    if shown.len() < MAX_SHOWN {
                        shown.push(format!(
                            "first hop {n} of {s} -> {d} is not one hop closer"
                        ));
                    }
                }
            }
        }
    }
    if unreachable + over_diameter + bad_first_hops == 0 {
        push(
            diags,
            Severity::Info,
            "tables-sound",
            format!(
                "routing tables sound over {} endpoint routers (minimal dist ≤ {dia})",
                eps.len()
            ),
        );
    } else if net.is_degraded() && over_diameter + bad_first_hops == 0 {
        // On a degraded network, unreachable pairs are the accounted cost
        // of the injected faults (whether that is fatal is decided by the
        // degraded-partition lint); the finite entries are still required
        // to be sound, which the two error counters above guarantee here.
        push(
            diags,
            Severity::Warning,
            "degraded-unreachable",
            format!(
                "{unreachable} ordered endpoint-router pairs have no surviving route; \
                 traffic between them is unroutable and will be dropped at injection"
            ),
        );
    } else {
        push(
            diags,
            Severity::Error,
            "table-unsound",
            format!(
                "routing tables unsound: {unreachable} unreachable pairs, \
                 {over_diameter} over-diameter pairs, {bad_first_hops} bad first hops\n{}",
                shown.join("\n")
            ),
        );
    }
}

/// Check 2 continued (the VC-assignment laws): VC labels stay in budget
/// and never decrease along a path (monotonicity is what turns the VC
/// layering into an acyclicity argument, §3.4). Labels depend only on a
/// route's shape, so the check runs once per shape. That every route is a
/// real minimal (or minimal ∘ minimal) walk follows from `check_tables`:
/// routes are walks of first hops it has checked.
pub(crate) fn check_routes(policy: &RoutePolicy, space: &RouteSpace, diags: &mut Vec<Diagnostic>) {
    let num_vcs = policy.num_vcs();
    let (mut minimal, mut indirect) = (0u64, 0u64);
    let mut violations = 0u64;
    let mut shown = Vec::new();
    for &(shape, n) in &space.shapes {
        if shape.indirect {
            indirect += n;
        } else {
            minimal += n;
        }
        let vcs = shape.vcs(policy.vc_scheme());
        let kind = if shape.indirect {
            "indirect"
        } else {
            "minimal"
        };
        let what = format!(
            "{n} {kind} routes of {} hops (phase split {})",
            shape.hops, shape.phase_hops
        );
        let mut offenses = Vec::new();
        for (h, &vc) in vcs.iter().enumerate() {
            if vc >= num_vcs {
                offenses.push(format!("{what}: hop {h} uses VC {vc} ≥ budget {num_vcs}"));
            }
        }
        if vcs.windows(2).any(|w| w[1] < w[0]) {
            offenses.push(format!("{what}: non-monotone VC labels {vcs:?}"));
        }
        violations += n * offenses.len() as u64;
        shown.extend(offenses);
    }
    if violations == 0 {
        push(
            diags,
            Severity::Info,
            "routes-sound",
            format!(
                "{minimal} minimal + {indirect} indirect routes well-formed and VC-monotone \
                 ({num_vcs} VCs, {:?} scheme)",
                policy.vc_scheme()
            ),
        );
    } else {
        shown.truncate(MAX_SHOWN);
        push(
            diags,
            Severity::Error,
            "route-unsound",
            format!("{violations} route violations\n{}", shown.join("\n")),
        );
    }
}

/// Check 1 (CDG acyclicity with counterexample) and check 4's escape
/// coverage: over the CDG of the full route space; if cyclic, extract
/// the shortest dependency cycle and render it with the offending routes,
/// in the style of the telemetry deadlock forensics. For adaptive
/// algorithms, additionally certify the minimal-route escape sub-CDG.
/// Returns the cycle length (0 if acyclic).
pub(crate) fn check_cdg(
    net: &Network,
    policy: &RoutePolicy,
    space: &RouteSpace,
    diags: &mut Vec<Diagnostic>,
) -> u32 {
    let g = match &space.cdg {
        Ok(g) => g,
        Err(e) => {
            push(
                diags,
                Severity::Error,
                "cdg-build",
                format!("the policy's routes do not fit the network: {e}"),
            );
            return 0;
        }
    };
    let num_deps: usize = (0..g.num_channels() as u32)
        .map(|c| g.deps_of(c).len())
        .sum();
    let num_routes: u64 = space.shapes.iter().map(|&(_, n)| n).sum();
    let cycle_len = match g.find_cycle() {
        None => {
            push(
                diags,
                Severity::Info,
                "cdg-acyclic",
                format!(
                    "CDG acyclic: {} channels, {num_deps} distinct dependencies, \
                     {num_routes} routes enumerated (deadlock-free, §3.4)",
                    g.num_channels(),
                ),
            );
            0
        }
        Some(cycle) => {
            push(
                diags,
                Severity::Error,
                "cdg-cycle",
                render_cycle(net, policy, g, &cycle),
            );
            cycle.len() as u32
        }
    };

    // Escape coverage: an adaptive policy may fall back to a minimal
    // route at any injection, so the minimal-only sub-CDG must itself be
    // deadlock-free for the fallback to be an escape.
    if let Some(Ok(esc)) = &space.escape {
        match esc.find_cycle() {
            None => push(
                diags,
                Severity::Info,
                "escape-acyclic",
                "adaptive escape (minimal-route) sub-CDG is acyclic".into(),
            ),
            Some(cycle) => push(
                diags,
                Severity::Error,
                "escape-cycle",
                format!(
                    "adaptive fallback is not an escape — minimal-route sub-CDG is cyclic:\n{}",
                    render_cycle(net, policy, esc, &cycle)
                ),
            ),
        }
    }
    cycle_len
}

/// Renders a CDG cycle the way the telemetry deadlock forensics renders
/// a wait-for cycle: one line per channel, each showing the concrete
/// `(link, vc)` and a route that induces the dependency on the next
/// channel in the cycle.
fn render_cycle(net: &Network, policy: &RoutePolicy, g: &ChannelGraph, cycle: &[u32]) -> String {
    use std::fmt::Write;
    let witnesses = find_witnesses(net, policy, g, cycle);
    let mut out = String::new();
    let _ = write!(
        out,
        "CDG CYCLE: {} channels form a dependency cycle — deadlock reachable (§3.4):",
        cycle.len()
    );
    for (i, (&c, witness)) in cycle.iter().zip(&witnesses).enumerate() {
        let (u, v, vc) = g.decode(c);
        let _ = write!(
            out,
            "\n  [{i}] link {u:>3} -> {v:>3} vc {vc}: waits on next",
        );
        if let Some((path, vcs)) = witness {
            let _ = write!(out, " via route {:?} vcs {vcs:?}", path.routers());
        }
    }
    out
}

/// For each cycle edge `cycle[i] → cycle[i + 1]`, the first route in
/// [`for_each_policy_route`] order that induces it. One pass over the
/// route space, stopping once every edge has its witness; only rejected
/// configs pay for it.
fn find_witnesses(
    net: &Network,
    policy: &RoutePolicy,
    g: &ChannelGraph,
    cycle: &[u32],
) -> Vec<Option<(RoutePath, Vec<u8>)>> {
    let edges: Vec<(u32, u32)> = (0..cycle.len())
        .map(|i| (cycle[i], cycle[(i + 1) % cycle.len()]))
        .collect();
    let mut found: Vec<Option<(RoutePath, Vec<u8>)>> = vec![None; edges.len()];
    let mut missing = edges.len();
    for_each_policy_route(net, policy, |choice, vcs| {
        let routers = choice.path.routers();
        for i in 0..choice.path.num_hops().saturating_sub(1) {
            let dep = (
                g.channel(routers[i], routers[i + 1], vcs[i]),
                g.channel(routers[i + 1], routers[i + 2], vcs[i + 1]),
            );
            for (e, &(c1, c2)) in edges.iter().enumerate() {
                if found[e].is_none() && dep == (Ok(c1), Ok(c2)) {
                    found[e] = Some((choice.path, vcs.to_vec()));
                    missing -= 1;
                }
            }
        }
        if missing == 0 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    found
}

/// Check 4 (config consistency): credit/buffer sufficiency and the
/// integer-picosecond bandwidth law — the conditions the engine enforces
/// with panics at construction time, surfaced as diagnostics first.
pub(crate) fn check_params(
    policy: &RoutePolicy,
    params: &VerifyParams,
    diags: &mut Vec<Diagnostic>,
) {
    match crate::invariant::vc_buffer_sufficient(
        params.buffer_bytes,
        policy.num_vcs(),
        params.packet_bytes,
    ) {
        Ok(vc_cap) => push(
            diags,
            Severity::Info,
            "buffers-sufficient",
            format!(
                "{} B/port over {} VCs = {vc_cap} B per VC (≥ one {} B packet)",
                params.buffer_bytes,
                policy.num_vcs(),
                params.packet_bytes
            ),
        ),
        Err(e) => push(diags, Severity::Error, "buffer-insufficient", e),
    }
    if let Err(e) = crate::invariant::exact_ps_per_byte(params.link_bandwidth_gbps) {
        push(diags, Severity::Error, "bandwidth-quantization", e);
    }
}

/// Check 5 (analytic channel-load certification): runs the static oracle
/// on uniform traffic over the policy's real tables and inspects the
/// predicted saturation envelope. Severity thresholds live in
/// [`VerifyParams`] so paper-standard configs certify cleanly: MLFM's
/// uniform worst link is expected near 2 node rates (saturation ≈ 0.55),
/// which is physics, not a defect.
pub(crate) fn check_analysis(
    net: &Network,
    policy: &RoutePolicy,
    params: &VerifyParams,
    diags: &mut Vec<Diagnostic>,
) {
    let tm = match d2net_analysis::TrafficMatrix::uniform(net) {
        Ok(tm) => tm,
        Err(e) => {
            push(
                diags,
                Severity::Warning,
                "analysis-skipped",
                format!("static load analysis skipped: {e}"),
            );
            return;
        }
    };
    let pa = match d2net_analysis::analyze_policy(
        net,
        policy,
        &tm,
        &d2net_analysis::LatencyModel::paper_default(),
    ) {
        Ok(pa) => pa,
        Err(e) => {
            push(
                diags,
                Severity::Warning,
                "analysis-skipped",
                format!("static load analysis skipped: {e}"),
            );
            return;
        }
    };
    let Some(best) = pa
        .reports
        .iter()
        .min_by(|a, b| a.max_link_load.total_cmp(&b.max_link_load))
    else {
        return;
    };
    push(
        diags,
        Severity::Info,
        "analysis-saturation",
        format!(
            "uniform-traffic saturation envelope [{:.3}, {:.3}] ({}), \
             zero-load latency {:.1} ns, {:.2} ports/node, \
             {:.2} ports/node per unit throughput",
            pa.saturation_lo,
            pa.saturation_hi,
            pa.algorithm,
            best.zero_load_latency_ns,
            best.cost_ports_per_node,
            best.cost_per_unit_throughput,
        ),
    );
    if best.max_link_load > params.overload_limit {
        let (hot, _) = best
            .link_loads
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap_or((0, &0.0));
        let idx = d2net_analysis::LinkIndex::new(net);
        let (a, b) = idx.endpoints(net, hot);
        push(
            diags,
            Severity::Error,
            "analysis-overload",
            format!(
                "statically overloaded link under uniform traffic: router {a} -> {b} \
                 expects {:.2} node rates even under the {} assignment \
                 (limit {:.2}); the tables concentrate load pathologically",
                best.max_link_load,
                best.envelope.name(),
                params.overload_limit,
            ),
        );
    }
    if pa.saturation_hi < params.saturation_floor {
        push(
            diags,
            Severity::Warning,
            "analysis-saturation-floor",
            format!(
                "predicted uniform saturation tops out at {:.4}, below the \
                 configured floor {:.4}",
                pa.saturation_hi, params.saturation_floor,
            ),
        );
    }
}
