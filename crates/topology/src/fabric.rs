//! # fabric — routed inter-node topologies
//!
//! Pure-data description of the fabric connecting N nodes: a set of
//! **directed links** (each becomes one fluid resource in `netsim`, so every
//! hop of a multi-link path shares bandwidth through the max-min allocator)
//! plus a **deterministic next-hop rule** per shape. A route is not stored:
//! [`Fabric::route`] walks the rule from the source when it is asked for, so
//! a fabric keeps only its shape, its node count and its links, and nothing
//! grows with the number of node pairs. Link indices follow the order in
//! which the links are created, which the rules compute directly. Four
//! shapes:
//!
//! * [`FabricSpec::Direct`] — the paper's original two-node point-to-point
//!   wire. Its link names and order (`wire.0to1`, `wire.1to0`) are frozen:
//!   a direct fabric of two nodes reproduces the pre-fabric resource layout
//!   byte for byte, which is what keeps the fig1–fig10 golden traces valid.
//! * [`FabricSpec::Switch`] — a single non-blocking crossbar: every node has
//!   one up-link and one down-link; any permutation of node pairs is
//!   contention-free. Routes are always 2 hops: `up(s)`, then `down(d)`.
//! * [`FabricSpec::Torus`] — a 2-D torus with dimension-order (X then Y)
//!   minimal routing; each hop takes the shorter ring direction, ties toward
//!   +. The rule is memoryless: re-deciding at every hop keeps the direction
//!   chosen at the start.
//! * [`FabricSpec::Dragonfly`] — groups of routers (one node per router),
//!   complete graph inside each group, one directed global link per ordered
//!   group pair, attached round-robin across the group's routers. Minimal
//!   routes are at most `intra → global → intra` (3 hops): every router
//!   knows its own group and the gateway toward the destination's group.
//!
//! Everything here is deterministic: same spec → same links, same routes —
//! no RNG anywhere, so `(src, dst)` alone pins a route.

use std::fmt;

/// Index of a directed link inside a [`Fabric`].
pub type LinkIdx = u32;

/// One directed link of the fabric.
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// Resource name (stable across builds; used by golden traces).
    pub name: String,
    /// Per-link bandwidth scale, applied on top of the machine's `link_bw`.
    pub bw_scale: f64,
    /// Vertex the link leaves. Vertices `< nodes` are nodes; `>= nodes`
    /// are internal fabric vertices (e.g. the crossbar of a switch).
    pub src: usize,
    /// Vertex the link enters.
    pub dst: usize,
}

/// The fabric family and its shape; [`FabricSpec::build_for`] creates its
/// links.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricSpec {
    /// Two nodes, one wire per direction (the paper's setup).
    Direct,
    /// Single crossbar switch: up/down link per node, 2-hop routes.
    Switch,
    /// 2-D torus `x × y`, dimension-order minimal routing.
    Torus {
        /// Ring size along X.
        x: usize,
        /// Ring size along Y.
        y: usize,
    },
    /// Dragonfly: `groups` groups of `routers` routers (one node each).
    Dragonfly {
        /// Number of groups.
        groups: usize,
        /// Routers (= nodes) per group.
        routers: usize,
    },
}

/// The three routed presets used by the collective experiments and oracles
/// (the degenerate [`FabricSpec::Direct`] wire is not in this list — it only
/// exists for the two-rank paper scenarios).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricPreset {
    /// Non-blocking crossbar.
    Switch,
    /// 2-D torus, near-square shape.
    Torus,
    /// Dragonfly with a near-square group split.
    Dragonfly,
}

impl FabricPreset {
    /// All routed presets, in registry order.
    pub const ALL: [FabricPreset; 3] = [
        FabricPreset::Switch,
        FabricPreset::Torus,
        FabricPreset::Dragonfly,
    ];

    /// Stable preset name.
    pub fn name(&self) -> &'static str {
        match self {
            FabricPreset::Switch => "switch",
            FabricPreset::Torus => "torus",
            FabricPreset::Dragonfly => "dragonfly",
        }
    }

    /// Concrete spec for `nodes` nodes. Torus picks the most-square `x × y`
    /// factorisation; dragonfly the most-square `groups × routers` split.
    pub fn spec(&self, nodes: usize) -> FabricSpec {
        assert!(nodes >= 2, "a fabric needs at least two nodes");
        let d = largest_divisor_le_sqrt(nodes);
        match self {
            FabricPreset::Switch => FabricSpec::Switch,
            FabricPreset::Torus => FabricSpec::Torus { x: nodes / d, y: d },
            FabricPreset::Dragonfly => FabricSpec::Dragonfly {
                groups: d,
                routers: nodes / d,
            },
        }
    }
}

impl fmt::Display for FabricPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn largest_divisor_le_sqrt(n: usize) -> usize {
    (1..=n)
        .take_while(|d| d * d <= n)
        .filter(|d| n.is_multiple_of(*d))
        .last()
        .unwrap_or(1)
}

impl FabricSpec {
    /// Number of nodes this spec describes, if the shape pins it (`None`
    /// for switch, whose size comes from [`FabricSpec::build_for`]).
    pub fn fixed_nodes(&self) -> Option<usize> {
        match *self {
            FabricSpec::Direct => Some(2),
            FabricSpec::Switch => None,
            FabricSpec::Torus { x, y } => Some(x * y),
            FabricSpec::Dragonfly { groups, routers } => Some(groups * routers),
        }
    }

    /// Build the fabric for `nodes` nodes. Panics if the shape pins a
    /// different node count.
    pub fn build_for(&self, nodes: usize) -> Fabric {
        if let Some(n) = self.fixed_nodes() {
            assert_eq!(n, nodes, "fabric shape {:?} pins {} nodes", self, n);
        }
        assert!(nodes >= 2, "a fabric needs at least two nodes");
        let links = match *self {
            FabricSpec::Direct => vec![
                link("wire.0to1".into(), 0, 1),
                link("wire.1to0".into(), 1, 0),
            ],
            FabricSpec::Switch => switch_links(nodes),
            FabricSpec::Torus { x, y } => torus_links(x, y),
            FabricSpec::Dragonfly { groups, routers } => dragonfly_links(groups, routers),
        };
        Fabric {
            kind: *self,
            nodes,
            links,
        }
    }

    /// Build a shape-pinned fabric (direct/torus/dragonfly).
    pub fn build(&self) -> Fabric {
        let n = self
            .fixed_nodes()
            .expect("switch fabrics need build_for(nodes)");
        self.build_for(n)
    }
}

/// A built fabric: its shape, its node count and its links. Routes are
/// computed, not stored: see [`Fabric::route`].
#[derive(Clone, Debug)]
pub struct Fabric {
    kind: FabricSpec,
    nodes: usize,
    links: Vec<LinkSpec>,
}

impl Fabric {
    /// The fabric's shape.
    pub fn kind(&self) -> FabricSpec {
        self.kind
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The directed links, in resource-creation order.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// The deterministic route from `src` to `dst` as link indices, hop by
    /// hop, walked from `src` by the shape's next-hop rule. Empty iff
    /// `src == dst`. Panics unless both are nodes of this fabric.
    pub fn route(&self, src: usize, dst: usize) -> Route<'_> {
        assert!(
            src < self.nodes && dst < self.nodes,
            "route {src} -> {dst} on a fabric of {} nodes",
            self.nodes
        );
        Route {
            fabric: self,
            at: src,
            dst,
        }
    }

    /// The link a route toward node `dst` takes out of vertex `at != dst`.
    fn next_hop(&self, at: usize, dst: usize) -> usize {
        let n = self.nodes;
        match self.kind {
            // Link `i < n` leaves node `i` (a wire, or an up-link to the
            // crossbar, vertex `n`); down-links follow at `n + d`.
            FabricSpec::Direct | FabricSpec::Switch => {
                if at < n {
                    at
                } else {
                    n + dst
                }
            }
            FabricSpec::Torus { x, y } => torus_hop([x, y], at, dst),
            FabricSpec::Dragonfly { groups, routers } => dfly_hop(groups, routers, at, dst),
        }
    }
}

/// The links of one route, in hop order; see [`Fabric::route`].
#[derive(Clone, Debug)]
pub struct Route<'a> {
    fabric: &'a Fabric,
    /// The vertex the walk has reached.
    at: usize,
    dst: usize,
}

impl Iterator for Route<'_> {
    type Item = LinkIdx;

    fn next(&mut self) -> Option<LinkIdx> {
        if self.at == self.dst {
            return None;
        }
        let l = self.fabric.next_hop(self.at, self.dst);
        self.at = self.fabric.links[l].dst;
        Some(l as LinkIdx)
    }
}

fn link(name: String, src: usize, dst: usize) -> LinkSpec {
    LinkSpec {
        name,
        bw_scale: 1.0,
        src,
        dst,
    }
}

/// Up-links first, then down-links; vertex `nodes` is the crossbar.
fn switch_links(nodes: usize) -> Vec<LinkSpec> {
    let up = (0..nodes).map(|i| link(format!("fab.n{i}.up"), i, nodes));
    let down = (0..nodes).map(|i| link(format!("fab.n{i}.down"), nodes, i));
    up.chain(down).collect()
}

/// Directions of a 2-D torus, in per-node link-creation order.
const TORUS_DIRS: [(&str, usize, isize); 4] =
    [("xp", 0, 1), ("xn", 0, -1), ("yp", 1, 1), ("yn", 1, -1)];

/// Whether the nodes of a torus with rings `dims` have a link in direction
/// `dir`. Rings of size 1 need no link; in rings of size 2 the tie always
/// breaks toward +, so the − link would never route.
fn torus_has(dims: [usize; 2], dir: usize) -> bool {
    let (_, dim, sign) = TORUS_DIRS[dir];
    dims[dim] > if sign > 0 { 1 } else { 2 }
}

/// Per-node directed links to each torus neighbour, node-major, each
/// node's in [`TORUS_DIRS`] order.
fn torus_links(x: usize, y: usize) -> Vec<LinkSpec> {
    let dims = [x, y];
    let mut links = Vec::new();
    for i in 0..x * y {
        for (dir, &(suffix, dim, sign)) in TORUS_DIRS.iter().enumerate() {
            if torus_has(dims, dir) {
                let mut c = [i % x, i / x];
                c[dim] = (c[dim] as isize + sign).rem_euclid(dims[dim] as isize) as usize;
                links.push(link(format!("fab.n{i}.{suffix}"), i, c[1] * x + c[0]));
            }
        }
    }
    links
}

/// Dimension order: settle X, then Y; the shorter ring direction wins,
/// ties toward +. Every node has the same directions, so a link's index is
/// its node times their count plus the directions created before it.
fn torus_hop(dims: [usize; 2], at: usize, dst: usize) -> usize {
    let (cur, to) = ([at % dims[0], at / dims[0]], [dst % dims[0], dst / dims[0]]);
    let dim = if cur[0] != to[0] { 0 } else { 1 };
    let m = dims[dim];
    let fwd = (to[dim] + m - cur[dim]) % m;
    let back = (cur[dim] + m - to[dim]) % m;
    let dir = if fwd <= back { 2 * dim } else { 2 * dim + 1 };
    debug_assert!(torus_has(dims, dir), "a tie on a ring of 2 goes toward +");
    let count = |dirs: std::ops::Range<usize>| dirs.filter(|&d| torus_has(dims, d)).count();
    at * count(0..4) + count(0..dir)
}

/// Router of group `g` hosting the directed global link `g → h`: the `g − 1`
/// outgoing globals are dealt round-robin across the group's routers.
fn dfly_gateway(g: usize, h: usize, routers: usize) -> usize {
    (h - usize::from(h > g)) % routers
}

/// Intra-group complete graph first (all ordered pairs, group-major), then
/// one directed global link per ordered group pair.
fn dragonfly_links(groups: usize, routers: usize) -> Vec<LinkSpec> {
    let node = |g: usize, r: usize| g * routers + r;
    let mut links = Vec::new();
    for g in 0..groups {
        for i in 0..routers {
            for j in (0..routers).filter(|&j| j != i) {
                links.push(link(format!("fab.g{g}.r{i}r{j}"), node(g, i), node(g, j)));
            }
        }
    }
    for g in 0..groups {
        for h in (0..groups).filter(|&h| h != g) {
            let (src, dst) = (dfly_gateway(g, h, routers), dfly_gateway(h, g, routers));
            links.push(link(format!("fab.g{g}g{h}"), node(g, src), node(h, dst)));
        }
    }
    links
}

/// Inside the destination's group, the intra-group hop to it; elsewhere the
/// hop to the gateway toward the destination's group, then its global link.
fn dfly_hop(groups: usize, routers: usize, at: usize, dst: usize) -> usize {
    let (g, r) = (at / routers, at % routers);
    let gd = dst / routers;
    // Node `at`'s `routers − 1` intra-group links, in target order.
    let intra = |j: usize| at * (routers - 1) + j - usize::from(j > r);
    if g == gd {
        return intra(dst % routers);
    }
    let gateway = dfly_gateway(g, gd, routers);
    if r != gateway {
        return intra(gateway);
    }
    // The global links follow every intra-group one, `groups − 1` per
    // group, in target order.
    groups * routers * (routers - 1) + g * (groups - 1) + gd - usize::from(gd > g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Directed adjacency over all fabric vertices (nodes + internal).
    fn adjacency(f: &Fabric) -> Vec<Vec<usize>> {
        let vertices = f.links().iter().map(|l| l.src.max(l.dst) + 1).max();
        let mut adj = vec![Vec::new(); vertices.unwrap_or(0)];
        for l in f.links() {
            adj[l.src].push(l.dst);
        }
        adj
    }

    fn bfs_dist(adj: &[Vec<usize>], src: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; adj.len()];
        dist[src] = 0;
        let mut q = VecDeque::from([src]);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    fn all_fabrics() -> Vec<(&'static str, Fabric)> {
        vec![
            ("direct", FabricSpec::Direct.build()),
            ("switch4", FabricSpec::Switch.build_for(4)),
            ("switch8", FabricSpec::Switch.build_for(8)),
            ("torus4x2", FabricPreset::Torus.spec(8).build_for(8)),
            ("torus4x4", FabricPreset::Torus.spec(16).build_for(16)),
            ("torus5x3", FabricSpec::Torus { x: 5, y: 3 }.build()),
            ("dfly2x4", FabricPreset::Dragonfly.spec(8).build_for(8)),
            (
                "dfly3x3",
                FabricSpec::Dragonfly {
                    groups: 3,
                    routers: 3,
                }
                .build(),
            ),
            ("dfly4x4", FabricPreset::Dragonfly.spec(16).build_for(16)),
        ]
    }

    #[test]
    fn direct_fabric_freezes_paper_wire_names() {
        let f = FabricSpec::Direct.build();
        assert_eq!(f.nodes(), 2);
        let names: Vec<_> = f.links().iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["wire.0to1", "wire.1to0"]);
        assert!(f.route(0, 1).eq([0]));
        assert!(f.route(1, 0).eq([1]));
    }

    #[test]
    fn routes_are_contiguous_and_loop_free() {
        // Every route starts at src, ends at dst, chains hop endpoints, and
        // never revisits a vertex (hence never reuses a link).
        for (name, f) in all_fabrics() {
            for s in 0..f.nodes() {
                for d in 0..f.nodes() {
                    let r: Vec<_> = f.route(s, d).collect();
                    if s == d {
                        assert!(r.is_empty(), "{}: self-route must be empty", name);
                        continue;
                    }
                    assert!(!r.is_empty(), "{}: missing route {}→{}", name, s, d);
                    let mut visited = std::collections::HashSet::from([s]);
                    let mut at = s;
                    for l in r {
                        let link = &f.links()[l as usize];
                        assert_eq!(link.src, at, "{}: broken chain {}→{}", name, s, d);
                        at = link.dst;
                        assert!(
                            visited.insert(at),
                            "{}: route {}→{} revisits vertex {}",
                            name,
                            s,
                            d,
                            at
                        );
                    }
                    assert_eq!(at, d, "{}: route {}→{} ends at {}", name, s, d, at);
                }
            }
        }
    }

    #[test]
    fn routes_are_minimal_on_switch_and_torus() {
        for (name, f) in all_fabrics() {
            if matches!(f.kind(), FabricSpec::Dragonfly { .. }) {
                // Dragonfly minimal routing is minimal w.r.t. the
                // gateway-constrained path set, not raw BFS; skip here.
                continue;
            }
            let adj = adjacency(&f);
            for s in 0..f.nodes() {
                let dist = bfs_dist(&adj, s);
                for (d, &want) in dist[..f.nodes()].iter().enumerate() {
                    assert_eq!(
                        f.route(s, d).count(),
                        want,
                        "{}: route {}→{} is not shortest",
                        name,
                        s,
                        d
                    );
                }
            }
        }
    }

    #[test]
    fn dragonfly_routes_bounded_and_valid() {
        for (name, f) in all_fabrics() {
            if let FabricSpec::Dragonfly { routers, .. } = f.kind() {
                for s in 0..f.nodes() {
                    for d in 0..f.nodes() {
                        if s == d {
                            continue;
                        }
                        let same_group = s / routers == d / routers;
                        let max = if same_group { 1 } else { 3 };
                        let hops = f.route(s, d).count();
                        assert!(hops <= max, "{}: {}→{} takes {} hops", name, s, d, hops);
                    }
                }
            }
        }
    }

    #[test]
    fn builds_are_deterministic() {
        for (name, f) in all_fabrics() {
            let again = f.kind().build_for(f.nodes());
            let names: Vec<_> = f.links().iter().map(|l| l.name.clone()).collect();
            let names2: Vec<_> = again.links().iter().map(|l| l.name.clone()).collect();
            assert_eq!(names, names2, "{}: link set changed across builds", name);
            for s in 0..f.nodes() {
                for d in 0..f.nodes() {
                    assert!(
                        f.route(s, d).eq(again.route(s, d)),
                        "{}: route changed",
                        name
                    );
                }
            }
        }
    }

    #[test]
    fn preset_shapes_cover_required_sizes() {
        for preset in FabricPreset::ALL {
            for nodes in [2, 8, 64, 256] {
                let f = preset.spec(nodes).build_for(nodes);
                assert_eq!(f.nodes(), nodes, "{} at {}", preset.name(), nodes);
            }
        }
    }

    #[test]
    fn switch_routes_disjoint_under_permutation() {
        // The crossbar guarantee behind the collective closed forms: any
        // node permutation routes over pairwise-disjoint links.
        let f = FabricSpec::Switch.build_for(8);
        let perm = [3, 0, 7, 1, 6, 2, 5, 4]; // sample derangement-ish map
        let mut used = std::collections::HashSet::new();
        for (s, &d) in perm.iter().enumerate() {
            if s == d {
                continue;
            }
            for l in f.route(s, d) {
                assert!(used.insert(l), "switch links must not be shared");
            }
        }
    }

    /// A route is walked toward `dst`, so an endpoint outside the fabric
    /// must stop at the call, in every build: on a torus the walk toward
    /// node 16 of 16 would never arrive.
    #[test]
    #[should_panic(expected = "route 0 -> 16 on a fabric of 16 nodes")]
    fn route_to_a_node_outside_the_fabric_panics() {
        let _ = FabricPreset::Torus.spec(16).build_for(16).route(0, 16);
    }
}
