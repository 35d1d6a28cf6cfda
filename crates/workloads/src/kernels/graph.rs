//! Graph kernels: the work-unit forms of BFS, DFS, Kruskal MST and
//! PageRank on random graphs, whose size is the noisy input ("the
//! execution latency directly scales with the size of the random graph").
//!
//! The reference graph (`tests/oracle/graph.rs`) attaches each node `i` in
//! `1..n` to a random earlier node, drawing the parent and then a weight,
//! then draws `extra_edges` pairs `(u, v)`, each with a weight if `u != v`.
//! [`random_edge_count`] and [`EdgeList`] make those draws without
//! building adjacency lists.

use rand::Rng;

/// Edge weights are drawn from `1..=MAX_WEIGHT`.
const MAX_WEIGHT: u32 = 1_000;

/// The edge count of the reference random graph, leaving `rng` where
/// building it leaves it. The graph is connected, so a traversal from
/// node 0 visits all `n` nodes and scans all `2E` directed edges: this
/// count is all BFS and DFS work depends on. The spanning tree's
/// `n - 1` edges always exist, so their parent and weight draws are
/// jumped over; only an extra edge's `u != v` decides whether it exists.
pub fn random_edge_count<R: Rng + ?Sized>(rng: &mut R, n: usize, extra_edges: usize) -> usize {
    let n = n.max(1);
    rng.discard(2 * (n - 1) as u64);
    let mut edges = n - 1;
    for _ in 0..extra_edges {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            // The weight.
            rng.discard(1);
            edges += 1;
        }
    }
    edges
}

/// The reference random graph, as a flat edge list in creation order:
/// the form [`EdgeList::mst_kruskal`] and [`EdgeList::pagerank`] compute
/// the same results from without adjacency `Vec`s.
#[derive(Debug, Clone)]
pub struct EdgeList {
    nodes: usize,
    /// `(u, v, w)` as drawn.
    edges: Vec<(u32, u32, u32)>,
}

impl EdgeList {
    /// Makes exactly the draws of the reference random graph with the
    /// same arguments and keeps its edges.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: usize, extra_edges: usize) -> EdgeList {
        let n = n.max(1);
        let mut edges = Vec::with_capacity(n - 1 + extra_edges);
        for i in 1..n {
            let parent = rng.gen_range(0..i);
            let w = rng.gen_range(1..=MAX_WEIGHT);
            edges.push((parent as u32, i as u32, w));
        }
        for _ in 0..extra_edges {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            if u != v {
                let w = rng.gen_range(1..=MAX_WEIGHT);
                edges.push((u, v, w));
            }
        }
        EdgeList { nodes: n, edges }
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The reference Kruskal MST of the equivalent adjacency-list graph,
    /// bit for bit.
    ///
    /// The reference's edge list emits each edge from its lower endpoint's
    /// adjacency list, in creation order, and Kruskal stable-sorts
    /// that by weight: the order is `(w, lower endpoint, creation index)`.
    /// Two stable counting passes, by lower endpoint and then by weight,
    /// give that order. `union(lo, hi)` keeps the argument order, which
    /// path compression's step counts depend on.
    pub fn mst_kruskal(&self) -> MstResult {
        let by_lo = counting_sort(0..self.edges.len(), self.nodes, |i| {
            let (u, v, _) = self.edges[i];
            u.min(v) as usize
        });
        let order = counting_sort(by_lo.iter().copied(), MAX_WEIGHT as usize + 1, |i| {
            self.edges[i].2 as usize
        });
        let mut uf = UnionFind::new(self.nodes);
        let mut total = 0u64;
        let mut tree_edges = 0;
        for i in order {
            let (u, v, w) = self.edges[i];
            if uf.union(u.min(v), u.max(v)) {
                total += u64::from(w);
                tree_edges += 1;
                if tree_edges + 1 == self.nodes {
                    break;
                }
            }
        }
        MstResult {
            total_weight: total,
            tree_edges,
            edges_examined: self.edges.len(),
            find_steps: uf.find_steps,
        }
    }

    /// The reference PageRank (damping 0.85, until the L1 change is below
    /// `tol` or after `max_iters` iterations) of the equivalent
    /// adjacency-list graph, bit for bit.
    ///
    /// The reference pushes each `u`'s share into its neighbours in
    /// ascending `u`, so `next[v]` starts at the teleport term and adds the
    /// shares of `v`'s neighbours in ascending order. This pull form adds
    /// them in that order from in-lists sorted by source (`InLanes`),
    /// with the shares computed once per iteration by the reference's
    /// expression. Targets run in groups of `LANES`, one accumulator
    /// each, so the additions of a group are independent chains; each
    /// in-list is padded to its group's longest with a sentinel source
    /// whose share is `0.0`, which changes no sum, since `acc + 0.0 == acc`
    /// for the positive `acc`. The delta sum runs in `v` order, as the
    /// reference's does, and every iteration updates each of the `2E`
    /// directed edges once.
    pub fn pagerank(&self, max_iters: usize, tol: f64) -> PageRankResult {
        if self.edges.is_empty() {
            return self.dangling_pagerank(max_iters, tol);
        }
        // The benchmark's graphs (n ≤ 3,000) store their node indices and
        // the sentinel as `u16`: against `u32` everywhere, that measured
        // ~2% less `wall_s` and ~5% less `peak_rss_mb` (DESIGN §20).
        if self.nodes <= usize::from(u16::MAX) {
            self.pull_pagerank(&InLanes::<u16>::new(self), max_iters, tol)
        } else {
            self.pull_pagerank(&InLanes::<u32>::new(self), max_iters, tol)
        }
    }

    /// [`EdgeList::pagerank`]'s iteration over built lanes.
    fn pull_pagerank<N: Node>(
        &self,
        lanes: &InLanes<N>,
        max_iters: usize,
        tol: f64,
    ) -> PageRankResult {
        let n = self.nodes;
        let base = (1.0 - DAMPING) / n as f64;
        let mut ranks = vec![1.0 / n as f64; n];
        // `next`, then `share` with one slot past the nodes for the
        // padding's sentinel source.
        let mut scratch = vec![0.0; 2 * n + 1];
        let (next, share) = scratch.split_at_mut(n);
        let mut iterations = 0;
        for _ in 0..max_iters {
            iterations += 1;
            for ((s, &rank), &d) in share.iter_mut().zip(&ranks).zip(&lanes.degree) {
                *s = DAMPING * rank / f64::from(d);
            }
            let mut first = 0;
            for targets in lanes.order.chunks(LANES) {
                let end = first + lanes.lane_len(targets);
                let mut acc = [base; LANES];
                for sources in lanes.sources[first..end].chunks_exact(LANES) {
                    for (a, &u) in acc.iter_mut().zip(sources) {
                        *a += share[u.index()];
                    }
                }
                for (&v, a) in targets.iter().zip(acc) {
                    next[v.index()] = a;
                }
                first = end;
            }
            let delta: f64 = ranks.iter().zip(&*next).map(|(a, b)| (a - b).abs()).sum();
            ranks.copy_from_slice(next);
            if delta < tol {
                break;
            }
        }
        PageRankResult {
            ranks,
            iterations,
            edge_updates: iterations * 2 * self.edges.len(),
        }
    }

    /// The reference PageRank of a graph without edges (only `n == 1` is
    /// drawn): every node is dangling and spreads `DAMPING * rank / n` to
    /// every node, `u` by `u`.
    fn dangling_pagerank(&self, max_iters: usize, tol: f64) -> PageRankResult {
        let n = self.nodes;
        let mut ranks = vec![1.0 / n as f64; n];
        let mut iterations = 0;
        for _ in 0..max_iters {
            iterations += 1;
            let mut next = vec![(1.0 - DAMPING) / n as f64; n];
            for &rank in &ranks {
                for r in next.iter_mut() {
                    *r += DAMPING * rank / n as f64;
                }
            }
            let delta: f64 = ranks.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            ranks = next;
            if delta < tol {
                break;
            }
        }
        PageRankResult {
            ranks,
            iterations,
            edge_updates: 0,
        }
    }
}

/// PageRank's damping factor.
const DAMPING: f64 = 0.85;

/// Targets whose PageRank sums run side by side.
const LANES: usize = 4;

/// A node index as [`InLanes`] stores it.
trait Node: Copy {
    fn new(index: usize) -> Self;
    fn index(self) -> usize;
}

impl Node for u16 {
    fn new(index: usize) -> u16 {
        index as u16
    }

    fn index(self) -> usize {
        usize::from(self)
    }
}

impl Node for u32 {
    fn new(index: usize) -> u32 {
        index as u32
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Every node's in-list in ascending source order, laid out for
/// [`EdgeList::pagerank`]'s lanes.
///
/// The targets are sorted by ascending degree, so a group's in-lists are
/// about equally long, and cut into groups of [`LANES`]. The groups'
/// lists follow each other in `sources`, interleaved (step `k` of a
/// group's `j`th target at `LANES * k + j` from the group's start) and
/// padded to the group's longest, its last target's, with the sentinel
/// source `n`. One counting pass over the edges gives the degrees, which
/// size both the lanes and a by-source array of the edges' two
/// directions; walking that array in source order then fills each
/// in-list in ascending source order.
struct InLanes<N> {
    sources: Vec<N>,
    /// The targets, group by group.
    order: Vec<N>,
    /// Each node's degree: its in-list's and its out-list's length.
    degree: Vec<u32>,
}

impl<N: Node> InLanes<N> {
    fn new(graph: &EdgeList) -> InLanes<N> {
        let n = graph.nodes;
        let mut degree = vec![0u32; n];
        for &(u, v, _) in &graph.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let longest = degree.iter().copied().max().unwrap_or(0) as usize;
        let order = counting_sort(0..n, longest + 1, |v| degree[v] as usize)
            .into_iter()
            .map(N::new)
            .collect();
        let mut lanes = InLanes {
            sources: Vec::new(),
            order,
            degree,
        };
        let total = lanes.order.chunks(LANES).map(|g| lanes.lane_len(g)).sum();
        lanes.sources = vec![N::new(n); total];
        // `next[u]` is where `u`'s next arc goes in `arcs`, the edges' two
        // directions by source.
        let mut next = Vec::with_capacity(n);
        let mut arc_count = 0;
        for &d in &lanes.degree {
            next.push(arc_count);
            arc_count += d as usize;
        }
        let mut arcs = vec![(N::new(0), N::new(0)); arc_count];
        for &(u, v, _) in &graph.edges {
            let (u, v) = (u as usize, v as usize);
            arcs[next[u]] = (N::new(u), N::new(v));
            next[u] += 1;
            arcs[next[v]] = (N::new(v), N::new(u));
            next[v] += 1;
        }
        // Now `next[v]` is where target `v`'s next source goes in `sources`.
        let mut first = 0;
        for group in lanes.order.chunks(LANES) {
            for (j, v) in group.iter().enumerate() {
                next[v.index()] = first + j;
            }
            first += lanes.lane_len(group);
        }
        for &(u, v) in &arcs {
            lanes.sources[next[v.index()]] = u;
            next[v.index()] += LANES;
        }
        lanes
    }

    /// The length of a group's interleaved lists in `sources`.
    fn lane_len(&self, group: &[N]) -> usize {
        LANES * self.degree[group[group.len() - 1].index()] as usize
    }
}

/// `items` sorted stably by `key`, which must be below `buckets`.
fn counting_sort(
    items: impl ExactSizeIterator<Item = usize> + Clone,
    buckets: usize,
    key: impl Fn(usize) -> usize,
) -> Vec<usize> {
    let mut next = vec![0usize; buckets + 1];
    for i in items.clone() {
        next[key(i) + 1] += 1;
    }
    for b in 0..buckets {
        next[b + 1] += next[b];
    }
    let mut out = vec![0; items.len()];
    for i in items {
        let slot = &mut next[key(i)];
        out[*slot] = i;
        *slot += 1;
    }
    out
}

/// Disjoint-set forest with union by rank and path compression.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// `find` steps performed (work counter).
    pub find_steps: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            find_steps: 0,
        }
    }

    /// Finds the representative of `x`, compressing the path.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
            self.find_steps += 1;
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Unions the sets of `a` and `b`; returns `false` if already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (ra, rb) = if self.rank[ra as usize] < self.rank[rb as usize] {
            (rb, ra)
        } else {
            (ra, rb)
        };
        self.parent[rb as usize] = ra;
        if self.rank[ra as usize] == self.rank[rb as usize] {
            self.rank[ra as usize] += 1;
        }
        true
    }
}

/// Result of Kruskal's minimum-spanning-tree computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MstResult {
    /// Total weight of the MST (or forest).
    pub total_weight: u64,
    /// Edges accepted into the tree.
    pub tree_edges: usize,
    /// Edges examined (sorted candidates).
    pub edges_examined: usize,
    /// Union-find `find` steps (inner-loop work).
    pub find_steps: usize,
}

/// Result of the PageRank power iteration.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// Final rank per node (sums to ~1).
    pub ranks: Vec<f64>,
    /// Power iterations executed.
    pub iterations: usize,
    /// Directed edge updates performed (inner-loop work).
    pub edge_updates: usize,
}

#[cfg(test)]
#[path = "../../tests/oracle/graph.rs"]
mod tests;
