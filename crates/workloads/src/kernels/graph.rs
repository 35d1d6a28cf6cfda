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
    /// The neighbours sit in one CSR array, filled in edge-creation order
    /// like the reference's adjacency lists. Each `next[v]` receives its
    /// shares from `u` in ascending order, the initial value of `next` and
    /// the order of the delta sum are the reference's, so every float comes
    /// out the same. The two rank buffers are swapped instead of
    /// reallocated.
    pub fn pagerank(&self, max_iters: usize, tol: f64) -> PageRankResult {
        const DAMPING: f64 = 0.85;
        let n = self.nodes;
        let mut start = vec![0usize; n + 1];
        for &(u, v, _) in &self.edges {
            start[u as usize + 1] += 1;
            start[v as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut nbrs = vec![0u32; 2 * self.edges.len()];
        for &(u, v, _) in &self.edges {
            nbrs[fill[u as usize]] = v;
            fill[u as usize] += 1;
            nbrs[fill[v as usize]] = u;
            fill[v as usize] += 1;
        }
        let mut ranks = vec![1.0 / n as f64; n];
        let mut next = vec![0.0; n];
        let mut edge_updates = 0;
        let mut iterations = 0;
        for _ in 0..max_iters {
            iterations += 1;
            next.fill((1.0 - DAMPING) / n as f64);
            for (u, &rank) in ranks.iter().enumerate() {
                let adj = &nbrs[start[u]..start[u + 1]];
                if adj.is_empty() {
                    for r in next.iter_mut() {
                        *r += DAMPING * rank / n as f64;
                    }
                    continue;
                }
                let share = DAMPING * rank / adj.len() as f64;
                for &v in adj {
                    next[v as usize] += share;
                }
                edge_updates += adj.len();
            }
            let delta: f64 = ranks.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut ranks, &mut next);
            if delta < tol {
                break;
            }
        }
        PageRankResult {
            ranks,
            iterations,
            edge_updates,
        }
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
