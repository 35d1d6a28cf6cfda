//! Graph kernels: random graphs, BFS, DFS, Kruskal MST, and PageRank.
//!
//! Four of the paper's Python benchmarks (Table 3) operate on random
//! graphs whose size is the noisy input: BFS, DFS, MST, and PageRank.
//! These are real implementations — the traversal/work counters they
//! return become the request's JIT work units, so request latency scales
//! with the random input exactly as in the paper ("the execution latency
//! directly scales with the size of the random graph"). The benchmarks
//! get those counters from [`random_edge_count`] and [`EdgeList`], which
//! leave the generator where [`Graph::random`] does without building
//! adjacency lists.

use rand::Rng;

/// Edge weights are drawn from `1..=MAX_WEIGHT`.
const MAX_WEIGHT: u32 = 1_000;

/// An undirected weighted graph in adjacency-list form.
#[derive(Debug, Clone)]
pub struct Graph {
    /// `adj[u]` lists `(v, weight)` edges.
    adj: Vec<Vec<(u32, u32)>>,
    edges: usize,
}

impl Graph {
    /// Generates a connected random graph with `n >= 1` nodes and roughly
    /// `extra_edges` additional non-tree edges.
    ///
    /// Construction first builds a random spanning tree (guaranteeing
    /// connectivity, so traversals visit every node), then sprinkles extra
    /// edges uniformly.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: usize, extra_edges: usize) -> Graph {
        let n = n.max(1);
        let mut g = Graph {
            adj: vec![Vec::new(); n],
            edges: 0,
        };
        // Random spanning tree: attach node i to a random earlier node.
        for i in 1..n {
            let parent = rng.gen_range(0..i);
            let w = rng.gen_range(1..=MAX_WEIGHT);
            g.add_edge(parent as u32, i as u32, w);
        }
        for _ in 0..extra_edges {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            if u != v {
                let w = rng.gen_range(1..=MAX_WEIGHT);
                g.add_edge(u, v, w);
            }
        }
        g
    }

    fn add_edge(&mut self, u: u32, v: u32, w: u32) {
        self.adj[u as usize].push((v, w));
        self.adj[v as usize].push((u, w));
        self.edges += 1;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Neighbors of `u`.
    pub fn neighbors(&self, u: u32) -> &[(u32, u32)] {
        &self.adj[u as usize]
    }

    /// All edges as `(u, v, w)` with `u <= v`, each once.
    pub fn edge_list(&self) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::with_capacity(self.edges);
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &(v, w) in nbrs {
                if (u as u32) <= v {
                    out.push((u as u32, v, w));
                }
            }
        }
        out
    }
}

/// Makes exactly the draws [`Graph::random`] makes and hands each created
/// edge `(u, v, w)` to `add`, in creation order, without building
/// adjacency lists.
fn draw_random_edges<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    extra_edges: usize,
    mut add: impl FnMut(u32, u32, u32),
) {
    let n = n.max(1);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        let w = rng.gen_range(1..=MAX_WEIGHT);
        add(parent as u32, i as u32, w);
    }
    for _ in 0..extra_edges {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u != v {
            let w = rng.gen_range(1..=MAX_WEIGHT);
            add(u, v, w);
        }
    }
}

/// The edge count of the graph [`Graph::random`] would build, leaving
/// `rng` where it leaves it. The graph is connected, so a traversal from
/// node 0 visits all `n` nodes and scans all `2E` directed edges: this
/// count is all [`bfs`] and [`dfs`] work depends on. The spanning tree's
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

/// The graph [`Graph::random`] builds, as a flat edge list in creation
/// order: the form [`EdgeList::mst_kruskal`] and [`EdgeList::pagerank`]
/// compute the same results from without adjacency `Vec`s.
#[derive(Debug, Clone)]
pub struct EdgeList {
    nodes: usize,
    /// `(u, v, w)` as drawn.
    edges: Vec<(u32, u32, u32)>,
}

impl EdgeList {
    /// Makes exactly the draws of [`Graph::random`] with the same
    /// arguments and keeps its edges.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: usize, extra_edges: usize) -> EdgeList {
        let mut edges = Vec::with_capacity(n.saturating_sub(1) + extra_edges);
        draw_random_edges(rng, n, extra_edges, |u, v, w| edges.push((u, v, w)));
        EdgeList {
            nodes: n.max(1),
            edges,
        }
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// [`mst_kruskal`] of the equivalent [`Graph`], bit for bit.
    ///
    /// [`Graph::edge_list`] emits each edge from its lower endpoint's
    /// adjacency list, in creation order, and `mst_kruskal` stable-sorts
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

    /// [`pagerank`] of the equivalent [`Graph`], bit for bit.
    ///
    /// The neighbours sit in one CSR array, filled in edge-creation order
    /// like [`Graph`]'s adjacency lists. Each `next[v]` receives its
    /// shares from `u` in ascending order, the initial value of `next` and
    /// the order of the delta sum are [`pagerank`]'s, so every float comes
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

/// Work counters produced by a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraversalStats {
    /// Nodes visited.
    pub nodes_visited: usize,
    /// Directed edge relaxations performed.
    pub edges_scanned: usize,
}

/// Breadth-first search from node 0, returning per-node distance and work
/// counters.
pub fn bfs(g: &Graph) -> (Vec<u32>, TraversalStats) {
    let n = g.node_count();
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[0] = 0;
    queue.push_back(0u32);
    let mut stats = TraversalStats {
        nodes_visited: 0,
        edges_scanned: 0,
    };
    while let Some(u) = queue.pop_front() {
        stats.nodes_visited += 1;
        for &(v, _) in g.neighbors(u) {
            stats.edges_scanned += 1;
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = dist[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    (dist, stats)
}

/// Iterative depth-first search from node 0, returning preorder and work
/// counters.
pub fn dfs(g: &Graph) -> (Vec<u32>, TraversalStats) {
    let n = g.node_count();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![0u32];
    let mut stats = TraversalStats {
        nodes_visited: 0,
        edges_scanned: 0,
    };
    while let Some(u) = stack.pop() {
        if seen[u as usize] {
            continue;
        }
        seen[u as usize] = true;
        order.push(u);
        stats.nodes_visited += 1;
        for &(v, _) in g.neighbors(u) {
            stats.edges_scanned += 1;
            if !seen[v as usize] {
                stack.push(v);
            }
        }
    }
    (order, stats)
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

/// Kruskal's algorithm over the graph's edge list.
pub fn mst_kruskal(g: &Graph) -> MstResult {
    let mut edges = g.edge_list();
    edges.sort_by_key(|&(_, _, w)| w);
    let mut uf = UnionFind::new(g.node_count());
    let mut total = 0u64;
    let mut tree_edges = 0;
    for &(u, v, w) in &edges {
        if uf.union(u, v) {
            total += u64::from(w);
            tree_edges += 1;
            if tree_edges + 1 == g.node_count() {
                break;
            }
        }
    }
    MstResult {
        total_weight: total,
        tree_edges,
        edges_examined: edges.len(),
        find_steps: uf.find_steps,
    }
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

/// PageRank with damping 0.85 until L1 change < `tol` or `max_iters`.
pub fn pagerank(g: &Graph, max_iters: usize, tol: f64) -> PageRankResult {
    const DAMPING: f64 = 0.85;
    let n = g.node_count();
    let mut ranks = vec![1.0 / n as f64; n];
    let mut edge_updates = 0;
    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let mut next = vec![(1.0 - DAMPING) / n as f64; n];
        for (u, &rank) in ranks.iter().enumerate() {
            let degree = g.neighbors(u as u32).len();
            if degree == 0 {
                // Dangling mass spreads uniformly.
                for r in next.iter_mut() {
                    *r += DAMPING * rank / n as f64;
                }
                continue;
            }
            let share = DAMPING * rank / degree as f64;
            for &(v, _) in g.neighbors(u as u32) {
                next[v as usize] += share;
                edge_updates += 1;
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
        edge_updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn graph(n: usize, extra: usize) -> Graph {
        let mut rng = SmallRng::seed_from_u64(7);
        Graph::random(&mut rng, n, extra)
    }

    #[test]
    fn random_graph_is_connected() {
        let g = graph(200, 100);
        let (dist, stats) = bfs(&g);
        assert_eq!(stats.nodes_visited, 200);
        assert!(dist.iter().all(|&d| d != u32::MAX));
    }

    #[test]
    fn single_node_graph_works() {
        let g = graph(1, 0);
        let (dist, stats) = bfs(&g);
        assert_eq!(dist, vec![0]);
        assert_eq!(stats.nodes_visited, 1);
        assert_eq!(dfs(&g).1.nodes_visited, 1);
        assert_eq!(mst_kruskal(&g).tree_edges, 0);
    }

    #[test]
    fn bfs_distances_are_shortest_in_hops() {
        // Path graph 0-1-2-3 built by hand via random with n small is not
        // deterministic; construct directly.
        let mut g = Graph {
            adj: vec![Vec::new(); 4],
            edges: 0,
        };
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, 1);
        g.add_edge(0, 3, 1); // shortcut
        let (dist, _) = bfs(&g);
        assert_eq!(dist, vec![0, 1, 2, 1]);
    }

    #[test]
    fn dfs_visits_every_node_once() {
        let g = graph(150, 300);
        let (order, stats) = dfs(&g);
        assert_eq!(order.len(), 150);
        assert_eq!(stats.nodes_visited, 150);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 150);
    }

    #[test]
    fn edge_scans_bounded_by_directed_edges() {
        let g = graph(100, 200);
        let (_, b) = bfs(&g);
        let (_, d) = dfs(&g);
        // Each undirected edge appears twice in adjacency lists; self-loops
        // are impossible by construction.
        assert!(b.edges_scanned <= 2 * g.edge_count());
        assert!(d.edges_scanned <= 2 * g.edge_count());
    }

    #[test]
    fn mst_spans_connected_graph() {
        let g = graph(120, 400);
        let r = mst_kruskal(&g);
        assert_eq!(r.tree_edges, 119);
        assert!(r.total_weight > 0);
        assert!(r.edges_examined <= g.edge_count());
        assert!(r.find_steps > 0 || g.node_count() < 3);
    }

    #[test]
    fn mst_weight_is_minimal_on_known_graph() {
        let mut g = Graph {
            adj: vec![Vec::new(); 4],
            edges: 0,
        };
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 2);
        g.add_edge(2, 3, 3);
        g.add_edge(0, 3, 10);
        g.add_edge(0, 2, 10);
        let r = mst_kruskal(&g);
        assert_eq!(r.total_weight, 6);
        assert_eq!(r.tree_edges, 3);
    }

    #[test]
    fn union_find_detects_cycles() {
        let mut uf = UnionFind::new(3);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.find(0), uf.find(2));
    }

    #[test]
    fn pagerank_sums_to_one_and_converges() {
        let g = graph(100, 300);
        let r = pagerank(&g, 100, 1e-9);
        let sum: f64 = r.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum={sum}");
        assert!(r.iterations < 100, "should converge before the cap");
        assert!(r.edge_updates > 0);
    }

    #[test]
    fn pagerank_favors_high_degree_nodes() {
        // Star graph: hub 0 connected to 1..=5.
        let mut g = Graph {
            adj: vec![Vec::new(); 6],
            edges: 0,
        };
        for v in 1..6 {
            g.add_edge(0, v, 1);
        }
        let r = pagerank(&g, 200, 1e-12);
        for v in 1..6 {
            assert!(r.ranks[0] > r.ranks[v], "hub should outrank leaves");
        }
    }

    #[test]
    fn work_counters_scale_with_graph_size() {
        let small = graph(50, 50);
        let large = graph(500, 500);
        assert!(bfs(&large).1.edges_scanned > bfs(&small).1.edges_scanned);
        assert!(mst_kruskal(&large).edges_examined > mst_kruskal(&small).edges_examined);
    }
}
