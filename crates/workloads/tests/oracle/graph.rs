//! The reference random graphs (adjacency lists), BFS, DFS, Kruskal MST
//! and PageRank.

use super::{MstResult, PageRankResult, UnionFind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
        let mut g = Graph::empty(n);
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

    fn empty(n: usize) -> Graph {
        let adj = vec![Vec::new(); n];
        Graph { adj, edges: 0 }
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

/// Work counters produced by a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
    let mut stats = TraversalStats::default();
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
    let mut stats = TraversalStats::default();
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
    let mut g = Graph::empty(4);
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
    let mut g = Graph::empty(4);
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
    let mut g = Graph::empty(6);
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
