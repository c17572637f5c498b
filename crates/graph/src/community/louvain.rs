//! Deterministic Louvain community detection.
//!
//! Two-phase iteration: (1) local moving — greedily move each node to the
//! neighboring community with the best modularity gain until no move helps;
//! (2) aggregation — collapse communities into super-nodes with weighted
//! edges and repeat. Terminates when a full pass yields no gain.
//!
//! The implementation is single-threaded and visits nodes in id order, so
//! the output is deterministic — a requirement for the reproducible
//! experiment tables downstream.

use crate::csr::{Csr, NodeId};

/// Tuning knobs for [`louvain`].
#[derive(Debug, Clone, Copy)]
pub struct LouvainConfig {
    /// Minimum modularity gain for a node move to be applied. Guards
    /// against floating-point jitter cycles.
    pub min_gain: f64,
    /// Maximum local-moving sweeps per level.
    pub max_sweeps: usize,
    /// Maximum aggregation levels.
    pub max_levels: usize,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        Self {
            min_gain: 1e-7,
            max_sweeps: 16,
            max_levels: 16,
        }
    }
}

/// Result of community detection.
#[derive(Debug, Clone)]
pub struct LouvainResult {
    /// Community id per node, densely renumbered `0..num_communities`.
    pub community_of: Vec<u32>,
    /// Number of communities.
    pub num_communities: usize,
    /// Final modularity of the partition.
    pub modularity: f64,
    /// Aggregation levels performed.
    pub levels: usize,
}

/// Weighted graph used internally for aggregated levels.
struct WeightedGraph {
    /// Adjacency as (neighbor, weight) lists.
    adj: Vec<Vec<(u32, f64)>>,
    /// Self-loop weight per node (intra-community weight after aggregation).
    self_loop: Vec<f64>,
    /// Total edge weight counting both directions plus 2x self loops
    /// (`2m` in modularity formulas).
    total_weight: f64,
}

impl WeightedGraph {
    fn from_csr(graph: &Csr) -> Self {
        let n = graph.num_nodes();
        let mut adj = Vec::with_capacity(n);
        let mut self_loop = vec![0.0; n];
        let mut total = 0.0;
        for v in 0..n as NodeId {
            let mut list = Vec::with_capacity(graph.degree(v));
            for &u in graph.neighbors(v) {
                if u == v {
                    self_loop[v as usize] += 1.0;
                } else {
                    list.push((u, 1.0));
                }
                total += 1.0;
            }
            adj.push(list);
        }
        Self {
            adj,
            self_loop,
            total_weight: total,
        }
    }

    fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Weighted degree (including self-loop both ways, matching `2m`
    /// bookkeeping).
    fn weighted_degree(&self, v: usize) -> f64 {
        self.adj[v].iter().map(|&(_, w)| w).sum::<f64>() + 2.0 * self.self_loop[v]
    }
}

/// Runs Louvain on a symmetric graph.
pub fn louvain(graph: &Csr, config: &LouvainConfig) -> LouvainResult {
    let n = graph.num_nodes();
    if n == 0 {
        return LouvainResult {
            community_of: Vec::new(),
            num_communities: 0,
            modularity: 0.0,
            levels: 0,
        };
    }
    let mut wg = WeightedGraph::from_csr(graph);
    // community_of maps original nodes to current-level communities.
    let mut community_of: Vec<u32> = (0..n as u32).collect();
    let mut levels = 0usize;

    for _level in 0..config.max_levels {
        let (level_assign, improved) = local_moving(&wg, config);
        if !improved {
            break;
        }
        levels += 1;
        // Densify level ids so they double as next-level node ids, then
        // compose the mapping for original nodes.
        let (dense_assign, num_comm) = densify(&level_assign);
        for c in community_of.iter_mut() {
            *c = dense_assign[*c as usize];
        }
        wg = aggregate(&wg, &dense_assign, num_comm);
        if wg.num_nodes() <= 1 {
            break;
        }
    }

    // Dense renumber of community ids.
    let (community_of, num_communities) = densify(&community_of);
    let q = super::modularity::modularity(graph, &community_of);
    LouvainResult {
        community_of,
        num_communities,
        modularity: q,
        levels,
    }
}

/// Phase 1: greedy local moving. Returns (assignment over current-level
/// nodes, whether any move happened).
fn local_moving(wg: &WeightedGraph, config: &LouvainConfig) -> (Vec<u32>, bool) {
    let n = wg.num_nodes();
    let two_m = wg.total_weight.max(1.0);
    let mut assign: Vec<u32> = (0..n as u32).collect();
    let node_degree: Vec<f64> = (0..n).map(|v| wg.weighted_degree(v)).collect();
    // Sum of weighted degrees per community.
    let mut sigma_tot = node_degree.clone();

    let mut improved_any = false;
    let mut neighbor_weight = CommunityWeights::new(n);
    for _sweep in 0..config.max_sweeps {
        let mut moved = false;
        for v in 0..n {
            let current = assign[v];
            for &(u, w) in &wg.adj[v] {
                neighbor_weight.add(assign[u as usize], w);
            }
            // Remove v from its community.
            sigma_tot[current as usize] -= node_degree[v];
            let w_current = neighbor_weight.weight(current);

            // Gain of joining community c: k_{v,c} - k_v * sigma_c / 2m
            // (constant factors dropped; comparisons are unaffected).
            let mut best = current;
            let mut best_gain = w_current - node_degree[v] * sigma_tot[current as usize] / two_m;
            // Candidates in ascending community id; the strict `>` keeps
            // the lowest id among ties.
            for (c, w) in neighbor_weight.sorted() {
                if c == current {
                    continue;
                }
                let gain = w - node_degree[v] * sigma_tot[c as usize] / two_m;
                if gain > best_gain + config.min_gain {
                    best_gain = gain;
                    best = c;
                }
            }
            neighbor_weight.clear();
            sigma_tot[best as usize] += node_degree[v];
            if best != current {
                assign[v] = best;
                moved = true;
                improved_any = true;
            }
        }
        if !moved {
            break;
        }
    }
    (assign, improved_any)
}

/// Phase 2: collapse communities into super-nodes. `assign` must already be
/// dense over `0..num_comm`.
fn aggregate(wg: &WeightedGraph, assign: &[u32], num_comm: usize) -> WeightedGraph {
    // `2m` in node order; the community-grouped pass below would reorder
    // its terms.
    let mut total = 0.0;
    for v in 0..wg.num_nodes() {
        total += 2.0 * wg.self_loop[v];
        for &(_, w) in &wg.adj[v] {
            total += w;
        }
    }
    // Members ascend by node id inside each community, so every per-pair
    // sum below adds its terms in node order.
    let (start, members) = group_by_community(assign, num_comm);
    let mut self_loop = vec![0.0; num_comm];
    let mut adj = Vec::with_capacity(num_comm);
    let mut neighbor_weight = CommunityWeights::new(num_comm);
    for (cv, loop_weight) in self_loop.iter_mut().enumerate() {
        for &v in &members[start[cv]..start[cv + 1]] {
            let v = v as usize;
            *loop_weight += wg.self_loop[v];
            for &(u, w) in &wg.adj[v] {
                let cu = assign[u as usize];
                if cu as usize == cv {
                    // Each intra edge appears twice (symmetric adj); self-loop
                    // weight counts each undirected edge once.
                    *loop_weight += w / 2.0;
                } else {
                    neighbor_weight.add(cu, w);
                }
            }
        }
        adj.push(neighbor_weight.sorted().collect());
        neighbor_weight.clear();
    }
    WeightedGraph {
        adj,
        self_loop,
        total_weight: total,
    }
}

/// Dense scratch that sums edge weights per community id: an accumulator,
/// a seen flag per id, and the list of ids touched since the last clear.
struct CommunityWeights {
    weight: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<u32>,
}

impl CommunityWeights {
    fn new(num_ids: usize) -> Self {
        Self {
            weight: vec![0.0; num_ids],
            seen: vec![false; num_ids],
            touched: Vec::new(),
        }
    }

    #[inline]
    fn add(&mut self, c: u32, w: f64) {
        let i = c as usize;
        if !self.seen[i] {
            self.seen[i] = true;
            self.touched.push(c);
        }
        self.weight[i] += w;
    }

    /// Summed weight of `c` (0 when untouched).
    #[inline]
    fn weight(&self, c: u32) -> f64 {
        self.weight[c as usize]
    }

    /// Sorts the touched ids ascending and yields `(id, weight)` in that
    /// order.
    fn sorted(&mut self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.touched.sort_unstable();
        self.touched.iter().map(|&c| (c, self.weight[c as usize]))
    }

    /// Resets only the touched ids.
    fn clear(&mut self) {
        for &c in &self.touched {
            self.weight[c as usize] = 0.0;
            self.seen[c as usize] = false;
        }
        self.touched.clear();
    }
}

/// Counting sort of nodes by community: members of community `c` are
/// `members[start[c]..start[c + 1]]`, in ascending node id. `community_of`
/// must be dense over `0..num_comm`.
pub(crate) fn group_by_community(
    community_of: &[u32],
    num_comm: usize,
) -> (Vec<usize>, Vec<NodeId>) {
    let mut start = vec![0usize; num_comm + 1];
    for &c in community_of {
        start[c as usize + 1] += 1;
    }
    for c in 0..num_comm {
        start[c + 1] += start[c];
    }
    let mut next = start[..num_comm].to_vec();
    let mut members = vec![0; community_of.len()];
    for (v, &c) in community_of.iter().enumerate() {
        members[next[c as usize]] = v as NodeId;
        next[c as usize] += 1;
    }
    (start, members)
}

/// Renumbers arbitrary ids to dense `0..k`, preserving first-appearance
/// order. Returns the dense assignment and `k`.
fn densify(assign: &[u32]) -> (Vec<u32>, usize) {
    let bound = assign.iter().max().map_or(0, |&c| c as usize + 1);
    let mut map = vec![u32::MAX; bound];
    let mut next = 0u32;
    let dense = assign
        .iter()
        .map(|&c| {
            let id = &mut map[c as usize];
            if *id == u32::MAX {
                *id = next;
                next += 1;
            }
            *id
        })
        .collect();
    (dense, next as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{community_graph, CommunityParams};
    use crate::GraphBuilder;

    #[test]
    fn two_cliques_separate() {
        let g = GraphBuilder::new(8)
            .clique(&[0, 1, 2, 3])
            .clique(&[4, 5, 6, 7])
            .undirected_edge(3, 4)
            .build()
            .expect("valid");
        let r = louvain(&g, &LouvainConfig::default());
        assert_eq!(r.num_communities, 2);
        assert_eq!(r.community_of[0], r.community_of[3]);
        assert_eq!(r.community_of[4], r.community_of[7]);
        assert_ne!(r.community_of[0], r.community_of[4]);
        assert!(r.modularity > 0.3, "Q = {}", r.modularity);
    }

    #[test]
    fn recovers_planted_communities_well() {
        let params = CommunityParams {
            num_nodes: 1_500,
            num_edges: 30_000,
            mean_community: 50,
            community_size_cv: 0.2,
            inter_fraction: 0.05,
            shuffle_ids: true,
        };
        let (g, truth) = community_graph(&params, 17).expect("valid");
        let r = louvain(&g, &LouvainConfig::default());
        // Louvain may merge or split relative to ground truth; require a
        // community count in the right ballpark and strong modularity.
        assert!(r.modularity > 0.5, "Q = {}", r.modularity);
        let truth_count = crate::stats::PartitionStats::of(&truth).count;
        assert!(
            r.num_communities >= truth_count / 4 && r.num_communities <= truth_count * 4,
            "found {} communities vs planted {}",
            r.num_communities,
            truth_count
        );
    }

    #[test]
    fn louvain_beats_identity_partition() {
        let params = CommunityParams {
            num_nodes: 600,
            ..Default::default()
        };
        let (g, _) = community_graph(&params, 3).expect("valid");
        let r = louvain(&g, &LouvainConfig::default());
        let identity: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let q_identity = super::super::modularity::modularity(&g, &identity);
        assert!(r.modularity > q_identity);
    }

    #[test]
    fn deterministic() {
        let params = CommunityParams {
            num_nodes: 400,
            ..Default::default()
        };
        let (g, _) = community_graph(&params, 5).expect("valid");
        let a = louvain(&g, &LouvainConfig::default());
        let b = louvain(&g, &LouvainConfig::default());
        assert_eq!(a.community_of, b.community_of);
    }

    #[test]
    fn empty_and_singleton() {
        let r = louvain(&Csr::empty(0), &LouvainConfig::default());
        assert_eq!(r.num_communities, 0);
        let r = louvain(&Csr::empty(1), &LouvainConfig::default());
        assert_eq!(r.num_communities, 1);
        assert_eq!(r.community_of, vec![0]);
    }

    #[test]
    fn community_ids_are_dense() {
        let params = CommunityParams {
            num_nodes: 300,
            ..Default::default()
        };
        let (g, _) = community_graph(&params, 8).expect("valid");
        let r = louvain(&g, &LouvainConfig::default());
        let max = r.community_of.iter().copied().max().unwrap_or(0) as usize;
        assert_eq!(max + 1, r.num_communities);
    }
}
