//! Reference model for the renumbering pipeline: the original `HashMap`
//! Louvain and `HashSet` RCM, kept verbatim as an independent oracle for
//! the dense-scratch implementation in `gnnadvisor_graph`. Only the two
//! public types (`LouvainConfig`, `LouvainResult`) come from the crate.
//!
//! Shared by the graph crate's differential proptests and the root Table 1
//! sweep; each includes this file as a module.

use gnnadvisor_graph::community::{modularity, LouvainConfig, LouvainResult};
use gnnadvisor_graph::reorder::{RenumberConfig, RenumberResult};
use gnnadvisor_graph::{Csr, NodeId, Permutation};

/// Runs the crate's `louvain` and `renumber` on `graph` and asserts both
/// are bit-identical to the reference: communities, their count, levels,
/// modularity bits and the permutation. `label` names the graph in
/// failure messages.
pub fn assert_matches_reference(graph: &Csr, label: &str) {
    let config = LouvainConfig::default();
    let expected = renumber(graph, &config);
    let got = gnnadvisor_graph::community::louvain(graph, &config);
    assert_louvain_eq(&got, &expected.louvain, label);
    let got: RenumberResult =
        gnnadvisor_graph::reorder::renumber(graph, &RenumberConfig::default())
            .unwrap_or_else(|e| panic!("{label}: renumber failed: {e:?}"));
    assert_eq!(
        got.community_of, expected.louvain.community_of,
        "{label}: community_of"
    );
    assert_eq!(
        got.num_communities, expected.louvain.num_communities,
        "{label}: num_communities"
    );
    assert_eq!(
        got.modularity.to_bits(),
        expected.louvain.modularity.to_bits(),
        "{label}: modularity"
    );
    let want = Permutation::from_order(expected.order).expect("reference order is a permutation");
    assert_eq!(got.permutation, want, "{label}: permutation");
}

fn assert_louvain_eq(got: &LouvainResult, want: &LouvainResult, label: &str) {
    assert_eq!(
        got.community_of, want.community_of,
        "{label}: louvain community_of"
    );
    assert_eq!(
        got.num_communities, want.num_communities,
        "{label}: louvain num_communities"
    );
    assert_eq!(got.levels, want.levels, "{label}: louvain levels");
    assert_eq!(
        got.modularity.to_bits(),
        want.modularity.to_bits(),
        "{label}: louvain modularity"
    );
}

/// The reference pipeline's output: the new-id order (position `i` holds
/// the node that receives id `i`) plus the Louvain result it came from.
pub struct ReferenceRenumber {
    pub order: Vec<NodeId>,
    pub louvain: LouvainResult,
}

/// The original `renumber` body: bucket per community, order communities
/// by minimum member, RCM inside each.
pub fn renumber(graph: &Csr, config: &LouvainConfig) -> ReferenceRenumber {
    let n = graph.num_nodes();
    let detected = louvain(graph, config);
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); detected.num_communities.max(1)];
    for v in 0..n as NodeId {
        members[detected.community_of[v as usize] as usize].push(v);
    }
    members.retain(|m| !m.is_empty());
    members.sort_unstable_by_key(|m| m[0]);

    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    for community in &members {
        order.extend(rcm_order(graph, community));
    }
    ReferenceRenumber {
        order,
        louvain: detected,
    }
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
    let q = modularity(graph, &community_of);
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
    // Sum of weighted degrees per community.
    let mut sigma_tot: Vec<f64> = (0..n).map(|v| wg.weighted_degree(v)).collect();
    let node_degree: Vec<f64> = (0..n).map(|v| wg.weighted_degree(v)).collect();

    let mut improved_any = false;
    let mut neighbor_weight: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    for _sweep in 0..config.max_sweeps {
        let mut moved = false;
        for v in 0..n {
            let current = assign[v];
            neighbor_weight.clear();
            for &(u, w) in &wg.adj[v] {
                *neighbor_weight.entry(assign[u as usize]).or_insert(0.0) += w;
            }
            // Remove v from its community.
            sigma_tot[current as usize] -= node_degree[v];
            let w_current = neighbor_weight.get(&current).copied().unwrap_or(0.0);

            // Gain of joining community c: k_{v,c} - k_v * sigma_c / 2m
            // (constant factors dropped; comparisons are unaffected).
            let mut best = current;
            let mut best_gain = w_current - node_degree[v] * sigma_tot[current as usize] / two_m;
            // Iterate candidate communities in sorted order for determinism.
            let mut candidates: Vec<_> = neighbor_weight.iter().map(|(&c, &w)| (c, w)).collect();
            candidates.sort_unstable_by_key(|a| a.0);
            for (c, w) in candidates {
                if c == current {
                    continue;
                }
                let gain = w - node_degree[v] * sigma_tot[c as usize] / two_m;
                if gain > best_gain + config.min_gain {
                    best_gain = gain;
                    best = c;
                }
            }
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
    let mut adj_maps: Vec<std::collections::HashMap<u32, f64>> =
        vec![std::collections::HashMap::new(); num_comm];
    let mut self_loop = vec![0.0; num_comm];
    let mut total = 0.0;
    for v in 0..wg.num_nodes() {
        let cv = assign[v];
        self_loop[cv as usize] += wg.self_loop[v];
        total += 2.0 * wg.self_loop[v];
        for &(u, w) in &wg.adj[v] {
            let cu = assign[u as usize];
            total += w;
            if cu == cv {
                // Each intra edge appears twice (symmetric adj); self-loop
                // weight counts each undirected edge once.
                self_loop[cv as usize] += w / 2.0;
            } else {
                *adj_maps[cv as usize].entry(cu).or_insert(0.0) += w;
            }
        }
    }
    let adj = adj_maps
        .into_iter()
        .map(|m| {
            let mut list: Vec<_> = m.into_iter().collect();
            list.sort_unstable_by_key(|a| a.0);
            list
        })
        .collect();
    WeightedGraph {
        adj,
        self_loop,
        total_weight: total,
    }
}

/// Renumbers arbitrary ids to dense `0..k`, preserving first-appearance
/// order. Returns the dense assignment and `k`.
fn densify(assign: &[u32]) -> (Vec<u32>, usize) {
    let mut map = std::collections::HashMap::new();
    let mut next = 0u32;
    let dense = assign
        .iter()
        .map(|&c| {
            *map.entry(c).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            })
        })
        .collect();
    (dense, next as usize)
}

/// Computes the RCM ordering of a node subset.
///
/// `subset` lists the nodes to order (typically one community); edges to
/// nodes outside the subset are ignored. The returned vector is a
/// permutation of `subset`: position `i` holds the node that should receive
/// the `i`-th id. Disconnected parts of the subset are ordered one
/// component at a time, each started from its minimum-degree node.
pub fn rcm_order(graph: &Csr, subset: &[NodeId]) -> Vec<NodeId> {
    if subset.is_empty() {
        return Vec::new();
    }
    // Membership and local degree (within-subset) computation.
    let in_subset: std::collections::HashSet<NodeId> = subset.iter().copied().collect();
    let local_degree = |v: NodeId| -> usize {
        graph
            .neighbors(v)
            .iter()
            .filter(|u| in_subset.contains(u))
            .count()
    };

    let mut visited: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
    let mut order: Vec<NodeId> = Vec::with_capacity(subset.len());

    // Candidate start nodes sorted by (degree, id) for determinism.
    let mut starts: Vec<NodeId> = subset.to_vec();
    starts.sort_unstable_by_key(|&v| (local_degree(v), v));

    let mut queue = std::collections::VecDeque::new();
    for &start in &starts {
        if visited.contains(&start) {
            continue;
        }
        visited.insert(start);
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut next: Vec<NodeId> = graph
                .neighbors(v)
                .iter()
                .copied()
                .filter(|u| in_subset.contains(u) && !visited.contains(u))
                .collect();
            next.sort_unstable_by_key(|&u| (local_degree(u), u));
            for u in next {
                visited.insert(u);
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    order
}
