//! Reverse Cuthill–McKee traversal (Section 6.1, step 2).
//!
//! Within each detected community, the paper traverses nodes with RCM "to
//! maximize the neighbor sharing among nodes with consecutive IDs". RCM is
//! a breadth-first traversal from a low-degree peripheral node with
//! neighbors visited in ascending-degree order, reversed at the end; it is
//! the classic bandwidth-reduction ordering for sparse matrices.

use std::collections::VecDeque;

use crate::csr::{Csr, NodeId};

/// Computes the RCM ordering of a node subset.
///
/// `subset` lists the nodes to order (typically one community); edges to
/// nodes outside the subset are ignored. The returned vector is a
/// permutation of `subset`: position `i` holds the node that should receive
/// the `i`-th id. Disconnected parts of the subset are ordered one
/// component at a time, each started from its minimum-degree node.
pub fn rcm_order(graph: &Csr, subset: &[NodeId]) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(subset.len());
    RcmScratch::new(graph.num_nodes()).order_into(graph, subset, &mut order);
    order
}

/// Dense per-node state for [`rcm_order`], reusable across subsets of one
/// graph. Membership and visited flags are stamps of the current subset's
/// epoch, so starting a new subset costs nothing. Epochs are `u32`: one
/// scratch serves up to `u32::MAX` subsets, more than the communities of
/// any graph with `u32` node ids.
pub(crate) struct RcmScratch {
    epoch: u32,
    member: Vec<u32>,
    visited: Vec<u32>,
    local_degree: Vec<u32>,
    starts: Vec<NodeId>,
    next: Vec<NodeId>,
    queue: VecDeque<NodeId>,
}

impl RcmScratch {
    pub(crate) fn new(num_nodes: usize) -> Self {
        Self {
            epoch: 0,
            member: vec![0; num_nodes],
            visited: vec![0; num_nodes],
            local_degree: vec![0; num_nodes],
            starts: Vec::new(),
            next: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// Appends the RCM ordering of `subset` (see [`rcm_order`]) to `out`.
    pub(crate) fn order_into(&mut self, graph: &Csr, subset: &[NodeId], out: &mut Vec<NodeId>) {
        self.epoch += 1;
        let Self {
            epoch,
            member,
            visited,
            local_degree,
            starts,
            next,
            queue,
        } = self;
        let epoch = *epoch;
        for &v in subset {
            member[v as usize] = epoch;
        }
        // Within-subset degree, counted once per node.
        for &v in subset {
            local_degree[v as usize] = graph
                .neighbors(v)
                .iter()
                .filter(|&&u| member[u as usize] == epoch)
                .count() as u32;
        }

        // Candidate start nodes sorted by (degree, id) for determinism.
        starts.clear();
        starts.extend_from_slice(subset);
        starts.sort_unstable_by_key(|&v| (local_degree[v as usize], v));

        let first = out.len();
        for &start in starts.iter() {
            if visited[start as usize] == epoch {
                continue;
            }
            visited[start as usize] = epoch;
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                out.push(v);
                // Marking while collecting enqueues a repeated neighbor once.
                next.clear();
                for &u in graph.neighbors(v) {
                    let u_idx = u as usize;
                    if member[u_idx] == epoch && visited[u_idx] != epoch {
                        visited[u_idx] = epoch;
                        next.push(u);
                    }
                }
                next.sort_unstable_by_key(|&u| (local_degree[u as usize], u));
                queue.extend(next.iter().copied());
            }
        }
        out[first..].reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, Permutation};

    #[test]
    fn orders_every_subset_node_exactly_once() {
        let g = GraphBuilder::new(6)
            .path(&[0, 3, 1, 4, 2, 5])
            .build()
            .expect("valid");
        let subset: Vec<NodeId> = (0..6).collect();
        let mut order = rcm_order(&g, &subset);
        assert_eq!(order.len(), 6);
        order.sort_unstable();
        assert_eq!(order, subset);
    }

    #[test]
    fn reduces_bandwidth_of_scrambled_path() {
        // A path visited in scrambled id order has high bandwidth; RCM
        // restores bandwidth 1.
        let g = GraphBuilder::new(8)
            .path(&[0, 5, 2, 7, 1, 6, 3, 4])
            .build()
            .expect("valid");
        assert!(g.bandwidth() > 1);
        let order = rcm_order(&g, &(0..8).collect::<Vec<_>>());
        let perm = Permutation::from_order(order).expect("valid");
        let reordered = g.permute(&perm).expect("valid");
        assert_eq!(reordered.bandwidth(), 1, "RCM must linearize a path");
    }

    #[test]
    fn respects_subset_boundary() {
        let g = GraphBuilder::new(6)
            .clique(&[0, 1, 2])
            .clique(&[3, 4, 5])
            .undirected_edge(2, 3)
            .build()
            .expect("valid");
        let order = rcm_order(&g, &[3, 4, 5]);
        assert_eq!(order.len(), 3);
        assert!(order.iter().all(|&v| (3..6).contains(&v)));
    }

    #[test]
    fn handles_disconnected_subset() {
        let g = GraphBuilder::new(4)
            .undirected_edge(0, 1)
            .build()
            .expect("valid");
        let mut order = rcm_order(&g, &[0, 1, 2, 3]);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_subset() {
        let g = GraphBuilder::new(2).build().expect("valid");
        assert!(rcm_order(&g, &[]).is_empty());
    }

    #[test]
    fn deterministic() {
        let g = GraphBuilder::new(5)
            .clique(&[0, 1, 2, 3, 4])
            .build()
            .expect("valid");
        let s: Vec<NodeId> = (0..5).collect();
        assert_eq!(rcm_order(&g, &s), rcm_order(&g, &s));
    }

    /// One scratch reused across many subsets — disjoint, overlapping,
    /// repeated and empty — orders each exactly as a fresh call does.
    #[test]
    fn reused_scratch_matches_fresh_calls() {
        use crate::generators::{community_graph, CommunityParams};
        let params = CommunityParams {
            num_nodes: 300,
            num_edges: 3_000,
            mean_community: 20,
            ..Default::default()
        };
        let (g, _) = community_graph(&params, 11).expect("valid");
        let mut scratch = RcmScratch::new(g.num_nodes());
        for round in 0..200u32 {
            let stride = 1 + round % 7;
            let len = (round as usize * 13) % 90;
            let subset: Vec<NodeId> = (0..len as u32)
                .map(|i| (round * 31 + i * stride) % g.num_nodes() as u32)
                .collect();
            let mut reused = vec![u32::MAX];
            scratch.order_into(&g, &subset, &mut reused);
            assert_eq!(reused[0], u32::MAX, "order_into must only append");
            assert_eq!(reused[1..], rcm_order(&g, &subset)[..], "round {round}");
        }
    }
}
