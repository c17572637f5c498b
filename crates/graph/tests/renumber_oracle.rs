//! Differential tests: the dense-scratch Louvain, RCM and renumbering
//! pipeline against the original `HashMap`/`HashSet` implementation kept
//! in `oracle/`. Every output must match bit for bit on simple graphs.

mod oracle;

use proptest::prelude::*;

use gnnadvisor_graph::generators::{
    barabasi_albert, community_graph, erdos_renyi, CommunityParams,
};
use gnnadvisor_graph::reorder::rcm_order;
use gnnadvisor_graph::{Csr, EdgeList, NodeId};

/// Shuffled-id community graphs (latent communities, as Table 1 uses).
fn arb_community() -> impl Strategy<Value = Csr> {
    (
        20usize..400,
        2usize..12,
        2usize..40,
        0u32..6,
        0u32..30,
        0u64..1_000,
    )
        .prop_map(|(n, avg_degree, mean_community, cv, inter, seed)| {
            let params = CommunityParams {
                num_nodes: n,
                num_edges: n * avg_degree,
                mean_community: mean_community.min(n / 2),
                community_size_cv: cv as f64 / 10.0,
                inter_fraction: inter as f64 / 100.0,
                shuffle_ids: true,
            };
            community_graph(&params, seed).expect("valid params").0
        })
}

/// Preferential-attachment (power-law degree) graphs.
fn arb_power_law() -> impl Strategy<Value = Csr> {
    (10usize..300, 1usize..5, 0u64..1_000)
        .prop_map(|(n, m, seed)| barabasi_albert(n, m, seed).expect("valid params"))
}

/// Erdős–Rényi G(n, m) graphs, sparse to moderately dense.
fn arb_erdos_renyi() -> impl Strategy<Value = Csr> {
    (2usize..200, 0usize..4, 0u64..1_000).prop_map(|(n, density, seed)| {
        erdos_renyi(n, n * density / 2, seed).expect("m within pair count")
    })
}

/// Re-emits `graph` with `extra` isolated nodes appended and a self-loop on
/// every node `v` with `v % loop_every == 0` (none when `loop_every == 0`).
fn with_isolated_and_loops(graph: &Csr, extra: usize, loop_every: usize) -> Csr {
    let n = graph.num_nodes() + extra;
    let mut el = EdgeList::new(n);
    for (u, v) in graph.edges() {
        el.push(u, v);
    }
    if loop_every > 0 {
        for v in (0..n).step_by(loop_every) {
            el.push(v as NodeId, v as NodeId);
        }
    }
    el.dedup();
    el.into_csr().expect("ids in range")
}

fn arb_graph() -> impl Strategy<Value = Csr> {
    (
        prop_oneof![arb_community(), arb_power_law(), arb_erdos_renyi()],
        0usize..8,
        0usize..6,
    )
        .prop_map(|(g, extra, loop_every)| with_isolated_and_loops(&g, extra, loop_every))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Louvain and the full renumbering pipeline match the reference on
    /// every graph family, with and without isolated nodes and self-loops.
    #[test]
    fn renumber_matches_reference(g in arb_graph()) {
        oracle::assert_matches_reference(&g, "random graph");
    }

    /// RCM on arbitrary (unsorted, possibly overlapping-community) subsets
    /// matches the reference.
    #[test]
    fn rcm_matches_reference(g in arb_graph(), picks in proptest::collection::vec(0u32..1_000, 0..120)) {
        let n = g.num_nodes() as u32;
        let mut subset: Vec<NodeId> = picks.iter().map(|p| p % n).collect();
        // Distinct members, in the arbitrary order they were drawn.
        let mut seen = vec![false; n as usize];
        subset.retain(|&v| !std::mem::replace(&mut seen[v as usize], true));
        prop_assert_eq!(rcm_order(&g, &subset), oracle::rcm_order(&g, &subset));
    }
}

/// Louvain numbers communities by first appearance over ascending node
/// id: every id in `0..num_communities` is used, and ids ascend by their
/// minimum member. `renumber`'s single counting sort relies on this.
#[test]
fn community_ids_ascend_by_minimum_member() {
    let mut rng = proptest::test_runner::TestRng::for_test(module_path!(), "first_appearance");
    for _ in 0..32 {
        let g = arb_graph().new_value(&mut rng);
        let r = gnnadvisor_graph::community::louvain(&g, &Default::default());
        let mut next = 0u32;
        for &c in &r.community_of {
            assert!(c <= next, "community {c} appears before {next}");
            if c == next {
                next += 1;
            }
        }
        assert_eq!(next as usize, r.num_communities);
    }
}
