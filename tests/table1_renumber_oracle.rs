//! Every Table 1 generator at scale 0.05 through the crate's renumbering
//! pipeline and through the reference implementation kept with the graph
//! crate's tests: communities, levels, modularity bits and permutation must
//! be identical.
//!
//! Ignored by default (slow in debug builds); `scripts/ci.sh` runs it in
//! release with `cargo test --release --test table1_renumber_oracle -- --ignored`.

#[path = "../crates/graph/tests/oracle/mod.rs"]
mod oracle;

use gnnadvisor_datasets::all_table1;

#[test]
#[ignore = "slow in debug; run in release with --ignored"]
fn table1_renumbering_matches_reference() {
    for spec in all_table1() {
        let ds = spec.generate(0.05).expect("table 1 generator");
        oracle::assert_matches_reference(&ds.graph, spec.name);
    }
}
