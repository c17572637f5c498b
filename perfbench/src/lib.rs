//! The repository's benchmark: four workloads that drive the library's
//! public functions the way the `gnnadvisor` CLI flows do, measured on
//! two clocks.
//!
//! - The host clock measures what the simulator costs (`setup_s`,
//!   `wall_s` and its host-speed-relative form `wall_rel`, `peak_heap_mb`,
//!   and, in a traced run, per-layer self time).
//! - The simulated clock measures what the modelled P6000 achieves; those
//!   results repeat bit for bit and are checked to do so.
//!
//! Each workload implements [`Workload`]: a seeded set-up, the user flow
//! (`run`), the same flow re-expressed through the layers' public calls
//! with a span around each (`run_traced`), optional probes that replay a
//! layer the flow only reaches inside another call, and output checks.

pub mod churn;
pub mod fullgraph;
pub mod heap;
pub mod minibatch;
pub mod reference;
pub mod runner;
pub mod serve;
pub mod stats;
pub mod trace;

use gnnadvisor_gpu::{Engine, GpuSpec};
use gnnadvisor_graph::{Csr, Permutation};

use crate::trace::Tracer;

/// Benchmark errors are plain messages.
pub type Result<T> = std::result::Result<T, String>;

/// Converts any displayable error into a benchmark error.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The CLI's default `--seed`; every workload reproduces its CLI command's
/// inputs at this seed.
pub const DEFAULT_SEED: u64 = 7;

/// Output checks of one run: how many passed and what failed.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checks that held.
    pub passed: usize,
    /// One message per check that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }

    /// Checks run so far.
    pub fn total(&self) -> usize {
        self.passed + self.failures.len()
    }
}

/// One named simulated-clock (or otherwise deterministic) result.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetric {
    /// Metric name, e.g. `sim_forward_ms`.
    pub name: &'static str,
    /// The value as computed.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// Request accounting of a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Requests {
    /// Arrivals in the trace.
    pub arrivals: usize,
    /// Completed within deadline.
    pub completed: usize,
    /// Shed + failed + deadline-missed.
    pub lost: usize,
}

/// What one run of a workload computed, in workload-neutral form.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Simulated results, compared bit for bit across iterations, thread
    /// counts and traced/untraced runs.
    pub sim: Vec<SimMetric>,
    /// The headline simulated time behind the `sim_ms` metric.
    pub sim_ms: f64,
    /// Request accounting, on the serving workloads.
    pub requests: Option<Requests>,
    /// Per-layer values that are counts or modelled ratios, not host time.
    pub layers: Vec<(&'static str, f64)>,
}

impl Summary {
    /// The value of the simulated metric `name`.
    pub fn sim(&self, name: &str) -> Option<f64> {
        self.sim.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// One benchmark workload. See the crate docs for the contract.
pub trait Workload {
    /// Generated inputs (graph, features, arrivals, updates).
    type Inputs;
    /// What one run of the flow returns.
    type Output;

    /// Workload name as given to `--workload`.
    fn name(&self) -> &'static str;
    /// Generates the inputs from `seed`, with spans around each generator.
    fn setup(&self, seed: u64, t: &Tracer) -> Result<Self::Inputs>;
    /// The user flow, untraced, on engines with `threads` workers.
    fn run(&self, inputs: &Self::Inputs, threads: usize) -> Result<Self::Output>;
    /// The same flow through the layers' public calls, one span each.
    fn run_traced(&self, inputs: &Self::Inputs, threads: usize, t: &Tracer)
        -> Result<Self::Output>;
    /// Replays of layers the flow reaches only inside another layer's
    /// call, checked against the flow's `reference` results; returns extra
    /// per-layer values.
    fn probe(
        &self,
        _inputs: &Self::Inputs,
        _threads: usize,
        _t: &Tracer,
        _reference: &Summary,
        _checks: &mut Checks,
    ) -> Result<Vec<(&'static str, f64)>> {
        Ok(Vec::new())
    }
    /// Reference work shaped like a loop that dominates this flow but not
    /// the common reference ([`reference::run_s`]); returns its wall time,
    /// seconds, which `wall_rel` adds to the common reference's.
    fn extra_reference_s(&self) -> f64 {
        0.0
    }
    /// Output checks; `deep` adds the structural ones that cost a pass over
    /// the whole graph.
    fn check(&self, inputs: &Self::Inputs, out: &Self::Output, deep: bool, checks: &mut Checks);
    /// The workload-neutral view of `out`.
    fn summary(&self, out: &Self::Output) -> Summary;
}

/// The modelled device, built with an explicit worker count.
pub fn engine(threads: usize) -> Result<Engine> {
    Engine::builder(GpuSpec::quadro_p6000())
        .sim_threads(threads)
        .build()
        .map_err(err)
}

/// SplitMix64: a tiny seeded generator for benchmark-side choices.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Checks that `perm` is a permutation of `0..graph.num_nodes()` and that
/// `permuted` holds exactly the relabelled edge multiset of `graph`.
pub fn check_renumbering(graph: &Csr, perm: &Permutation, permuted: &Csr, checks: &mut Checks) {
    let n = graph.num_nodes();
    let mut seen = vec![false; n];
    let bijective = perm.len() == n
        && perm.as_slice().iter().all(|&v| {
            let v = v as usize;
            v < n && !std::mem::replace(&mut seen[v], true)
        });
    checks.check(bijective, || {
        format!("renumbering is not a permutation of 0..{n}")
    });
    if !bijective {
        return;
    }
    let mut mapped: Vec<(u32, u32)> = graph
        .edges()
        .map(|(u, v)| (perm.new_of(u), perm.new_of(v)))
        .collect();
    let mut actual: Vec<(u32, u32)> = permuted.edges().collect();
    mapped.sort_unstable();
    actual.sort_unstable();
    checks.check(permuted.num_nodes() == n && mapped == actual, || {
        "the renumbered graph does not keep the edge multiset".to_string()
    });
}

/// Number of distinct component graphs: runs of equal ids in node order
/// (how the serving executors split a batched graph).
pub fn component_runs(component_of: &[u32]) -> usize {
    component_of
        .iter()
        .enumerate()
        .filter(|&(i, c)| i == 0 || component_of[i - 1] != *c)
        .count()
}
