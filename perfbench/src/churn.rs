//! `serve-churn`: `simulate_dynamic` on a renumbered community graph.
//!
//! An update stream of deletes, node arrivals and inserts is interleaved
//! with the requests over the whole run, under snapshot semantics, and the
//! locality-triggered re-renumbering policy rebuilds the layout when the
//! kernel hit rate decays (`gnnadvisor serve-dynamic` with the same flags).

use gnnadvisor_core::dynamic::{
    generate_updates, simulate_dynamic, DynamicConfig, DynamicReport, RenumberPolicy,
    SnapshotExecutor, UpdateStreamConfig,
};
use gnnadvisor_core::serving::{
    generate_arrivals, ArrivalConfig, BatchWork, DispatchedBatch, Request,
};
use gnnadvisor_core::tuning::params::RuntimeParams;
use gnnadvisor_core::Result as CoreResult;
use gnnadvisor_graph::dynamic::UpdateEvent;
use gnnadvisor_graph::generators::{community_graph, CommunityParams};
use gnnadvisor_graph::reorder::{renumber, RenumberConfig};
use gnnadvisor_graph::{Csr, Permutation};
use gnnadvisor_models::DynamicGcnExecutor;

use crate::serve::{check_serving, serving_config, serving_summary, FEAT_DIM, NUM_CLASSES};
use crate::trace::Tracer;
use crate::{engine, err, Checks, Result, Summary, Workload};

/// Hidden width of the CLI's dynamic-serving GCN.
const HIDDEN: usize = 32;

/// Trajectory batches the tail hit rate averages (as the CLI renders it).
const TAIL_BATCHES: usize = 8;

/// Offered load, requests per simulated second (`--rate`).
pub const RATE: f64 = 200_000.0;
/// Simulated streams per replica (`--streams`).
pub const STREAMS: usize = 1;
/// Replica engines (the CLI's default `--replicas`).
pub const REPLICAS: usize = 2;
/// Dynamic batcher's max batch size (`--batch-size`).
pub const BATCH_SIZE: usize = 4;
/// Graph scale (`--scale`).
pub const SCALE: f64 = 0.05;
/// Mean gap between updates, simulated ms (`--update-gap-ms`).
pub const UPDATE_GAP_MS: f64 = 0.0005;

/// Workload size; the defaults are the benchmark's `serve-churn` workload.
#[derive(Debug, Clone)]
pub struct Churn {
    /// Requests in the arrival trace (`--requests`).
    pub requests: usize,
    /// Update-stream length (`--updates`).
    pub updates: usize,
}

impl Default for Churn {
    fn default() -> Self {
        Self {
            requests: 2_000,
            updates: 10_000,
        }
    }
}

/// Generated inputs.
pub struct Inputs {
    /// The community graph as generated (shuffled ids).
    pub shuffled: Csr,
    /// The renumbering applied to it.
    pub permutation: Permutation,
    /// The renumbered starting graph.
    pub base: Csr,
    /// The update stream, in stream-space ids of `base`.
    pub updates: Vec<UpdateEvent>,
    /// The arrival trace.
    pub arrivals: Vec<Request>,
    /// The seed.
    pub seed: u64,
}

/// A [`SnapshotExecutor`] that times every `plan` call as a
/// `models.dynamic.plan` span.
struct TimedExec<'a> {
    inner: DynamicGcnExecutor,
    tracer: &'a Tracer,
}

impl SnapshotExecutor for TimedExec<'_> {
    fn plan(
        &mut self,
        batch: &DispatchedBatch,
        graph: &Csr,
        version: u64,
    ) -> CoreResult<BatchWork> {
        let inner = &mut self.inner;
        self.tracer
            .span("models.dynamic.plan", || inner.plan(batch, graph, version))
    }
}

impl Churn {
    fn config(&self, seed: u64) -> DynamicConfig {
        DynamicConfig {
            serving: serving_config(STREAMS, 64, BATCH_SIZE, 2.0, 2, None, seed),
            policy: Some(RenumberPolicy {
                window: 8,
                watermark: 0.98,
                cooldown_batches: 16,
                rebuild_cost_us_per_edge: 0.0005,
            }),
            compact_every: 64,
        }
    }

    fn executor() -> Result<DynamicGcnExecutor> {
        DynamicGcnExecutor::new(FEAT_DIM, HIDDEN, NUM_CLASSES, RuntimeParams::default())
            .map_err(err)
    }

    fn simulate(
        &self,
        inputs: &Inputs,
        threads: usize,
        exec: &mut dyn SnapshotExecutor,
    ) -> Result<DynamicReport> {
        let engines = (0..REPLICAS)
            .map(|_| engine(threads))
            .collect::<Result<Vec<_>>>()?;
        simulate_dynamic(
            &engines,
            inputs.base.clone(),
            &inputs.updates,
            &inputs.arrivals,
            &self.config(inputs.seed),
            exec,
        )
        .map_err(err)
    }
}

impl Workload for Churn {
    type Inputs = Inputs;
    type Output = DynamicReport;

    fn name(&self) -> &'static str {
        "serve-churn"
    }

    fn setup(&self, seed: u64, t: &Tracer) -> Result<Inputs> {
        let nodes = ((40_000.0 * SCALE) as usize).clamp(400, 40_000);
        let (shuffled, _) = t
            .span("graph.generators.generate", || {
                community_graph(
                    &CommunityParams {
                        num_nodes: nodes,
                        num_edges: nodes * 12,
                        mean_community: 40,
                        community_size_cv: 0.3,
                        inter_fraction: 0.08,
                        shuffle_ids: true,
                    },
                    31,
                )
            })
            .map_err(err)?;
        let r = t
            .span("graph.reorder.renumber", || {
                renumber(&shuffled, &RenumberConfig::default())
            })
            .map_err(err)?;
        let base = t
            .span("graph.permute", || shuffled.permute(&r.permutation))
            .map_err(err)?;
        let updates = t
            .span("graph.dynamic.updates", || {
                generate_updates(
                    &base,
                    &UpdateStreamConfig {
                        num_updates: self.updates,
                        mean_interarrival_ms: UPDATE_GAP_MS,
                        delete_fraction: 0.15,
                        node_fraction: 0.25,
                        attach_degree: 6,
                        seed: seed.wrapping_add(1),
                    },
                )
            })
            .map_err(err)?;
        let arrivals = t
            .span("core.serving.arrivals", || {
                generate_arrivals(&ArrivalConfig {
                    num_requests: self.requests,
                    mean_interarrival_ms: 1000.0 / RATE,
                    num_components: 1,
                    seed,
                })
            })
            .map_err(err)?;
        Ok(Inputs {
            shuffled,
            permutation: r.permutation,
            base,
            updates,
            arrivals,
            seed,
        })
    }

    fn run(&self, inputs: &Inputs, threads: usize) -> Result<DynamicReport> {
        self.simulate(inputs, threads, &mut Self::executor()?)
    }

    fn run_traced(&self, inputs: &Inputs, threads: usize, t: &Tracer) -> Result<DynamicReport> {
        let mut exec = TimedExec {
            inner: Self::executor()?,
            tracer: t,
        };
        t.span("core.dynamic.simulate", || {
            self.simulate(inputs, threads, &mut exec)
        })
    }

    fn check(&self, inputs: &Inputs, out: &DynamicReport, deep: bool, checks: &mut Checks) {
        check_serving(&out.serving, inputs.arrivals.len(), checks);
        checks.check(!out.renumbers.is_empty(), || {
            "the re-renumbering policy never fired".to_string()
        });
        checks.check(
            out.updates_applied + out.updates_noop == inputs.updates.len(),
            || {
                format!(
                    "{} applied + {} no-op updates != {} generated",
                    out.updates_applied,
                    out.updates_noop,
                    inputs.updates.len()
                )
            },
        );
        if deep {
            crate::check_renumbering(&inputs.shuffled, &inputs.permutation, &inputs.base, checks);
        }
    }

    fn summary(&self, out: &DynamicReport) -> Summary {
        let (requests, mut sim) = serving_summary(&out.serving, self.requests);
        let m = |name, value: f64| crate::SimMetric {
            name,
            value,
            unit: "count",
        };
        sim.push(m("renumbers", out.renumbers.len() as f64));
        sim.push(m("updates_applied", out.updates_applied as f64));
        sim.push(m("final_version", out.final_version as f64));
        sim.push(m("compactions", out.compactions as f64));
        sim.push(crate::SimMetric {
            name: "tail_hit_rate",
            value: out.tail_hit_rate(TAIL_BATCHES),
            unit: "ratio",
        });
        Summary {
            sim,
            sim_ms: out.serving.p99_ms,
            requests: Some(requests),
            layers: vec![
                ("core.dynamic.renumbers", out.renumbers.len() as f64),
                ("graph.dynamic.updates_applied", out.updates_applied as f64),
                ("gpu.cache.tail_hit_rate", out.tail_hit_rate(TAIL_BATCHES)),
            ],
        }
    }
}
