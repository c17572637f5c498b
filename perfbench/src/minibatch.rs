//! `minibatch`: `train_minibatch` on the community graph.
//!
//! Sampling-based GCN training, pipelined so the host samples batch `k+1`
//! while the device trains batch `k` (`gnnadvisor train-minibatch` with
//! the same flags). It is the only workload that samples, runs the
//! backward pass and prices host work on the simulated clock.

use gnnadvisor_core::minibatch::HostCostModel;
use gnnadvisor_graph::generators::{community_graph, CommunityParams};
use gnnadvisor_graph::sample::{sample_epoch, SampleConfig, SampleStrategy};
use gnnadvisor_graph::Csr;
use gnnadvisor_models::{train_minibatch, GcnTrainer, MiniBatchConfig, MiniBatchReport};
use gnnadvisor_tensor::Matrix;

use crate::serve::{FEAT_DIM, NUM_CLASSES};
use crate::trace::Tracer;
use crate::{engine, err, Checks, Result, SimMetric, Summary, Workload};

/// Seed nodes per batch (`--batch-size`).
pub const BATCH_SIZE: usize = 8;
/// Per-hop neighbor fan-outs (`--fanout`).
pub const FANOUTS: [usize; 2] = [10, 5];
/// Hidden layer width (`--hidden`).
pub const HIDDEN: usize = 16;
/// Training epochs (`--epochs`).
pub const EPOCHS: usize = 2;

/// Workload size; the default is the benchmark's `minibatch` workload.
#[derive(Debug, Clone)]
pub struct MiniBatch {
    /// Graph scale (`--scale`).
    pub scale: f64,
}

impl Default for MiniBatch {
    fn default() -> Self {
        Self { scale: 0.2 }
    }
}

/// Generated inputs.
pub struct Inputs {
    /// The community graph.
    pub graph: Csr,
    /// Noisy one-hot features of each node's label.
    pub features: Matrix,
    /// Labels from the planted communities.
    pub labels: Vec<usize>,
    /// Training configuration (sampling and weight-init seeds).
    pub cfg: MiniBatchConfig,
}

impl Workload for MiniBatch {
    type Inputs = Inputs;
    type Output = MiniBatchReport;

    fn name(&self) -> &'static str {
        "minibatch"
    }

    fn setup(&self, seed: u64, t: &Tracer) -> Result<Inputs> {
        let nodes = ((20_000.0 * self.scale) as usize).clamp(300, 20_000);
        let (graph, comm) = t
            .span("graph.generators.generate", || {
                community_graph(
                    &CommunityParams {
                        num_nodes: nodes,
                        num_edges: nodes * 10,
                        mean_community: 40,
                        community_size_cv: 0.3,
                        inter_fraction: 0.08,
                        shuffle_ids: true,
                    },
                    23,
                )
            })
            .map_err(err)?;
        let labels: Vec<usize> = comm.iter().map(|&c| c as usize % NUM_CLASSES).collect();
        let features = t.span("tensor.init", || {
            Matrix::from_fn(nodes, FEAT_DIM, |v, d| {
                let noise = ((v * 31 + d * 17) % 13) as f32 / 26.0;
                if d == labels[v] % FEAT_DIM {
                    1.0 + noise
                } else {
                    noise
                }
            })
        });
        let cfg = MiniBatchConfig {
            dims: vec![FEAT_DIM, HIDDEN, NUM_CLASSES],
            lr: 0.1,
            epochs: EPOCHS,
            sample: SampleConfig {
                batch_size: BATCH_SIZE,
                fanouts: FANOUTS.to_vec(),
                strategy: SampleStrategy::NeighborFanout,
                seed,
            },
            host: HostCostModel::default(),
            seed,
        };
        Ok(Inputs {
            graph,
            features,
            labels,
            cfg,
        })
    }

    fn run(&self, inputs: &Inputs, threads: usize) -> Result<MiniBatchReport> {
        let engine = engine(threads)?;
        train_minibatch(
            &engine,
            &inputs.graph,
            &inputs.features,
            &inputs.labels,
            &inputs.cfg,
        )
        .map_err(err)
    }

    fn run_traced(&self, inputs: &Inputs, threads: usize, t: &Tracer) -> Result<MiniBatchReport> {
        t.span("models.minibatch.train", || self.run(inputs, threads))
    }

    /// Replays the training numerics through `sample_epoch` and
    /// `GcnTrainer::step_block` (what `train_minibatch` calls per epoch
    /// and per batch), timing sampling and the training step apart, and
    /// checks the replay reproduces the flow's per-epoch losses bit for
    /// bit.
    fn probe(
        &self,
        inputs: &Inputs,
        threads: usize,
        t: &Tracer,
        reference: &Summary,
        checks: &mut Checks,
    ) -> Result<Vec<(&'static str, f64)>> {
        let engine = engine(threads)?;
        let cfg = &inputs.cfg;
        let feat_dim = cfg.dims[0];
        let mut trainer = GcnTrainer::new(&cfg.dims, cfg.lr, cfg.seed);
        let mut scanned = 0usize;
        let mut losses = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            let blocks = t
                .span("graph.sample.sample", || {
                    sample_epoch(&inputs.graph, &cfg.sample, epoch as u64)
                })
                .map_err(err)?;
            let mut loss = 0.0f64;
            for block in &blocks {
                scanned += block.scanned_edges;
                let bf = Matrix::from_fn(block.nodes.len(), feat_dim, |r, c| {
                    inputs.features.get(block.nodes[r] as usize, c)
                });
                let bl: Vec<usize> = block.nodes[..block.num_seeds]
                    .iter()
                    .map(|&v| inputs.labels[v as usize])
                    .collect();
                let step = t
                    .span("models.train.step", || {
                        trainer.step_block(&engine, block, &bf, &bl)
                    })
                    .map_err(err)?;
                loss += step.loss;
            }
            losses.push(loss / blocks.len().max(1) as f64);
        }
        let flow_losses: Vec<f64> = reference
            .sim
            .iter()
            .filter(|m| m.name == "epoch_loss")
            .map(|m| m.value)
            .collect();
        checks.check(losses == flow_losses, || {
            format!("replayed losses {losses:?} differ from the flow's {flow_losses:?}")
        });
        Ok(vec![("graph.sample.scanned_edges", scanned as f64)])
    }

    fn check(&self, _inputs: &Inputs, out: &MiniBatchReport, _deep: bool, checks: &mut Checks) {
        let losses: Vec<f64> = out.epochs.iter().map(|e| e.loss).collect();
        checks.check(
            losses.len() == EPOCHS && losses.iter().all(|l| l.is_finite()),
            || format!("epoch losses {losses:?}"),
        );
        checks.check(losses.windows(2).all(|w| w[1] < w[0]), || {
            format!("loss does not fall from epoch to epoch: {losses:?}")
        });
        checks.check(
            out.epochs.iter().all(|e| e.pipelined_ms <= e.serialized_ms),
            || "a pipelined epoch took longer than the serialized one".to_string(),
        );
    }

    fn summary(&self, out: &MiniBatchReport) -> Summary {
        let last = out.epochs.last().expect("at least one epoch");
        let m = |name, value, unit| SimMetric { name, value, unit };
        let mut sim = vec![
            m("sim_epoch_ms", last.pipelined_ms, "ms"),
            m("sim_serialized_epoch_ms", last.serialized_ms, "ms"),
            m("train_loss", out.final_loss(), "loss"),
            m("train_accuracy", out.final_accuracy(), "ratio"),
        ];
        for e in &out.epochs {
            sim.push(m("epoch_loss", e.loss, "loss"));
            sim.push(m("epoch_pipelined_ms", e.pipelined_ms, "ms"));
        }
        Summary {
            sim,
            sim_ms: last.pipelined_ms,
            requests: None,
            layers: vec![
                (
                    "core.minibatch.sim_host_frac",
                    last.host_ms / last.pipelined_ms,
                ),
                (
                    "core.minibatch.sim_device_frac",
                    last.device_ms / last.pipelined_ms,
                ),
                ("core.minibatch.sim_overlap", last.overlap_ratio()),
            ],
        }
    }
}
