//! `fullgraph`: the `tune` and `run` flows on amazon0505 (Type III).
//!
//! One run extracts input properties, decides parameters with the
//! analytical model and runs two-tier tuning (`gnnadvisor tune`); builds
//! the advisor (renumber, permute, group, organize) and runs one GCN
//! forward under it (`gnnadvisor run`); then runs the same GCN under the
//! DGL strategy. No stream scheduler or serving loop runs.

use gnnadvisor_core::compute::{aggregate_reference, Aggregation};
use gnnadvisor_core::frameworks::{aggregate_with, Framework};
use gnnadvisor_core::input::{extract, AggOrder};
use gnnadvisor_core::runtime::{Advisor, AdvisorConfig, TuneStrategy};
use gnnadvisor_core::tuning::params::RuntimeParams;
use gnnadvisor_core::tuning::{aggregation_metrics, model, tune_two_tier, TwoTierConfig};
use gnnadvisor_datasets::{table1_by_name, Dataset};
use gnnadvisor_gpu::{Engine, GpuSpec, RunMetrics, Workload as DeviceWorkload};
use gnnadvisor_graph::reorder::{renumber, RenumberConfig, RenumberResult};
use gnnadvisor_graph::{Csr, Permutation};
use gnnadvisor_models::gcn::GCN_HIDDEN;
use gnnadvisor_models::{ForwardResult, Gcn, ModelExec};
use gnnadvisor_tensor::init::random_features;
use gnnadvisor_tensor::ops::relu_inplace;
use gnnadvisor_tensor::{Linear, Matrix};

use crate::trace::Tracer;
use crate::{engine, err, Checks, Result, SimMetric, SplitMix, Summary, Workload, DEFAULT_SEED};

/// The paper's Type III GCN speedup over DGL (EXPERIMENTS.md), the only
/// hardware reference result the benchmark compares against.
pub const PAPER_TYPE_III_GCN_SPEEDUP: f64 = 2.10;

/// Output rows recomputed densely per check.
const CHECKED_ROWS: usize = 8;

/// The Table 1 dataset (`--dataset`).
pub const DATASET: &str = "amazon0505";

/// Workload size: [`DATASET`] at a scale.
#[derive(Debug, Clone)]
pub struct FullGraph {
    /// Dataset scale in `(0, 1]` (`--scale`).
    pub scale: f64,
}

impl Default for FullGraph {
    fn default() -> Self {
        Self { scale: 0.2 }
    }
}

/// Generated inputs.
pub struct Inputs {
    /// The dataset; its node ids are relabelled by a seeded shuffle
    /// unless the seed is [`DEFAULT_SEED`], where the graph is exactly
    /// what `gnnadvisor run --dataset NAME --scale S` loads.
    pub ds: Dataset,
    /// Node features (`random_features(n, feat_dim, seed)`; the CLI uses
    /// seed 7).
    pub features: Matrix,
}

/// What the tuning stage chose.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuned {
    /// The analytical model's parameters (what the advisor runs with).
    pub decided: RuntimeParams,
    /// Two-tier winner and its engine-measured aggregation time.
    pub best: RuntimeParams,
    /// Engine time of the two-tier winner, ms.
    pub best_engine_ms: f64,
    /// Engine launches during tuning.
    pub engine_evals: usize,
    /// Distinct fast-path evaluations.
    pub fast_evals: usize,
    /// Fast-path memo hits.
    pub memo_hits: usize,
    /// Calibration error band of the analytical model.
    pub calibration_band: f64,
}

/// Community structure found by the renumbering pass (traced runs call it
/// directly and see its result).
#[derive(Debug, Clone, PartialEq)]
pub struct Renumbered {
    /// Louvain modularity.
    pub modularity: f64,
    /// Communities found.
    pub communities: usize,
    /// Mean edge span after renumbering / before.
    pub span_ratio: f64,
}

/// One run's results.
pub struct Output {
    /// Tuning results.
    pub tuned: Tuned,
    /// The prepared advisor.
    pub advisor: Advisor,
    /// The renumbering permutation (`None` when the advisor did not
    /// renumber).
    pub permutation: Option<Permutation>,
    /// Renumbering statistics, when the run called `renumber` itself.
    pub renumbered: Option<Renumbered>,
    /// GCN forward under GNNAdvisor.
    pub advisor_fwd: ForwardResult,
    /// GCN forward under DGL.
    pub dgl_fwd: ForwardResult,
}

impl FullGraph {
    fn spec() -> GpuSpec {
        GpuSpec::quadro_p6000()
    }

    fn model(ds: &Dataset) -> Gcn {
        Gcn::paper_default(ds.feat_dim, ds.num_classes, 0)
    }

    /// The layers `Gcn::paper_default(feat, classes, 0)` builds.
    fn layers(ds: &Dataset) -> [Linear; 2] {
        [
            Linear::new(ds.feat_dim, GCN_HIDDEN, 0),
            Linear::new(GCN_HIDDEN, ds.num_classes, 1),
        ]
    }

    fn tune(graph: &Csr, ds: &Dataset, engine: &Engine) -> Tuned {
        let spec = Self::spec();
        let info = extract(
            graph,
            ds.feat_dim,
            GCN_HIDDEN,
            ds.num_classes,
            AggOrder::UpdateThenAggregate,
        );
        let decided = model::decide(&info, &spec);
        let dim = info.aggregation_dim();
        let outcome = tune_two_tier(&info, &spec, &TwoTierConfig::default(), |p, _| {
            aggregation_metrics(graph, dim, p, engine)
        });
        Tuned {
            decided,
            best: outcome.best,
            best_engine_ms: outcome.best_engine_ms,
            engine_evals: outcome.engine_evals,
            fast_evals: outcome.fast_evals,
            memo_hits: outcome.memo_hits,
            calibration_band: outcome.model.error_band(),
        }
    }

    /// `Gcn::forward` re-expressed through the public calls it makes, with
    /// a span around each: the GEMM pricing, the host linear layer, the
    /// aggregation simulation and the host aggregation.
    fn traced_forward(
        t: &Tracer,
        layers: &[Linear],
        framework: Framework,
        engine: &Engine,
        graph: &Csr,
        advisor: Option<&Advisor>,
        features: &Matrix,
    ) -> Result<ForwardResult> {
        if !framework.reduces_before_aggregation() {
            return Err(format!("{} aggregates before the update", framework.name()));
        }
        let device = advisor.map_or(engine, Advisor::engine);
        let mut metrics = RunMetrics::default();
        let mut h = features.clone();
        let n = h.rows();
        for (l, layer) in layers.iter().enumerate() {
            let gemm = t.span("gpu.engine.gemm", || {
                device.submit(
                    &mut device.lock_context(),
                    DeviceWorkload::Gemm {
                        m: n,
                        n: layer.out_dim(),
                        k: layer.in_dim(),
                    },
                )
            });
            metrics.push_kernel(gemm.map_err(err)?.into_kernel());
            let reduced = t.span("tensor.linear", || layer.forward(&h)).map_err(err)?;
            let dim = reduced.cols();
            let run = t.span("gpu.engine.aggregate", || match advisor {
                Some(adv) => aggregate_with(framework, adv.engine(), adv.graph(), dim, Some(adv)),
                None => aggregate_with(framework, engine, graph, dim, None),
            });
            metrics.merge(run.map_err(err)?);
            let mut agg = t.span("core.compute.aggregate", || {
                aggregate_reference(graph, &reduced, Aggregation::GcnNorm)
            });
            if l + 1 < layers.len() {
                relu_inplace(&mut agg);
            }
            h = agg;
        }
        Ok(ForwardResult { output: h, metrics })
    }
}

impl Workload for FullGraph {
    type Inputs = Inputs;
    type Output = Output;

    fn name(&self) -> &'static str {
        "fullgraph"
    }

    fn setup(&self, seed: u64, t: &Tracer) -> Result<Inputs> {
        let spec = table1_by_name(DATASET).ok_or("unknown dataset")?;
        let mut ds = t
            .span("datasets.generate", || spec.generate(self.scale))
            .map_err(err)?;
        if seed != DEFAULT_SEED {
            // Same graph, seeded input order: what renumbering must undo.
            let n = ds.graph.num_nodes();
            let mut order: Vec<u32> = (0..n as u32).collect();
            let mut rng = SplitMix(seed);
            for i in (1..n).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let perm = Permutation::from_new_of_old(order).map_err(err)?;
            ds.graph = t
                .span("graph.permute", || ds.graph.permute(&perm))
                .map_err(err)?;
        }
        let features = t.span("tensor.init", || {
            random_features(ds.graph.num_nodes(), ds.feat_dim, seed)
        });
        Ok(Inputs { ds, features })
    }

    fn run(&self, inputs: &Inputs, threads: usize) -> Result<Output> {
        let Inputs { ds, features } = inputs;
        let engine = engine(threads)?;
        let tuned = Self::tune(&ds.graph, ds, &engine);
        let advisor = Advisor::new(
            &ds.graph,
            ds.feat_dim,
            GCN_HIDDEN,
            ds.num_classes,
            AggOrder::UpdateThenAggregate,
            AdvisorConfig {
                spec: Self::spec(),
                engine: Some(engine.clone()),
                ..Default::default()
            },
        )
        .map_err(err)?;
        let model = Self::model(ds);
        let advisor_fwd = model
            .forward(
                &ModelExec::new(&engine, &ds.graph, Framework::GnnAdvisor, Some(&advisor)),
                features,
            )
            .map_err(err)?;
        let dgl_fwd = model
            .forward(
                &ModelExec::new(&engine, &ds.graph, Framework::Dgl, None),
                features,
            )
            .map_err(err)?;
        let permutation = advisor.permutation().cloned();
        Ok(Output {
            tuned,
            advisor,
            permutation,
            renumbered: None,
            advisor_fwd,
            dgl_fwd,
        })
    }

    fn run_traced(&self, inputs: &Inputs, threads: usize, t: &Tracer) -> Result<Output> {
        let Inputs { ds, features } = inputs;
        let graph = &ds.graph;
        let engine = engine(threads)?;
        let tuned = t.span("core.tuning.tune", || Self::tune(graph, ds, &engine));
        let mut params = tuned.decided;
        let result: Option<RenumberResult> = if params.renumber {
            let r = t.span("graph.reorder.renumber", || {
                renumber(graph, &RenumberConfig::default())
            });
            Some(r.map_err(err)?)
        } else {
            None
        };
        // `Advisor::new` minus renumbering: permute, then build with the
        // decided parameters on the permuted graph.
        params.renumber = false;
        let (advisor, renumbered) = t.span("core.runtime.build", || -> Result<_> {
            let (exec_graph, renumbered) = match &result {
                Some(r) => {
                    let permuted = graph.permute(&r.permutation).map_err(err)?;
                    let stats = Renumbered {
                        modularity: r.modularity,
                        communities: r.num_communities,
                        span_ratio: permuted.mean_edge_span() / graph.mean_edge_span(),
                    };
                    (permuted, Some(stats))
                }
                None => (graph.clone(), None),
            };
            let advisor = Advisor::new(
                &exec_graph,
                ds.feat_dim,
                GCN_HIDDEN,
                ds.num_classes,
                AggOrder::UpdateThenAggregate,
                AdvisorConfig {
                    spec: Self::spec(),
                    tune: TuneStrategy::Manual(params),
                    renumber: Some(false),
                    engine: Some(engine.clone()),
                    ..Default::default()
                },
            )
            .map_err(err)?;
            Ok((advisor, renumbered))
        })?;
        let layers = Self::layers(ds);
        let advisor_fwd = Self::traced_forward(
            t,
            &layers,
            Framework::GnnAdvisor,
            &engine,
            graph,
            Some(&advisor),
            features,
        )?;
        let dgl_fwd =
            Self::traced_forward(t, &layers, Framework::Dgl, &engine, graph, None, features)?;
        Ok(Output {
            tuned,
            advisor,
            permutation: result.map(|r| r.permutation),
            renumbered,
            advisor_fwd,
            dgl_fwd,
        })
    }

    fn check(&self, inputs: &Inputs, out: &Output, deep: bool, checks: &mut Checks) {
        let graph = &inputs.ds.graph;
        let fwd_ms = out.advisor_fwd.metrics.total_ms();
        checks.check(fwd_ms.is_finite() && fwd_ms > 0.0, || {
            format!("GNNAdvisor forward took {fwd_ms} simulated ms")
        });
        checks.check(out.advisor_fwd.output == out.dgl_fwd.output, || {
            "GNNAdvisor and DGL forwards computed different numbers".to_string()
        });
        checks.check(
            out.permutation.is_some() == out.tuned.decided.renumber,
            || "the advisor's renumbering disagrees with the decided parameters".to_string(),
        );
        if !deep {
            return;
        }
        if let Some(perm) = &out.permutation {
            crate::check_renumbering(graph, perm, out.advisor.graph(), checks);
        }
        let layers = Self::layers(&inputs.ds);
        let mut rng = SplitMix(graph.num_nodes() as u64);
        for _ in 0..CHECKED_ROWS {
            let v = rng.below(graph.num_nodes());
            let want = dense_gcn_row(graph, &inputs.features, &layers, v);
            let got = out.advisor_fwd.output.row(v);
            let ok = want.len() == got.len()
                && want
                    .iter()
                    .zip(got)
                    .all(|(&w, &g)| (w - g as f64).abs() <= 1e-3 * (1.0 + w.abs()));
            checks.check(ok, || {
                format!("GCN output row {v} differs from a dense recomputation")
            });
        }
    }

    fn summary(&self, out: &Output) -> Summary {
        let adv = &out.advisor_fwd.metrics;
        let dgl = &out.dgl_fwd.metrics;
        let speedup = dgl.total_ms() / adv.total_ms();
        let tuned = &out.tuned;
        let sim = vec![
            sim("sim_forward_ms", adv.total_ms(), "ms"),
            sim("sim_dgl_forward_ms", dgl.total_ms(), "ms"),
            sim("sim_speedup_vs_dgl", speedup, "x"),
            sim("sim_tune_engine_ms", tuned.best_engine_ms, "ms"),
            sim("tune_best_gs", tuned.best.group_size as f64, "count"),
            sim(
                "tune_best_tpb",
                tuned.best.threads_per_block as f64,
                "count",
            ),
            sim("tune_best_dw", tuned.best.dim_workers as f64, "count"),
        ];
        let mut layers = vec![
            ("core.tuning.engine_evals", tuned.engine_evals as f64),
            ("core.tuning.fast_evals", tuned.fast_evals as f64),
            ("core.tuning.memo_hits", tuned.memo_hits as f64),
            ("core.tuning.calibration_band", tuned.calibration_band),
            (
                "gpu.engine.kernels",
                (adv.kernels.len() + dgl.kernels.len()) as f64,
            ),
            ("gpu.cache.hit_rate", adv.cache_hit_rate()),
            ("gpu.dram_mb", adv.dram_bytes() as f64 / 1e6),
            ("gpu.sm_efficiency", adv.mean_sm_efficiency()),
        ];
        if let Some(r) = &out.renumbered {
            layers.push(("graph.reorder.modularity", r.modularity));
            layers.push(("graph.reorder.communities", r.communities as f64));
            layers.push(("graph.reorder.span_ratio", r.span_ratio));
        }
        Summary {
            sim,
            sim_ms: adv.total_ms(),
            requests: None,
            layers,
        }
    }
}

fn sim(name: &'static str, value: f64, unit: &'static str) -> SimMetric {
    SimMetric { name, value, unit }
}

/// Row `v` of the 2-layer GCN `Â·relu(Â·X·W1)·W2` (zero biases, as
/// `Linear::new` builds them), recomputed in f64 from the definition:
/// `Â` weighs neighbor `u` of `v` by `1/sqrt((d_v+1)(d_u+1))` and `v`
/// itself by `1/(d_v+1)`.
pub fn dense_gcn_row(graph: &Csr, x: &Matrix, layers: &[Linear; 2], v: usize) -> Vec<f64> {
    let deg = |u: usize| graph.degree(u as u32) as f64 + 1.0;
    let times = |row: &[f64], w: &Matrix| -> Vec<f64> {
        (0..w.cols())
            .map(|c| {
                row.iter()
                    .enumerate()
                    .map(|(r, &a)| a * w.get(r, c) as f64)
                    .sum()
            })
            .collect()
    };
    let xw1 = |u: usize| -> Vec<f64> {
        let row: Vec<f64> = x.row(u).iter().map(|&a| a as f64).collect();
        times(&row, layers[0].weight())
    };
    // Â·f at node u for a per-node vector function f.
    let propagate = |u: usize, f: &dyn Fn(usize) -> Vec<f64>| -> Vec<f64> {
        let mut acc: Vec<f64> = f(u).iter().map(|a| a / deg(u)).collect();
        for &w in graph.neighbors(u as u32) {
            let w = w as usize;
            let scale = 1.0 / (deg(u) * deg(w)).sqrt();
            for (a, b) in acc.iter_mut().zip(f(w)) {
                *a += scale * b;
            }
        }
        acc
    };
    let hidden_w2 = |u: usize| -> Vec<f64> {
        let h: Vec<f64> = propagate(u, &xw1).into_iter().map(|a| a.max(0.0)).collect();
        times(&h, layers[1].weight())
    };
    propagate(v, &hidden_w2)
}
