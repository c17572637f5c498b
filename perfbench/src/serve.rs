//! `serve`: `serving::simulate` on the Type II batched graph.
//!
//! An open loop of Poisson arrivals on the simulated clock (latency counts
//! from each request's arrival) feeds the dynamic batcher; batches run as
//! GCN forwards on two simulated streams under injected faults with
//! retries and a deadline (`gnnadvisor serve-sim` with the same flags).
//! Nothing is renumbered or tuned.

use std::sync::Arc;

use gnnadvisor_core::serving::{
    generate_arrivals, plan_batches, simulate, ArrivalConfig, BatchExecutor, BatchPolicy,
    BatchWork, DeviceWork, DispatchedBatch, QueuePolicy, Request, RetryPolicy, ServingConfig,
    ServingReport,
};
use gnnadvisor_core::Result as CoreResult;
use gnnadvisor_gpu::{
    Engine, FaultConfig, FaultPlan, GpuSpec, StreamSim, Workload as DeviceWorkload,
};
use gnnadvisor_graph::generators::{batched_graph, BatchedParams};
use gnnadvisor_graph::Csr;
use gnnadvisor_models::GcnBatchExecutor;

use crate::trace::Tracer;
use crate::{err, Checks, Requests, Result, SimMetric, Summary, Workload};

/// The percentiles a [`ServingReport`] carries.
pub const REPORT_PERCENTILES: [f64; 3] = [50.0, 95.0, 99.0];

/// Offered load, requests per simulated second (`--rate`).
pub const RATE: f64 = 8_000.0;
/// Dynamic batcher's max batch size (`--batch-size`).
pub const BATCH_SIZE: usize = 8;
/// Dynamic batcher's max queueing delay, ms (`--max-delay-ms`).
pub const MAX_DELAY_MS: f64 = 2.0;
/// Admission-queue capacity (`--queue-cap`).
pub const QUEUE_CAP: usize = 64;
/// Concurrent simulated streams (`--streams`).
pub const STREAMS: usize = 2;
/// Injected fault rate (`--fault-rate`).
pub const FAULT_RATE: f64 = 0.05;
/// Retries per faulted batch (`--retries`).
pub const RETRIES: usize = 2;
/// Per-request deadline, ms (`--deadline-ms`).
pub const DEADLINE_MS: f64 = 40.0;

/// Workload size; the defaults are the benchmark's `serve` workload.
#[derive(Debug, Clone)]
pub struct Serve {
    /// Requests in the arrival trace (`--requests`).
    pub requests: usize,
    /// Graph scale (`--scale`).
    pub scale: f64,
}

impl Default for Serve {
    fn default() -> Self {
        Self {
            requests: 20_000,
            scale: 0.2,
        }
    }
}

/// Feature dimension and class count of the CLI's serving model.
pub const FEAT_DIM: usize = 96;
/// Class count of the CLI's serving model.
pub const NUM_CLASSES: usize = 10;

/// Generated inputs.
pub struct Inputs {
    /// The batched graph.
    pub graph: Csr,
    /// Component id per node.
    pub components: Vec<u32>,
    /// The arrival trace.
    pub arrivals: Vec<Request>,
    /// The seed (arrivals, retries and faults all derive from it).
    pub seed: u64,
}

/// The serving shape shared by `serve` and `serve-churn`.
pub fn serving_config(
    streams: usize,
    queue_cap: usize,
    batch_size: usize,
    max_delay_ms: f64,
    retries: usize,
    deadline_ms: Option<f64>,
    seed: u64,
) -> ServingConfig {
    ServingConfig {
        streams,
        queue: QueuePolicy {
            capacity: queue_cap,
        },
        batch: BatchPolicy {
            max_batch: batch_size,
            max_delay_ms,
        },
        retry: RetryPolicy {
            max_attempts: retries + 1,
            seed,
            ..RetryPolicy::default()
        },
        deadline_ms,
    }
}

/// Request accounting and latency metrics of a serving report.
pub fn serving_summary(report: &ServingReport, arrivals: usize) -> (Requests, Vec<SimMetric>) {
    let lost = report.shed as usize + report.failed + report.deadline_missed;
    let requests = Requests {
        arrivals,
        completed: report.completed,
        lost,
    };
    let m = |name, value, unit| SimMetric { name, value, unit };
    let sim = vec![
        m("sim_p50_ms", report.p50_ms, "ms"),
        m("sim_p95_ms", report.p95_ms, "ms"),
        m("sim_p99_ms", report.p99_ms, "ms"),
        m("sim_mean_ms", report.mean_ms, "ms"),
        m("sim_goodput_rps", report.goodput_rps, "1/s"),
        m("sim_makespan_ms", report.makespan_ms, "ms"),
        m("completed", report.completed as f64, "count"),
        m("shed", report.shed as f64, "count"),
        m("failed", report.failed as f64, "count"),
        m("deadline_missed", report.deadline_missed as f64, "count"),
        m("retries", report.retries as f64, "count"),
        m("batches", report.batches as f64, "count"),
    ];
    (requests, sim)
}

/// Conservation and ordering checks on a serving report.
pub fn check_serving(report: &ServingReport, arrivals: usize, checks: &mut Checks) {
    let accounted =
        report.completed + report.shed as usize + report.failed + report.deadline_missed;
    checks.check(accounted == arrivals, || {
        format!("completed + shed + failed + deadline_missed = {accounted} != {arrivals} arrivals")
    });
    checks.check(
        report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms,
        || {
            format!(
                "latency percentiles out of order: p50 {} p95 {} p99 {}",
                report.p50_ms, report.p95_ms, report.p99_ms
            )
        },
    );
    checks.check(
        report.goodput_rps.is_finite() && report.goodput_rps > 0.0,
        || format!("goodput {} req/s", report.goodput_rps),
    );
}

/// A [`BatchExecutor`] that times every `plan` call as a
/// `models.serve.plan` span.
struct TimedExec<'a> {
    inner: GcnBatchExecutor,
    tracer: &'a Tracer,
}

impl BatchExecutor for TimedExec<'_> {
    fn plan(&mut self, batch: &DispatchedBatch) -> CoreResult<BatchWork> {
        let inner = &mut self.inner;
        self.tracer.span("models.serve.plan", || inner.plan(batch))
    }
}

impl Serve {
    fn executor(inputs: &Inputs) -> GcnBatchExecutor {
        GcnBatchExecutor::new(&inputs.graph, &inputs.components, FEAT_DIM, 16, NUM_CLASSES)
    }

    fn config(seed: u64) -> ServingConfig {
        serving_config(
            STREAMS,
            QUEUE_CAP,
            BATCH_SIZE,
            MAX_DELAY_MS,
            RETRIES,
            Some(DEADLINE_MS),
            seed,
        )
    }

    /// A fresh engine: the fault plan is consumed as ops are submitted, so
    /// every run builds its own.
    fn faulty_engine(threads: usize, seed: u64) -> Result<Engine> {
        let plan = FaultPlan::new(FaultConfig::uniform(FAULT_RATE, seed)).map_err(err)?;
        Engine::builder(GpuSpec::quadro_p6000())
            .sim_threads(threads)
            .fault_plan(Arc::new(plan))
            .build()
            .map_err(err)
    }
}

impl Workload for Serve {
    type Inputs = Inputs;
    type Output = ServingReport;

    fn name(&self) -> &'static str {
        "serve"
    }

    /// Half of the flow's time is the stream scheduler's admission scan.
    fn extra_reference_s(&self) -> f64 {
        crate::reference::scan_s()
    }

    fn setup(&self, seed: u64, t: &Tracer) -> Result<Inputs> {
        let nodes = ((40_000.0 * self.scale) as usize).clamp(400, 40_000);
        let (graph, components) = t
            .span("graph.generators.generate", || {
                batched_graph(
                    &BatchedParams {
                        num_nodes: nodes,
                        num_edges: nodes * 4,
                        mean_graph_size: 40,
                        graph_size_cv: 0.4,
                    },
                    31,
                )
            })
            .map_err(err)?;
        let arrivals = t
            .span("core.serving.arrivals", || {
                generate_arrivals(&ArrivalConfig {
                    num_requests: self.requests,
                    mean_interarrival_ms: 1000.0 / RATE,
                    num_components: crate::component_runs(&components),
                    seed,
                })
            })
            .map_err(err)?;
        Ok(Inputs {
            graph,
            components,
            arrivals,
            seed,
        })
    }

    fn run(&self, inputs: &Inputs, threads: usize) -> Result<ServingReport> {
        let engine = Self::faulty_engine(threads, inputs.seed)?;
        let mut exec = Self::executor(inputs);
        simulate(
            &engine,
            &inputs.arrivals,
            &Self::config(inputs.seed),
            &mut exec,
        )
        .map_err(err)
    }

    fn run_traced(&self, inputs: &Inputs, threads: usize, t: &Tracer) -> Result<ServingReport> {
        let engine = Self::faulty_engine(threads, inputs.seed)?;
        let mut exec = TimedExec {
            inner: Self::executor(inputs),
            tracer: t,
        };
        let cfg = Self::config(inputs.seed);
        t.span("core.serving.simulate", || {
            simulate(&engine, &inputs.arrivals, &cfg, &mut exec)
        })
        .map_err(err)
    }

    /// Replays the fault-free batch plan through the stream scheduler's
    /// public API (`plan_batches` → `plan` → `try_enqueue_at` → `run`),
    /// timing enqueueing and scheduling apart.
    fn probe(
        &self,
        inputs: &Inputs,
        threads: usize,
        t: &Tracer,
        _reference: &Summary,
        checks: &mut Checks,
    ) -> Result<Vec<(&'static str, f64)>> {
        let engine = crate::engine(threads)?;
        let spec = engine.spec();
        let cfg = Self::config(inputs.seed);
        let plan = plan_batches(&inputs.arrivals, &cfg.queue, &cfg.batch).map_err(err)?;
        let mut exec = Self::executor(inputs);
        let mut sim = StreamSim::new(&engine);
        let streams: Vec<_> = (0..cfg.streams).map(|_| sim.stream()).collect();
        let mut ops = 0usize;
        for (i, batch) in plan.batches.iter().enumerate() {
            let work = exec.plan(batch).map_err(err)?;
            let release = spec.ms_to_cycles(batch.dispatch_ms);
            t.span("gpu.stream.enqueue", || -> Result<()> {
                for op in &work.ops {
                    let workload = match op {
                        DeviceWork::Kernel(k) => DeviceWorkload::Kernel(&**k),
                        DeviceWork::Gemm { m, n, k } => DeviceWorkload::Gemm {
                            m: *m,
                            n: *n,
                            k: *k,
                        },
                        DeviceWork::Transfer { bytes } => {
                            DeviceWorkload::Transfer { bytes: *bytes }
                        }
                    };
                    let enq = sim
                        .try_enqueue_at(streams[i % streams.len()], workload, release)
                        .map_err(err)?;
                    if enq.fault.is_some() {
                        return Err("a fault-free engine reported a fault".into());
                    }
                    ops += 1;
                }
                Ok(())
            })?;
        }
        let report = t.span("gpu.stream.run", || sim.run()).map_err(err)?;
        checks.check(report.spans.len() == ops, || {
            format!(
                "stream replay scheduled {} of {ops} ops",
                report.spans.len()
            )
        });
        Ok(vec![("gpu.stream.ops", ops as f64)])
    }

    fn check(&self, inputs: &Inputs, out: &ServingReport, deep: bool, checks: &mut Checks) {
        check_serving(out, inputs.arrivals.len(), checks);
        if deep {
            let (ours, theirs) = (
                crate::component_runs(&inputs.components),
                Self::executor(inputs).num_components(),
            );
            checks.check(ours == theirs, || {
                format!("arrivals address {ours} components, the executor has {theirs}")
            });
        }
        checks.check(out.failed > 0 && out.retries > 0, || {
            "injected faults caused no retries or failures".to_string()
        });
    }

    fn summary(&self, out: &ServingReport) -> Summary {
        let (requests, sim) = serving_summary(out, self.requests);
        let spec = GpuSpec::quadro_p6000();
        let makespan = spec.ms_to_cycles(out.makespan_ms).max(1) as f64;
        Summary {
            sim,
            sim_ms: out.p99_ms,
            requests: Some(requests),
            layers: vec![
                ("core.serving.batches", out.batches as f64),
                ("core.serving.retries", out.retries as f64),
                (
                    "core.serving.attempt_yield",
                    out.batches as f64 / (out.batches as u64 + out.retries) as f64,
                ),
                ("gpu.stream.occupancy", out.mean_kernel_occupancy),
                (
                    "gpu.stream.kernel_busy_frac",
                    out.kernel_busy_cycles as f64 / makespan,
                ),
                (
                    "gpu.stream.copy_busy_frac",
                    out.copy_busy_cycles as f64 / makespan,
                ),
            ],
        }
    }
}
