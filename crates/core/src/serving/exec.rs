//! The serving core behind [`super::simulate`],
//! [`crate::dynamic::simulate_dynamic`] and
//! [`crate::cluster::simulate_cluster`]: one attempt loop
//! ([`enqueue_attempt`]), one retry chain ([`SlotServer::submit`]) whose
//! placement is a [`PlaceAttempt`] rule — [`FixedSlots`] for the
//! single-server paths, the cluster's routed rule for the fleet — one
//! outcome [`Tally`] per tenant and one [`ServingReport`] assembly. Every
//! replica shares one clock ([`shared_clock`]), so retry releases, router
//! estimates and completion instants all live in one spec's cycles.

use gnnadvisor_gpu::fault::FaultKind;
use gnnadvisor_gpu::stream::OpHandle;
use gnnadvisor_gpu::{Engine, GpuSpec, StreamId, StreamReport, StreamSim};

use super::{percentile, BatchPlan, BatchWork, DispatchedBatch, RetryPolicy};
use super::{ServingConfig, ServingReport};
use crate::{CoreError, Result};

/// Validates the stream count and retry policy every serving layer shares.
pub(crate) fn validate_shape(streams: usize, retry: &RetryPolicy) -> Result<()> {
    if streams == 0 {
        return Err(CoreError::Serving {
            reason: "streams must be at least 1".into(),
        });
    }
    retry.validate()
}

impl ServingConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        validate_shape(self.streams, &self.retry)?;
        match self.deadline_ms {
            Some(d) if !(d.is_finite() && d > 0.0) => Err(CoreError::Serving {
                reason: format!("deadline_ms must be positive and finite, got {d}"),
            }),
            _ => Ok(()),
        }
    }
}

/// The spec of a non-empty fleet whose engines all share it.
pub(crate) fn shared_clock(engines: &[Engine]) -> Result<&GpuSpec> {
    let reason = match engines {
        [first, rest @ ..] if rest.iter().all(|e| e.spec() == first.spec()) => {
            return Ok(first.spec())
        }
        [] => "at least one replica engine is required",
        _ => "every replica engine must share one GpuSpec",
    };
    Err(CoreError::Serving {
        reason: reason.into(),
    })
}

/// One attempt of a batch's device work on one stream.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Attempt {
    /// The last op issued before any fault (`None`: no ops).
    pub tail: Option<OpHandle>,
    pub fault: Option<FaultKind>,
    /// Priced time of the issued ops, summed per op in cycles.
    pub cycles: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
}

/// Enqueues `work` on `stream` released at `release_cycles`, stopping at
/// the first faulted op (which still burns, and counts, its priced time).
pub(crate) fn enqueue_attempt(
    sim: &mut StreamSim<'_>,
    clock: &GpuSpec,
    stream: StreamId,
    work: &BatchWork,
    release_cycles: u64,
) -> Result<Attempt> {
    let mut attempt = Attempt::default();
    for op in &work.ops {
        let enq = sim.try_enqueue_at(stream, op.workload(), release_cycles)?;
        attempt.cycles += clock.ms_to_cycles(enq.metrics.time_ms());
        if let Some(k) = enq.metrics.as_kernel() {
            attempt.l2_hits += k.l2_hits;
            attempt.l2_misses += k.l2_misses;
        }
        attempt.fault = enq.fault;
        if attempt.fault.is_some() {
            break;
        }
        attempt.tail = Some(enq.handle);
    }
    Ok(attempt)
}

/// How one batch's retry chain ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Outcome {
    /// An attempt on `replica` ran fault-free; `tail` is its last op.
    Done {
        replica: usize,
        tail: Option<OpHandle>,
    },
    /// Every attempt faulted.
    Exhausted,
}

/// One batch's retry chain as [`SlotServer::submit`] ran it.
#[derive(Debug)]
pub(crate) struct Chain {
    pub outcome: Outcome,
    /// Release instant of the last attempt, ms.
    pub release_ms: f64,
    /// The first attempt (retries re-price the same work).
    pub first: Attempt,
}

/// Where each attempt of a batch runs: the one decision the serving paths
/// make differently.
pub(crate) trait PlaceAttempt {
    /// The `(replica, stream)` slot of an attempt of `batch` released at
    /// `release`; `faulted` is the replica of its attempt that just faulted.
    fn place(&mut self, batch: usize, release: u64, faulted: Option<usize>) -> (usize, usize);

    /// Learns how the attempt placed on `slot` went.
    fn record(&mut self, _slot: (usize, usize), _release: u64, _attempt: &Attempt) {}
}

/// Batch `i` runs on slot `i % (replicas x streams)`, replica-major, and
/// retries there.
pub(crate) struct FixedSlots {
    replicas: usize,
    streams: usize,
}

impl PlaceAttempt for FixedSlots {
    fn place(&mut self, batch: usize, _: u64, _: Option<usize>) -> (usize, usize) {
        let slot = batch % (self.replicas * self.streams);
        (slot / self.streams, slot % self.streams)
    }
}

/// One report per tenant, in roster order: that tenant's requests with
/// rates over the shared `span_ms`, plus the fleet's retry and device
/// columns (`shed` and `batches` are the caller's).
pub(crate) struct Settled {
    pub tenants: Vec<ServingReport>,
    pub span_ms: f64,
    /// Each replica's own mean kernel occupancy.
    pub per_replica_occupancy: Vec<f64>,
}

/// `streams` streams on each replica engine. Each batch's retry chain
/// runs on the slots a [`PlaceAttempt`] rule picks, a retry released once
/// the failed attempt's estimated end plus backoff has passed.
pub(crate) struct SlotServer<'e> {
    clock: &'e GpuSpec,
    sims: Vec<StreamSim<'e>>,
    /// `[replica][stream]`.
    streams: Vec<Vec<StreamId>>,
    outcomes: Vec<Outcome>,
    retries: u64,
}

impl<'e> SlotServer<'e> {
    /// Slots for `streams` streams on each engine, with outcome room for
    /// `batches` submissions.
    pub fn new(engines: &'e [Engine], streams: usize, batches: usize) -> Result<Self> {
        let clock = shared_clock(engines)?;
        let mut sims: Vec<StreamSim<'e>> = engines.iter().map(StreamSim::new).collect();
        let streams = sims
            .iter_mut()
            .map(|sim| (0..streams).map(|_| sim.stream()).collect())
            .collect();
        Ok(Self {
            clock,
            sims,
            streams,
            outcomes: Vec::with_capacity(batches),
            retries: 0,
        })
    }

    /// The fixed-slot rule over this server's slots.
    pub fn fixed_slots(&self) -> FixedSlots {
        let (replicas, streams) = (self.streams.len(), self.streams[0].len());
        FixedSlots { replicas, streams }
    }

    /// Runs batch `batch`'s retry chain, first released at `release_ms`,
    /// on the slots `rule` picks. Call once per batch, in dispatch order.
    pub fn submit(
        &mut self,
        batch: usize,
        work: &BatchWork,
        release_ms: f64,
        retry: &RetryPolicy,
        rule: &mut dyn PlaceAttempt,
    ) -> Result<Chain> {
        let mut chain = Chain {
            outcome: Outcome::Exhausted,
            release_ms,
            first: Attempt::default(),
        };
        let mut faulted = None;
        for attempt in 1..=retry.max_attempts {
            let release = self.clock.ms_to_cycles(chain.release_ms);
            let slot @ (replica, stream) = rule.place(batch, release, faulted);
            let stream = self.streams[replica][stream];
            let a = enqueue_attempt(&mut self.sims[replica], self.clock, stream, work, release)?;
            rule.record(slot, release, &a);
            if attempt == 1 {
                chain.first = a;
            }
            if a.fault.is_none() {
                chain.outcome = Outcome::Done {
                    replica,
                    tail: a.tail,
                };
                break;
            }
            if attempt == retry.max_attempts {
                break;
            }
            self.retries += 1;
            chain.release_ms =
                self.clock.cycles_to_ms(release + a.cycles) + retry.backoff_ms(batch, attempt);
            faulted = Some(replica);
        }
        self.outcomes.push(chain.outcome);
        Ok(chain)
    }

    /// Runs every replica's schedule and reports on `plan`, whose batches
    /// were all submitted as one tenant's.
    pub fn finish(self, plan: &BatchPlan, deadline_ms: Option<f64>) -> Result<ServingReport> {
        let batches = plan.batches.iter().map(|batch| (0, batch));
        let mut settled = self.settle(batches, &[deadline_ms])?;
        Ok(ServingReport {
            shed: plan.shed,
            batches: plan.batches.len(),
            ..settled.tenants.swap_remove(0)
        })
    }

    /// Runs every replica's schedule and settles the submitted batches,
    /// given in submission order with their tenants, each tenant under
    /// its entry in `deadlines`.
    pub fn settle<'b>(
        self,
        batches: impl IntoIterator<Item = (usize, &'b DispatchedBatch)>,
        deadlines: &[Option<f64>],
    ) -> Result<Settled> {
        let reports: gnnadvisor_gpu::Result<Vec<StreamReport>> =
            self.sims.into_iter().map(StreamSim::run).collect();
        let reports = reports?;
        let mut tallies: Vec<Tally> = deadlines.iter().map(|_| Tally::default()).collect();
        for ((tenant, batch), outcome) in batches.into_iter().zip(&self.outcomes) {
            tallies[tenant].settle(outcome, batch, &reports, self.clock, deadlines[tenant]);
        }
        let makespan_ms = reports.iter().map(|r| r.makespan_ms).fold(0.0, f64::max);
        let span_ms = tallies
            .iter()
            .fold(makespan_ms, |span, t| span.max(t.last_end_ms));
        let retries = self.retries;
        Ok(Settled {
            tenants: tallies
                .into_iter()
                .map(|t| t.finish(span_ms, makespan_ms, retries, &reports))
                .collect(),
            span_ms,
            per_replica_occupancy: reports.iter().map(|r| r.mean_kernel_occupancy()).collect(),
        })
    }
}

/// One replica's own mean; several merge weighted by kernel busy time
/// (each replica's mean is already duration-weighted over its spans).
fn mean_kernel_occupancy(reports: &[StreamReport]) -> f64 {
    let busy: u64 = reports.iter().map(|r| r.kernel_busy_cycles).sum();
    match reports {
        [only] => only.mean_kernel_occupancy(),
        _ if busy == 0 => 0.0,
        _ => {
            let weighted = reports
                .iter()
                .map(|r| r.mean_kernel_occupancy() * r.kernel_busy_cycles as f64);
            weighted.sum::<f64>() / busy as f64
        }
    }
}

/// Requests per second over a span, `0` for an empty span.
pub(crate) fn rate(count: usize, span_ms: f64) -> f64 {
    if span_ms > 0.0 {
        count as f64 * 1000.0 / span_ms
    } else {
        0.0
    }
}

/// Every request lands in exactly one bucket: completed (its latency
/// kept), deadline-missed, or failed.
#[derive(Debug, Default)]
struct Tally {
    latencies: Vec<f64>,
    failed: usize,
    deadline_missed: usize,
    /// Latest completion instant, ms (a zero-op batch completes at its
    /// dispatch instant without extending the makespan).
    last_end_ms: f64,
}

impl Tally {
    /// Records `batch` by `outcome`, reading its completion instant from
    /// the replica's schedule.
    fn settle(
        &mut self,
        outcome: &Outcome,
        batch: &DispatchedBatch,
        reports: &[StreamReport],
        clock: &GpuSpec,
        deadline_ms: Option<f64>,
    ) {
        let Outcome::Done { replica, tail } = *outcome else {
            self.failed += batch.requests.len();
            return;
        };
        let end_ms = tail.map_or(batch.dispatch_ms, |handle| {
            let end = reports[replica].op_end(handle);
            clock.cycles_to_ms(end.expect("committed op has a span"))
        });
        self.last_end_ms = self.last_end_ms.max(end_ms);
        for request in &batch.requests {
            let latency = (end_ms - request.arrival_ms).max(0.0);
            match deadline_ms {
                Some(d) if latency > d => self.deadline_missed += 1,
                _ => self.latencies.push(latency),
            }
        }
    }

    /// The tally's buckets, latency percentiles and rates over `span_ms`,
    /// beside the fleet's device columns from `reports`; `shed` and
    /// `batches` stay zero for the caller to fill.
    fn finish(
        mut self,
        span_ms: f64,
        makespan_ms: f64,
        retries: u64,
        reports: &[StreamReport],
    ) -> ServingReport {
        let lat = &mut self.latencies;
        lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let completed = lat.len();
        ServingReport {
            completed,
            failed: self.failed,
            deadline_missed: self.deadline_missed,
            p50_ms: percentile(lat, 50.0),
            p95_ms: percentile(lat, 95.0),
            p99_ms: percentile(lat, 99.0),
            mean_ms: match completed {
                0 => 0.0,
                n => lat.iter().sum::<f64>() / n as f64,
            },
            throughput_rps: rate(completed + self.deadline_missed, span_ms),
            goodput_rps: rate(completed, span_ms),
            shed: 0,
            retries,
            batches: 0,
            makespan_ms,
            kernel_busy_cycles: reports.iter().map(|r| r.kernel_busy_cycles).sum(),
            copy_busy_cycles: reports.iter().map(|r| r.copy_busy_cycles).sum(),
            mean_kernel_occupancy: mean_kernel_occupancy(reports),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::DeviceWork;
    use gnnadvisor_gpu::{FaultConfig, FaultPlan};
    use std::sync::Arc;

    fn engine(fault_rate: f64) -> Engine {
        Engine::builder(GpuSpec::quadro_p6000())
            .fault_plan(Arc::new(
                FaultPlan::new(FaultConfig::uniform(fault_rate, 5)).expect("valid rate"),
            ))
            .build()
            .expect("valid")
    }

    fn work() -> BatchWork {
        BatchWork {
            ops: vec![
                DeviceWork::Transfer { bytes: 1 << 20 },
                DeviceWork::Gemm {
                    m: 4096,
                    n: 64,
                    k: 64,
                },
                DeviceWork::Transfer { bytes: 1 << 20 },
            ],
        }
    }

    #[test]
    fn a_clean_attempt_issues_every_op() {
        let engine = engine(0.0);
        let clock = engine.spec();
        let mut sim = StreamSim::new(&engine);
        let stream = sim.stream();
        let a = enqueue_attempt(&mut sim, clock, stream, &work(), 0).expect("enqueues");
        assert_eq!(a.fault, None);
        assert!(a.tail.is_some());
        let report = sim.run().expect("runs");
        assert_eq!(report.spans.len(), 3);
        let priced: u64 = report
            .spans
            .iter()
            .map(|s| s.end_cycles - s.start_cycles)
            .sum();
        assert!(a.cycles > 0 && a.cycles.abs_diff(priced) <= 3, "{a:?}");
    }

    #[test]
    fn an_attempt_stops_at_its_first_faulted_op_and_counts_its_time() {
        let engine = engine(1.0);
        let clock = engine.spec();
        let mut sim = StreamSim::new(&engine);
        let stream = sim.stream();
        let a = enqueue_attempt(&mut sim, clock, stream, &work(), 0).expect("enqueues");
        assert!(a.fault.is_some(), "a 100 % fault rate kills the first op");
        assert_eq!(a.tail, None, "no op completed before the fault");
        let report = sim.run().expect("runs");
        assert_eq!(
            report.spans.len(),
            1,
            "ops after the fault are never issued"
        );
        let span = &report.spans[0];
        assert!(span.fault.is_some());
        assert!(a.cycles > 0, "the faulted op's time is counted");
        assert!(a.cycles.abs_diff(span.end_cycles - span.start_cycles) <= 1);
    }
}
