//! Admission and dynamic batching: the one planner behind every serving
//! path.
//!
//! Replays an arrival trace through a bounded admission queue and
//! decides *when* to coalesce waiting requests into device batches. Two
//! triggers, the standard max-batch / max-delay pair:
//!
//! - **size**: the instant a tenant has `max_batch` waiters, a full batch
//!   dispatches;
//! - **delay**: a partial batch dispatches when its oldest waiter has
//!   been queued for `max_delay_ms` — the latency bound a size trigger
//!   alone cannot give under light load.
//!
//! The queue's capacity is shared by weighted tenants: each owns a
//! *guaranteed share* proportional to its weight (never below one slot)
//! and may borrow idle capacity beyond it, but when the queue is full an
//! arrival from an under-share tenant evicts the newest waiter of the
//! most over-share tenant — so a heavy tenant's burst cannot starve a
//! light tenant's trickle. Batches are tenant-pure. [`plan_batches`] is
//! the one-tenant case: its share is the whole capacity, so a full queue
//! sheds the arrival; [`crate::cluster::plan_cluster_batches`] plans a
//! tenant roster.
//!
//! The planner is pure (no device interaction): it maps an arrival trace
//! to a deterministic sequence of [`DispatchedBatch`]es plus shed counts,
//! ties breaking on the lowest tenant index, which the serving paths then
//! price on the simulated GPU.

use std::collections::VecDeque;

use super::arrivals::Request;
use crate::{CoreError, Result};

/// When to close a forming batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPolicy {
    /// Dispatch as soon as this many requests are waiting.
    pub max_batch: usize,
    /// Dispatch a partial batch once its oldest request has waited this
    /// long, milliseconds.
    pub max_delay_ms: f64,
}

/// How much backpressure the admission queue applies.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuePolicy {
    /// Maximum number of requests waiting to be batched; arrivals beyond
    /// this are shed.
    pub capacity: usize,
}

/// One batch the planner committed: the requests it coalesced and the
/// instant it left the queue for the device.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchedBatch {
    /// Dispatch instant on the serving clock, milliseconds.
    pub dispatch_ms: f64,
    /// The coalesced requests, in admission order.
    pub requests: Vec<Request>,
}

/// The planner's full output for one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlan {
    /// Every dispatched batch, in dispatch order.
    pub batches: Vec<DispatchedBatch>,
    /// Requests rejected by the admission queue.
    pub shed: u64,
}

fn validate(queue: &QueuePolicy, policy: &BatchPolicy) -> Result<()> {
    if policy.max_batch == 0 {
        return Err(CoreError::Serving {
            reason: "max_batch must be at least 1".into(),
        });
    }
    if !(policy.max_delay_ms.is_finite() && policy.max_delay_ms >= 0.0) {
        return Err(CoreError::Serving {
            reason: format!(
                "max_delay_ms must be non-negative and finite, got {}",
                policy.max_delay_ms
            ),
        });
    }
    if queue.capacity == 0 {
        return Err(CoreError::Serving {
            reason: "queue capacity must be at least 1".into(),
        });
    }
    Ok(())
}

/// Weighted-fair admission state over one shared capacity.
struct Admission {
    queues: Vec<VecDeque<Request>>,
    shares: Vec<usize>,
    shed: Vec<u64>,
    capacity: usize,
    waiting: usize,
}

impl Admission {
    fn new(weights: &[u32], capacity: usize) -> Self {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        // Guaranteed share: proportional floor, never below one slot.
        let shares = weights
            .iter()
            .map(|&w| (((capacity as u64) * u64::from(w)) / total).max(1) as usize)
            .collect();
        Self {
            queues: weights.iter().map(|_| VecDeque::new()).collect(),
            shares,
            shed: vec![0; weights.len()],
            capacity,
            waiting: 0,
        }
    }

    /// Offers one arrival of tenant `t`: admit into slack, or reclaim a
    /// guaranteed slot by evicting the newest waiter of the most
    /// over-share tenant, or shed. Returns whether the request waits.
    fn offer(&mut self, t: usize, request: Request) -> bool {
        if self.waiting < self.capacity {
            self.queues[t].push_back(request);
            self.waiting += 1;
            return true;
        }
        if self.queues[t].len() < self.shares[t] {
            // The queue is full of borrowers while `t` is under its
            // guarantee: evict the newest request of the tenant furthest
            // over its own share (ties: lowest index). Some over-share
            // tenant must exist — the shares sum to at most the capacity.
            let victim = (0..self.queues.len())
                .filter(|&v| self.queues[v].len() > self.shares[v])
                .max_by_key(|&v| self.queues[v].len() - self.shares[v]);
            if let Some(v) = victim {
                self.queues[v].pop_back();
                self.shed[v] += 1;
                self.queues[t].push_back(request);
                return true;
            }
        }
        self.shed[t] += 1;
        false
    }

    /// The tenant whose oldest waiter has the earliest delay deadline
    /// (ties: lowest index), if anyone is waiting.
    fn earliest_deadline(&self, max_delay_ms: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (t, q) in self.queues.iter().enumerate() {
            if let Some(front) = q.front() {
                let deadline = front.arrival_ms + max_delay_ms;
                if best.is_none_or(|(_, d)| deadline < d) {
                    best = Some((t, deadline));
                }
            }
        }
        best
    }

    /// Drains up to `max_batch` of tenant `t`'s waiters into a batch
    /// dispatched at `at_ms` and hands it to `emit`.
    fn dispatch(
        &mut self,
        t: usize,
        at_ms: f64,
        max_batch: usize,
        emit: &mut impl FnMut(usize, usize, DispatchedBatch),
    ) {
        let depth = self.waiting;
        let take = self.queues[t].len().min(max_batch);
        let requests: Vec<Request> = self.queues[t].drain(..take).collect();
        self.waiting -= take;
        let batch = DispatchedBatch {
            dispatch_ms: at_ms,
            requests,
        };
        emit(t, depth, batch);
    }
}

/// Replays `arrivals` (must be sorted by `arrival_ms`; request `i`
/// belongs to tenant `tenant_of(i)`) through weighted-fair admission over
/// tenants of the given `weights` (each at least 1) and per-tenant
/// batching. Every batch goes to `emit(tenant, depth, batch)` in dispatch
/// order, `depth` being the requests waiting across all tenants just
/// before it drained. Returns the requests shed (or evicted) per tenant.
pub(crate) fn plan_weighted(
    arrivals: &[Request],
    tenant_of: impl Fn(usize) -> usize,
    weights: &[u32],
    queue: &QueuePolicy,
    policy: &BatchPolicy,
    mut emit: impl FnMut(usize, usize, DispatchedBatch),
) -> Result<Vec<u64>> {
    validate(queue, policy)?;
    for pair in arrivals.windows(2) {
        if pair[0].arrival_ms > pair[1].arrival_ms {
            return Err(CoreError::Serving {
                reason: format!(
                    "arrival trace is not sorted: {} ms after {} ms",
                    pair[1].arrival_ms, pair[0].arrival_ms
                ),
            });
        }
    }

    let mut adm = Admission::new(weights, queue.capacity);
    for (i, request) in arrivals.iter().enumerate() {
        // Fire every delay deadline that elapses before this arrival, in
        // deadline order (ties: lowest tenant index).
        while let Some((t, deadline)) = adm.earliest_deadline(policy.max_delay_ms) {
            if deadline <= request.arrival_ms {
                adm.dispatch(t, deadline, policy.max_batch, &mut emit);
            } else {
                break;
            }
        }
        let t = tenant_of(i);
        if adm.offer(t, request.clone()) && adm.queues[t].len() >= policy.max_batch {
            adm.dispatch(t, request.arrival_ms, policy.max_batch, &mut emit);
        }
    }
    // End of trace: the server does not know the trace ended, so each
    // leftover batch still waits out its oldest member's delay deadline.
    while let Some((t, deadline)) = adm.earliest_deadline(policy.max_delay_ms) {
        adm.dispatch(t, deadline, policy.max_batch, &mut emit);
    }
    Ok(adm.shed)
}

/// Replays `arrivals` (must be sorted by `arrival_ms`) through the
/// admission queue and batching policy, all requests one tenant.
pub fn plan_batches(
    arrivals: &[Request],
    queue_policy: &QueuePolicy,
    policy: &BatchPolicy,
) -> Result<BatchPlan> {
    let mut batches = Vec::new();
    let shed = plan_weighted(
        arrivals,
        |_| 0,
        &[1],
        queue_policy,
        policy,
        |_, _, batch| batches.push(batch),
    )?;
    Ok(BatchPlan {
        batches,
        shed: shed[0],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: usize, arrival_ms: f64) -> Request {
        Request {
            id,
            arrival_ms,
            component: 0,
        }
    }

    fn queue(capacity: usize) -> QueuePolicy {
        QueuePolicy { capacity }
    }

    fn policy(max_batch: usize, max_delay_ms: f64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            max_delay_ms,
        }
    }

    #[test]
    fn size_trigger_dispatches_at_the_filling_arrival() {
        let arrivals: Vec<Request> = (0..6).map(|i| req(i, i as f64)).collect();
        let plan = plan_batches(&arrivals, &queue(16), &policy(3, 100.0)).expect("valid");
        assert_eq!(plan.shed, 0);
        assert_eq!(plan.batches.len(), 2);
        // Batch closes the instant its third member arrives.
        assert_eq!(plan.batches[0].dispatch_ms, 2.0);
        assert_eq!(plan.batches[1].dispatch_ms, 5.0);
        let ids: Vec<usize> = plan.batches[0].requests.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn delay_trigger_flushes_partial_batches() {
        // Two early requests, then a long gap: the delay timer must fire.
        let arrivals = vec![req(0, 0.0), req(1, 1.0), req(2, 50.0)];
        let plan = plan_batches(&arrivals, &queue(16), &policy(4, 5.0)).expect("valid");
        assert_eq!(plan.batches.len(), 2);
        assert_eq!(plan.batches[0].dispatch_ms, 5.0);
        assert_eq!(plan.batches[0].requests.len(), 2);
        // The straggler flushes at its own deadline after the trace ends.
        assert_eq!(plan.batches[1].dispatch_ms, 55.0);
        assert_eq!(plan.batches[1].requests.len(), 1);
    }

    #[test]
    fn overload_sheds_beyond_queue_capacity() {
        // Everything arrives at once; capacity 4 admits four, sheds six.
        let arrivals: Vec<Request> = (0..10).map(|i| req(i, 0.0)).collect();
        let plan = plan_batches(&arrivals, &queue(4), &policy(8, 10.0)).expect("valid");
        assert_eq!(plan.shed, 6);
        let served: usize = plan.batches.iter().map(|b| b.requests.len()).sum();
        assert_eq!(served, 4);
    }

    #[test]
    fn draining_between_bursts_readmits() {
        // Burst fills capacity, delay drains it, second burst is admitted.
        let mut arrivals: Vec<Request> = (0..4).map(|i| req(i, 0.0)).collect();
        arrivals.extend((4..8).map(|i| req(i, 20.0)));
        let plan = plan_batches(&arrivals, &queue(4), &policy(8, 5.0)).expect("valid");
        assert_eq!(plan.shed, 0);
        let served: usize = plan.batches.iter().map(|b| b.requests.len()).sum();
        assert_eq!(served, 8);
    }

    #[test]
    fn dispatch_times_never_decrease() {
        let arrivals: Vec<Request> = (0..50).map(|i| req(i, (i as f64 * 1.7) % 40.0)).collect();
        let mut sorted = arrivals;
        sorted.sort_by(|a, b| a.arrival_ms.partial_cmp(&b.arrival_ms).unwrap());
        let plan = plan_batches(&sorted, &queue(8), &policy(3, 4.0)).expect("valid");
        for pair in plan.batches.windows(2) {
            assert!(pair[0].dispatch_ms <= pair[1].dispatch_ms);
        }
    }

    #[test]
    fn zero_delay_flushes_every_request_alone() {
        // max_delay_ms == 0: a waiter's deadline is its own arrival
        // instant, so each request flushes before the next can join it —
        // even when arrivals share a timestamp.
        let arrivals = vec![req(0, 0.0), req(1, 0.0), req(2, 2.5)];
        let plan = plan_batches(&arrivals, &queue(16), &policy(8, 0.0)).expect("valid");
        assert_eq!(plan.shed, 0);
        assert_eq!(plan.batches.len(), 3, "one batch per request");
        for (batch, request) in plan.batches.iter().zip(&arrivals) {
            assert_eq!(batch.requests.len(), 1);
            assert_eq!(batch.requests[0].id, request.id);
            assert_eq!(batch.dispatch_ms, request.arrival_ms);
        }
    }

    #[test]
    fn capacity_below_max_batch_caps_batches_at_capacity() {
        // The queue can never hold max_batch waiters, so the size trigger
        // is unreachable: batches top out at capacity and the overflow is
        // shed, not silently wedged.
        let arrivals: Vec<Request> = (0..10).map(|i| req(i, 0.0)).collect();
        let plan = plan_batches(&arrivals, &queue(3), &policy(8, 4.0)).expect("valid");
        assert_eq!(plan.shed, 7);
        assert_eq!(plan.batches.len(), 1);
        assert_eq!(plan.batches[0].requests.len(), 3);
        assert_eq!(plan.batches[0].dispatch_ms, 4.0, "delay trigger flushes");
    }

    mod plan_proptest {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// For any trace and policy, dispatch instants are monotone
            /// and every admitted request lands in exactly one batch.
            #[test]
            fn dispatches_are_monotone_and_partition_admissions(
                // Deci-milliseconds: the vendored proptest only samples
                // integer ranges.
                arrival_deci in proptest::collection::vec(0u64..400, 0..40),
                max_batch in 1u64..6,
                capacity in 1u64..10,
                delay_deci in 0u64..80,
            ) {
                let mut instants = arrival_deci;
                instants.sort_unstable();
                let arrivals: Vec<Request> = instants
                    .iter()
                    .enumerate()
                    .map(|(id, &deci)| req(id, deci as f64 / 10.0))
                    .collect();
                let plan = plan_batches(
                    &arrivals,
                    &queue(capacity as usize),
                    &policy(max_batch as usize, delay_deci as f64 / 10.0),
                ).expect("valid policy");

                let mut last = f64::NEG_INFINITY;
                let mut seen = std::collections::HashSet::new();
                for batch in &plan.batches {
                    prop_assert!(!batch.requests.is_empty(), "empty batch");
                    prop_assert!(batch.requests.len() <= max_batch as usize);
                    prop_assert!(
                        batch.dispatch_ms >= last,
                        "dispatch went backwards: {} after {}",
                        batch.dispatch_ms,
                        last
                    );
                    last = batch.dispatch_ms;
                    for r in &batch.requests {
                        prop_assert!(
                            seen.insert(r.id),
                            "request {} dispatched twice",
                            r.id
                        );
                        prop_assert!(batch.dispatch_ms >= r.arrival_ms);
                    }
                }
                prop_assert_eq!(
                    seen.len() as u64 + plan.shed,
                    arrivals.len() as u64,
                    "admitted + shed must cover the trace"
                );
            }
        }
    }

    /// The single-tenant planner (bounded FIFO plus max-batch / max-delay
    /// triggers) as it stood before the weighted-fair planner absorbed
    /// it, kept as the reference the one planner must reproduce.
    mod oracle {
        use super::*;
        use std::collections::VecDeque;

        struct BoundedQueue<T> {
            items: VecDeque<T>,
            capacity: usize,
            shed: u64,
        }

        impl<T> BoundedQueue<T> {
            fn new(capacity: usize) -> Self {
                assert!(capacity > 0, "queue capacity must be at least 1");
                Self {
                    items: VecDeque::with_capacity(capacity),
                    capacity,
                    shed: 0,
                }
            }

            fn offer(&mut self, item: T) -> bool {
                if self.items.len() >= self.capacity {
                    self.shed += 1;
                    false
                } else {
                    self.items.push_back(item);
                    true
                }
            }

            fn pop(&mut self) -> Option<T> {
                self.items.pop_front()
            }

            fn front(&self) -> Option<&T> {
                self.items.front()
            }

            fn len(&self) -> usize {
                self.items.len()
            }

            fn is_empty(&self) -> bool {
                self.items.is_empty()
            }

            fn shed_count(&self) -> u64 {
                self.shed
            }
        }

        fn dispatch(
            at_ms: f64,
            queue: &mut BoundedQueue<Request>,
            max_batch: usize,
            out: &mut Vec<DispatchedBatch>,
        ) {
            let take = queue.len().min(max_batch);
            let mut requests = Vec::with_capacity(take);
            for _ in 0..take {
                requests.push(queue.pop().expect("len checked"));
            }
            out.push(DispatchedBatch {
                dispatch_ms: at_ms,
                requests,
            });
        }

        /// The old `plan_batches` loop on a valid, sorted trace.
        pub fn plan_batches(
            arrivals: &[Request],
            queue_policy: &QueuePolicy,
            policy: &BatchPolicy,
        ) -> BatchPlan {
            let mut queue: BoundedQueue<Request> = BoundedQueue::new(queue_policy.capacity);
            let mut batches = Vec::new();
            for request in arrivals {
                while let Some(front) = queue.front() {
                    let deadline = front.arrival_ms + policy.max_delay_ms;
                    if deadline <= request.arrival_ms {
                        dispatch(deadline, &mut queue, policy.max_batch, &mut batches);
                    } else {
                        break;
                    }
                }
                if queue.offer(request.clone()) && queue.len() >= policy.max_batch {
                    dispatch(
                        request.arrival_ms,
                        &mut queue,
                        policy.max_batch,
                        &mut batches,
                    );
                }
            }
            while !queue.is_empty() {
                let deadline = queue.front().expect("non-empty").arrival_ms + policy.max_delay_ms;
                dispatch(deadline, &mut queue, policy.max_batch, &mut batches);
            }
            BatchPlan {
                batches,
                shed: queue.shed_count(),
            }
        }
    }

    #[test]
    fn one_tenant_planning_matches_the_single_tenant_oracle() {
        use crate::cluster::{plan_cluster_batches, TenantSpec};
        use crate::serving::{
            generate_arrivals, generate_mmpp_arrivals, ArrivalConfig, MmppConfig,
        };

        let tenant = [TenantSpec {
            name: "only".into(),
            weight: 1,
            deadline_ms: None,
        }];
        let mut traces = Vec::new();
        for seed in 0..40 {
            traces.push(
                generate_arrivals(&ArrivalConfig {
                    num_requests: 120,
                    mean_interarrival_ms: 0.2,
                    num_components: 4,
                    seed,
                })
                .expect("valid"),
            );
            traces.push(
                generate_mmpp_arrivals(&MmppConfig {
                    num_requests: 120,
                    phase_interarrival_ms: vec![0.05, 2.0],
                    mean_dwell_ms: 5.0,
                    num_components: 4,
                    seed,
                })
                .expect("valid"),
            );
        }
        // The generators never repeat an instant. Copies snapped to a
        // 0.5 ms grid add tied arrivals and delay deadlines that land
        // exactly on an arrival.
        let snapped: Vec<Vec<Request>> = traces
            .iter()
            .map(|trace| {
                let snap = |r: &Request| Request {
                    arrival_ms: (r.arrival_ms * 2.0).floor() / 2.0,
                    ..r.clone()
                };
                trace.iter().map(snap).collect()
            })
            .collect();
        traces.extend(snapped);
        let (mut cases, mut shed_cases) = (0, 0);
        for arrivals in &traces {
            let tenant_of = vec![0; arrivals.len()];
            for capacity in [1, 2, 5, 16, 64] {
                for (max_batch, max_delay_ms) in [(1, 0.0), (4, 0.0), (4, 0.5), (8, 2.0), (32, 1.0)]
                {
                    let q = queue(capacity);
                    let p = policy(max_batch, max_delay_ms);
                    let want = oracle::plan_batches(arrivals, &q, &p);
                    let got = plan_batches(arrivals, &q, &p).expect("valid");
                    assert_eq!(
                        got, want,
                        "cap {capacity} batch {max_batch} delay {max_delay_ms}"
                    );
                    let cluster =
                        plan_cluster_batches(arrivals, &tenant_of, &tenant, &q, &p).expect("valid");
                    assert_eq!(cluster.shed_per_tenant, vec![want.shed]);
                    let batches: Vec<DispatchedBatch> =
                        cluster.batches.into_iter().map(|cb| cb.batch).collect();
                    assert_eq!(batches, want.batches);
                    cases += 1;
                    shed_cases += usize::from(want.shed > 0);
                }
            }
        }
        assert_eq!(cases, 4_000);
        assert!(shed_cases > 0, "the grid must reach the shedding path");
    }

    #[test]
    fn invalid_policies_are_rejected() {
        assert!(plan_batches(&[], &queue(4), &policy(0, 1.0)).is_err());
        assert!(plan_batches(&[], &queue(0), &policy(4, 1.0)).is_err());
        assert!(plan_batches(&[], &queue(4), &policy(4, -1.0)).is_err());
        assert!(plan_batches(&[], &queue(4), &policy(4, f64::NAN)).is_err());
        let unsorted = vec![req(0, 5.0), req(1, 1.0)];
        assert!(plan_batches(&unsorted, &queue(4), &policy(4, 1.0)).is_err());
    }
}
