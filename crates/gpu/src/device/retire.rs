//! Block retirement on the simulated clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One group of blocks finishing together: `blocks` blocks of `launch`
/// leave SM `sm` at instant `at`, returning their resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retirement {
    /// Retirement instant, cycles.
    pub at: u64,
    /// The launch the blocks belong to (caller-assigned id).
    pub launch: usize,
    /// The SM the blocks leave.
    pub sm: usize,
    /// How many blocks retire together.
    pub blocks: u64,
}

/// A pending retirement as `(at, push seq, launch, sm, blocks)`: the
/// unique `(at, seq)` prefix decides the order.
type Pending = (u64, u64, usize, usize, u64);

/// Min-heap of pending retirements ordered by instant; equal instants pop
/// in push order (a sequence number breaks ties), so draining is fully
/// deterministic. Each heap entry carries its retirement, so the queue
/// holds only what is still pending.
#[derive(Debug, Default)]
pub struct RetirementQueue {
    heap: BinaryHeap<Reverse<Pending>>,
    pushed: u64,
}

impl RetirementQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a retirement.
    pub fn push(&mut self, r: Retirement) {
        self.heap
            .push(Reverse((r.at, self.pushed, r.launch, r.sm, r.blocks)));
        self.pushed += 1;
    }

    /// The earliest pending retirement instant, if any.
    pub fn next_at(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
    }

    /// Pops the first retirement due at or before `now` in (instant,
    /// push) order, if any — [`RetirementQueue::pop_due`] one at a time,
    /// without collecting.
    pub fn pop_next_due(&mut self, now: u64) -> Option<Retirement> {
        if self.next_at()? > now {
            return None;
        }
        let Reverse((at, _, launch, sm, blocks)) = self.heap.pop()?;
        Some(Retirement {
            at,
            launch,
            sm,
            blocks,
        })
    }

    /// Pops every retirement due at or before `now`, in (instant, push)
    /// order.
    pub fn pop_due(&mut self, now: u64) -> Vec<Retirement> {
        std::iter::from_fn(|| self.pop_next_due(now)).collect()
    }

    /// Whether no retirements are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(at: u64, launch: usize) -> Retirement {
        Retirement {
            at,
            launch,
            sm: 0,
            blocks: 1,
        }
    }

    #[test]
    fn drains_in_time_then_push_order() {
        let mut q = RetirementQueue::new();
        q.push(r(50, 0));
        q.push(r(10, 1));
        q.push(r(50, 2));
        q.push(r(10, 3));
        assert_eq!(q.next_at(), Some(10));
        let due = q.pop_due(10);
        assert_eq!(
            due.iter().map(|x| x.launch).collect::<Vec<_>>(),
            vec![1, 3],
            "equal instants pop in push order"
        );
        assert_eq!(q.next_at(), Some(50));
        assert!(q.pop_due(49).is_empty());
        let due = q.pop_due(u64::MAX);
        assert_eq!(due.iter().map(|x| x.launch).collect::<Vec<_>>(), vec![0, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_rounds_keep_instant_then_push_order_and_drain_empty() {
        let mut q = RetirementQueue::new();
        // Model: every pushed retirement not yet drained, in push order.
        let mut pending: Vec<Retirement> = Vec::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let mut now = 0u64;
        let mut launch = 0usize;
        for _ in 0..500 {
            for _ in 0..next(6) {
                let r = Retirement {
                    at: now + next(40),
                    launch,
                    sm: next(30) as usize,
                    blocks: 1 + next(4),
                };
                launch += 1;
                q.push(r);
                pending.push(r);
            }
            now += next(25);
            // The model's due list: stable sort keeps push order on ties.
            let mut due: Vec<Retirement> =
                pending.iter().copied().filter(|r| r.at <= now).collect();
            due.sort_by_key(|r| r.at);
            pending.retain(|r| r.at > now);
            assert_eq!(q.pop_due(now), due);
            assert_eq!(q.next_at(), pending.iter().map(|r| r.at).min());
        }
        let mut rest = pending;
        rest.sort_by_key(|r| r.at);
        assert_eq!(q.pop_due(u64::MAX), rest);
        assert!(q.is_empty(), "nothing is held once every retirement is due");
        assert_eq!(q.next_at(), None);
    }
}
