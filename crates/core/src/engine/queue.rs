//! Ingress queues for the wall-clock serving loop: one shared MPMC queue
//! ([`SharedQueue`]) and a per-consumer sharded variant with work
//! stealing ([`ShardedQueues`]).
//!
//! Both are `Mutex<VecDeque>` + `Condvar` constructions — no external
//! crates, no tokio. The capacity bound *is* the admission cap: a full
//! queue rejects the push and the ingress thread records the request as
//! shed, exactly like the step loop's `max_queue_depth`. Re-queues
//! (retries, budget-infeasible batches handed back) go to the head and
//! bypass the cap — those requests were already admitted once.
//!
//! Shutdown protocol (identical for both): the last producer calls
//! `close` after the final arrival; consumers keep draining until the
//! queue is empty *and* closed, at which point `pop_batch` returns
//! [`Popped::Closed`] and the worker exits its loop. No request can be
//! stranded: every admitted item is either popped by a worker or still in
//! a deque — and every deque is provably empty when `Closed` is returned.
//!
//! **Why shard?** Under a hot burst, every push, pop, and length probe of
//! [`SharedQueue`] serializes on one mutex and one condvar — the
//! scheduling bottleneck the sharded mode removes. [`ShardedQueues`]
//! gives each consumer its own deque (uncontended in the steady state),
//! dispatches at ingress to the least-loaded shard, and lets an idle
//! consumer steal **half the chosen victim's backlog from the head** —
//! the wall-clock form of the step loop's `ShardConfig::work_stealing`
//! (which drains the deepest queue), refined by deadline slack: a peer
//! whose head request expires soonest is preferred over the merely
//! deepest one.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

struct Inner<T> {
    deque: VecDeque<T>,
    closed: bool,
    max_depth: usize,
}

/// What a consumer got from [`SharedQueue::pop_batch`].
pub(crate) enum Popped<T> {
    /// 1..=max items, FIFO from the head.
    Batch(Vec<T>),
    /// The queue is closed and fully drained; the consumer should exit.
    Closed,
}

/// The shared ingress queue: any number of producers and consumers.
pub(crate) struct SharedQueue<T> {
    inner: Mutex<Inner<T>>,
    nonempty: Condvar,
    capacity: usize,
}

impl<T> SharedQueue<T> {
    /// `capacity` of `None` = unbounded.
    pub(crate) fn new(capacity: Option<usize>) -> Self {
        SharedQueue {
            inner: Mutex::new(Inner {
                deque: VecDeque::new(),
                closed: false,
                max_depth: 0,
            }),
            nonempty: Condvar::new(),
            capacity: capacity.unwrap_or(usize::MAX),
        }
    }

    /// Admits one item at the tail; `Err(item)` when the queue is at
    /// capacity (the caller sheds it).
    pub(crate) fn try_push(&self, item: T) -> Result<(), T> {
        let mut g = self.inner.lock().expect("queue mutex poisoned");
        if g.deque.len() >= self.capacity {
            return Err(item);
        }
        g.deque.push_back(item);
        g.max_depth = g.max_depth.max(g.deque.len());
        drop(g);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Re-queues already-admitted items at the head, preserving their
    /// order (`items[0]` becomes the new front). Bypasses the capacity
    /// bound — shedding happens at admission only.
    pub(crate) fn push_front(&self, items: Vec<T>) {
        if items.is_empty() {
            return;
        }
        let mut g = self.inner.lock().expect("queue mutex poisoned");
        for item in items.into_iter().rev() {
            g.deque.push_front(item);
        }
        g.max_depth = g.max_depth.max(g.deque.len());
        drop(g);
        self.nonempty.notify_all();
    }

    /// Blocks until items are available or the queue is closed and
    /// drained; takes up to `max` items from the head.
    pub(crate) fn pop_batch(&self, max: usize) -> Popped<T> {
        let mut g = self.inner.lock().expect("queue mutex poisoned");
        loop {
            if !g.deque.is_empty() {
                let take = g.deque.len().min(max);
                return Popped::Batch(g.deque.drain(..take).collect());
            }
            if g.closed {
                return Popped::Closed;
            }
            g = self.nonempty.wait(g).expect("queue mutex poisoned");
        }
    }

    /// Current depth (racy by nature — used for admission heuristics and
    /// the degradation controller's backlog signal).
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("queue mutex poisoned").deque.len()
    }

    /// Deepest the queue has been.
    pub(crate) fn max_depth(&self) -> usize {
        self.inner.lock().expect("queue mutex poisoned").max_depth
    }

    /// Whether ingress has ended (items may still be draining).
    pub(crate) fn is_closed(&self) -> bool {
        self.inner.lock().expect("queue mutex poisoned").closed
    }

    /// Ends ingress and wakes every blocked consumer.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("queue mutex poisoned").closed = true;
        self.nonempty.notify_all();
    }
}

/// Per-consumer sharded ingress queues with work stealing.
///
/// Hot path: a consumer locks only its own shard's mutex; producers lock
/// only the chosen shard's. The cross-shard machinery is all atomics — a
/// length mirror per shard for lock-free victim/dispatch scans, one
/// global total for the admission cap and the drained-and-closed exit
/// test, and an eventcount (`seq` + `waiters` + one `Condvar`) so
/// consumers park only when provably nothing changed since they scanned.
/// A short `wait_timeout` backstops the parking protocol; correctness
/// never depends on it.
///
/// Accounting invariant: `total` counts exactly the items sitting in some
/// deque. Items a consumer holds (an in-flight batch, a half-stolen run
/// being re-homed) are its responsibility until re-queued or resolved —
/// the same holder-liability rule [`SharedQueue`] relies on — so
/// `closed && total == 0` is a safe exit test: any later re-queue comes
/// from a still-live consumer that will drain its own shard first.
pub(crate) struct ShardedQueues<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    /// Lock-free mirrors of each shard's depth, maintained under that
    /// shard's lock; read without it for dispatch and victim scans.
    lens: Vec<AtomicUsize>,
    shard_max: Vec<AtomicUsize>,
    total: AtomicUsize,
    max_total: AtomicUsize,
    steals: AtomicUsize,
    /// Eventcount generation: bumped after every state change a parked
    /// consumer could care about (push, re-queue, steal, close, drain-to-
    /// empty-while-closed).
    seq: AtomicU64,
    waiters: AtomicUsize,
    closed: AtomicBool,
    signal: Mutex<()>,
    wakeup: Condvar,
    capacity: usize,
}

impl<T> ShardedQueues<T> {
    /// `capacity` of `None` = unbounded; the bound is global across all
    /// shards (it is the run's admission cap, not a per-worker limit).
    pub(crate) fn new(shards: usize, capacity: Option<usize>) -> Self {
        assert!(shards >= 1, "at least one shard is required");
        ShardedQueues {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            lens: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            shard_max: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            total: AtomicUsize::new(0),
            max_total: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            signal: Mutex::new(()),
            wakeup: Condvar::new(),
            capacity: capacity.unwrap_or(usize::MAX),
        }
    }

    /// Wakes parked consumers after a state change. The seq bump makes
    /// the change visible to a consumer about to park (it re-checks seq
    /// under the signal lock); the notify catches those already parked.
    fn bump_and_notify(&self) {
        self.seq.fetch_add(1, Ordering::Release);
        if self.waiters.load(Ordering::Acquire) > 0 {
            let _g = self.signal.lock().expect("signal mutex poisoned");
            self.wakeup.notify_all();
        }
    }

    /// Removes `n` items from the global count; if that drained the last
    /// item of a closed queue, wakes everyone so they can observe
    /// `Closed` (pops don't otherwise signal).
    fn note_removed(&self, n: usize) {
        let before = self.total.fetch_sub(n, Ordering::AcqRel);
        if before == n && self.closed.load(Ordering::Acquire) {
            self.bump_and_notify();
        }
    }

    /// Admits one item onto the least-loaded shard (ties to the lowest
    /// index); `Err(item)` when the global capacity is reached (the
    /// caller sheds it). Returns the chosen shard on success.
    pub(crate) fn try_push(&self, item: T) -> Result<usize, T> {
        // Optimistic reservation keeps the cap exact under concurrent
        // producers: whoever pushes past it reverts and sheds.
        let prev = self.total.fetch_add(1, Ordering::AcqRel);
        if prev >= self.capacity {
            self.total.fetch_sub(1, Ordering::AcqRel);
            return Err(item);
        }
        self.max_total.fetch_max(prev + 1, Ordering::AcqRel);
        let mut shard = 0;
        let mut best = usize::MAX;
        for (i, l) in self.lens.iter().enumerate() {
            let n = l.load(Ordering::Relaxed);
            if n < best {
                best = n;
                shard = i;
            }
        }
        {
            let mut g = self.shards[shard].lock().expect("shard mutex poisoned");
            g.push_back(item);
            let len = g.len();
            self.lens[shard].store(len, Ordering::Release);
            self.shard_max[shard].fetch_max(len, Ordering::AcqRel);
        }
        self.bump_and_notify();
        Ok(shard)
    }

    /// Re-queues already-admitted items at the head of `shard`,
    /// preserving their order (`items[0]` becomes the new front).
    /// Bypasses the capacity bound — shedding happens at admission only.
    pub(crate) fn push_front(&self, shard: usize, items: Vec<T>) {
        if items.is_empty() {
            return;
        }
        let n = items.len();
        {
            let mut g = self.shards[shard].lock().expect("shard mutex poisoned");
            for item in items.into_iter().rev() {
                g.push_front(item);
            }
            let len = g.len();
            self.lens[shard].store(len, Ordering::Release);
            self.shard_max[shard].fetch_max(len, Ordering::AcqRel);
        }
        let t = self.total.fetch_add(n, Ordering::AcqRel) + n;
        self.max_total.fetch_max(t, Ordering::AcqRel);
        self.bump_and_notify();
    }

    /// One steal attempt for consumer `thief`. Victim selection is
    /// deadline-slack-aware: among non-empty peers (probed with
    /// `try_lock` — a peer busy under its own lock is being drained
    /// already), prefer the one whose **head** item is most urgent per
    /// `urgency` (smallest value, e.g. an absolute deadline), falling
    /// back to the deepest backlog; ties go to the lower index. Takes
    /// half the victim's backlog (rounded up) from the head — oldest
    /// first, preserving FIFO order — serves up to `max` of it now, and
    /// adopts the remainder onto its own shard. Never holds two shard
    /// locks at once, so steals cannot deadlock against each other.
    fn try_steal<F: Fn(&T) -> Option<u64>>(
        &self,
        thief: usize,
        max: usize,
        urgency: &F,
    ) -> Option<Vec<T>> {
        let mut victim: Option<(usize, Option<u64>, usize)> = None;
        for i in 0..self.shards.len() {
            if i == thief || self.lens[i].load(Ordering::Acquire) == 0 {
                continue;
            }
            let Ok(g) = self.shards[i].try_lock() else {
                continue;
            };
            let len = g.len();
            if len == 0 {
                continue;
            }
            let head = g.front().and_then(urgency);
            drop(g);
            let better = match &victim {
                None => true,
                Some((_, best_head, best_len)) => match (head, *best_head) {
                    (Some(a), Some(b)) => a < b || (a == b && len > *best_len),
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => len > *best_len,
                },
            };
            if better {
                victim = Some((i, head, len));
            }
        }
        let (v, _, _) = victim?;
        let mut taken: Vec<T> = {
            let mut g = self.shards[v].lock().expect("shard mutex poisoned");
            let len = g.len();
            if len == 0 {
                // Emptied between the scan and the re-lock; the outer
                // loop rescans.
                return None;
            }
            let take = len.div_ceil(2);
            let items = g.drain(..take).collect();
            self.lens[v].store(g.len(), Ordering::Release);
            items
        };
        self.steals.fetch_add(1, Ordering::Relaxed);
        let serve = taken.len().min(max);
        let rest = taken.split_off(serve);
        if !rest.is_empty() {
            let mut g = self.shards[thief].lock().expect("shard mutex poisoned");
            for item in rest {
                g.push_back(item);
            }
            let len = g.len();
            self.lens[thief].store(len, Ordering::Release);
            self.shard_max[thief].fetch_max(len, Ordering::AcqRel);
        }
        // Only the served prefix leaves the structure; the adopted
        // remainder stays queued (and visible to other stealers).
        self.note_removed(serve);
        self.bump_and_notify();
        Some(taken)
    }

    /// Blocks until consumer `shard` can take work or the whole structure
    /// is closed and drained. Drains up to `max` items from its own shard
    /// first; when that is empty and `steal` is set, attempts one steal
    /// (see [`ShardedQueues::try_steal`]); otherwise parks on the
    /// eventcount.
    pub(crate) fn pop_batch<F: Fn(&T) -> Option<u64>>(
        &self,
        shard: usize,
        max: usize,
        steal: bool,
        urgency: &F,
    ) -> Popped<T> {
        loop {
            let s0 = self.seq.load(Ordering::Acquire);
            {
                let mut g = self.shards[shard].lock().expect("shard mutex poisoned");
                if !g.is_empty() {
                    let take = g.len().min(max);
                    let items: Vec<T> = g.drain(..take).collect();
                    self.lens[shard].store(g.len(), Ordering::Release);
                    drop(g);
                    self.note_removed(take);
                    return Popped::Batch(items);
                }
            }
            if steal {
                if let Some(items) = self.try_steal(shard, max, urgency) {
                    return Popped::Batch(items);
                }
            }
            self.waiters.fetch_add(1, Ordering::AcqRel);
            let g = self.signal.lock().expect("signal mutex poisoned");
            if self.seq.load(Ordering::Acquire) != s0 {
                drop(g);
                self.waiters.fetch_sub(1, Ordering::AcqRel);
                continue;
            }
            if self.closed.load(Ordering::Acquire) && self.total.load(Ordering::Acquire) == 0 {
                drop(g);
                self.waiters.fetch_sub(1, Ordering::AcqRel);
                return Popped::Closed;
            }
            // Backstop only: the seq re-check above already closes the
            // lost-wakeup window.
            let _ = self
                .wakeup
                .wait_timeout(g, Duration::from_millis(2))
                .expect("signal mutex poisoned");
            self.waiters.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Total queued across all shards (racy by nature — used for
    /// admission heuristics and the degradation controller's backlog
    /// signal).
    pub(crate) fn len(&self) -> usize {
        self.total.load(Ordering::Acquire)
    }

    /// Deepest the whole structure has been (sum over shards).
    pub(crate) fn max_depth(&self) -> usize {
        self.max_total.load(Ordering::Acquire)
    }

    /// Deepest `shard`'s own deque has been.
    pub(crate) fn shard_max_depth(&self, shard: usize) -> usize {
        self.shard_max[shard].load(Ordering::Acquire)
    }

    /// Completed steal operations (each moves half a victim's backlog).
    pub(crate) fn steals(&self) -> usize {
        self.steals.load(Ordering::Relaxed)
    }

    /// Whether ingress has ended (items may still be draining).
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Ends ingress and wakes every parked consumer.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.seq.fetch_add(1, Ordering::Release);
        let _g = self.signal.lock().expect("signal mutex poisoned");
        self.wakeup.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn capacity_bound_sheds_at_admission_but_not_on_requeue() {
        let q: SharedQueue<u32> = SharedQueue::new(Some(2));
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "full queue rejects the push");
        q.push_front(vec![0]);
        assert_eq!(q.len(), 3, "re-queues bypass the cap");
        assert_eq!(q.max_depth(), 3);
        match q.pop_batch(10) {
            Popped::Batch(items) => assert_eq!(items, vec![0, 1, 2]),
            Popped::Closed => panic!("queue is not closed"),
        }
    }

    #[test]
    fn close_drains_then_signals_consumers() {
        let q: Arc<SharedQueue<u32>> = Arc::new(SharedQueue::new(None));
        for v in 0..5 {
            q.try_push(v).unwrap();
        }
        q.close();
        // A blocked consumer on another thread must still drain the
        // remainder before seeing Closed.
        let qc = Arc::clone(&q);
        let drained = std::thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                match qc.pop_batch(2) {
                    Popped::Batch(items) => got.extend(items),
                    Popped::Closed => return got,
                }
            }
        })
        .join()
        .unwrap();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert!(q.is_closed());
    }

    const NO_URGENCY: fn(&u32) -> Option<u64> = |_| None;

    #[test]
    fn sharded_least_loaded_dispatch_balances_with_ties_to_lowest_index() {
        let q: ShardedQueues<u32> = ShardedQueues::new(3, None);
        let shards: Vec<usize> = (0..6).map(|v| q.try_push(v).unwrap()).collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(q.len(), 6);
        for i in 0..3 {
            assert_eq!(q.shard_max_depth(i), 2);
        }
    }

    #[test]
    fn sharded_capacity_is_global_and_requeues_bypass_it() {
        let q: ShardedQueues<u32> = ShardedQueues::new(2, Some(3));
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.try_push(4), Err(4), "global cap rejects the push");
        q.push_front(0, vec![0]);
        assert_eq!(q.len(), 4, "re-queues bypass the cap");
        assert_eq!(q.max_depth(), 4);
    }

    #[test]
    fn sharded_close_drains_own_shard_then_signals_closed() {
        let q: ShardedQueues<u32> = ShardedQueues::new(2, None);
        q.push_front(1, vec![7, 8]);
        q.close();
        match q.pop_batch(1, 10, false, &NO_URGENCY) {
            Popped::Batch(items) => assert_eq!(items, vec![7, 8]),
            Popped::Closed => panic!("shard 1 still holds items"),
        }
        assert!(matches!(
            q.pop_batch(1, 10, false, &NO_URGENCY),
            Popped::Closed
        ));
        assert!(matches!(
            q.pop_batch(0, 10, true, &NO_URGENCY),
            Popped::Closed
        ));
    }

    /// The skewed-producer claim from the sharded design: with the whole
    /// burst landed on one shard, stealing (a) halves the deepest
    /// observable backlog as soon as the idle consumer arrives, and (b)
    /// drains the burst in fewer consumer rounds than the no-steal twin,
    /// where the loaded consumer is on its own. Fully deterministic —
    /// single thread, closed queue, so no pop ever parks.
    #[test]
    fn sharded_steal_halves_skewed_backlog_and_drains_in_fewer_rounds() {
        let burst: Vec<u32> = (0..32).collect();
        let per_round = 2;

        // Steal ON: two consumers alternate rounds.
        let q: ShardedQueues<u32> = ShardedQueues::new(2, None);
        q.push_front(0, burst.clone());
        q.close();
        assert_eq!(q.shard_max_depth(0), 32);
        // The idle consumer's first pop steals half of shard 0's backlog.
        let first = match q.pop_batch(1, per_round, true, &NO_URGENCY) {
            Popped::Batch(items) => items,
            Popped::Closed => panic!("shard 0 holds the burst"),
        };
        assert_eq!(first, vec![0, 1], "steals from the head, oldest first");
        assert_eq!(q.steals(), 1);
        let deepest_after_steal = (0..2).map(|i| q.lens[i].load(Ordering::Relaxed)).max();
        assert_eq!(
            deepest_after_steal,
            Some(16),
            "one steal halves the deepest backlog (16 kept, 2 served + 14 adopted)"
        );
        let mut got: Vec<u32> = first;
        let mut steal_rounds = 1usize;
        'outer: loop {
            for w in 0..2 {
                match q.pop_batch(w, per_round, true, &NO_URGENCY) {
                    Popped::Batch(items) => got.extend(items),
                    Popped::Closed => break 'outer,
                }
            }
            steal_rounds += 1;
        }
        got.sort_unstable();
        assert_eq!(got, burst, "every item drained exactly once");

        // Steal OFF: the idle consumer cannot help; only consumer 0
        // drains (calling consumer 1 would park until close-and-empty).
        let q: ShardedQueues<u32> = ShardedQueues::new(2, None);
        q.push_front(0, burst.clone());
        q.close();
        let mut solo_rounds = 0usize;
        let mut got: Vec<u32> = Vec::new();
        while let Popped::Batch(items) = q.pop_batch(0, per_round, false, &NO_URGENCY) {
            got.extend(items);
            solo_rounds += 1;
        }
        assert_eq!(q.steals(), 0, "stealing off never steals");
        assert_eq!(got, burst, "FIFO drain without stealing");
        assert_eq!(solo_rounds, 16);
        assert!(
            steal_rounds * 2 <= solo_rounds + 2,
            "two stealing consumers drain in about half the rounds \
             ({steal_rounds} vs {solo_rounds})"
        );
    }

    #[test]
    fn sharded_steal_prefers_most_urgent_head_over_deepest_backlog() {
        // Urgency = the item's value (an absolute deadline). Shard 1 is
        // deeper, but shard 2's head expires sooner — the thief must take
        // from shard 2.
        let q: ShardedQueues<u32> = ShardedQueues::new(3, None);
        q.push_front(1, vec![50, 51, 52, 53]);
        q.push_front(2, vec![10, 11]);
        q.close();
        let urgency = |v: &u32| Some(u64::from(*v));
        match q.pop_batch(0, 4, true, &urgency) {
            Popped::Batch(items) => assert_eq!(items, vec![10], "half of shard 2's backlog"),
            Popped::Closed => panic!("peers hold items"),
        }
        // With no deadlines anywhere, depth decides: shard 1 is deepest.
        let q: ShardedQueues<u32> = ShardedQueues::new(3, None);
        q.push_front(1, vec![50, 51, 52, 53]);
        q.push_front(2, vec![10, 11]);
        q.close();
        match q.pop_batch(0, 4, true, &NO_URGENCY) {
            Popped::Batch(items) => assert_eq!(items, vec![50, 51], "half of the deepest"),
            Popped::Closed => panic!("peers hold items"),
        }
    }

    #[test]
    fn sharded_concurrent_producers_and_stealing_consumers_drain_exactly_once() {
        let q: Arc<ShardedQueues<u32>> = Arc::new(ShardedQueues::new(4, None));
        let total = 400u32;
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for v in (p * 100)..(p * 100 + 100) {
                        q.try_push(v).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|w| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match q.pop_batch(w, 3, true, &NO_URGENCY) {
                            Popped::Batch(items) => got.extend(items),
                            Popped::Closed => return got,
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut got: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..total).collect::<Vec<_>>());
        assert_eq!(q.len(), 0);
    }
}
