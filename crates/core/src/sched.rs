//! Work-stealing task scheduler for parallel path exploration.
//!
//! Replaces the single shared `Mutex<Vec<Task>>` + `yield_now` spin loop:
//! each worker owns a local deque it pushes and pops LIFO (children of the
//! path it just split stay hot in its simulator's caches), a global injector
//! seeds the root task, and an idle worker first drains the injector, then
//! steals the *oldest* task from a peer (FIFO steal, so thieves take the
//! shallowest — and typically largest — remaining subtree). Workers with no
//! work park on a condvar instead of spinning.
//!
//! Termination detection uses a claim counter: [`WorkQueue::next_task`]
//! counts a claim while a task is in flight and [`WorkQueue::task_done`]
//! releases it. A worker that finds every queue empty *and* no claims
//! outstanding knows no task can ever appear again (tasks are only produced
//! by in-flight tasks), wakes every parked peer, and returns `None`.
//! Producers notify under the same lock the sleepers wait on, so a push can
//! never slip between a worker's last empty check and its park.
//!
//! A worker holds each claim through a [`Claim`] guard. If the worker
//! panics, the guard's drop marks the queue failed and wakes every parked
//! peer; from then on [`WorkQueue::next_task`] returns `None`, so the
//! workers exit and `thread::scope` re-raises the panic instead of hanging.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use symsim_obs::{CounterId, GaugeId, MetricsRegistry};

/// How many *paths* a work item represents, for gauge accounting.
///
/// The `paths_queued`/`paths_live` gauges promise path counts, not work-item
/// counts, so heartbeats stay comparable across eval modes. A scalar segment
/// weighs 1; a cohort work item carrying `n` member paths weighs `n`. The
/// scheduler itself is weight-agnostic — claims and termination detection
/// still count work items — only the gauges scale.
pub trait TaskWeight {
    /// Number of member paths this work item represents (default 1).
    fn weight(&self) -> usize {
        1
    }
}

/// A fixed-worker work-stealing queue of tasks of type `T`.
#[derive(Debug)]
pub struct WorkQueue<T> {
    /// Global FIFO for work produced outside any worker (the root task).
    injector: Mutex<VecDeque<T>>,
    /// Per-worker deques: owner pops LIFO at the back, thieves FIFO at the
    /// front.
    locals: Box<[Mutex<VecDeque<T>>]>,
    /// Tasks currently claimed by workers (popped but not yet `task_done`).
    active: AtomicUsize,
    /// Set when a worker unwound while holding a [`Claim`].
    failed: AtomicBool,
    /// Lock both producers (to notify) and idle consumers (to wait) take;
    /// holding it while re-checking emptiness closes the lost-wakeup race.
    gate: Mutex<()>,
    cv: Condvar,
    steals: AtomicU64,
    parks: AtomicU64,
    /// When present, the queue maintains the `paths_queued`/`paths_live`
    /// gauges and mirrors steal/park counts (heartbeat visibility).
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<T> WorkQueue<T> {
    /// Creates a queue for `workers` workers (at least one).
    pub fn new(workers: usize) -> WorkQueue<T> {
        assert!(workers >= 1, "need at least one worker");
        WorkQueue {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            active: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            gate: Mutex::new(()),
            cv: Condvar::new(),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// [`WorkQueue::new`] plus live gauge/counter maintenance in
    /// `registry`: queue depth and in-flight tasks as up/down gauges,
    /// steals and parks as counters, each update on the acting worker's
    /// shard.
    pub fn with_metrics(workers: usize, registry: Arc<MetricsRegistry>) -> WorkQueue<T> {
        WorkQueue {
            metrics: Some(registry),
            ..WorkQueue::new(workers)
        }
    }

    /// Number of workers this queue was built for.
    pub fn workers(&self) -> usize {
        self.locals.len()
    }

    /// Number of tasks taken from a peer's deque rather than the worker's
    /// own or the injector.
    pub fn steal_count(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Number of times a worker parked on the condvar.
    pub fn park_count(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    fn notify(&self, all: bool) {
        // the gate guards no data, so a poisoned lock is still usable; this
        // also runs in `Claim::drop` during an unwind, where a panic aborts
        let _g = self
            .gate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if all {
            self.cv.notify_all();
        } else {
            self.cv.notify_one();
        }
    }
}

impl<T: TaskWeight> WorkQueue<T> {
    /// Pushes a task from outside any worker (used to seed the root task).
    pub fn inject(&self, task: T) {
        let w = task.weight() as i64;
        self.injector.lock().unwrap().push_back(task);
        if let Some(m) = &self.metrics {
            m.shard(0).gauge_add(GaugeId::PathsQueued, w);
        }
        self.notify(false);
    }

    /// Pushes tasks onto `worker`'s own deque and wakes idle peers.
    pub fn push_local(&self, worker: usize, tasks: impl IntoIterator<Item = T>) {
        let mut pushed = 0usize;
        let mut weight = 0i64;
        {
            let mut q = self.locals[worker].lock().unwrap();
            for t in tasks {
                weight += t.weight() as i64;
                q.push_back(t);
                pushed += 1;
            }
        }
        if pushed > 0 {
            if let Some(m) = &self.metrics {
                m.shard(worker).gauge_add(GaugeId::PathsQueued, weight);
            }
            self.notify(pushed > 1);
        }
    }

    /// Blocks until a task is available (claiming it) or exploration is
    /// over — every queue empty with no task in flight, or a worker
    /// panicked holding a claim — in which case it returns `None` and the
    /// worker should exit.
    ///
    /// Every `Some` return must be paired with a [`WorkQueue::task_done`]
    /// call once the task (including any children it pushes) is finished,
    /// best made by dropping the [`WorkQueue::hold`] guard.
    pub fn next_task(&self, worker: usize) -> Option<T> {
        loop {
            if self.failed.load(Ordering::SeqCst) {
                return None;
            }
            // claim *before* popping so a concurrent worker never observes
            // "queues empty and nothing active" while we hold the last task
            self.active.fetch_add(1, Ordering::SeqCst);
            if let Some(t) = self.try_pop(worker) {
                self.note_claimed(worker, t.weight());
                return Some(t);
            }
            self.active.fetch_sub(1, Ordering::SeqCst);

            let g = self.gate.lock().unwrap();
            // a failing holder notifies under the gate, after setting the
            // flag: checking it here, gate held, cannot miss the wakeup
            if self.failed.load(Ordering::SeqCst) {
                return None;
            }
            // re-check with the gate held: producers notify under this lock
            // (between their push and their task_done), so any push we miss
            // here still counts as an active claim and forces another pass
            self.active.fetch_add(1, Ordering::SeqCst);
            if let Some(t) = self.try_pop(worker) {
                self.note_claimed(worker, t.weight());
                return Some(t);
            }
            if self.active.fetch_sub(1, Ordering::SeqCst) == 1 {
                // no queued work, no task in flight: nothing can appear
                self.cv.notify_all();
                return None;
            }
            self.parks.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.metrics {
                m.shard(worker).inc(CounterId::SchedParks);
            }
            let _g = self.cv.wait(g).unwrap();
        }
    }

    /// A task moved from a queue into a worker's hands: its member paths
    /// leave `paths_queued` and enter `paths_live`.
    fn note_claimed(&self, worker: usize, weight: usize) {
        if let Some(m) = &self.metrics {
            let shard = m.shard(worker);
            shard.gauge_add(GaugeId::PathsQueued, -(weight as i64));
            shard.gauge_add(GaugeId::PathsLive, weight as i64);
        }
    }

    /// Releases the claim taken by [`WorkQueue::next_task`]; wakes all
    /// parked workers when this was the last in-flight task so they can
    /// observe termination. `weight` must be the finished task's
    /// [`TaskWeight::weight`] so `paths_live` nets back out what
    /// `next_task` added (a cohort's continuation tasks count separately —
    /// they were pushed with their own weights).
    pub fn task_done(&self, weight: usize) {
        if let Some(m) = &self.metrics {
            m.shard(0).gauge_add(GaugeId::PathsLive, -(weight as i64));
        }
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.notify(true);
        }
    }

    /// Guards the claim on a task of `weight` just returned by
    /// [`WorkQueue::next_task`]: dropping the guard is `task_done(weight)`.
    pub fn hold(&self, weight: usize) -> Claim<'_, T> {
        Claim {
            queue: self,
            weight,
        }
    }

    fn try_pop(&self, worker: usize) -> Option<T> {
        if let Some(t) = self.locals[worker].lock().unwrap().pop_back() {
            return Some(t);
        }
        if let Some(t) = self.injector.lock().unwrap().pop_front() {
            return Some(t);
        }
        let n = self.locals.len();
        for off in 1..n {
            let victim = (worker + off) % n;
            if let Some(t) = self.locals[victim].lock().unwrap().pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.shard(worker).inc(CounterId::SchedSteals);
                }
                return Some(t);
            }
        }
        None
    }
}

/// A worker's claim on one task (see [`WorkQueue::hold`]). Dropping it
/// releases the claim; dropping it while the worker unwinds also fails the
/// queue and wakes every parked worker, so no peer waits forever on a
/// claim that will never be released normally.
#[must_use = "dropping the guard releases the claim"]
pub struct Claim<'q, T: TaskWeight> {
    queue: &'q WorkQueue<T>,
    weight: usize,
}

impl<T: TaskWeight> Drop for Claim<'_, T> {
    fn drop(&mut self) {
        let failing = std::thread::panicking();
        if failing {
            self.queue.failed.store(true, Ordering::SeqCst);
        }
        self.queue.task_done(self.weight);
        if failing {
            self.queue.notify(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    impl TaskWeight for u32 {}

    #[test]
    fn single_worker_drains_in_lifo_order() {
        let q: WorkQueue<u32> = WorkQueue::new(1);
        q.inject(0);
        let root = q.next_task(0).unwrap();
        assert_eq!(root, 0);
        q.push_local(0, [1, 2, 3]);
        q.task_done(1);
        assert_eq!(q.next_task(0), Some(3), "owner pops its deque LIFO");
        q.task_done(1);
        assert_eq!(q.next_task(0), Some(2));
        q.task_done(1);
        assert_eq!(q.next_task(0), Some(1));
        q.task_done(1);
        assert_eq!(q.next_task(0), None, "drained queue terminates");
    }

    #[test]
    fn thieves_steal_the_oldest_task() {
        let q: WorkQueue<u32> = WorkQueue::new(2);
        q.inject(0);
        let _root = q.next_task(0).unwrap();
        q.push_local(0, [1, 2, 3]);
        assert_eq!(q.next_task(1), Some(1), "thief takes the FIFO end");
        assert_eq!(q.steal_count(), 1);
        q.task_done(1);
        q.task_done(1);
        assert_eq!(q.next_task(0), Some(3));
        q.task_done(1);
        assert_eq!(q.next_task(1), Some(2));
        q.task_done(1);
        assert_eq!(q.next_task(0), None);
        assert_eq!(q.next_task(1), None);
    }

    /// A synthetic exploration: every task below a depth limit spawns two
    /// children; all workers must between them process exactly the full
    /// binary tree and then terminate without deadlock.
    #[test]
    fn parallel_tree_processes_every_task_and_terminates() {
        const DEPTH: u32 = 10;
        const WORKERS: usize = 4;
        let q: WorkQueue<u32> = WorkQueue::new(WORKERS);
        let processed = AtomicUsize::new(0);
        q.inject(0);
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let q = &q;
                let processed = &processed;
                scope.spawn(move || {
                    while let Some(depth) = q.next_task(w) {
                        processed.fetch_add(1, Ordering::Relaxed);
                        if depth + 1 < DEPTH {
                            q.push_local(w, [depth + 1, depth + 1]);
                        }
                        q.task_done(1);
                    }
                });
            }
        });
        assert_eq!(
            processed.load(Ordering::Relaxed),
            (1usize << DEPTH) - 1,
            "every node of the depth-{DEPTH} binary tree ran exactly once"
        );
    }

    #[test]
    fn metrics_gauges_settle_to_zero_and_mirror_steals() {
        let registry = Arc::new(MetricsRegistry::new(2));
        let q: WorkQueue<u32> = WorkQueue::with_metrics(2, Arc::clone(&registry));
        q.inject(0);
        assert_eq!(registry.gauge_total(GaugeId::PathsQueued), 1);
        let _root = q.next_task(0).unwrap();
        assert_eq!(registry.gauge_total(GaugeId::PathsQueued), 0);
        assert_eq!(registry.gauge_total(GaugeId::PathsLive), 1);
        q.push_local(0, [1, 2, 3]);
        assert_eq!(registry.gauge_total(GaugeId::PathsQueued), 3);
        assert_eq!(q.next_task(1), Some(1), "thief takes the FIFO end");
        assert_eq!(registry.counter_total(CounterId::SchedSteals), 1);
        q.task_done(1);
        q.task_done(1);
        assert_eq!(q.next_task(0), Some(3));
        q.task_done(1);
        assert_eq!(q.next_task(1), Some(2));
        q.task_done(1);
        assert_eq!(q.next_task(0), None);
        assert_eq!(q.next_task(1), None);
        assert_eq!(registry.gauge_total(GaugeId::PathsQueued), 0);
        assert_eq!(registry.gauge_total(GaugeId::PathsLive), 0);
    }

    /// A work item carrying several member paths (a cohort).
    #[derive(Debug, PartialEq)]
    struct Weighted(usize);

    impl TaskWeight for Weighted {
        fn weight(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn gauges_count_member_paths_not_work_items() {
        let registry = Arc::new(MetricsRegistry::new(1));
        let q: WorkQueue<Weighted> = WorkQueue::with_metrics(1, Arc::clone(&registry));
        q.inject(Weighted(1));
        assert_eq!(registry.gauge_total(GaugeId::PathsQueued), 1);
        let root = q.next_task(0).unwrap();
        assert_eq!(registry.gauge_total(GaugeId::PathsLive), 1);
        // the root forks 8 children packed into one 5-lane cohort plus 3
        // scalar segments: queued must read 8 paths, not 4 work items
        q.push_local(0, [Weighted(5), Weighted(1), Weighted(1), Weighted(1)]);
        assert_eq!(registry.gauge_total(GaugeId::PathsQueued), 8);
        q.task_done(root.weight());
        assert_eq!(registry.gauge_total(GaugeId::PathsLive), 0);
        let cohort = q.next_task(0).unwrap();
        assert_eq!(cohort, Weighted(1), "owner pops LIFO");
        q.task_done(cohort.weight());
        let t = q.next_task(0).unwrap();
        q.task_done(t.weight());
        let t = q.next_task(0).unwrap();
        q.task_done(t.weight());
        let cohort = q.next_task(0).unwrap();
        assert_eq!(cohort, Weighted(5));
        assert_eq!(registry.gauge_total(GaugeId::PathsQueued), 0);
        assert_eq!(
            registry.gauge_total(GaugeId::PathsLive),
            5,
            "a claimed cohort holds all member paths live"
        );
        q.task_done(cohort.weight());
        assert_eq!(q.next_task(0), None);
        assert_eq!(registry.gauge_total(GaugeId::PathsQueued), 0);
        assert_eq!(registry.gauge_total(GaugeId::PathsLive), 0);
    }

    #[test]
    fn idle_workers_park_rather_than_spin() {
        let q: WorkQueue<u32> = WorkQueue::new(2);
        q.inject(0);
        std::thread::scope(|scope| {
            for w in 0..2 {
                let q = &q;
                scope.spawn(move || {
                    while let Some(t) = q.next_task(w) {
                        if t == 0 {
                            // hold the only task long enough that the other
                            // worker must park instead of busy-waiting
                            std::thread::sleep(std::time::Duration::from_millis(20));
                        }
                        q.task_done(1);
                    }
                });
            }
        });
        assert!(q.park_count() >= 1, "the idle worker parked");
    }

    #[test]
    fn a_panicking_worker_releases_its_parked_peer() {
        use std::sync::mpsc;
        use std::time::Duration;

        let q: Arc<WorkQueue<u32>> = Arc::new(WorkQueue::new(2));
        q.inject(0);
        let (claimed_tx, claimed_rx) = mpsc::channel();
        let holder = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let t = q.next_task(0).expect("the only task");
                let _claim = q.hold(t.weight());
                claimed_tx.send(()).unwrap();
                // panic only once the peer has found every queue empty and
                // parked (it counts the park before it waits, gate held)
                while q.park_count() == 0 {
                    std::thread::yield_now();
                }
                panic!("worker panics while holding a task");
            })
        };
        claimed_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let peer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || done_tx.send(q.next_task(1)).unwrap())
        };
        let got = done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the peer returns from next_task");
        assert_eq!(got, None, "a failed queue hands out no more work");
        assert!(holder.join().is_err(), "the holder's panic propagates");
        peer.join().unwrap();
    }
}
