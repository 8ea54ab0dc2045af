//! The scoped worker pool.
//!
//! [`Executor::map`] evaluates a batch of items through a closure, either
//! in the calling thread (sequential) or on a pool of scoped workers that
//! pull items from a shared atomic counter (work stealing at item
//! granularity). Results always come back **in input order**, and every
//! item is evaluated exactly once, so the output is independent of how
//! items were interleaved across threads — the property the search
//! determinism test pins down.
//!
//! [`Executor::map_settle`] is the fault-isolating variant: each item's
//! closure runs under `catch_unwind`, so a panicking item becomes an
//! `Err(`[`TaskFault`]`)` in its slot instead of killing the batch (and
//! with it the whole search run).
//!
//! [`Executor::map_memo`] and [`Executor::map_settle_memo`] first ask a
//! memo for every item in the calling thread and dispatch only the items
//! it cannot answer, so a batch the memo answers spawns no thread.

use std::error::Error;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// One item of a [`Executor::map_settle`] batch panicked — or, for
/// batches driven through [`crate::watchdog::Watchdog`], exceeded its
/// deterministic deadline.
///
/// Carries the item's input index and the panic payload rendered to a
/// string (the common `&str`/`String` payloads verbatim, anything else as
/// an opaque placeholder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFault {
    index: usize,
    message: String,
    timeout: bool,
}

impl TaskFault {
    fn from_payload(index: usize, payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        TaskFault {
            index,
            message,
            timeout: false,
        }
    }

    /// A fault recording that the item exceeded its watchdog deadline of
    /// `budget_ticks` deterministic ticks (see
    /// [`crate::watchdog::Watchdog`]). Deadline faults are *transient* by
    /// nature — the task was cut off, not proven wrong — and callers may
    /// branch on [`TaskFault::is_timeout`] to retry or reschedule.
    pub fn timed_out(index: usize, budget_ticks: u64) -> Self {
        TaskFault {
            index,
            message: format!("exceeded its deadline of {budget_ticks} ticks"),
            timeout: true,
        }
    }

    /// The input index of the item whose closure panicked or timed out.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The panic or deadline message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// `true` when this fault is a watchdog deadline expiry rather than a
    /// panic.
    pub fn is_timeout(&self) -> bool {
        self.timeout
    }
}

impl fmt::Display for TaskFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verb = if self.timeout {
            "timed out"
        } else {
            "panicked"
        };
        write!(f, "task {} {verb}: {}", self.index, self.message)
    }
}

impl Error for TaskFault {}

/// A batch evaluator with a fixed worker count.
///
/// # Examples
///
/// ```
/// use fnas_exec::Executor;
///
/// let items: Vec<u64> = (0..100).collect();
/// let seq = Executor::sequential().map(&items, |_, &x| x * x);
/// let par = Executor::with_workers(4).map(&items, |_, &x| x * x);
/// assert_eq!(seq, par);
/// assert_eq!(seq[7], 49);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// An executor that evaluates in the calling thread, no pool.
    pub fn sequential() -> Self {
        Executor { workers: 0 }
    }

    /// An executor with `workers` pool threads (`0` means sequential).
    pub fn with_workers(workers: usize) -> Self {
        Executor { workers }
    }

    /// An executor sized to the machine: one worker per available core
    /// **minus one**, reserving a core for the controller thread that
    /// samples children and applies REINFORCE updates (on a single-core
    /// machine the one core is shared). Falls back to sequential when
    /// parallelism is unavailable.
    pub fn auto() -> Self {
        let workers =
            thread::available_parallelism().map_or(0, |n| n.get().saturating_sub(1).max(1));
        Executor { workers }
    }

    /// The configured worker count (`0` = sequential).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// `true` when [`Executor::map`] spawns no threads.
    pub fn is_sequential(&self) -> bool {
        self.workers == 0
    }

    /// Evaluates `f(index, &items[index])` for every item and returns the
    /// results in input order.
    ///
    /// With workers, items are claimed from a shared atomic cursor so load
    /// imbalance (e.g. pruned children finishing early) does not idle the
    /// pool. A panic in `f` is propagated to the caller after the scope
    /// joins.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let pool = self.workers.min(items.len());
        if pool <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }

        let cursor = AtomicUsize::new(0);
        let worker = |_: usize| {
            let mut out: Vec<(usize, R)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                out.push((i, f(i, &items[i])));
            }
            out
        };

        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        thread::scope(|s| {
            let handles: Vec<_> = (0..pool).map(|w| s.spawn(move || worker(w))).collect();
            for handle in handles {
                match handle.join() {
                    Ok(chunk) => {
                        for (i, r) in chunk {
                            debug_assert!(slots[i].is_none(), "item {i} evaluated twice");
                            slots[i] = Some(r);
                        }
                    }
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every item claimed exactly once"))
            .collect()
    }

    /// Like [`Executor::map`], but isolates panics: each item's closure
    /// runs under `catch_unwind`, and a panicking item settles to
    /// `Err(`[`TaskFault`]`)` in its input-order slot while every other
    /// item still evaluates exactly once. Use this when one poisoned item
    /// must not abort the batch (the fault-tolerant search loop); keep
    /// [`Executor::map`] for fail-fast callers.
    ///
    /// The closure is wrapped in `AssertUnwindSafe`: callers must audit
    /// that the captured state stays coherent across an unwind (the search
    /// engine's closures only read shared state and never hold a lock
    /// while calling user code, so a mid-evaluation panic cannot leave
    /// them inconsistent).
    pub fn map_settle<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, TaskFault>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_settle_memo(items, |_, _| None, f)
    }

    /// Like [`Executor::map`], but first asks `memo` for every item, in the
    /// calling thread and in input order, and sends only the items it
    /// cannot answer to the pool. `f` still receives each item's index in
    /// `items`, and results come back in input order.
    ///
    /// Spawning workers costs far more than a memo lookup, and a batch of
    /// one runs inline, so a batch with at most one miss spawns nothing.
    pub fn map_memo<T, R, M, F>(&self, items: &[T], mut memo: M, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        M: FnMut(usize, &T) -> Option<R>,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = items.iter().enumerate().map(|(i, t)| memo(i, t)).collect();
        let misses: Vec<usize> = (0..items.len()).filter(|&i| slots[i].is_none()).collect();
        let computed = self.map(&misses, |_, &i| f(i, &items[i]));
        for (i, r) in misses.into_iter().zip(computed) {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|r| r.expect("every miss was computed"))
            .collect()
    }

    /// [`Executor::map_settle`] with [`Executor::map_memo`]'s memo-first
    /// dispatch: a panicking miss settles to a [`TaskFault`] that names
    /// its index in `items`.
    pub fn map_settle_memo<T, R, M, F>(
        &self,
        items: &[T],
        mut memo: M,
        f: F,
    ) -> Vec<Result<R, TaskFault>>
    where
        T: Sync,
        R: Send,
        M: FnMut(usize, &T) -> Option<R>,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_memo(
            items,
            |i, t| memo(i, t).map(Ok),
            |i, t| {
                panic::catch_unwind(AssertUnwindSafe(|| f(i, t)))
                    .map_err(|payload| TaskFault::from_payload(i, payload))
            },
        )
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xA5).collect();
        for workers in [0, 1, 2, 3, 8, 32] {
            let got = Executor::with_workers(workers).map(&items, |_, &x| x.wrapping_mul(x) ^ 0xA5);
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn indices_match_items() {
        let items = vec!["a", "b", "c", "d"];
        let got = Executor::with_workers(2).map(&items, |i, &s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn every_item_evaluated_exactly_once() {
        let items: Vec<usize> = (0..1000).collect();
        let calls = AtomicU64::new(0);
        let out = Executor::with_workers(8).map(&items, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn empty_batch_is_fine() {
        let items: Vec<u32> = Vec::new();
        assert!(Executor::with_workers(4).map(&items, |_, &x| x).is_empty());
        assert!(Executor::sequential().map(&items, |_, &x| x).is_empty());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let items = vec![1, 2, 3];
        let got = Executor::with_workers(64).map(&items, |_, &x| x * 10);
        assert_eq!(got, vec![10, 20, 30]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Early items sleep, late items return instantly: result order must
        // still match input order.
        let items: Vec<u64> = (0..16).collect();
        let got = Executor::with_workers(4).map(&items, |_, &x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(got, items);
    }

    #[test]
    fn worker_panic_propagates() {
        let items = vec![0, 1, 2, 3];
        let result = std::panic::catch_unwind(|| {
            Executor::with_workers(2).map(&items, |_, &x| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn accessors() {
        assert!(Executor::sequential().is_sequential());
        assert_eq!(Executor::with_workers(5).workers(), 5);
        assert!(!Executor::with_workers(5).is_sequential());
        // auto() never panics and reports its configuration faithfully.
        let auto = Executor::auto();
        assert_eq!(auto.is_sequential(), auto.workers() == 0);
        // auto() reserves one core for the controller thread (but never
        // drops below one worker when parallelism is available).
        if let Ok(n) = std::thread::available_parallelism() {
            assert_eq!(auto.workers(), n.get().saturating_sub(1).max(1));
            assert!(auto.workers() >= 1);
        }
    }

    #[test]
    fn map_settle_matches_map_without_panics() {
        let items: Vec<u64> = (0..64).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        for workers in [0usize, 1, 4] {
            let got: Vec<u64> = Executor::with_workers(workers)
                .map_settle(&items, |_, &x| x * 3)
                .into_iter()
                .map(|r| r.expect("no panics"))
                .collect();
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn map_settle_isolates_panics_to_their_slot() {
        let items: Vec<u64> = (0..16).collect();
        for workers in [0usize, 2, 8] {
            let got = Executor::with_workers(workers).map_settle(&items, |_, &x| {
                assert!(x % 5 != 3, "boom on {x}");
                x + 100
            });
            assert_eq!(got.len(), items.len(), "workers = {workers}");
            for (i, r) in got.iter().enumerate() {
                if i % 5 == 3 {
                    let fault = r.as_ref().expect_err("item should have panicked");
                    assert_eq!(fault.index(), i);
                    assert!(fault.message().contains("boom"), "{fault}");
                } else {
                    assert_eq!(*r.as_ref().expect("item should settle"), i as u64 + 100);
                }
            }
        }
    }

    #[test]
    fn map_memo_dispatches_only_the_misses() {
        let items: Vec<u64> = (0..40).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 7).collect();
        for workers in [0usize, 1, 2, 8] {
            let calls = AtomicU64::new(0);
            let mut asked = Vec::new();
            let got = Executor::with_workers(workers).map_memo(
                &items,
                |i, &x| {
                    asked.push(i);
                    (x % 3 != 0).then_some(x * 7)
                },
                |i, &x| {
                    assert_eq!(i as u64, x, "f sees the item's index in the batch");
                    assert_eq!(x % 3, 0, "memo hits are never dispatched");
                    calls.fetch_add(1, Ordering::Relaxed);
                    x * 7
                },
            );
            assert_eq!(got, expect, "workers = {workers}");
            assert_eq!(asked, (0..40).collect::<Vec<_>>(), "memo asked in order");
            assert_eq!(calls.load(Ordering::Relaxed), 14, "workers = {workers}");
        }
    }

    #[test]
    fn map_settle_memo_faults_name_the_batch_index() {
        let items: Vec<u64> = (0..12).collect();
        for workers in [0usize, 2] {
            let got = Executor::with_workers(workers).map_settle_memo(
                &items,
                |_, &x| (x < 8).then_some(x),
                |_, &x| {
                    assert!(x != 10, "boom");
                    x
                },
            );
            for (i, r) in got.iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(*v, i as u64),
                    Err(fault) => assert_eq!((i, fault.index()), (10, 10)),
                }
            }
            assert!(got[10].is_err(), "workers = {workers}");
        }
    }

    #[test]
    fn map_settle_renders_string_payloads() {
        let items = vec![0u8];
        let got = Executor::sequential().map_settle(&items, |_, _| -> u8 {
            panic!("formatted {}", 42);
        });
        let fault = got[0].as_ref().unwrap_err();
        assert_eq!(fault.message(), "formatted 42");
        assert!(fault.to_string().contains("task 0 panicked"));
        assert!(fault.source().is_none());
    }
}
