//! A std-only worker pool for the value-flow phase.
//!
//! The value-flow analysis fans its per-object store × access loops out
//! through this module: a fixed set of scoped worker threads draining a
//! mutex-sharded work-stealing deque of task indices. Tasks are
//! distributed round-robin across per-worker shards; a worker that
//! exhausts its own shard steals from the back of its neighbours', so
//! skewed task costs (one hot shared object) still balance. The sparse
//! solve does not use the pool: its level-ordered schedule is sequential.
//!
//! Design constraints, in order:
//!
//! * **Determinism** — results are returned in task order, and nothing
//!   about *which* worker ran a task may leak into them.
//! * **No hangs on panic** — workers never block on each other: the deque
//!   is drained until globally empty, with no barrier or condvar inside a
//!   worker. A panicking task takes its worker down; the remaining workers
//!   finish the queue, and the panic is resumed on the calling thread.
//! * **`threads == 1` is exactly the sequential path** — no thread is
//!   spawned, no mutex is taken; tasks run inline on the caller in order.
//!
//! The pool width comes from [`thread_count`]: the `FSAM_THREADS`
//! environment variable when set, otherwise
//! [`std::thread::available_parallelism`]. The pipeline exposes the same
//! knob programmatically as [`Pipeline::with_threads`](crate::Pipeline::with_threads),
//! which overrides the environment.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;

/// What a pool run observed about itself: the worker count actually
/// spawned and the number of successful steals (tasks a worker took from
/// another worker's shard). Exported as the `par.workers` / `par.steals`
/// trace counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers that participated (1 for the inline sequential path).
    pub workers: usize,
    /// Tasks taken from a foreign shard.
    pub steals: u64,
}

/// The configured pool width: `FSAM_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism (1 when that is
/// unknown).
pub fn thread_count() -> usize {
    match std::env::var("FSAM_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` over every task on a pool of `threads` workers, returning the
/// results in task order.
///
/// `f` receives `(worker_index, task_index, &task)`. With `threads <= 1`
/// (or at most one task) everything runs inline on the calling thread —
/// the exact sequential code path, no spawn, no locking.
///
/// # Panics
///
/// Panics if a task panics: the worker unwinds, the remaining workers
/// drain the queue, and the first panic payload is resumed here. The pool
/// never deadlocks on a panicking task — no worker ever waits on another.
pub fn run_tasks<T, R, F>(threads: usize, tasks: &[T], f: F) -> (Vec<R>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &T) -> R + Sync,
{
    if threads <= 1 || tasks.len() <= 1 {
        // The sequential path: inline, in order, on the calling thread.
        let results = tasks.iter().enumerate().map(|(i, t)| f(0, i, t)).collect();
        return (
            results,
            PoolStats {
                workers: 1,
                steals: 0,
            },
        );
    }

    let workers = threads.min(tasks.len());
    // Round-robin task distribution over per-worker shards: contiguous
    // runs of expensive tasks spread across workers up front, and
    // stealing corrects whatever imbalance remains.
    let shards: Vec<Mutex<VecDeque<u32>>> = (0..workers)
        .map(|w| {
            Mutex::new(
                (0..tasks.len() as u32)
                    .filter(|i| *i as usize % workers == w)
                    .collect(),
            )
        })
        .collect();
    let steals = AtomicU64::new(0);
    // One slot per task. `Mutex<Option<R>>` rather than `OnceLock<R>` so
    // `R` only needs `Send`; each slot is written exactly once (its task
    // runs on one worker), so the locks never contend.
    let slots: Vec<Mutex<Option<R>>> = tasks.iter().map(|_| Mutex::new(None)).collect();

    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let shards = &shards;
                let steals = &steals;
                let slots = &slots;
                let f = &f;
                s.spawn(move || loop {
                    // Own shard first (front: preserve distribution order),
                    // then steal from the back of the others.
                    let mut job = shards[w].lock().expect("shard poisoned").pop_front();
                    if job.is_none() {
                        for off in 1..workers {
                            let victim = (w + off) % workers;
                            job = shards[victim].lock().expect("shard poisoned").pop_back();
                            if job.is_some() {
                                steals.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    let Some(i) = job else { break };
                    let r = f(w, i as usize, &tasks[i as usize]);
                    *slots[i as usize].lock().expect("slot poisoned") = Some(r);
                })
            })
            .collect();
        // Join explicitly so the first worker panic is resumed as-is
        // (scope would otherwise panic with a generic message). Joining in
        // order cannot hang: workers only drain the deque — none of them
        // waits on a peer.
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            if let Err(p) = h.join() {
                panic = panic.or(Some(p));
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    });

    let results = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("every task ran")
        })
        .collect();
    (
        results,
        PoolStats {
            workers,
            steals: steals.load(Ordering::Relaxed),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_task_list_drains_immediately() {
        let tasks: Vec<u32> = Vec::new();
        let (results, stats) = run_tasks(8, &tasks, |_, _, &t| t * 2);
        assert!(results.is_empty());
        assert_eq!(stats.workers, 1, "nothing to do: no workers spawned");
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 3, 8] {
            let (results, stats) = run_tasks(threads, &tasks, |_, i, &t| {
                assert_eq!(i, t);
                t * t
            });
            assert_eq!(results, (0..257).map(|t| t * t).collect::<Vec<_>>());
            assert!(stats.workers <= threads);
        }
    }

    #[test]
    fn single_thread_runs_inline_on_the_caller() {
        let caller = thread::current().id();
        let tasks = vec![1u32, 2, 3];
        let order = Mutex::new(Vec::new());
        let (results, stats) = run_tasks(1, &tasks, |w, i, &t| {
            assert_eq!(w, 0);
            assert_eq!(
                thread::current().id(),
                caller,
                "threads=1 must not spawn a worker"
            );
            order.lock().unwrap().push(i);
            t + 10
        });
        assert_eq!(results, vec![11, 12, 13]);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2], "strictly in order");
        assert_eq!(
            stats,
            PoolStats {
                workers: 1,
                steals: 0
            }
        );
    }

    /// `FSAM_THREADS=1` must select the inline path through
    /// [`thread_count`]; bad values fall back to the machine default.
    /// (Environment mutation is process-global, so one test owns the
    /// variable end to end.)
    #[test]
    fn thread_count_honours_env_and_rejects_garbage() {
        // Restore whatever the harness had — tests must not leak config.
        let saved = std::env::var("FSAM_THREADS").ok();
        std::env::set_var("FSAM_THREADS", "1");
        assert_eq!(thread_count(), 1);
        std::env::set_var("FSAM_THREADS", "7");
        assert_eq!(thread_count(), 7);
        std::env::set_var("FSAM_THREADS", "zero");
        assert_eq!(thread_count(), default_threads());
        std::env::set_var("FSAM_THREADS", "0");
        assert_eq!(thread_count(), default_threads());
        match saved {
            Some(v) => std::env::set_var("FSAM_THREADS", v),
            None => std::env::remove_var("FSAM_THREADS"),
        }
    }

    /// Work stealing under a skewed distribution: worker 0 sits in a slow
    /// task while the rest of its shard is stolen and finished by others.
    #[test]
    fn skewed_shards_are_rebalanced_by_stealing() {
        let workers = 4usize;
        // Round-robin assigns tasks 0, 4, 8, ... to worker 0's shard.
        // Task 0 is slow; its shard-mates must be stolen meanwhile.
        let tasks: Vec<usize> = (0..64).collect();
        let ran_by = Mutex::new(vec![usize::MAX; tasks.len()]);
        let (results, stats) = run_tasks(workers, &tasks, |w, i, &t| {
            if i == 0 {
                thread::sleep(std::time::Duration::from_millis(60));
            }
            ran_by.lock().unwrap()[i] = w;
            t
        });
        assert_eq!(results, tasks);
        let ran_by = ran_by.into_inner().unwrap();
        let own_shard_elsewhere = (0..64)
            .filter(|i| i % workers == 0 && ran_by[*i] != 0)
            .count();
        assert!(
            stats.steals as usize >= own_shard_elsewhere,
            "every foreign-run task was stolen: {} stolen, {} foreign-run",
            stats.steals,
            own_shard_elsewhere
        );
        assert!(
            own_shard_elsewhere > 0,
            "worker 0's shard should have been raided while it slept: {ran_by:?}"
        );
    }

    /// A panicking task propagates to the caller — and the pool does not
    /// hang waiting for anything.
    #[test]
    fn worker_panic_propagates_without_hanging() {
        let tasks: Vec<usize> = (0..32).collect();
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_tasks(4, &tasks, |_, _, &t| {
                if t == 5 {
                    panic!("task 5 exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                t
            })
        }));
        let err = result.expect_err("the task panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| err.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(msg.contains("task 5 exploded"), "payload preserved: {msg}");
        // The surviving workers drained the rest of the queue.
        assert!(completed.load(Ordering::Relaxed) >= tasks.len() - 1 - 3);
    }
}
