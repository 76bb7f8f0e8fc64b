//! The deterministic worker pool behind `--jobs N`.
//!
//! Campaign parallelism is *scatter/gather*: tasks are pure functions of
//! their index (every unit carries its own seeded RNG streams, so no
//! task observes another's side effects), workers pull indices from a
//! shared atomic counter, and results land in their task's slot. The
//! gather side therefore sees results in canonical task order no matter
//! which worker finished first — scheduling can change *when* a task
//! runs, never *what* it computes or where its output ends up.

use clasp_obs::MetricsRegistry;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `task(0..n)` across `jobs` worker threads and returns the
/// results in task-index order.
///
/// `jobs <= 1` (or a single task) runs inline on the caller's thread
/// with no pool at all, so `--jobs 1` pays no threading cost. Worker
/// threads are scoped, so `task` may borrow from the caller's stack.
///
/// # Panics
/// A panicking task propagates to the caller once the scope joins,
/// re-raised as `"scatter task <i> panicked: <message>"` for the
/// *lowest* panicking task index — the index a serial run would have
/// hit first — regardless of which worker observed its panic first.
pub fn scatter<R, F>(jobs: usize, n: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    scatter_with(jobs, n, || (), |(), i| task(i))
}

/// What the pool records about a panicking task: its index and the
/// panic message (downcast from the payload when it was a string).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`scatter`] with per-worker scratch state: every worker calls `init`
/// once on its own thread and hands the value to each task it runs.
///
/// This exists for memoization caches (the campaign's route-resolution
/// session) that are expensive to rebuild per task but must never be
/// shared across threads. Tasks therefore MUST stay pure with respect
/// to the context — reusing a warm context may only skip recomputation,
/// never change a result — or determinism is lost to scheduling.
pub fn scatter_with<C, R, I, F>(jobs: usize, n: usize, init: I, task: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize) -> R + Sync,
{
    if jobs <= 1 || n <= 1 {
        let mut ctx = init();
        return (0..n).map(|i| task(&mut ctx, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let failed: Mutex<Option<(usize, String)>> = Mutex::new(None);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|| {
                let mut ctx = init();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match std::panic::catch_unwind(AssertUnwindSafe(|| task(&mut ctx, i))) {
                        Ok(r) => *slots[i].lock().expect("result slot") = Some(r),
                        Err(payload) => {
                            stop.store(true, Ordering::Relaxed);
                            let msg = panic_message(payload);
                            let mut f = failed.lock().expect("failure slot");
                            // Keep the lowest index: the failure a
                            // serial run would have surfaced.
                            if f.as_ref().is_none_or(|(j, _)| i < *j) {
                                *f = Some((i, msg));
                            }
                            break;
                        }
                    }
                }
            });
        }
    });
    if let Some((i, msg)) = failed.into_inner().expect("failure slot") {
        panic!("scatter task {i} panicked: {msg}");
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every task index was claimed and ran")
        })
        .collect()
}

/// [`scatter_with`] plus a private [`MetricsRegistry`] shard per
/// worker, returned in worker-index order alongside the results.
///
/// Shards must only accumulate counters and histograms (u64 counts):
/// which tasks land in which shard depends on scheduling, but u64 sums
/// are commutative and associative, so merging the shards — in any
/// order — yields totals that are bit-identical across `jobs` values.
pub fn scatter_metered<C, R, I, F>(
    jobs: usize,
    n: usize,
    init: I,
    task: F,
) -> (Vec<R>, Vec<MetricsRegistry>)
where
    R: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, &mut MetricsRegistry, usize) -> R + Sync,
{
    let workers = if jobs <= 1 || n <= 1 { 1 } else { jobs.min(n) };
    let shards: Vec<Mutex<MetricsRegistry>> = (0..workers)
        .map(|_| Mutex::new(MetricsRegistry::new()))
        .collect();
    let worker_seq = AtomicUsize::new(0);
    let out = scatter_with(
        jobs,
        n,
        || {
            let w = worker_seq.fetch_add(1, Ordering::Relaxed);
            (init(), w)
        },
        |(ctx, w), i| {
            let mut shard = shards[*w].lock().expect("metric shard");
            task(ctx, &mut shard, i)
        },
    );
    let shards = shards
        .into_iter()
        .map(|m| m.into_inner().expect("metric shard"))
        .collect();
    (out, shards)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_task_order_regardless_of_jobs() {
        let serial = scatter(1, 17, |i| i * i);
        for jobs in [2, 4, 8, 32] {
            assert_eq!(scatter(jobs, 17, |i| i * i), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_task() {
        assert_eq!(scatter::<usize, _>(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(scatter(4, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn more_jobs_than_tasks() {
        assert_eq!(scatter(64, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn workers_share_borrowed_state() {
        let base = [10u64, 20, 30, 40, 50];
        let doubled = scatter(3, base.len(), |i| base[i] * 2);
        assert_eq!(doubled, vec![20, 40, 60, 80, 100]);
    }

    #[test]
    fn context_initialized_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let out = scatter_with(
            3,
            20,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |ctx, i| {
                *ctx += 1;
                i
            },
        );
        assert_eq!(out, (0..20).collect::<Vec<_>>());
        assert!(inits.load(Ordering::Relaxed) <= 3);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        scatter(8, 100, |i| counters[i].fetch_add(1, Ordering::Relaxed));
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn worker_panic_reports_failing_task_index() {
        let caught = std::panic::catch_unwind(|| {
            scatter(4, 32, |i| {
                if i == 13 {
                    panic!("boom at {i}");
                }
                i
            })
        })
        .expect_err("scatter must propagate the panic");
        let msg = caught
            .downcast_ref::<String>()
            .expect("formatted message")
            .clone();
        assert!(msg.contains("scatter task 13 panicked"), "{msg}");
        assert!(msg.contains("boom at 13"), "{msg}");
    }

    #[test]
    fn lowest_panicking_index_wins() {
        // Several tasks panic; the surfaced index must be the smallest,
        // matching what a serial run would have hit first.
        let caught = std::panic::catch_unwind(|| {
            scatter(8, 64, |i| {
                if i % 7 == 5 {
                    panic!("bad task");
                }
                i
            })
        })
        .expect_err("scatter must propagate the panic");
        let msg = caught.downcast_ref::<String>().unwrap().clone();
        let reported: usize = msg
            .strip_prefix("scatter task ")
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("index in message");
        assert!(reported % 7 == 5, "{msg}");
        // The scatter claims indices in order and stops on failure, so
        // the first panicking index (5) is observed before any higher
        // one can be the *only* record.
        assert_eq!(reported, 5, "{msg}");
    }

    #[test]
    fn metered_shards_merge_identically_across_jobs() {
        let totals = |jobs: usize| {
            let (out, shards) = scatter_metered(
                jobs,
                40,
                || (),
                |(), m, i| {
                    m.inc("tasks", 1);
                    m.observe("idx", &[10.0, 20.0, 30.0], i as f64);
                    i * 2
                },
            );
            assert_eq!(out, (0..40).map(|i| i * 2).collect::<Vec<_>>());
            let mut merged = MetricsRegistry::new();
            for s in &shards {
                merged.merge(s);
            }
            (shards.len(), merged)
        };
        let (n1, serial) = totals(1);
        assert_eq!(n1, 1);
        for jobs in [2, 4, 8] {
            let (nw, merged) = totals(jobs);
            assert!(nw <= jobs);
            assert_eq!(merged, serial, "jobs={jobs}");
        }
        assert_eq!(serial.counter("tasks"), 40);
        assert_eq!(serial.histogram("idx").unwrap().total(), 40);
    }
}
