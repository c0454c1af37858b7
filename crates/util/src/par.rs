//! Deterministic fan-out: indexed jobs over scoped worker threads, results
//! in job order.
//!
//! Every parallel sweep in the workspace that must be worker-count
//! invariant runs on this one loop; what it computes from the ordered
//! results is its own.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `job(0) … job(jobs − 1)` and returns their results *in job order*.
///
/// With one worker (or one job) the jobs run inline, in order, on the
/// calling thread. With more, scoped worker threads pull indices from a
/// shared counter and results are merged into their index slot, so the
/// output — and everything derived from it — is independent of thread
/// scheduling. A panicking job propagates its panic to the caller.
pub fn map_indexed<T, F>(workers: usize, jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(jobs);
    if workers <= 1 {
        return (0..jobs).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        local.push((i, job(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    for (i, value) in parts.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::map_indexed;

    #[test]
    fn output_order_is_job_order_at_any_worker_count() {
        let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
        for workers in [1, 2, 4] {
            assert_eq!(map_indexed(workers, 100, |i| i * i), expected);
        }
        assert!(map_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    fn a_panicking_job_reaches_the_caller() {
        for workers in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                map_indexed(workers, 8, |i| assert_ne!(i, 5, "job five fails"))
            });
            assert!(caught.is_err(), "{workers} workers swallowed the panic");
        }
    }
}
