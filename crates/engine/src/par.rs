//! Std-only scoped worker pool for data-parallel fan-out.
//!
//! The engine's read surface is `&self` (see [`crate::Database`]), so a
//! batch of independent read statements can execute on any number of
//! threads. [`parallel_map`] is the one primitive every parallel caller
//! uses: run `f(0..n)` across a bounded set of scoped workers and
//! return results **in index order**, with deterministic error
//! selection — so a parallel run is observably identical to a serial
//! one wherever `f` is side-effect-commutative (as reads are).

use cdpd_types::Result;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: the `CDPD_THREADS` environment variable when
/// set to a positive integer, else [`std::thread::available_parallelism`]
/// (1 if unknown). `CDPD_THREADS=1` forces every parallel path in the
/// workspace down its serial branch, which is how the CI stress gate
/// pins thread counts.
pub fn default_threads() -> usize {
    match std::env::var("CDPD_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => 1,
        },
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Apply `f` to every index in `0..n` using up to `threads` scoped
/// worker threads and return the results in index order.
///
/// * `threads <= 1` (or `n <= 1`) runs serially on the caller's thread
///   with no pool at all — the serial and parallel branches are
///   observably identical for commutative `f`, which is what the
///   parallel-replay equivalence tests pin down.
/// * Work is distributed by an atomic cursor, so stragglers don't
///   stall the queue; results are merged back by index.
/// * On failure the error for the **smallest failing index** is
///   returned, matching what a serial left-to-right run would surface.
///   (Unlike the serial branch, workers past the failing index may
///   already have run — acceptable for reads, which have no effects
///   beyond I/O counters.)
///
/// # Panics
/// Propagates panics from `f`.
pub fn parallel_map<T: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<T>>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    // A root span per worker: tracked counters (pager
                    // I/O, raw oracle evals) bumped under `f` are
                    // attributed to some span on every thread.
                    let _span = cdpd_obs::span!("engine.par.worker");
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("parallel_map worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    let mut results = Vec::with_capacity(n);
    for slot in slots {
        results.push(slot.expect("every index visited")?);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpd_types::Error;

    #[test]
    fn preserves_index_order() {
        for threads in [1, 2, 8] {
            let out = parallel_map(100, threads, |i| Ok(i * 3)).unwrap();
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(parallel_map(0, 8, |_| Ok(1)).unwrap(), Vec::<i32>::new());
        assert_eq!(parallel_map(1, 8, Ok).unwrap(), vec![0]);
    }

    #[test]
    fn reports_smallest_failing_index() {
        for threads in [1, 2, 8] {
            let err = parallel_map(64, threads, |i| -> Result<usize> {
                if i % 2 == 1 {
                    Err(Error::InvalidArgument(format!("boom {i}")))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(
                err.to_string(),
                "invalid argument: boom 1",
                "threads={threads}"
            );
        }
    }

    #[test]
    fn all_indexes_visited_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = parallel_map(1000, 8, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(i)
        })
        .unwrap();
        assert_eq!(out.len(), 1000);
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn env_override_parses() {
        // Can't mutate the environment safely in-process; just pin the
        // fallback contract.
        assert!(default_threads() >= 1);
    }
}
