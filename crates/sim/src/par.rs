//! Thread budgets and the generic curve pool.
//!
//! [`resolve_threads`] turns a thread request into a worker count, and
//! [`par_curves`] fans whole jobs (one curve, one exchange, one
//! resilience point) across a std-only scoped pool, returning results in
//! job order. Sweeps fan their own points through the pool in
//! [`crate::supervise`]; a caller that fans jobs which themselves shard
//! divides its budget by [`crate::plan_shards`] first.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a thread-count request: `0` means "auto" — the
/// `D2NET_THREADS` environment variable if set (invalid values emit one
/// coded `ENV_INVALID` WARN and fall back, see [`crate::envcfg`]),
/// otherwise [`std::thread::available_parallelism`].
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    if let Some(n) = crate::envcfg::env_positive("D2NET_THREADS") {
        return n as usize;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `jobs` on a scoped pool of `threads` workers (`0` = auto) and
/// returns their results in job order. The combinator the figure
/// drivers use to fan out whole curves (each job simulating one
/// topology × policy × pattern curve).
pub fn par_curves<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let threads = resolve_threads(threads).min(n.max(1));
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i].lock().unwrap().take().expect("job taken once");
                let result = job();
                *results[i].lock().unwrap() = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker completed this job"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_curves_preserves_job_order() {
        let jobs: Vec<_> = (0..37)
            .map(|i| move || i * i)
            .collect();
        let out = par_curves(jobs, 4);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_curves_runs_with_single_thread_and_empty_input() {
        assert_eq!(par_curves(Vec::<fn() -> u8>::new(), 3), Vec::<u8>::new());
        let jobs = vec![|| "a", || "b"];
        assert_eq!(par_curves(jobs, 1), vec!["a", "b"]);
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }
}
