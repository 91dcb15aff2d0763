//! Offline stand-in for the slice of `rayon` the workspace uses: real
//! intra-process data parallelism with a deterministic,
//! thread-count-independent result contract. The surface is two index
//! primitives ([`par_for_each_index`], [`par_map_index`]), one slice
//! primitive ([`par_for_each_mut`]), [`current_num_threads`] and a
//! [`ThreadPoolBuilder`] whose pool scopes the thread count through
//! [`ThreadPool::install`].
//!
//! The execution model is simpler than rayon's work-stealing deques —
//! each parallel region spawns scoped `std` threads that claim item
//! indices from a shared atomic counter, or, for the slice primitive, take
//! one contiguous run of the slice each — but the *output* contract is
//! the one this repo's determinism tests rely on and is stronger than
//! a naive port: results are always assembled **in index order**, so
//! `par_map_index(n, f)` is bit-identical to the sequential
//! `(0..n).map(f).collect()` for any thread count, provided `f` itself
//! is a pure function of the index.
//!
//! Thread-count resolution, in priority order:
//! 1. the innermost [`ThreadPool::install`] scope on this thread,
//! 2. the `RAYON_NUM_THREADS` environment variable,
//! 3. `std::thread::available_parallelism()`.
//!
//! Nested parallel regions run sequentially on the worker that reaches
//! them (matching rayon's no-oversubscription behaviour closely enough
//! for a simulator whose outer loop is already threads-as-nodes).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`].
    static INSTALLED: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set inside parallel workers so nested regions run sequentially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of threads a parallel region started here would use.
pub fn current_num_threads() -> usize {
    if IN_WORKER.with(|w| w.get()) {
        return 1;
    }
    if let Some(n) = INSTALLED.with(|c| c.get()) {
        return n.max(1);
    }
    if let Ok(s) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f(i)` for every `i in 0..n`, fanning out across worker threads.
/// Each index is claimed by exactly one worker; `f` must be safe to call
/// concurrently for distinct indices.
pub fn par_for_each_index<F: Fn(usize) + Sync>(n: usize, f: F) {
    let threads = current_num_threads().min(n);
    if threads <= 1 || n <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    f(i);
                }
            });
        }
    });
}

/// Run `f(i, &mut items[i])` for every item, fanning out across worker
/// threads: `items` is split into one contiguous run per thread, so each
/// item is visited by exactly one thread and no `unsafe` is needed.
pub fn par_for_each_mut<T: Send, F: Fn(usize, &mut T) + Sync>(items: &mut [T], f: F) {
    let threads = current_num_threads().min(items.len());
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let run = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|s| {
        for (r, part) in items.chunks_mut(run).enumerate() {
            s.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                for (j, item) in part.iter_mut().enumerate() {
                    f(r * run + j, item);
                }
            });
        }
    });
}

/// Compute `f(i)` for every index in parallel and return the results in
/// index order — the deterministic-collect primitive. Each result lands in
/// its own slot through [`par_for_each_mut`], so no `unsafe` is needed.
pub fn par_map_index<U: Send, F: Fn(usize) -> U + Sync>(n: usize, f: F) -> Vec<U> {
    if current_num_threads().min(n) <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    par_for_each_mut(&mut out, |i, slot| *slot = Some(f(i)));
    out.into_iter().map(|v| v.expect("every slot is written")).collect()
}

/// Thread-count handle mirroring `rayon::ThreadPool`. The shim does not
/// keep threads alive between regions; the pool records the width that
/// regions inside [`ThreadPool::install`] will use.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's thread count governing parallel regions.
    pub fn install<R, F: FnOnce() -> R>(&self, f: F) -> R {
        let prev = INSTALLED.with(|c| c.replace(Some(self.num_threads)));
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(prev);
        f()
    }
}

#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Pool construction cannot fail in the shim; kept for API parity.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = match self.num_threads {
            Some(0) | None => current_num_threads(),
            Some(n) => n,
        };
        Ok(ThreadPool { num_threads: n })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn par_for_each_index_visits_every_index_once() {
        for threads in [1usize, 2, 4, 8] {
            let hits: Vec<AtomicU32> = (0..1003).map(|_| AtomicU32::new(0)).collect();
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                par_for_each_index(hits.len(), |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                })
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_for_each_mut_visits_every_item_once() {
        for threads in [1usize, 2, 4, 8] {
            for n in [0usize, 1, 3, 1003] {
                let mut items = vec![0usize; n];
                let pool = ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                pool.install(|| par_for_each_mut(&mut items, |i, x| *x += i + 1));
                let want: Vec<usize> = (1..=n).collect();
                assert_eq!(items, want, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 2);
    }

    #[test]
    fn nested_regions_run_sequentially() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let nested_counts: Vec<usize> =
            pool.install(|| par_map_index(8, |_| current_num_threads()));
        // Inside a worker, nested parallelism is sequential.
        assert!(nested_counts.iter().all(|&n| n == 1));
    }

    #[test]
    fn par_map_index_is_order_stable_under_threads() {
        for threads in [1usize, 2, 4, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(|| par_map_index(100, |i| i * i));
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }
}
