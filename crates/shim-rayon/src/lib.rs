//! Offline stand-in for the slice of `rayon` the workspace uses: real
//! intra-process data parallelism with a deterministic,
//! thread-count-independent result contract. The surface is one splitting
//! primitive, [`par_split_mut`], its one-slice case [`par_for_each_mut`],
//! [`current_num_threads`] and a [`ThreadPoolBuilder`] whose pool scopes
//! the thread count through [`ThreadPool::install`].
//!
//! The execution model is simpler than rayon's work-stealing deques —
//! each parallel region cuts its slices into one contiguous run per
//! thread and hands each run to a scoped `std` thread — but the contract is
//! the one this repo's determinism tests rely on: every element is visited
//! exactly once, by one call, and the cut points depend only on the length,
//! the `unit` and the thread count. A caller whose per-element work does
//! not depend on the cut (an elementwise update, a chunk with its own
//! seed, a disjoint output slot) gets the same bits at any thread count.
//! At one thread the region is a plain inline call.
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

/// Cut the `K` equal-length `slices` at the same points into one
/// contiguous run per thread and call `f(start, runs)` on each run, where
/// `start` is the run's offset and `runs[k]` is `slices[k][start..]` up to
/// the next cut. Every cut falls on a multiple of `unit` (the last run takes
/// the remainder), so a run never splits a `unit`-long record such as a
/// table row. Each element lies in exactly one run, so no `unsafe` is
/// needed. At one thread, or with at most one `unit`, `f` runs once on the
/// calling thread over the whole slices: no spawn and no allocation.
pub fn par_split_mut<T: Send, const K: usize, F: Fn(usize, [&mut [T]; K]) + Sync>(
    slices: [&mut [T]; K],
    unit: usize,
    f: F,
) {
    assert!(unit > 0, "par_split_mut: unit must be positive");
    let len = slices.first().map_or(0, |s| s.len());
    assert!(slices.iter().all(|s| s.len() == len), "par_split_mut: slice lengths differ");
    let units = len.div_ceil(unit);
    let threads = current_num_threads().min(units);
    if threads <= 1 {
        return f(0, slices);
    }
    let run = units.div_ceil(threads) * unit;
    let (f, mut rest, mut start) = (&f, slices, 0);
    std::thread::scope(|s| {
        while start < len {
            let take = run.min(len - start);
            let runs = rest.each_mut().map(|r| {
                let (head, tail) = std::mem::take(r).split_at_mut(take);
                *r = tail;
                head
            });
            s.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                f(start, runs)
            });
            start += take;
        }
    });
}

/// Run `f(i, &mut items[i])` for every item, one contiguous run of items
/// per thread: [`par_split_mut`] over one slice with a `unit` of one item.
pub fn par_for_each_mut<T: Send, F: Fn(usize, &mut T) + Sync>(items: &mut [T], f: F) {
    par_split_mut([items], 1, |start, [run]| {
        for (j, item) in run.iter_mut().enumerate() {
            f(start + j, item);
        }
    });
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
    use std::sync::Mutex;
    use std::thread::ThreadId;

    fn pool(threads: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
    }

    /// Split `K` slices of `len` elements at `unit` under a `threads`-wide
    /// pool, recording each call's start and thread; every element counts
    /// its visits (the same in every slice) and the run lengths agree.
    fn split<const K: usize>(threads: usize, len: usize, unit: usize) -> Vec<(usize, ThreadId)> {
        let mut bufs: [Vec<u32>; K] = std::array::from_fn(|_| vec![0; len]);
        let calls = Mutex::new(Vec::new());
        pool(threads).install(|| {
            par_split_mut(bufs.each_mut().map(|b| &mut b[..]), unit, |start, runs| {
                assert!(runs.iter().all(|r| r.len() == runs[0].len()));
                for r in runs {
                    r.iter_mut().for_each(|x| *x += 1);
                }
                calls.lock().unwrap().push((start, std::thread::current().id()));
            })
        });
        for (k, b) in bufs.iter().enumerate() {
            let cell = format!("K={K} k={k} threads={threads} len={len} unit={unit}");
            assert!(b.iter().all(|&x| x == 1), "{cell}");
        }
        calls.into_inner().unwrap()
    }

    #[test]
    fn par_split_mut_visits_every_element_once_at_unit_aligned_starts() {
        for threads in [1usize, 2, 3, 8] {
            for unit in [1usize, 4, 7] {
                // Not a multiple of the unit, shorter than one unit, empty.
                for len in [0usize, 3, 6, 29, 64, 1003] {
                    let runs = [
                        split::<1>(threads, len, unit),
                        split::<2>(threads, len, unit),
                        split::<3>(threads, len, unit),
                    ];
                    for calls in runs {
                        assert!(calls.iter().all(|&(s, _)| s % unit == 0 && (s < len || s == 0)));
                        assert!(calls.len() <= threads.max(1));
                    }
                }
            }
        }
    }

    #[test]
    fn par_split_mut_at_width_one_runs_once_on_the_calling_thread() {
        let me = std::thread::current().id();
        for len in [0usize, 5, 1003] {
            assert_eq!(split::<3>(1, len, 4), vec![(0, me)]);
        }
        // One unit is not split either, at any width.
        assert_eq!(split::<2>(8, 4, 4), vec![(0, me)]);
    }

    #[test]
    fn par_for_each_mut_visits_every_item_once() {
        for threads in [1usize, 2, 3, 8] {
            for n in [0usize, 1, 3, 1003] {
                let mut items = vec![0usize; n];
                pool(threads).install(|| par_for_each_mut(&mut items, |i, x| *x += i + 1));
                let want: Vec<usize> = (1..=n).collect();
                assert_eq!(items, want, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn install_scopes_thread_count() {
        let inside = pool(2).install(current_num_threads);
        assert_eq!(inside, 2);
    }

    #[test]
    fn nested_regions_run_sequentially() {
        let mut nested_counts = vec![0usize; 8];
        pool(4).install(|| par_for_each_mut(&mut nested_counts, |_, n| *n = current_num_threads()));
        // Inside a worker, nested parallelism is sequential.
        assert!(nested_counts.iter().all(|&n| n == 1));
    }
}
