//! Offline stand-in for the `rayon` adapters this workspace uses:
//! `(a..b).into_par_iter().map(f).collect::<C>()`, the same with
//! `filter_map`, the `fold(..).reduce(..)` pair for parallel
//! aggregation, and the [`ParallelSlice::par_chunks`] slice adapter.
//! Work really is fanned out across OS threads
//! (`std::thread::scope`, one chunk per thread), and results are
//! recombined **in input order**, matching rayon's indexed-collect
//! semantics. `fold` produces one partial accumulator per chunk
//! (rayon: one per split) and `reduce` merges the partials in input
//! order, so any associative reduction gives identical results to
//! rayon's. See `crates/compat/README.md`.
//!
//! **Thread count.** Like rayon's global pool, the default count is
//! the process's core count (`available_parallelism`), read once per
//! process at the first parallel call that needs it; a process that
//! restricts its CPU affinity before that call sees the restricted
//! count for good. [`ThreadPool::install`] runs a closure with a
//! scoped count instead (rayon's own override: no environment
//! variable). Nested parallel calls, made from inside a worker
//! thread, run inline on that worker — rayon would run them on the
//! same pool's busy workers, so the work's split is all that changes,
//! never its result.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Entry point: types convertible into a (shim) parallel iterator.
pub trait IntoParallelIterator {
    /// Item produced.
    type Item: Send;
    /// Converts into the shim parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

macro_rules! impl_into_par_iter_range {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for core::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}
impl_into_par_iter_range!(u8, u16, u32, u64, usize, i32, i64);

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// Slices convertible into a parallel iterator over fixed-size
/// chunks — rayon's `par_chunks` adapter. Each item is a `&[T]`
/// sub-slice of at most `chunk_size` elements (the last chunk may be
/// shorter), yielded in slice order, so
/// `data.par_chunks(c).map(f).collect()` equals
/// `data.chunks(c).map(f).collect()` for any pure `f`.
pub trait ParallelSlice<T: Sync> {
    /// Splits into contiguous chunks of at most `chunk_size` items.
    ///
    /// # Panics
    /// Panics if `chunk_size` is 0.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

/// A materialized work-list awaiting a mapping adapter.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel order-preserving map.
    pub fn map<U, F>(self, f: F) -> ParMapped<U>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        ParMapped {
            results: run_parallel(self.items, |x| Some(f(x))),
        }
    }

    /// Parallel order-preserving filter-map.
    pub fn filter_map<U, F>(self, f: F) -> ParMapped<U>
    where
        U: Send,
        F: Fn(T) -> Option<U> + Sync,
    {
        ParMapped {
            results: run_parallel(self.items, f),
        }
    }

    /// Parallel fold: each worker folds its chunk into one accumulator
    /// seeded from `identity`, yielding one partial per chunk (rayon
    /// yields one per split). Chain with [`ParMapped::reduce`] — for
    /// an associative `fold_op`/`reduce` pair the combined result is
    /// independent of the chunking.
    pub fn fold<U, ID, F>(self, identity: ID, fold_op: F) -> ParMapped<U>
    where
        U: Send,
        ID: Fn() -> U + Sync,
        F: Fn(U, T) -> U + Sync,
    {
        let partials = run_parallel_chunks(self.items, |chunk| {
            chunk.into_iter().fold(identity(), &fold_op)
        });
        ParMapped { results: partials }
    }
}

/// Results of a parallel map, ready to collect (already computed; the
/// shim is eager where rayon is lazy, which is observationally
/// equivalent for the in-tree pipelines).
pub struct ParMapped<U> {
    results: Vec<U>,
}

impl<U> ParMapped<U> {
    /// Collects into any `FromIterator` target, preserving input order —
    /// including short-circuiting targets like `Option<Vec<_>>`.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        self.results.into_iter().collect()
    }

    /// Sum of the results.
    pub fn sum<S: core::iter::Sum<U>>(self) -> S {
        self.results.into_iter().sum()
    }

    /// Maximum of the results.
    pub fn max(self) -> Option<U>
    where
        U: Ord,
    {
        self.results.into_iter().max()
    }

    /// Reduces the results with `op`, seeded from `identity` and
    /// merging in input order (rayon merges split results pairwise;
    /// both agree whenever `op` is associative with `identity()` as a
    /// neutral element, which rayon requires anyway).
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> U
    where
        ID: Fn() -> U + Sync,
        OP: Fn(U, U) -> U + Sync,
    {
        self.results.into_iter().fold(identity(), op)
    }
}

/// Splits `items` into at most `threads` contiguous chunks,
/// preserving input order.
fn split_chunks<T>(mut items: Vec<T>, threads: usize) -> Vec<Vec<T>> {
    let chunk = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    // Split from the back so each drain is O(chunk).
    while items.len() > chunk {
        chunks.push(items.split_off(items.len() - chunk));
    }
    chunks.push(items);
    chunks.reverse(); // restore input order
    chunks
}

thread_local! {
    /// The count in force on this thread when it is not the default:
    /// a [`ThreadPool::install`]ed count, or 1 inside a worker.
    static SCOPED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The default thread count: the core count, read once per process.
fn core_count() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Threads a parallel call made here would use (rayon's function of
/// the same name): the installed count inside
/// [`ThreadPool::install`], 1 on a worker thread, else the core count.
#[must_use]
pub fn current_num_threads() -> usize {
    SCOPED_THREADS.with(Cell::get).unwrap_or_else(core_count)
}

/// Worker count for an input of `n` items.
fn worker_count(n: usize) -> usize {
    current_num_threads().min(n.max(1))
}

/// Configures a [`ThreadPool`]: rayon's builder, reduced to the
/// thread count.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder for a pool of the default size (the core count).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the thread count; 0 keeps the default, as in rayon.
    #[must_use]
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool.
    ///
    /// # Errors
    /// Never in the shim, which starts no threads until a parallel
    /// call needs them; the `Result` keeps rayon's call shape.
    pub fn build(self) -> Result<ThreadPool, std::convert::Infallible> {
        let threads = match self.num_threads {
            0 => core_count(),
            k => k,
        };
        Ok(ThreadPool { threads })
    }
}

/// A thread count to run parallel calls with. The shim keeps no
/// threads: [`ThreadPool::install`] runs its closure on the calling
/// thread, and every parallel call inside it fans out over at most
/// this many scoped threads.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count in force for every
    /// parallel call it makes (nested calls on its workers still run
    /// inline), then restores the caller's count, also on a panic.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                SCOPED_THREADS.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(SCOPED_THREADS.with(|c| c.replace(Some(self.threads))));
        op()
    }
}

/// Splits `items` into one chunk per thread, maps each chunk on its
/// own scoped thread, and flattens chunk results back in order.
fn run_parallel<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> Option<U> + Sync,
{
    let n = items.len();
    let threads = worker_count(n);
    if threads <= 1 || n < 2 {
        return items.into_iter().filter_map(f).collect();
    }
    let f = &f;
    run_parallel_chunks_inner(split_chunks(items, threads), move |c| {
        c.into_iter().filter_map(f).collect::<Vec<U>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Splits `items` into one chunk per thread and maps each whole chunk
/// to one output on its own scoped thread, returning per-chunk outputs
/// in input order (the engine behind [`ParIter::fold`]).
fn run_parallel_chunks<T, U, G>(items: Vec<T>, g: G) -> Vec<U>
where
    T: Send,
    U: Send,
    G: Fn(Vec<T>) -> U + Sync,
{
    let n = items.len();
    let threads = worker_count(n);
    if threads <= 1 || n < 2 {
        return vec![g(items)];
    }
    run_parallel_chunks_inner(split_chunks(items, threads), &g)
}

fn run_parallel_chunks_inner<T, U, G>(chunks: Vec<Vec<T>>, g: G) -> Vec<U>
where
    T: Send,
    U: Send,
    G: Fn(Vec<T>) -> U + Sync,
{
    let g = &g;
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| {
                s.spawn(move || {
                    // Nested parallel calls on a worker run inline.
                    SCOPED_THREADS.with(|t| t.set(Some(1)));
                    g(c)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// The conventional glob-import surface.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0u64..10_000).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0u64..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collect_into_option_short_circuits_on_none() {
        let ok: Option<Vec<u32>> = (0u32..100).into_par_iter().map(Some).collect();
        assert_eq!(ok.unwrap().len(), 100);
        let bad: Option<Vec<u32>> = (0u32..100)
            .into_par_iter()
            .map(|x| if x == 57 { None } else { Some(x) })
            .collect();
        assert!(bad.is_none());
    }

    #[test]
    fn filter_map_keeps_order() {
        let v: Vec<usize> = (0usize..1000)
            .into_par_iter()
            .filter_map(|x| (x % 3 == 0).then_some(x))
            .collect();
        assert_eq!(v, (0usize..1000).filter(|x| x % 3 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn fold_reduce_matches_sequential() {
        let total: u64 = (0u64..100_000)
            .into_par_iter()
            .fold(|| 0u64, |acc, x| acc + x)
            .reduce(|| 0u64, |a, b| a + b);
        assert_eq!(total, (0u64..100_000).sum::<u64>());
    }

    #[test]
    fn fold_reduce_histogram_merge() {
        // The sg-net use-case in miniature: fold values into per-chunk
        // histograms, reduce by element-wise merge.
        let hist = (0usize..10_000)
            .into_par_iter()
            .fold(
                || vec![0u64; 7],
                |mut h, x| {
                    h[x % 7] += 1;
                    h
                },
            )
            .reduce(
                || vec![0u64; 7],
                |mut a, b| {
                    for (s, v) in a.iter_mut().zip(b) {
                        *s += v;
                    }
                    a
                },
            );
        let mut expect = vec![0u64; 7];
        for x in 0usize..10_000 {
            expect[x % 7] += 1;
        }
        assert_eq!(hist, expect);
    }

    #[test]
    fn map_then_reduce() {
        let m = (1u64..1001)
            .into_par_iter()
            .map(|x| x * x)
            .reduce(|| 0, u64::max);
        assert_eq!(m, 1_000_000);
    }

    #[test]
    fn fold_reduce_tiny_inputs() {
        let one: u32 = (0u32..1)
            .into_par_iter()
            .fold(|| 0u32, |a, x| a + x + 1)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(one, 1);
        let zero: u32 = (0u32..0)
            .into_par_iter()
            .fold(|| 0u32, |a, _| a + 1)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(zero, 0);
    }

    #[test]
    fn par_chunks_matches_sequential_chunks() {
        let data: Vec<u64> = (0..10_000).collect();
        let sums: Vec<u64> = data.par_chunks(97).map(|c| c.iter().sum::<u64>()).collect();
        let expect: Vec<u64> = data.chunks(97).map(|c| c.iter().sum::<u64>()).collect();
        assert_eq!(sums, expect);
        // Chunk boundaries are preserved: re-concatenation round-trips.
        let cat: Vec<u64> = data
            .par_chunks(1000)
            .map(<[u64]>::to_vec)
            .collect::<Vec<_>>()
            .concat();
        assert_eq!(cat, data);
    }

    #[test]
    fn par_chunks_edge_sizes() {
        let data = [1u32, 2, 3];
        // Oversized chunk: one slice with everything.
        let whole: Vec<Vec<u32>> = data.par_chunks(64).map(<[u32]>::to_vec).collect();
        assert_eq!(whole, vec![vec![1, 2, 3]]);
        // Size 1: one slice per element.
        let singles: Vec<u32> = data.par_chunks(1).map(|c| c[0]).collect();
        assert_eq!(singles, vec![1, 2, 3]);
        // Empty slice: no chunks at all.
        let empty: Vec<Vec<u32>> = [].par_chunks(4).map(<[u32]>::to_vec).collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn install_scopes_the_thread_count() {
        let outer = crate::current_num_threads();
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let (inside, nested) = pool.install(|| {
            let nested: Vec<usize> = (0u32..4)
                .into_par_iter()
                .map(|_| crate::current_num_threads())
                .collect();
            (crate::current_num_threads(), nested)
        });
        assert_eq!(inside, 3);
        assert_eq!(nested, vec![1; 4], "workers run nested calls inline");
        assert_eq!(crate::current_num_threads(), outer, "count restored");
        let default = crate::ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(default.install(crate::current_num_threads), outer);
    }

    #[test]
    fn install_restores_the_count_after_a_panic() {
        let outer = crate::current_num_threads();
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(5)
            .build()
            .unwrap();
        let caught = std::panic::catch_unwind(|| pool.install(|| panic!("inside install")));
        assert!(caught.is_err());
        assert_eq!(crate::current_num_threads(), outer);
    }

    #[test]
    fn results_do_not_depend_on_the_thread_count() {
        let run = |k: usize| {
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(k)
                .build()
                .unwrap();
            pool.install(|| {
                let squares: Vec<u64> = (0u64..5_000).into_par_iter().map(|x| x * x).collect();
                let odd: Vec<u64> = (0u64..5_000)
                    .into_par_iter()
                    .filter_map(|x| (x % 2 == 1).then_some(x))
                    .collect();
                let sum = (0u64..5_000)
                    .into_par_iter()
                    .fold(|| 0u64, |a, x| a + x)
                    .reduce(|| 0, |a, b| a + b);
                (squares, odd, sum)
            })
        };
        let one = run(1);
        for k in [2, 3, 7] {
            assert_eq!(run(k), one, "{k} threads");
        }
    }

    #[test]
    fn small_and_empty_inputs() {
        let v: Vec<u32> = (0u32..0).into_par_iter().map(|x| x).collect();
        assert!(v.is_empty());
        let v: Vec<u32> = (0u32..1).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(v, vec![1]);
    }
}
