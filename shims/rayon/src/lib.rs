//! Offline stand-in for `rayon` built on `std::thread::scope`.
//!
//! Covers the data-parallel slice this workspace uses: `par_iter()` /
//! `into_par_iter()` on slices, `Vec`s, and `Range<usize>`, followed by
//! `map(...)` and an order-preserving `collect()` (into `Vec<T>` or
//! `Result<Vec<T>, E>`), plus `join`, `current_num_threads` and
//! `ThreadPoolBuilder::new().num_threads(n).build()?.install(f)`.
//!
//! Semantics that callers may rely on:
//!
//! * **Deterministic ordering** — `collect()` returns results in input
//!   order regardless of thread interleaving (same guarantee as rayon's
//!   indexed parallel iterators).
//! * **Eager evaluation** — `map` runs when `collect` is called; a
//!   `Result` collect does not short-circuit remaining items (unlike
//!   rayon), it just returns the first error in input order.
//! * **Panic propagation** — a panicking closure panics the caller.
//!
//! Thread count comes from the innermost enclosing [`ThreadPool::install`]
//! on this thread, else `RAYON_NUM_THREADS`, else
//! `available_parallelism()`; with one thread everything runs inline on
//! the calling thread with identical results.
//!
//! A [`ThreadPool`] owns no threads: `install` runs its closure on the
//! calling thread with the pool's thread count in force (real rayon runs
//! it on a pool worker). The count is thread-local, is carried into the
//! threads `join` and `collect` spawn, and is restored when `install`
//! returns or unwinds.
//!
//! Swap the workspace dependency back to crates.io `rayon` when network
//! access is available.

use std::cell::Cell;

thread_local! {
    /// The thread count of the innermost `install` running on this
    /// thread (or inherited from the thread that spawned it).
    static INSTALLED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The thread count when no `install` is in force.
fn default_num_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// The number of worker threads parallel operations will use.
#[must_use]
pub fn current_num_threads() -> usize {
    INSTALLED
        .with(Cell::get)
        .unwrap_or_else(default_num_threads)
}

/// Runs `op` with `installed` as this thread's count, restoring the
/// previous count when `op` returns or unwinds.
fn with_installed<R>(installed: Option<usize>, op: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            INSTALLED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(INSTALLED.with(|c| c.replace(installed)));
    op()
}

/// Configures a [`ThreadPool`] (mirror of `rayon::ThreadPoolBuilder`).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with the default thread count.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the thread count; `0` means the default
    /// (`RAYON_NUM_THREADS`, else the machine's parallelism).
    #[must_use]
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool. Never fails here; the `Result` mirrors rayon,
    /// whose pools start OS threads.
    ///
    /// # Errors
    ///
    /// None in this shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = if self.num_threads == 0 {
            default_num_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads })
    }
}

/// Why a [`ThreadPoolBuilder::build`] failed (never, in this shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the thread pool could not be built")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A thread count that parallel operations inside [`ThreadPool::install`]
/// use.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count in force for every
    /// `join`, `collect` and [`current_num_threads`] inside it, including
    /// on the threads they spawn.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        with_installed(Some(self.num_threads), op)
    }
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    let installed = INSTALLED.with(Cell::get);
    std::thread::scope(|s| {
        let hb = s.spawn(move || with_installed(installed, b));
        let ra = a();
        (ra, hb.join().expect("rayon-shim: joined closure panicked"))
    })
}

fn parallel_map<T: Send, U: Send>(items: Vec<T>, f: impl Fn(T) -> U + Sync) -> Vec<U> {
    let threads = current_num_threads();
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let len = items.len();
    let chunk_size = len.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::new();
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(items.len().min(chunk_size));
        chunks.push(std::mem::replace(&mut items, rest));
    }
    let f = &f;
    let installed = INSTALLED.with(Cell::get);
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                s.spawn(move || {
                    with_installed(installed, || chunk.into_iter().map(f).collect::<Vec<U>>())
                })
            })
            .collect();
        let mut out = Vec::with_capacity(len);
        for h in handles {
            out.extend(h.join().expect("rayon-shim: worker panicked"));
        }
        out
    })
}

/// An in-flight parallel iterator (materialized item list).
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Maps every item through `f` (runs in parallel at `collect`).
    pub fn map<U: Send, F: Fn(T) -> U + Sync + Send>(self, f: F) -> MapParIter<T, U, F> {
        MapParIter {
            items: self.items,
            f,
            _out: std::marker::PhantomData,
        }
    }

    /// Accepted for rayon API parity; chunking is automatic here.
    #[must_use]
    pub fn with_min_len(self, _len: usize) -> Self {
        self
    }

    /// Collects the items (no-op map).
    pub fn collect<C: FromParIter<T>>(self) -> C {
        C::from_ordered(self.items)
    }
}

/// A mapped parallel iterator, ready to collect.
pub struct MapParIter<T, U, F> {
    items: Vec<T>,
    f: F,
    _out: std::marker::PhantomData<fn() -> U>,
}

impl<T: Send, U: Send, F: Fn(T) -> U + Sync + Send> MapParIter<T, U, F> {
    /// Accepted for rayon API parity; chunking is automatic here.
    #[must_use]
    pub fn with_min_len(self, _len: usize) -> Self {
        self
    }

    /// Executes the map across worker threads and collects in input
    /// order.
    pub fn collect<C: FromParIter<U>>(self) -> C {
        C::from_ordered(parallel_map(self.items, self.f))
    }
}

/// Conversion from an ordered item list (mirror of
/// `rayon::iter::FromParallelIterator`).
pub trait FromParIter<T> {
    /// Builds the collection from items already in input order.
    fn from_ordered(items: Vec<T>) -> Self;
}

impl<T> FromParIter<T> for Vec<T> {
    fn from_ordered(items: Vec<T>) -> Self {
        items
    }
}

impl<T, E> FromParIter<Result<T, E>> for Result<Vec<T>, E> {
    fn from_ordered(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// Types convertible into an owning parallel iterator.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Types whose references iterate in parallel (`.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed element type.
    type Item: Send + 'a;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// The usual glob-import surface.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, join, ThreadPool, ThreadPoolBuilder};

    fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn ordering_is_preserved() {
        let input: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = input.par_iter().map(|&x| x * 3).collect();
        let expected: Vec<u64> = (0..1000).map(|x| x * 3).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn ordering_with_forced_threads() {
        // The chunk-stitch path must preserve order even when the work per
        // item is skewed.
        let out: Vec<usize> = pool(4).install(|| {
            (0..503)
                .into_par_iter()
                .map(|i| {
                    if i % 97 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                    i * 2
                })
                .collect()
        });
        assert_eq!(out, (0..503).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn result_collect_takes_first_error_in_order() {
        let out: Result<Vec<u32>, String> = pool(4).install(|| {
            (0..100)
                .into_par_iter()
                .map(|i| {
                    if i % 30 == 29 {
                        Err(format!("e{i}"))
                    } else {
                        Ok(i as u32)
                    }
                })
                .collect()
        });
        assert_eq!(out, Err("e29".to_owned()));
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!((a, b), (4, "ok"));
    }

    #[test]
    fn one_thread_install_runs_everything_on_the_calling_thread() {
        let caller = std::thread::current().id();
        pool(1).install(|| {
            assert_eq!(current_num_threads(), 1);
            let (a, b) = join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            );
            assert_eq!((a, b), (caller, caller));
            let ids: Vec<_> = (0..64)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect();
            assert!(ids.iter().all(|&id| id == caller));
        });
    }

    #[test]
    fn nested_install_restores_the_outer_count() {
        pool(3).install(|| {
            assert_eq!(current_num_threads(), 3);
            pool(1).install(|| assert_eq!(current_num_threads(), 1));
            assert_eq!(current_num_threads(), 3);
        });
    }

    #[test]
    fn a_panic_inside_install_restores_the_count() {
        pool(3).install(|| {
            let unwound = std::panic::catch_unwind(|| {
                pool(1).install(|| {
                    assert_eq!(current_num_threads(), 1);
                    panic!("inside install");
                })
            });
            assert!(unwound.is_err());
            assert_eq!(current_num_threads(), 3);
        });
    }

    #[test]
    fn spawned_children_see_the_installed_count() {
        let caller = std::thread::current().id();
        let (counts, ids): (Vec<usize>, Vec<_>) = pool(4).install(|| {
            (0..8)
                .into_par_iter()
                .map(|_| (current_num_threads(), std::thread::current().id()))
                .collect::<Vec<_>>()
                .into_iter()
                .unzip()
        });
        assert_eq!(counts, vec![4; 8]);
        assert!(ids.iter().any(|&id| id != caller), "4 threads fan out");
        let (_, b) = pool(4).install(|| join(|| (), current_num_threads));
        assert_eq!(b, 4);
    }
}
