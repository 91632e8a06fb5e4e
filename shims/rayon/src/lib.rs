//! Offline stand-in for `rayon`, built on a persistent worker pool.
//!
//! The build container has no crates.io access, so this shim implements
//! the combinator chains the workspace actually uses:
//!
//! * `slice.par_chunks_mut(n).for_each(f)` — `ctlm_sim::ParallelSim`'s
//!   shards;
//! * `slice.par_iter().map(f).collect::<Vec<_>>()` — `ctlm_lab`'s sweep
//!   grid points and `ctlm_baselines`' per-class ridge solves — and
//!   `.map(f).sum()`, which `benches/par_dispatch.rs` times;
//! * `current_num_threads()`.
//!
//! Work is split into one contiguous range per available worker. Ranges
//! run on the lazily started worker pool (`pool` module) — long-lived
//! threads fed through a shared injector queue, like rayon's global pool (minus work-stealing:
//! contiguous pre-split ranges make a deque-per-worker unnecessary).
//! The calling thread executes the first range itself and *helps* drain
//! the queue while it waits, so nested parallel calls cannot deadlock
//! the fixed-size pool. On a single-core host (or under
//! `RAYON_NUM_THREADS=1`) everything runs inline and no thread is ever
//! spawned.
//!
//! A parallel call costs one channel send per range, not one
//! `thread::spawn`: a 4096-element `par_iter().map().collect()` at
//! `RAYON_NUM_THREADS=4` takes ~28 µs per call on the 1-core CI
//! container (the per-call scoped-thread design this replaced took
//! ~72 µs) — `benches/par_dispatch.rs` tracks it.

mod pool;

/// Number of workers used for parallel calls. Honors rayon's
/// `RAYON_NUM_THREADS` override (useful for benchmarking dispatch on
/// small hosts).
fn worker_count(items: usize) -> usize {
    let cores = pool::configured_threads();
    cores.min(items).max(1)
}

/// Splits `0..len` into `parts` near-equal contiguous ranges.
fn split_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Runs `work` over each range of a `parts`-way split of `0..len`,
/// returning per-range results in order. Runs inline when only one worker
/// is available (or needed), so the single-core path never spawns.
fn run_split<R: Send>(len: usize, work: impl Fn(std::ops::Range<usize>) -> R + Sync) -> Vec<R> {
    let workers = worker_count(len);
    let ranges = split_ranges(len, workers);
    if workers <= 1 {
        return ranges.into_iter().map(work).collect();
    }
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(ranges.len()).collect();
    {
        let work = &work;
        let jobs: Vec<pool::Job<'_>> = results
            .iter_mut()
            .zip(ranges)
            .map(|(slot, r)| -> pool::Job<'_> { Box::new(move || *slot = Some(work(r))) })
            .collect();
        pool::run_jobs(jobs);
    }
    results
        .into_iter()
        .map(|r| r.expect("every range job ran"))
        .collect()
}

pub use pool::configured_threads as current_num_threads;

pub mod prelude {
    //! Drop-in `rayon::prelude`.
    pub use super::{IntoParallelRefIterator, ParallelSliceMut};
}

// ---------------------------------------------------------------------------
// par_chunks_mut
// ---------------------------------------------------------------------------

/// `slice.par_chunks_mut(n)` entry point.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel mutable chunks of `chunk_size` elements.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            data: self,
            chunk_size,
        }
    }
}

/// Parallel iterator over mutable chunks.
pub struct ParChunksMut<'a, T> {
    data: &'a mut [T],
    chunk_size: usize,
}

impl<T: Send> ParChunksMut<'_, T> {
    /// Applies `f` to every chunk, in parallel.
    pub fn for_each(self, f: impl Fn(&mut [T]) + Sync + Send) {
        let chunk_size = self.chunk_size;
        let data = self.data;
        let n_chunks = data.len().div_ceil(chunk_size);
        if n_chunks == 0 {
            return;
        }
        let workers = worker_count(n_chunks);
        if workers <= 1 {
            for chunk in data.chunks_mut(chunk_size) {
                f(chunk);
            }
            return;
        }
        // Hand each worker a contiguous run of whole chunks.
        let ranges = split_ranges(n_chunks, workers);
        let f = &f;
        let mut jobs: Vec<pool::Job<'_>> = Vec::with_capacity(ranges.len());
        let mut rest = data;
        for range in ranges {
            if range.is_empty() {
                continue;
            }
            let elems = ((range.end - range.start) * chunk_size).min(rest.len());
            let (head, tail) = rest.split_at_mut(elems);
            rest = tail;
            jobs.push(Box::new(move || {
                for chunk in head.chunks_mut(chunk_size) {
                    f(chunk);
                }
            }));
        }
        pool::run_jobs(jobs);
    }
}

// ---------------------------------------------------------------------------
// par_iter over slices
// ---------------------------------------------------------------------------

/// `slice.par_iter()` entry point (named as rayon's by-ref trait).
pub trait IntoParallelRefIterator<'a> {
    /// Item type.
    type Item: Sync + 'a;

    /// Parallel shared iterator.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

/// Parallel shared-reference iterator.
pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps every element.
    pub fn map<U, F: Fn(&'a T) -> U + Sync>(self, f: F) -> ParIterMap<'a, T, F> {
        ParIterMap {
            slice: self.slice,
            f,
        }
    }
}

/// `par_iter().map(f)`.
pub struct ParIterMap<'a, T, F> {
    slice: &'a [T],
    f: F,
}

impl<'a, T: Sync, U: Send, F: Fn(&'a T) -> U + Sync> ParIterMap<'a, T, F> {
    /// Collects mapped values in order.
    pub fn collect<C: FromMapped<U>>(self) -> C {
        let slice = self.slice;
        let f = &self.f;
        let parts = run_split(slice.len(), |r| slice[r].iter().map(f).collect::<Vec<U>>());
        C::from_parts(parts)
    }

    /// Sums mapped values.
    pub fn sum<S: std::iter::Sum<U> + Send + std::iter::Sum<S>>(self) -> S {
        let slice = self.slice;
        let f = &self.f;
        run_split(slice.len(), |r| slice[r].iter().map(f).sum::<S>())
            .into_iter()
            .sum()
    }
}

/// Order-preserving concatenation target for parallel collects.
pub trait FromMapped<U>: Sized {
    /// Builds the collection from in-order per-worker parts.
    fn from_parts(parts: Vec<Vec<U>>) -> Self;
}

impl<U> FromMapped<U> for Vec<U> {
    fn from_parts(parts: Vec<Vec<U>>) -> Self {
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for p in parts {
            out.extend(p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn chunks_mut_visits_every_chunk_once() {
        let mut data = vec![0usize; 103];
        data.par_chunks_mut(10).for_each(|chunk| {
            let len = chunk.len();
            for v in chunk.iter_mut() {
                *v += len;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, if i < 100 { 10 } else { 3 });
        }
    }

    #[test]
    fn map_collect_preserves_order_and_sum_matches_sequential() {
        let src: Vec<i64> = (0..500).collect();
        let mapped: Vec<i64> = src.par_iter().map(|&x| x + 1).collect();
        assert_eq!(mapped, (1..=500).collect::<Vec<_>>());
        let sum: i64 = src.par_iter().map(|&x| x * 2).sum();
        assert_eq!(sum, src.iter().map(|&x| x * 2).sum::<i64>());
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut empty: Vec<f32> = Vec::new();
        empty
            .par_chunks_mut(4)
            .for_each(|_| panic!("no chunks expected"));
        let v: Vec<f32> = empty.par_iter().map(|&x| x).collect();
        assert!(v.is_empty());
    }
}
