//! Offline stand-in for `rayon`, built on a persistent worker pool.
//!
//! The build container has no crates.io access, so this shim implements
//! the combinator chains the workspace actually uses:
//!
//! * `slice.par_chunks_mut(n)[.enumerate()].for_each(f)`
//! * `slice.par_iter().map(f).collect::<Vec<_>>()` / `.filter(p).count()`
//! * `(0..n).into_par_iter().map(f).collect::<Vec<_>>()`
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
    pub use super::{
        IntoParallelIterator, IntoParallelRefIterator, ParallelSlice, ParallelSliceMut,
    };
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

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs each chunk with its index.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate { inner: self }
    }

    /// Applies `f` to every chunk, in parallel.
    pub fn for_each(self, f: impl Fn(&mut [T]) + Sync + Send) {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Enumerated parallel chunks.
pub struct ParChunksMutEnumerate<'a, T> {
    inner: ParChunksMut<'a, T>,
}

impl<T: Send> ParChunksMutEnumerate<'_, T> {
    /// Applies `f` to every `(index, chunk)` pair, in parallel.
    pub fn for_each(self, f: impl Fn((usize, &mut [T])) + Sync + Send) {
        let chunk_size = self.inner.chunk_size;
        let data = self.inner.data;
        let n_chunks = data.len().div_ceil(chunk_size);
        if n_chunks == 0 {
            return;
        }
        let workers = worker_count(n_chunks);
        if workers <= 1 {
            for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
                f((i, chunk));
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
            let first_chunk = range.start;
            jobs.push(Box::new(move || {
                for (i, chunk) in head.chunks_mut(chunk_size).enumerate() {
                    f((first_chunk + i, chunk));
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

/// Alias trait so `use rayon::prelude::*` also exposes `par_chunks`-style
/// helpers on slices (only the shared-iterator entry is needed today).
pub trait ParallelSlice<T: Sync> {
    /// Parallel shared iterator over the slice.
    fn par_slice_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_slice_iter(&self) -> ParIter<'_, T> {
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

    /// Filters elements.
    pub fn filter<P: Fn(&&'a T) -> bool + Sync>(self, p: P) -> ParIterFilter<'a, T, P> {
        ParIterFilter {
            slice: self.slice,
            p,
        }
    }

    /// Applies `f` to every element, in parallel.
    pub fn for_each(self, f: impl Fn(&'a T) + Sync + Send) {
        let slice = self.slice;
        run_split(slice.len(), |r| {
            for item in &slice[r] {
                f(item);
            }
        });
    }

    /// Number of elements.
    pub fn count(self) -> usize {
        self.slice.len()
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

/// `par_iter().filter(p)`.
pub struct ParIterFilter<'a, T, P> {
    slice: &'a [T],
    p: P,
}

impl<'a, T: Sync, P: Fn(&&'a T) -> bool + Sync> ParIterFilter<'a, T, P> {
    /// Counts matching elements.
    pub fn count(self) -> usize {
        let slice = self.slice;
        let p = &self.p;
        run_split(slice.len(), |r| slice[r].iter().filter(|t| p(t)).count())
            .into_iter()
            .sum()
    }

    /// Collects matching elements in order.
    pub fn collect<C: FromMapped<&'a T>>(self) -> C {
        let slice = self.slice;
        let p = &self.p;
        let parts = run_split(slice.len(), |r| {
            slice[r].iter().filter(|t| p(t)).collect::<Vec<&T>>()
        });
        C::from_parts(parts)
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

// ---------------------------------------------------------------------------
// into_par_iter over ranges
// ---------------------------------------------------------------------------

/// `range.into_par_iter()` entry point.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// The parallel iterator.
    type Iter;

    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParRange;

    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel iterator over `Range<usize>`.
pub struct ParRange {
    range: std::ops::Range<usize>,
}

impl ParRange {
    /// Maps every index.
    pub fn map<U: Send, F: Fn(usize) -> U + Sync>(self, f: F) -> ParRangeMap<F> {
        ParRangeMap {
            range: self.range,
            f,
        }
    }

    /// Applies `f` to every index, in parallel.
    pub fn for_each(self, f: impl Fn(usize) + Sync + Send) {
        let start = self.range.start;
        let len = self.range.end.saturating_sub(start);
        run_split(len, |r| {
            for i in r {
                f(start + i);
            }
        });
    }
}

/// `range.into_par_iter().map(f)`.
pub struct ParRangeMap<F> {
    range: std::ops::Range<usize>,
    f: F,
}

impl<U: Send, F: Fn(usize) -> U + Sync> ParRangeMap<F> {
    /// Collects mapped values in order.
    pub fn collect<C: FromMapped<U>>(self) -> C {
        let start = self.range.start;
        let len = self.range.end.saturating_sub(start);
        let f = &self.f;
        let parts = run_split(len, |r| r.map(|i| f(start + i)).collect::<Vec<U>>());
        C::from_parts(parts)
    }

    /// Sums mapped values.
    pub fn sum<S: std::iter::Sum<U> + Send + std::iter::Sum<S>>(self) -> S {
        let start = self.range.start;
        let len = self.range.end.saturating_sub(start);
        let f = &self.f;
        run_split(len, |r| r.map(|i| f(start + i)).sum::<S>())
            .into_iter()
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn chunks_mut_visits_every_chunk_once() {
        let mut data = vec![0u32; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v = i as u32 + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i / 10) as u32 + 1);
        }
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
        let src: Vec<i64> = (0..500).collect();
        let mapped: Vec<i64> = src.par_iter().map(|&x| x + 1).collect();
        assert_eq!(mapped, (1..=500).collect::<Vec<_>>());
    }

    #[test]
    fn filter_count_matches_sequential() {
        let src: Vec<u64> = (0..997).collect();
        let par = src.par_iter().filter(|&&x| x % 3 == 0).count();
        assert_eq!(par, src.iter().filter(|&&x| x % 3 == 0).count());
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut empty: Vec<f32> = Vec::new();
        empty
            .par_chunks_mut(4)
            .for_each(|_| panic!("no chunks expected"));
        assert_eq!(empty.par_iter().filter(|_| true).count(), 0);
        let v: Vec<usize> = (0..0).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
    }
}
