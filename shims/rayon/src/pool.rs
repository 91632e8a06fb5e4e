//! The persistent worker pool behind every parallel call.
//!
//! Design: a single injector queue (`std::sync::mpsc` behind mutexes)
//! feeds `configured_threads() - 1` long-lived worker threads, started
//! lazily on the first multi-worker parallel call. [`run_jobs`] submits
//! all but the first job, runs the first on the calling thread, then
//! *helps* drain the queue while waiting for its latch — the helping
//! loop is what makes nested parallel calls safe on a fixed-size pool
//! (a waiting caller never just blocks while runnable jobs sit queued).
//!
//! ## Safety
//!
//! Jobs borrow the caller's stack (`Job<'scope>`), but the queue needs
//! `'static` closures, so submission transmutes the lifetime away. This
//! is sound because [`run_jobs`] does not return until its latch counts
//! every submitted job complete — including jobs that panicked, whose
//! payload is re-raised on the caller — so no borrowed data is ever
//! touched after the borrow ends. This is the same argument rayon's
//! scoped API makes.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A unit of parallel work borrowed from a caller's scope.
pub type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

type StaticJob = Box<dyn FnOnce() + Send + 'static>;

/// Completion latch shared between a caller and its submitted jobs.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload observed among the jobs, re-raised by the
    /// caller after all jobs finished.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new(count: usize) -> Arc<Self> {
        Arc::new(Self {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    fn complete(&self, panicked: Option<Box<dyn std::any::Any + Send>>) {
        if let Some(p) = panicked {
            let mut slot = self.panic.lock().unwrap();
            slot.get_or_insert(p);
        }
        let mut rem = self.remaining.lock().unwrap();
        *rem -= 1;
        if *rem == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().unwrap() == 0
    }
}

/// A queued task: the job plus the latch it completes.
struct QueuedJob {
    job: StaticJob,
    latch: Arc<Latch>,
}

impl QueuedJob {
    /// Runs the job, catching panics into the latch.
    fn execute(self) {
        let result = catch_unwind(AssertUnwindSafe(self.job));
        self.latch.complete(result.err());
    }
}

struct Pool {
    tx: Mutex<Sender<QueuedJob>>,
    rx: Mutex<Receiver<QueuedJob>>,
}

impl Pool {
    /// Pops one queued job without blocking (used by helping waiters and
    /// as the workers' fast path).
    fn try_pop(&self) -> Option<QueuedJob> {
        match self.rx.try_lock() {
            Ok(rx) => rx.try_recv().ok(),
            Err(_) => None,
        }
    }
}

/// Worker threads block here between jobs; a tiny timeout keeps the
/// receiver mutex from starving helping callers.
const WORKER_POLL: std::time::Duration = std::time::Duration::from_millis(1);

fn worker_loop(pool: &'static Pool) {
    loop {
        let job = {
            let rx = pool.rx.lock().unwrap();
            rx.recv_timeout(WORKER_POLL)
        };
        match job {
            Ok(job) => job.execute(),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Threads used for parallel work: `RAYON_NUM_THREADS` when set (0 means
/// "all cores", matching rayon), otherwise `available_parallelism`.
pub fn configured_threads() -> usize {
    static THREADS: AtomicUsize = AtomicUsize::new(0);
    let cached = THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let n = match std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(0) | None => cores,
        Some(n) => n,
    };
    THREADS.store(n.max(1), Ordering::Relaxed);
    n.max(1)
}

/// The global pool, started on first use with `configured_threads() - 1`
/// workers (the calling thread is always the remaining worker).
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let (tx, rx) = std::sync::mpsc::channel();
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            tx: Mutex::new(tx),
            rx: Mutex::new(rx),
        }));
        let workers = configured_threads().saturating_sub(1).max(1);
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || worker_loop(pool))
                .expect("spawn pool worker");
        }
        pool
    })
}

/// Runs every job to completion, in parallel where workers allow. The
/// first job always runs on the calling thread; the rest go to the pool.
/// Panics in any job are re-raised here after all jobs finished.
pub fn run_jobs(jobs: Vec<Job<'_>>) {
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else { return };
    let rest: Vec<Job<'_>> = jobs.collect();
    if rest.is_empty() {
        first();
        return;
    }
    let pool = pool();
    let latch = Latch::new(rest.len());
    {
        let tx = pool.tx.lock().unwrap();
        for job in rest {
            // SAFETY: see the module docs — the latch wait below keeps
            // every borrow in `job` alive until the job has finished.
            let job: StaticJob = unsafe { std::mem::transmute::<Job<'_>, StaticJob>(job) };
            tx.send(QueuedJob {
                job,
                latch: latch.clone(),
            })
            .expect("pool queue alive");
        }
    }
    // The guard waits out every submitted job even if `first` unwinds —
    // without it, a caller panic would free borrowed data while pool
    // jobs still run.
    let guard = WaitGuard { pool, latch };
    first();
    let latch = guard.finish();
    let panicked = latch.panic.lock().unwrap().take();
    if let Some(p) = panicked {
        resume_unwind(p);
    }
}

/// Waits for a latch on drop, helping drain the queue meanwhile.
struct WaitGuard {
    pool: &'static Pool,
    latch: Arc<Latch>,
}

impl WaitGuard {
    /// Waits and hands the latch back (the normal, non-unwinding path).
    fn finish(self) -> Arc<Latch> {
        self.wait();
        let latch = self.latch.clone();
        std::mem::forget(self);
        latch
    }

    /// Help while waiting: drain runnable jobs (ours or a nested
    /// call's) instead of blocking on a fixed-size pool.
    fn wait(&self) {
        while !self.latch.is_done() {
            match self.pool.try_pop() {
                Some(job) => job.execute(),
                None => {
                    let rem = self.latch.remaining.lock().unwrap();
                    if *rem > 0 {
                        // Tiny timeout: a job may land in the queue
                        // rather than complete our latch.
                        let _ = self.latch.done.wait_timeout(rem, WORKER_POLL).unwrap();
                    }
                }
            }
        }
    }
}

impl Drop for WaitGuard {
    fn drop(&mut self) {
        self.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn jobs_all_run_and_borrow_caller_data() {
        let counter = AtomicU32::new(0);
        let jobs: Vec<Job<'_>> = (0..8)
            .map(|_| -> Job<'_> {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        run_jobs(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn nested_run_jobs_completes() {
        let outer = AtomicU32::new(0);
        let jobs: Vec<Job<'_>> = (0..4)
            .map(|_| -> Job<'_> {
                Box::new(|| {
                    let inner = AtomicU32::new(0);
                    let inner_jobs: Vec<Job<'_>> = (0..4)
                        .map(|_| -> Job<'_> {
                            Box::new(|| {
                                inner.fetch_add(1, Ordering::SeqCst);
                            })
                        })
                        .collect();
                    run_jobs(inner_jobs);
                    outer.fetch_add(inner.load(Ordering::SeqCst), Ordering::SeqCst);
                })
            })
            .collect();
        run_jobs(jobs);
        assert_eq!(outer.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn panics_propagate_after_all_jobs_finish() {
        let done = AtomicU32::new(0);
        let done_ref = &done;
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Job<'_>> = (0..4)
                .map(|i| -> Job<'_> {
                    Box::new(move || {
                        if i == 2 {
                            panic!("boom");
                        }
                        done_ref.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            run_jobs(jobs);
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_eq!(done.load(Ordering::SeqCst), 3, "other jobs still ran");
    }
}
