//! The bounded overwrite-oldest ring behind the LOG sink and the TRACE
//! ring.
//!
//! Both streams hold fixed records captured on the hook path and hand
//! them to a collector in batches. [`BoundedRing`] is that one
//! mechanism ([`crate::LogSink`] is a `BoundedRing` of LOG records): a
//! `Mutex<VecDeque<T>>` capped at a capacity, where a writer that finds
//! the ring full overwrites the oldest record and counts it. The lock is
//! held only to push a record or to swap the whole buffer out; a drainer
//! allocates the replacement before it locks and renders what it took
//! after it unlocks, so a collector never makes a writer wait on the
//! allocator or on string work.
//!
//! Accounting is always on and updated under the lock, so
//! `emitted == drained + dropped + len` holds exactly at every quiescent
//! point. Each drain also reports how many records were overwritten
//! since the previous drain — the gap mark, swapped under the lock so
//! two racing drains never both report the same loss.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A bounded overwrite-oldest ring with exact loss accounting. The
/// counters are always on — a saturated collector is an operational
/// signal, not profiling detail.
#[derive(Debug)]
pub struct BoundedRing<T> {
    ring: Mutex<VecDeque<T>>,
    capacity: AtomicUsize,
    /// Allocation size for the next drain's replacement buffer: the
    /// capacity of the buffer the previous drain swapped out, so writers
    /// do not re-pay the doubling growth after every drain.
    spare: AtomicUsize,
    emitted: AtomicU64,
    drained: AtomicU64,
    dropped: AtomicU64,
    /// The `dropped` total the last drain observed.
    drop_mark: AtomicU64,
}

impl<T> BoundedRing<T> {
    /// Creates a ring bounded at `capacity` records (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        BoundedRing {
            ring: Mutex::new(VecDeque::new()),
            capacity: AtomicUsize::new(capacity.max(1)),
            spare: AtomicUsize::new(0),
            emitted: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            drop_mark: AtomicU64::new(0),
        }
    }

    /// Locks the ring, recovering from poisoning: every critical section
    /// pushes, pops or swaps whole records, so contents left by a
    /// panicked holder are still structurally consistent.
    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Rebounds the ring to `capacity` records (minimum 1). Shrinking
    /// below the current occupancy drops the oldest records, counted
    /// like any other overwrite.
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        let mut ring = self.lock();
        self.capacity.store(capacity, Ordering::Relaxed);
        let excess = ring.len().saturating_sub(capacity);
        ring.drain(..excess).for_each(drop);
        self.dropped.fetch_add(excess as u64, Ordering::Relaxed);
    }

    /// Appends one record, overwriting the oldest when full.
    pub(crate) fn push(&self, item: T) {
        let cap = self.capacity();
        let mut ring = self.lock();
        if ring.len() >= cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(item);
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Appends a whole batch under one lock acquisition, draining
    /// `batch` in place so it keeps its allocation for reuse. Oldest
    /// records are overwritten when the batch does not fit.
    pub(crate) fn append(&self, batch: &mut Vec<T>) {
        if batch.is_empty() {
            return;
        }
        let cap = self.capacity();
        let n = batch.len() as u64;
        let mut ring = self.lock();
        let mut overwritten = 0u64;
        for item in batch.drain(..) {
            if ring.len() >= cap {
                ring.pop_front();
                overwritten += 1;
            }
            ring.push_back(item);
        }
        if overwritten > 0 {
            self.dropped.fetch_add(overwritten, Ordering::Relaxed);
        }
        self.emitted.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes every buffered record, oldest first, together with how many
    /// records were overwritten since the previous drain. The lock is
    /// held only to swap in a buffer allocated beforehand.
    pub(crate) fn take_all(&self) -> (VecDeque<T>, u64) {
        let fresh = VecDeque::with_capacity(self.spare.load(Ordering::Relaxed));
        let mut ring = self.lock();
        let taken = std::mem::replace(&mut *ring, fresh);
        self.drained
            .fetch_add(taken.len() as u64, Ordering::Relaxed);
        let total = self.dropped.load(Ordering::Relaxed);
        let mark = self.drop_mark.swap(total, Ordering::Relaxed);
        drop(ring);
        self.spare.store(taken.capacity(), Ordering::Relaxed);
        (taken, total - mark)
    }

    /// Empties the ring and zeroes every counter.
    pub(crate) fn reset(&self) {
        let mut ring = self.lock();
        ring.clear();
        for counter in [&self.emitted, &self.drained, &self.dropped, &self.drop_mark] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// Number of buffered records (never more than the capacity).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no record is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records ever appended (including later-overwritten ones).
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Records handed to a drainer.
    pub fn drained(&self) -> u64 {
        self.drained.load(Ordering::Relaxed)
    }

    /// Records overwritten before any drainer saw them.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Emitted, drained, dropped, buffered and capacity, read under the
    /// lock so `emitted == drained + dropped + buffered` holds in every
    /// export, not only at quiescent points.
    fn accounting(&self) -> [(&'static str, u64); 5] {
        let ring = self.lock();
        [
            ("emitted", self.emitted()),
            ("drained", self.drained()),
            ("dropped", self.dropped()),
            ("buffered", ring.len() as u64),
            ("capacity", self.capacity() as u64),
        ]
    }

    /// Renders the accounting as Prometheus samples: the
    /// `<prefix>_{emitted,drained,dropped}_total` counters and the
    /// `<prefix>_buffered`/`<prefix>_capacity` gauges.
    pub(crate) fn write_prometheus(&self, out: &mut String, prefix: &str) {
        for (name, v) in self.accounting() {
            let total = if matches!(name, "buffered" | "capacity") {
                ""
            } else {
                "_total"
            };
            let _ = writeln!(out, "{prefix}_{name}{total} {v}");
        }
    }

    /// Renders the accounting as the JSON member `"<key>":{"emitted":…}`.
    pub(crate) fn write_json(&self, out: &mut String, key: &str) {
        let _ = write!(out, "\"{key}\":{{");
        for (i, (name, v)) in self.accounting().into_iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(out, "{comma}\"{name}\":{v}");
        }
        out.push('}');
    }

    /// Test hook: takes the ring lock without poison recovery, so a
    /// test can poison it by panicking while holding the guard.
    #[cfg(test)]
    pub(crate) fn lock_raw(&self) -> MutexGuard<'_, VecDeque<T>> {
        #[allow(clippy::unwrap_used)]
        self.ring.lock().unwrap()
    }
}
