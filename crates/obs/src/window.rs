//! Windowed histograms: a ring of mergeable sub-window histograms rotated
//! by a **logical, injected clock**.
//!
//! Cumulative-forever histograms answer "what has staleness looked like
//! since boot" — they cannot answer "what is staleness *right now*",
//! because ancient samples never age out. A [`WindowedHistogram`] keeps the
//! last [`WINDOW_SLOTS`] windows of samples in a fixed ring of plain
//! [`Histogram`]s; [`WindowedHistogram::windowed_snapshot`] merges exactly
//! the live windows, so percentiles reflect only recent behaviour.
//!
//! Rotation is driven by [`WindowedHistogram::advance_to`] with a caller-
//! supplied logical epoch — the replication pump passes its cycle counter,
//! the chaos measure mode passes its workload op count.
//! Nothing in this module reads the wall clock, so seeded chaos runs stay
//! byte-for-byte deterministic (the `chaos-determinism` lint relies on
//! this).
//!
//! Concurrency contract: any number of threads may call `record_nanos`;
//! **exactly one** thread calls `advance_to` (whichever thread steps the
//! pump, or the single-threaded measure loop). Snapshots may race a
//! rotation; a sample recorded exactly at a window boundary may land in
//! either adjacent window or be dropped, never double-counted into the
//! same snapshot twice (pinned by the mini-loom model in
//! `tests/window_models.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::{Histogram, HistogramSnapshot};

/// Number of sub-windows retained: a snapshot covers at most the last
/// `WINDOW_SLOTS` epochs.
pub const WINDOW_SLOTS: usize = 8;

/// Stamp value for a slot that has never held a window.
const EMPTY: u64 = u64::MAX;

/// One ring slot: the epoch it currently represents plus its samples.
#[derive(Debug)]
struct WindowSlot {
    stamp: AtomicU64,
    hist: Histogram,
}

/// A histogram over the last [`WINDOW_SLOTS`] logical-clock windows.
#[derive(Debug)]
pub struct WindowedHistogram {
    /// Current epoch; recording lands in slot `epoch % WINDOW_SLOTS`.
    epoch: AtomicU64,
    slots: [WindowSlot; WINDOW_SLOTS],
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        WindowedHistogram::new()
    }
}

impl WindowedHistogram {
    /// A fresh windowed histogram at epoch 0 with one live, empty window.
    pub fn new() -> WindowedHistogram {
        let w = WindowedHistogram {
            epoch: AtomicU64::new(0),
            slots: std::array::from_fn(|_| WindowSlot {
                stamp: AtomicU64::new(EMPTY),
                hist: Histogram::new(),
            }),
        };
        w.slots[0].stamp.store(0, Ordering::Relaxed);
        w
    }

    /// Record one sample (in nanoseconds — or any unit the caller keeps
    /// consistent, e.g. logical ticks or seqno distance) into the current
    /// window. Allocation-free, same cost as [`Histogram::record_nanos`]
    /// plus one relaxed load.
    #[inline]
    pub fn record_nanos(&self, nanos: u64) {
        let e = self.epoch.load(Ordering::Relaxed);
        self.slots[(e as usize) % WINDOW_SLOTS].hist.record_nanos(nanos);
    }

    /// Record a duration sample into the current window.
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        self.record_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// The current logical epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Advance the logical clock to `epoch`, opening fresh windows for
    /// every epoch in between (slots older than `WINDOW_SLOTS` epochs are
    /// recycled). Monotonic: a stale `epoch` is a no-op.
    ///
    /// Single-writer: only the clock-driving thread may call this. Each
    /// slot is cleared *before* its new stamp is published, so a
    /// concurrent snapshot sees either the old window intact or the new
    /// window empty — never a half-cleared hybrid attributed to the old
    /// epoch.
    pub fn advance_to(&self, epoch: u64) {
        let cur = self.epoch.load(Ordering::Relaxed);
        if epoch <= cur {
            return;
        }
        let first = (cur + 1).max(epoch.saturating_sub(WINDOW_SLOTS as u64 - 1));
        for e in first..=epoch {
            let slot = &self.slots[(e as usize) % WINDOW_SLOTS];
            slot.hist.reset();
            slot.stamp.store(e, Ordering::Release);
        }
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Merge the live windows (epochs `epoch - WINDOW_SLOTS + 1 ..= epoch`)
    /// into one mergeable snapshot.
    pub fn windowed_snapshot(&self) -> WindowedSnapshot {
        let e = self.epoch.load(Ordering::Acquire);
        let mut merged = HistogramSnapshot::empty();
        let mut windows = 0u64;
        for slot in &self.slots {
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == EMPTY || stamp > e || stamp + (WINDOW_SLOTS as u64) <= e {
                continue;
            }
            windows += 1;
            merged.merge(&slot.hist.snapshot());
        }
        WindowedSnapshot { epoch: e, windows, merged }
    }
}

/// Frozen merge of a [`WindowedHistogram`]'s live windows. Mergeable
/// across threads and nodes like [`HistogramSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowedSnapshot {
    /// Logical epoch at snapshot time (max wins on merge).
    pub epoch: u64,
    /// Live windows contributing to `merged` (max wins on merge).
    pub windows: u64,
    /// Bucket-wise merge of the live windows' samples.
    pub merged: HistogramSnapshot,
}

impl WindowedSnapshot {
    /// Fold another snapshot into this one: distributions add, the epoch
    /// and window count take the furthest-advanced contributor.
    pub fn merge(&mut self, other: &WindowedSnapshot) {
        self.epoch = self.epoch.max(other.epoch);
        self.windows = self.windows.max(other.windows);
        self.merged.merge(&other.merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_current_window() {
        let w = WindowedHistogram::new();
        w.record_nanos(100);
        w.record_nanos(200);
        let s = w.windowed_snapshot();
        assert_eq!(s.epoch, 0);
        assert_eq!(s.windows, 1);
        assert_eq!(s.merged.count(), 2);
    }

    #[test]
    fn advance_keeps_recent_windows() {
        let w = WindowedHistogram::new();
        w.record_nanos(1);
        w.advance_to(1);
        w.record_nanos(2);
        let s = w.windowed_snapshot();
        assert_eq!(s.epoch, 1);
        assert_eq!(s.windows, 2);
        assert_eq!(s.merged.count(), 2, "both windows still live");
    }

    #[test]
    fn old_windows_age_out() {
        let w = WindowedHistogram::new();
        for e in 0..WINDOW_SLOTS as u64 {
            w.record_nanos(10);
            w.advance_to(e + 1);
        }
        // All samples were recorded in epochs 0..WINDOW_SLOTS-1; the
        // current epoch is WINDOW_SLOTS, so epoch 0's samples are gone.
        let s = w.windowed_snapshot();
        assert_eq!(s.merged.count(), WINDOW_SLOTS as u64 - 1);
    }

    #[test]
    fn large_jump_clears_everything() {
        let w = WindowedHistogram::new();
        for _ in 0..50 {
            w.record_nanos(5);
        }
        w.advance_to(1_000_000);
        let s = w.windowed_snapshot();
        assert_eq!(s.epoch, 1_000_000);
        assert!(s.merged.is_empty(), "a jump past the ring drops all old samples");
        w.record_nanos(7);
        assert_eq!(w.windowed_snapshot().merged.count(), 1);
    }

    #[test]
    fn advance_is_monotonic() {
        let w = WindowedHistogram::new();
        w.advance_to(5);
        w.record_nanos(1);
        w.advance_to(3); // stale: no-op
        assert_eq!(w.epoch(), 5);
        assert_eq!(w.windowed_snapshot().merged.count(), 1);
    }

    #[test]
    fn advance_to_equal_epoch_keeps_every_window() {
        let w = WindowedHistogram::new();
        w.record_nanos(10);
        w.advance_to(2);
        w.record_nanos(20);
        let before = w.windowed_snapshot();
        // Re-announcing the current epoch must not panic, rotate, or clear
        // any live window — the driving clock may legitimately tick twice
        // with the same logical time.
        w.advance_to(2);
        let after = w.windowed_snapshot();
        assert_eq!(after.epoch, 2);
        assert_eq!(after.windows, before.windows);
        assert_eq!(after.merged.count(), before.merged.count());
        // And the current window still accepts samples afterwards.
        w.record_nanos(30);
        assert_eq!(w.windowed_snapshot().merged.count(), 3);
    }

    #[test]
    fn advance_to_backwards_epoch_is_a_lossless_noop() {
        let w = WindowedHistogram::new();
        w.advance_to(10);
        w.record_nanos(100);
        w.advance_to(11);
        w.record_nanos(200);
        let before = w.windowed_snapshot();
        for stale in [0, 5, 10] {
            w.advance_to(stale);
        }
        let after = w.windowed_snapshot();
        assert_eq!(after.epoch, 11, "clock never moves backwards");
        assert_eq!(after.merged.count(), before.merged.count(), "no window lost");
        assert_eq!(after.windows, before.windows);
    }

    #[test]
    fn percentiles_at_empty_window_edges() {
        let w = WindowedHistogram::new();
        // All windows empty: every percentile is None, not a panic or zero.
        let empty = w.windowed_snapshot();
        assert_eq!(empty.merged.percentile(0.0), None);
        assert_eq!(empty.merged.percentile(50.0), None);
        assert_eq!(empty.merged.percentile(100.0), None);
        // One live-but-empty window beside one populated window: the empty
        // window contributes to the window count but not the distribution,
        // and edge percentiles interpolate within the observed range.
        w.record_nanos(1_000);
        w.record_nanos(3_000);
        w.advance_to(1); // epoch 1 stays empty
        let s = w.windowed_snapshot();
        assert_eq!(s.windows, 2);
        assert_eq!(s.merged.count(), 2);
        let p0 = s.merged.percentile(0.0).unwrap();
        let p100 = s.merged.percentile(100.0).unwrap();
        let max = std::time::Duration::from_nanos(3_000);
        assert!(p0 >= std::time::Duration::from_nanos(1) && p0 <= max, "p0 within observed range");
        assert!(p100 >= p0 && p100 <= max, "p100 clamped to observed max");
    }

    #[test]
    fn slot_reuse_does_not_resurrect_samples() {
        let w = WindowedHistogram::new();
        w.record_nanos(42);
        // Epoch WINDOW_SLOTS reuses slot 0; its old samples must be gone
        // even though epoch 0 only just left the live range.
        w.advance_to(WINDOW_SLOTS as u64);
        assert!(w.windowed_snapshot().merged.is_empty());
    }

    #[test]
    fn snapshots_merge_across_instances() {
        let a = WindowedHistogram::new();
        let b = WindowedHistogram::new();
        a.advance_to(3);
        a.record_nanos(1000);
        b.advance_to(7);
        b.record_nanos(2000);
        b.record_nanos(3000);
        let mut m = a.windowed_snapshot();
        m.merge(&b.windowed_snapshot());
        assert_eq!(m.epoch, 7);
        assert_eq!(m.merged.count(), 3);
    }

    #[test]
    fn concurrent_recording_during_rotation() {
        let w = std::sync::Arc::new(WindowedHistogram::new());
        std::thread::scope(|s| {
            for _ in 0..3 {
                let w = std::sync::Arc::clone(&w);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        w.record_nanos(i);
                    }
                });
            }
            let w = std::sync::Arc::clone(&w);
            s.spawn(move || {
                for e in 1..=64u64 {
                    w.advance_to(e);
                }
            });
        });
        // Liveness only: the count depends on rotation timing, but the
        // snapshot machinery must stay coherent (no panic, count bounded).
        let s = w.windowed_snapshot();
        assert!(s.merged.count() <= 30_000);
        assert_eq!(s.epoch, 64);
    }
}
