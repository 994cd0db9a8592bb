//! A dependency-free work-stealing scheduler for block-parallel execution.
//!
//! The interpreter executes independent thread blocks; this module hands
//! block indices to a fixed set of host workers. Each worker owns a
//! contiguous range of block ids packed into one `AtomicU64`
//! (`start` in the high half, `end` in the low half). A worker pops from
//! the *front* of its own range; when its range drains it steals the *back*
//! half of a victim's range and installs the loot as its new range. All
//! transfers are CAS transitions on the victim's slot, so every block id is
//! handed out exactly once without locks or `unsafe`.
//!
//! Which worker executes which block is schedule-dependent, but the
//! executor makes block results order-independent (see `exec.rs`), so the
//! scheduler needs no fairness or ordering guarantees — only the
//! exactly-once property.

use std::sync::atomic::{AtomicU64, Ordering};

/// Pack a `[start, end)` range of block ids into one atomic word.
fn pack(start: u32, end: u32) -> u64 {
    (u64::from(start) << 32) | u64::from(end)
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// A fixed-worker work-stealing queue over the block ids `0..total`.
pub(crate) struct WorkQueue {
    slots: Vec<AtomicU64>,
}

impl WorkQueue {
    /// Partition `0..total` into `workers` contiguous ranges (the first
    /// `total % workers` ranges get one extra block).
    pub(crate) fn new(total: usize, workers: usize) -> WorkQueue {
        assert!(workers > 0, "need at least one worker");
        assert!(total <= u32::MAX as usize, "block count exceeds u32 range");
        let base = total / workers;
        let extra = total % workers;
        let mut start = 0u32;
        let slots = (0..workers)
            .map(|w| {
                let len = (base + usize::from(w < extra)) as u32;
                let slot = AtomicU64::new(pack(start, start + len));
                start += len;
                slot
            })
            .collect();
        WorkQueue { slots }
    }

    /// Take the next block id for `worker`: the front of its own range, or
    /// a stolen batch from another worker. Returns `None` when no work is
    /// visible anywhere. (Work held by a thief mid-transfer is invisible to
    /// this scan; the thief itself will execute it, so every block still
    /// runs exactly once.)
    pub(crate) fn pop(&self, worker: usize) -> Option<usize> {
        loop {
            let cur = self.slots[worker].load(Ordering::Acquire);
            let (start, end) = unpack(cur);
            if start < end {
                if self.slots[worker]
                    .compare_exchange_weak(
                        cur,
                        pack(start + 1, end),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    return Some(start as usize);
                }
                continue; // lost a race on our own slot; retry
            }
            match self.steal(worker) {
                Some(id) => return Some(id),
                None => return None,
            }
        }
    }

    /// Steal the back half of some victim's range. The first stolen id is
    /// returned; the rest becomes the thief's own range.
    fn steal(&self, thief: usize) -> Option<usize> {
        let n = self.slots.len();
        for offset in 1..n {
            let victim = (thief + offset) % n;
            loop {
                let cur = self.slots[victim].load(Ordering::Acquire);
                let (start, end) = unpack(cur);
                if start >= end {
                    break; // victim empty; try the next one
                }
                // Victim keeps the front half, thief takes [mid, end).
                let mid = start + (end - start) / 2;
                if self.slots[victim]
                    .compare_exchange(cur, pack(start, mid), Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // Our own slot is empty (pop checked it) and nobody
                    // steals from an empty slot, so a plain store is safe.
                    self.slots[thief].store(pack(mid + 1, end), Ordering::Release);
                    return Some(mid as usize);
                }
                // Lost the race for this victim; re-read its range.
            }
        }
        None
    }
}

/// Number of host threads to use when a profile requests "auto" (0).
pub(crate) fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolve a device's worker count, once, when it is created: the
/// `PARAPROX_THREADS` environment variable (if set to a positive integer)
/// overrides the profile's `parallelism` knob; `0` in either place means
/// "all available cores".
pub(crate) fn resolve_workers(profile_parallelism: usize) -> usize {
    if let Ok(v) = std::env::var("PARAPROX_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    if profile_parallelism > 0 {
        profile_parallelism
    } else {
        default_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_worker_drains_in_order() {
        let q = WorkQueue::new(7, 1);
        let got: Vec<usize> = std::iter::from_fn(|| q.pop(0)).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let q = WorkQueue::new(0, 3);
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(2), None);
    }

    #[test]
    fn partition_covers_everything_without_overlap() {
        for total in [1usize, 2, 5, 16, 33] {
            for workers in [1usize, 2, 3, 8] {
                let q = WorkQueue::new(total, workers);
                let mut seen = vec![false; total];
                // Interleave: one pop per worker first, then drain.
                for w in 0..workers {
                    if let Some(id) = q.pop(w) {
                        assert!(!seen[id], "block {id} handed out twice");
                        seen[id] = true;
                    }
                }
                // Drain the rest from worker 0 (stealing).
                while let Some(id) = q.pop(0) {
                    assert!(!seen[id], "block {id} handed out twice");
                    seen[id] = true;
                }
                assert!(seen.iter().all(|&s| s), "{total}/{workers}: blocks lost");
            }
        }
    }

    #[test]
    fn concurrent_workers_each_block_exactly_once() {
        let total = 1000usize;
        let workers = 4usize;
        let q = WorkQueue::new(total, workers);
        let claims: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for w in 0..workers {
                let q = &q;
                let claims = &claims;
                s.spawn(move || {
                    while let Some(id) = q.pop(w) {
                        claims[id].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        for (id, c) in claims.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "block {id} claimed wrongly");
        }
    }

    #[test]
    fn resolver_prefers_env_then_profile_then_cores() {
        // The env var is global process state; tests elsewhere must not set
        // it, so only exercise the profile/default fallbacks here.
        if std::env::var("PARAPROX_THREADS").is_err() {
            assert_eq!(resolve_workers(3), 3);
            assert_eq!(resolve_workers(0), default_parallelism());
        }
        assert!(default_parallelism() >= 1);
    }
}
