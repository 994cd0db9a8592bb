//! Per-warp `u64` divergence bitsets shared by both execution engines.
//!
//! A [`LaneMask`] records which lanes of a thread block are active. It
//! replaces the historical `Vec<bool>` masks: one bit per lane, packed in
//! `u64` words, so `any`/`all`/warp-occupancy queries are word-wise
//! instead of lane-wise and mask clones are eight times smaller. Warp
//! widths used by the device profiles (32 and 8) divide the word size, so
//! a warp's bits never straddle a word boundary and the active-warp count
//! behind every cycle charge is a shift-and-mask per warp.
//!
//! The tail bits past `lanes` are kept zero at all times; `all` compares
//! whole words against the full pattern and the final partial word against
//! the tail pattern.

/// Bits per storage word.
const WORD: usize = 64;

/// Widest warp the device supports: a warp's bits must fit one mask word.
/// [`crate::DeviceProfile::validate`] enforces it (and that the width is a
/// power of two, so no warp straddles a word), which is what lets
/// [`LaneMask::warp_bits`] and the memory pipeline's per-warp transaction
/// sets work on fixed-size storage.
pub(crate) const MAX_WARP_LANES: usize = WORD;

/// A per-lane activity bitset for one thread block.
///
/// The `Default` mask is `empty(0)` — a zero-lane placeholder used by the
/// executors' growable mask arenas.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct LaneMask {
    lanes: usize,
    words: Vec<u64>,
}

/// Full-word pattern for the trailing partial word of an `lanes`-bit mask
/// (all ones when `lanes` is a multiple of 64).
#[inline]
fn tail_pattern(lanes: usize) -> u64 {
    let rem = lanes % WORD;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

impl LaneMask {
    /// All `lanes` lanes active.
    pub fn full(lanes: usize) -> LaneMask {
        let n = lanes.div_ceil(WORD);
        let mut words = vec![u64::MAX; n];
        if let Some(last) = words.last_mut() {
            *last = tail_pattern(lanes);
        }
        LaneMask { lanes, words }
    }

    /// No lanes active.
    pub fn empty(lanes: usize) -> LaneMask {
        LaneMask {
            lanes,
            words: vec![0; lanes.div_ceil(WORD)],
        }
    }

    /// Number of lanes this mask covers (active or not).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Is lane `lane` active?
    #[inline]
    pub fn get(&self, lane: usize) -> bool {
        debug_assert!(lane < self.lanes);
        self.words[lane / WORD] >> (lane % WORD) & 1 != 0
    }

    /// Set lane `lane` to `value`.
    #[inline]
    pub fn set(&mut self, lane: usize, value: bool) {
        debug_assert!(lane < self.lanes);
        let bit = 1u64 << (lane % WORD);
        if value {
            self.words[lane / WORD] |= bit;
        } else {
            self.words[lane / WORD] &= !bit;
        }
    }

    /// Is at least one lane active?
    #[inline]
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of active lanes.
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Are all lanes active?
    #[inline]
    pub fn all(&self) -> bool {
        if self.lanes == 0 {
            return true;
        }
        let (last, body) = self.words.split_last().expect("non-empty");
        body.iter().all(|&w| w == u64::MAX) && *last == tail_pattern(self.lanes)
    }

    /// Reset to an all-inactive mask over `lanes` lanes, reusing the
    /// allocation.
    pub fn reset_empty(&mut self, lanes: usize) {
        self.lanes = lanes;
        self.words.clear();
        self.words.resize(lanes.div_ceil(WORD), 0);
    }

    /// Reset to an all-active mask over `lanes` lanes, reusing the
    /// allocation.
    pub fn reset_full(&mut self, lanes: usize) {
        self.lanes = lanes;
        self.words.clear();
        self.words.resize(lanes.div_ceil(WORD), u64::MAX);
        if let Some(last) = self.words.last_mut() {
            *last = tail_pattern(lanes);
        }
    }

    /// Reuse this mask's allocation to copy `other`.
    pub fn copy_from(&mut self, other: &LaneMask) {
        self.lanes = other.lanes;
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    /// `self &= !other` — e.g. "live = mask minus returned lanes".
    pub fn and_not_assign(&mut self, other: &LaneMask) {
        debug_assert_eq!(self.lanes, other.lanes);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// The bits of the warp starting at lane `start`, `width` lanes wide
    /// (`width` ≤ 64 and warps never straddle a word because
    /// [`crate::DeviceProfile::validate`] only admits warp widths that
    /// divide 64). Bits past the block size read as zero.
    #[inline]
    pub fn warp_bits(&self, start: usize, width: usize) -> u64 {
        debug_assert!(width <= WORD && start.is_multiple_of(width));
        let w = self.words[start / WORD] >> (start % WORD);
        if width == WORD {
            w
        } else {
            w & ((1u64 << width) - 1)
        }
    }

    /// Number of warps (of `warp_width` lanes) with at least one active
    /// lane. This is the quantity behind every per-warp cycle charge.
    pub fn active_warps(&self, warp_width: usize) -> usize {
        let mut n = 0;
        let mut start = 0;
        while start < self.lanes {
            if self.warp_bits(start, warp_width) != 0 {
                n += 1;
            }
            start += warp_width;
        }
        n
    }

    /// Iterate the active lane indices in ascending order.
    #[inline]
    pub fn iter_set(&self) -> SetLanes<'_> {
        SetLanes {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over the set lane indices of a [`LaneMask`].
pub struct SetLanes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for SetLanes<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_and_empty_masks() {
        for lanes in [0, 1, 31, 32, 63, 64, 65, 100, 128, 1024] {
            let f = LaneMask::full(lanes);
            let e = LaneMask::empty(lanes);
            assert!(f.all(), "full({lanes}) must be all");
            assert_eq!(f.any(), lanes > 0);
            assert_eq!(f.iter_set().count(), lanes);
            assert_eq!(f.count(), lanes);
            assert_eq!(e.count(), 0);
            assert!(!e.any());
            assert_eq!(e.all(), lanes == 0);
            assert_eq!(e.iter_set().count(), 0);
            for lane in 0..lanes {
                assert!(f.get(lane));
                assert!(!e.get(lane));
            }
        }
    }

    #[test]
    fn set_get_roundtrip_and_tail_invariant() {
        let mut m = LaneMask::empty(70);
        m.set(0, true);
        m.set(63, true);
        m.set(64, true);
        m.set(69, true);
        assert_eq!(m.iter_set().collect::<Vec<_>>(), vec![0, 63, 64, 69]);
        assert_eq!(m.iter_set().count(), 4);
        m.set(63, false);
        assert_eq!(m.iter_set().collect::<Vec<_>>(), vec![0, 64, 69]);
        assert!(!m.all());
        for lane in [1, 2, 3, 63, 65, 66, 67, 68] {
            m.set(lane, true);
        }
        for lane in [0, 64, 69] {
            assert!(m.get(lane));
        }
        // Now only lanes 4..63 are missing.
        for lane in 4..63 {
            m.set(lane, true);
        }
        assert!(m.all());
    }

    #[test]
    fn warp_queries() {
        let mut m = LaneMask::empty(96);
        m.set(5, true); // warp 0 (width 32)
        m.set(70, true); // warp 2
        assert_eq!(m.active_warps(32), 2);
        assert_eq!(m.active_warps(8), 2);
        assert_eq!(m.warp_bits(0, 32), 1 << 5);
        assert_eq!(m.warp_bits(32, 32), 0);
        assert_eq!(m.warp_bits(64, 32), 1 << 6);
        assert_eq!(LaneMask::full(96).active_warps(32), 3);
        // Partial final warp still counts when any of its lanes is live.
        let mut p = LaneMask::empty(40);
        p.set(39, true);
        assert_eq!(p.active_warps(32), 1);
        assert_eq!(LaneMask::full(40).active_warps(32), 2);
    }

    #[test]
    fn boolean_mask_algebra() {
        let mut a = LaneMask::full(65);
        let mut b = LaneMask::empty(65);
        b.set(3, true);
        b.set(64, true);
        a.and_not_assign(&b);
        assert!(!a.get(3) && !a.get(64) && a.get(0) && a.get(63));
        assert_eq!(a.iter_set().count(), 63);
        a.and_not_assign(&LaneMask::full(65));
        assert!(!a.any());
        let mut c = LaneMask::empty(8);
        c.copy_from(&b);
        assert_eq!(c, b);
        c.reset_empty(65);
        assert!(!c.any());
        assert_eq!(c.lanes(), 65);
        c.reset_full(70);
        assert_eq!(c.lanes(), 70);
        assert!(c.all());
        c.reset_empty(3);
        assert_eq!(c.lanes(), 3);
        assert!(!c.any());
        assert_eq!(LaneMask::default(), LaneMask::empty(0));
    }
}
