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

/// Bits (lanes) per storage word.
pub(crate) const WORD: usize = 64;

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
    full_word(match lanes % WORD {
        0 => WORD,
        rem => rem,
    })
}

/// The word with its low `n` bits set (`1 <= n <= 64`): what a storage
/// word covering `n` lanes holds when every one of them is active.
#[inline(always)]
pub(crate) fn full_word(n: usize) -> u64 {
    debug_assert!((1..=WORD).contains(&n));
    u64::MAX >> (WORD - n)
}

/// The set bit positions of one storage word, ascending.
#[inline(always)]
pub(crate) fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// One byte per lane of a mask byte (eight lanes): byte `k` of the result
/// is `0xFF` where bit `k` of `m` is set and `0` elsewhere, so per-lane
/// byte strips (the type tags) can be tested and rewritten eight lanes at
/// a time with plain `u64` logic.
#[inline(always)]
pub(crate) fn byte_lanes(m: u8) -> u64 {
    // Copy `m` into every byte and keep bit `k` in byte `k`; a byte that
    // kept its bit is at least 1 and at most 0x80, so adding 0x7F carries
    // into its top bit and never out of it.
    let kept = u64::from(m).wrapping_mul(0x0101_0101_0101_0101) & 0x8040_2010_0804_0201;
    ((kept + 0x7F7F_7F7F_7F7F_7F7F) >> 7 & 0x0101_0101_0101_0101) * 0xFF
}

/// The bits of `live` (a storage word covering `n` lanes) whose position
/// satisfies `keep`. A fully active word takes the straight loop over its
/// `n` lanes, anything else visits its set bits only.
#[inline(always)]
pub(crate) fn pack_word(live: u64, n: usize, keep: impl Fn(usize) -> bool) -> u64 {
    if live == full_word(n) {
        (0..n).fold(0, |acc, bit| acc | u64::from(keep(bit)) << bit)
    } else {
        set_bits(live).fold(0, |acc, bit| acc | u64::from(keep(bit)) << bit)
    }
}

impl LaneMask {
    /// All `lanes` lanes active.
    #[cfg(any(test, feature = "oracle"))]
    pub fn full(lanes: usize) -> LaneMask {
        let n = lanes.div_ceil(WORD);
        let mut words = vec![u64::MAX; n];
        if let Some(last) = words.last_mut() {
            *last = tail_pattern(lanes);
        }
        LaneMask { lanes, words }
    }

    /// No lanes active.
    #[cfg(any(test, feature = "oracle"))]
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

    /// `self |= other` — e.g. "returned lanes gain the returning mask".
    pub fn or_assign(&mut self, other: &LaneMask) {
        debug_assert_eq!(self.lanes, other.lanes);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Eight lanes of the mask: lane `8 * j + k` in bit `k` (see
    /// [`byte_lanes`]).
    #[inline(always)]
    pub(crate) fn byte(&self, j: usize) -> u8 {
        (self.words[j / 8] >> (j % 8 * 8)) as u8
    }

    /// The active lanes as the strip loops want them: each maximal run of
    /// fully active storage words as one [`Span::Run`] of lanes (the whole
    /// block, under the all-ones mask), every other word with an active
    /// lane as a [`Span::Word`]. Ascending, so a loop over the spans
    /// visits active lanes in lane order.
    #[inline]
    pub(crate) fn spans(&self) -> impl Iterator<Item = Span> + '_ {
        let (lanes, words) = (self.lanes, &self.words[..]);
        let is_full = move |w: usize| words[w] == full_word((lanes - w * WORD).min(WORD));
        let mut w = 0;
        std::iter::from_fn(move || {
            while w < words.len() && words[w] == 0 {
                w += 1;
            }
            if w == words.len() {
                return None;
            }
            let first = w;
            if !is_full(w) {
                w += 1;
                return Some(Span::Word(first * WORD, words[first]));
            }
            while w < words.len() && is_full(w) {
                w += 1;
            }
            Some(Span::Run(first * WORD..(w * WORD).min(lanes)))
        })
    }

    /// [`LaneMask::spans`] cut at every multiple of `block_lanes`, each
    /// piece tagged with the block (`lane / block_lanes`) its lanes belong
    /// to: a row of several blocks visits one block's active lanes at a
    /// time, in lane order. A cut [`Span::Run`] may start inside a word.
    #[inline]
    pub(crate) fn block_spans(
        &self,
        block_lanes: usize,
    ) -> impl Iterator<Item = (usize, Span)> + '_ {
        let mut spans = self.spans();
        let mut rest = None;
        let one_block = block_lanes >= self.lanes;
        std::iter::from_fn(move || {
            let span = rest.take().or_else(|| spans.next())?;
            if one_block {
                return Some((0, span));
            }
            let first_lane = match &span {
                Span::Run(r) => r.start,
                Span::Word(first, bits) => first + bits.trailing_zeros() as usize,
            };
            let block = first_lane / block_lanes;
            let end = (block + 1) * block_lanes;
            Some(match span {
                Span::Run(r) if r.end > end => {
                    rest = Some(Span::Run(end..r.end));
                    (block, Span::Run(r.start..end))
                }
                Span::Word(first, bits) if end - first < WORD => {
                    let head = bits & full_word(end - first);
                    if bits != head {
                        rest = Some(Span::Word(first, bits & !head));
                    }
                    (block, Span::Word(first, head))
                }
                span => (block, span),
            })
        })
    }

    /// Whether any lane of `lanes` is active, and whether all are.
    pub(crate) fn range_state(&self, lanes: std::ops::Range<usize>) -> (bool, bool) {
        let (mut any, mut all) = (false, true);
        let mut lane = lanes.start;
        while lane < lanes.end {
            let n = (lanes.end - lane).min(WORD - lane % WORD);
            let bits = self.words[lane / WORD] >> (lane % WORD) & full_word(n);
            any |= bits != 0;
            all &= bits == full_word(n);
            lane += n;
        }
        (any, all)
    }

    /// The first active lane at or after `lane`.
    pub(crate) fn first_set_from(&self, lane: usize) -> Option<usize> {
        let mut w = lane / WORD;
        let mut bits = self.words.get(w)? & (u64::MAX << (lane % WORD));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w * WORD + bits.trailing_zeros() as usize)
    }

    /// Refine the mask a storage word at a time: `keep(first, n, live)`
    /// sees the word holding lanes `first..first + n` and returns the bits
    /// of `live` that stay active (see [`pack_word`]). Words with no active
    /// lane are skipped; a returned bit outside `live` is ignored.
    #[inline(always)]
    pub(crate) fn refine_words(&mut self, mut keep: impl FnMut(usize, usize, u64) -> u64) {
        let lanes = self.lanes;
        for (w, word) in self.words.iter_mut().enumerate() {
            if *word != 0 {
                let first = w * WORD;
                *word &= keep(first, (lanes - first).min(WORD), *word);
            }
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

/// One step of [`LaneMask::spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Span {
    /// These lanes are all active: whole storage words, so the range
    /// starts on a word boundary.
    Run(std::ops::Range<usize>),
    /// The storage word starting at this lane, with these bits active
    /// (some, not all): visit them with [`set_bits`].
    Word(usize, u64),
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
        let mut d = LaneMask::empty(65);
        d.set(1, true);
        d.or_assign(&b);
        assert_eq!(d.iter_set().collect::<Vec<_>>(), vec![1, 3, 64]);
    }

    #[test]
    fn byte_lanes_spreads_every_mask_byte() {
        for m in 0..=u8::MAX {
            let want = (0..8).fold(0u64, |acc, k| {
                acc | if m >> k & 1 != 0 { 0xFF << (8 * k) } else { 0 }
            });
            assert_eq!(byte_lanes(m), want, "m={m:#010b}");
        }
        let mut m = LaneMask::empty(100);
        for lane in [0, 9, 63, 64, 99] {
            m.set(lane, true);
        }
        let bytes: Vec<u8> = (0..13).map(|j| m.byte(j)).collect();
        for lane in 0..100 {
            assert_eq!(bytes[lane / 8] >> (lane % 8) & 1 != 0, m.get(lane));
        }
        assert_eq!(bytes[12] >> 4, 0, "bits past the last lane stay zero");
    }

    #[test]
    fn word_helpers() {
        assert_eq!(full_word(1), 1);
        assert_eq!(full_word(8), 0xFF);
        assert_eq!(full_word(64), u64::MAX);
        assert_eq!(set_bits(0).count(), 0);
        assert_eq!(
            set_bits(1 | 1 << 5 | 1 << 63).collect::<Vec<_>>(),
            vec![0, 5, 63]
        );
        // Both arms of `pack_word` keep exactly the live bits that satisfy
        // the predicate, and never ask about a lane past `n`.
        for n in [1usize, 8, 36, 64] {
            for live in [full_word(n), full_word(n) & 0xAAAA_AAAA_AAAA_AAAA, 1, 0] {
                let got = pack_word(live, n, |bit| {
                    assert!(bit < n);
                    bit % 3 != 0
                });
                let want = (0..n)
                    .filter(|bit| live >> bit & 1 != 0 && bit % 3 != 0)
                    .fold(0u64, |acc, bit| acc | 1 << bit);
                assert_eq!(got, want, "n={n} live={live:#x}");
            }
        }
    }

    /// The lane counts of the row-state tests (the CPU profile's 8-lane
    /// warp, one exact word, a ragged tail, several words), each under
    /// the mask shapes a launch produces.
    fn shaped_masks() -> Vec<LaneMask> {
        let mut out = Vec::new();
        for lanes in [8usize, 64, 100, 128, 256] {
            let shapes: [&dyn Fn(usize) -> bool; 7] = [
                &|_| false,
                &|l| l == lanes / 2,
                &|l| l != lanes / 3,
                &|_| true,
                &|l| l < 64,
                &|l| l < lanes * 2 / 3,
                &|l| l >= 64 && l % 7 != 0 || l >= 128,
            ];
            for active in shapes {
                let mut m = LaneMask::empty(lanes);
                for lane in (0..lanes).filter(|&l| active(l)) {
                    m.set(lane, true);
                }
                out.push(m);
            }
        }
        out
    }

    #[test]
    fn spans_cover_exactly_the_active_lanes_in_order() {
        for lanes in [8usize, 64, 100, 128, 256] {
            let full = LaneMask::full(lanes);
            assert_eq!(full.spans().collect::<Vec<_>>(), vec![Span::Run(0..lanes)]);
            assert_eq!(LaneMask::empty(lanes).spans().count(), 0);
        }
        for (i, m) in shaped_masks().into_iter().enumerate() {
            let lanes = m.lanes();
            let mut seen = Vec::new();
            for span in m.spans() {
                match span {
                    Span::Run(r) => {
                        assert!(r.start % WORD == 0 && !r.is_empty());
                        seen.extend(r);
                    }
                    Span::Word(first, bits) => {
                        assert!(first % WORD == 0 && bits != 0);
                        assert_ne!(bits, full_word((lanes - first).min(WORD)));
                        seen.extend(set_bits(bits).map(|b| first + b));
                    }
                }
            }
            let want: Vec<usize> = m.iter_set().collect();
            assert_eq!(seen, want, "lanes={lanes} shape={i}");
        }
        // Adjacent full words coalesce; a partial word splits the run.
        let mut m = LaneMask::full(256);
        m.set(130, false);
        assert_eq!(
            m.spans().collect::<Vec<_>>(),
            vec![
                Span::Run(0..128),
                Span::Word(128, !(1 << 2)),
                Span::Run(192..256)
            ]
        );
    }

    #[test]
    fn block_queries_match_the_per_lane_loop() {
        for (i, m) in shaped_masks().into_iter().enumerate() {
            let lanes = m.lanes();
            for block in [8usize, 24, 32, 64, 96, 1000] {
                let mut visited = Vec::new();
                for (b, span) in m.block_spans(block) {
                    let span_lanes: Vec<usize> = match span {
                        Span::Run(r) => r.collect(),
                        Span::Word(first, bits) => set_bits(bits).map(|k| first + k).collect(),
                    };
                    assert!(
                        !span_lanes.is_empty(),
                        "mask {i}, block {block}: empty span"
                    );
                    assert!(
                        span_lanes.iter().all(|&l| l / block == b),
                        "mask {i}, block {block}: span crosses block {b}"
                    );
                    visited.extend(span_lanes);
                }
                assert_eq!(
                    visited,
                    m.iter_set().collect::<Vec<_>>(),
                    "mask {i}, block {block}"
                );
                for lo in (0..lanes).step_by(block) {
                    let hi = (lo + block).min(lanes);
                    let any = (lo..hi).any(|l| m.get(l));
                    let all = (lo..hi).all(|l| m.get(l));
                    assert_eq!(m.range_state(lo..hi), (any, all), "mask {i}, {lo}..{hi}");
                    let first = (lo..lanes).find(|&l| m.get(l));
                    assert_eq!(m.first_set_from(lo), first, "mask {i}, from {lo}");
                }
            }
        }
    }

    #[test]
    fn refine_words_matches_the_per_lane_loop() {
        for (i, mut m) in shaped_masks().into_iter().enumerate() {
            let lanes = m.lanes();
            let keep = |lane: usize| lane % 5 != 2;
            let mut want = m.clone();
            for lane in 0..lanes {
                if want.get(lane) && !keep(lane) {
                    want.set(lane, false);
                }
            }
            let mut seen = 0;
            m.refine_words(|first, n, live| {
                assert!(live != 0 && first % WORD == 0 && first + n <= lanes);
                assert_eq!(n, (lanes - first).min(WORD));
                seen += live.count_ones() as usize;
                // Bits outside `live` (here: all of them) are ignored.
                pack_word(full_word(n), n, |bit| keep(first + bit))
            });
            assert_eq!(m, want, "lanes={lanes} shape={i}");
            assert!(seen >= want.count());
        }
    }
}
