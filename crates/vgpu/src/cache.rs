//! A set-associative LRU cache model used for the L1 and constant caches.
//!
//! Addresses are byte addresses in the device's flat address space; the
//! cache tracks lines only (no data — the backing store is always the
//! buffer contents, which keeps the model trivially coherent).

use crate::profile::ProfileError;

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry: at least one, also for a
    /// geometry [`CacheGeometry::validate`] rejects.
    pub fn sets(&self) -> usize {
        (self.bytes / self.line.max(1) / self.ways.max(1)).max(1)
    }

    /// Check that a cache can be built from this geometry: a capacity of
    /// at least one byte, at least one way, and lines of whole 4-byte
    /// words. `cache` names the cache in the error.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition.
    pub fn validate(&self, cache: &'static str) -> Result<(), ProfileError> {
        if self.line == 0 || !self.line.is_multiple_of(4) {
            return Err(ProfileError::CacheLine {
                cache,
                line: self.line,
            });
        }
        if self.ways == 0 {
            return Err(ProfileError::CacheWays { cache });
        }
        if self.bytes == 0 {
            return Err(ProfileError::CacheBytes { cache });
        }
        Ok(())
    }
}

/// Cache configuration for a device: L1 (global memory) and constant cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Geometry of the L1 data cache in front of global memory.
    pub l1: CacheGeometry,
    /// Geometry of the constant cache.
    pub constant: CacheGeometry,
}

impl CacheConfig {
    /// Fermi-style 16 KB L1 + 8 KB constant cache (paper's default split:
    /// 48 KB shared / 16 KB L1).
    pub fn gpu_l1_16k() -> CacheConfig {
        CacheConfig {
            l1: CacheGeometry {
                bytes: 16 * 1024,
                line: 128,
                ways: 4,
            },
            constant: CacheGeometry {
                bytes: 8 * 1024,
                line: 64,
                ways: 4,
            },
        }
    }

    /// Fermi-style 48 KB L1 (the paper's Fig. 16 experiment flips the
    /// shared/L1 split to 32 KB L1; this helper takes the size explicitly).
    pub fn gpu_l1_bytes(bytes: usize) -> CacheConfig {
        CacheConfig {
            l1: CacheGeometry {
                bytes,
                line: 128,
                ways: 4,
            },
            constant: CacheGeometry {
                bytes: 8 * 1024,
                line: 64,
                ways: 4,
            },
        }
    }

    /// CPU-style 256 KB private cache with 64-byte lines.
    pub fn cpu_l1_256k() -> CacheConfig {
        CacheConfig {
            l1: CacheGeometry {
                bytes: 256 * 1024,
                line: 64,
                ways: 8,
            },
            constant: CacheGeometry {
                bytes: 32 * 1024,
                line: 64,
                ways: 8,
            },
        }
    }
}

/// Tag stored in a way that holds no line. [`CacheGeometry::validate`]
/// requires lines of at least one 4-byte word, so a real line tag
/// (`addr / line`) never reaches it.
const EMPTY: u64 = u64::MAX;

/// A set-associative LRU cache over byte addresses (tags only).
///
/// All sets live in one flat tag array, so a cache is two heap blocks of
/// fixed size for its whole life: an access rotates tags in place and
/// [`Cache::copy_from`] is a `memcpy`.
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// `sets × ways` line tags. Set `s` owns `tags[s * ways..][..ways]` in
    /// LRU order (front = MRU); [`EMPTY`] ways stay at the tail.
    tags: Vec<u64>,
    sets: u64,
    /// `log2(line)` when the line size is a power of two.
    line_shift: Option<u32>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Create an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics with `invalid cache geometry: …` when
    /// [`CacheGeometry::validate`] rejects `geometry`.
    pub fn new(geometry: CacheGeometry) -> Cache {
        if let Err(e) = geometry.validate("cache") {
            panic!("invalid cache geometry: {e}");
        }
        let sets = geometry.sets();
        Cache {
            geometry,
            tags: vec![EMPTY; sets * geometry.ways],
            sets: sets as u64,
            line_shift: geometry
                .line
                .is_power_of_two()
                .then(|| geometry.line.trailing_zeros()),
            hits: 0,
            misses: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Line size in bytes.
    pub fn line(&self) -> usize {
        self.geometry.line
    }

    /// The line tag (`addr / line`) of byte address `addr`; a shift for
    /// power-of-two lines.
    #[inline]
    pub(crate) fn line_of(&self, addr: u64) -> u64 {
        match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.geometry.line as u64,
        }
    }

    /// Access the line containing byte `addr`; returns `true` on a hit.
    /// On a miss the line is installed, evicting the set's LRU line if the
    /// set is full.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(self.line_of(addr))
    }

    /// [`Cache::access`] by line tag, for callers that already divided.
    #[inline]
    pub(crate) fn access_line(&mut self, line_tag: u64) -> bool {
        let ways = self.geometry.ways;
        // Set counts need not be powers of two (Fig. 16's 48 KB L1 has 96).
        let set_idx = if self.sets.is_power_of_two() {
            line_tag & (self.sets - 1)
        } else {
            line_tag % self.sets
        } as usize;
        let set = &mut self.tags[set_idx * ways..][..ways];
        match set.iter().position(|&t| t == line_tag) {
            Some(pos) => {
                set[..=pos].rotate_right(1);
                self.hits += 1;
                true
            }
            None => {
                set.rotate_right(1);
                set[0] = line_tag;
                self.misses += 1;
                false
            }
        }
    }

    /// Hits since creation or the last [`Cache::reset_counters`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since creation or the last [`Cache::reset_counters`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Clear the hit/miss counters but keep cache contents.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Overwrite the hit/miss counters. Used by the block-parallel executor
    /// to merge per-block cache snapshots back into the device cache: the
    /// device keeps the last block's contents, with counters advanced by
    /// the deterministic sum of every block's deltas.
    pub(crate) fn set_counters(&mut self, hits: u64, misses: u64) {
        self.hits = hits;
        self.misses = misses;
    }

    /// Become a copy of `other` (contents and counters), reusing this
    /// cache's tag array. Block execution resets a worker's cache to the
    /// launch-entry state this way.
    pub(crate) fn copy_from(&mut self, other: &Cache) {
        self.geometry = other.geometry;
        self.tags.clear();
        self.tags.extend_from_slice(&other.tags);
        self.sets = other.sets;
        self.line_shift = other.line_shift;
        self.hits = other.hits;
        self.misses = other.misses;
    }

    /// Drop all resident lines and reset counters.
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
        self.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines of 64 B in 2 sets x 2 ways.
        Cache::new(CacheGeometry {
            bytes: 256,
            line: 64,
            ways: 2,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (tag % 2 == 0).
        assert!(!c.access(0)); // install tag 0
        assert!(!c.access(128)); // install tag 2
        assert!(!c.access(256)); // install tag 4, evicts tag 0 (LRU)
        assert!(!c.access(0)); // tag 0 was evicted
        assert!(c.access(256)); // tag 4 still resident
    }

    #[test]
    fn lru_order_updates_on_hit() {
        let mut c = tiny();
        c.access(0); // tag 0
        c.access(128); // tag 2
        c.access(0); // touch tag 0 -> MRU
        c.access(256); // tag 4 evicts tag 2
        assert!(c.access(0));
        assert!(!c.access(128));
    }

    #[test]
    fn flush_clears_contents_and_counters() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.access(0));
    }

    #[test]
    fn geometry_sets_never_zero() {
        let g = CacheGeometry {
            bytes: 64,
            line: 128,
            ways: 4,
        };
        assert_eq!(g.sets(), 1);
    }

    /// The `Vec<Vec<u64>>` LRU the flat [`Cache`] replaced, kept as the
    /// reference model: `sets[s]` holds resident tags, front = MRU.
    struct RefCache {
        geometry: CacheGeometry,
        sets: Vec<Vec<u64>>,
        hits: u64,
        misses: u64,
    }

    impl RefCache {
        fn new(geometry: CacheGeometry) -> RefCache {
            RefCache {
                geometry,
                sets: vec![Vec::new(); geometry.sets()],
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let line_tag = addr / self.geometry.line as u64;
            let set_idx = (line_tag % self.sets.len() as u64) as usize;
            let set = &mut self.sets[set_idx];
            if let Some(pos) = set.iter().position(|&t| t == line_tag) {
                set.remove(pos);
                set.insert(0, line_tag);
                self.hits += 1;
                true
            } else {
                set.insert(0, line_tag);
                set.truncate(self.geometry.ways);
                self.misses += 1;
                false
            }
        }

        fn flush(&mut self) {
            self.sets.iter_mut().for_each(Vec::clear);
            (self.hits, self.misses) = (0, 0);
        }
    }

    /// Seeded address streams: uniform over 1 MiB, word-strided, and a
    /// stream that keeps landing in one set (stride = sets × line).
    fn streams(g: CacheGeometry, seed: u64) -> [Vec<u64>; 3] {
        let mut rng = paraprox_prng::Rng::seed_from_u64(seed);
        let uniform = (0..4000).map(|_| rng.next_below(1 << 20)).collect();
        let stride = 4 * (1 + rng.next_below(40));
        let strided = (0..4000u64).map(|i| (i * stride) % (1 << 18)).collect();
        let set_span = (g.sets() * g.line) as u64;
        let thrash = (0..4000)
            .map(|_| rng.next_below(g.ways as u64 + 3) * set_span + rng.next_below(g.line as u64))
            .collect();
        [uniform, strided, thrash]
    }

    #[test]
    fn flat_cache_matches_reference_lru() {
        let geometries = [
            CacheConfig::gpu_l1_16k().l1,
            CacheConfig::gpu_l1_bytes(48 * 1024).l1, // 96 sets: not a power of two
            CacheConfig::cpu_l1_256k().l1,
            CacheGeometry {
                bytes: 256,
                line: 64,
                ways: 4,
            }, // one set
        ];
        assert_eq!(geometries[1].sets(), 96);
        assert_eq!(geometries[3].sets(), 1);
        for (gi, g) in geometries.into_iter().enumerate() {
            for (si, stream) in streams(g, 0xCAC4E + gi as u64).iter().enumerate() {
                let mut flat = Cache::new(g);
                let mut reference = RefCache::new(g);
                let (head, tail) = stream.split_at(stream.len() / 2);
                for &addr in head {
                    assert_eq!(flat.access(addr), reference.access(addr), "g{gi} s{si}");
                }
                assert_eq!(
                    (flat.hits(), flat.misses()),
                    (reference.hits, reference.misses)
                );
                // A copy continues exactly like the original, without
                // disturbing it.
                let mut copy = Cache::new(geometries[0]);
                copy.copy_from(&flat);
                for &addr in tail {
                    let want = reference.access(addr);
                    assert_eq!(copy.access(addr), want, "copy g{gi} s{si}");
                    assert_eq!(flat.access(addr), want, "g{gi} s{si}");
                }
                assert_eq!(
                    (copy.hits(), copy.misses()),
                    (reference.hits, reference.misses)
                );
                // Flushed caches are cold again, in step.
                flat.flush();
                reference.flush();
                for &addr in head {
                    assert_eq!(
                        flat.access(addr),
                        reference.access(addr),
                        "flushed g{gi} s{si}"
                    );
                }
                assert_eq!(
                    (flat.hits(), flat.misses()),
                    (reference.hits, reference.misses)
                );
            }
        }
    }

    #[test]
    fn degenerate_geometries_are_rejected_not_divided_by() {
        let ok = CacheGeometry {
            bytes: 256,
            line: 64,
            ways: 2,
        };
        assert_eq!(ok.validate("l1"), Ok(()));
        for (bad, want) in [
            (
                CacheGeometry { line: 0, ..ok },
                ProfileError::CacheLine {
                    cache: "l1",
                    line: 0,
                },
            ),
            (
                CacheGeometry { line: 6, ..ok },
                ProfileError::CacheLine {
                    cache: "l1",
                    line: 6,
                },
            ),
            (
                CacheGeometry { ways: 0, ..ok },
                ProfileError::CacheWays { cache: "l1" },
            ),
            (
                CacheGeometry { bytes: 0, ..ok },
                ProfileError::CacheBytes { cache: "l1" },
            ),
        ] {
            assert_eq!(bad.validate("l1"), Err(want));
            assert!(bad.sets() >= 1, "sets() stays total on {bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid cache geometry")]
    fn cache_new_panics_on_zero_ways() {
        Cache::new(CacheGeometry {
            bytes: 256,
            line: 64,
            ways: 0,
        });
    }

    #[test]
    fn stock_configs_are_sane() {
        let g = CacheConfig::gpu_l1_16k();
        assert_eq!(g.l1.bytes, 16 * 1024);
        assert!(g.l1.sets() > 0);
        let c = CacheConfig::cpu_l1_256k();
        assert!(c.l1.bytes > g.l1.bytes);
    }
}
