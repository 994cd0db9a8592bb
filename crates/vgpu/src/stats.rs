//! Launch statistics: the cost side of a simulated kernel execution.

use std::fmt;
use std::ops::AddAssign;

/// Counters accumulated while executing one kernel launch (or summed over a
/// multi-launch pipeline).
///
/// Cycle counters are *warp-cycles*: each cost is charged once per warp that
/// executes the instruction, mirroring SIMT issue. Speedup between two
/// launches on the same [`crate::DeviceProfile`] is
/// `baseline.total_cycles() / variant.total_cycles()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaunchStats {
    /// Cycles spent in arithmetic/logic/control instructions.
    pub compute_cycles: u64,
    /// Cycles spent in memory instructions (loads, stores, atomics).
    pub memory_cycles: u64,
    /// Fixed block-scheduling overhead cycles.
    pub overhead_cycles: u64,
    /// Dynamic warp-instructions issued.
    pub instructions: u64,
    /// Load instructions executed (per warp).
    pub loads: u64,
    /// Store instructions executed (per warp).
    pub stores: u64,
    /// Atomic operations executed (per lane).
    pub atomics: u64,
    /// Global-memory transactions issued for loads.
    pub load_transactions: u64,
    /// Extra transactions beyond one per warp load (the paper's Fig. 17
    /// "instruction serialization overhead" counts these).
    pub serialized_transactions: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Constant-cache hits.
    pub const_hits: u64,
    /// Constant-cache misses.
    pub const_misses: u64,
    /// Shared-memory accesses (per warp transaction, conflict-free unit).
    pub shared_accesses: u64,
    /// Extra shared transactions caused by bank conflicts.
    pub bank_conflict_extra: u64,
    /// Warps launched.
    pub warps: u64,
    /// Blocks launched.
    pub blocks: u64,
    /// Host wall-clock time spent executing the launch, in nanoseconds.
    /// Measurement, not simulation: excluded from equality so results can
    /// be compared across worker counts.
    pub wall_nanos: u64,
    /// Host worker threads used for the launch (also excluded from
    /// equality).
    pub workers: u64,
    /// Bytecode ops dispatched by the interpreter inner loop (a fused
    /// superinstruction counts once, and so does an op over a block group
    /// of several blocks). Zero on the tree-walking engine.
    /// Engine-dependent host-side diagnostic: excluded from equality.
    pub ops_dispatched: u64,
    /// Fused superinstructions executed. Zero on the tree-walking engine;
    /// excluded from equality.
    pub fusions_hit: u64,
    /// ALU and control ops of the bytecode engine that left their typed
    /// strip loop for the per-lane `Scalar` path: the error cases and rows
    /// whose active lanes differ in type. Counted per dispatched op, like
    /// `ops_dispatched`. Zero on the tree-walking engine and on every
    /// well-typed kernel; a host-side diagnostic excluded from equality like
    /// `ops_dispatched`. Nothing reads it to choose a path.
    pub lane_fallback_ops: u64,
    /// The memory twin of `lane_fallback_ops`: loads and stores of the
    /// bytecode engine that moved their lanes one `Scalar` at a time
    /// because the index or value row's active lanes differ in type (or
    /// are of the wrong type, the error case). `Approx` injection and a
    /// permuted store order are per-lane by design and not counted. Zero on
    /// the tree-walking engine and on every well-typed kernel; excluded
    /// from equality like its twin.
    pub mem_fallback_ops: u64,
    /// Lane-loads served from buffers placed in [`MemSpace::Approx`]
    /// (per lane, not per warp). Placement diagnostic: excluded from
    /// equality, like `wall_nanos`.
    ///
    /// [`MemSpace::Approx`]: paraprox_ir::MemSpace::Approx
    pub approx_loads: u64,
    /// Bit flips injected into approximate-memory loads. Always zero at
    /// error rate 0; excluded from equality like `approx_loads`.
    pub bit_flips: u64,
    /// Block groups of two or more blocks the bytecode engine ran as one
    /// lane row (a group that failed and re-ran block by block does not
    /// count). Zero on the tree-walking engine and on launches that are not
    /// group-safe; a host-side diagnostic excluded from equality like
    /// `ops_dispatched`.
    pub groups: u64,
}

/// Equality covers every *simulated* counter; `wall_nanos`, `workers`,
/// `ops_dispatched`, `fusions_hit`, `lane_fallback_ops`, `mem_fallback_ops`,
/// `groups`, `approx_loads`, and `bit_flips` are diagnostics (the middle
/// five depend on the engine and its block grouping, the last two on
/// buffer placement, not on the simulated machine) and deliberately
/// ignored, so stats from runs at different parallelism levels or engines
/// compare equal iff the simulation agreed.
impl PartialEq for LaunchStats {
    fn eq(&self, other: &LaunchStats) -> bool {
        self.compute_cycles == other.compute_cycles
            && self.memory_cycles == other.memory_cycles
            && self.overhead_cycles == other.overhead_cycles
            && self.instructions == other.instructions
            && self.loads == other.loads
            && self.stores == other.stores
            && self.atomics == other.atomics
            && self.load_transactions == other.load_transactions
            && self.serialized_transactions == other.serialized_transactions
            && self.l1_hits == other.l1_hits
            && self.l1_misses == other.l1_misses
            && self.const_hits == other.const_hits
            && self.const_misses == other.const_misses
            && self.shared_accesses == other.shared_accesses
            && self.bank_conflict_extra == other.bank_conflict_extra
            && self.warps == other.warps
            && self.blocks == other.blocks
    }
}

impl Eq for LaunchStats {}

impl LaunchStats {
    /// Total simulated cycles for the launch.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.memory_cycles + self.overhead_cycles
    }

    /// Fraction of load transactions that were serialized beyond the ideal
    /// one-per-warp access (0.0 when no loads happened). This is the metric
    /// plotted in the paper's Fig. 17.
    pub fn serialization_overhead(&self) -> f64 {
        if self.load_transactions == 0 {
            0.0
        } else {
            self.serialized_transactions as f64 / self.load_transactions as f64
        }
    }

    /// L1 hit rate over global loads (1.0 when no L1 accesses happened).
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            1.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// Speedup of `self` relative to `baseline` measured in total cycles
    /// (values > 1.0 mean `self` is faster).
    pub fn speedup_vs(&self, baseline: &LaunchStats) -> f64 {
        baseline.total_cycles() as f64 / self.total_cycles().max(1) as f64
    }

    /// Fold another launch's counters into this one — the single
    /// aggregation rule for multi-launch jobs (pipelines, fused batches,
    /// convergence loops): every simulated counter and every diagnostic
    /// counter sums, except `workers`, which takes the maximum seen (the
    /// launches shared one pool; summing would overcount it).
    pub fn accumulate(&mut self, rhs: &LaunchStats) {
        self.compute_cycles += rhs.compute_cycles;
        self.memory_cycles += rhs.memory_cycles;
        self.overhead_cycles += rhs.overhead_cycles;
        self.instructions += rhs.instructions;
        self.loads += rhs.loads;
        self.stores += rhs.stores;
        self.atomics += rhs.atomics;
        self.load_transactions += rhs.load_transactions;
        self.serialized_transactions += rhs.serialized_transactions;
        self.l1_hits += rhs.l1_hits;
        self.l1_misses += rhs.l1_misses;
        self.const_hits += rhs.const_hits;
        self.const_misses += rhs.const_misses;
        self.shared_accesses += rhs.shared_accesses;
        self.bank_conflict_extra += rhs.bank_conflict_extra;
        self.warps += rhs.warps;
        self.blocks += rhs.blocks;
        self.wall_nanos += rhs.wall_nanos;
        self.workers = self.workers.max(rhs.workers);
        self.ops_dispatched += rhs.ops_dispatched;
        self.fusions_hit += rhs.fusions_hit;
        self.lane_fallback_ops += rhs.lane_fallback_ops;
        self.mem_fallback_ops += rhs.mem_fallback_ops;
        self.approx_loads += rhs.approx_loads;
        self.bit_flips += rhs.bit_flips;
        self.groups += rhs.groups;
    }
}

impl AddAssign for LaunchStats {
    fn add_assign(&mut self, rhs: LaunchStats) {
        self.accumulate(&rhs);
    }
}

impl fmt::Display for LaunchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycles={} (compute={}, memory={}, overhead={}) instr={} loads={} l1={:.0}% ser={:.0}%",
            self.total_cycles(),
            self.compute_cycles,
            self.memory_cycles,
            self.overhead_cycles,
            self.instructions,
            self.loads,
            self.l1_hit_rate() * 100.0,
            self.serialization_overhead() * 100.0,
        )?;
        if self.lane_fallback_ops > 0 {
            write!(f, " lane_fallback={}", self.lane_fallback_ops)?;
        }
        if self.mem_fallback_ops > 0 {
            write!(f, " mem_fallback={}", self.mem_fallback_ops)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_ratios() {
        let a = LaunchStats {
            compute_cycles: 600,
            memory_cycles: 300,
            overhead_cycles: 100,
            ..Default::default()
        };
        let b = LaunchStats {
            compute_cycles: 200,
            memory_cycles: 200,
            overhead_cycles: 100,
            ..Default::default()
        };
        assert_eq!(a.total_cycles(), 1000);
        assert!((b.speedup_vs(&a) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let s = LaunchStats::default();
        assert_eq!(s.serialization_overhead(), 0.0);
        assert_eq!(s.l1_hit_rate(), 1.0);
    }

    #[test]
    fn add_assign_accumulates_everything() {
        let mut a = LaunchStats {
            compute_cycles: 1,
            memory_cycles: 2,
            overhead_cycles: 3,
            instructions: 4,
            loads: 5,
            stores: 6,
            atomics: 7,
            load_transactions: 8,
            serialized_transactions: 9,
            l1_hits: 10,
            l1_misses: 11,
            const_hits: 12,
            const_misses: 13,
            shared_accesses: 14,
            bank_conflict_extra: 15,
            warps: 16,
            blocks: 17,
            wall_nanos: 18,
            workers: 19,
            ops_dispatched: 20,
            fusions_hit: 21,
            approx_loads: 22,
            bit_flips: 23,
            lane_fallback_ops: 24,
            mem_fallback_ops: 25,
            groups: 26,
        };
        a += a;
        assert_eq!(a.compute_cycles, 2);
        assert_eq!(a.blocks, 34);
        assert_eq!(a.bank_conflict_extra, 30);
        assert_eq!(a.wall_nanos, 36);
        assert_eq!(a.workers, 19); // max, not sum
        assert_eq!(a.ops_dispatched, 40);
        assert_eq!(a.fusions_hit, 42);
        assert_eq!(a.approx_loads, 44);
        assert_eq!(a.bit_flips, 46);
        assert_eq!(a.lane_fallback_ops, 48);
        assert_eq!(a.mem_fallback_ops, 50);
        assert_eq!(a.groups, 52);
    }

    #[test]
    fn accumulate_sums_equality_excluded_diagnostics() {
        // The diagnostic fields that `PartialEq` deliberately ignores must
        // still aggregate across the launches of a multi-launch job:
        // everything sums except `workers` (max).
        let mut total = LaunchStats {
            wall_nanos: 10,
            workers: 4,
            ops_dispatched: 100,
            fusions_hit: 20,
            lane_fallback_ops: 2,
            mem_fallback_ops: 3,
            approx_loads: 7,
            bit_flips: 1,
            groups: 6,
            ..Default::default()
        };
        let step = LaunchStats {
            wall_nanos: 5,
            workers: 2,
            ops_dispatched: 50,
            fusions_hit: 3,
            lane_fallback_ops: 5,
            mem_fallback_ops: 1,
            approx_loads: 9,
            bit_flips: 4,
            groups: 2,
            ..Default::default()
        };
        total.accumulate(&step);
        total.accumulate(&step);
        assert_eq!(total.wall_nanos, 20);
        assert_eq!(total.workers, 4); // max, not 8
        assert_eq!(total.ops_dispatched, 200);
        assert_eq!(total.fusions_hit, 26);
        assert_eq!(total.lane_fallback_ops, 12);
        assert_eq!(total.mem_fallback_ops, 5);
        assert_eq!(total.approx_loads, 25);
        assert_eq!(total.bit_flips, 9);
        assert_eq!(total.groups, 10);
        // The two accumulated stats compare equal to the original despite
        // the diagnostic drift: nothing simulated changed.
        assert_eq!(total, LaunchStats::default());
    }

    #[test]
    fn equality_ignores_host_measurements() {
        let a = LaunchStats {
            compute_cycles: 7,
            wall_nanos: 1,
            workers: 1,
            ..Default::default()
        };
        let b = LaunchStats {
            compute_cycles: 7,
            wall_nanos: 999,
            workers: 8,
            ops_dispatched: 123,
            fusions_hit: 45,
            lane_fallback_ops: 3,
            mem_fallback_ops: 4,
            approx_loads: 6,
            bit_flips: 2,
            groups: 5,
            ..Default::default()
        };
        assert_eq!(a, b);
        let c = LaunchStats {
            compute_cycles: 8,
            ..Default::default()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn display_is_nonempty() {
        let quiet = LaunchStats::default().to_string();
        assert!(!quiet.is_empty() && !quiet.contains("fallback"));
        let fell_back = LaunchStats {
            lane_fallback_ops: 3,
            ..Default::default()
        };
        assert!(fell_back.to_string().ends_with(" lane_fallback=3"));
        let mem = LaunchStats {
            lane_fallback_ops: 3,
            mem_fallback_ops: 2,
            ..Default::default()
        };
        assert!(mem.to_string().ends_with(" lane_fallback=3 mem_fallback=2"));
    }
}
