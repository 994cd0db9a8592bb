//! Device profiles: the latency tables and machine parameters that
//! differentiate the simulated GPU from the simulated CPU.

use paraprox_ir::{BinOp, UnOp};

use crate::cache::CacheConfig;
use crate::mask::MAX_WARP_LANES;

/// Broad class of device a profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// A discrete GPU: wide warps, special function unit, expensive
    /// divergence/atomics, high memory latency hidden by parallelism.
    Gpu,
    /// A multicore CPU with SIMD units: narrow "warps" (vector lanes),
    /// software transcendentals, cheap atomics, large caches.
    Cpu,
}

/// Why a [`DeviceProfile`] cannot be simulated (see
/// [`DeviceProfile::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileError {
    /// The warp width is not a power of two between 1 and 64. Divergence
    /// masks pack lanes into 64-bit words and the memory pipeline's
    /// per-warp transaction sets hold 64 entries, so a warp must fit one
    /// word and never straddle two.
    WarpWidth {
        /// The offending width.
        width: usize,
    },
    /// A cache line size is zero or not a whole number of 4-byte words.
    CacheLine {
        /// Which cache (`"l1"` or `"constant"`).
        cache: &'static str,
        /// The offending line size in bytes.
        line: usize,
    },
    /// A cache has zero ways.
    CacheWays {
        /// Which cache.
        cache: &'static str,
    },
    /// A cache has zero bytes of capacity.
    CacheBytes {
        /// Which cache.
        cache: &'static str,
    },
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::WarpWidth { width } => write!(
                f,
                "warp width {width} is not a power of two between 1 and {MAX_WARP_LANES}"
            ),
            ProfileError::CacheLine { cache, line } => write!(
                f,
                "{cache} line size of {line} bytes is not a positive multiple of 4"
            ),
            ProfileError::CacheWays { cache } => write!(f, "{cache} has zero ways"),
            ProfileError::CacheBytes { cache } => write!(f, "{cache} has zero bytes"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Machine parameters and per-instruction latencies for a simulated device.
///
/// The two stock profiles, [`DeviceProfile::gtx560`] and
/// [`DeviceProfile::core_i7_965`], encode the qualitative asymmetries the
/// paper's evaluation relies on:
///
/// * transcendental ops (`exp`, `log`, `sin`, `cos`, `rsqrt`) run on the
///   GPU's special function unit and are *cheap* there, but are software
///   subroutines on the CPU (hence Kernel Density Estimation approximates
///   better on the CPU — paper §4.3),
/// * float division/`pow` compile to high-latency subroutines on the GPU
///   (paper §4.4.2, citing Wong et al.),
/// * atomics serialize across a warp and are far more expensive on the GPU
///   (hence Naive Bayes speeds up >3.5x on GPU vs ~1.5x on CPU),
/// * cache misses hurt the GPU more than the CPU (paper §4.3's discussion of
///   lookup-table sizes).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable profile name.
    pub name: String,
    /// Device class.
    pub kind: DeviceKind,
    /// Threads per warp (SIMD width for CPUs).
    pub warp_width: usize,
    /// Number of streaming multiprocessors (cores). Only used to convert
    /// total warp-cycles into a wall-clock estimate; speedup ratios on the
    /// same profile are independent of it.
    pub sm_count: usize,
    /// Latency of a basic ALU op (add/sub/mul/compare/select/cast), cycles.
    pub alu_lat: u64,
    /// Latency of transcendental unary ops.
    pub transcendental_lat: u64,
    /// Latency of float division, remainder, and `pow`.
    pub div_lat: u64,
    /// Latency of `sqrt`.
    pub sqrt_lat: u64,
    /// Latency of integer division/remainder.
    pub int_div_lat: u64,
    /// Latency of a shared-memory access (per conflict-free transaction).
    pub shared_lat: u64,
    /// Latency of an L1 hit.
    pub l1_hit_lat: u64,
    /// Latency of a global-memory access that misses the L1.
    pub mem_lat: u64,
    /// Per-transaction issue cost for an L1-hit transaction beyond the
    /// first (uncoalesced accesses serialize at the cache port, but their
    /// latencies overlap).
    pub l1_issue: u64,
    /// Per-transaction issue cost for a missing transaction (DRAM accesses
    /// pipeline through the memory controller — MLP — so extra misses cost
    /// far less than a full `mem_lat` each).
    pub mem_issue: u64,
    /// Latency of a constant-cache hit (broadcast).
    pub const_hit_lat: u64,
    /// Latency of a store transaction (write-through, fire-and-forget).
    pub store_lat: u64,
    /// Miss latency of an access to the *approximate* memory region
    /// ([`paraprox_ir::MemSpace::Approx`]): a low-voltage, reduced-refresh
    /// DRAM class with relaxed timing margins, so a miss resolves in fewer
    /// cycles than `mem_lat` — the modeled payoff that makes tolerating
    /// bit errors worthwhile.
    pub approx_lat: u64,
    /// Per-transaction issue cost for an approximate-memory miss (cheaper
    /// controller path than `mem_issue`).
    pub approx_issue: u64,
    /// Latency of a store transaction into approximate memory.
    pub approx_store_lat: u64,
    /// Latency of one atomic operation (each active lane serializes).
    pub atomic_lat: u64,
    /// Fixed overhead charged per launched block (scheduling).
    pub block_overhead: u64,
    /// Latency-hiding factor: the exposed portion of a memory access's
    /// *base* latency is divided by this, modeling warp multiplexing (SMT
    /// on the CPU). Issue/serialization costs are throughput terms and are
    /// not hidden.
    pub latency_hiding: u64,
    /// Cache configuration (L1 + constant cache geometry).
    pub cache: CacheConfig,
    /// Bytes of shared memory available per block.
    pub shared_mem_bytes: usize,
    /// Host worker threads used to execute independent blocks concurrently.
    /// `0` means "all available cores"; `1` forces serial execution. The
    /// `PARAPROX_THREADS` environment variable overrides this knob; both are
    /// read once, when a [`crate::Device`] is created. Results are
    /// bit-identical for every setting — this only affects wall-clock time,
    /// never simulated cycles.
    pub parallelism: usize,
    /// Which interpreter executes launches: bytecode by default, the
    /// tree-walking oracle for differential testing. Results are
    /// bit-identical for either engine (`apps/tests/engine_equivalence.rs`).
    /// Exists only under the dev-only `oracle` feature.
    #[cfg(any(test, feature = "oracle"))]
    pub engine: crate::oracle::ExecEngine,
}

impl DeviceProfile {
    /// Profile modeled after the paper's NVIDIA GTX 560 (Fermi GF114).
    pub fn gtx560() -> DeviceProfile {
        DeviceProfile {
            name: "NVIDIA GTX 560 (simulated)".to_string(),
            kind: DeviceKind::Gpu,
            warp_width: 32,
            sm_count: 7,
            alu_lat: 2,
            transcendental_lat: 20, // special function unit (precise sequences)
            div_lat: 180,           // software subroutine (Wong et al.)
            sqrt_lat: 22,
            int_div_lat: 70,
            shared_lat: 4,
            l1_hit_lat: 30,
            mem_lat: 440,
            l1_issue: 8,
            mem_issue: 48,
            const_hit_lat: 4,
            store_lat: 12,
            approx_lat: 180,
            approx_issue: 20,
            approx_store_lat: 6,
            atomic_lat: 120,
            block_overhead: 200,
            latency_hiding: 4, // dozens of resident warps per SM
            cache: CacheConfig::gpu_l1_16k(),
            shared_mem_bytes: 48 * 1024,
            parallelism: 0,
            #[cfg(any(test, feature = "oracle"))]
            engine: Default::default(),
        }
    }

    /// Profile modeled after the paper's Intel Core i7 965 (Nehalem).
    pub fn core_i7_965() -> DeviceProfile {
        DeviceProfile {
            name: "Intel Core i7 965 (simulated)".to_string(),
            kind: DeviceKind::Cpu,
            warp_width: 8, // 4 cores x modest SIMD, treated as an 8-wide vector unit
            sm_count: 4,
            alu_lat: 2,
            transcendental_lat: 60, // software libm
            div_lat: 24,
            sqrt_lat: 18,
            int_div_lat: 22,
            shared_lat: 5, // "shared" degenerates to L1-resident scratch
            l1_hit_lat: 5,
            mem_lat: 110,
            l1_issue: 3,
            mem_issue: 40, // fewer outstanding misses than a GPU
            const_hit_lat: 5,
            store_lat: 5,
            approx_lat: 55,
            approx_issue: 18,
            approx_store_lat: 3,
            atomic_lat: 24,
            block_overhead: 60,
            latency_hiding: 2, // two hardware threads per core
            cache: CacheConfig::cpu_l1_256k(),
            shared_mem_bytes: 256 * 1024,
            parallelism: 0,
            #[cfg(any(test, feature = "oracle"))]
            engine: Default::default(),
        }
    }

    /// Check the machine shape the simulator's data structures rely on:
    /// the warp width (see [`ProfileError::WarpWidth`]) and both cache
    /// geometries. [`crate::Device::try_new`] calls this.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition.
    pub fn validate(&self) -> Result<(), ProfileError> {
        if !self.warp_width.is_power_of_two() || self.warp_width > MAX_WARP_LANES {
            return Err(ProfileError::WarpWidth {
                width: self.warp_width,
            });
        }
        self.cache.l1.validate("l1")?;
        self.cache.constant.validate("constant")
    }

    /// Return the profile with its host-parallelism knob set (`0` = all
    /// available cores, `1` = serial).
    pub fn with_parallelism(mut self, workers: usize) -> DeviceProfile {
        self.parallelism = workers;
        self
    }

    /// Latency of a unary operation.
    pub fn unop_lat(&self, op: UnOp) -> u64 {
        if op.is_transcendental() {
            self.transcendental_lat
        } else if op == UnOp::Sqrt {
            self.sqrt_lat
        } else {
            self.alu_lat
        }
    }

    /// Latency of a binary operation on operands of float/integer type.
    pub fn binop_lat(&self, op: BinOp, float: bool) -> u64 {
        match op {
            BinOp::Div | BinOp::Rem => {
                if float {
                    self.div_lat
                } else {
                    self.int_div_lat
                }
            }
            // powf compiles to a log/exp subroutine pair: two division-class
            // subroutines (Wong et al. measure powf among the slowest ops).
            BinOp::Pow => 2 * self.div_lat,
            _ => self.alu_lat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_profile_asymmetries() {
        let gpu = DeviceProfile::gtx560();
        let cpu = DeviceProfile::core_i7_965();
        // SFU: transcendental cheap on GPU, expensive on CPU.
        assert!(gpu.transcendental_lat < cpu.transcendental_lat);
        // Division: subroutine on GPU, pipelined on CPU.
        assert!(gpu.div_lat > cpu.div_lat);
        // Atomics: much worse on GPU.
        assert!(gpu.atomic_lat > cpu.atomic_lat);
        // Memory latency gap larger on GPU.
        assert!(gpu.mem_lat > cpu.mem_lat);
        // Approximate memory is cheaper than exact DRAM on both devices.
        assert!(gpu.approx_lat < gpu.mem_lat && gpu.approx_issue < gpu.mem_issue);
        assert!(cpu.approx_lat < cpu.mem_lat && cpu.approx_issue < cpu.mem_issue);
        assert!(gpu.approx_store_lat < gpu.store_lat);
        assert!(cpu.approx_store_lat < cpu.store_lat);
        assert_eq!(gpu.kind, DeviceKind::Gpu);
        assert_eq!(cpu.kind, DeviceKind::Cpu);
    }

    #[test]
    fn op_latency_dispatch() {
        let gpu = DeviceProfile::gtx560();
        assert_eq!(gpu.unop_lat(UnOp::Exp), gpu.transcendental_lat);
        assert_eq!(gpu.unop_lat(UnOp::Sqrt), gpu.sqrt_lat);
        assert_eq!(gpu.unop_lat(UnOp::Neg), gpu.alu_lat);
        assert_eq!(gpu.binop_lat(BinOp::Div, true), gpu.div_lat);
        assert_eq!(gpu.binop_lat(BinOp::Div, false), gpu.int_div_lat);
        assert_eq!(gpu.binop_lat(BinOp::Add, true), gpu.alu_lat);
        assert!(gpu.binop_lat(BinOp::Pow, true) > gpu.div_lat);
    }

    #[test]
    fn validate_rejects_each_degenerate_shape() {
        let gpu = DeviceProfile::gtx560();
        assert_eq!(gpu.validate(), Ok(()));
        assert_eq!(DeviceProfile::core_i7_965().validate(), Ok(()));
        // Zero, non-power-of-two (48 would straddle a mask word), and
        // wider than a per-warp transaction set.
        for width in [0, 48, 128] {
            let mut p = gpu.clone();
            p.warp_width = width;
            assert_eq!(p.validate(), Err(ProfileError::WarpWidth { width }));
        }
        for width in [1, 2, 4, 8, 16, 32, 64] {
            let mut p = gpu.clone();
            p.warp_width = width;
            assert_eq!(p.validate(), Ok(()));
        }
        let mut p = gpu.clone();
        p.cache.l1.line = 0;
        assert_eq!(
            p.validate(),
            Err(ProfileError::CacheLine {
                cache: "l1",
                line: 0
            })
        );
        let mut p = gpu.clone();
        p.cache.constant.ways = 0;
        assert_eq!(
            p.validate(),
            Err(ProfileError::CacheWays { cache: "constant" })
        );
        let mut p = gpu.clone();
        p.cache.l1.bytes = 0;
        assert_eq!(p.validate(), Err(ProfileError::CacheBytes { cache: "l1" }));
        assert!(!p.validate().unwrap_err().to_string().is_empty());
    }
}
