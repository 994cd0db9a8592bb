//! Scalar types, runtime scalar values, and memory spaces.

use std::fmt;

use crate::error::EvalError;

/// The scalar types the IR supports.
///
/// Data-parallel kernels in the benchmarks only ever manipulate 32-bit
/// scalars, matching the single-precision focus of the paper's GPU target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ty {
    /// 32-bit IEEE-754 float.
    F32,
    /// 32-bit signed integer.
    I32,
    /// 32-bit unsigned integer.
    U32,
    /// Boolean (used for comparison results and predicates).
    Bool,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::F32 => "f32",
            Ty::I32 => "i32",
            Ty::U32 => "u32",
            Ty::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// A runtime scalar value.
///
/// `Scalar` carries its own type tag so the interpreter and the pure
/// evaluator can check operand types dynamically; a mismatch is reported as
/// an [`EvalError::TypeMismatch`] rather than silently coerced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// A 32-bit float value.
    F32(f32),
    /// A 32-bit signed integer value.
    I32(i32),
    /// A 32-bit unsigned integer value.
    U32(u32),
    /// A boolean value.
    Bool(bool),
}

// Hashed by bit pattern (`f32::to_bits`), so `NaN` payloads and signed
// zeroes hash distinctly. That is stricter than `PartialEq` for floats
// (`-0.0 == 0.0`, `NaN != NaN`), which is fine for the structural program
// cache: a hash mismatch only forces a recompile, never a wrong hit.
impl std::hash::Hash for Scalar {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Scalar::F32(v) => v.to_bits().hash(state),
            Scalar::I32(v) => v.hash(state),
            Scalar::U32(v) => v.hash(state),
            Scalar::Bool(v) => v.hash(state),
        }
    }
}

impl Scalar {
    /// The type of this value.
    pub fn ty(self) -> Ty {
        match self {
            Scalar::F32(_) => Ty::F32,
            Scalar::I32(_) => Ty::I32,
            Scalar::U32(_) => Ty::U32,
            Scalar::Bool(_) => Ty::Bool,
        }
    }

    /// The zero value of type `ty` (`false` for booleans).
    pub fn zero(ty: Ty) -> Scalar {
        match ty {
            Ty::F32 => Scalar::F32(0.0),
            Ty::I32 => Scalar::I32(0),
            Ty::U32 => Scalar::U32(0),
            Ty::Bool => Scalar::Bool(false),
        }
    }

    /// Extract an `f32`, failing on any other type.
    pub fn as_f32(self) -> Result<f32, EvalError> {
        match self {
            Scalar::F32(v) => Ok(v),
            other => Err(EvalError::TypeMismatch {
                expected: Ty::F32,
                found: other.ty(),
            }),
        }
    }

    /// Extract an `i32`, failing on any other type.
    pub fn as_i32(self) -> Result<i32, EvalError> {
        match self {
            Scalar::I32(v) => Ok(v),
            other => Err(EvalError::TypeMismatch {
                expected: Ty::I32,
                found: other.ty(),
            }),
        }
    }

    /// Extract a `bool`, failing on any other type.
    pub fn as_bool(self) -> Result<bool, EvalError> {
        match self {
            Scalar::Bool(v) => Ok(v),
            other => Err(EvalError::TypeMismatch {
                expected: Ty::Bool,
                found: other.ty(),
            }),
        }
    }

    /// A lossy numeric view of the value as `f64`, for error metrics.
    ///
    /// Booleans map to 0.0/1.0.
    pub fn to_f64_lossy(self) -> f64 {
        match self {
            Scalar::F32(v) => f64::from(v),
            Scalar::I32(v) => f64::from(v),
            Scalar::U32(v) => f64::from(v),
            Scalar::Bool(v) => {
                if v {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Convert this value to another scalar type with C-like semantics.
    ///
    /// Float-to-integer conversions truncate toward zero and saturate at the
    /// integer bounds (matching Rust's `as` and, practically, GPU behavior
    /// for in-range values). Conversions to `Bool` compare against zero.
    pub fn cast(self, ty: Ty) -> Scalar {
        match ty {
            Ty::F32 => Scalar::F32(match self {
                Scalar::F32(v) => v,
                Scalar::I32(v) => v as f32,
                Scalar::U32(v) => v as f32,
                Scalar::Bool(v) => {
                    if v {
                        1.0
                    } else {
                        0.0
                    }
                }
            }),
            Ty::I32 => Scalar::I32(match self {
                Scalar::F32(v) => v as i32,
                Scalar::I32(v) => v,
                Scalar::U32(v) => v as i32,
                Scalar::Bool(v) => i32::from(v),
            }),
            Ty::U32 => Scalar::U32(match self {
                Scalar::F32(v) => v as u32,
                Scalar::I32(v) => v as u32,
                Scalar::U32(v) => v,
                Scalar::Bool(v) => u32::from(v),
            }),
            Ty::Bool => Scalar::Bool(match self {
                Scalar::F32(v) => v != 0.0,
                Scalar::I32(v) => v != 0,
                Scalar::U32(v) => v != 0,
                Scalar::Bool(v) => v,
            }),
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::F32(v) => write!(f, "{v}f"),
            Scalar::I32(v) => write!(f, "{v}"),
            Scalar::U32(v) => write!(f, "{v}u"),
            Scalar::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<f32> for Scalar {
    fn from(v: f32) -> Self {
        Scalar::F32(v)
    }
}

impl From<i32> for Scalar {
    fn from(v: i32) -> Self {
        Scalar::I32(v)
    }
}

impl From<u32> for Scalar {
    fn from(v: u32) -> Self {
        Scalar::U32(v)
    }
}

impl From<bool> for Scalar {
    fn from(v: bool) -> Self {
        Scalar::Bool(v)
    }
}

/// Device memory spaces a buffer parameter can live in.
///
/// The paper's memoization study (its Figure 16) compares lookup tables
/// placed in global, shared, and constant memory; the interpreter in
/// `paraprox-vgpu` models each space with its own latency and cache
/// behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemSpace {
    /// Off-chip global memory, cached in the (configurable) L1.
    #[default]
    Global,
    /// Read-only constant memory with a small broadcast cache.
    Constant,
    /// On-chip per-block scratchpad (declared per kernel, not a parameter
    /// space; listed here so rewrites can target it uniformly).
    Shared,
    /// Approximate (low-refresh / low-voltage) global memory: cheaper
    /// access cycles, but reads may suffer seeded bit flips at the
    /// device's configured error rate. A *placement*, not a kernel-visible
    /// space: buffers allocated here bind to parameters declared
    /// [`MemSpace::Global`] — kernels cannot demand approximate storage,
    /// only launch plans may place tolerant data there.
    Approx,
}

impl MemSpace {
    /// True when a buffer living in `self` may bind to a parameter
    /// declared as `declared`. Exact match always binds; an [`Approx`]
    /// buffer additionally satisfies a [`Global`] declaration, since
    /// approximate memory is a placement of global data.
    ///
    /// [`Approx`]: MemSpace::Approx
    /// [`Global`]: MemSpace::Global
    pub fn binds_to(self, declared: MemSpace) -> bool {
        self == declared || (self == MemSpace::Approx && declared == MemSpace::Global)
    }
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemSpace::Global => "global",
            MemSpace::Constant => "constant",
            MemSpace::Shared => "shared",
            MemSpace::Approx => "approx",
        };
        f.write_str(s)
    }
}

/// Identifier of a local variable within one kernel or function.
///
/// `VarId`s index into the owning item's `locals` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// The index into the owning item's locals table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_type_tags_match() {
        assert_eq!(Scalar::F32(1.0).ty(), Ty::F32);
        assert_eq!(Scalar::I32(1).ty(), Ty::I32);
        assert_eq!(Scalar::U32(1).ty(), Ty::U32);
        assert_eq!(Scalar::Bool(true).ty(), Ty::Bool);
    }

    #[test]
    fn zero_has_requested_type() {
        for ty in [Ty::F32, Ty::I32, Ty::U32, Ty::Bool] {
            assert_eq!(Scalar::zero(ty).ty(), ty);
        }
    }

    #[test]
    fn extraction_checks_type() {
        assert_eq!(Scalar::F32(2.5).as_f32().unwrap(), 2.5);
        assert!(Scalar::F32(2.5).as_i32().is_err());
        assert!(Scalar::I32(3).as_bool().is_err());
        assert!(Scalar::Bool(true).as_bool().unwrap());
    }

    #[test]
    fn casts_follow_c_semantics() {
        assert_eq!(Scalar::F32(2.9).cast(Ty::I32), Scalar::I32(2));
        assert_eq!(Scalar::F32(-2.9).cast(Ty::I32), Scalar::I32(-2));
        assert_eq!(Scalar::I32(-1).cast(Ty::U32), Scalar::U32(u32::MAX));
        assert_eq!(Scalar::U32(7).cast(Ty::F32), Scalar::F32(7.0));
        assert_eq!(Scalar::I32(0).cast(Ty::Bool), Scalar::Bool(false));
        assert_eq!(Scalar::F32(0.5).cast(Ty::Bool), Scalar::Bool(true));
    }

    #[test]
    fn lossy_f64_view() {
        assert_eq!(Scalar::Bool(true).to_f64_lossy(), 1.0);
        assert_eq!(Scalar::I32(-4).to_f64_lossy(), -4.0);
    }

    #[test]
    fn display_is_nonempty() {
        for s in [
            Scalar::F32(0.0),
            Scalar::I32(0),
            Scalar::U32(0),
            Scalar::Bool(false),
        ] {
            assert!(!s.to_string().is_empty());
        }
        for t in [Ty::F32, Ty::I32, Ty::U32, Ty::Bool] {
            assert!(!t.to_string().is_empty());
        }
        for m in [
            MemSpace::Global,
            MemSpace::Constant,
            MemSpace::Shared,
            MemSpace::Approx,
        ] {
            assert!(!m.to_string().is_empty());
        }
    }

    #[test]
    fn approx_binds_only_to_global() {
        assert!(MemSpace::Approx.binds_to(MemSpace::Global));
        assert!(MemSpace::Global.binds_to(MemSpace::Global));
        assert!(!MemSpace::Approx.binds_to(MemSpace::Constant));
        assert!(!MemSpace::Approx.binds_to(MemSpace::Shared));
        assert!(!MemSpace::Global.binds_to(MemSpace::Approx));
    }
}
