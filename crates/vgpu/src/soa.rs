//! Structure-of-arrays register rows for the bytecode engine.
//!
//! The tree-walking oracle evaluates `Vec<Scalar>` lane vectors: one enum
//! per lane, matched per lane per op. The bytecode engine instead keeps
//! each virtual register as a [`RegRow`] — a contiguous lane-major strip
//! of raw 32-bit patterns plus a type tag. Almost every row is *uniform*
//! (all lanes the same type), so the tag is one byte for the whole row and
//! an op over two uniform rows of equal tag runs as a tight slice loop
//! over `u32` bit patterns (`f32::from_bits`/`to_bits` are free bitcasts),
//! which LLVM autovectorizes. Per-lane tags are materialized only for the
//! rare *mixed* rows produced by divergent writes, and those fall back to
//! the exact per-lane `Scalar` path so error identity and position match
//! the oracle bit for bit.
//!
//! The typed loops below mirror `BinOp::apply`/`UnOp::apply`/
//! `CmpOp::apply`/`Scalar::cast` exactly; a property test cross-checks
//! every opcode against the scalar implementations over adversarial
//! values (NaN, -0.0, `i32::MIN`, shift overflow, ...).

use paraprox_ir::{BinOp, CmpOp, Scalar, Ty, UnOp};

use crate::mask::LaneMask;

/// Row tag: every lane is `f32`.
pub const TAG_F32: u8 = 0;
/// Row tag: every lane is `i32`.
pub const TAG_I32: u8 = 1;
/// Row tag: every lane is `u32`.
pub const TAG_U32: u8 = 2;
/// Row tag: every lane is `bool` (bit pattern 0 or 1).
pub const TAG_BOOL: u8 = 3;
/// Row tag: lanes disagree on type; per-lane tags are authoritative.
pub const TAG_MIXED: u8 = 0xFF;

/// Tag of a scalar value.
#[inline(always)]
pub fn tag_of(s: Scalar) -> u8 {
    match s {
        Scalar::F32(_) => TAG_F32,
        Scalar::I32(_) => TAG_I32,
        Scalar::U32(_) => TAG_U32,
        Scalar::Bool(_) => TAG_BOOL,
    }
}

/// Tag of an IR type.
#[inline(always)]
pub fn tag_of_ty(ty: Ty) -> u8 {
    match ty {
        Ty::F32 => TAG_F32,
        Ty::I32 => TAG_I32,
        Ty::U32 => TAG_U32,
        Ty::Bool => TAG_BOOL,
    }
}

/// IR type of a (non-mixed) tag.
#[inline(always)]
pub fn tag_ty(tag: u8) -> Ty {
    match tag {
        TAG_F32 => Ty::F32,
        TAG_I32 => Ty::I32,
        TAG_U32 => Ty::U32,
        _ => Ty::Bool,
    }
}

/// Bit pattern of a scalar (bool encodes as 0/1).
#[inline(always)]
pub fn encode_bits(s: Scalar) -> u32 {
    match s {
        Scalar::F32(v) => v.to_bits(),
        Scalar::I32(v) => v as u32,
        Scalar::U32(v) => v,
        Scalar::Bool(v) => u32::from(v),
    }
}

/// Reconstruct a scalar from a tag and bit pattern.
#[inline(always)]
pub fn decode(tag: u8, bits: u32) -> Scalar {
    match tag {
        TAG_F32 => Scalar::F32(f32::from_bits(bits)),
        TAG_I32 => Scalar::I32(bits as i32),
        TAG_U32 => Scalar::U32(bits),
        _ => Scalar::Bool(bits != 0),
    }
}

/// The bytecode engine's lane-filler value for untouched lanes
/// (type-tagged `i32` zero, like the tree-walker's `FILLER`).
const FILLER_TAG: u8 = TAG_I32;

/// One virtual register across all lanes of a block, stored lane-major.
/// `Default` is the zero-lane row (used as a [`std::mem::take`] placeholder).
#[derive(Clone, Debug, Default)]
pub struct RegRow {
    bits: Vec<u32>,
    /// Authoritative only when `uniform == TAG_MIXED`.
    tags: Vec<u8>,
    uniform: u8,
}

impl RegRow {
    /// A fresh filler row (`i32` zero in every lane).
    pub fn new(lanes: usize) -> RegRow {
        RegRow {
            bits: vec![0; lanes],
            tags: vec![FILLER_TAG; lanes],
            uniform: FILLER_TAG,
        }
    }

    /// Reset to the filler value, reusing the allocations.
    pub fn reset_filler(&mut self, lanes: usize) {
        self.bits.clear();
        self.bits.resize(lanes, 0);
        self.tags.clear();
        self.tags.resize(lanes, FILLER_TAG);
        self.uniform = FILLER_TAG;
    }

    /// The row-wide tag, or [`TAG_MIXED`] when lanes disagree.
    #[inline]
    pub fn uniform_tag(&self) -> u8 {
        self.uniform
    }

    /// Tag of one lane.
    #[inline]
    pub fn tag_at(&self, lane: usize) -> u8 {
        if self.uniform != TAG_MIXED {
            self.uniform
        } else {
            self.tags[lane]
        }
    }

    /// IR type of one lane.
    #[inline]
    pub fn ty_at(&self, lane: usize) -> Ty {
        tag_ty(self.tag_at(lane))
    }

    /// Scalar value of one lane.
    #[inline]
    pub fn get(&self, lane: usize) -> Scalar {
        decode(self.tag_at(lane), self.bits[lane])
    }

    /// Raw bit patterns, lane-major.
    #[inline]
    pub fn bits(&self) -> &[u32] {
        &self.bits
    }

    /// Store a scalar into one lane, demoting to mixed tags if its type
    /// differs from the row's uniform tag.
    #[inline]
    pub fn set(&mut self, lane: usize, v: Scalar) {
        let tag = tag_of(v);
        if self.uniform != TAG_MIXED && tag != self.uniform {
            self.tags.fill(self.uniform);
            self.uniform = TAG_MIXED;
        }
        if self.uniform == TAG_MIXED {
            self.tags[lane] = tag;
        }
        self.bits[lane] = encode_bits(v);
    }

    /// Prepare the row to receive `tag`-typed raw bits in the lanes of
    /// `mask` and return the strip to write them to. Afterwards the row
    /// reads exactly as if it had been reset to the filler and then
    /// [`RegRow::set`] lane by lane: uniform `tag` under a full mask,
    /// filler in the inactive lanes otherwise (so a partial mask over a
    /// non-`i32` type leaves a mixed row). The caller must write every
    /// active lane.
    pub fn begin_strip(&mut self, tag: u8, mask: &LaneMask) -> &mut [u32] {
        let lanes = mask.lanes();
        if mask.all() {
            self.bits.resize(lanes, 0);
            self.tags.resize(lanes, 0);
            self.uniform = tag;
        } else {
            self.reset_filler(lanes);
            if tag != FILLER_TAG {
                self.uniform = TAG_MIXED;
                for lane in mask.iter_set() {
                    self.tags[lane] = tag;
                }
            }
        }
        &mut self.bits
    }

    /// Overwrite every lane with the same scalar.
    pub fn fill(&mut self, lanes: usize, v: Scalar) {
        self.bits.clear();
        self.bits.resize(lanes, encode_bits(v));
        self.tags.resize(lanes, 0);
        self.uniform = tag_of(v);
    }

    /// Adopt a fully-written bit strip with a uniform tag, recycling the
    /// swapped-out allocation into `scratch`.
    pub fn adopt_uniform(&mut self, scratch: &mut Vec<u32>, tag: u8) {
        std::mem::swap(&mut self.bits, scratch);
        self.tags.resize(self.bits.len(), 0);
        self.uniform = tag;
    }

    /// Become a copy of `other`, reusing allocations.
    pub fn copy_from(&mut self, other: &RegRow) {
        self.bits.clear();
        self.bits.extend_from_slice(&other.bits);
        self.tags.clear();
        self.tags.extend_from_slice(&other.tags);
        self.uniform = other.uniform;
    }

    /// Copy the active lanes of `other` into `self` (inactive lanes keep
    /// their current value).
    pub fn copy_masked_from(&mut self, other: &RegRow, mask: &LaneMask) {
        if self.uniform != TAG_MIXED && self.uniform == other.uniform {
            for lane in mask.iter_set() {
                self.bits[lane] = other.bits[lane];
            }
        } else {
            for lane in mask.iter_set() {
                self.set(lane, other.get(lane));
            }
            self.normalize();
        }
    }

    /// Re-establish the uniform tag after per-lane writes if every lane
    /// agrees again.
    pub fn normalize(&mut self) {
        if self.uniform != TAG_MIXED || self.tags.is_empty() {
            return;
        }
        let first = self.tags[0];
        if self.tags.iter().all(|&t| t == first) {
            self.uniform = first;
        }
    }

    /// Type of the first active lane, if any.
    #[inline]
    pub fn first_ty(&self, mask: &LaneMask) -> Option<Ty> {
        if self.uniform != TAG_MIXED {
            if mask.any() {
                Some(tag_ty(self.uniform))
            } else {
                None
            }
        } else {
            mask.iter_set().next().map(|lane| self.ty_at(lane))
        }
    }
}

/// Can `op` over two equal-typed operands of `tag` take the typed loop?
/// Integer `Div`/`Rem` additionally require a zero-divisor pre-scan
/// ([`has_zero`]); everything not listed is unsupported for the type and
/// must take the scalar path (which raises the oracle's error).
pub fn bin_fast_eligible(op: BinOp, tag: u8) -> bool {
    match tag {
        TAG_F32 => !matches!(
            op,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
        ),
        TAG_I32 | TAG_U32 => !matches!(op, BinOp::Pow),
        TAG_BOOL => matches!(op, BinOp::And | BinOp::Or | BinOp::Xor),
        _ => false,
    }
}

/// Does the typed loop for `op`/`tag` require a zero-divisor pre-scan?
pub fn bin_needs_divisor_scan(op: BinOp, tag: u8) -> bool {
    matches!(tag, TAG_I32 | TAG_U32) && matches!(op, BinOp::Div | BinOp::Rem)
}

/// Any zero bit-pattern in the strip (used as the divisor pre-scan)?
pub fn has_zero(bits: &[u32]) -> bool {
    bits.contains(&0)
}

macro_rules! lanes2 {
    ($out:ident, $a:ident, $b:ident, |$x:ident, $y:ident| $body:expr) => {{
        $out.clear();
        $out.extend($a.iter().zip($b.iter()).map(|(&$x, &$y)| $body));
    }};
}

/// Typed full-width binary loop. Caller must have checked
/// [`bin_fast_eligible`] (and [`has_zero`] when
/// [`bin_needs_divisor_scan`]); semantics match `BinOp::apply` bit for
/// bit.
pub fn bin_fast(op: BinOp, tag: u8, out: &mut Vec<u32>, a: &[u32], b: &[u32]) {
    use BinOp::*;
    macro_rules! f32_op {
        (|$x:ident, $y:ident| $body:expr) => {
            lanes2!(out, a, b, |xb, yb| {
                let $x = f32::from_bits(xb);
                let $y = f32::from_bits(yb);
                ($body).to_bits()
            })
        };
    }
    macro_rules! i32_op {
        (|$x:ident, $y:ident| $body:expr) => {
            lanes2!(out, a, b, |xb, yb| {
                let $x = xb as i32;
                let $y = yb as i32;
                ($body) as u32
            })
        };
    }
    macro_rules! u32_op {
        (|$x:ident, $y:ident| $body:expr) => {
            lanes2!(out, a, b, |$x, $y| $body)
        };
    }
    match tag {
        TAG_F32 => match op {
            Add => f32_op!(|x, y| x + y),
            Sub => f32_op!(|x, y| x - y),
            Mul => f32_op!(|x, y| x * y),
            Div => f32_op!(|x, y| x / y),
            Min => f32_op!(|x, y| x.min(y)),
            Max => f32_op!(|x, y| x.max(y)),
            Pow => f32_op!(|x, y| x.powf(y)),
            Rem => f32_op!(|x, y| x % y),
            And | Or | Xor | Shl | Shr => unreachable!("ineligible f32 op"),
        },
        TAG_I32 => match op {
            Add => i32_op!(|x, y| x.wrapping_add(y)),
            Sub => i32_op!(|x, y| x.wrapping_sub(y)),
            Mul => i32_op!(|x, y| x.wrapping_mul(y)),
            Div => i32_op!(|x, y| x.wrapping_div(y)),
            Rem => i32_op!(|x, y| x.wrapping_rem(y)),
            Min => i32_op!(|x, y| x.min(y)),
            Max => i32_op!(|x, y| x.max(y)),
            And => i32_op!(|x, y| x & y),
            Or => i32_op!(|x, y| x | y),
            Xor => i32_op!(|x, y| x ^ y),
            Shl => i32_op!(|x, y| x.wrapping_shl(y as u32)),
            Shr => i32_op!(|x, y| x.wrapping_shr(y as u32)),
            Pow => unreachable!("ineligible i32 op"),
        },
        TAG_U32 => match op {
            Add => u32_op!(|x, y| x.wrapping_add(y)),
            Sub => u32_op!(|x, y| x.wrapping_sub(y)),
            Mul => u32_op!(|x, y| x.wrapping_mul(y)),
            Div => u32_op!(|x, y| x / y),
            Rem => u32_op!(|x, y| x % y),
            Min => u32_op!(|x, y| x.min(y)),
            Max => u32_op!(|x, y| x.max(y)),
            And => u32_op!(|x, y| x & y),
            Or => u32_op!(|x, y| x | y),
            Xor => u32_op!(|x, y| x ^ y),
            Shl => u32_op!(|x, y| x.wrapping_shl(y)),
            Shr => u32_op!(|x, y| x.wrapping_shr(y)),
            Pow => unreachable!("ineligible u32 op"),
        },
        _ => match op {
            // Bool values are stored as 0/1, so logical ops are bitwise.
            And => u32_op!(|x, y| x & y),
            Or => u32_op!(|x, y| x | y),
            Xor => u32_op!(|x, y| x ^ y),
            _ => unreachable!("ineligible bool op"),
        },
    }
}

/// Can `op` on a `tag`-typed operand take the typed unary loop? (All the
/// listed combinations are infallible; the rest raise `UnsupportedOp` on
/// the scalar path.)
pub fn un_fast_eligible(op: UnOp, tag: u8) -> bool {
    match tag {
        TAG_F32 => !matches!(op, UnOp::Not),
        TAG_I32 => matches!(op, UnOp::Neg | UnOp::Not | UnOp::Abs),
        TAG_U32 | TAG_BOOL => matches!(op, UnOp::Not),
        _ => false,
    }
}

/// Typed full-width unary loop; semantics match `UnOp::apply`.
pub fn un_fast(op: UnOp, tag: u8, out: &mut Vec<u32>, a: &[u32]) {
    use UnOp::*;
    macro_rules! map1 {
        (|$x:ident| $body:expr) => {{
            out.clear();
            out.extend(a.iter().map(|&$x| $body));
        }};
    }
    macro_rules! f32_un {
        (|$x:ident| $body:expr) => {
            map1!(|xb| {
                let $x = f32::from_bits(xb);
                ($body).to_bits()
            })
        };
    }
    match tag {
        TAG_F32 => match op {
            Neg => f32_un!(|x| -x),
            Exp => f32_un!(|x| x.exp()),
            Log => f32_un!(|x| x.ln()),
            Sqrt => f32_un!(|x| x.sqrt()),
            Rsqrt => f32_un!(|x| 1.0 / x.sqrt()),
            Sin => f32_un!(|x| x.sin()),
            Cos => f32_un!(|x| x.cos()),
            Abs => f32_un!(|x| x.abs()),
            Floor => f32_un!(|x| x.floor()),
            Not => unreachable!("ineligible f32 op"),
        },
        TAG_I32 => match op {
            Neg => map1!(|x| (x as i32).wrapping_neg() as u32),
            Not => map1!(|x| !(x as i32) as u32),
            Abs => map1!(|x| (x as i32).wrapping_abs() as u32),
            _ => unreachable!("ineligible i32 op"),
        },
        TAG_U32 => match op {
            Not => map1!(|x| !x),
            _ => unreachable!("ineligible u32 op"),
        },
        _ => match op {
            Not => map1!(|x| x ^ 1),
            _ => unreachable!("ineligible bool op"),
        },
    }
}

/// Typed full-width comparison loop (always infallible on equal tags);
/// output tag is always bool. Semantics match `CmpOp::apply`.
pub fn cmp_fast(op: CmpOp, tag: u8, out: &mut Vec<u32>, a: &[u32], b: &[u32]) {
    use CmpOp::*;
    macro_rules! cmp_as {
        ($dec:expr) => {{
            let dec = $dec;
            match op {
                Lt => lanes2!(out, a, b, |x, y| u32::from(dec(x) < dec(y))),
                Le => lanes2!(out, a, b, |x, y| u32::from(dec(x) <= dec(y))),
                Gt => lanes2!(out, a, b, |x, y| u32::from(dec(x) > dec(y))),
                Ge => lanes2!(out, a, b, |x, y| u32::from(dec(x) >= dec(y))),
                Eq => lanes2!(out, a, b, |x, y| u32::from(dec(x) == dec(y))),
                Ne => lanes2!(out, a, b, |x, y| u32::from(dec(x) != dec(y))),
            }
        }};
    }
    match tag {
        TAG_F32 => cmp_as!(f32::from_bits),
        TAG_I32 => cmp_as!(|v: u32| v as i32),
        TAG_U32 => cmp_as!(|v: u32| v),
        _ => cmp_as!(|v: u32| v != 0),
    }
}

/// One typed comparison (infallible on equal tags); semantics match
/// `CmpOp::apply(..).as_bool()`. Used by the loop-test refinement, where
/// the result feeds a mask bit instead of a row.
#[inline(always)]
pub fn cmp_one(op: CmpOp, tag: u8, x: u32, y: u32) -> bool {
    use CmpOp::*;
    macro_rules! cmp_with {
        ($dec:expr) => {{
            let dec = $dec;
            match op {
                Lt => dec(x) < dec(y),
                Le => dec(x) <= dec(y),
                Gt => dec(x) > dec(y),
                Ge => dec(x) >= dec(y),
                Eq => dec(x) == dec(y),
                Ne => dec(x) != dec(y),
            }
        }};
    }
    match tag {
        TAG_F32 => cmp_with!(f32::from_bits),
        TAG_I32 => cmp_with!(|v: u32| v as i32),
        TAG_U32 => cmp_with!(|v: u32| v),
        _ => cmp_with!(|v: u32| v != 0),
    }
}

/// Typed full-width cast loop (casts are always infallible); semantics
/// match `Scalar::cast`. `tag` is the (uniform) source tag.
pub fn cast_fast(ty: Ty, tag: u8, out: &mut Vec<u32>, a: &[u32]) {
    out.clear();
    out.extend(a.iter().map(|&x| encode_bits(decode(tag, x).cast(ty))));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_bits(tag: u8) -> Vec<u32> {
        match tag {
            TAG_F32 => [
                0.0f32,
                -0.0,
                1.5,
                -3.25,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MIN_POSITIVE,
                1e30,
                -7.0,
            ]
            .iter()
            .map(|v| v.to_bits())
            .collect(),
            TAG_I32 => [0i32, 1, -1, 7, -7, i32::MIN, i32::MAX, 31, 32, 100]
                .iter()
                .map(|&v| v as u32)
                .collect(),
            TAG_U32 => vec![0, 1, 2, 7, 31, 32, 33, u32::MAX, u32::MAX - 1, 1000],
            _ => vec![0, 1, 0, 1, 1, 0, 1, 1, 0, 0],
        }
    }

    fn pairs(tag: u8) -> Vec<(u32, u32)> {
        let vals = edge_bits(tag);
        let mut out = Vec::new();
        for &x in &vals {
            for &y in &vals {
                out.push((x, y));
            }
        }
        out
    }

    const ALL_TAGS: [u8; 4] = [TAG_F32, TAG_I32, TAG_U32, TAG_BOOL];

    const ALL_BIN: [BinOp; 13] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Min,
        BinOp::Max,
        BinOp::Pow,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ];

    #[test]
    fn bin_fast_matches_scalar_apply() {
        for tag in ALL_TAGS {
            for op in ALL_BIN {
                if !bin_fast_eligible(op, tag) {
                    // Ineligible combinations must be exactly the fallible
                    // or unsupported ones.
                    let (x, y) = pairs(tag)[3];
                    let r = op.apply(decode(tag, x), decode(tag, y));
                    assert!(
                        r.is_err() || matches!(op, BinOp::Div | BinOp::Rem),
                        "{op:?}/{tag} marked ineligible but apply succeeded"
                    );
                    continue;
                }
                let cases = pairs(tag);
                let (a, b): (Vec<u32>, Vec<u32>) = cases.iter().copied().unzip();
                let skip_zero_div = bin_needs_divisor_scan(op, tag);
                let (a, b): (Vec<u32>, Vec<u32>) = a
                    .iter()
                    .zip(&b)
                    .filter(|&(_, &y)| !(skip_zero_div && y == 0))
                    .map(|(&x, &y)| (x, y))
                    .unzip();
                let mut out = Vec::new();
                bin_fast(op, tag, &mut out, &a, &b);
                for ((&x, &y), &got) in a.iter().zip(&b).zip(&out) {
                    let want = op
                        .apply(decode(tag, x), decode(tag, y))
                        .unwrap_or_else(|e| panic!("{op:?}/{tag} failed on eligible input: {e}"));
                    assert_eq!(
                        got,
                        encode_bits(want),
                        "{op:?}/{tag} lane mismatch on ({x:#x}, {y:#x})"
                    );
                }
            }
        }
    }

    #[test]
    fn un_fast_matches_scalar_apply() {
        const ALL_UN: [UnOp; 10] = [
            UnOp::Neg,
            UnOp::Not,
            UnOp::Exp,
            UnOp::Log,
            UnOp::Sqrt,
            UnOp::Rsqrt,
            UnOp::Sin,
            UnOp::Cos,
            UnOp::Abs,
            UnOp::Floor,
        ];
        for tag in ALL_TAGS {
            for op in ALL_UN {
                let a = edge_bits(tag);
                if !un_fast_eligible(op, tag) {
                    assert!(
                        op.apply(decode(tag, a[0])).is_err(),
                        "{op:?}/{tag} marked ineligible but apply succeeded"
                    );
                    continue;
                }
                let mut out = Vec::new();
                un_fast(op, tag, &mut out, &a);
                for (&x, &got) in a.iter().zip(&out) {
                    let want = op.apply(decode(tag, x)).unwrap();
                    assert_eq!(got, encode_bits(want), "{op:?}/{tag} on {x:#x}");
                }
            }
        }
    }

    #[test]
    fn cmp_fast_matches_scalar_apply() {
        const ALL_CMP: [CmpOp; 6] = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        for tag in ALL_TAGS {
            for op in ALL_CMP {
                let (a, b): (Vec<u32>, Vec<u32>) = pairs(tag).into_iter().unzip();
                let mut out = Vec::new();
                cmp_fast(op, tag, &mut out, &a, &b);
                for ((&x, &y), &got) in a.iter().zip(&b).zip(&out) {
                    let want = op.apply(decode(tag, x), decode(tag, y)).unwrap();
                    assert_eq!(got, encode_bits(want), "{op:?}/{tag} on ({x:#x}, {y:#x})");
                    assert_eq!(
                        cmp_one(op, tag, x, y),
                        want == Scalar::Bool(true),
                        "cmp_one {op:?}/{tag} on ({x:#x}, {y:#x})"
                    );
                }
            }
        }
    }

    #[test]
    fn cast_fast_matches_scalar_cast() {
        for tag in ALL_TAGS {
            for ty in [Ty::F32, Ty::I32, Ty::U32, Ty::Bool] {
                let a = edge_bits(tag);
                let mut out = Vec::new();
                cast_fast(ty, tag, &mut out, &a);
                for (&x, &got) in a.iter().zip(&out) {
                    let want = decode(tag, x).cast(ty);
                    assert_eq!(got, encode_bits(want), "cast {tag}->{ty:?} on {x:#x}");
                }
            }
        }
    }

    #[test]
    fn regrow_set_demotes_and_normalize_recovers() {
        let mut r = RegRow::new(4);
        assert_eq!(r.uniform_tag(), TAG_I32);
        r.set(0, Scalar::F32(1.5));
        assert_eq!(r.uniform_tag(), TAG_MIXED);
        assert_eq!(r.get(0), Scalar::F32(1.5));
        assert_eq!(r.get(1), Scalar::I32(0));
        for lane in 1..4 {
            r.set(lane, Scalar::F32(lane as f32));
        }
        r.normalize();
        assert_eq!(r.uniform_tag(), TAG_F32);
        assert_eq!(r.ty_at(3), Ty::F32);
        let mut m = LaneMask::empty(4);
        m.set(2, true);
        assert_eq!(r.first_ty(&m), Some(Ty::F32));
        let mut dst = RegRow::new(4);
        dst.copy_masked_from(&r, &m);
        assert_eq!(dst.get(2), Scalar::F32(2.0));
        assert_eq!(dst.get(1), Scalar::I32(0));
    }
}
