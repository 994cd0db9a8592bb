//! Structure-of-arrays register rows for the bytecode engine.
//!
//! The tree-walking oracle evaluates `Vec<Scalar>` lane vectors: one enum
//! per lane, matched per lane per op. The bytecode engine instead keeps
//! each virtual register as a [`RegRow`] — a contiguous lane-major strip
//! of raw 32-bit patterns plus a type tag. A converged row is *uniform*
//! (all lanes the same type, one tag byte for the whole row); a row written
//! under a partial lane mask holds the filler (`i32` zero) in its inactive
//! lanes and is *mixed* unless the written type is `i32` too, with per-lane
//! tags.
//!
//! Every typed loop below takes the lane mask as an argument: it runs over
//! the `u32` bit patterns (`f32::from_bits`/`to_bits` are free bitcasts)
//! span by span ([`LaneMask::spans`]): a run of fully active 64-lane mask
//! words — the whole block, under the all-ones mask — as one straight
//! slice loop LLVM autovectorizes, any other word over its set bits only,
//! so an inactive lane is never computed (its filler zero would trap an
//! integer division) and never written. What makes an op eligible is the
//! tag of its operands' *active* lanes ([`RegRow::active_tag`]), so the
//! mixed rows a divergent region produces stay on the typed loops; the
//! per-lane `Scalar` path is left to the bytecode engine's error cases.
//!
//! The typed loops mirror `BinOp::apply`/`UnOp::apply`/`CmpOp::apply`/
//! `Scalar::cast` exactly; property tests cross-check every opcode against
//! the scalar implementations over adversarial values (NaN, -0.0,
//! `i32::MIN`, shift overflow, ...) and every mask shape against the
//! per-lane row writes.

use paraprox_ir::{BinOp, CmpOp, Scalar, Ty, UnOp};

use crate::mask::{byte_lanes, pack_word, set_bits, LaneMask, Span};

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
    /// [`RegRow::set`] lane by lane and normalized: uniform `tag` under a
    /// full mask, filler in the inactive lanes otherwise (so a partial mask
    /// over a non-`i32` type leaves a mixed row). The caller must write
    /// every active lane.
    pub fn begin_strip(&mut self, tag: u8, mask: &LaneMask) -> &mut [u32] {
        let lanes = mask.lanes();
        if mask.all() {
            self.bits.resize(lanes, 0);
            self.tags.resize(lanes, 0);
            self.uniform = tag;
        } else {
            self.reset_filler(lanes);
            if tag != FILLER_TAG && mask.any() {
                self.uniform = TAG_MIXED;
                set_active_tags(&mut self.tags, tag, mask);
            }
        }
        &mut self.bits
    }

    /// Write `v` into the lanes of `mask` and the filler everywhere else.
    pub fn fill_masked(&mut self, v: Scalar, mask: &LaneMask) {
        fill_active(self.begin_strip(tag_of(v), mask), encode_bits(v), mask);
    }

    /// Overwrite every lane with the same scalar.
    pub fn fill(&mut self, lanes: usize, v: Scalar) {
        self.bits.clear();
        self.bits.resize(lanes, encode_bits(v));
        self.tags.resize(lanes, 0);
        self.uniform = tag_of(v);
    }

    /// Overwrite the row with `tag`-typed bits, one lane per item.
    pub fn fill_from(&mut self, tag: u8, bits: impl IntoIterator<Item = u32>) {
        self.bits.clear();
        self.bits.extend(bits);
        self.tags.resize(self.bits.len(), 0);
        self.uniform = tag;
    }

    /// Overwrite the row with `tag`-typed bits, one item per run of
    /// `block_lanes` lanes.
    pub fn fill_blocks(
        &mut self,
        tag: u8,
        block_lanes: usize,
        bits: impl IntoIterator<Item = u32>,
    ) {
        self.bits.clear();
        for b in bits {
            self.bits.extend(std::iter::repeat_n(b, block_lanes));
        }
        self.tags.resize(self.bits.len(), 0);
        self.uniform = tag;
    }

    /// Become a copy of `other`, reusing allocations. (The tag strip is
    /// only read on mixed rows, so a uniform row copies none.)
    pub fn copy_from(&mut self, other: &RegRow) {
        self.bits.clear();
        self.bits.extend_from_slice(&other.bits);
        self.tags.clear();
        if other.uniform == TAG_MIXED {
            self.tags.extend_from_slice(&other.tags);
        } else {
            self.tags.resize(other.bits.len(), 0);
        }
        self.uniform = other.uniform;
    }

    /// Overwrite the lanes of `mask` with the `tag`-typed bits `src` holds
    /// for them; inactive lanes keep their value. Afterwards the row reads
    /// exactly as if every active lane had been [`RegRow::set`] and the row
    /// normalized.
    pub fn merge_strip(&mut self, tag: u8, src: &[u32], mask: &LaneMask) {
        map1(&mut self.bits, src, mask, |x| x);
        if self.uniform == tag || !mask.any() {
            return;
        }
        if mask.all() {
            self.uniform = tag;
            return;
        }
        if self.uniform != TAG_MIXED {
            self.tags.fill(self.uniform);
            self.uniform = TAG_MIXED;
        }
        set_active_tags(&mut self.tags, tag, mask);
        self.normalize();
    }

    /// Overwrite the lanes `lanes` with `src`'s, values and types, active
    /// or not; the others keep theirs. Both rows cover the same lanes.
    pub fn copy_range(&mut self, src: &RegRow, lanes: std::ops::Range<usize>) {
        self.bits[lanes.clone()].copy_from_slice(&src.bits[lanes.clone()]);
        if self.uniform == src.uniform && src.uniform != TAG_MIXED {
            return;
        }
        if self.uniform != TAG_MIXED {
            self.tags.fill(self.uniform);
            self.uniform = TAG_MIXED;
        }
        if src.uniform == TAG_MIXED {
            self.tags[lanes.clone()].copy_from_slice(&src.tags[lanes]);
        } else {
            self.tags[lanes].fill(src.uniform);
        }
        self.normalize();
    }

    /// Rewrite the bits of the lanes of `mask` in place, the row's tags
    /// staying as they are: `write(out, current)` receives the current bits
    /// twice, `out` to overwrite at the active lanes and `current` to read.
    /// `scratch` is the recycled strip the two swap through.
    pub fn update_strip(&mut self, scratch: &mut Vec<u32>, write: impl FnOnce(&mut [u32], &[u32])) {
        scratch.clear();
        scratch.extend_from_slice(&self.bits);
        write(scratch, &self.bits);
        std::mem::swap(&mut self.bits, scratch);
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

    /// The one tag every lane of `mask` carries, or `None` when the active
    /// lanes disagree. A uniform row answers without looking at the mask; a
    /// mixed row's tags are read eight lanes at a time. (With no active
    /// lane any answer is vacuously right; it is the filler's tag.)
    #[inline]
    pub fn active_tag(&self, mask: &LaneMask) -> Option<u8> {
        if self.uniform != TAG_MIXED {
            return Some(self.uniform);
        }
        let Some(first) = mask.iter_set().next() else {
            return Some(FILLER_TAG);
        };
        let tag = self.tags[first];
        let want = tag_lanes(tag);
        let differing = tags_by_eight(&self.tags, mask).fold(0, |differing, (tags, active)| {
            differing | (tags ^ want) & active
        });
        (differing == 0).then_some(tag)
    }
}

/// Eight lanes' worth of `tag`, one byte each.
#[inline(always)]
fn tag_lanes(tag: u8) -> u64 {
    u64::from(tag) * 0x0101_0101_0101_0101
}

/// A tag strip eight lanes at a time: the tags packed one per byte (zero
/// past the last lane), with `0xFF` in the bytes of the active lanes.
#[inline(always)]
fn tags_by_eight<'a>(tags: &'a [u8], mask: &'a LaneMask) -> impl Iterator<Item = (u64, u64)> + 'a {
    let (body, tail) = tags[..mask.lanes()].as_chunks::<8>();
    let mut last = [0; 8];
    last[..tail.len()].copy_from_slice(tail);
    body.iter()
        .copied()
        .chain((!tail.is_empty()).then_some(last))
        .enumerate()
        .map(|(j, eight)| (u64::from_le_bytes(eight), byte_lanes(mask.byte(j))))
}

/// `tags[lane] = tag` on the active lanes, eight lanes at a time; the
/// others keep theirs.
fn set_active_tags(tags: &mut [u8], tag: u8, mask: &LaneMask) {
    let want = tag_lanes(tag);
    let merged = |eight: [u8; 8], j: usize| {
        let active = byte_lanes(mask.byte(j));
        (u64::from_le_bytes(eight) & !active | want & active).to_le_bytes()
    };
    let (body, tail) = tags[..mask.lanes()].as_chunks_mut::<8>();
    for (j, eight) in body.iter_mut().enumerate() {
        *eight = merged(*eight, j);
    }
    if !tail.is_empty() {
        let mut last = [0; 8];
        last[..tail.len()].copy_from_slice(tail);
        tail.copy_from_slice(&merged(last, body.len())[..tail.len()]);
    }
}

/// Does `pred` hold on every active lane of `strip`?
#[inline(always)]
fn all_active(strip: &[u32], mask: &LaneMask, pred: impl Fn(u32) -> bool) -> bool {
    mask.spans().all(|span| match span {
        // No early exit inside a run: the loop is short and vectorizes.
        Span::Run(r) => strip[r].iter().fold(true, |all, &x| all & pred(x)),
        Span::Word(first, bits) => set_bits(bits).all(|i| pred(strip[first + i])),
    })
}

/// `out[lane] = v` on the active lanes.
#[inline(always)]
fn fill_active(out: &mut [u32], v: u32, mask: &LaneMask) {
    for span in mask.spans() {
        match span {
            Span::Run(r) => out[r].fill(v),
            Span::Word(first, bits) => {
                for i in set_bits(bits) {
                    out[first + i] = v;
                }
            }
        }
    }
}

/// `out[lane] = f(a[lane])` on the active lanes; the others are neither
/// computed nor written.
#[inline(always)]
fn map1(out: &mut [u32], a: &[u32], mask: &LaneMask, f: impl Fn(u32) -> u32) {
    for span in mask.spans() {
        match span {
            Span::Run(r) => {
                for (o, &x) in out[r.clone()].iter_mut().zip(&a[r]) {
                    *o = f(x);
                }
            }
            Span::Word(first, bits) => {
                for i in set_bits(bits) {
                    out[first + i] = f(a[first + i]);
                }
            }
        }
    }
}

/// `out[lane] = f(a[lane], b[lane])` on the active lanes; the others are
/// neither computed nor written.
#[inline(always)]
fn map2(out: &mut [u32], a: &[u32], b: &[u32], mask: &LaneMask, f: impl Fn(u32, u32) -> u32) {
    for span in mask.spans() {
        match span {
            Span::Run(r) => {
                for ((o, &x), &y) in out[r.clone()].iter_mut().zip(&a[r.clone()]).zip(&b[r]) {
                    *o = f(x, y);
                }
            }
            Span::Word(first, bits) => {
                for i in set_bits(bits) {
                    out[first + i] = f(a[first + i], b[first + i]);
                }
            }
        }
    }
}

/// Can `op` over two equal-typed operands of `tag` take the typed loop?
/// Integer `Div`/`Rem` additionally require a zero-divisor pre-scan of the
/// active lanes ([`has_active_zero`]); everything not listed is
/// unsupported for the type and must take the scalar path (which raises
/// the oracle's error).
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

/// Any zero bit-pattern in an active lane of the strip (the divisor
/// pre-scan; a zero in an inactive lane is the filler and divides nothing)?
pub fn has_active_zero(bits: &[u32], mask: &LaneMask) -> bool {
    !all_active(bits, mask, |x| x != 0)
}

/// Typed binary loop over the active lanes of `out`. Caller must have
/// checked [`bin_fast_eligible`] (and [`has_active_zero`] when
/// [`bin_needs_divisor_scan`]); semantics match `BinOp::apply` bit for
/// bit.
pub fn bin_strip(op: BinOp, tag: u8, out: &mut [u32], a: &[u32], b: &[u32], mask: &LaneMask) {
    use BinOp::*;
    macro_rules! f32_op {
        (|$x:ident, $y:ident| $body:expr) => {
            map2(out, a, b, mask, |xb, yb| {
                let $x = f32::from_bits(xb);
                let $y = f32::from_bits(yb);
                ($body).to_bits()
            })
        };
    }
    macro_rules! i32_op {
        (|$x:ident, $y:ident| $body:expr) => {
            map2(out, a, b, mask, |xb, yb| {
                let $x = xb as i32;
                let $y = yb as i32;
                ($body) as u32
            })
        };
    }
    macro_rules! u32_op {
        (|$x:ident, $y:ident| $body:expr) => {
            map2(out, a, b, mask, |$x, $y| $body)
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

/// Typed unary loop over the active lanes of `out`; semantics match
/// `UnOp::apply`.
pub fn un_strip(op: UnOp, tag: u8, out: &mut [u32], a: &[u32], mask: &LaneMask) {
    use UnOp::*;
    macro_rules! f32_un {
        (|$x:ident| $body:expr) => {
            map1(out, a, mask, |xb| {
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
            Neg => map1(out, a, mask, |x| (x as i32).wrapping_neg() as u32),
            Not => map1(out, a, mask, |x| !(x as i32) as u32),
            Abs => map1(out, a, mask, |x| (x as i32).wrapping_abs() as u32),
            _ => unreachable!("ineligible i32 op"),
        },
        TAG_U32 => match op {
            Not => map1(out, a, mask, |x| !x),
            _ => unreachable!("ineligible u32 op"),
        },
        _ => match op {
            Not => map1(out, a, mask, |x| x ^ 1),
            _ => unreachable!("ineligible bool op"),
        },
    }
}

/// One typed comparison loop per `(op, tag)`: `$run!(|x, y| test)` receives
/// the comparison of two bit patterns as a `bool` expression.
macro_rules! cmp_dispatch {
    ($op:expr, $tag:expr, $run:ident) => {{
        macro_rules! cmp_as {
            ($dec:expr) => {{
                let dec = $dec;
                match $op {
                    CmpOp::Lt => $run!(|x, y| dec(x) < dec(y)),
                    CmpOp::Le => $run!(|x, y| dec(x) <= dec(y)),
                    CmpOp::Gt => $run!(|x, y| dec(x) > dec(y)),
                    CmpOp::Ge => $run!(|x, y| dec(x) >= dec(y)),
                    CmpOp::Eq => $run!(|x, y| dec(x) == dec(y)),
                    CmpOp::Ne => $run!(|x, y| dec(x) != dec(y)),
                }
            }};
        }
        match $tag {
            TAG_F32 => cmp_as!(f32::from_bits),
            TAG_I32 => cmp_as!(|v: u32| v as i32),
            TAG_U32 => cmp_as!(|v: u32| v),
            _ => cmp_as!(|v: u32| v != 0),
        }
    }};
}

/// Typed comparison loop over the active lanes of `out` (always
/// infallible on equal tags); output tag is always bool. Semantics match
/// `CmpOp::apply`.
pub fn cmp_strip(op: CmpOp, tag: u8, out: &mut [u32], a: &[u32], b: &[u32], mask: &LaneMask) {
    macro_rules! run {
        (|$x:ident, $y:ident| $test:expr) => {
            map2(out, a, b, mask, |$x, $y| u32::from($test))
        };
    }
    cmp_dispatch!(op, tag, run)
}

/// The loop-test refinement: drop from `mask` every active lane where
/// `a OP b` is false (infallible on equal tags; semantics match
/// `CmpOp::apply(..).as_bool()`). The result feeds mask bits instead of a
/// row, a mask word at a time.
pub fn cmp_refine(op: CmpOp, tag: u8, mask: &mut LaneMask, a: &[u32], b: &[u32]) {
    macro_rules! run {
        (|$x:ident, $y:ident| $test:expr) => {
            mask.refine_words(|first, n, live| {
                let (a, b) = (&a[first..first + n], &b[first..first + n]);
                pack_word(live, n, |i| {
                    let ($x, $y) = (a[i], b[i]);
                    $test
                })
            })
        };
    }
    cmp_dispatch!(op, tag, run)
}

/// Split `mask` by a bool-typed condition strip into the lanes where it is
/// true (`t`) and the rest (`f`), a mask word at a time.
pub fn split_by(cond: &[u32], mask: &LaneMask, t: &mut LaneMask, f: &mut LaneMask) {
    t.copy_from(mask);
    t.refine_words(|first, n, live| {
        let cond = &cond[first..first + n];
        pack_word(live, n, |i| cond[i] != 0)
    });
    f.copy_from(mask);
    f.and_not_assign(t);
}

/// Typed cast loop over the active lanes of `out` (casts are always
/// infallible); semantics match `Scalar::cast`. `tag` is the source tag.
pub fn cast_strip(ty: Ty, tag: u8, out: &mut [u32], a: &[u32], mask: &LaneMask) {
    // One loop per (source, target) pair, so the two `match`es on the
    // types are resolved outside it.
    macro_rules! to {
        ($ty:expr) => {
            match tag {
                TAG_F32 => map1(out, a, mask, |x| encode_bits(decode(TAG_F32, x).cast($ty))),
                TAG_I32 => map1(out, a, mask, |x| encode_bits(decode(TAG_I32, x).cast($ty))),
                TAG_U32 => map1(out, a, mask, |x| encode_bits(decode(TAG_U32, x).cast($ty))),
                _ => map1(out, a, mask, |x| encode_bits(decode(TAG_BOOL, x).cast($ty))),
            }
        };
    }
    match ty {
        Ty::F32 => to!(Ty::F32),
        Ty::I32 => to!(Ty::I32),
        Ty::U32 => to!(Ty::U32),
        Ty::Bool => to!(Ty::Bool),
    }
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

    const FILLER_VALUE: Scalar = Scalar::I32(0);

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

    const ALL_CMP: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];

    const ALL_TYS: [Ty; 4] = [Ty::F32, Ty::I32, Ty::U32, Ty::Bool];

    #[test]
    fn bin_strip_matches_scalar_apply() {
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
                let skip_zero_div = bin_needs_divisor_scan(op, tag);
                let (a, b): (Vec<u32>, Vec<u32>) = pairs(tag)
                    .into_iter()
                    .filter(|&(_, y)| !(skip_zero_div && y == 0))
                    .unzip();
                let mut out = vec![0; a.len()];
                bin_strip(op, tag, &mut out, &a, &b, &LaneMask::full(a.len()));
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
    fn un_strip_matches_scalar_apply() {
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
                let mut out = vec![0; a.len()];
                un_strip(op, tag, &mut out, &a, &LaneMask::full(a.len()));
                for (&x, &got) in a.iter().zip(&out) {
                    let want = op.apply(decode(tag, x)).unwrap();
                    assert_eq!(got, encode_bits(want), "{op:?}/{tag} on {x:#x}");
                }
            }
        }
    }

    #[test]
    fn cmp_strip_matches_scalar_apply() {
        for tag in ALL_TAGS {
            for op in ALL_CMP {
                let (a, b): (Vec<u32>, Vec<u32>) = pairs(tag).into_iter().unzip();
                let mut out = vec![0; a.len()];
                cmp_strip(op, tag, &mut out, &a, &b, &LaneMask::full(a.len()));
                let mut kept = LaneMask::full(a.len());
                cmp_refine(op, tag, &mut kept, &a, &b);
                for (lane, ((&x, &y), &got)) in a.iter().zip(&b).zip(&out).enumerate() {
                    let want = op.apply(decode(tag, x), decode(tag, y)).unwrap();
                    assert_eq!(got, encode_bits(want), "{op:?}/{tag} on ({x:#x}, {y:#x})");
                    assert_eq!(
                        kept.get(lane),
                        want == Scalar::Bool(true),
                        "cmp_refine {op:?}/{tag} on ({x:#x}, {y:#x})"
                    );
                }
            }
        }
    }

    #[test]
    fn cast_strip_matches_scalar_cast() {
        for tag in ALL_TAGS {
            for ty in ALL_TYS {
                let a = edge_bits(tag);
                let mut out = vec![0; a.len()];
                cast_strip(ty, tag, &mut out, &a, &LaneMask::full(a.len()));
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
        dst.merge_strip(TAG_F32, r.bits(), &m);
        assert_eq!(dst.get(2), Scalar::F32(2.0));
        assert_eq!(dst.get(1), Scalar::I32(0));
    }

    // ---- row state under every mask shape --------------------------------

    /// The mask shapes a launch produces, over the block sizes that stress
    /// the word loop: the CPU profile's 8-lane warp, one exact word, a
    /// ragged tail (`lanes % 64 != 0`) and several words.
    fn mask_shapes() -> Vec<(String, LaneMask)> {
        let mut out = Vec::new();
        for lanes in [8usize, 64, 100, 128, 256] {
            let from = |name: &str, active: &dyn Fn(usize) -> bool| {
                let mut m = LaneMask::empty(lanes);
                for lane in (0..lanes).filter(|&l| active(l)) {
                    m.set(lane, true);
                }
                (format!("{name}/{lanes}"), m)
            };
            out.push(from("empty", &|_| false));
            out.push(from("one lane", &|l| l == lanes / 2));
            out.push(from("all but one", &|l| l != lanes / 3));
            out.push(from("full", &|_| true));
            out.push(from("first word only", &|l| l < 64));
            out.push(from("ragged guard", &|l| l < lanes * 2 / 3));
            out.push(from("every third", &|l| l % 3 == 1));
        }
        out
    }

    /// The row the per-lane path leaves: filler, then `set` per active lane
    /// in ascending order, then `normalize`.
    fn per_lane_row(mask: &LaneMask, value: impl Fn(usize) -> Scalar) -> RegRow {
        let mut r = RegRow::new(0);
        r.reset_filler(mask.lanes());
        for lane in mask.iter_set() {
            r.set(lane, value(lane));
        }
        r.normalize();
        r
    }

    fn assert_same_row(got: &RegRow, want: &RegRow, what: &str) {
        assert_eq!(got.bits(), want.bits(), "{what}: bits");
        assert_eq!(
            got.uniform_tag(),
            want.uniform_tag(),
            "{what}: uniform-versus-mixed status"
        );
        for lane in 0..want.bits().len() {
            assert_eq!(
                got.tag_at(lane),
                want.tag_at(lane),
                "{what}: tag of lane {lane}"
            );
        }
    }

    /// An operand row as a divergent region leaves it: `tag`-typed edge
    /// values in the active lanes, filler elsewhere. `salt` varies which
    /// value a lane gets, `no_zero` keeps zero out of the active lanes (an
    /// integer divisor), so every zero divisor sits in an inactive lane.
    fn operand(tag: u8, mask: &LaneMask, salt: usize, no_zero: bool) -> RegRow {
        let vals: Vec<u32> = edge_bits(tag)
            .into_iter()
            .filter(|&v| !(no_zero && v == 0))
            .collect();
        per_lane_row(mask, |lane| {
            decode(
                tag,
                vals[(lane * 7 + lane / vals.len() + salt) % vals.len()],
            )
        })
    }

    #[test]
    fn masked_strips_leave_the_row_the_per_lane_path_leaves() {
        for (shape, mask) in mask_shapes() {
            let mut out = RegRow::new(3); // stale size and contents
            out.set(1, Scalar::Bool(true));
            for tag in ALL_TAGS {
                for op in ALL_BIN.into_iter().filter(|&op| bin_fast_eligible(op, tag)) {
                    let a = operand(tag, &mask, 0, false);
                    let b = operand(tag, &mask, 3, bin_needs_divisor_scan(op, tag));
                    assert_eq!(
                        a.active_tag(&mask).filter(|_| mask.any()),
                        mask.any().then_some(tag)
                    );
                    assert!(!(bin_needs_divisor_scan(op, tag) && has_active_zero(b.bits(), &mask)));
                    bin_strip(
                        op,
                        tag,
                        out.begin_strip(tag, &mask),
                        a.bits(),
                        b.bits(),
                        &mask,
                    );
                    let want = per_lane_row(&mask, |l| op.apply(a.get(l), b.get(l)).unwrap());
                    assert_same_row(&out, &want, &format!("{op:?}/{tag} under {shape}"));
                }
                for op in ALL_UN.into_iter().filter(|&op| un_fast_eligible(op, tag)) {
                    let a = operand(tag, &mask, 1, false);
                    un_strip(op, tag, out.begin_strip(tag, &mask), a.bits(), &mask);
                    let want = per_lane_row(&mask, |l| op.apply(a.get(l)).unwrap());
                    assert_same_row(&out, &want, &format!("{op:?}/{tag} under {shape}"));
                }
                for op in ALL_CMP {
                    let (a, b) = (operand(tag, &mask, 2, false), operand(tag, &mask, 5, false));
                    cmp_strip(
                        op,
                        tag,
                        out.begin_strip(TAG_BOOL, &mask),
                        a.bits(),
                        b.bits(),
                        &mask,
                    );
                    let want = per_lane_row(&mask, |l| op.apply(a.get(l), b.get(l)).unwrap());
                    assert_same_row(&out, &want, &format!("{op:?}/{tag} under {shape}"));
                    // The same comparison as a mask refinement and, read
                    // back as a condition, as a branch split.
                    let mut kept = mask.clone();
                    cmp_refine(op, tag, &mut kept, a.bits(), b.bits());
                    let (mut t, mut f) = (LaneMask::empty(1), LaneMask::empty(1));
                    split_by(want.bits(), &mask, &mut t, &mut f);
                    for lane in 0..mask.lanes() {
                        let holds = mask.get(lane) && want.get(lane) == Scalar::Bool(true);
                        assert_eq!(
                            kept.get(lane),
                            holds,
                            "refine {op:?}/{tag} {shape} lane {lane}"
                        );
                        assert_eq!(
                            t.get(lane),
                            holds,
                            "split t {op:?}/{tag} {shape} lane {lane}"
                        );
                        assert_eq!(
                            f.get(lane),
                            mask.get(lane) && !holds,
                            "split f {shape} lane {lane}"
                        );
                    }
                }
                for ty in ALL_TYS {
                    let a = operand(tag, &mask, 4, false);
                    cast_strip(
                        ty,
                        tag,
                        out.begin_strip(tag_of_ty(ty), &mask),
                        a.bits(),
                        &mask,
                    );
                    let want = per_lane_row(&mask, |l| a.get(l).cast(ty));
                    assert_same_row(&out, &want, &format!("cast {tag}->{ty:?} under {shape}"));
                }
                let v = decode(tag, edge_bits(tag)[3]);
                out.fill_masked(v, &mask);
                assert_same_row(
                    &out,
                    &per_lane_row(&mask, |_| v),
                    &format!("fill {tag} under {shape}"),
                );
            }
        }
    }

    #[test]
    fn in_place_strips_leave_the_row_the_per_lane_path_leaves() {
        let shapes = mask_shapes();
        for (shape, mask) in &shapes {
            // Destinations in every state a register can be in: filler,
            // uniform of each type, and mixed by an earlier divergent write
            // under another mask of the same width.
            let mut dsts = vec![per_lane_row(mask, |_| FILLER_VALUE)];
            for tag in ALL_TAGS {
                dsts.push(operand(tag, &LaneMask::full(mask.lanes()), 6, false));
                for (_, earlier) in shapes.iter().filter(|(_, m)| m.lanes() == mask.lanes()) {
                    dsts.push(operand(tag, earlier, 8, false));
                }
            }
            for dst in &dsts {
                for tag in ALL_TAGS {
                    let src = operand(tag, mask, 9, false);
                    let mut want = dst.clone();
                    for lane in mask.iter_set() {
                        want.set(lane, src.get(lane));
                    }
                    want.normalize();
                    let mut got = dst.clone();
                    got.merge_strip(tag, src.bits(), mask);
                    assert_same_row(&got, &want, &format!("merge {tag} under {shape}"));
                }
                // The loop step: same tag in, same tag out, bits only.
                if let Some(tag) = dst
                    .active_tag(mask)
                    .filter(|&t| bin_fast_eligible(BinOp::Add, t))
                {
                    let amt = operand(tag, mask, 2, false);
                    let mut want = dst.clone();
                    for lane in mask.iter_set() {
                        want.set(
                            lane,
                            BinOp::Add.apply(dst.get(lane), amt.get(lane)).unwrap(),
                        );
                    }
                    want.normalize();
                    let (mut got, mut scratch) = (dst.clone(), vec![7; 3]);
                    got.update_strip(&mut scratch, |out, bits| {
                        bin_strip(BinOp::Add, tag, out, bits, amt.bits(), mask)
                    });
                    assert_same_row(&got, &want, &format!("step {tag} under {shape}"));
                }
            }
        }
    }

    #[test]
    fn active_tag_reads_only_active_lanes() {
        let lanes = 100;
        let mut narrow = LaneMask::empty(lanes);
        for lane in 10..70 {
            narrow.set(lane, true);
        }
        let row = operand(TAG_F32, &narrow, 0, false);
        assert_eq!(row.uniform_tag(), TAG_MIXED);
        assert_eq!(row.active_tag(&narrow), Some(TAG_F32));
        let mut one = LaneMask::empty(lanes);
        one.set(69, true);
        assert_eq!(row.active_tag(&one), Some(TAG_F32));
        one.set(70, true); // a filler lane joins: the lanes disagree
        assert_eq!(row.active_tag(&one), None);
        assert_eq!(row.active_tag(&LaneMask::full(lanes)), None);
        let mut outside = LaneMask::empty(lanes);
        outside.set(3, true);
        outside.set(99, true);
        assert_eq!(row.active_tag(&outside), Some(TAG_I32));
        assert_eq!(row.active_tag(&LaneMask::empty(lanes)), Some(TAG_I32));
        // An inactive zero is no divisor; an active one is.
        assert!(!has_active_zero(row.bits(), &LaneMask::empty(lanes)));
        assert!(has_active_zero(row.bits(), &outside));
        let ones = vec![1; lanes];
        assert!(!has_active_zero(&ones, &LaneMask::full(lanes)));
    }
}
