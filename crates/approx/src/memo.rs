//! Approximate memoization for map and scatter/gather patterns (paper §3.1).
//!
//! The optimization replaces a call to a pure, compute-heavy function with a
//! query into a lookup table of precomputed results:
//!
//! 1. each function input is **quantized** to `qᵢ` bits over its training
//!    range,
//! 2. the quantized inputs are **concatenated** into a table address
//!    (`Q = Σ qᵢ` bits, table size `2^Q`),
//! 3. the table entry is returned — either the **nearest** precomputed
//!    value, or a **linear** interpolation of the two nearest (paper §4.4.2).
//!
//! **Bit tuning** (§3.1.3, Figure 4) decides how to split the `Q` address
//! bits across the inputs: starting from an even split, a steepest-ascent
//! hill climb moves one bit at a time between inputs, keeping the division
//! with the best output quality on training data. Inputs that are constant
//! in training (e.g. `R` and `V` in BlackScholes) receive zero bits.
//!
//! The table can be placed in global, constant, or shared memory
//! (§4.4.2, Figure 16); the shared placement emits a cooperative staging
//! loop at kernel entry, so its copy-in overhead is *measured*, not
//! assumed.
//!
//! Both the table and every bit-tuning candidate are computed by a
//! [`RowEvaluator`]: one virtual-device launch evaluates the function on
//! a whole batch of argument rows, one lane per row, on the same engine
//! the memoized kernel is measured on.

use paraprox_ir::{
    EvalError, Expr, FuncId, KernelBuilder, KernelId, LocalDecl, MemRef, MemSpace, Param, Program,
    Scalar, Stmt, Ty, VarId,
};
use paraprox_vgpu::{ArgValue, Device, DeviceProfile, Dim2, LaunchError};

use crate::error::ApproxError;

/// The observed range of one function input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputRange {
    /// Smallest training value.
    pub min: f32,
    /// Largest training value.
    pub max: f32,
}

impl InputRange {
    /// Width of the range.
    pub fn width(&self) -> f32 {
        self.max - self.min
    }

    /// True when the input never varied in training — it gets zero
    /// quantization bits and its constant value baked into the table.
    pub fn is_constant(&self) -> bool {
        self.width() <= 0.0
    }

    /// Quantization level of `v` under `q` bits (clamped to the range).
    pub fn level_of(&self, v: f32, q: u32) -> u32 {
        if q == 0 || self.is_constant() {
            return 0;
        }
        let levels = (1u64 << q) as f32;
        let norm = (v - self.min) / self.width() * levels;
        let lvl = norm.floor();
        lvl.clamp(0.0, levels - 1.0) as u32
    }

    /// Representative (midpoint) value of quantization level `level`.
    pub fn rep_of(&self, level: u32, q: u32) -> f32 {
        if q == 0 || self.is_constant() {
            return self.min;
        }
        let levels = (1u64 << q) as f32;
        self.min + (level as f32 + 0.5) * self.width() / levels
    }
}

/// Compute per-input ranges from training argument tuples.
///
/// # Errors
///
/// Returns [`ApproxError::NoTrainingData`] for an empty sample set.
pub fn input_ranges(samples: &[Vec<Scalar>]) -> Result<Vec<InputRange>, ApproxError> {
    let first = samples.first().ok_or(ApproxError::NoTrainingData)?;
    let mut ranges = vec![
        InputRange {
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
        };
        first.len()
    ];
    for sample in samples {
        for (range, arg) in ranges.iter_mut().zip(sample) {
            let v = arg.to_f64_lossy() as f32;
            range.min = range.min.min(v);
            range.max = range.max.max(v);
        }
    }
    Ok(ranges)
}

/// How lookups handle inputs that fall between precomputed entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LookupMode {
    /// Return the nearest precomputed output (faster, less accurate).
    Nearest,
    /// Linearly interpolate the two nearest entries (one extra load and a
    /// few ALU ops; only applicable to single-variable-input functions).
    Linear,
}

/// Where the lookup table lives on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TablePlacement {
    /// Global memory, cached by the L1.
    Global,
    /// Constant memory with the broadcast constant cache.
    Constant,
    /// Shared memory, cooperatively staged from global at kernel entry.
    Shared,
}

impl TablePlacement {
    /// Short label for variant names.
    pub fn label(self) -> &'static str {
        match self {
            TablePlacement::Global => "global",
            TablePlacement::Constant => "constant",
            TablePlacement::Shared => "shared",
        }
    }
}

/// A complete memoization configuration for one function.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoConfig {
    /// The function to replace.
    pub func: FuncId,
    /// Quantization bits per input (zero for constant inputs).
    pub split: Vec<u32>,
    /// Nearest or linear lookups.
    pub mode: LookupMode,
    /// Table placement.
    pub placement: TablePlacement,
    /// Input ranges from training.
    pub ranges: Vec<InputRange>,
}

impl MemoConfig {
    /// Total address bits.
    pub fn total_bits(&self) -> u32 {
        self.split.iter().sum()
    }

    /// Number of table entries (`2^Q`).
    pub fn table_len(&self) -> usize {
        1usize << self.total_bits()
    }

    /// Number of inputs that actually vary.
    pub fn variable_inputs(&self) -> usize {
        self.ranges.iter().filter(|r| !r.is_constant()).count()
    }
}

/// One node explored by bit tuning, for reporting (paper Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct BitTuneResult {
    /// The chosen bits-per-input division.
    pub split: Vec<u32>,
    /// Output quality (%) of the chosen division on training data.
    pub quality: f64,
    /// Every `(split, quality)` pair evaluated, in exploration order.
    pub explored: Vec<(Vec<u32>, f64)>,
}

/// Lanes per block of a [`RowEvaluator`] launch.
const ROW_BLOCK: usize = 256;

/// Evaluates one pure device function on batches of argument rows: a
/// wrapper kernel `out[row] = f(a0[row], …)` added to a copy of the
/// program, launched once per batch with one lane per row on a private
/// virtual device.
///
/// The device is kept across batches, so the wrapper is compiled once for
/// every batch of one evaluator. Its simulated
/// cycles are discarded: the profile cannot change a value. Values are
/// those of the bytecode engine, which the differential suites hold
/// bit-identical to `paraprox_ir`'s pure evaluator, the test reference.
struct RowEvaluator {
    device: Device,
    program: Program,
    kernel: KernelId,
    params: Vec<Ty>,
    ret: Ty,
}

impl RowEvaluator {
    fn new(program: &Program, func: FuncId) -> RowEvaluator {
        let f = program.func(func);
        let params: Vec<Ty> = f.params.iter().map(Param::ty).collect();
        let mut kb = KernelBuilder::new(&format!("{}__rows", f.name));
        // A `bool` column is `u32` 0/1, compared `!= 0` into the argument.
        let columns: Vec<MemRef> = params
            .iter()
            .enumerate()
            .map(|(i, &ty)| {
                let column_ty = if ty == Ty::Bool { Ty::U32 } else { ty };
                kb.buffer(&format!("a{i}"), column_ty, MemSpace::Global)
            })
            .collect();
        let out = kb.buffer("out", f.ret, MemSpace::Global);
        let row = kb.let_("row", KernelBuilder::global_id_x());
        let args = columns
            .iter()
            .zip(&params)
            .map(|(&column, &ty)| {
                let v = kb.load(column, row.clone());
                if ty == Ty::Bool {
                    v.ne_(Expr::u32(0))
                } else {
                    v
                }
            })
            .collect();
        kb.store(out, row, Expr::Call { func, args });
        let ret = f.ret;
        let mut program = program.clone();
        let kernel = program.add_kernel(kb.finish());
        RowEvaluator {
            device: Device::new(DeviceProfile::gtx560().with_parallelism(1)),
            program,
            kernel,
            params,
            ret,
        }
    }

    /// The function's value on each of `rows` argument rows; `arg(row, i)`
    /// is argument `i` of `row`, which must have parameter `i`'s type.
    ///
    /// # Errors
    ///
    /// An argument of the wrong type is [`EvalError::TypeMismatch`]; an
    /// evaluation error is the one the *lowest* failing row raises, as a
    /// loop over the rows would have met it first.
    fn eval(
        &mut self,
        rows: usize,
        arg: impl Fn(usize, usize) -> Scalar,
    ) -> Result<Vec<Scalar>, ApproxError> {
        if rows == 0 {
            return Ok(Vec::new());
        }
        // Pad to a whole number of blocks with copies of row 0, which can
        // only fail where row 0 itself does.
        let block = rows.min(ROW_BLOCK);
        let lanes = rows.next_multiple_of(block);
        let mut columns = vec![Vec::with_capacity(lanes); self.params.len()];
        for row in (0..rows).chain(std::iter::repeat_n(0, lanes - rows)) {
            for (i, (column, &ty)) in columns.iter_mut().zip(&self.params).enumerate() {
                column.push(match (ty, arg(row, i)) {
                    (Ty::F32, Scalar::F32(v)) => v.to_bits(),
                    (Ty::I32, Scalar::I32(v)) => v as u32,
                    (Ty::U32, Scalar::U32(v)) => v,
                    (Ty::Bool, Scalar::Bool(v)) => u32::from(v),
                    (expected, v) => {
                        return Err(EvalError::TypeMismatch {
                            expected,
                            found: v.ty(),
                        }
                        .into())
                    }
                });
            }
        }
        let mark = self.device.buffer_mark();
        let mut args: Vec<ArgValue> = columns
            .iter()
            .zip(&self.params)
            .map(|(bits, &ty)| {
                let id = match ty {
                    Ty::F32 => {
                        let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
                        self.device.alloc_f32(MemSpace::Global, &values)
                    }
                    Ty::I32 => {
                        let values: Vec<i32> = bits.iter().map(|&b| b as i32).collect();
                        self.device.alloc_i32(MemSpace::Global, &values)
                    }
                    Ty::U32 | Ty::Bool => self.device.alloc_u32(MemSpace::Global, bits),
                };
                ArgValue::Buffer(id)
            })
            .collect();
        let out = self.device.alloc_zeroed(MemSpace::Global, self.ret, lanes);
        args.push(ArgValue::Buffer(out));
        let launch = |device: &mut Device, grid: usize, block: usize| {
            device.launch(
                &self.program,
                self.kernel,
                Dim2::linear(grid),
                Dim2::linear(block),
                &args,
            )
        };
        let result = match launch(&mut self.device, lanes / block, block) {
            // Lanes of a block fail in program order, not row order: re-run
            // one row per block, in ascending blocks, to find the first row.
            Err(LaunchError::Eval { .. }) if block > 1 => launch(&mut self.device, rows, 1),
            other => other,
        }
        .map_err(|e| match e {
            LaunchError::Eval { source, .. } => ApproxError::Eval(source),
            other => panic!("row-evaluation launch is well-formed by construction: {other}"),
        })
        .map(|_| {
            let mut values = self
                .device
                .read_scalars(out)
                .expect("the output buffer was just allocated");
            values.truncate(rows);
            values
        });
        self.device.reclaim_buffers(mark);
        result
    }
}

/// The argument of type `ty` that stands for representative value `rep`.
fn arg_of(ty: Ty, rep: f32) -> Scalar {
    match ty {
        Ty::F32 => Scalar::F32(rep),
        Ty::I32 => Scalar::I32(rep.round() as i32),
        Ty::U32 => Scalar::U32(rep.round() as u32),
        Ty::Bool => Scalar::Bool(rep != 0.0),
    }
}

/// Evaluate the output quality of a candidate bit division by running the
/// exact function on quantized-then-reconstructed inputs (no table needed —
/// paper §3.1.3): one launch over the quantized samples.
///
/// `exact` holds the function's outputs on the unquantized samples, which
/// do not depend on the split. [`bit_tune`] evaluates them once, before any
/// quantized pass, so a sample the function cannot evaluate fails there.
fn split_quality(
    rows: &mut RowEvaluator,
    samples: &[Vec<Scalar>],
    ranges: &[InputRange],
    split: &[u32],
    exact: &[f64],
) -> Result<f64, ApproxError> {
    let approx = rows.eval(samples.len(), |row, i| {
        let (arg, range, q) = (samples[row][i], ranges[i], split[i]);
        if arg.ty() == Ty::Bool {
            return arg;
        }
        let v = arg.to_f64_lossy() as f32;
        arg_of(arg.ty(), range.rep_of(range.level_of(v, q), q))
    })?;
    let mut err_sum = 0.0f64;
    for (&exact, approx) in exact.iter().zip(approx) {
        let denom = exact.abs().max(1e-9);
        err_sum += ((approx.to_f64_lossy() - exact).abs() / denom).min(1.0);
    }
    Ok(100.0 * (1.0 - err_sum / samples.len() as f64))
}

/// Steepest-ascent hill climbing over bit divisions (paper §3.1.3).
///
/// The exact outputs are evaluated once, up front; every candidate split is
/// then one device launch over its quantized samples.
///
/// # Errors
///
/// Fails when there are no training samples or the function cannot be
/// evaluated on them.
pub fn bit_tune(
    program: &Program,
    func: FuncId,
    samples: &[Vec<Scalar>],
    ranges: &[InputRange],
    total_bits: u32,
) -> Result<BitTuneResult, ApproxError> {
    if samples.is_empty() {
        return Err(ApproxError::NoTrainingData);
    }
    let arity = program.func(func).params.len();
    for found in samples.iter().map(Vec::len).chain([ranges.len()]) {
        if found != arity {
            return Err(EvalError::ArityMismatch {
                expected: arity,
                found,
            }
            .into());
        }
    }
    let mut rows = RowEvaluator::new(program, func);
    let exact: Vec<f64> = rows
        .eval(samples.len(), |row, i| samples[row][i])?
        .into_iter()
        .map(Scalar::to_f64_lossy)
        .collect();
    let variable: Vec<usize> = ranges
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_constant())
        .map(|(i, _)| i)
        .collect();
    if variable.is_empty() {
        // Function of constants only — a single-entry table.
        let split = vec![0; ranges.len()];
        let quality = split_quality(&mut rows, samples, ranges, &split, &exact)?;
        return Ok(BitTuneResult {
            split: split.clone(),
            quality,
            explored: vec![(split, quality)],
        });
    }
    // Root: divide bits evenly among variable inputs.
    let mut split = vec![0u32; ranges.len()];
    let per = total_bits / variable.len() as u32;
    let mut rem = total_bits - per * variable.len() as u32;
    for &i in &variable {
        split[i] = per + u32::from(rem > 0);
        rem = rem.saturating_sub(1);
    }
    let mut explored = Vec::new();
    let mut best_quality = split_quality(&mut rows, samples, ranges, &split, &exact)?;
    explored.push((split.clone(), best_quality));

    for _ in 0..64 {
        // Children: move one bit from input i to input j.
        let mut best_child: Option<(Vec<u32>, f64)> = None;
        for &i in &variable {
            if split[i] == 0 {
                continue;
            }
            for &j in &variable {
                if i == j {
                    continue;
                }
                let mut child = split.clone();
                child[i] -= 1;
                child[j] += 1;
                let q = split_quality(&mut rows, samples, ranges, &child, &exact)?;
                explored.push((child.clone(), q));
                if best_child.as_ref().map(|(_, bq)| q > *bq).unwrap_or(true) {
                    best_child = Some((child, q));
                }
            }
        }
        match best_child {
            Some((child, q)) if q > best_quality => {
                split = child;
                best_quality = q;
            }
            _ => break,
        }
    }
    Ok(BitTuneResult {
        split,
        quality: best_quality,
        explored,
    })
}

/// The paper's table-sizing search (§3.1.3): start from a default size of
/// 2048 entries (11 bits); while the bit-tuned quality beats the TOQ,
/// halve the table; when it misses, double it — returning the smallest
/// size whose tuned quality satisfies the TOQ, clamped to
/// `[min_bits, max_bits]`.
///
/// Returns `(bits, tuned result)`; when even `max_bits` misses the TOQ the
/// largest size is returned (the runtime will reject the variant).
///
/// # Errors
///
/// Propagates training-evaluation failures from [`bit_tune`].
pub fn choose_table_bits(
    program: &Program,
    func: FuncId,
    samples: &[Vec<Scalar>],
    ranges: &[InputRange],
    toq_percent: f64,
    min_bits: u32,
    max_bits: u32,
) -> Result<(u32, BitTuneResult), ApproxError> {
    let mut bits = 11u32.clamp(min_bits, max_bits); // 2048 entries
    let mut best: Option<(u32, BitTuneResult)> = None;
    loop {
        let tuned = bit_tune(program, func, samples, ranges, bits)?;
        if tuned.quality >= toq_percent {
            best = Some((bits, tuned));
            if bits == min_bits {
                break;
            }
            bits -= 1; // try a smaller (faster) table
        } else {
            match best {
                // The previous (larger) size was the smallest that passed.
                Some(_) => break,
                None => {
                    if bits == max_bits {
                        return Ok((bits, tuned)); // nothing qualifies
                    }
                    bits += 1; // grow until the TOQ is met
                }
            }
        }
    }
    Ok(best.expect("loop exits with a qualifying size"))
}

/// Populate the lookup table: evaluate the function at every combination of
/// quantization-level representatives (paper §3.1.3), all `2^Q` addresses
/// in one device launch.
///
/// Input 0 occupies the most-significant address bits.
///
/// # Errors
///
/// Fails when the function does not return `f32`, when the split or the
/// ranges do not match its arity, or when it cannot be evaluated; an
/// evaluation error is the one at the lowest failing address.
pub fn build_table(program: &Program, config: &MemoConfig) -> Result<Vec<f32>, ApproxError> {
    let func = program.func(config.func);
    if func.ret != Ty::F32 {
        return Err(ApproxError::NotApplicable(format!(
            "memoized function must return f32, `{}` returns {}",
            func.name, func.ret
        )));
    }
    let arity = func.params.len();
    if config.split.len() != arity || config.ranges.len() != arity {
        return Err(EvalError::ArityMismatch {
            expected: arity,
            found: config.split.len().min(config.ranges.len()),
        }
        .into());
    }
    // Decode levels, input 0 in the most significant bits.
    let mut shift = config.total_bits();
    let inputs: Vec<(u32, u32, InputRange, Ty)> = config
        .split
        .iter()
        .zip(&config.ranges)
        .zip(&func.params)
        .map(|((&q, &range), param)| {
            shift -= q;
            (shift, q, range, param.ty())
        })
        .collect();
    let mut rows = RowEvaluator::new(program, config.func);
    rows.eval(config.table_len(), |addr, i| {
        let (shift, q, range, ty) = inputs[i];
        let level = if q == 0 {
            0
        } else {
            ((addr >> shift) & ((1usize << q) - 1)) as u32
        };
        arg_of(ty, range.rep_of(level, q))
    })?
    .into_iter()
    .map(|v| v.as_f32().map_err(ApproxError::Eval))
    .collect()
}

/// A memoized kernel variant: rewritten program plus the table to bind.
#[derive(Debug, Clone)]
pub struct MemoizedVariant {
    /// Program with the rewritten kernel (same kernel id as the original).
    pub program: Program,
    /// The kernel that was rewritten.
    pub kernel: KernelId,
    /// Host contents of the lookup table.
    pub table: Vec<f32>,
    /// Index of the appended lookup-table buffer parameter.
    pub lut_param: usize,
    /// Memory space the table buffer must be allocated in.
    pub lut_space: MemSpace,
    /// The configuration that produced this variant.
    pub config: MemoConfig,
}

struct RewriteCtx<'c> {
    config: &'c MemoConfig,
    /// Where lookup loads read from (the appended param, or the staged
    /// shared array).
    table_mem: MemRef,
    locals: Vec<LocalDecl>,
}

impl RewriteCtx<'_> {
    fn fresh(&mut self, name: &str, ty: Ty) -> VarId {
        let id = VarId(self.locals.len() as u32);
        self.locals.push(LocalDecl {
            name: name.to_string(),
            ty,
        });
        id
    }

    /// Emit the quantize-concat-lookup sequence for one call site.
    /// `args` are the (already rewritten) argument expressions.
    fn lower_call(&mut self, args: Vec<Expr>, prelude: &mut Vec<Stmt>) -> Expr {
        // Bind arguments once.
        let bound: Vec<Expr> = args
            .into_iter()
            .enumerate()
            .map(|(i, a)| match a {
                Expr::Var(_) | Expr::Const(_) => a,
                other => {
                    let v = self.fresh(&format!("marg{i}"), Ty::F32);
                    prelude.push(Stmt::Let {
                        var: v,
                        init: other,
                    });
                    Expr::Var(v)
                }
            })
            .collect();
        let cfg = self.config;
        if cfg.mode == LookupMode::Linear {
            // Single variable input: interpolate between adjacent entries.
            let (idx, range, q) = cfg
                .ranges
                .iter()
                .zip(&cfg.split)
                .enumerate()
                .find(|(_, (r, _))| !r.is_constant())
                .map(|(i, (r, q))| (i, *r, *q))
                .expect("linear mode requires a variable input (validated)");
            let a_f = Expr::Cast(Ty::F32, Box::new(bound[idx].clone()));
            let levels = (1u64 << q) as f32;
            let scale = levels / range.width();
            let pos_var = self.fresh("mpos", Ty::F32);
            prelude.push(Stmt::Let {
                var: pos_var,
                init: (a_f - Expr::f32(range.min)) * Expr::f32(scale) - Expr::f32(0.5),
            });
            let lo_f = self.fresh("mlo_f", Ty::F32);
            prelude.push(Stmt::Let {
                var: lo_f,
                init: Expr::Var(pos_var)
                    .floor()
                    .max(Expr::f32(0.0))
                    .min(Expr::f32(levels - 2.0)),
            });
            let frac = self.fresh("mfrac", Ty::F32);
            prelude.push(Stmt::Let {
                var: frac,
                init: (Expr::Var(pos_var) - Expr::Var(lo_f))
                    .max(Expr::f32(0.0))
                    .min(Expr::f32(1.0)),
            });
            let lo = self.fresh("mlo", Ty::I32);
            prelude.push(Stmt::Let {
                var: lo,
                init: Expr::Cast(Ty::I32, Box::new(Expr::Var(lo_f))),
            });
            let v0 = self.fresh("mv0", Ty::F32);
            prelude.push(Stmt::Let {
                var: v0,
                init: Expr::Load {
                    mem: self.table_mem,
                    index: Box::new(Expr::Var(lo)),
                },
            });
            let v1 = self.fresh("mv1", Ty::F32);
            prelude.push(Stmt::Let {
                var: v1,
                init: Expr::Load {
                    mem: self.table_mem,
                    index: Box::new(Expr::Var(lo) + Expr::i32(1)),
                },
            });
            return Expr::Var(v0) + (Expr::Var(v1) - Expr::Var(v0)) * Expr::Var(frac);
        }
        // Nearest: quantize each variable input and concatenate the bits.
        let mut addr: Option<Expr> = None;
        for (i, (&q, range)) in cfg.split.iter().zip(&cfg.ranges).enumerate() {
            if q == 0 {
                continue;
            }
            let levels = (1u64 << q) as f32;
            let scale = levels / range.width();
            let a_f = Expr::Cast(Ty::F32, Box::new(bound[i].clone()));
            let lvl_f = ((a_f - Expr::f32(range.min)) * Expr::f32(scale))
                .floor()
                .max(Expr::f32(0.0))
                .min(Expr::f32(levels - 1.0));
            let u = self.fresh(&format!("mq{i}"), Ty::U32);
            prelude.push(Stmt::Let {
                var: u,
                init: Expr::Cast(Ty::U32, Box::new(lvl_f)),
            });
            addr = Some(match addr {
                None => Expr::Var(u),
                Some(prev) => (prev << Expr::u32(q)) | Expr::Var(u),
            });
        }
        let addr = addr.unwrap_or_else(|| Expr::u32(0));
        let addr_var = self.fresh("maddr", Ty::I32);
        prelude.push(Stmt::Let {
            var: addr_var,
            init: Expr::Cast(Ty::I32, Box::new(addr)),
        });
        let out = self.fresh("mout", Ty::F32);
        prelude.push(Stmt::Let {
            var: out,
            init: Expr::Load {
                mem: self.table_mem,
                index: Box::new(Expr::Var(addr_var)),
            },
        });
        Expr::Var(out)
    }

    fn rewrite_expr(&mut self, e: Expr, prelude: &mut Vec<Stmt>) -> Expr {
        let target = self.config.func;
        match e {
            Expr::Call { func, args } if func == target => {
                let args = args
                    .into_iter()
                    .map(|a| self.rewrite_expr(a, prelude))
                    .collect();
                self.lower_call(args, prelude)
            }
            Expr::Call { func, args } => Expr::Call {
                func,
                args: args
                    .into_iter()
                    .map(|a| self.rewrite_expr(a, prelude))
                    .collect(),
            },
            Expr::Unary(op, a) => Expr::Unary(op, Box::new(self.rewrite_expr(*a, prelude))),
            Expr::Cast(ty, a) => Expr::Cast(ty, Box::new(self.rewrite_expr(*a, prelude))),
            Expr::Binary(op, a, b) => Expr::Binary(
                op,
                Box::new(self.rewrite_expr(*a, prelude)),
                Box::new(self.rewrite_expr(*b, prelude)),
            ),
            Expr::Cmp(op, a, b) => Expr::Cmp(
                op,
                Box::new(self.rewrite_expr(*a, prelude)),
                Box::new(self.rewrite_expr(*b, prelude)),
            ),
            Expr::Select {
                cond,
                if_true,
                if_false,
            } => Expr::Select {
                cond: Box::new(self.rewrite_expr(*cond, prelude)),
                if_true: Box::new(self.rewrite_expr(*if_true, prelude)),
                if_false: Box::new(self.rewrite_expr(*if_false, prelude)),
            },
            Expr::Load { mem, index } => Expr::Load {
                mem,
                index: Box::new(self.rewrite_expr(*index, prelude)),
            },
            other => other,
        }
    }

    fn rewrite_block(&mut self, stmts: Vec<Stmt>) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            let mut prelude = Vec::new();
            let rewritten = match stmt {
                Stmt::Let { var, init } => Stmt::Let {
                    var,
                    init: self.rewrite_expr(init, &mut prelude),
                },
                Stmt::Assign { var, value } => Stmt::Assign {
                    var,
                    value: self.rewrite_expr(value, &mut prelude),
                },
                Stmt::Store { mem, index, value } => Stmt::Store {
                    mem,
                    index: self.rewrite_expr(index, &mut prelude),
                    value: self.rewrite_expr(value, &mut prelude),
                },
                Stmt::Atomic {
                    op,
                    mem,
                    index,
                    value,
                } => Stmt::Atomic {
                    op,
                    mem,
                    index: self.rewrite_expr(index, &mut prelude),
                    value: self.rewrite_expr(value, &mut prelude),
                },
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => Stmt::If {
                    cond: self.rewrite_expr(cond, &mut prelude),
                    then_body: self.rewrite_block(then_body),
                    else_body: self.rewrite_block(else_body),
                },
                Stmt::For {
                    var,
                    init,
                    cond,
                    step,
                    body,
                } => Stmt::For {
                    var,
                    init: self.rewrite_expr(init, &mut prelude),
                    // Calls in loop bounds would be hoisted before the
                    // loop; none of the benchmarks do this.
                    cond: cond.map_bound(|e| self.rewrite_expr(e, &mut prelude)),
                    step: step.map_amount(|e| self.rewrite_expr(e, &mut prelude)),
                    body: self.rewrite_block(body),
                },
                Stmt::Sync => Stmt::Sync,
                Stmt::Return(e) => Stmt::Return(self.rewrite_expr(e, &mut prelude)),
            };
            out.extend(prelude);
            out.push(rewritten);
        }
        out
    }
}

/// Rewrite every call to `config.func` inside `kernel` into a lookup-table
/// query, returning the rewritten program, the table contents, and binding
/// metadata.
///
/// # Errors
///
/// Fails when the configuration is inapplicable (non-`f32` return, linear
/// mode on a multi-input function, table too large for shared memory is
/// *not* checked here — the device rejects it at launch) or when table
/// construction fails.
pub fn memoize_kernel(
    program: &Program,
    kernel: KernelId,
    config: &MemoConfig,
) -> Result<MemoizedVariant, ApproxError> {
    memoize_kernel_sharing(program, kernel, config, &mut None)
}

/// [`memoize_kernel`] for callers that generate several variants of one
/// function: the table depends only on `config`'s `(func, split, ranges)`,
/// not on its lookup mode or placement, so `table` carries it from one
/// variant to the next. An empty slot is filled by [`build_table`] (after
/// the applicability checks, exactly where [`memoize_kernel`] builds it);
/// a filled slot is used as is and must have been filled for the same
/// `(func, split, ranges)`.
///
/// # Errors
///
/// As [`memoize_kernel`].
pub fn memoize_kernel_sharing(
    program: &Program,
    kernel: KernelId,
    config: &MemoConfig,
    table: &mut Option<Vec<f32>>,
) -> Result<MemoizedVariant, ApproxError> {
    if config.mode == LookupMode::Linear && config.variable_inputs() != 1 {
        return Err(ApproxError::NotApplicable(
            "linear lookup requires exactly one variable input".to_string(),
        ));
    }
    let func = program.func(config.func);
    if config.split.len() != func.params.len() || config.ranges.len() != func.params.len() {
        return Err(ApproxError::NotApplicable(format!(
            "split/ranges arity must match `{}`'s {} parameters",
            func.name,
            func.params.len()
        )));
    }
    let table = match table {
        Some(shared) => shared.clone(),
        None => table.insert(build_table(program, config)?).clone(),
    };
    assert_eq!(
        table.len(),
        config.table_len(),
        "shared memo table was built for another split"
    );

    let mut out = program.clone();
    let k = out.kernel_mut(kernel);
    let lut_param = k.params.len();
    let lut_space = match config.placement {
        TablePlacement::Constant => MemSpace::Constant,
        TablePlacement::Global | TablePlacement::Shared => MemSpace::Global,
    };
    k.params.push(Param::Buffer {
        name: "lut".to_string(),
        ty: Ty::F32,
        space: lut_space,
    });

    let mut ctx = RewriteCtx {
        config,
        table_mem: MemRef::Param(lut_param),
        locals: k.locals.clone(),
    };

    let mut staged_prologue: Vec<Stmt> = Vec::new();
    if config.placement == TablePlacement::Shared {
        let sid = paraprox_ir::SharedId(k.shared.len() as u32);
        k.shared.push(paraprox_ir::SharedDecl {
            name: "lut_s".to_string(),
            ty: Ty::F32,
            len: config.table_len(),
        });
        ctx.table_mem = MemRef::Shared(sid);
        // Cooperative staging: each thread strides over the table.
        let tid_linear = Expr::Special(paraprox_ir::Special::ThreadIdY)
            * Expr::Special(paraprox_ir::Special::BlockDimX)
            + Expr::Special(paraprox_ir::Special::ThreadIdX);
        let stride = Expr::Special(paraprox_ir::Special::BlockDimX)
            * Expr::Special(paraprox_ir::Special::BlockDimY);
        let kvar = ctx.fresh("mstage", Ty::I32);
        staged_prologue.push(Stmt::For {
            var: kvar,
            init: tid_linear,
            cond: paraprox_ir::LoopCond::Lt(Expr::i32(config.table_len() as i32)),
            step: paraprox_ir::LoopStep::Add(stride),
            body: vec![Stmt::Store {
                mem: MemRef::Shared(sid),
                index: Expr::Var(kvar),
                value: Expr::Load {
                    mem: MemRef::Param(lut_param),
                    index: Box::new(Expr::Var(kvar)),
                },
            }],
        });
        staged_prologue.push(Stmt::Sync);
    }

    let body = std::mem::take(&mut k.body);
    let mut new_body = ctx.rewrite_block(body);
    if !staged_prologue.is_empty() {
        staged_prologue.append(&mut new_body);
        new_body = staged_prologue;
    }
    let k = out.kernel_mut(kernel);
    k.body = new_body;
    k.locals = ctx.locals;
    k.name = format!(
        "{}__memo_{}b_{}_{}",
        k.name,
        config.total_bits(),
        match config.mode {
            LookupMode::Nearest => "nearest",
            LookupMode::Linear => "linear",
        },
        config.placement.label()
    );
    Ok(MemoizedVariant {
        program: out,
        kernel,
        table,
        lut_param,
        lut_space,
        config: config.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_ir::{FuncBuilder, KernelBuilder};
    use paraprox_vgpu::{ArgValue, Device, DeviceProfile, Dim2};

    /// f(x, c) = exp(-x*x) / (c + sqrt(x*x + 1)) — heavy, smooth, two
    /// inputs of very different sensitivity when c is constant.
    fn test_func(p: &mut Program) -> FuncId {
        let mut fb = FuncBuilder::new("smooth", Ty::F32);
        let x = fb.scalar("x", Ty::F32);
        let c = fb.scalar("c", Ty::F32);
        let x2 = fb.let_("x2", x.clone() * x);
        fb.ret((-x2.clone()).exp() / (c + (x2 + Expr::f32(1.0)).sqrt()));
        p.add_func(fb.finish())
    }

    fn training(n: usize) -> Vec<Vec<Scalar>> {
        (0..n)
            .map(|i| {
                let x = -2.0 + 4.0 * (i as f32 / (n - 1) as f32);
                vec![Scalar::F32(x), Scalar::F32(1.0)]
            })
            .collect()
    }

    #[test]
    fn ranges_identify_constant_inputs() {
        let ranges = input_ranges(&training(32)).unwrap();
        assert!(!ranges[0].is_constant());
        assert!(ranges[1].is_constant());
        assert_eq!(ranges[1].min, 1.0);
        assert!(input_ranges(&[]).is_err());
    }

    #[test]
    fn level_rep_are_consistent() {
        let r = InputRange {
            min: -1.0,
            max: 3.0,
        };
        for q in [1u32, 4, 8] {
            for lvl in 0..(1u32 << q).min(64) {
                let rep = r.rep_of(lvl, q);
                assert_eq!(r.level_of(rep, q), lvl, "q={q} lvl={lvl}");
            }
        }
        // Out-of-range values clamp.
        assert_eq!(r.level_of(-100.0, 4), 0);
        assert_eq!(r.level_of(100.0, 4), 15);
    }

    #[test]
    fn bit_tuning_starves_constant_inputs() {
        let mut p = Program::new();
        let f = test_func(&mut p);
        let samples = training(64);
        let ranges = input_ranges(&samples).unwrap();
        let result = bit_tune(&p, f, &samples, &ranges, 10).unwrap();
        assert_eq!(result.split[1], 0, "constant input must get 0 bits");
        assert_eq!(result.split[0], 10);
        assert!(result.quality > 90.0, "quality = {}", result.quality);
        assert!(!result.explored.is_empty());
    }

    #[test]
    fn bit_tuning_improves_over_even_split_for_skewed_sensitivity() {
        // g(a, b) = exp(3*a) + 0.01*b : a deserves more bits than b.
        let mut p = Program::new();
        let mut fb = FuncBuilder::new("skewed", Ty::F32);
        let a = fb.scalar("a", Ty::F32);
        let b = fb.scalar("b", Ty::F32);
        fb.ret((a * Expr::f32(3.0)).exp() + b * Expr::f32(0.01));
        let f = p.add_func(fb.finish());
        let samples: Vec<Vec<Scalar>> = (0..128)
            .map(|i| {
                let t = i as f32 / 127.0;
                vec![Scalar::F32(t * 2.0), Scalar::F32((t * 37.0) % 1.0 * 10.0)]
            })
            .collect();
        let ranges = input_ranges(&samples).unwrap();
        let result = bit_tune(&p, f, &samples, &ranges, 8).unwrap();
        assert!(
            result.split[0] > result.split[1],
            "expected more bits for the sensitive input, got {:?}",
            result.split
        );
        let even_quality = result
            .explored
            .first()
            .map(|(_, q)| *q)
            .expect("root explored");
        assert!(result.quality >= even_quality);
    }

    #[test]
    fn table_matches_function_at_representatives() {
        let mut p = Program::new();
        let f = test_func(&mut p);
        let samples = training(32);
        let ranges = input_ranges(&samples).unwrap();
        let config = MemoConfig {
            func: f,
            split: vec![6, 0],
            mode: LookupMode::Nearest,
            placement: TablePlacement::Global,
            ranges: ranges.clone(),
        };
        let table = build_table(&p, &config).unwrap();
        assert_eq!(table.len(), 64);
        let func = p.func(f).clone();
        for (lvl, &entry) in table.iter().enumerate() {
            let rep = ranges[0].rep_of(lvl as u32, 6);
            let exact = paraprox_ir::eval_func(&p, &func, &[Scalar::F32(rep), Scalar::F32(1.0)])
                .unwrap()
                .as_f32()
                .unwrap();
            assert_eq!(entry.to_bits(), exact.to_bits(), "level {lvl}");
        }
    }

    #[test]
    fn evaluation_errors_stay_errors_at_the_lowest_failing_row() {
        // `f(d) = 6 / d` in i32 over d ∈ [-3.5, 3.5] at 3 bits: the
        // representatives of levels 3 and 4 round to 0.
        let mut p = Program::new();
        let mut fb = FuncBuilder::new("divides", Ty::F32);
        let d = fb.scalar("d", Ty::I32);
        fb.ret((Expr::i32(6) / d).cast(Ty::F32));
        let f = p.add_func(fb.finish());
        let config = MemoConfig {
            func: f,
            split: vec![3],
            mode: LookupMode::Nearest,
            placement: TablePlacement::Global,
            ranges: vec![InputRange {
                min: -3.5,
                max: 3.5,
            }],
        };
        assert_eq!(
            build_table(&p, &config),
            Err(ApproxError::Eval(EvalError::DivisionByZero))
        );

        // Rows fail in different statements: row 3 in the first, row 1 by
        // running off the end. The lowest row's error wins, as a per-row
        // loop meets it first — not the one the block hits first.
        let mut fb = FuncBuilder::new("two_faults", Ty::F32);
        let k = fb.scalar("k", Ty::I32);
        let early = fb.let_("early", Expr::i32(1) / (k.clone() - Expr::i32(3)));
        fb.if_(k.ne_(Expr::i32(1)), |fb| fb.ret(early.cast(Ty::F32)));
        let g = p.add_func(fb.finish());
        let samples: Vec<Vec<Scalar>> = (0..8).map(|k| vec![Scalar::I32(k)]).collect();
        let lowest = ApproxError::Eval(EvalError::MissingReturn("two_faults".to_string()));
        let mut rows = RowEvaluator::new(&p, g);
        let evaluated = rows.eval(samples.len(), |row, i| samples[row][i]);
        assert_eq!(evaluated.unwrap_err(), lowest);
        let ranges = input_ranges(&samples).unwrap();
        assert_eq!(bit_tune(&p, g, &samples, &ranges, 4).unwrap_err(), lowest);
        // A sample of the wrong type or arity is the pure evaluator's error.
        let mismatched = vec![vec![Scalar::I32(1)], vec![Scalar::F32(1.0)]];
        assert_eq!(
            bit_tune(&p, g, &mismatched, &ranges, 4),
            Err(ApproxError::Eval(EvalError::TypeMismatch {
                expected: Ty::I32,
                found: Ty::F32
            }))
        );
        assert_eq!(
            bit_tune(&p, g, &[vec![]], &ranges, 4),
            Err(ApproxError::Eval(EvalError::ArityMismatch {
                expected: 1,
                found: 0
            }))
        );
    }

    /// Build a map kernel calling the function, memoize it, and execute
    /// both versions — the cornerstone integration check.
    fn end_to_end(mode: LookupMode, placement: TablePlacement) -> (f64, u64, u64) {
        let mut p = Program::new();
        let f = test_func(&mut p);
        let mut kb = KernelBuilder::new("map");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let output = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let x = kb.let_("x", kb.load(input, gid.clone()));
        kb.store(
            output,
            gid,
            Expr::Call {
                func: f,
                args: vec![x, Expr::f32(1.0)],
            },
        );
        let kid = p.add_kernel(kb.finish());

        let samples = training(64);
        let ranges = input_ranges(&samples).unwrap();
        let config = MemoConfig {
            func: f,
            split: vec![8, 0],
            mode,
            placement,
            ranges,
        };
        let variant = memoize_kernel(&p, kid, &config).unwrap();

        let n = 256;
        let data: Vec<f32> = (0..n).map(|i| -2.0 + 4.0 * i as f32 / n as f32).collect();

        let mut device = Device::new(DeviceProfile::gtx560());
        let input = device.alloc_f32(MemSpace::Global, &data);
        let output = device.alloc_f32(MemSpace::Global, &vec![0.0; n]);
        let exact_stats = device
            .launch(
                &p,
                kid,
                Dim2::linear(n / 32),
                Dim2::linear(32),
                &[input.into(), output.into()],
            )
            .unwrap();
        let exact_out = device.read_f32(output).unwrap();

        let lut = match variant.lut_space {
            MemSpace::Constant => device.alloc_f32(MemSpace::Constant, &variant.table),
            _ => device.alloc_f32(MemSpace::Global, &variant.table),
        };
        let approx_output = device.alloc_f32(MemSpace::Global, &vec![0.0; n]);
        let approx_stats = device
            .launch(
                &variant.program,
                kid,
                Dim2::linear(n / 32),
                Dim2::linear(32),
                &[input.into(), approx_output.into(), ArgValue::Buffer(lut)],
            )
            .unwrap();
        let approx_out = device.read_f32(approx_output).unwrap();

        let quality = paraprox_quality::Metric::MeanRelative.quality_f32(&exact_out, &approx_out);
        (
            quality,
            exact_stats.total_cycles(),
            approx_stats.total_cycles(),
        )
    }

    #[test]
    fn shared_table_gives_the_same_variants_as_building_each() {
        let mut p = Program::new();
        let f = test_func(&mut p);
        let mut kb = KernelBuilder::new("map");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let x = kb.let_("x", kb.load(input, gid.clone()));
        kb.store(
            input,
            gid,
            Expr::Call {
                func: f,
                args: vec![x, Expr::f32(1.0)],
            },
        );
        let kid = p.add_kernel(kb.finish());
        let ranges = input_ranges(&training(64)).unwrap();
        let mut slot = None;
        let mut first_table: Option<Vec<f32>> = None;
        for mode in [LookupMode::Nearest, LookupMode::Linear] {
            for placement in [
                TablePlacement::Global,
                TablePlacement::Constant,
                TablePlacement::Shared,
            ] {
                let config = MemoConfig {
                    func: f,
                    split: vec![7, 0],
                    mode,
                    placement,
                    ranges: ranges.clone(),
                };
                let alone = memoize_kernel(&p, kid, &config).unwrap();
                let shared = memoize_kernel_sharing(&p, kid, &config, &mut slot).unwrap();
                assert_eq!(alone.program, shared.program);
                assert_eq!(
                    alone.table.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    shared.table.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
                assert_eq!(slot.as_ref(), Some(&shared.table), "slot holds the table");
                assert_eq!(
                    first_table.get_or_insert(shared.table.clone()),
                    &shared.table
                );
            }
        }
        // An inapplicable configuration is rejected before the slot is
        // consulted or filled.
        let mut empty = None;
        let bad = MemoConfig {
            func: f,
            split: vec![7],
            mode: LookupMode::Nearest,
            placement: TablePlacement::Global,
            ranges: ranges[..1].to_vec(),
        };
        assert!(matches!(
            memoize_kernel_sharing(&p, kid, &bad, &mut empty),
            Err(ApproxError::NotApplicable(_))
        ));
        assert!(empty.is_none());
    }

    #[test]
    fn memoized_kernel_is_fast_and_accurate_global_nearest() {
        let (quality, exact, approx) = end_to_end(LookupMode::Nearest, TablePlacement::Global);
        assert!(quality > 90.0, "quality = {quality}");
        assert!(
            approx < exact,
            "approx {approx} should beat exact {exact} cycles"
        );
    }

    #[test]
    fn linear_mode_is_more_accurate_than_nearest() {
        let (q_nearest, _, c_nearest) = end_to_end(LookupMode::Nearest, TablePlacement::Global);
        let (q_linear, _, c_linear) = end_to_end(LookupMode::Linear, TablePlacement::Global);
        assert!(
            q_linear > q_nearest,
            "linear {q_linear} vs nearest {q_nearest}"
        );
        assert!(
            c_linear > c_nearest,
            "linear must cost more cycles ({c_linear} vs {c_nearest})"
        );
    }

    #[test]
    fn constant_placement_works() {
        let (quality, _, _) = end_to_end(LookupMode::Nearest, TablePlacement::Constant);
        assert!(quality > 90.0, "quality = {quality}");
    }

    #[test]
    fn shared_placement_stages_and_works() {
        let (quality, _, _) = end_to_end(LookupMode::Nearest, TablePlacement::Shared);
        assert!(quality > 90.0, "quality = {quality}");
    }

    #[test]
    fn linear_rejects_multi_variable_functions() {
        let mut p = Program::new();
        let mut fb = FuncBuilder::new("two", Ty::F32);
        let a = fb.scalar("a", Ty::F32);
        let b = fb.scalar("b", Ty::F32);
        fb.ret(a + b);
        let f = p.add_func(fb.finish());
        let mut kb = KernelBuilder::new("k");
        let _ = kb.buffer("in", Ty::F32, MemSpace::Global);
        let kid = p.add_kernel(kb.finish());
        let config = MemoConfig {
            func: f,
            split: vec![4, 4],
            mode: LookupMode::Linear,
            placement: TablePlacement::Global,
            ranges: vec![
                InputRange { min: 0.0, max: 1.0 },
                InputRange { min: 0.0, max: 1.0 },
            ],
        };
        assert!(matches!(
            memoize_kernel(&p, kid, &config),
            Err(ApproxError::NotApplicable(_))
        ));
    }

    #[test]
    fn table_sizing_finds_smallest_qualifying_size() {
        let mut p = Program::new();
        let f = test_func(&mut p);
        let samples = training(64);
        let ranges = input_ranges(&samples).unwrap();
        // A modest target: some small size qualifies.
        let (bits, tuned) = choose_table_bits(&p, f, &samples, &ranges, 97.0, 3, 14).unwrap();
        assert!(tuned.quality >= 97.0);
        assert!((3..=14).contains(&bits));
        // Minimality: one bit fewer must miss the target (unless already at
        // the minimum).
        if bits > 3 {
            let smaller = bit_tune(&p, f, &samples, &ranges, bits - 1).unwrap();
            assert!(
                smaller.quality < 97.0,
                "bits-1 quality {} should miss",
                smaller.quality
            );
        }
        // An unreachable target returns the max size.
        let (bits_hi, tuned_hi) = choose_table_bits(&p, f, &samples, &ranges, 100.0, 3, 6).unwrap();
        assert_eq!(bits_hi, 6);
        assert!(tuned_hi.quality < 100.0);
    }

    #[test]
    fn bigger_tables_are_more_accurate() {
        let mut qualities = Vec::new();
        for bits in [3u32, 6, 10] {
            let mut p = Program::new();
            let f = test_func(&mut p);
            let samples = training(64);
            let ranges = input_ranges(&samples).unwrap();
            let config = MemoConfig {
                func: f,
                split: vec![bits, 0],
                mode: LookupMode::Nearest,
                placement: TablePlacement::Global,
                ranges,
            };
            let mut rows = RowEvaluator::new(&p, f);
            let exact: Vec<f64> = rows
                .eval(samples.len(), |row, i| samples[row][i])
                .unwrap()
                .into_iter()
                .map(Scalar::to_f64_lossy)
                .collect();
            let q =
                split_quality(&mut rows, &samples, &config.ranges, &config.split, &exact).unwrap();
            qualities.push(q);
        }
        assert!(qualities[0] < qualities[1] && qualities[1] < qualities[2]);
    }
}
