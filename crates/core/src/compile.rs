//! The Paraprox compiler: pattern detection → approximate kernel variants.

use std::collections::HashMap;

use paraprox_approx::{
    approximate_scan, approximate_stencil, bit_tune, input_ranges, memoize_kernel_sharing,
    ApproxError, LookupMode, MemoConfig, StencilScheme, TablePlacement,
};
use paraprox_ir::{FuncId, Program, Ty};
use paraprox_patterns::{detect, DetectOptions, KernelPatterns, LatencyTable};
use paraprox_vgpu::{BufferInit, BufferSpec, Pipeline, PlanArg};

use crate::error::CompileError;
use crate::workload::Workload;

/// The tuning knob a variant exposes (paper §3, one per optimization).
#[derive(Debug, Clone, PartialEq)]
pub enum Knob {
    /// Approximate memoization: lookup-table size (address bits), lookup
    /// mode, and table placement.
    Memo {
        /// Total address bits (table size = 2^bits).
        bits: u32,
        /// Nearest or linear lookup.
        mode: LookupMode,
        /// Table placement.
        placement: TablePlacement,
    },
    /// Stencil/partition: access scheme and reaching distance.
    Stencil {
        /// Center, row, or column scheme.
        scheme: StencilScheme,
        /// Reaching distance.
        reach: u32,
    },
    /// Reduction: skipping rate.
    Reduction {
        /// Execute every `skip`-th iteration.
        skip: u32,
    },
    /// Scan: number of skipped subarrays.
    Scan {
        /// Subarrays predicted instead of computed.
        skip: usize,
    },
}

/// One approximate version of a workload.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Human-readable label (e.g. `memo:11b:nearest:global`).
    pub label: String,
    /// The knob setting this variant embodies.
    pub knob: Knob,
    /// Rewritten program.
    pub program: Program,
    /// Rewritten pipeline (may add lookup-table buffers or change grids).
    pub pipeline: Pipeline,
}

/// Knob ranges explored at compile time; the runtime tuner picks among the
/// resulting variants.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Lookup-table address-bit counts to generate.
    pub memo_bits: Vec<u32>,
    /// Lookup modes to generate.
    pub memo_modes: Vec<LookupMode>,
    /// Table placements to generate.
    pub memo_placements: Vec<TablePlacement>,
    /// Stencil schemes to generate.
    pub stencil_schemes: Vec<StencilScheme>,
    /// Reaching distances to generate.
    pub stencil_reaches: Vec<u32>,
    /// Reduction skipping rates to generate.
    pub reduction_skips: Vec<u32>,
    /// Scan skipped-subarray fractions (numerator, denominator).
    pub scan_skip_fractions: Vec<(usize, usize)>,
    /// Instrument divisions in approximate kernels against zero divisors
    /// (the paper's §5 safety sketch). Adds a compare+select per guarded
    /// division, so it is off by default, matching the paper's prototype.
    pub guard_divisions: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            memo_bits: vec![8, 11, 13],
            memo_modes: vec![LookupMode::Nearest, LookupMode::Linear],
            memo_placements: vec![TablePlacement::Global, TablePlacement::Shared],
            stencil_schemes: vec![
                StencilScheme::Center,
                StencilScheme::Row,
                StencilScheme::Column,
            ],
            stencil_reaches: vec![1, 2],
            reduction_skips: vec![2, 4, 8],
            scan_skip_fractions: vec![(1, 8), (1, 4), (1, 2)],
            guard_divisions: false,
        }
    }
}

impl CompileOptions {
    /// A minimal option set for quick tests: one knob value per pattern.
    pub fn minimal() -> CompileOptions {
        CompileOptions {
            memo_bits: vec![10],
            memo_modes: vec![LookupMode::Nearest],
            memo_placements: vec![TablePlacement::Global],
            stencil_schemes: vec![StencilScheme::Center],
            stencil_reaches: vec![1],
            reduction_skips: vec![4],
            scan_skip_fractions: vec![(1, 4)],
            guard_divisions: false,
        }
    }
}

/// The result of compiling a workload.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The original (exact) workload.
    pub workload: Workload,
    /// Pattern-detection report per kernel.
    pub patterns: Vec<KernelPatterns>,
    /// Generated approximate variants.
    pub variants: Vec<Variant>,
    /// Static-analysis findings on the exact program (warnings only — an
    /// error-severity finding aborts compilation instead).
    pub diagnostics: Vec<paraprox_analysis::Diagnostic>,
    /// Buffer-criticality partition of the exact program, one entry per
    /// kernel: which buffers may be served from approximate memory.
    pub partition: Vec<paraprox_analysis::KernelPartition>,
    /// Static per-variant quality bounds from the error-propagation
    /// analysis, in [`Compiled::variants`] order (see
    /// [`crate::errorbounds`]). The runtime tuner prunes calibration
    /// launches and orders the back-off ladder with this table.
    pub static_quality: Vec<paraprox_runtime::StaticQuality>,
}

impl Compiled {
    /// Names of the patterns found anywhere in the workload (deduplicated,
    /// detection order).
    pub fn pattern_names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for kp in &self.patterns {
            for inst in &kp.instances {
                if !names.contains(&inst.name()) {
                    names.push(inst.name());
                }
            }
        }
        names
    }

    /// The partition verdicts for one kernel of the exact program.
    pub fn partition_for(
        &self,
        kernel: paraprox_ir::KernelId,
    ) -> Option<&paraprox_analysis::KernelPartition> {
        self.partition.iter().find(|p| p.kernel == kernel)
    }

    /// Pipeline buffer slots of the exact workload that are declared
    /// global and classified Tolerant in *every* launch they feed — the
    /// set the approximate-memory auto-placer may move. A slot passed to
    /// several launches must be Tolerant in all of them.
    pub fn tolerant_buffer_slots(&self) -> Vec<usize> {
        crate::analyze::tolerant_buffer_slots(&self.workload, &self.partition)
    }
}

/// Generate the memoization variants.
fn memo_variants(
    workload: &Workload,
    patterns: &[KernelPatterns],
    options: &CompileOptions,
    out: &mut Vec<Variant>,
) -> Result<(), CompileError> {
    // Collect (kernel, func) pairs that have training data.
    let mut sites: Vec<(paraprox_ir::KernelId, FuncId)> = Vec::new();
    for kp in patterns {
        for c in kp.maps() {
            if workload.training_for(c.func).is_some() {
                sites.push((kp.kernel, c.func));
            }
        }
    }
    if sites.is_empty() {
        return Ok(());
    }
    // Bit tuning and the lookup table are independent of mode/placement:
    // cache both per (func, bits). The table is built by the first variant
    // that gets as far as needing it.
    struct Tuned {
        config: MemoConfig,
        table: Option<Vec<f32>>,
    }
    let mut tuned: HashMap<(FuncId, u32), Tuned> = HashMap::new();
    for &bits in &options.memo_bits {
        for &mode in &options.memo_modes {
            for &placement in &options.memo_placements {
                let mut program = workload.program.clone();
                let mut pipeline = workload.pipeline.clone();
                let mut applied = 0usize;
                for &(kernel, func) in &sites {
                    let samples = workload
                        .training_for(func)
                        .expect("filtered to funcs with training");
                    let Tuned {
                        config: base_config,
                        table,
                    } = match tuned.entry((func, bits)) {
                        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            let ranges = input_ranges(samples)?;
                            let result = bit_tune(&workload.program, func, samples, &ranges, bits)?;
                            let config = MemoConfig {
                                func,
                                split: result.split,
                                mode: LookupMode::Nearest,
                                placement: TablePlacement::Global,
                                ranges,
                            };
                            e.insert(Tuned {
                                config,
                                table: None,
                            })
                        }
                    };
                    let config = MemoConfig {
                        mode,
                        placement,
                        ..base_config.clone()
                    };
                    if mode == LookupMode::Linear && config.variable_inputs() != 1 {
                        continue; // linear needs a single variable input
                    }
                    match memoize_kernel_sharing(&program, kernel, &config, table) {
                        Ok(variant) => {
                            program = variant.program;
                            let slot = pipeline.add_buffer(BufferSpec {
                                name: format!("lut_f{}", func.0),
                                ty: Ty::F32,
                                space: variant.lut_space,
                                init: BufferInit::F32(variant.table),
                            });
                            for launch in &mut pipeline.launches {
                                if launch.kernel == kernel {
                                    launch.args.push(PlanArg::Buffer(slot));
                                }
                            }
                            applied += 1;
                        }
                        Err(ApproxError::NotApplicable(_)) => continue,
                        Err(e) => return Err(e.into()),
                    }
                }
                if applied > 0 {
                    out.push(Variant {
                        label: format!(
                            "memo:{bits}b:{}:{}",
                            match mode {
                                LookupMode::Nearest => "nearest",
                                LookupMode::Linear => "linear",
                            },
                            placement.label()
                        ),
                        knob: Knob::Memo {
                            bits,
                            mode,
                            placement,
                        },
                        program,
                        pipeline,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Generate the stencil/partition variants.
fn stencil_variants(
    workload: &Workload,
    patterns: &[KernelPatterns],
    options: &CompileOptions,
    out: &mut Vec<Variant>,
) -> Result<(), CompileError> {
    for &scheme in &options.stencil_schemes {
        for &reach in &options.stencil_reaches {
            let mut program = workload.program.clone();
            let mut applied = 0usize;
            for kp in patterns {
                for cand in kp.stencils() {
                    match approximate_stencil(&program, kp.kernel, cand, scheme, reach) {
                        Ok(p) => {
                            program = p;
                            applied += 1;
                        }
                        Err(ApproxError::NotApplicable(_)) => continue,
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            if applied > 0 {
                out.push(Variant {
                    label: format!("stencil:{}:r{reach}", scheme.label()),
                    knob: Knob::Stencil { scheme, reach },
                    program,
                    pipeline: workload.pipeline.clone(),
                });
            }
        }
    }
    Ok(())
}

/// Group detected reduction loops by loop (statement path), keeping only
/// *innermost* loops — when a nested pair of loops both reduce the same
/// accumulator (tiled matmul), perforating both would square the sampling
/// rate.
pub(crate) fn innermost_reduction_groups(
    loops: &[paraprox_patterns::ReductionLoop],
) -> Vec<Vec<paraprox_patterns::ReductionLoop>> {
    let is_prefix = |outer: &paraprox_patterns::StmtPath, inner: &paraprox_patterns::StmtPath| {
        outer.0.len() < inner.0.len() && inner.0[..outer.0.len()] == outer.0[..]
    };
    let mut groups: Vec<Vec<paraprox_patterns::ReductionLoop>> = Vec::new();
    for red in loops {
        // Skip loops that contain another detected reduction loop.
        if loops.iter().any(|other| is_prefix(&red.path, &other.path)) {
            continue;
        }
        match groups.iter_mut().find(|g| g[0].path == red.path) {
            Some(g) => g.push(red.clone()),
            None => groups.push(vec![red.clone()]),
        }
    }
    groups
}

/// Generate the reduction variants.
fn reduction_variants(
    workload: &Workload,
    patterns: &[KernelPatterns],
    options: &CompileOptions,
    out: &mut Vec<Variant>,
) -> Result<(), CompileError> {
    // How many reduction-loop groups does each kernel have?
    let group_counts: Vec<(paraprox_ir::KernelId, usize)> = patterns
        .iter()
        .map(|kp| {
            let loops: Vec<_> = kp.reductions().cloned().collect();
            (kp.kernel, innermost_reduction_groups(&loops).len())
        })
        .filter(|(_, n)| *n > 0)
        .collect();
    if group_counts.is_empty() {
        return Ok(());
    }
    for &skip in &options.reduction_skips {
        let mut program = workload.program.clone();
        let mut applied = 0usize;
        for &(kernel, count) in &group_counts {
            for i in 0..count {
                // Re-detect after each rewrite: paths shift as the
                // adjustment statements are spliced in.
                let loops =
                    paraprox_patterns::reduction::find_reduction_loops(program.kernel(kernel));
                let groups = innermost_reduction_groups(&loops);
                let Some(group) = groups.get(i) else { break };
                match paraprox_approx::approximate_reduction_group(&program, kernel, group, skip) {
                    Ok(p) => {
                        program = p;
                        applied += 1;
                    }
                    Err(ApproxError::NotApplicable(_)) => continue,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        if applied > 0 {
            out.push(Variant {
                label: format!("reduction:skip{skip}"),
                knob: Knob::Reduction { skip },
                program,
                pipeline: workload.pipeline.clone(),
            });
        }
    }
    Ok(())
}

/// Generate the scan variants.
fn scan_variants(
    workload: &Workload,
    patterns: &[KernelPatterns],
    options: &CompileOptions,
    out: &mut Vec<Variant>,
) -> Result<(), CompileError> {
    for kp in patterns {
        let Some(m) = kp.scan() else { continue };
        let Some(phase1_launch) = workload
            .pipeline
            .launches
            .iter()
            .find(|l| l.kernel == kp.kernel)
        else {
            continue;
        };
        let subarrays = phase1_launch.grid.count();
        for &(num, den) in &options.scan_skip_fractions {
            let skip = (subarrays * num / den).max(1);
            match approximate_scan(&workload.program, &workload.pipeline, kp.kernel, m, skip) {
                Ok((program, pipeline)) => out.push(Variant {
                    label: format!("scan:skip{num}/{den}"),
                    knob: Knob::Scan { skip },
                    program,
                    pipeline,
                }),
                Err(ApproxError::NotApplicable(_)) => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(())
}

/// Compile a workload: analyze the exact program, detect patterns, and
/// generate every approximate variant the options ask for.
///
/// # Errors
///
/// Fails when the static analyzer proves the exact program unsafe (a
/// shared-memory race or out-of-bounds access with a concrete witness —
/// approximating a broken kernel would only launder the bug), or when an
/// approximation rewriter hits a real error (malformed IR, failing
/// function evaluation). Pattern/knob combinations that are merely
/// inapplicable are skipped silently; warning-severity lint findings are
/// reported in [`Compiled::diagnostics`].
pub fn compile(
    workload: &Workload,
    table: &LatencyTable,
    options: &CompileOptions,
) -> Result<Compiled, CompileError> {
    let diagnostics = crate::analyze::analyze_workload(workload);
    let errors: Vec<_> = diagnostics
        .iter()
        .filter(|d| d.severity == paraprox_analysis::Severity::Error)
        .cloned()
        .collect();
    if !errors.is_empty() {
        return Err(CompileError::Analysis(errors));
    }
    let patterns = detect(&workload.program, table, &DetectOptions::default());
    let mut variants = Vec::new();
    memo_variants(workload, &patterns, options, &mut variants)?;
    stencil_variants(workload, &patterns, options, &mut variants)?;
    reduction_variants(workload, &patterns, options, &mut variants)?;
    scan_variants(workload, &patterns, options, &mut variants)?;
    if options.guard_divisions {
        for variant in &mut variants {
            let kernel_ids: Vec<paraprox_ir::KernelId> =
                variant.program.kernels().map(|(id, _)| id).collect();
            for kid in kernel_ids {
                paraprox_approx::guard_divisions(&mut variant.program, kid)?;
            }
        }
    }
    let partition = paraprox_analysis::partition_program(&workload.program);
    let static_quality = crate::errorbounds::static_quality(workload, &patterns, &variants);
    Ok(Compiled {
        workload: workload.clone(),
        patterns,
        variants,
        diagnostics,
        partition,
        static_quality,
    })
}
