//! Static per-rung quality bounds: the compile-time half of the TOQ
//! ladder pruning described in DESIGN.md.
//!
//! Each approximation knob is modeled as an error [`Injection`] at its
//! program point — memo-table quantization at the call site, stencil tile
//! replication at the load, reduction skipping at the loop, scan subarray
//! prediction at the scanned input — and propagated through the *exact*
//! program by `paraprox_analysis::errorprop`. The resulting absolute
//! error bound on the pipeline's output buffers is converted into the
//! workload's metric scale, yielding one [`StaticQuality`] per variant:
//!
//! * `error_bound` / `quality_floor` — a *sound* certificate (conditioned
//!   on the modeled input ranges): the measured metric error never
//!   exceeds the bound. `tests/errorprop_suite.rs` asserts this across
//!   every app and rung.
//! * `predicted_quality` — a *heuristic* point estimate used to prune
//!   calibration launches and order the back-off ladder. A misprediction
//!   costs speedup, never quality: pruned rungs are simply not measured,
//!   and only measured rungs enter the ladder.
//! * `refused` — the propagation found approximation error reaching a
//!   Critical sink (address, branch, atomic, loop bound) or a Critical
//!   buffer of the criticality partition; no finite bound is claimed.

use paraprox_analysis::{propagate, ErrMag, Injection, LaunchModel, SlotState, VRange};
use paraprox_ir::{FuncId, MemRef};
use paraprox_patterns::KernelPatterns;
use paraprox_quality::Metric;
use paraprox_runtime::StaticQuality;
use paraprox_vgpu::{BufferInit, PlanArg};

use crate::compile::{innermost_reduction_groups, Knob, Variant};
use crate::workload::Workload;

/// Guard for relative-error conversions, mirroring the metric's own
/// denominator guard.
const EPS: f64 = 1e-9;

/// Initial abstract state per pipeline buffer slot.
///
/// Data inits contribute their concrete min/max, dilated by one range
/// width (at least 1.0): the workload's input generator re-draws inputs
/// per seed, so the baked-in contents are representative, not exhaustive.
fn slot_states(workload: &Workload) -> Vec<SlotState> {
    workload
        .pipeline
        .buffers
        .iter()
        .map(|spec| {
            let (lo, hi) = match &spec.init {
                BufferInit::Zeroed(_) => (0.0, 0.0),
                BufferInit::F32(data) => fold_range(data.iter().map(|&v| f64::from(v))),
                BufferInit::I32(data) => fold_range(data.iter().map(|&v| f64::from(v))),
                BufferInit::U32(data) => fold_range(data.iter().map(|&v| f64::from(v))),
            };
            if !lo.is_finite() || !hi.is_finite() {
                return SlotState::top();
            }
            let margin = (hi - lo).max(lo.abs()).max(hi.abs()).max(1.0);
            SlotState::exact(VRange::new(lo - margin, hi + margin))
        })
        .collect()
}

fn fold_range(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut any = false;
    for v in values {
        if !v.is_finite() {
            return (f64::NEG_INFINITY, f64::INFINITY);
        }
        lo = lo.min(v);
        hi = hi.max(v);
        any = true;
    }
    if any {
        (lo, hi)
    } else {
        (0.0, 0.0)
    }
}

/// One [`LaunchModel`] per pipeline launch of the exact workload.
fn launch_models(workload: &Workload) -> Vec<LaunchModel> {
    let contexts = crate::analyze::launch_contexts(workload);
    workload
        .pipeline
        .launches
        .iter()
        .zip(contexts)
        .map(|(launch, (kernel, ctx))| LaunchModel {
            kernel,
            ctx,
            args: launch
                .args
                .iter()
                .map(|a| match a {
                    PlanArg::Buffer(slot) => Some(*slot),
                    PlanArg::Scalar(_) => None,
                })
                .collect(),
        })
        .collect()
}

/// Model a variant's knob as error injections at its program points.
///
/// The injections attach to the *exact* program (the propagation runs on
/// it), using the pattern report to locate the rewritten sites.
fn variant_injections(
    workload: &Workload,
    patterns: &[KernelPatterns],
    variant: &Variant,
) -> Vec<Injection> {
    let mut out = Vec::new();
    match &variant.knob {
        Knob::Memo { .. } => {
            // The quantization step is the largest adjacent-entry delta of
            // each generated lookup table (baked into the variant's
            // pipeline as a `lut_f<id>` buffer).
            for spec in &variant.pipeline.buffers {
                let Some(id) = spec.name.strip_prefix("lut_f") else {
                    continue;
                };
                let Ok(id) = id.parse::<usize>() else {
                    continue;
                };
                let BufferInit::F32(table) = &spec.init else {
                    continue;
                };
                let abs = table
                    .windows(2)
                    .map(|w| f64::from((w[1] - w[0]).abs()))
                    .fold(0.0f64, f64::max);
                out.push(Injection::Call {
                    func: FuncId(id),
                    abs,
                });
            }
        }
        Knob::Stencil { reach, .. } => {
            // Replicating one tile value within reaching distance `r`
            // replaces up to r/(r+1) of the tile's reads; model each read
            // as perturbed by that fraction of the buffer's value range.
            let frac = f64::from(*reach) / f64::from(reach + 1);
            for kp in patterns {
                for cand in kp.stencils() {
                    out.push(Injection::Load {
                        kernel: kp.kernel,
                        mem: cand.buffer,
                        mag: ErrMag::RangeFrac(frac),
                    });
                }
            }
        }
        Knob::Reduction { skip } => {
            // Executing every skip-th iteration and rescaling leaves a
            // relative error of (skip-1)/skip on each accumulator.
            let rel = f64::from(skip - 1) / f64::from(*skip);
            for kp in patterns {
                let loops: Vec<_> = kp.reductions().cloned().collect();
                for group in innermost_reduction_groups(&loops) {
                    out.push(Injection::LoopScale {
                        kernel: kp.kernel,
                        path: group[0].path.0.clone(),
                        rel,
                    });
                }
            }
        }
        Knob::Scan { skip } => {
            // Predicting `skip` of the subarrays perturbs that fraction of
            // the scanned input's contribution.
            for kp in patterns {
                let Some(m) = kp.scan() else { continue };
                let Some(launch) = workload
                    .pipeline
                    .launches
                    .iter()
                    .find(|l| l.kernel == kp.kernel)
                else {
                    continue;
                };
                let subarrays = launch.grid.count().max(1);
                let frac = (*skip as f64 / subarrays as f64).min(1.0);
                out.push(Injection::Load {
                    kernel: kp.kernel,
                    mem: MemRef::Param(m.input_param),
                    mag: ErrMag::RangeFrac(frac),
                });
            }
        }
    }
    out
}

/// Convert a propagated absolute output error into a [`StaticQuality`]
/// on the workload's metric scale.
fn to_static_quality(
    label: &str,
    metric: Metric,
    out_range: VRange,
    abs_err: f64,
    refusals: Vec<String>,
) -> StaticQuality {
    if !refusals.is_empty() {
        return StaticQuality {
            label: label.to_string(),
            error_bound: f64::INFINITY,
            quality_floor: 0.0,
            predicted_quality: 0.0,
            predictive: false,
            refused: true,
            refusals,
        };
    }
    let error_bound = metric_error_bound(metric, out_range, abs_err);
    StaticQuality {
        label: label.to_string(),
        error_bound,
        quality_floor: quality_of_error(error_bound),
        predicted_quality: predicted_quality(out_range, abs_err),
        // A bound widened to +∞ (fixpoint precision loss, not a refusal)
        // makes no pruning claim: the rung is measured dynamically.
        predictive: abs_err.is_finite(),
        refused: false,
        refusals: Vec::new(),
    }
}

/// A sound bound on the metric error given a per-element absolute error
/// bound `abs_err` and the exact output's value range.
///
/// * `abs_err == 0` — exact: metric error 0.
/// * [`Metric::MeanRelative`] clamps each element's relative error at 1,
///   so 1.0 is its structural ceiling; when the output range stays away
///   from zero, `abs_err / min|e|` refines it.
/// * The norm metrics are unbounded relative ratios: `abs_err / min|e|`
///   when the range excludes zero (`Σ|a−e| ≤ n·abs_err`,
///   `Σ|e| ≥ n·min|e|`; likewise in L2), `+∞` otherwise.
fn metric_error_bound(metric: Metric, out_range: VRange, abs_err: f64) -> f64 {
    if abs_err == 0.0 {
        return 0.0;
    }
    let min_abs = out_range.min_abs();
    let ratio = if min_abs > EPS {
        abs_err / min_abs
    } else {
        f64::INFINITY
    };
    match metric {
        Metric::MeanRelative => ratio.min(1.0),
        Metric::L1Norm | Metric::L2Norm => ratio,
    }
}

/// Quality (paper percentage scale) of a metric-error bound.
fn quality_of_error(error: f64) -> f64 {
    if error.is_finite() {
        (100.0 * (1.0 - error)).clamp(0.0, 100.0)
    } else {
        0.0
    }
}

/// Damping for the predicted-quality squash: the propagated bound is a
/// worst-case accumulation (every error at full magnitude, every sign
/// aligned), while delivered error benefits from cancellation and
/// averaging — empirically 1–2 orders of magnitude smaller. Rungs whose
/// worst-case bound is within `DAMPING`× the output scale predict near
/// the measured quality; only bounds far beyond it predict a TOQ miss.
const DAMPING: f64 = 50.0;

/// Heuristic point estimate of delivered quality: the worst-case absolute
/// error against the output's magnitude scale, squashed onto the
/// percentage scale with [`DAMPING`]. Monotone in `abs_err`, so it ranks
/// rungs of one app even when every sound bound collapses to the metric
/// ceiling, while only the catastrophic rungs (bound ≫ output scale)
/// fall below a 90% TOQ and get pruned.
fn predicted_quality(out_range: VRange, abs_err: f64) -> f64 {
    if abs_err == 0.0 {
        return 100.0;
    }
    if !abs_err.is_finite() {
        return 0.0;
    }
    let scale = if out_range.is_finite() {
        out_range.max_abs().max(EPS)
    } else {
        abs_err
    };
    let ratio = abs_err / scale;
    let rel = (ratio / (ratio + DAMPING)).min(1.0);
    (100.0 * (1.0 - rel)).clamp(0.0, 100.0)
}

/// Static quality of one variant: inject its knob's error model into the
/// exact program, propagate, and read the bound off the output buffers.
fn variant_static_quality(
    workload: &Workload,
    patterns: &[KernelPatterns],
    launches: &[LaunchModel],
    initial_slots: &[SlotState],
    variant: &Variant,
) -> StaticQuality {
    let injections = variant_injections(workload, patterns, variant);
    let mut slots = initial_slots.to_vec();
    let diags = propagate(&workload.program, launches, &mut slots, &injections);
    let refusals: Vec<String> = diags
        .iter()
        .filter(|d| d.severity == paraprox_analysis::Severity::Error && d.code == "errorprop")
        .map(|d| d.to_string())
        .collect();
    let mut out_range = VRange::exact(0.0);
    let mut abs_err = 0.0f64;
    let mut any = false;
    for &slot in &workload.pipeline.outputs {
        if let Some(s) = slots.get(slot) {
            out_range = if any {
                out_range.join(s.range)
            } else {
                s.range
            };
            abs_err = abs_err.max(s.err);
            any = true;
        }
    }
    if !any {
        // No declared outputs: nothing to bound, nothing to certify.
        abs_err = f64::INFINITY;
    }
    if std::env::var_os("PARAPROX_ERRORPROP_DEBUG").is_some() {
        eprintln!(
            "errorprop: {} / {}: abs_err={abs_err:e} out=[{:e},{:e}]",
            workload.name, variant.label, out_range.lo, out_range.hi
        );
    }
    to_static_quality(
        &variant.label,
        workload.metric,
        out_range,
        abs_err,
        refusals,
    )
}

/// Static quality table for a compiled workload's rewrite variants, in
/// variant order (the same order [`crate::DeviceApp`] numbers its rungs).
pub fn static_quality(
    workload: &Workload,
    patterns: &[KernelPatterns],
    variants: &[Variant],
) -> Vec<StaticQuality> {
    let launches = launch_models(workload);
    let slots = slot_states(workload);
    variants
        .iter()
        .map(|v| variant_static_quality(workload, patterns, &launches, &slots, v))
        .collect()
}

/// Static quality of one approximate-memory rung (exact program, Tolerant
/// buffers served from [`paraprox_ir::MemSpace::Approx`] at `rate`).
///
/// Bit flips are not magnitude-bounded — a sign- or exponent-bit flip can
/// move a value anywhere — so any nonzero rate gets the metric ceiling as
/// its sound bound. The prediction scales the rate by the expected loads
/// per output; at the paper's DRAM-refresh rates (1e-9..1e-5) the
/// flip probability per output stays far below the TOQ margin.
pub fn approx_mem_static_quality(label: &str, metric: Metric, rate: f64) -> StaticQuality {
    if rate <= 0.0 {
        return StaticQuality {
            label: label.to_string(),
            error_bound: 0.0,
            quality_floor: 100.0,
            predicted_quality: 100.0,
            predictive: true,
            refused: false,
            refusals: Vec::new(),
        };
    }
    let ceiling = match metric {
        Metric::MeanRelative => 1.0,
        Metric::L1Norm | Metric::L2Norm => f64::INFINITY,
    };
    // ~1e4 tolerant loads per output element is the workloads' order of
    // magnitude; a flipped load is modeled as a full-scale output error.
    let predicted_error = (rate * 1e4).min(1.0);
    StaticQuality {
        label: label.to_string(),
        error_bound: ceiling,
        quality_floor: quality_of_error(ceiling),
        predicted_quality: (100.0 * (1.0 - predicted_error)).clamp(0.0, 100.0),
        // The rate model is an explicit claim even though the sound bound
        // is the metric ceiling.
        predictive: true,
        refused: false,
        refusals: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_bounds_respect_ceilings() {
        let r = VRange::new(-2.0, 2.0); // straddles zero: min_abs = 0
        assert_eq!(metric_error_bound(Metric::MeanRelative, r, 0.5), 1.0);
        assert_eq!(metric_error_bound(Metric::L1Norm, r, 0.5), f64::INFINITY);
        assert_eq!(metric_error_bound(Metric::L2Norm, r, 0.0), 0.0);
        let away = VRange::new(10.0, 20.0);
        assert!((metric_error_bound(Metric::MeanRelative, away, 1.0) - 0.1).abs() < 1e-12);
        assert!((metric_error_bound(Metric::L1Norm, away, 1.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn predicted_quality_is_monotone_in_error() {
        let r = VRange::new(0.0, 100.0);
        let q1 = predicted_quality(r, 1.0);
        let q2 = predicted_quality(r, 10.0);
        let q3 = predicted_quality(r, f64::INFINITY);
        assert!(q1 > q2 && q2 > q3);
        assert_eq!(predicted_quality(r, 0.0), 100.0);
        assert_eq!(q3, 0.0);
    }

    #[test]
    fn approx_mem_rungs_scale_with_rate() {
        let zero = approx_mem_static_quality("approx-mem@0e0", Metric::MeanRelative, 0.0);
        assert_eq!(zero.error_bound, 0.0);
        assert_eq!(zero.quality_floor, 100.0);
        let low = approx_mem_static_quality("approx-mem@1e-9", Metric::MeanRelative, 1e-9);
        let high = approx_mem_static_quality("approx-mem@1e-2", Metric::MeanRelative, 1e-2);
        assert!(low.predicted_quality > 99.0);
        assert_eq!(high.predicted_quality, 0.0);
        assert_eq!(low.error_bound, 1.0); // metric ceiling, still sound
        assert!(!low.refused && !high.refused);
    }
}
