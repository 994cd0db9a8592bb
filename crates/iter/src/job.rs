//! The iterative job runner: one device, one pooled worker scope, many
//! launches.

use paraprox_ir::Scalar;
use paraprox_quality::QualityStream;
use paraprox_runtime::{Approximable, EngineDiagnostics, RunOutcome, RuntimeError};
use paraprox_vgpu::{ArgValue, Device, Dim2, LaunchStats};

use crate::gate::{gate_schedule, sampled_count};
use crate::model::{sample_params, IterModel, RESIDUAL_BLOCK};
use crate::schedule::{ConvergenceSpec, IterSchedule};
use crate::IterError;

/// Produces a fresh initial field (row-major `width * height` values)
/// from a seed. `Send` so an [`IterativeApp`] can be owned by a serving
/// worker thread.
pub type FieldGen = Box<dyn FnMut(u64) -> Vec<f32> + Send>;

/// What happened on the most recent convergence loop.
#[derive(Debug, Clone, PartialEq)]
pub struct IterRun {
    /// Label of the schedule that ran.
    pub schedule: String,
    /// Stencil iterations executed.
    pub iterations: u32,
    /// Residual checks executed.
    pub checks: u32,
    /// Last measured residual (mean |next - cur| over the checked
    /// sample).
    pub residual: f64,
    /// True when the loop stopped on tolerance (measured or predicted)
    /// rather than the iteration cap.
    pub converged: bool,
    /// True when the residual-trend predictor, not a measured residual,
    /// ended the loop.
    pub predicted: bool,
}

/// An [`IterModel`] bound to a device, with a ladder of gated
/// approximation schedules exposed through
/// [`paraprox_runtime::Approximable`] — rung 0 upward are the non-exact
/// schedules; the exact loop is the reference the tuner runs separately.
///
/// Every launch of every iteration of every run goes through the same
/// [`Device`], so one worker pool and one set of per-worker buffer
/// images serve the whole job.
pub struct IterativeApp {
    device: Device,
    model: IterModel,
    spec: ConvergenceSpec,
    schedules: Vec<IterSchedule>,
    gen: FieldGen,
    total: LaunchStats,
    last_run: Option<IterRun>,
}

impl std::fmt::Debug for IterativeApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IterativeApp")
            .field("model", &self.model)
            .field("schedules", &self.schedules.len())
            .finish_non_exhaustive()
    }
}

impl IterativeApp {
    /// Bind a model to a device. The exact schedule is gated immediately:
    /// a model whose base program fails the analyses is refused outright.
    pub fn new(
        device: Device,
        model: IterModel,
        spec: ConvergenceSpec,
        gen: FieldGen,
    ) -> Result<IterativeApp, IterError> {
        gate_schedule(&model, &IterSchedule::exact())?;
        Ok(IterativeApp {
            device,
            model,
            spec,
            schedules: Vec::new(),
            gen,
            total: LaunchStats::default(),
            last_run: None,
        })
    }

    /// Admit one schedule as a rung, after [`gate_schedule`] vets it.
    pub fn add_schedule(&mut self, schedule: IterSchedule) -> Result<(), IterError> {
        gate_schedule(&self.model, &schedule)?;
        self.schedules.push(schedule);
        Ok(())
    }

    /// Admit every preset rung ([`IterSchedule::presets`], minus the
    /// exact reference). Fails if any preset is refused — the presets
    /// are safe by construction for any model that passes the exact
    /// gate.
    pub fn with_presets(mut self) -> Result<IterativeApp, IterError> {
        for schedule in IterSchedule::presets(self.spec.max_iters) {
            if !schedule.is_exact() {
                self.add_schedule(schedule)?;
            }
        }
        Ok(self)
    }

    /// The bound model.
    pub fn model(&self) -> &IterModel {
        &self.model
    }

    /// The convergence criteria every schedule runs under.
    pub fn spec(&self) -> &ConvergenceSpec {
        &self.spec
    }

    /// The admitted schedule ladder (rung order).
    pub fn schedules(&self) -> &[IterSchedule] {
        &self.schedules
    }

    /// Access the underlying device (worker pool, refresh counters,
    /// schedule-seed control).
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// Loop accounting for the most recent run.
    pub fn last_run(&self) -> Option<&IterRun> {
        self.last_run.as_ref()
    }

    /// Total launch counters accumulated over every run so far.
    pub fn total_stats(&self) -> &LaunchStats {
        &self.total
    }

    /// Run one convergence loop under `schedule` on the field generated
    /// from `seed`; returns the converged field and the summed cycle
    /// cost of every launch the loop issued.
    pub fn run_schedule(
        &mut self,
        schedule: &IterSchedule,
        seed: u64,
    ) -> Result<RunOutcome, RuntimeError> {
        let n = self.model.elems();
        let field = (self.gen)(seed);
        if field.len() != n {
            return Err(RuntimeError(format!(
                "field generator produced {} elements for a {n}-element field",
                field.len()
            )));
        }
        // Fresh arena per run (reclaimed below); the worker pool and its
        // images persist across runs, and because the arena layout is
        // identical run to run, pooled images keep their refresh skips.
        let mark = self.device.buffer_mark();
        let result = self.run_loop(schedule, &field);
        self.device.reclaim_buffers(mark);
        result
    }

    fn run_loop(
        &mut self,
        schedule: &IterSchedule,
        field: &[f32],
    ) -> Result<RunOutcome, RuntimeError> {
        let launch_err = |e: paraprox_vgpu::LaunchError| RuntimeError(e.to_string());
        let n = self.model.elems();
        let mut cur = self.device.alloc_f32(paraprox_ir::MemSpace::Global, field);
        let mut next = self
            .device
            .alloc_f32(paraprox_ir::MemSpace::Global, &vec![0.0f32; n]);
        let partials = self.device.alloc_f32(
            paraprox_ir::MemSpace::Global,
            &vec![0.0f32; self.model.partials_len()],
        );

        let mut stats = LaunchStats::default();
        let mut run = IterRun {
            schedule: schedule.label.clone(),
            iterations: 0,
            checks: 0,
            residual: f64::INFINITY,
            converged: false,
            predicted: false,
        };
        let mut prev_res: Option<f64> = None;
        let mut trend = schedule
            .predictor
            .as_ref()
            .map(|p| QualityStream::new(p.alpha));

        // Baseline: one step from the initial field, measured on the full
        // grid and then discarded (`next` is rewritten by the first real
        // iteration). Anchoring `tol_rel` here means every schedule —
        // whatever its check stride or sample — chases the identical
        // target.
        if self.spec.max_iters > 0 {
            let st = self.stencil_launch(cur, next).map_err(launch_err)?;
            stats.accumulate(&st);
            let (rs, res) = self
                .residual_launch(cur, next, partials, 1, 0, n)
                .map_err(launch_err)?;
            stats.accumulate(&rs);
            run.checks += 1;
            run.residual = res;
        }
        let tol = self.spec.tolerance(run.residual);

        for iter in 0..self.spec.max_iters {
            let st = self.stencil_launch(cur, next).map_err(launch_err)?;
            stats.accumulate(&st);
            run.iterations = iter + 1;

            let mut stop = false;
            // The final iteration always checks so a capped run still
            // reports a residual.
            if schedule.checks_after(iter) || iter + 1 == self.spec.max_iters {
                let count = sampled_count(n, schedule.sample_log2);
                let (mul, off) = if schedule.sample_log2 == 0 {
                    (1, 0)
                } else {
                    sample_params(schedule.seed, iter, n)
                };
                let (rs, res) = self
                    .residual_launch(cur, next, partials, mul, off, count)
                    .map_err(launch_err)?;
                stats.accumulate(&rs);
                run.checks += 1;
                run.residual = res;
                if let (Some(trend), Some(prev)) = (trend.as_mut(), prev_res) {
                    if prev > 0.0 && run.residual.is_finite() {
                        trend.observe(run.residual / prev);
                    }
                }
                if run.residual <= tol {
                    run.converged = true;
                    stop = true;
                } else if let (Some(p), Some(trend)) = (schedule.predictor.as_ref(), trend.as_ref())
                {
                    if trend.count() >= p.min_checks {
                        if let Some(ratio) = trend.ewma() {
                            if ratio < 1.0 && run.residual * ratio.powi(p.horizon as i32) <= tol {
                                run.converged = true;
                                run.predicted = true;
                                stop = true;
                            }
                        }
                    }
                }
                prev_res = Some(run.residual);
            }

            std::mem::swap(&mut cur, &mut next);
            if stop {
                break;
            }
        }

        let out = self.device.read_f32(cur).map_err(launch_err)?;
        self.total.accumulate(&stats);
        self.last_run = Some(run);
        Ok(RunOutcome {
            output: out.into_iter().map(f64::from).collect(),
            cycles: stats.total_cycles(),
        })
    }

    /// One stencil step from `cur` into `next`.
    fn stencil_launch(
        &mut self,
        cur: paraprox_vgpu::BufferId,
        next: paraprox_vgpu::BufferId,
    ) -> Result<LaunchStats, paraprox_vgpu::LaunchError> {
        let mut args = vec![ArgValue::Buffer(cur), ArgValue::Buffer(next)];
        args.extend(
            self.model
                .stencil_scalars
                .iter()
                .map(|&s| ArgValue::Scalar(s)),
        );
        self.device.launch(
            &self.model.program,
            self.model.stencil,
            self.model.grid,
            self.model.block,
            &args,
        )
    }

    /// Launch the residual kernel over `count` sampled lanes and fold
    /// the block partials in ascending order (worker-invariant).
    /// Returns the launch stats and the mean `|next - cur|` over the
    /// sample.
    fn residual_launch(
        &mut self,
        cur: paraprox_vgpu::BufferId,
        next: paraprox_vgpu::BufferId,
        partials: paraprox_vgpu::BufferId,
        mul: i32,
        off: i32,
        count: usize,
    ) -> Result<(LaunchStats, f64), paraprox_vgpu::LaunchError> {
        let n = self.model.elems();
        let blocks = count / RESIDUAL_BLOCK;
        let stats = self.device.launch(
            &self.model.program,
            self.model.residual,
            Dim2::linear(blocks),
            Dim2::linear(RESIDUAL_BLOCK),
            &[
                ArgValue::Buffer(cur),
                ArgValue::Buffer(next),
                ArgValue::Buffer(partials),
                ArgValue::Scalar(Scalar::I32(mul)),
                ArgValue::Scalar(Scalar::I32(off)),
                ArgValue::Scalar(Scalar::I32(n as i32 - 1)),
                ArgValue::Scalar(Scalar::I32(count as i32)),
            ],
        )?;
        let sums = self.device.read_f32(partials)?;
        let total: f64 = sums[..blocks].iter().map(|&v| f64::from(v)).sum();
        Ok((stats, total / count as f64))
    }
}

impl Approximable for IterativeApp {
    fn variant_count(&self) -> usize {
        self.schedules.len()
    }

    fn variant_label(&self, index: usize) -> String {
        self.schedules[index].label.clone()
    }

    fn run_exact(&mut self, seed: u64) -> Result<RunOutcome, RuntimeError> {
        self.run_schedule(&IterSchedule::exact(), seed)
    }

    fn run_variant(&mut self, index: usize, seed: u64) -> Result<RunOutcome, RuntimeError> {
        let schedule = self.schedules[index].clone();
        self.run_schedule(&schedule, seed)
    }

    fn quality(&self, exact: &[f64], approx: &[f64]) -> f64 {
        self.model.metric.quality(exact, approx)
    }

    fn engine_diagnostics(&self) -> EngineDiagnostics {
        EngineDiagnostics {
            ops_dispatched: self.total.ops_dispatched,
            fusions_hit: self.total.fusions_hit,
            approx_loads: self.total.approx_loads,
            bit_flips: self.total.bit_flips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{diffusion_field, diffusion_model, diffusion_spec};
    use paraprox_vgpu::DeviceProfile;

    fn app(workers: usize) -> IterativeApp {
        let device = Device::new(DeviceProfile::gtx560().with_parallelism(workers));
        IterativeApp::new(
            device,
            diffusion_model(),
            diffusion_spec(),
            Box::new(diffusion_field),
        )
        .unwrap()
        .with_presets()
        .unwrap()
    }

    #[test]
    fn exact_loop_converges_and_is_deterministic() {
        let mut a = app(1);
        let r1 = a.run_exact(7).unwrap();
        let info = a.last_run().unwrap().clone();
        assert!(info.converged, "{info:?}");
        assert!(!info.predicted);
        assert!(info.iterations < a.spec().max_iters, "{info:?}");
        assert_eq!(
            info.checks,
            info.iterations + 1,
            "exact checks every iteration, plus the baseline"
        );
        let r2 = a.run_exact(7).unwrap();
        assert_eq!(r1.output, r2.output);
        assert_eq!(r1.cycles, r2.cycles);
    }

    #[test]
    fn pooled_images_skip_ping_pong_refreshes() {
        // The 8-block exact residual runs as two block groups and the
        // stencil has four blocks, so every launch uses both workers.
        let workers = 2;
        let mut a = app(workers);
        a.run_exact(7).unwrap();
        // The arena holds three buffers: `cur`, `next` and the residual
        // partials. The first launch, a stencil step, clones all three
        // into each fresh image. Each later stencil step reads `cur`
        // only, so it copies one and skips two (its unread output and the
        // unbound partials); each residual reads `cur` and `next`, so it
        // copies two and skips its unread partials.
        let info = a.last_run().unwrap();
        // The baseline's stencil step is the first launch, so the later
        // ones are one per iteration; checks counts every residual,
        // the baseline's included.
        let later_stencils = u64::from(info.iterations);
        let residuals = u64::from(info.checks);
        let d = a.device_mut();
        let workers = workers as u64;
        assert!(d.pooled_images() > 0);
        assert_eq!(
            d.image_refresh_skips(),
            workers * (2 * later_stencils + residuals)
        );
        assert_eq!(
            d.image_refresh_copies(),
            workers * (3 + later_stencils + 2 * residuals)
        );
    }

    #[test]
    fn schedules_trade_cost_for_quality_within_reason() {
        let mut a = app(2);
        let exact = a.run_exact(3).unwrap();
        for i in 0..a.variant_count() {
            let label = a.variant_label(i);
            let out = a.run_variant(i, 3).unwrap();
            let q = a.quality(&exact.output, &out.output);
            assert!(q > 80.0, "schedule {label} quality {q:.2}% too low");
            let info = a.last_run().unwrap();
            assert!(
                info.converged,
                "schedule {label} did not converge: {info:?}"
            );
        }
    }

    #[test]
    fn sampled_checks_cost_less_than_exact() {
        let mut a = app(1);
        let exact = a.run_exact(11).unwrap();
        let idx = (0..a.variant_count())
            .find(|&i| a.variant_label(i) == "sampled-check")
            .unwrap();
        let sampled = a.run_variant(idx, 11).unwrap();
        let info = a.last_run().unwrap();
        assert!(info.checks < info.iterations, "{info:?}");
        assert!(
            sampled.cycles < exact.cycles,
            "sampled {} !< exact {}",
            sampled.cycles,
            exact.cycles
        );
    }

    #[test]
    fn predictor_can_end_the_loop_early() {
        let mut a = app(1);
        let idx = (0..a.variant_count())
            .find(|&i| a.variant_label(i) == "trend-exit")
            .unwrap();
        a.run_variant(idx, 5).unwrap();
        let trend = a.last_run().unwrap().clone();
        a.run_exact(5).unwrap();
        let exact = a.last_run().unwrap().clone();
        assert!(trend.converged);
        // The trend exit may not fire on every field, but it must never
        // run *longer* than the measured exact loop.
        assert!(
            trend.iterations <= exact.iterations,
            "trend {trend:?} vs exact {exact:?}"
        );
    }

    #[test]
    fn bad_field_generator_is_reported() {
        let device = Device::new(DeviceProfile::gtx560().with_parallelism(1));
        let mut a = IterativeApp::new(
            device,
            diffusion_model(),
            diffusion_spec(),
            Box::new(|_| vec![0.0; 3]),
        )
        .unwrap();
        assert!(a.run_exact(0).is_err());
    }
}
