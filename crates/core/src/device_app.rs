//! Adapter: compiled workloads as tunable applications on a device.

use std::sync::Arc;

use paraprox_quality::Metric;
use paraprox_runtime::{Approximable, BatchRun, EngineDiagnostics, RunOutcome, RuntimeError};
use paraprox_vgpu::{execute_fused, BufferInit, Device, FusedJob, Pipeline};

use crate::compile::Compiled;

/// An input generator: given a seed, produce fresh contents for each of the
/// workload's declared input slots, in `input_slots` order. `Send` so a
/// bound [`DeviceApp`] can be owned by a serving-engine worker thread.
pub type InputGen = Box<dyn FnMut(u64) -> Vec<BufferInit> + Send>;

/// A compiled workload bound to a device, exposing the
/// [`Approximable`] interface for the runtime tuner and deployment.
pub struct DeviceApp {
    device: Device,
    metric: Metric,
    input_slots: Vec<usize>,
    exact: (Arc<paraprox_ir::Program>, Pipeline),
    variants: Vec<(String, Arc<paraprox_ir::Program>, Pipeline)>,
    /// Approximate-memory rungs: label, bit-error rate, and the *exact*
    /// pipeline with every Tolerant global buffer re-placed in
    /// [`paraprox_ir::MemSpace::Approx`]. Exposed after the rewrite
    /// variants in the rung numbering, so the TOQ back-off ladder treats
    /// the error rate as one more knob dimension.
    approx: Vec<(String, f64, Pipeline)>,
    /// Static per-rung quality table, aligned with the rung numbering
    /// ([`DeviceApp::variants`] then [`DeviceApp::approx`]); see
    /// [`crate::errorbounds`].
    statics: Vec<paraprox_runtime::StaticQuality>,
    input_gen: InputGen,
    /// Every launch's counters, summed with [`LaunchStats::accumulate`];
    /// [`Approximable::engine_diagnostics`] projects the diagnostic fields
    /// out of this total.
    ///
    /// [`LaunchStats::accumulate`]: paraprox_vgpu::LaunchStats::accumulate
    total_stats: paraprox_vgpu::LaunchStats,
}

impl std::fmt::Debug for DeviceApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceApp")
            .field("metric", &self.metric)
            .field("variants", &self.variants.len())
            .finish_non_exhaustive()
    }
}

impl DeviceApp {
    /// Bind a compiled workload to a device.
    ///
    /// `input_gen` produces buffer contents for the workload's input slots
    /// from a seed; pass a generator returning an empty vector to always
    /// run on the workload's baked-in inputs.
    pub fn new(device: Device, compiled: &Compiled, input_gen: InputGen) -> DeviceApp {
        DeviceApp {
            device,
            metric: compiled.workload.metric,
            input_slots: compiled.workload.input_slots.clone(),
            exact: (
                Arc::new(compiled.workload.program.clone()),
                compiled.workload.pipeline.clone(),
            ),
            variants: compiled
                .variants
                .iter()
                .map(|v| {
                    (
                        v.label.clone(),
                        Arc::new(v.program.clone()),
                        v.pipeline.clone(),
                    )
                })
                .collect(),
            approx: Vec::new(),
            statics: compiled.static_quality.clone(),
            input_gen,
            total_stats: paraprox_vgpu::LaunchStats::default(),
        }
    }

    /// The static per-rung quality table, in rung order (rewrite variants
    /// first, then approximate-memory rungs). Pass to
    /// [`paraprox_runtime::Tuner::tune_with_static`] to prune calibration
    /// launches, and let [`paraprox_runtime::Deployment`] seed its
    /// starting rung from it.
    pub fn static_quality(&self) -> &[paraprox_runtime::StaticQuality] {
        &self.statics
    }

    /// Add approximate-memory rungs: one per error rate, each running the
    /// *exact* program with every pipeline buffer from
    /// [`Compiled::tolerant_buffer_slots`] re-placed in approximate
    /// memory. Critical buffers never move — the placement set comes from
    /// the compile-time criticality partition, so this cannot introduce
    /// address, control-flow, or synchronization corruption. Rates are
    /// clamped to `[0, 1]`; with no tolerant buffer, no rung is added.
    pub fn with_approx_memory(mut self, compiled: &Compiled, rates: &[f64]) -> DeviceApp {
        let slots = compiled.tolerant_buffer_slots();
        if slots.is_empty() {
            return self;
        }
        let mut pipeline = self.exact.1.clone();
        for &slot in &slots {
            pipeline.buffers[slot] = pipeline.buffers[slot]
                .clone()
                .with_space(paraprox_ir::MemSpace::Approx);
        }
        for &rate in rates {
            let rate = if rate.is_finite() {
                rate.clamp(0.0, 1.0)
            } else {
                0.0
            };
            let label = format!("approx-mem@{rate:e}");
            self.statics
                .push(crate::errorbounds::approx_mem_static_quality(
                    &label,
                    self.metric,
                    rate,
                ));
            self.approx.push((label, rate, pipeline.clone()));
        }
        self
    }

    /// Access the underlying device (e.g. to flush caches between
    /// experiments).
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// The (program, pipeline, error-rate) triple for a rung, with this
    /// seed's inputs baked into a cloned pipeline. The rate is nonzero
    /// only for approximate-memory rungs (rewrite variants and the exact
    /// rung always run with injection off).
    fn prepare(
        &mut self,
        variant: Option<usize>,
        seed: u64,
    ) -> Result<(Arc<paraprox_ir::Program>, Pipeline, f64), RuntimeError> {
        let (program, mut pipeline, rate) = match variant {
            Some(v) if v >= self.variants.len() => {
                let (_, rate, pipeline) = &self.approx[v - self.variants.len()];
                (Arc::clone(&self.exact.0), pipeline.clone(), *rate)
            }
            Some(v) => {
                let (_, program, pipeline) = &self.variants[v];
                (Arc::clone(program), pipeline.clone(), 0.0)
            }
            None => (Arc::clone(&self.exact.0), self.exact.1.clone(), 0.0),
        };
        let inputs = (self.input_gen)(seed);
        if !inputs.is_empty() {
            if inputs.len() != self.input_slots.len() {
                return Err(RuntimeError(format!(
                    "input generator produced {} buffers for {} slots",
                    inputs.len(),
                    self.input_slots.len()
                )));
            }
            for (&slot, init) in self.input_slots.iter().zip(inputs) {
                pipeline.set_input(slot, init);
            }
        }
        Ok((program, pipeline, rate))
    }

    fn run(&mut self, variant: Option<usize>, seed: u64) -> Result<RunOutcome, RuntimeError> {
        let mut outcomes = self.run_batch(&[BatchRun { variant, seed }])?;
        Ok(outcomes.pop().expect("one run in, one outcome out"))
    }
}

impl Approximable for DeviceApp {
    fn variant_count(&self) -> usize {
        self.variants.len() + self.approx.len()
    }

    fn variant_label(&self, index: usize) -> String {
        if index >= self.variants.len() {
            self.approx[index - self.variants.len()].0.clone()
        } else {
            self.variants[index].0.clone()
        }
    }

    fn run_exact(&mut self, seed: u64) -> Result<RunOutcome, RuntimeError> {
        self.run(None, seed)
    }

    fn run_variant(&mut self, index: usize, seed: u64) -> Result<RunOutcome, RuntimeError> {
        self.run(Some(index), seed)
    }

    fn quality(&self, exact: &[f64], approx: &[f64]) -> f64 {
        self.metric.quality(exact, approx)
    }

    /// Every run of the batch — a lone run included — becomes one job of
    /// a single fused device dispatch ([`paraprox_vgpu::execute_fused`]),
    /// so worker-scope setup and per-worker image refreshes are paid once
    /// per batch. Each job starts from a cold launch context (fresh
    /// buffers at the same simulated addresses, private cold caches, its
    /// own approximate-memory rate) and the device is left cold, so runs
    /// are history-independent: outcomes are bit-identical however the
    /// runs are grouped into batches (asserted by the `batch_differential`
    /// suite in `crates/apps`).
    fn run_batch(&mut self, runs: &[BatchRun]) -> Result<Vec<RunOutcome>, RuntimeError> {
        // Bake inputs in batch order, so the input generator sees the
        // same call order however the runs are grouped.
        let mut prepared = Vec::with_capacity(runs.len());
        for r in runs {
            prepared.push(self.prepare(r.variant, r.seed)?);
        }
        let jobs: Vec<FusedJob<'_>> = prepared
            .iter()
            .map(|(program, pipeline, rate)| FusedJob {
                program,
                pipeline,
                approx_rate: *rate,
            })
            .collect();
        let batch = execute_fused(&mut self.device, &jobs).map_err(|e| RuntimeError(e.to_string()));
        self.device.flush_caches();
        let mut outcomes = Vec::with_capacity(runs.len());
        for run in batch? {
            self.total_stats.accumulate(&run.stats);
            outcomes.push(RunOutcome {
                output: run.flat_output(),
                cycles: run.stats.total_cycles(),
            });
        }
        Ok(outcomes)
    }

    fn engine_diagnostics(&self) -> EngineDiagnostics {
        EngineDiagnostics {
            ops_dispatched: self.total_stats.ops_dispatched,
            fusions_hit: self.total_stats.fusions_hit,
            approx_loads: self.total_stats.approx_loads,
            bit_flips: self.total_stats.bit_flips,
        }
    }
}
