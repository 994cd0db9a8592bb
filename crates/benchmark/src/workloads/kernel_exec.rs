//! `kernel_exec`: the simulator's own speed. All 13 applications' exact
//! pipelines through `Pipeline::execute` on one warm device each, ten
//! executions per application on fresh inputs, with runtime, serve and
//! the tuner out of the picture: interpreter dispatch and write replay
//! do nearly all the work. A traced run repeats the pass at host
//! parallelism 2 for the block-parallel scaling figure.

use std::time::Instant;

use paraprox::{Device, Workload as AppWorkload};
use paraprox_apps::{registry, App};
use paraprox_vgpu::{DeviceProfile, LaunchStats, Pipeline};

use super::{digest, digest_value, gtx560, record_stats};
use crate::adapter::InputGen;
use crate::harness::{Config, Rep, Workload};
use crate::reference::check_exact;
use crate::trace;

/// Pipeline executions per application and repetition.
const EXECUTIONS: u64 = 10;

struct Unit {
    app: App,
    workload: AppWorkload,
    pipeline: Pipeline,
    device: Device,
    /// A second warm device at host parallelism 2 (traced runs only).
    device_par2: Option<Device>,
    input_gen: InputGen,
}

#[derive(Default)]
pub struct KernelExec {
    units: Vec<Unit>,
    /// Sum over applications of the first execution on a fresh device:
    /// bytecode compilation and fusion profiling.
    first_launch_ms: f64,
    verify: bool,
}

impl Unit {
    fn execute(&mut self, seed: u64, par2: bool) -> Result<(f64, LaunchStats, Vec<f64>), String> {
        let inputs = {
            let _span = trace::span("apps", "input_gen");
            (self.input_gen)(seed)
        };
        for (&slot, init) in self.workload.input_slots.iter().zip(inputs) {
            self.pipeline.set_input(slot, init);
        }
        let device = match (par2, &mut self.device_par2) {
            (true, Some(device)) => device,
            _ => &mut self.device,
        };
        let mark = device.buffer_mark();
        let started = Instant::now();
        let result = {
            let _span = trace::span("vgpu", if par2 { "execute_par2" } else { "execute" });
            self.pipeline.execute(device, &self.workload.program)
        };
        let seconds = started.elapsed().as_secs_f64();
        device.reclaim_buffers(mark);
        let run = result.map_err(|e| e.to_string())?;
        Ok((seconds, run.stats, run.flat_output()))
    }
}

impl KernelExec {
    /// One pass over every application; returns its wall seconds.
    fn pass(&mut self, cfg: &Config, par2: bool, rep: &mut Rep) -> f64 {
        let (mut stats, mut outputs, mut total) = (LaunchStats::default(), 0u64, 0.0);
        for unit in &mut self.units {
            for i in 0..EXECUTIONS {
                let seed = cfg.seed_base() + i;
                let executed = unit.execute(seed, par2);
                if par2 {
                    total += executed.map_or(0.0, |(seconds, ..)| seconds);
                    continue;
                }
                rep.attempted += 1;
                let (seconds, run_stats, output) = match executed {
                    Ok(done) => done,
                    Err(e) => {
                        rep.parts.push(0.0);
                        rep.fail(format!("{} seed {seed}: {e}", unit.app.spec.name));
                        continue;
                    }
                };
                total += seconds;
                rep.parts.push(seconds);
                stats.accumulate(&run_stats);
                outputs = digest(&output, outputs);
                let checked = if self.verify {
                    let _span = trace::span("benchmark", "check");
                    check_exact(&unit.app, cfg.scale, seed, &unit.workload.pipeline, &output)
                } else {
                    Ok(())
                };
                match checked {
                    Ok(()) => rep.on_time += 1,
                    Err(e) => rep.fail(format!("{} seed {seed}: {e}", unit.app.spec.name)),
                }
            }
        }
        if !par2 {
            record_stats(&stats, rep);
            rep.exact.insert("outputs", digest_value(outputs));
            rep.timed.insert(
                "vgpu.sim_minst_per_s",
                stats.instructions as f64 / 1e6 / total.max(f64::MIN_POSITIVE),
            );
        }
        total
    }
}

impl Workload for KernelExec {
    fn setup(&mut self, cfg: &Config) -> Result<(), String> {
        self.units.clear();
        self.first_launch_ms = 0.0;
        for app in registry() {
            let workload = (app.build)(cfg.scale, cfg.seed_base());
            let mut unit = Unit {
                pipeline: workload.pipeline.clone(),
                device: Device::new(gtx560()),
                device_par2: cfg
                    .trace
                    .then(|| Device::new(DeviceProfile::gtx560().with_parallelism(2))),
                input_gen: app.input_gen(cfg.scale),
                workload,
                app,
            };
            let (seconds, ..) = unit.execute(cfg.seed_base(), false)?;
            self.first_launch_ms += seconds * 1e3;
            self.units.push(unit);
        }
        // Warm-up pass, with every output checked against its host
        // reference; timed repetitions then only need the digest to repeat.
        self.verify = true;
        let mut warm = Rep::default();
        self.pass(cfg, false, &mut warm);
        self.verify = false;
        if cfg.trace {
            self.pass(cfg, true, &mut warm);
        }
        match warm.errors.first() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn repetition(&mut self, cfg: &Config) -> Rep {
        let mut rep = Rep::default();
        let serial = self.pass(cfg, false, &mut rep);
        // Nothing is approximated here: exact is its own base.
        rep.exact.insert("quality_min_pct", 100.0);
        rep.exact.insert("sim_speedup_geomean", 1.0);
        rep.timed
            .insert("vgpu.first_launch_ms", self.first_launch_ms);
        if trace::enabled() {
            let parallel = self.pass(cfg, true, &mut rep);
            rep.timed.insert(
                "vgpu.par2_speedup",
                serial / parallel.max(f64::MIN_POSITIVE),
            );
        }
        rep
    }
}
