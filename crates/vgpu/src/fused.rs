//! Fused multi-request pipeline execution: run several independent
//! pipeline jobs as one batched dispatch over a single worker pool.
//!
//! A serving batcher coalesces same-rung requests (plus the calibration
//! re-run a check boundary needs) and hands them here as [`FusedJob`]s; a
//! lone request is a batch of one. [`execute_fused`] executes every
//! job's launches stage by stage — stage *s* sends the *s*-th launch of
//! every job that has one through a single [`Device::dispatch`] — so the
//! worker-scope setup and per-worker image refresh are paid once per
//! batch stage instead of once per request.
//!
//! # Bit-identity contract
//!
//! Each job's [`PipelineRun`] — outputs, simulated cycles, cache
//! statistics — is bit-identical to running `job.pipeline.execute(...)`
//! alone on this device right after a cache flush (the serving loop's
//! steady state: [`crate::Device::reclaim_buffers`] flushes between
//! requests). That holds because:
//!
//! * every job allocates its buffers through a *private* address counter
//!   seeded from the device's current high-water mark, so each job sees
//!   exactly the simulated base addresses it would have seen alone;
//! * every job carries a private cold L1/constant cache pair, threaded
//!   across its own stages (stage *s+1* enters with the job's stage-*s*
//!   exit state), so cache behavior never leaks between jobs;
//! * every job carries its own approximate-memory error rate, so jobs at
//!   different rates fuse like any others;
//! * the device's own caches and address counter are left untouched, and
//!   the job buffers are reclaimed before returning, so the device ends
//!   the call exactly as it entered it.

use paraprox_ir::Program;

use crate::cache::Cache;
use crate::device::{ArgValue, BufferId, Device, PreparedLaunch};
use crate::error::LaunchError;
use crate::plan::{LaunchPlan, Pipeline, PipelineRun};
use crate::stats::LaunchStats;

/// One request of a fused batch: the program and pipeline to execute.
/// Batches of same-rung requests typically share one `program`/`pipeline`
/// (with per-request inputs baked into cloned pipelines), but nothing
/// requires it — heterogeneous jobs fuse just as well.
pub struct FusedJob<'a> {
    /// Program the pipeline's kernels live in.
    pub program: &'a Program,
    /// The pipeline to execute.
    pub pipeline: &'a Pipeline,
    /// Bit-error rate of this job's [`paraprox_ir::MemSpace::Approx`]
    /// loads, as [`Device::set_approx_rate`] defines it; the device's own
    /// rate does not apply to fused jobs.
    pub approx_rate: f64,
}

/// Execute `jobs` as one fused batch; returns one [`PipelineRun`] per job,
/// in order, each bit-identical to a standalone execution (see the module
/// docs for the contract). The device's buffer arena, address counter,
/// and caches are restored before returning.
///
/// # Errors
///
/// Fails with the same [`LaunchError`]s a standalone execution of the
/// offending job would produce (validation errors before any execution,
/// evaluation errors during it). On error the whole batch is abandoned;
/// the arena is still restored.
pub fn execute_fused(
    device: &mut Device,
    jobs: &[FusedJob<'_>],
) -> Result<Vec<PipelineRun>, LaunchError> {
    let (entry_len, entry_addr) = device.buffer_mark();
    let result = execute_fused_inner(device, jobs, entry_addr);
    device.buffers.truncate(entry_len);
    result
}

fn execute_fused_inner(
    device: &mut Device,
    jobs: &[FusedJob<'_>],
    entry_addr: u64,
) -> Result<Vec<PipelineRun>, LaunchError> {
    // Allocate every job's buffers in its own address space.
    let mut job_ids: Vec<Vec<BufferId>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let mut next = entry_addr;
        let mut ids = Vec::with_capacity(job.pipeline.buffers.len());
        for spec in &job.pipeline.buffers {
            ids.push(device.alloc_bits_at(spec.space, spec.ty, spec.init_bits()?, &mut next));
        }
        job_ids.push(ids);
    }
    // Per-job cold cache chains.
    let cache_cfg = device.profile.cache;
    let mut caches: Vec<(Cache, Cache)> = (0..jobs.len())
        .map(|_| (Cache::new(cache_cfg.l1), Cache::new(cache_cfg.constant)))
        .collect();
    let mut job_stats: Vec<LaunchStats> = vec![LaunchStats::default(); jobs.len()];

    let max_stages = jobs
        .iter()
        .map(|j| j.pipeline.launches.len())
        .max()
        .unwrap_or(0);
    for stage in 0..max_stages {
        let staged: Vec<(usize, &LaunchPlan, Vec<ArgValue>)> = jobs
            .iter()
            .enumerate()
            .filter_map(|(ji, job)| {
                let lp = job.pipeline.launches.get(stage)?;
                Some((ji, lp, lp.resolve_args(&job_ids[ji])))
            })
            .collect();
        // Validate every participating launch before any of them runs.
        // Consecutive jobs over the same program and kernel (the common
        // batch shape) reuse the previous artifact instead of re-hashing
        // the kernel in the program cache.
        let mut launches: Vec<PreparedLaunch<'_>> = Vec::with_capacity(staged.len());
        for (ji, lp, args) in &staged {
            let job = &jobs[*ji];
            let kernel = job.program.kernel(lp.kernel);
            device.validate_launch(kernel, lp.grid, lp.block, args)?;
            let compiled = match launches.last() {
                Some(prev)
                    if std::ptr::eq(prev.program, job.program)
                        && std::ptr::eq(prev.kernel, kernel) =>
                {
                    std::sync::Arc::clone(&prev.compiled)
                }
                _ => device.compiled(job.program, kernel),
            };
            launches.push(PreparedLaunch {
                program: job.program,
                kernel,
                grid: lp.grid,
                block: lp.block,
                args,
                compiled,
                approx_rate: job.approx_rate,
                overwritten: &[],
                l1: caches[*ji].0.clone(),
                constant_cache: caches[*ji].1.clone(),
            });
        }
        let outcomes = device.dispatch(launches)?;
        for ((ji, ..), outcome) in staged.iter().zip(outcomes) {
            job_stats[*ji] += outcome.stats;
            caches[*ji] = (outcome.l1, outcome.constant_cache);
        }
    }

    let mut runs = Vec::with_capacity(jobs.len());
    for (ji, job) in jobs.iter().enumerate() {
        let mut outputs = Vec::with_capacity(job.pipeline.outputs.len());
        for &slot in &job.pipeline.outputs {
            outputs.push(device.read_f64_lossy(job_ids[ji][slot])?);
        }
        runs.push(PipelineRun {
            stats: job_stats[ji],
            outputs,
        });
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Dim2;
    use crate::plan::{BufferInit, BufferSpec, LaunchPlan, PlanArg};
    use crate::profile::DeviceProfile;
    use paraprox_ir::{KernelBuilder, KernelId, MemSpace, Scalar, Ty};

    /// A two-stage pipeline (scale then offset-by-neighbor-sum) with
    /// enough blocks to exercise the pool and the per-stage cache chain.
    fn two_stage(input: Vec<f32>) -> (Program, Pipeline) {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("scale");
        let data = kb.buffer("data", Ty::F32, MemSpace::Global);
        let k = kb.scalar("k", Ty::F32);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(data, gid.clone()));
        kb.store(data, gid, v * k);
        let scale = program.add_kernel(kb.finish());

        let mut kb = KernelBuilder::new("square");
        let data = kb.buffer("data", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(data, gid.clone()));
        kb.store(data, gid, v.clone() * v);
        let square = program.add_kernel(kb.finish());

        let n = input.len();
        let mut p = Pipeline::default();
        let buf = p.add_buffer(BufferSpec::global("data", BufferInit::F32(input)));
        let plan = |kernel: KernelId, args: Vec<PlanArg>| LaunchPlan {
            kernel,
            grid: Dim2::linear(n / 16),
            block: Dim2::linear(16),
            args,
        };
        p.launches.push(plan(
            scale,
            vec![PlanArg::Buffer(buf), Scalar::F32(3.0).into()],
        ));
        p.launches.push(plan(square, vec![PlanArg::Buffer(buf)]));
        p.outputs.push(buf);
        (program, p)
    }

    fn device(workers: usize, seed: Option<u64>) -> Device {
        let mut d = Device::new(DeviceProfile::gtx560().with_parallelism(workers));
        d.set_schedule_seed(seed);
        d
    }

    /// Sequential reference: execute each pipeline alone at its own
    /// device-global error rate, with the same flush-between-requests
    /// bracketing a serving loop applies.
    fn sequential(
        d: &mut Device,
        program: &Program,
        pipes: &[(Pipeline, f64)],
    ) -> Vec<PipelineRun> {
        pipes
            .iter()
            .map(|(p, rate)| {
                let mark = d.buffer_mark();
                d.set_approx_rate(*rate);
                let run = p.execute(d, program).expect("sequential run");
                d.reclaim_buffers(mark);
                run
            })
            .collect()
    }

    fn inputs(job: usize) -> Vec<f32> {
        (0..64).map(|i| (i as f32) * 0.5 + job as f32).collect()
    }

    #[test]
    fn fused_batch_matches_sequential_at_any_worker_count() {
        // Odd jobs keep their data in approximate memory, at two distinct
        // error rates: every job carries its own.
        let (program, base) = two_stage(inputs(0));
        let pipes: Vec<(Pipeline, f64)> = (0..5)
            .map(|j| {
                let mut p = base.clone();
                p.set_input(0, BufferInit::F32(inputs(j)));
                if j % 2 == 1 {
                    p.buffers[0] = p.buffers[0].clone().with_space(MemSpace::Approx);
                }
                (p, [0.0, 0.05, 0.0, 0.3, 0.0][j])
            })
            .collect();
        let mut reference_dev = device(1, None);
        let reference = sequential(&mut reference_dev, &program, &pipes);
        assert!(reference[1].stats.bit_flips > 0 && reference[3].stats.bit_flips > 0);
        assert_ne!(reference[1].stats.bit_flips, reference[3].stats.bit_flips);
        for workers in [1, 2, 4] {
            for seed in [None, Some(9)] {
                let mut d = device(workers, seed);
                let mark = d.buffer_mark();
                let jobs: Vec<FusedJob<'_>> = pipes
                    .iter()
                    .map(|(p, rate)| FusedJob {
                        program: &program,
                        pipeline: p,
                        approx_rate: *rate,
                    })
                    .collect();
                let runs = execute_fused(&mut d, &jobs).expect("fused batch");
                assert_eq!(
                    d.buffer_mark(),
                    mark,
                    "fused execution must restore the arena"
                );
                assert_eq!(runs.len(), reference.len());
                for (ji, (got, want)) in runs.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        got.stats, want.stats,
                        "job {ji} stats (workers={workers}, seed={seed:?})"
                    );
                    assert_eq!(
                        got.outputs, want.outputs,
                        "job {ji} outputs (workers={workers}, seed={seed:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_batch_is_history_independent() {
        // Running a fused batch twice on one device gives identical
        // results: nothing (caches, addresses, arena) leaks between
        // batches.
        let (program, base) = two_stage(inputs(1));
        let mut d = device(2, None);
        let jobs = [FusedJob {
            program: &program,
            pipeline: &base,
            approx_rate: 0.0,
        }];
        let first = execute_fused(&mut d, &jobs).expect("first batch");
        let second = execute_fused(&mut d, &jobs).expect("second batch");
        assert_eq!(first[0].stats, second[0].stats);
        assert_eq!(first[0].outputs, second[0].outputs);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut d = device(2, None);
        let runs = execute_fused(&mut d, &[]).expect("empty batch");
        assert!(runs.is_empty());
    }

    #[test]
    fn validation_errors_surface_and_restore_the_arena() {
        let (program, mut bad) = two_stage(inputs(0));
        // Declare i32 but initialize with f32 data: init type mismatch.
        bad.buffers[0].ty = Ty::I32;
        let mut d = device(1, None);
        let mark = d.buffer_mark();
        let jobs = [FusedJob {
            program: &program,
            pipeline: &bad,
            approx_rate: 0.0,
        }];
        assert!(execute_fused(&mut d, &jobs).is_err());
        assert_eq!(d.buffer_mark(), mark);
    }
}
