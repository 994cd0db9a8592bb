//! Pin for the device's block groups on the applications.
//!
//! The bytecode engine runs a group-safe launch's small blocks as one
//! lane row, which is where the interpreter's host speed comes from; a
//! launch that is not group-safe still runs, only slower, so a rule that
//! quietly stopped grouping would pass every correctness suite. This test
//! holds every kernel of every application and both kernels of both
//! iterative applications, on both device profiles, to running grouped
//! (`LaunchStats::groups > 0`) exactly when the rule says so: every
//! multi-block launch of blocks narrower than 128 lanes groups, except
//! `naive_bayes_train`, whose global atomics keep its blocks alone; a
//! launch of one block (`scan_phase2`) is a group of one, and 128-lane
//! blocks (the stencils, both iterative stencils included) run alone.

use paraprox_apps::{iter_registry, registry, Scale};
use paraprox_ir::{MemSpace, Scalar};
use paraprox_iter::RESIDUAL_BLOCK;
use paraprox_vgpu::{ArgValue, Device, DeviceProfile, Dim2, Pipeline};

fn profiles() -> [DeviceProfile; 2] {
    [DeviceProfile::gtx560(), DeviceProfile::core_i7_965()]
}

/// The kernels whose blocks must stay alone.
const UNGROUPED: [&str; 1] = ["naive_bayes_train"];

/// Blocks this wide run alone.
const ALONE_BLOCK_LANES: usize = 128;

/// Whether a launch of `grid` blocks of `block` lanes of kernel `name`
/// must run grouped.
fn groups(name: &str, grid: Dim2, block: Dim2) -> bool {
    grid.count() > 1 && block.count() < ALONE_BLOCK_LANES && !UNGROUPED.contains(&name)
}

#[test]
fn every_app_kernel_runs_grouped_but_the_atomic_one() {
    for profile in profiles() {
        for app in registry() {
            let workload = (app.build)(Scale::Test, 7);
            let (program, pipeline) = (&workload.program, &workload.pipeline);
            // Launch i's groups: the pipeline's first i + 1 launches less
            // its first i.
            let groups_through = |i: usize| {
                let prefix = Pipeline {
                    buffers: pipeline.buffers.clone(),
                    launches: pipeline.launches[..i].to_vec(),
                    outputs: Vec::new(),
                };
                let mut device = Device::new(profile.clone());
                prefix
                    .execute(&mut device, program)
                    .expect("the exact pipeline runs")
                    .stats
                    .groups
            };
            for (i, launch) in pipeline.launches.iter().enumerate() {
                let name = &program.kernel(launch.kernel).name;
                let ran = groups_through(i + 1) - groups_through(i);
                assert_eq!(
                    ran > 0,
                    groups(name, launch.grid, launch.block),
                    "{} kernel `{name}` on {} ({} blocks of {} threads): {ran} groups",
                    app.spec.name,
                    profile.name,
                    launch.grid.count(),
                    launch.block.count()
                );
            }
        }

        for app in iter_registry() {
            let model = (app.build)(Scale::Test);
            let n = model.elems();
            let mut device = Device::new(profile.clone());
            let cur = device.alloc_f32(MemSpace::Global, &vec![0.5; n]);
            let next = device.alloc_f32(MemSpace::Global, &vec![0.0; n]);
            let partials = device.alloc_f32(MemSpace::Global, &vec![0.0; model.partials_len()]);
            let mut args = vec![ArgValue::Buffer(cur), ArgValue::Buffer(next)];
            args.extend(model.stencil_scalars.iter().map(|&s| ArgValue::Scalar(s)));
            let stencil = device
                .launch(
                    &model.program,
                    model.stencil,
                    model.grid,
                    model.block,
                    &args,
                )
                .expect("the stencil runs");
            let residual_shape = (
                Dim2::linear(n / RESIDUAL_BLOCK),
                Dim2::linear(RESIDUAL_BLOCK),
            );
            let residual = device
                .launch(
                    &model.program,
                    model.residual,
                    residual_shape.0,
                    residual_shape.1,
                    &[
                        ArgValue::Buffer(cur),
                        ArgValue::Buffer(next),
                        ArgValue::Buffer(partials),
                        ArgValue::Scalar(Scalar::I32(1)),
                        ArgValue::Scalar(Scalar::I32(0)),
                        ArgValue::Scalar(Scalar::I32(n as i32 - 1)),
                        ArgValue::Scalar(Scalar::I32(n as i32)),
                    ],
                )
                .expect("the residual runs");
            for (kernel, stats, (grid, block)) in [
                ("stencil", stencil, (model.grid, model.block)),
                ("residual", residual, residual_shape),
            ] {
                assert_eq!(
                    stats.groups > 0,
                    groups(kernel, grid, block),
                    "{} {kernel} on {} ({} blocks of {} threads): {} groups",
                    app.name,
                    profile.name,
                    grid.count(),
                    block.count(),
                    stats.groups
                );
            }
        }
    }
}
