//! Output checks against the hand-written host `reference()` functions
//! the application modules export — never against the simulator's own
//! tree-walking engine, which is the thing under test's sibling.

use paraprox_apps::{self as apps, App, Scale};
use paraprox_vgpu::{BufferInit, Pipeline};

fn f32s(init: &BufferInit) -> Result<&[f32], String> {
    match init {
        BufferInit::F32(data) => Ok(data),
        other => Err(format!(
            "expected an f32 input, found {} elements of another type",
            other.len()
        )),
    }
}

fn i32s(init: &BufferInit) -> Result<&[i32], String> {
    match init {
        BufferInit::I32(data) => Ok(data),
        other => Err(format!(
            "expected an i32 input, found {} elements of another type",
            other.len()
        )),
    }
}

/// Compare element-wise within `abs + rel × max(|expected|, 1)`.
fn compare(got: &[f64], expected: &[f32], abs: f32, rel: f32) -> Result<(), String> {
    if got.len() != expected.len() {
        return Err(format!(
            "{} outputs for {} reference values",
            got.len(),
            expected.len()
        ));
    }
    for (i, (&g, &e)) in got.iter().zip(expected).enumerate() {
        let (off, tolerance) = ((g as f32 - e).abs(), abs + rel * e.abs().max(1.0));
        if off.is_nan() || off > tolerance {
            return Err(format!("element {i}: {g} vs reference {e}"));
        }
    }
    Ok(())
}

/// Width and height of the first launch (`grid × block`), which every
/// image application sizes to its image.
fn launch_dims(pipeline: &Pipeline) -> Result<(usize, usize), String> {
    let launch = pipeline.launches.first().ok_or("pipeline has no launch")?;
    Ok((
        launch.grid.x * launch.block.x,
        launch.grid.y * launch.block.y,
    ))
}

/// Check the flattened exact output of `app` on the inputs of `seed`
/// against its host reference.
pub fn check_exact(
    app: &App,
    scale: Scale,
    seed: u64,
    pipeline: &Pipeline,
    output: &[f64],
) -> Result<(), String> {
    let inputs = (app.gen_inputs)(scale, seed);
    let input = |i: usize| inputs.get(i).ok_or_else(|| format!("input {i} missing"));
    let image = |reference: fn(&[f32], usize, usize) -> Vec<f32>, abs: f32| -> Result<(), String> {
        let img = f32s(input(0)?)?;
        let (w, h) = launch_dims(pipeline)?;
        if w * h != img.len() {
            return Err(format!(
                "launch covers {w}x{h}, image has {} pixels",
                img.len()
            ));
        }
        compare(output, &reference(img, w, h), abs, 0.0)
    };
    match app.spec.name {
        "BlackScholes" => {
            let (s, x, t) = (f32s(input(0)?)?, f32s(input(1)?)?, f32s(input(2)?)?);
            let (calls, puts): (Vec<f32>, Vec<f32>) = (0..s.len())
                .map(|i| apps::black_scholes::reference(s[i], x[i], t[i]))
                .unzip();
            compare(output, &[calls, puts].concat(), 0.0, 1e-3)
        }
        "Quasirandom Generator" => {
            let expected: Vec<f32> = i32s(input(0)?)?
                .iter()
                .map(|&i| apps::quasirandom::reference(i))
                .collect();
            compare(output, &expected, 1e-6, 0.0)
        }
        "Gamma Correction" => {
            let expected: Vec<f32> = f32s(input(0)?)?
                .iter()
                .map(|&px| apps::gamma_correction::reference(px))
                .collect();
            compare(output, &expected, 1e-3, 0.0)
        }
        "BoxMuller" => {
            let (idx, uni) = (i32s(input(0)?)?, f32s(input(1)?)?);
            let expected: Vec<f32> = idx
                .iter()
                .map(|&g| apps::box_muller::reference(uni[g as usize]))
                .collect();
            compare(output, &expected, 0.0, 1e-4)
        }
        "HotSpot" => {
            let (temp, power) = (f32s(input(0)?)?, f32s(input(1)?)?);
            let (w, h) = launch_dims(pipeline)?;
            if w * h != temp.len() {
                return Err(format!(
                    "launch covers {w}x{h}, grid has {} cells",
                    temp.len()
                ));
            }
            compare(
                output,
                &apps::hotspot::reference(temp, power, w, h),
                1e-3,
                0.0,
            )
        }
        "Convolution Separable" => image(apps::convolution::reference, 1e-2),
        "Gaussian Filter" => image(apps::gaussian_filter::reference, 1e-3),
        "Mean Filter" => image(apps::mean_filter::reference, 1e-3),
        "Image Denoising" => image(apps::image_denoising::reference, 1e-2),
        "Matrix Multiply" => {
            let (a, b) = (f32s(input(0)?)?, f32s(input(1)?)?);
            let (n, m) = launch_dims(pipeline)?;
            if m == 0 || n == 0 || a.len() % m != 0 || b.len() != a.len() / m * n {
                return Err(format!(
                    "launch covers {m}x{n}, inputs have {} and {} elements",
                    a.len(),
                    b.len()
                ));
            }
            let expected = apps::matmul::reference(a, b, m, a.len() / m, n);
            compare(output, &expected, 0.0, 1e-3)
        }
        "Naive Bayes" => {
            let expected: Vec<f32> =
                apps::naive_bayes::reference(f32s(input(0)?)?, i32s(input(1)?)?)
                    .into_iter()
                    .map(|count| count as f32)
                    .collect();
            compare(output, &expected, 0.0, 0.0)
        }
        "Kernel Density Estimation" => {
            let expected = apps::kde::reference(f32s(input(0)?)?, f32s(input(1)?)?);
            compare(output, &expected, 1e-4, 0.0)
        }
        "Cumulative Frequency Histogram" => {
            // The device sums in tree order; f32 prefix sums of ~100-count
            // bins drift by well under one count.
            let expected = apps::cumulative_histogram::reference(f32s(input(0)?)?);
            compare(output, &expected, 0.5, 1e-5)
        }
        other => Err(format!("no host reference wired for {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_vgpu::{Device, DeviceProfile};

    #[test]
    fn every_registered_app_matches_its_host_reference_and_mismatches_are_caught() {
        for app in apps::registry() {
            let workload = (app.build)(Scale::Test, 1003);
            let mut device = Device::new(DeviceProfile::gtx560().with_parallelism(1));
            let run = workload
                .pipeline
                .execute(&mut device, &workload.program)
                .unwrap();
            let mut output = run.flat_output();
            check_exact(&app, Scale::Test, 1003, &workload.pipeline, &output)
                .unwrap_or_else(|e| panic!("{}: {e}", app.spec.name));
            let mid = output.len() / 2;
            output[mid] += 7.0;
            assert!(
                check_exact(&app, Scale::Test, 1003, &workload.pipeline, &output).is_err(),
                "{}: a corrupted output must fail the check",
                app.spec.name
            );
        }
    }

    #[test]
    fn nan_outputs_fail() {
        assert!(compare(&[f64::NAN], &[1.0], 1.0, 1.0).is_err());
        assert!(compare(&[1.0], &[1.0, 2.0], 1.0, 1.0).is_err());
    }
}
