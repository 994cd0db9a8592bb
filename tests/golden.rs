//! Golden numbers: every simulated count of every workload launch at test
//! scale, pinned in `tests/golden.txt`.
//!
//! One line per launch of a workload pipeline (its kernel launches
//! summed): 13 apps × 2 device profiles × the exact program and every
//! variant `compile` generates × 2 input seeds. Each line holds the exact
//! cycles, the compute/memory/overhead split, load and serialized
//! transactions, the bank-conflict extra, L1 hits and misses, and an
//! FNV-1a hash of the output bits. A launch that fails records its error
//! text instead. Jacobi and Sobel Flow add one line per preset schedule,
//! profile and seed, with the loop's iterations, residual checks and the
//! final residual's bits.
//!
//! `golden_numbers_are_unchanged` fails on any difference and prints the
//! first line that differs. A change that means to move a number
//! re-records with `cargo test --test golden -- --ignored` and says in
//! its description which lines moved and why.

use std::fmt::Write as _;
use std::path::PathBuf;

use paraprox::{compile, latency_table_for, CompileOptions, Device, DeviceProfile};
use paraprox_apps::{iter_registry, registry, Scale};
use paraprox_ir::Program;
use paraprox_iter::IterSchedule;
use paraprox_vgpu::{execute_fused, FusedJob, LaunchStats, Pipeline};

const SEEDS: [u64; 2] = [3, 11];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden.txt")
}

fn profiles() -> [DeviceProfile; 2] {
    [DeviceProfile::gtx560(), DeviceProfile::core_i7_965()]
}

/// 64-bit FNV-1a over the little-endian bits of every output value.
fn fnv1a(values: &[f64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn counts(s: &LaunchStats) -> String {
    format!(
        "cycles={} compute={} memory={} overhead={} load_tx={} serialized_tx={} \
         bank_extra={} l1_hits={} l1_misses={}",
        s.total_cycles(),
        s.compute_cycles,
        s.memory_cycles,
        s.overhead_cycles,
        s.load_transactions,
        s.serialized_transactions,
        s.bank_conflict_extra,
        s.l1_hits,
        s.l1_misses,
    )
}

/// The counted fields of `after - before`, for a device job whose
/// launch counters only accumulate.
fn delta(after: &LaunchStats, before: &LaunchStats) -> LaunchStats {
    LaunchStats {
        compute_cycles: after.compute_cycles - before.compute_cycles,
        memory_cycles: after.memory_cycles - before.memory_cycles,
        overhead_cycles: after.overhead_cycles - before.overhead_cycles,
        load_transactions: after.load_transactions - before.load_transactions,
        serialized_transactions: after.serialized_transactions - before.serialized_transactions,
        bank_conflict_extra: after.bank_conflict_extra - before.bank_conflict_extra,
        l1_hits: after.l1_hits - before.l1_hits,
        l1_misses: after.l1_misses - before.l1_misses,
        ..LaunchStats::default()
    }
}

/// Run one pipeline the way `DeviceApp` serves a request: one fused job
/// with this seed's inputs baked in, on a device left cold.
fn launch_line(
    device: &mut Device,
    program: &Program,
    pipeline: &Pipeline,
    slots: &[usize],
    inputs: Vec<paraprox_vgpu::BufferInit>,
) -> String {
    let mut pipeline = pipeline.clone();
    for (&slot, init) in slots.iter().zip(inputs) {
        pipeline.set_input(slot, init);
    }
    let job = FusedJob {
        program,
        pipeline: &pipeline,
        approx_rate: 0.0,
    };
    let result = execute_fused(device, &[job]);
    device.flush_caches();
    match result {
        Ok(runs) => {
            let run = &runs[0];
            format!(
                "{} out={:016x}",
                counts(&run.stats),
                fnv1a(&run.flat_output())
            )
        }
        Err(e) => format!("error: {e}"),
    }
}

fn record() -> String {
    let mut out = String::new();
    for profile in profiles() {
        let table = latency_table_for(&profile);
        for app in registry() {
            let name = app.spec.name;
            let workload = (app.build)(Scale::Test, 0);
            let compiled = compile(&workload, &table, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
            let mut device = Device::new(profile.clone());
            let slots = &compiled.workload.input_slots;
            let rungs = std::iter::once((
                "exact",
                &compiled.workload.program,
                &compiled.workload.pipeline,
            ))
            .chain(
                compiled
                    .variants
                    .iter()
                    .map(|v| (v.label.as_str(), &v.program, &v.pipeline)),
            );
            for (label, program, pipeline) in rungs {
                for seed in SEEDS {
                    let inputs = (app.gen_inputs)(Scale::Test, seed);
                    let line = launch_line(&mut device, program, pipeline, slots, inputs);
                    writeln!(
                        out,
                        "{} | {name} | {label} | seed {seed} | {line}",
                        profile.name
                    )
                    .expect("write to String");
                }
            }
        }
        for app in iter_registry() {
            let name = app.name;
            let mut job = app
                .instantiate(Scale::Test, Device::new(profile.clone()))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let max_iters = job.spec().max_iters;
            for schedule in IterSchedule::presets(max_iters) {
                for seed in SEEDS {
                    let before = *job.total_stats();
                    let line = match job.run_schedule(&schedule, seed) {
                        Ok(outcome) => {
                            let run = job.last_run().expect("a run just finished");
                            format!(
                                "{} out={:016x} iterations={} checks={} residual={:016x}",
                                counts(&delta(job.total_stats(), &before)),
                                fnv1a(&outcome.output),
                                run.iterations,
                                run.checks,
                                run.residual.to_bits(),
                            )
                        }
                        Err(e) => format!("error: {e}"),
                    };
                    writeln!(
                        out,
                        "{} | {name} | {} | seed {seed} | {line}",
                        profile.name, schedule.label
                    )
                    .expect("write to String");
                }
            }
        }
    }
    out
}

#[test]
fn golden_numbers_are_unchanged() {
    let path = golden_path();
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; record it with `cargo test --test golden -- --ignored`",
            path.display()
        )
    });
    let actual = record();
    let (mut want, mut got) = (expected.lines(), actual.lines());
    for line_no in 1.. {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) if w == g => {}
            (w, g) => panic!(
                "golden numbers differ at {}:{line_no}\n  recorded: {}\n  now:      {}",
                path.display(),
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of output>"),
            ),
        }
    }
}

/// Re-record `tests/golden.txt` from the current code.
#[test]
#[ignore = "re-records the golden file; run only for a change that means to move numbers"]
fn record_golden_numbers() {
    let path = golden_path();
    std::fs::write(&path, record()).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
}
