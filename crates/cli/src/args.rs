//! Hand-rolled argument parsing (no external dependencies).

/// Usage text shown on argument errors.
pub const USAGE: &str = "\
usage:
  paraprox list
      Print the benchmark registry (the paper's Table 1).

  paraprox tune <app> [--device gpu|cpu] [--toq <percent>] [--scale paper|test]
                      [--seeds <n>] [--all]
      Compile an application, profile every approximate variant, and report
      the tuner's choice. --all prints every variant, not just qualifying
      ones.

  paraprox run <app> [--device gpu|cpu] [--scale paper|test] [--threads <n>]
               [--approx-mem <rate>] [--iters <n>] [--schedule <name>]
      Execute an application's exact pipeline once and print the launch
      report: blocks, warps, occupancy, host workers, and wall-clock time.
      --threads 0 (the default) uses every available core; the
      PARAPROX_THREADS environment variable overrides the flag. Results are
      bit-identical for every thread count. --approx-mem re-places every
      Tolerant global buffer (per the criticality partition) in the
      approximate memory space and injects bit flips at the given error
      rate (0..=1); the report then includes per-buffer placements and
      injected-flip counts. Rate 0 is bit-identical to exact. --iters
      switches to the *iterative* registry (Jacobi, Sobel Flow): the app's
      loop-of-stencil-reduce job runs to convergence under the exact
      schedule and every preset approximation schedule, capped at <n>
      iterations (0 = the app's default), and the report compares
      iterations, residuals, cycles, and quality per schedule. --schedule
      restricts the sweep to one named rung (requires --iters).

  paraprox inspect <file.cu> [--bytecode <kernel>] [--effects] [--partition]
  paraprox inspect <app> --schedule <name> [--iters <n>] [--scale paper|test]
  paraprox inspect <app> --rungs [--scale paper|test]
      Parse CUDA-flavored kernel source and report the data-parallel
      patterns Paraprox detects in each kernel. --bytecode additionally
      prints the register-machine bytecode the virtual device runs for the
      named kernel (prefix match), fused superinstructions inline with their
      constituent ops, and how many there are; --effects prints each kernel's
      side-effect summary (loads/stores/atomics/barriers) next to the
      pattern report; --partition prints each kernel's buffer-criticality
      partition (critical vs tolerant, with witness chains). With
      --schedule the positional names an *iterative* application instead
      of a file: the named preset schedule's per-iteration plan is printed
      (stencil stages, residual cadence, predictor), followed by the
      safety gate's verdict for it under the loop's launch contexts;
      --iters overrides the iteration cap the plan spans. With --rungs the
      positional names a registry application: every auto-generated rung
      is listed with its static error bound and predicted quality next to
      the quality actually measured on the device — the static table vs
      the ground truth, side by side.

  paraprox analyze <app> [--scale paper|test] [--json] [--partition]
                   [--error-bounds]
      Run the full static-analysis lint suite (shared-memory races, bounds,
      uninitialized locals, dead stores, approximate-placement) on an
      application's exact kernels under their real launch shapes. Exits
      nonzero when any finding has error severity. --partition additionally
      prints the buffer-criticality partition; --error-bounds compiles the
      approximate variants and prints each rung's static error bound,
      quality floor, and predicted quality (with refusal reasons where the
      error-propagation analysis refused to bound a rung); --json emits the
      findings, the partition table, and the per-rung error bounds as
      machine-readable JSON (schema documented in DESIGN.md).

  paraprox serve [--apps <a,b,...>] [--device gpu|cpu] [--requests <n>]
                 [--drift-at <k>] [--drift-len <n>] [--drift-gain <g>]
                 [--shards <n>] [--workers <n>] [--batch-window <k>]
                 [--queue <n>] [--inflight <n>]
                 [--check-every <n>] [--promote-after <n>] [--toq <percent>]
                 [--scale paper|test] [--seeds <n>]
      Tune each listed application (comma-separated name prefixes; default
      blackscholes,gamma,mean), register them as tenants of the serving
      engine, and drive <n> requests per tenant through a closed-loop load
      generator while the quality watchdog recalibrates online. --drift-at
      scales f32 inputs by --drift-gain for requests k..k+len, forcing a
      TOQ violation window; the per-tenant report shows back-offs and
      re-promotions. The engine runs --shards device shards (tenant
      affinity by id, idle shards steal) of --workers threads each
      (0 = every available core), coalescing up to --batch-window queued
      requests per tenant into one fused device batch; the watchdog's
      decision trace is identical for every shard/worker/window setting.
";

/// Which device profile to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceArg {
    /// Simulated GTX 560.
    Gpu,
    /// Simulated Core i7 965.
    Cpu,
}

/// Parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `paraprox list`
    List,
    /// `paraprox tune <app> ...`
    Tune {
        /// Application name (prefix match).
        app: String,
        /// Device profile.
        device: DeviceArg,
        /// Target output quality (percent).
        toq: f64,
        /// Use the small test-scale inputs.
        test_scale: bool,
        /// Training seeds.
        seeds: usize,
        /// Print all variants.
        all: bool,
    },
    /// `paraprox run <app> ...`
    Run {
        /// Application name (prefix match).
        app: String,
        /// Device profile.
        device: DeviceArg,
        /// Use the small test-scale inputs.
        test_scale: bool,
        /// Host worker threads (0 = all available cores).
        threads: usize,
        /// Serve Tolerant global buffers from approximate memory at this
        /// bit-error rate.
        approx_mem: Option<f64>,
        /// Run the app as an iterative convergence loop capped at this
        /// many iterations (0 = the app's default cap).
        iters: Option<u32>,
        /// Restrict the iterative sweep to one named schedule.
        schedule: Option<String>,
    },
    /// `paraprox inspect <file>` (or `inspect <app> --schedule <name>`)
    Inspect {
        /// Path to the kernel source file (or an iterative application
        /// name when `schedule` is set).
        file: String,
        /// Kernel name (prefix match) to disassemble to vGPU bytecode.
        bytecode: Option<String>,
        /// Print per-kernel side-effect summaries.
        effects: bool,
        /// Print per-kernel buffer-criticality partitions.
        partition: bool,
        /// Describe this preset schedule for the named iterative app and
        /// print the safety gate's verdict.
        schedule: Option<String>,
        /// Iteration cap the schedule plan spans (0 = app default; only
        /// with `schedule`).
        iters: u32,
        /// Print every rung of the named registry application: static
        /// error bound vs measured quality, side by side.
        rungs: bool,
        /// Use the small test-scale inputs (only with `schedule` or
        /// `rungs`).
        test_scale: bool,
    },
    /// `paraprox analyze <app>`
    Analyze {
        /// Application name (prefix match).
        app: String,
        /// Use the small test-scale inputs.
        test_scale: bool,
        /// Emit machine-readable JSON instead of the human report.
        json: bool,
        /// Include the buffer-criticality partition in the report.
        partition: bool,
        /// Include the per-rung static error bounds in the report.
        error_bounds: bool,
    },
    /// `paraprox serve ...`
    Serve {
        /// Application names (prefix match), the engine's tenants.
        apps: Vec<String>,
        /// Device profile.
        device: DeviceArg,
        /// Requests per tenant.
        requests: u64,
        /// Inject input drift starting at this request index.
        drift_at: Option<u64>,
        /// Length of the drift window, in requests.
        drift_len: u64,
        /// Gain applied to `f32` inputs inside the drift window.
        drift_gain: f64,
        /// Device shards (tenant affinity by id; idle shards steal).
        shards: usize,
        /// Worker threads per shard (0 = all available cores).
        workers: usize,
        /// Max requests coalesced into one fused device batch.
        batch_window: usize,
        /// Admission-queue capacity.
        queue: usize,
        /// Closed-loop outstanding-request window.
        inflight: usize,
        /// Watchdog check cadence (every Nth served request).
        check_every: u64,
        /// Clean checks required before re-promotion (0 disables).
        promote_after: u64,
        /// Target output quality (percent).
        toq: f64,
        /// Use the small test-scale inputs.
        test_scale: bool,
        /// Training seeds for the offline tune.
        seeds: usize,
    },
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<T>()
        .map_err(|_| format!("bad {flag} value `{v}`"))
}

/// Parse an argument vector.
///
/// # Errors
///
/// Returns a human-readable message on unknown commands, missing values,
/// or malformed options.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    match it.next().map(String::as_str) {
        Some("list") => {
            if it.next().is_some() {
                return Err("`list` takes no arguments".to_string());
            }
            Ok(Command::List)
        }
        Some("tune") => {
            let app = it
                .next()
                .ok_or_else(|| "`tune` needs an application name".to_string())?
                .clone();
            let mut device = DeviceArg::Gpu;
            let mut toq = 90.0f64;
            let mut test_scale = false;
            let mut seeds = 3usize;
            let mut all = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--device" => {
                        device = match it.next().map(String::as_str) {
                            Some("gpu") => DeviceArg::Gpu,
                            Some("cpu") => DeviceArg::Cpu,
                            other => {
                                return Err(format!("--device needs `gpu` or `cpu`, got {other:?}"))
                            }
                        };
                    }
                    "--toq" => {
                        let v = it.next().ok_or_else(|| "--toq needs a value".to_string())?;
                        toq = v
                            .parse::<f64>()
                            .map_err(|_| format!("bad --toq value `{v}`"))?;
                        if !(0.0..=100.0).contains(&toq) {
                            return Err("--toq must be between 0 and 100".to_string());
                        }
                    }
                    "--scale" => {
                        test_scale = match it.next().map(String::as_str) {
                            Some("paper") => false,
                            Some("test") => true,
                            other => {
                                return Err(format!(
                                    "--scale needs `paper` or `test`, got {other:?}"
                                ))
                            }
                        };
                    }
                    "--seeds" => {
                        let v = it
                            .next()
                            .ok_or_else(|| "--seeds needs a value".to_string())?;
                        seeds = v
                            .parse::<usize>()
                            .map_err(|_| format!("bad --seeds value `{v}`"))?;
                        if seeds == 0 {
                            return Err("--seeds must be at least 1".to_string());
                        }
                    }
                    "--all" => all = true,
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            Ok(Command::Tune {
                app,
                device,
                toq,
                test_scale,
                seeds,
                all,
            })
        }
        Some("run") => {
            let app = it
                .next()
                .ok_or_else(|| "`run` needs an application name".to_string())?
                .clone();
            let mut device = DeviceArg::Gpu;
            let mut test_scale = false;
            let mut threads = 0usize;
            let mut approx_mem = None;
            let mut iters = None;
            let mut schedule = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--device" => {
                        device = match it.next().map(String::as_str) {
                            Some("gpu") => DeviceArg::Gpu,
                            Some("cpu") => DeviceArg::Cpu,
                            other => {
                                return Err(format!("--device needs `gpu` or `cpu`, got {other:?}"))
                            }
                        };
                    }
                    "--scale" => {
                        test_scale = match it.next().map(String::as_str) {
                            Some("paper") => false,
                            Some("test") => true,
                            other => {
                                return Err(format!(
                                    "--scale needs `paper` or `test`, got {other:?}"
                                ))
                            }
                        };
                    }
                    "--threads" => {
                        let v = it
                            .next()
                            .ok_or_else(|| "--threads needs a value".to_string())?;
                        threads = v
                            .parse::<usize>()
                            .map_err(|_| format!("bad --threads value `{v}`"))?;
                    }
                    "--approx-mem" => {
                        let rate: f64 = parse_num(flag, it.next())?;
                        if !(0.0..=1.0).contains(&rate) {
                            return Err("--approx-mem must be between 0 and 1".to_string());
                        }
                        approx_mem = Some(rate);
                    }
                    "--iters" => iters = Some(parse_num(flag, it.next())?),
                    "--schedule" => {
                        schedule = Some(
                            it.next()
                                .ok_or_else(|| "--schedule needs a name".to_string())?
                                .clone(),
                        );
                    }
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            if iters.is_some() && approx_mem.is_some() {
                return Err("--iters and --approx-mem cannot be combined".to_string());
            }
            if schedule.is_some() && iters.is_none() {
                return Err("--schedule requires --iters".to_string());
            }
            Ok(Command::Run {
                app,
                device,
                test_scale,
                threads,
                approx_mem,
                iters,
                schedule,
            })
        }
        Some("inspect") => {
            let file = it
                .next()
                .ok_or_else(|| "`inspect` needs a source file".to_string())?
                .clone();
            let mut bytecode = None;
            let mut effects = false;
            let mut partition = false;
            let mut schedule = None;
            let mut iters = 0u32;
            let mut rungs = false;
            let mut test_scale = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--bytecode" => {
                        bytecode = Some(
                            it.next()
                                .ok_or_else(|| "--bytecode needs a kernel name".to_string())?
                                .clone(),
                        );
                    }
                    "--effects" => effects = true,
                    "--partition" => partition = true,
                    "--rungs" => rungs = true,
                    "--schedule" => {
                        schedule = Some(
                            it.next()
                                .ok_or_else(|| "--schedule needs a name".to_string())?
                                .clone(),
                        );
                    }
                    "--iters" => iters = parse_num(flag, it.next())?,
                    "--scale" => {
                        test_scale = match it.next().map(String::as_str) {
                            Some("paper") => false,
                            Some("test") => true,
                            other => {
                                return Err(format!(
                                    "--scale needs `paper` or `test`, got {other:?}"
                                ))
                            }
                        };
                    }
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            if schedule.is_some() && (bytecode.is_some() || effects || partition) {
                return Err(
                    "--schedule inspects an iterative app; it cannot be combined with \
                     --bytecode/--effects/--partition"
                        .to_string(),
                );
            }
            if rungs && (bytecode.is_some() || effects || partition || schedule.is_some()) {
                return Err(
                    "--rungs inspects a registry app; it cannot be combined with \
                     --bytecode/--effects/--partition/--schedule"
                        .to_string(),
                );
            }
            if schedule.is_none() && iters != 0 {
                return Err("--iters on `inspect` requires --schedule".to_string());
            }
            if schedule.is_none() && !rungs && test_scale {
                return Err("--scale on `inspect` requires --schedule or --rungs".to_string());
            }
            Ok(Command::Inspect {
                file,
                bytecode,
                effects,
                partition,
                schedule,
                iters,
                rungs,
                test_scale,
            })
        }
        Some("analyze") => {
            let app = it
                .next()
                .ok_or_else(|| "`analyze` needs an application name".to_string())?
                .clone();
            let mut test_scale = false;
            let mut json = false;
            let mut partition = false;
            let mut error_bounds = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--scale" => {
                        test_scale = match it.next().map(String::as_str) {
                            Some("paper") => false,
                            Some("test") => true,
                            other => {
                                return Err(format!(
                                    "--scale needs `paper` or `test`, got {other:?}"
                                ))
                            }
                        };
                    }
                    "--json" => json = true,
                    "--partition" => partition = true,
                    "--error-bounds" => error_bounds = true,
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            Ok(Command::Analyze {
                app,
                test_scale,
                json,
                partition,
                error_bounds,
            })
        }
        Some("serve") => {
            let mut apps = vec![
                "blackscholes".to_string(),
                "gamma".to_string(),
                "mean".to_string(),
            ];
            let mut device = DeviceArg::Gpu;
            let mut requests = 120u64;
            let mut drift_at = None;
            let mut drift_len = 40u64;
            let mut drift_gain = 8.0f64;
            let mut shards = 1usize;
            let mut workers = 0usize;
            let mut batch_window = 8usize;
            let mut queue = 64usize;
            let mut inflight = 8usize;
            let mut check_every = 10u64;
            let mut promote_after = 3u64;
            let mut toq = 90.0f64;
            let mut test_scale = false;
            let mut seeds = 3usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--apps" => {
                        let v = it
                            .next()
                            .ok_or_else(|| "--apps needs a value".to_string())?;
                        apps = v
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .filter(|s| !s.is_empty())
                            .collect();
                        if apps.is_empty() {
                            return Err("--apps needs at least one name".to_string());
                        }
                    }
                    "--device" => {
                        device = match it.next().map(String::as_str) {
                            Some("gpu") => DeviceArg::Gpu,
                            Some("cpu") => DeviceArg::Cpu,
                            other => {
                                return Err(format!("--device needs `gpu` or `cpu`, got {other:?}"))
                            }
                        };
                    }
                    "--requests" => {
                        requests = parse_num(flag, it.next())?;
                        if requests == 0 {
                            return Err("--requests must be at least 1".to_string());
                        }
                    }
                    "--drift-at" => drift_at = Some(parse_num(flag, it.next())?),
                    "--drift-len" => drift_len = parse_num(flag, it.next())?,
                    "--drift-gain" => drift_gain = parse_num(flag, it.next())?,
                    "--shards" => {
                        shards = parse_num(flag, it.next())?;
                        if shards == 0 {
                            return Err("--shards must be at least 1".to_string());
                        }
                    }
                    "--workers" => workers = parse_num(flag, it.next())?,
                    "--batch-window" => {
                        batch_window = parse_num(flag, it.next())?;
                        if batch_window == 0 {
                            return Err("--batch-window must be at least 1".to_string());
                        }
                    }
                    "--queue" => {
                        queue = parse_num(flag, it.next())?;
                        if queue == 0 {
                            return Err("--queue must be at least 1".to_string());
                        }
                    }
                    "--inflight" => {
                        inflight = parse_num(flag, it.next())?;
                        if inflight == 0 {
                            return Err("--inflight must be at least 1".to_string());
                        }
                    }
                    "--check-every" => {
                        check_every = parse_num(flag, it.next())?;
                        if check_every == 0 {
                            return Err("--check-every must be at least 1".to_string());
                        }
                    }
                    "--promote-after" => promote_after = parse_num(flag, it.next())?,
                    "--toq" => {
                        toq = parse_num(flag, it.next())?;
                        if !(0.0..=100.0).contains(&toq) {
                            return Err("--toq must be between 0 and 100".to_string());
                        }
                    }
                    "--scale" => {
                        test_scale = match it.next().map(String::as_str) {
                            Some("paper") => false,
                            Some("test") => true,
                            other => {
                                return Err(format!(
                                    "--scale needs `paper` or `test`, got {other:?}"
                                ))
                            }
                        };
                    }
                    "--seeds" => {
                        seeds = parse_num(flag, it.next())?;
                        if seeds == 0 {
                            return Err("--seeds must be at least 1".to_string());
                        }
                    }
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            Ok(Command::Serve {
                apps,
                device,
                requests,
                drift_at,
                drift_len,
                drift_gain,
                shards,
                workers,
                batch_window,
                queue,
                inflight,
                check_every,
                promote_after,
                toq,
                test_scale,
                seeds,
            })
        }
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("no command given".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_list() {
        assert_eq!(parse(&v(&["list"])).unwrap(), Command::List);
        assert!(parse(&v(&["list", "extra"])).is_err());
    }

    #[test]
    fn parses_tune_with_defaults() {
        let cmd = parse(&v(&["tune", "blackscholes"])).unwrap();
        assert_eq!(
            cmd,
            Command::Tune {
                app: "blackscholes".into(),
                device: DeviceArg::Gpu,
                toq: 90.0,
                test_scale: false,
                seeds: 3,
                all: false,
            }
        );
    }

    #[test]
    fn parses_tune_with_options() {
        let cmd = parse(&v(&[
            "tune", "kde", "--device", "cpu", "--toq", "95", "--scale", "test", "--seeds", "5",
            "--all",
        ]))
        .unwrap();
        let Command::Tune {
            device,
            toq,
            test_scale,
            seeds,
            all,
            ..
        } = cmd
        else {
            panic!()
        };
        assert_eq!(device, DeviceArg::Cpu);
        assert_eq!(toq, 95.0);
        assert!(test_scale);
        assert_eq!(seeds, 5);
        assert!(all);
    }

    #[test]
    fn rejects_bad_options() {
        assert!(parse(&v(&["tune"])).is_err());
        assert!(parse(&v(&["tune", "x", "--device", "tpu"])).is_err());
        assert!(parse(&v(&["tune", "x", "--toq", "150"])).is_err());
        assert!(parse(&v(&["tune", "x", "--seeds", "0"])).is_err());
        assert!(parse(&v(&["tune", "x", "--bogus"])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&v(&[])).is_err());
    }

    #[test]
    fn parses_run() {
        let cmd = parse(&v(&["run", "sobel"])).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                app: "sobel".into(),
                device: DeviceArg::Gpu,
                test_scale: false,
                threads: 0,
                approx_mem: None,
                iters: None,
                schedule: None,
            }
        );
        let cmd = parse(&v(&[
            "run",
            "sobel",
            "--device",
            "cpu",
            "--scale",
            "test",
            "--threads",
            "4",
            "--approx-mem",
            "0.001",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                app: "sobel".into(),
                device: DeviceArg::Cpu,
                test_scale: true,
                threads: 4,
                approx_mem: Some(0.001),
                iters: None,
                schedule: None,
            }
        );
        assert!(parse(&v(&["run"])).is_err());
        assert!(parse(&v(&["run", "x", "--threads", "many"])).is_err());
        assert!(parse(&v(&["run", "x", "--approx-mem", "2"])).is_err());
        assert!(parse(&v(&["run", "x", "--approx-mem", "-0.5"])).is_err());
        assert!(parse(&v(&["run", "x", "--approx-mem"])).is_err());
    }

    #[test]
    fn parses_run_iters() {
        let cmd = parse(&v(&[
            "run",
            "jacobi",
            "--iters",
            "40",
            "--schedule",
            "trend-exit",
            "--scale",
            "test",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                app: "jacobi".into(),
                device: DeviceArg::Gpu,
                test_scale: true,
                threads: 0,
                approx_mem: None,
                iters: Some(40),
                schedule: Some("trend-exit".into()),
            }
        );
        // --iters 0 means "the app's default cap", still iterative mode.
        let Command::Run { iters, .. } = parse(&v(&["run", "jacobi", "--iters", "0"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(iters, Some(0));
        assert!(parse(&v(&["run", "x", "--iters"])).is_err());
        assert!(parse(&v(&["run", "x", "--iters", "many"])).is_err());
        assert!(parse(&v(&["run", "x", "--schedule", "exact"])).is_err());
        assert!(parse(&v(&["run", "x", "--iters", "4", "--approx-mem", "0.1"])).is_err());
    }

    #[test]
    fn parses_inspect() {
        assert_eq!(
            parse(&v(&["inspect", "k.cu"])).unwrap(),
            Command::Inspect {
                file: "k.cu".into(),
                bytecode: None,
                effects: false,
                partition: false,
                schedule: None,
                iters: 0,
                rungs: false,
                test_scale: false,
            }
        );
        assert_eq!(
            parse(&v(&[
                "inspect",
                "k.cu",
                "--bytecode",
                "conv",
                "--effects",
                "--partition"
            ]))
            .unwrap(),
            Command::Inspect {
                file: "k.cu".into(),
                bytecode: Some("conv".into()),
                effects: true,
                partition: true,
                schedule: None,
                iters: 0,
                rungs: false,
                test_scale: false,
            }
        );
        assert!(parse(&v(&["inspect"])).is_err());
        assert!(parse(&v(&["inspect", "k.cu", "--bytecode"])).is_err());
        assert!(parse(&v(&["inspect", "k.cu", "--bogus"])).is_err());
    }

    #[test]
    fn parses_inspect_schedule() {
        assert_eq!(
            parse(&v(&[
                "inspect",
                "jacobi",
                "--schedule",
                "trend-exit",
                "--iters",
                "24",
                "--scale",
                "test"
            ]))
            .unwrap(),
            Command::Inspect {
                file: "jacobi".into(),
                bytecode: None,
                effects: false,
                partition: false,
                schedule: Some("trend-exit".into()),
                iters: 24,
                rungs: false,
                test_scale: true,
            }
        );
        // Schedule mode excludes the source-file flags, and the
        // schedule-only flags need --schedule.
        assert!(parse(&v(&["inspect", "jacobi", "--schedule", "x", "--effects"])).is_err());
        assert!(parse(&v(&["inspect", "k.cu", "--iters", "5"])).is_err());
        assert!(parse(&v(&["inspect", "k.cu", "--scale", "test"])).is_err());
        assert!(parse(&v(&["inspect", "jacobi", "--schedule"])).is_err());
    }

    #[test]
    fn parses_analyze() {
        assert_eq!(
            parse(&v(&["analyze", "matmul"])).unwrap(),
            Command::Analyze {
                app: "matmul".into(),
                test_scale: false,
                json: false,
                partition: false,
                error_bounds: false,
            }
        );
        assert_eq!(
            parse(&v(&[
                "analyze",
                "matmul",
                "--scale",
                "test",
                "--json",
                "--partition",
                "--error-bounds"
            ]))
            .unwrap(),
            Command::Analyze {
                app: "matmul".into(),
                test_scale: true,
                json: true,
                partition: true,
                error_bounds: true,
            }
        );
        assert!(parse(&v(&["analyze"])).is_err());
        assert!(parse(&v(&["analyze", "matmul", "--scale", "big"])).is_err());
        assert!(parse(&v(&["analyze", "matmul", "--bogus"])).is_err());
    }

    #[test]
    fn parses_serve_with_defaults() {
        let cmd = parse(&v(&["serve"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                apps: vec!["blackscholes".into(), "gamma".into(), "mean".into()],
                device: DeviceArg::Gpu,
                requests: 120,
                drift_at: None,
                drift_len: 40,
                drift_gain: 8.0,
                shards: 1,
                workers: 0,
                batch_window: 8,
                queue: 64,
                inflight: 8,
                check_every: 10,
                promote_after: 3,
                toq: 90.0,
                test_scale: false,
                seeds: 3,
            }
        );
    }

    #[test]
    fn parses_serve_with_options() {
        let cmd = parse(&v(&[
            "serve",
            "--apps",
            "hotspot, gaussian",
            "--device",
            "cpu",
            "--requests",
            "60",
            "--drift-at",
            "20",
            "--drift-len",
            "15",
            "--drift-gain",
            "16",
            "--shards",
            "2",
            "--workers",
            "4",
            "--batch-window",
            "16",
            "--queue",
            "32",
            "--inflight",
            "12",
            "--check-every",
            "5",
            "--promote-after",
            "2",
            "--toq",
            "95",
            "--scale",
            "test",
            "--seeds",
            "5",
        ]))
        .unwrap();
        let Command::Serve {
            apps,
            device,
            requests,
            drift_at,
            drift_len,
            drift_gain,
            shards,
            workers,
            batch_window,
            queue,
            inflight,
            check_every,
            promote_after,
            toq,
            test_scale,
            seeds,
        } = cmd
        else {
            panic!()
        };
        assert_eq!(apps, vec!["hotspot".to_string(), "gaussian".to_string()]);
        assert_eq!(device, DeviceArg::Cpu);
        assert_eq!(requests, 60);
        assert_eq!(drift_at, Some(20));
        assert_eq!(drift_len, 15);
        assert_eq!(drift_gain, 16.0);
        assert_eq!(shards, 2);
        assert_eq!(workers, 4);
        assert_eq!(batch_window, 16);
        assert_eq!(queue, 32);
        assert_eq!(inflight, 12);
        assert_eq!(check_every, 5);
        assert_eq!(promote_after, 2);
        assert_eq!(toq, 95.0);
        assert!(test_scale);
        assert_eq!(seeds, 5);
    }

    #[test]
    fn rejects_bad_serve_options() {
        assert!(parse(&v(&["serve", "--apps", ""])).is_err());
        assert!(parse(&v(&["serve", "--requests", "0"])).is_err());
        assert!(parse(&v(&["serve", "--requests", "many"])).is_err());
        assert!(parse(&v(&["serve", "--shards", "0"])).is_err());
        assert!(parse(&v(&["serve", "--batch-window", "0"])).is_err());
        assert!(parse(&v(&["serve", "--queue", "0"])).is_err());
        assert!(parse(&v(&["serve", "--inflight", "0"])).is_err());
        assert!(parse(&v(&["serve", "--check-every", "0"])).is_err());
        assert!(parse(&v(&["serve", "--toq", "150"])).is_err());
        assert!(parse(&v(&["serve", "--drift-at"])).is_err());
        assert!(parse(&v(&["serve", "--bogus"])).is_err());
    }
}
