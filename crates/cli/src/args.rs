//! Table-driven argument parsing (no external dependencies). Each
//! subcommand is one row of [`TABLE`]: its positional and its flags, with
//! their defaults. One loop matches argv against the row, and typed readers
//! turn the matched strings into the option struct the command takes.

use std::collections::HashMap;
use std::fmt::Display;
use std::ops::{Bound, RangeBounds};
use std::str::FromStr;

use paraprox::DeviceProfile;
use paraprox_apps::Scale;

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
      --threads 0 (the default) uses every available core. Results are
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
      (stencil, residual cadence, predictor), followed by the
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

/// First seed of deployed traffic (`serve` requests, the iterative
/// report's run), and the most training seeds `--seeds` allows: seeds
/// `0..n` stay below it, so deployment never replays a tuning input. (Each
/// seed costs one exact run plus one run per rung.)
pub const SEED_BASE: u64 = 1000;

/// Most `serve` shards, and most worker threads per shard: the engine
/// spawns shards × workers threads up front.
const MAX_SHARDS: usize = 64;
const MAX_WORKERS: usize = 64;

/// Most outstanding `serve` requests; the load generator reserves a slot
/// for each.
const MAX_INFLIGHT: usize = 1 << 16;

/// Parsed command. Each option struct has one field per flag of its
/// subcommand (and `app` or `file` for the positional), described in
/// [`USAGE`].
#[derive(Debug, PartialEq)]
pub enum Command {
    List,
    Tune(TuneOpts),
    Run(RunOpts),
    Inspect(InspectOpts),
    Analyze(AnalyzeOpts),
    Serve(ServeOpts),
}

/// Options of `paraprox tune <app>`.
#[derive(Debug, PartialEq)]
pub struct TuneOpts {
    pub app: String,
    pub device: DeviceProfile,
    pub toq: f64,
    pub scale: Scale,
    /// Training seeds `0..seeds`.
    pub seeds: u64,
    pub all: bool,
}

/// Options of `paraprox run <app>`.
#[derive(Debug, PartialEq)]
pub struct RunOpts {
    pub app: String,
    pub device: DeviceProfile,
    pub scale: Scale,
    pub threads: usize,
    pub approx_mem: Option<f64>,
    /// `Some` runs the app as an iterative convergence loop.
    pub iters: Option<u32>,
    pub schedule: Option<String>,
}

/// Options of `paraprox inspect <file>`, `inspect <app> --schedule <name>`
/// and `inspect <app> --rungs`.
#[derive(Debug, PartialEq)]
pub struct InspectOpts {
    /// A kernel source file, or an application name with `schedule` or
    /// `rungs`.
    pub file: String,
    pub bytecode: Option<String>,
    pub effects: bool,
    pub partition: bool,
    pub schedule: Option<String>,
    pub iters: u32,
    pub rungs: bool,
    pub scale: Scale,
}

/// Options of `paraprox analyze <app>`.
#[derive(Debug, PartialEq)]
pub struct AnalyzeOpts {
    pub app: String,
    pub scale: Scale,
    pub json: bool,
    pub partition: bool,
    pub error_bounds: bool,
}

/// Options of `paraprox serve`.
#[derive(Debug, PartialEq)]
pub struct ServeOpts {
    pub apps: Vec<String>,
    pub device: DeviceProfile,
    pub requests: u64,
    pub drift_at: Option<u64>,
    pub drift_len: u64,
    pub drift_gain: f64,
    pub shards: usize,
    pub workers: usize,
    pub batch_window: usize,
    pub queue: usize,
    pub inflight: usize,
    pub check_every: u64,
    pub promote_after: u64,
    pub toq: f64,
    pub scale: Scale,
    /// Training seeds `0..seeds` for the offline tune.
    pub seeds: u64,
}

/// How a flag takes its value.
#[derive(Clone, Copy)]
enum Arg {
    /// Present or absent; takes no value.
    Switch,
    /// Takes a value; the string is the default when the flag is absent.
    Value(&'static str),
    /// Takes a value; absent means none.
    Optional,
}

use Arg::{Optional, Switch, Value};

/// One subcommand.
struct Row {
    /// The word after `paraprox`.
    name: &'static str,
    /// What the first word after the subcommand names (for the error when
    /// it is missing); `None` when the subcommand takes no positional.
    positional: Option<&'static str>,
    flags: &'static [(&'static str, Arg)],
    /// Reads the matched argv into the command, checking cross-flag rules.
    build: fn(&Matches) -> Result<Command, String>,
}

/// Every subcommand and flag the CLI accepts. [`USAGE`] describes each
/// flag of each row (a test keeps the two in step).
#[rustfmt::skip]
const TABLE: &[Row] = &[
    Row { name: "list", positional: None, build: |_| Ok(Command::List), flags: &[] },
    Row { name: "tune", positional: Some("an application name"), build: tune, flags: &[
        ("--device", Value("gpu")), ("--toq", Value("90")), ("--scale", Value("paper")),
        ("--seeds", Value("3")), ("--all", Switch),
    ] },
    Row { name: "run", positional: Some("an application name"), build: run, flags: &[
        ("--device", Value("gpu")), ("--scale", Value("paper")), ("--threads", Value("0")),
        ("--approx-mem", Optional), ("--iters", Optional), ("--schedule", Optional),
    ] },
    Row { name: "inspect", positional: Some("a source file"), build: inspect, flags: &[
        ("--bytecode", Optional), ("--effects", Switch), ("--partition", Switch),
        ("--schedule", Optional), ("--iters", Value("0")), ("--rungs", Switch),
        ("--scale", Value("paper")),
    ] },
    Row { name: "analyze", positional: Some("an application name"), build: analyze, flags: &[
        ("--scale", Value("paper")), ("--json", Switch), ("--partition", Switch),
        ("--error-bounds", Switch),
    ] },
    Row { name: "serve", positional: None, build: serve, flags: &[
        ("--apps", Value("blackscholes,gamma,mean")), ("--device", Value("gpu")),
        ("--requests", Value("120")), ("--drift-at", Optional), ("--drift-len", Value("40")),
        ("--drift-gain", Value("8")), ("--shards", Value("1")), ("--workers", Value("0")),
        ("--batch-window", Value("8")), ("--queue", Value("64")), ("--inflight", Value("8")),
        ("--check-every", Value("10")), ("--promote-after", Value("3")), ("--toq", Value("90")),
        ("--scale", Value("paper")), ("--seeds", Value("3")),
    ] },
];

/// Parse an argument vector.
///
/// # Errors
///
/// Returns a human-readable message on unknown commands or flags, missing
/// values, malformed or out-of-range values, and conflicting flags.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut args = argv.iter();
    let name = args.next().ok_or("no command given")?;
    let row = TABLE
        .iter()
        .find(|r| r.name == name)
        .ok_or_else(|| format!("unknown command `{name}`"))?;
    (row.build)(&Matches::new(row, args)?)
}

/// One subcommand's argv matched against its row: the positional, and
/// each flag's value — the last one given, else its default (empty for a
/// switch that was given).
struct Matches {
    positional: String,
    values: HashMap<&'static str, String>,
}

impl Matches {
    fn new(row: &'static Row, mut args: std::slice::Iter<String>) -> Result<Matches, String> {
        let positional = match row.positional {
            Some(what) => args
                .next()
                .ok_or_else(|| format!("`{}` needs {what}", row.name))?
                .clone(),
            None => String::new(),
        };
        let mut values: HashMap<_, _> = row
            .flags
            .iter()
            .filter_map(|&(flag, arg_kind)| match arg_kind {
                Value(default) => Some((flag, default.to_string())),
                Switch | Optional => None,
            })
            .collect();
        while let Some(arg) = args.next() {
            let &(flag, arg_kind) = row
                .flags
                .iter()
                .find(|(f, _)| f == arg)
                .ok_or_else(|| format!("unknown option `{arg}`"))?;
            let value = match arg_kind {
                Switch => String::new(),
                Value(_) | Optional => args
                    .next()
                    .ok_or_else(|| format!("{flag} needs a value"))?
                    .clone(),
            };
            values.insert(flag, value);
        }
        Ok(Matches { positional, values })
    }

    fn switch(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    fn owned(&self, flag: &str) -> Option<String> {
        self.values.get(flag).cloned()
    }

    /// A numeric flag checked against `range`; `None` only for an absent
    /// optional flag.
    fn opt_num<T, R>(&self, flag: &str, range: R) -> Result<Option<T>, String>
    where
        T: FromStr + PartialOrd + Display,
        R: RangeBounds<T>,
    {
        let Some(text) = self.values.get(flag) else {
            return Ok(None);
        };
        let v: T = text
            .parse()
            .map_err(|_| format!("bad {flag} value `{text}`"))?;
        if range.contains(&v) {
            return Ok(Some(v));
        }
        Err(match (range.start_bound(), range.end_bound()) {
            (Bound::Included(lo), Bound::Included(hi)) => {
                format!("{flag} must be between {lo} and {hi}")
            }
            (Bound::Included(lo), _) => format!("{flag} must be at least {lo}"),
            _ => format!("{flag} is out of range"),
        })
    }

    /// A numeric flag with a default, checked against `range`.
    fn num<T, R>(&self, flag: &str, range: R) -> Result<T, String>
    where
        T: FromStr + PartialOrd + Display,
        R: RangeBounds<T>,
    {
        Ok(self
            .opt_num(flag, range)?
            .expect("a flag with a default always has a value"))
    }

    fn scale(&self) -> Result<Scale, String> {
        match self.values["--scale"].as_str() {
            "paper" => Ok(Scale::Paper),
            "test" => Ok(Scale::Test),
            other => Err(format!("--scale needs `paper` or `test`, got {other:?}")),
        }
    }

    fn device(&self) -> Result<DeviceProfile, String> {
        match self.values["--device"].as_str() {
            "gpu" => Ok(DeviceProfile::gtx560()),
            "cpu" => Ok(DeviceProfile::core_i7_965()),
            other => Err(format!("--device needs `gpu` or `cpu`, got {other:?}")),
        }
    }
}

fn tune(m: &Matches) -> Result<Command, String> {
    Ok(Command::Tune(TuneOpts {
        app: m.positional.clone(),
        device: m.device()?,
        toq: m.num("--toq", 0.0..=100.0)?,
        scale: m.scale()?,
        seeds: m.num("--seeds", 1..=SEED_BASE)?,
        all: m.switch("--all"),
    }))
}

fn run(m: &Matches) -> Result<Command, String> {
    let o = RunOpts {
        app: m.positional.clone(),
        device: m.device()?,
        scale: m.scale()?,
        threads: m.num("--threads", ..)?,
        approx_mem: m.opt_num("--approx-mem", 0.0..=1.0)?,
        iters: m.opt_num("--iters", ..)?,
        schedule: m.owned("--schedule"),
    };
    if o.iters.is_some() && o.approx_mem.is_some() {
        return Err("--iters and --approx-mem cannot be combined".to_string());
    }
    if o.schedule.is_some() && o.iters.is_none() {
        return Err("--schedule requires --iters".to_string());
    }
    Ok(Command::Run(o))
}

fn inspect(m: &Matches) -> Result<Command, String> {
    let o = InspectOpts {
        file: m.positional.clone(),
        bytecode: m.owned("--bytecode"),
        effects: m.switch("--effects"),
        partition: m.switch("--partition"),
        schedule: m.owned("--schedule"),
        iters: m.num("--iters", ..)?,
        rungs: m.switch("--rungs"),
        scale: m.scale()?,
    };
    const SOURCE_FLAGS: &str = "--bytecode/--effects/--partition";
    let source_mode = o.bytecode.is_some() || o.effects || o.partition;
    if o.schedule.is_some() && source_mode {
        return Err(format!(
            "--schedule inspects an iterative app; it cannot be combined with {SOURCE_FLAGS}"
        ));
    }
    if o.rungs && (source_mode || o.schedule.is_some()) {
        return Err(format!(
            "--rungs inspects a registry app; it cannot be combined with {SOURCE_FLAGS}/--schedule"
        ));
    }
    if o.schedule.is_none() && o.iters != 0 {
        return Err("--iters on `inspect` requires --schedule".to_string());
    }
    if o.schedule.is_none() && !o.rungs && o.scale == Scale::Test {
        return Err("--scale on `inspect` requires --schedule or --rungs".to_string());
    }
    Ok(Command::Inspect(o))
}

fn analyze(m: &Matches) -> Result<Command, String> {
    Ok(Command::Analyze(AnalyzeOpts {
        app: m.positional.clone(),
        scale: m.scale()?,
        json: m.switch("--json"),
        partition: m.switch("--partition"),
        error_bounds: m.switch("--error-bounds"),
    }))
}

fn serve(m: &Matches) -> Result<Command, String> {
    let apps: Vec<String> = m.values["--apps"]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if apps.is_empty() {
        return Err("--apps needs at least one name".to_string());
    }
    let o = ServeOpts {
        apps,
        device: m.device()?,
        requests: m.num("--requests", 1..)?,
        drift_at: m.opt_num("--drift-at", ..)?,
        drift_len: m.num("--drift-len", ..)?,
        drift_gain: m.num("--drift-gain", ..)?,
        shards: m.num("--shards", 1..=MAX_SHARDS)?,
        workers: m.num("--workers", 0..=MAX_WORKERS)?,
        batch_window: m.num("--batch-window", 1..)?,
        queue: m.num("--queue", 1..)?,
        inflight: m.num("--inflight", 1..=MAX_INFLIGHT)?,
        check_every: m.num("--check-every", 1..)?,
        promote_after: m.num("--promote-after", ..)?,
        toq: m.num("--toq", 0.0..=100.0)?,
        scale: m.scale()?,
        seeds: m.num("--seeds", 1..=SEED_BASE)?,
    };
    // The gain scales f32 inputs.
    if !(o.drift_gain as f32).is_finite() {
        return Err(format!(
            "--drift-gain must be a finite f32, got `{}`",
            o.drift_gain
        ));
    }
    let drift_end = |k| SEED_BASE.checked_add(k)?.checked_add(o.drift_len);
    if o.drift_at.is_some_and(|k| drift_end(k).is_none()) {
        return Err(format!(
            "--drift-at plus --drift-len must be at most {} (requests are seeded from {SEED_BASE})",
            u64::MAX - SEED_BASE
        ));
    }
    Ok(Command::Serve(o))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn gpu() -> DeviceProfile {
        DeviceProfile::gtx560()
    }

    fn cpu() -> DeviceProfile {
        DeviceProfile::core_i7_965()
    }

    /// The error for `args`, which must be rejected.
    fn err(args: &[&str]) -> String {
        parse(&v(args)).expect_err("argv must be rejected")
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
            Command::Tune(TuneOpts {
                app: "blackscholes".into(),
                device: gpu(),
                toq: 90.0,
                scale: Scale::Paper,
                seeds: 3,
                all: false,
            })
        );
    }

    #[test]
    fn parses_tune_with_options() {
        let cmd = parse(&v(&[
            "tune", "kde", "--device", "cpu", "--toq", "95", "--scale", "test", "--seeds", "5",
            "--all",
        ]))
        .unwrap();
        let Command::Tune(o) = cmd else { panic!() };
        assert_eq!(o.device, cpu());
        assert_eq!(o.toq, 95.0);
        assert_eq!(o.scale, Scale::Test);
        assert_eq!(o.seeds, 5);
        assert!(o.all);
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
            Command::Run(RunOpts {
                app: "sobel".into(),
                device: gpu(),
                scale: Scale::Paper,
                threads: 0,
                approx_mem: None,
                iters: None,
                schedule: None,
            })
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
            Command::Run(RunOpts {
                app: "sobel".into(),
                device: cpu(),
                scale: Scale::Test,
                threads: 4,
                approx_mem: Some(0.001),
                iters: None,
                schedule: None,
            })
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
            Command::Run(RunOpts {
                app: "jacobi".into(),
                device: gpu(),
                scale: Scale::Test,
                threads: 0,
                approx_mem: None,
                iters: Some(40),
                schedule: Some("trend-exit".into()),
            })
        );
        // --iters 0 means "the app's default cap", still iterative mode.
        let Command::Run(o) = parse(&v(&["run", "jacobi", "--iters", "0"])).unwrap() else {
            panic!()
        };
        assert_eq!(o.iters, Some(0));
        assert!(parse(&v(&["run", "x", "--iters"])).is_err());
        assert!(parse(&v(&["run", "x", "--iters", "many"])).is_err());
        assert!(parse(&v(&["run", "x", "--schedule", "exact"])).is_err());
        assert!(parse(&v(&["run", "x", "--iters", "4", "--approx-mem", "0.1"])).is_err());
    }

    #[test]
    fn parses_inspect() {
        assert_eq!(
            parse(&v(&["inspect", "k.cu"])).unwrap(),
            Command::Inspect(InspectOpts {
                file: "k.cu".into(),
                bytecode: None,
                effects: false,
                partition: false,
                schedule: None,
                iters: 0,
                rungs: false,
                scale: Scale::Paper,
            })
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
            Command::Inspect(InspectOpts {
                file: "k.cu".into(),
                bytecode: Some("conv".into()),
                effects: true,
                partition: true,
                schedule: None,
                iters: 0,
                rungs: false,
                scale: Scale::Paper,
            })
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
            Command::Inspect(InspectOpts {
                file: "jacobi".into(),
                bytecode: None,
                effects: false,
                partition: false,
                schedule: Some("trend-exit".into()),
                iters: 24,
                rungs: false,
                scale: Scale::Test,
            })
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
            Command::Analyze(AnalyzeOpts {
                app: "matmul".into(),
                scale: Scale::Paper,
                json: false,
                partition: false,
                error_bounds: false,
            })
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
            Command::Analyze(AnalyzeOpts {
                app: "matmul".into(),
                scale: Scale::Test,
                json: true,
                partition: true,
                error_bounds: true,
            })
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
            Command::Serve(ServeOpts {
                apps: vec!["blackscholes".into(), "gamma".into(), "mean".into()],
                device: gpu(),
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
                scale: Scale::Paper,
                seeds: 3,
            })
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
        let Command::Serve(o) = cmd else { panic!() };
        assert_eq!(o.apps, vec!["hotspot".to_string(), "gaussian".to_string()]);
        assert_eq!(o.device, cpu());
        assert_eq!(o.requests, 60);
        assert_eq!(o.drift_at, Some(20));
        assert_eq!(o.drift_len, 15);
        assert_eq!(o.drift_gain, 16.0);
        assert_eq!(o.shards, 2);
        assert_eq!(o.workers, 4);
        assert_eq!(o.batch_window, 16);
        assert_eq!(o.queue, 32);
        assert_eq!(o.inflight, 12);
        assert_eq!(o.check_every, 5);
        assert_eq!(o.promote_after, 2);
        assert_eq!(o.toq, 95.0);
        assert_eq!(o.scale, Scale::Test);
        assert_eq!(o.seeds, 5);
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

    #[test]
    fn repeated_flag_takes_its_last_value() {
        let Command::Tune(o) = parse(&v(&[
            "tune", "x", "--toq", "80", "--device", "cpu", "--toq", "95", "--device", "gpu",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!((o.toq, o.device), (95.0, gpu()));
        let Command::Serve(o) = parse(&v(&["serve", "--apps", "gamma", "--apps", "mean"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(o.apps, vec!["mean".to_string()]);
    }

    #[test]
    fn rejects_inputs_that_would_exhaust_the_host() {
        // Each error names its flag; none of these may reach the commands.
        let max = u64::MAX.to_string();
        for sub in [&["tune", "gamma"][..], &["serve"]] {
            for seeds in [max.as_str(), "4000000000", "1001"] {
                let e = err(&[sub, &["--seeds", seeds]].concat());
                assert!(e.contains("--seeds") && e.contains("1000"), "{e}");
            }
            assert!(parse(&v(&[sub, &["--seeds", "1000"]].concat())).is_ok());
        }
        for (flag, value) in [
            ("--workers", "1000000"),
            ("--workers", "65"),
            ("--shards", "1000000"),
            ("--shards", "65"),
            ("--inflight", max.as_str()),
            ("--drift-gain", "nan"),
            ("--drift-gain", "inf"),
            ("--drift-gain", "1e300"),
        ] {
            assert!(
                err(&["serve", flag, value]).contains(flag),
                "{flag} {value}"
            );
        }
        assert!(parse(&v(&["serve", "--workers", "64", "--shards", "64"])).is_ok());
    }

    #[test]
    fn rejects_a_drift_window_past_the_last_seed() {
        let max = u64::MAX.to_string();
        assert!(err(&["serve", "--drift-at", &max]).contains("--drift-at"));
        // The window ends at seed 1000 + k + len, which must fit in a u64.
        let last = (u64::MAX - SEED_BASE - 40).to_string();
        let past = (u64::MAX - SEED_BASE - 39).to_string();
        assert!(parse(&v(&["serve", "--drift-at", &last])).is_ok());
        assert!(err(&["serve", "--drift-at", &past]).contains("--drift-len"));
        assert!(err(&["serve", "--drift-at", "5", "--drift-len", &max]).contains("--drift-at"));
    }

    /// Every `--flag` in a subcommand's USAGE paragraph is in its table row,
    /// and every flag of the row is in the paragraph.
    #[test]
    fn usage_documents_exactly_the_table_flags() {
        let mut documented = Vec::new();
        for para in USAGE.split("\n\n") {
            let name = para
                .lines()
                .find_map(|l| l.trim().strip_prefix("paraprox "))
                .and_then(|rest| rest.split_whitespace().next())
                .expect("each USAGE paragraph starts with a synopsis");
            let mut flags: Vec<&str> = para
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|w| w.starts_with("--"))
                .collect();
            flags.sort_unstable();
            flags.dedup();
            let row = TABLE
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("USAGE documents `{name}`, which the table lacks"));
            let mut table: Vec<&str> = row.flags.iter().map(|(f, _)| *f).collect();
            table.sort_unstable();
            assert_eq!(flags, table, "USAGE vs table flags of `{name}`");
            documented.push(name);
        }
        let names: Vec<&str> = TABLE.iter().map(|r| r.name).collect();
        assert_eq!(
            documented, names,
            "one USAGE paragraph per subcommand, in table order"
        );
    }
}
