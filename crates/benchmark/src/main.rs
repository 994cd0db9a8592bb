//! The one end-to-end benchmark of the Paraprox reproduction.
//!
//! ```sh
//! cargo run --release -p paraprox-benchmark -- [--workload <name>] [--seed <u64>]
//!     [--seconds <n>] [--trace [0|1]] [--aa]
//! ```
//!
//! With `--workload` it measures that workload in this process and ends
//! its standard output with one JSON result line. Without, it runs all
//! six, each in a child process of its own (so peak memory is per
//! workload), and writes `result.json`. See `README.md` beside this
//! crate for the workloads, the metrics and how they interact.

mod adapter;
mod harness;
mod json;
mod metrics;
mod reference;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use harness::{Config, Outcome};
use json::Json;
use metrics::{END_TO_END, SCHEMA_VERSION, WORKLOADS};
use paraprox_apps::Scale;

/// Variables that silently change what the layers under test do.
const OVERRIDES: [&str; 3] = ["PARAPROX_THREADS", "PARAPROX_ENGINE", "PARAPROX_NO_FUSE"];

const USAGE: &str = "usage: paraprox-benchmark [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--aa]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: 15.0,
        trace: false,
        aa: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS.iter().find(|w| *w == name);
                parsed.workload = Some(known.ok_or_else(|| {
                    format!(
                        "unknown workload `{name}`; the workloads are {}",
                        WORKLOADS.join(", ")
                    )
                })?);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--aa" => parsed.aa = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// Where result and trace files go: beside the build, which `.gitignore`
/// already covers.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

fn write_file(name: &str, doc: &Json) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn result_file(workload: &str, trace: bool) -> String {
    format!("result-{workload}-trace{}.json", u8::from(trace))
}

/// Measure one workload in this process.
fn run_one(workload: &'static str, args: &Args) -> Result<bool, String> {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Paper,
        setups: 3,
        min_reps: 3,
    };
    let mut instance =
        workloads::by_name(workload).expect("every listed workload is constructible");
    let outcome: Outcome = harness::run(workload, instance.as_mut(), &cfg);
    print!("{}", outcome.render());
    if args.trace {
        let path = write_file(
            &format!("trace-{workload}.json"),
            &trace::to_json(&outcome.spans),
        )?;
        println!("  spans written to {}", path.display());
    }
    let line = outcome.to_json();
    let full = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repetitions_untraced", Json::Num(outcome.reps.0 as f64)),
        ("repetitions_traced", Json::Num(outcome.reps.1 as f64)),
        (
            "sample_counts",
            Json::obj(
                outcome
                    .sample_counts
                    .iter()
                    .map(|&(k, n)| (k, Json::Num(n as f64))),
            ),
        ),
        (
            "errors",
            Json::Arr(outcome.errors.iter().map(Json::str).collect()),
        ),
        ("result", line.clone()),
    ]);
    write_file(&result_file(workload, args.trace), &full)?;
    println!("{}", line.render());
    Ok(outcome.correct())
}

fn git_head() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Run every workload, each in a child process, in the given order;
/// returns each workload's full result document.
fn run_set(order: &[&'static str], args: &Args, trace: bool) -> Result<Set, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for &workload in order {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{workload}: {e}"))?;
        let path = out_dir().join(result_file(workload, trace));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text)?;
        if !status.success() {
            return Err(format!(
                "{workload} failed ({status}); see its report above"
            ));
        }
        results.push((workload, doc));
    }
    Ok(results)
}

fn metric(doc: &Json, name: &str) -> Option<f64> {
    doc.get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// One pass over the workloads: each workload's full result document.
type Set = Vec<(&'static str, Json)>;

/// The side each pass of an A/A comparison belongs to: three passes a
/// side, because a single pair of runs on a shared host can sit in two
/// different speeds of that host from start to end, and neither side
/// always first. Every pass runs the workloads in the same order: how
/// fast a process starts on this host depends on how busy the one
/// before it kept the machine, so a reversed pass would compare
/// positions, not sides.
const AA_SIDES: [usize; 6] = [0, 1, 1, 0, 0, 1];

/// Compare two sides of runs of the same code by each metric's median
/// over the side's passes: a timing may differ by its own bound, a
/// simulated value must read the same in every pass of both sides.
fn aa_breaches(a: &[&Set], b: &[&Set]) -> Vec<String> {
    let mut breaches = Vec::new();
    for (workload, _) in a.first().into_iter().flat_map(|set| set.iter()) {
        for m in END_TO_END {
            let side = |sets: &[&Set]| -> Vec<f64> {
                sets.iter()
                    .filter_map(|set| set.iter().find(|(w, _)| w == workload))
                    .filter_map(|(_, doc)| metric(doc, m.name))
                    .collect()
            };
            let (xs, ys) = (side(a), side(b));
            if xs.len() != a.len() || ys.len() != b.len() || ys.is_empty() {
                breaches.push(format!("{workload}: {} missing", m.name));
                continue;
            }
            let exact = matches!(m.name, "quality_min_pct" | "sim_speedup_geomean");
            let moved = exact && xs.iter().chain(&ys).any(|v| *v != xs[0]);
            let (x, y) = (stats::median(&xs), stats::median(&ys));
            let apart = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            if moved || apart > m.bound {
                breaches.push(format!(
                    "{workload}: {} read {x} then {y} ({:.1} % apart, bound {:.0} %{})",
                    m.name,
                    apart * 100.0,
                    m.bound * 100.0,
                    if exact { ", must repeat exactly" } else { "" }
                ));
            }
        }
    }
    breaches
}

/// Run all six workloads (for `--aa`, once per entry of [`AA_SIDES`]),
/// print the summary and write `result.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut sets: Vec<Set> = Vec::new();
    for _ in 0..if args.aa { AA_SIDES.len() } else { 1 } {
        sets.push(run_set(&WORKLOADS, args, false)?);
    }
    let layers = if args.trace {
        run_set(&WORKLOADS, args, true)?
    } else {
        Vec::new()
    };

    println!("\nend-to-end metrics (medians over R repetitions; bound = allowed worsening):");
    print!("  {:<22}", "metric");
    for w in WORKLOADS {
        print!(" {w:>17}");
    }
    println!("  unit   better  bound");
    for m in END_TO_END {
        print!("  {:<22}", m.name);
        for w in WORKLOADS {
            let value = sets[0]
                .iter()
                .find(|(n, _)| *n == w)
                .and_then(|(_, d)| metric(d, m.name));
            print!(" {:>17.5}", value.unwrap_or(f64::NAN));
        }
        println!("  {:<6} {:<7} {:.0} %", m.unit, m.better, m.bound * 100.0);
    }

    let breaches = if args.aa {
        let side = |which: usize| -> Vec<&Set> {
            let passes = sets.iter().zip(AA_SIDES);
            passes
                .filter(|(_, s)| *s == which)
                .map(|(set, _)| set)
                .collect()
        };
        aa_breaches(&side(0), &side(1))
    } else {
        Vec::new()
    };
    for breach in &breaches {
        println!("A/A FAILED: {breach}");
    }
    if args.aa && breaches.is_empty() {
        println!(
            "A/A: both sides agree within every metric's bound (medians of {} passes a side)",
            AA_SIDES.len() / 2
        );
    }

    let as_obj = |set: &[(&'static str, Json)]| Json::obj(set.iter().map(|(w, d)| (*w, d.clone())));
    let mut doc = vec![
        ("schema_version", Json::Num(f64::from(SCHEMA_VERSION))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_head", Json::str(git_head())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("end_to_end", as_obj(&sets[0])),
    ];
    if args.aa {
        doc.push((
            "aa_passes",
            Json::Arr(sets.iter().map(|set| as_obj(set)).collect()),
        ));
        doc.push((
            "aa_breaches",
            Json::Arr(breaches.iter().map(Json::str).collect()),
        ));
    }
    if args.trace {
        doc.push(("per_layer", as_obj(&layers)));
    }
    let path = write_file("result.json", &Json::obj(doc))?;
    println!("results written to {}", path.display());
    Ok(breaches.is_empty())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(set) = OVERRIDES.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("{set} is set: it overrides what the benchmark pins; unset it");
        return ExitCode::from(2);
    }
    if cfg!(debug_assertions) {
        eprintln!(
            "this is a debug build; measure with `cargo run --release -p paraprox-benchmark`"
        );
        return ExitCode::from(2);
    }
    let done = match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_form_and_the_bare_flags() {
        let a = args(&[
            "--workload",
            "kernel_exec",
            "--seed",
            "9",
            "--seconds",
            "4",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Some("kernel_exec"),
                seed: 9,
                seconds: 4.0,
                trace: false,
                aa: false
            }
        );
        assert!(args(&["--trace", "1"]).unwrap().trace);
        let bare = args(&["--trace", "--aa"]).unwrap();
        assert!(bare.trace && bare.aa);
        assert_eq!(args(&[]).unwrap().seconds, 15.0);
    }

    #[test]
    fn unknown_workloads_and_arguments_are_hard_errors() {
        assert!(args(&["--workload", "serve"])
            .unwrap_err()
            .contains("unknown workload"));
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--seed", "minus-one"]).is_err());
        assert!(args(&["--seconds", "-3"]).is_err());
        assert!(args(&["--fast"]).unwrap_err().contains("unknown argument"));
    }

    fn set(work_s: f64, speedup: f64) -> Set {
        let metrics = Json::obj(END_TO_END.iter().map(|m| {
            let value = match m.name {
                "work_s" => work_s,
                "sim_speedup_geomean" => speedup,
                _ => 1.0,
            };
            (m.name, Json::obj([("value", Json::Num(value))]))
        }));
        vec![(
            "deploy_cold",
            Json::obj([("result", Json::obj([("metrics", metrics)]))]),
        )]
    }

    #[test]
    fn aa_allows_a_timing_its_bound_and_a_simulated_value_nothing() {
        let base = set(1.00, 2.0);
        assert!(aa_breaches(&[&base], &[&set(1.24, 2.0)]).is_empty());
        let slow = aa_breaches(&[&base], &[&set(1.27, 2.0)]);
        assert_eq!(slow.len(), 1);
        assert!(slow[0].contains("work_s"));
        // One slow pass of three does not move a side's median ...
        let (stall, same) = (set(1.60, 2.0), set(1.02, 2.0));
        assert!(aa_breaches(&[&base, &base, &base], &[&same, &stall, &same]).is_empty());
        // ... but one pass with another simulated value fails the side.
        let moved = set(1.00, 2.0000001);
        let drifted = aa_breaches(&[&base, &base, &base], &[&base, &moved, &base]);
        assert_eq!(drifted.len(), 1);
        assert!(drifted[0].contains("must repeat exactly"));
    }
}
