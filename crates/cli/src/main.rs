//! `paraprox` — command-line front door to the reproduction.
//!
//! ```text
//! paraprox list                    # the Table-1 application registry
//! paraprox tune <app> [options]    # compile + tune one application
//! paraprox run <app> [options]     # run the exact pipeline (or an iterative loop) once
//! paraprox inspect <file.cu>       # parse kernel source, report patterns
//! paraprox analyze <app>           # static-analysis lint suite
//! paraprox serve [options]         # tune tenants and serve them under drift
//! ```

use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
