//! Robustness over the applications' own kernel sources: every source is
//! truncated at each char boundary. The front end must never panic and
//! must point every error inside the text it was given; every prefix that
//! does lower must run through the stages `paraprox-cli inspect` runs on a
//! user's file (pattern detection, effect summaries, buffer partitioning,
//! bytecode compilation) without panicking.

use paraprox::latency_table_for;
use paraprox_apps::{kernel_sources, Scale};
use paraprox_lang::{parse_program, LangError};
use paraprox_patterns::DetectOptions;
use paraprox_vgpu::DeviceProfile;

/// Whether `err` names a line of `text` and a column on it (one past the
/// last character included, where an unexpected end is reported).
fn points_inside(err: &LangError, text: &str) -> bool {
    let line = err.pos.line as usize;
    let Some(chars) = text.split('\n').nth(line.wrapping_sub(1)) else {
        return false;
    };
    (1..=chars.chars().count() + 1).contains(&(err.pos.col as usize))
}

#[test]
fn truncated_app_sources_never_panic() {
    let profile = DeviceProfile::gtx560();
    let table = latency_table_for(&profile);
    let options = DetectOptions::default();
    let sources = kernel_sources(Scale::Test);
    assert_eq!(
        sources.len(),
        19,
        "13 apps, 2 iterative apps, 4 case studies"
    );
    let mut lowered = 0;
    for (name, source) in &sources {
        for cut in (0..=source.len()).filter(|&cut| source.is_char_boundary(cut)) {
            let prefix = &source[..cut];
            let program = match parse_program(prefix) {
                Ok(program) => program,
                Err(err) => {
                    assert!(
                        points_inside(&err, prefix),
                        "{name} cut at {cut}: error `{err}` lies outside the text"
                    );
                    continue;
                }
            };
            lowered += 1;
            paraprox_patterns::detect(&program, &table, &options);
            for (id, kernel) in program.kernels() {
                paraprox_analysis::summarize_kernel(&program, id);
                paraprox_analysis::partition_kernel(&program, id);
                paraprox_vgpu::compile_kernel(&program, kernel, &profile);
            }
        }
        parse_program(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    // Whole functions are prefixes too: more than one per source.
    assert!(lowered > sources.len(), "{lowered} prefixes lowered");
}
