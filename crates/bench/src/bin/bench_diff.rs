//! The bench-diff gate: judge every `BENCH_*.json` in the working
//! directory against its committed version (`git show HEAD:<file>`)
//! and exit 1 if any gated metric regressed past its floor or went
//! missing. Floors and directions are read from the reports, where
//! [`cdpd_testkit::bench::BenchmarkGroup::gated_metric`] wrote them.
//!
//! Run from the repository root, after the benches have rewritten the
//! reports there (`CDPD_BENCH_JSON_DIR="$(pwd)"`):
//!
//! ```text
//! cargo run --offline -p cdpd-bench --bin bench_diff
//! ```

use cdpd_testkit::bench::diff;
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let mut files: Vec<String> = std::fs::read_dir(".")
        .expect("the working directory is readable")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    files.sort();
    let mut regressed = false;
    for file in &files {
        let show = Command::new("git")
            .args(["show", &format!("HEAD:{file}")])
            .output()
            .expect("git runs");
        if !show.status.success() {
            println!("{file}: no committed baseline yet, skipping");
            continue;
        }
        let fresh = std::fs::read_to_string(file).expect("the fresh report is readable");
        match diff(file, &String::from_utf8_lossy(&show.stdout), &fresh) {
            Ok(verdict) => {
                for line in &verdict.lines {
                    println!("{line}");
                }
                regressed |= verdict.regressed;
            }
            Err(e) => {
                println!("{file}: unreadable report: {e}");
                regressed = true;
            }
        }
    }
    if regressed {
        return ExitCode::FAILURE;
    }
    println!("ok: no gated bench metric regressed past its floor");
    ExitCode::SUCCESS
}
