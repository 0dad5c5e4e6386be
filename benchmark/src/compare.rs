//! `compare`: run the full set of timed runs twice on the same code —
//! forwards, then backwards, so no workload always runs on a warm or a
//! cold machine — and hold every end-to-end metric's difference against
//! its bound. This is how the bounds were set, and how to tell whether
//! a host is quiet enough to measure on.

use crate::metrics::{Better, BOUNDS, END_TO_END};
use crate::WORKLOADS;
use std::process::{Command, ExitCode};

/// Pull `"name":{"value":<number>` out of a result line.
fn metric(result: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &result[result.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// One timed run of `workload` in a process of its own, so peak memory
/// is per workload. Returns the result line.
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    if !output.status.success() {
        return Err(format!("{workload} exited with {}: {last}", output.status));
    }
    Ok(last)
}

/// Run both sets and print the comparison; non-zero on any breach.
pub fn run(seed: u64, seconds: u64) -> ExitCode {
    let backwards: Vec<&str> = WORKLOADS.iter().rev().copied().collect();
    let mut sets: Vec<Vec<(String, String)>> = Vec::new();
    for order in [&WORKLOADS[..], &backwards[..]] {
        let mut set = Vec::new();
        for workload in order {
            eprintln!("compare: set {} running {workload}", sets.len() + 1);
            match run_once(workload, seed, seconds) {
                Ok(result) => set.push(((*workload).to_owned(), result)),
                Err(why) => {
                    eprintln!("{why}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(set);
    }
    println!(
        "{:<12} {:<14} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut breaches = 0;
    for workload in WORKLOADS {
        let line = |set: &[(String, String)]| -> String {
            set.iter()
                .find(|(w, _)| w == workload)
                .map(|(_, r)| r.clone())
                .expect("every set ran every workload")
        };
        let (first, second) = (line(&sets[0]), line(&sets[1]));
        for ((name, _), (_, better, bound)) in END_TO_END.iter().zip(BOUNDS) {
            let (Some(a), Some(b)) = (metric(&first, name), metric(&second, name)) else {
                println!("{workload:<12} {name:<14} missing from a result line");
                breaches += 1;
                continue;
            };
            // Positive when the second set is worse than the first.
            let worse = match better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            // Same code both times, so a gap either way is spread.
            let breach = worse.abs() > *bound;
            breaches += u32::from(breach);
            println!(
                "{workload:<12} {name:<14} {a:>16.4} {b:>16.4} {:>8.2}% {:>6.0}%{}",
                worse * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    if breaches > 0 {
        println!("{breaches} metric(s) differ by more than their bound");
        ExitCode::FAILURE
    } else {
        println!("every metric repeats within its bound");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_values_parse_out_of_a_result_line() {
        let line = r#"{"correct":true,"attempted":9,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"},"ops_per_s":{"value":73263.5,"unit":"1/s"}}}"#;
        assert_eq!(metric(line, "setup_s"), Some(0.5));
        assert_eq!(metric(line, "ops_per_s"), Some(73263.5));
        assert_eq!(metric(line, "lat_p50_us"), None);
    }
}
