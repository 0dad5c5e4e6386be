//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> [--trace <0|1>]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- compare
//! ```
//!
//! One process runs one workload: it makes the inputs from `--seed`,
//! sets the program up, checks its answers, and measures. `--trace 0`
//! is the timed run — tracing off, end-to-end metrics; `--trace 1` the
//! traced run — per-layer metrics; without `--trace` both run, timed
//! first. Every metric is printed by name with its unit, and the last
//! line of standard output is the result as one JSON object. A failed
//! correctness check makes the exit code non-zero. See `README.md`.

mod adapt;
mod advise;
mod compare;
mod gen;
mod host;
mod layers;
mod metrics;
mod reference;
mod serve;
mod spans;
mod stats;
mod vfs;
mod wire;

use metrics::Values;
use std::path::PathBuf;
use std::process::ExitCode;

/// The five workloads, in the order `compare` runs them.
pub const WORKLOADS: [&str; 5] = [
    "serve-point",
    "serve-scan",
    "serve-write",
    "adapt",
    "advise",
];

/// What one run found.
#[derive(Default)]
pub struct Outcome {
    /// Failed correctness checks, in the order they were found.
    pub problems: Vec<String>,
    /// Operations attempted in the measured sections.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// End-to-end metrics, after a timed run.
    pub end_to_end: Option<Values>,
    /// Per-layer metrics, after a traced run.
    pub per_layer: Option<Values>,
    /// Facts about the run worth printing: input hash, sizes, policy.
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Record a failed correctness check.
    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }

    /// Record a fact (a repeated key keeps its first value).
    pub fn fact(&mut self, key: &'static str, value: String) {
        if !self.facts.iter().any(|(k, _)| *k == key) {
            self.facts.push((key, value));
        }
    }
}

/// `benchmark/out/`, created on demand: the only place results and
/// traces are written.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Write a traced run's spans to `benchmark/out/trace-<workload>.jsonl`.
pub fn write_trace(workload: &str, spans: &[spans::Span], out: &mut Outcome) {
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    match spans::write_jsonl(&path, spans) {
        Ok(()) => out.fact(
            "trace_file",
            format!("{} ({} spans)", path.display(), spans.len()),
        ),
        Err(e) => out.problem(format!("writing {}: {e}", path.display())),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    /// `Some(false)` timed, `Some(true)` traced, `None` both.
    trace: Option<bool>,
}

const USAGE: &str = "usage: --workload <serve-point|serve-scan|serve-write|adapt|advise> \
                     [--seed <n>] [--seconds <1..60>] [--trace <0|1>]  |  compare [--seed <n>] [--seconds <s>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        trace: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} takes a value"));
        match flag.as_str() {
            "compare" => args.workload = "compare".into(),
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("no --workload given".into());
    }
    Ok(args)
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let modes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let (seed, seconds) = (args.seed, args.seconds);
    let serve_spec = match args.workload.as_str() {
        "serve-point" => Some(&serve::POINT),
        "serve-scan" => Some(&serve::SCAN),
        "serve-write" => Some(&serve::WRITE),
        _ => None,
    };
    for &traced in modes {
        match (args.workload.as_str(), serve_spec, traced) {
            (_, Some(spec), false) => serve::timed(spec, seed, seconds, &mut out),
            (_, Some(spec), true) => serve::traced(spec, seed, seconds, &mut out),
            ("adapt", _, false) => adapt::timed(seed, seconds, &mut out),
            ("adapt", _, true) => adapt::traced(seed, &mut out),
            ("advise", _, false) => advise::timed(seed, seconds, &mut out),
            ("advise", _, true) => advise::traced(seed, &mut out),
            (other, ..) => return Err(format!("unknown workload {other}")),
        }
    }
    Ok(out)
}

fn metrics_json(families: &[&Values]) -> String {
    let body: Vec<String> = families
        .iter()
        .flat_map(|f| f.rows())
        .map(|(name, value, unit)| {
            // `{value}` prints every digit as measured.
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn report(args: &Args, out: &Outcome) -> bool {
    let host = host::Host::inspect();
    let reliable = host.nproc >= wire::CLIENTS;
    let correct = out.problems.is_empty();
    println!("workload   {}", args.workload);
    println!("seed       {}", args.seed);
    println!("seconds    {}", args.seconds);
    println!("host       {}", host.to_json());
    if !reliable {
        println!(
            "WARNING    {} core(s) for {} client threads plus their sessions: \
             this result is unreliable",
            host.nproc,
            wire::CLIENTS
        );
    }
    for (key, value) in &out.facts {
        println!("{key:<10} {value}");
    }
    let families: Vec<&Values> = out.end_to_end.iter().chain(&out.per_layer).collect();
    println!("{:<36} {:>18}  unit", "metric", "value");
    for (name, value, unit) in families.iter().flat_map(|f| f.rows()) {
        println!("{name:<36} {value:>18.4}  {unit}");
    }
    for why in &out.problems {
        println!("FAILED     {why}");
    }
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(&families)
    );
    let facts: Vec<String> = out
        .facts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", cdpd_obs::trace::json_string(v)))
        .collect();
    let file = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"reliable\":{reliable},\"host\":{},\"facts\":{{{}}},\"result\":{result}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        host.to_json(),
        facts.join(",")
    );
    let path = out_dir().join(format!("{}.json", args.workload));
    if let Err(e) = std::fs::write(&path, file) {
        eprintln!("writing {}: {e}", path.display());
    }
    println!("{result}");
    correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "compare" {
        return compare::run(args.seed, args.seconds);
    }
    match run_workload(&args) {
        Ok(out) => {
            if report(&args, &out) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
