//! Micro-benchmarking: warmup, timed samples, median/p95 report — a
//! minimal criterion replacement keeping the familiar bench layout:
//!
//! ```ignore
//! use cdpd_testkit::bench::{BenchmarkId, Criterion};
//! use cdpd_testkit::{criterion_group, criterion_main};
//!
//! fn bench_foo(criterion: &mut Criterion) {
//!     let mut group = criterion.benchmark_group("foo");
//!     group.bench_function("fast_path", |b| b.iter(|| work()));
//!     group.finish();
//! }
//! criterion_group!(benches, bench_foo);
//! criterion_main!(benches);
//! ```
//!
//! Each benchmark warms up, picks an iteration count targeting a fixed
//! per-sample duration, then records `sample_size` samples of mean
//! ns/iteration. The report prints median and p95; when
//! `CDPD_BENCH_JSON_DIR` is set, each group also writes
//! `BENCH_<group>.json` there, so repeated runs build a trajectory.
//!
//! A metric recorded with [`BenchmarkGroup::gated_metric`] carries its
//! regression floor and direction in its own record, and [`diff`]
//! judges a fresh report against a committed one by them: the gate is
//! declared once, where the metric is measured.

use crate::json::{self, Json};
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

const WARMUP_NANOS: u64 = 30_000_000; // 30 ms
const SAMPLE_TARGET_NANOS: u64 = 10_000_000; // 10 ms

/// Top-level bench context; one per process, passed to every bench fn.
pub struct Criterion {
    json_dir: Option<PathBuf>,
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            json_dir: std::env::var_os("CDPD_BENCH_JSON_DIR").map(PathBuf::from),
            default_sample_size: 15,
        }
    }
}

impl Criterion {
    /// Set the default sample count groups start with (builder-style,
    /// for `criterion_group!`'s `config = ...` form).
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.default_sample_size = n.max(2);
        self
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        let sample_size = self.default_sample_size;
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size,
            results: Vec::new(),
            metrics: Vec::new(),
        }
    }
}

/// A parameterized benchmark name: `BenchmarkId::new("solve", k)`
/// renders as `solve/k`.
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// A benchmark id `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> BenchmarkId {
        BenchmarkId {
            name: name.to_owned(),
        }
    }
}

/// Summary statistics of one benchmark, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct Stats {
    /// Benchmark id within its group.
    pub id: String,
    /// Median ns/iter across samples.
    pub median_ns: f64,
    /// 95th-percentile ns/iter across samples.
    pub p95_ns: f64,
    /// Number of samples taken.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
}

/// A group of benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    results: Vec<Stats>,
    metrics: Vec<Metric>,
}

/// Which direction of a gated metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughputs, win margins).
    Higher,
    /// Smaller values are better (call counts, byte counts).
    Lower,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's regression gate: its direction and its floor, the
/// smallest accepted better-over-worse ratio of fresh to committed.
type Gate = (Better, f64);

/// A recorded metric: its id, its value and its gate, if any.
type Metric = (String, f64, Option<Gate>);

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark (default 15).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Run one benchmark.
    pub fn bench_function(&mut self, id: impl Into<BenchmarkId>, f: impl FnMut(&mut Bencher)) {
        let id = id.into();
        self.run(id.name, f);
    }

    /// Run one benchmark with an input value (criterion-compatible
    /// shape; the input is simply passed through to the closure).
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        self.run(id.name, |b| f(b, input));
    }

    fn run(&mut self, id: String, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            mode: Mode::Warmup,
            samples: Vec::new(),
            iters: 1,
        };
        f(&mut bencher); // warmup + calibration
        bencher.mode = Mode::Measure(self.sample_size);
        bencher.samples.clear();
        f(&mut bencher);
        let stats = bencher.stats(&id);
        println!(
            "{:<44} median {:>12}  p95 {:>12}  ({} samples × {} iters)",
            format!("{}/{}", self.name, stats.id),
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p95_ns),
            stats.samples,
            stats.iters_per_sample,
        );
        self.results.push(stats);
    }

    /// Record a scalar, non-timing metric (a counter, a byte count, a
    /// ratio) alongside the group's timing results. Metrics print with
    /// the report and land in the JSON file as
    /// `{"group", "id", "metric"}` records, so trajectories can track
    /// work counts as well as durations.
    pub fn metric(&mut self, id: impl Into<String>, value: f64) {
        self.record(id.into(), value, None);
    }

    /// Record a metric that [`diff`] gates against the committed report:
    /// the fresh run regresses when `fresh / committed` (or
    /// `committed / fresh` when [`Better::Lower`]) falls below `floor`.
    /// The record carries `better` and `floor`, so this call is the
    /// only place the gate is declared.
    pub fn gated_metric(&mut self, id: impl Into<String>, value: f64, better: Better, floor: f64) {
        self.record(id.into(), value, Some((better, floor)));
    }

    fn record(&mut self, id: String, value: f64, gate: Option<Gate>) {
        println!(
            "{:<44} metric {:>14}",
            format!("{}/{}", self.name, id),
            fmt_metric(value)
        );
        self.metrics.push((id, value, gate));
    }

    /// Write the group's JSON report (if configured). Dropping the
    /// group without calling `finish` does the same.
    pub fn finish(self) {}
}

impl Drop for BenchmarkGroup<'_> {
    fn drop(&mut self) {
        let Some(dir) = self.criterion.json_dir.clone() else {
            return;
        };
        if self.results.is_empty() && self.metrics.is_empty()
            || std::fs::create_dir_all(&dir).is_err()
        {
            return;
        }
        let path = dir.join(format!("BENCH_{}.json", self.name.replace('/', "_")));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if std::fs::write(&path, self.report(cores)).is_err() {
            cdpd_obs::event!("warning: could not write {}", path.display());
        }
    }
}

impl BenchmarkGroup<'_> {
    /// The group's `BENCH_*.json` text. It leads with a host stanza:
    /// bench numbers are only comparable across runs on like hardware,
    /// and [`diff`] reads `cores` to skip cross-host comparisons.
    fn report(&self, cores: usize) -> String {
        let mut records: Vec<String> = vec![format!(
            "  {{\"group\": {:?}, \"id\": \"host\", \"cores\": {cores}, \"os\": {:?}}}",
            self.name,
            std::env::consts::OS,
        )];
        records.extend(self
            .results
            .iter()
            .map(|s| {
                format!(
                    "  {{\"group\": {:?}, \"id\": {:?}, \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}}}",
                    self.name, s.id, s.median_ns, s.p95_ns, s.samples, s.iters_per_sample,
                )
            }));
        records.extend(self.metrics.iter().map(|(id, value, gate)| {
            let gate = gate.map_or(String::new(), |(better, floor)| {
                format!(", \"better\": \"{}\", \"floor\": {floor}", better.label())
            });
            format!(
                "  {{\"group\": {:?}, \"id\": {:?}, \"metric\": {value}{gate}}}",
                self.name, id
            )
        }));
        format!("[\n{}\n]\n", records.join(",\n"))
    }
}

enum Mode {
    Warmup,
    Measure(usize),
}

/// Passed to every benchmark closure; call [`Bencher::iter`] with the
/// code under test.
pub struct Bencher {
    mode: Mode,
    samples: Vec<f64>,
    iters: u64,
}

impl Bencher {
    /// Measure a closure. The closure's return value is passed through
    /// [`std::hint::black_box`] so the computation is not optimized out.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        match self.mode {
            Mode::Warmup => {
                // Run for the warmup budget, counting iterations to
                // calibrate how many fit in one sample.
                let start = Instant::now();
                let mut iters: u64 = 0;
                loop {
                    std::hint::black_box(f());
                    iters += 1;
                    let elapsed = start.elapsed().as_nanos() as u64;
                    if elapsed >= WARMUP_NANOS {
                        let per_iter = (elapsed / iters).max(1);
                        self.iters = (SAMPLE_TARGET_NANOS / per_iter).clamp(1, 1_000_000);
                        break;
                    }
                }
            }
            Mode::Measure(samples) => {
                for _ in 0..samples {
                    let start = Instant::now();
                    for _ in 0..self.iters {
                        std::hint::black_box(f());
                    }
                    let elapsed = start.elapsed().as_nanos() as f64;
                    self.samples.push(elapsed / self.iters as f64);
                }
            }
        }
    }

    fn stats(&self, id: &str) -> Stats {
        let mut sorted = self.samples.clone();
        assert!(
            !sorted.is_empty(),
            "benchmark closure never called Bencher::iter"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let median = sorted[sorted.len() / 2];
        let p95 = sorted[((sorted.len() - 1) as f64 * 0.95) as usize];
        Stats {
            id: id.to_owned(),
            median_ns: median,
            p95_ns: p95,
            samples: sorted.len(),
            iters_per_sample: self.iters,
        }
    }
}

/// What [`diff`] found in one report.
#[derive(Debug, Default, PartialEq)]
pub struct Diff {
    /// One line per gated metric, or one line saying why the report was
    /// skipped; empty when the report gates nothing.
    pub lines: Vec<String>,
    /// Whether a gated metric fell below its floor or went missing.
    pub regressed: bool,
}

/// The host core count and the metric records of a `BENCH_*.json`
/// report, as [`BenchmarkGroup`] writes it.
fn read_report(text: &str) -> Result<(Option<u64>, Vec<Metric>), String> {
    let doc = json::parse(text)?;
    let mut cores = None;
    let mut metrics = Vec::new();
    for record in doc.as_array().ok_or("a report is a JSON array")? {
        let id = record
            .get("id")
            .and_then(Json::as_str)
            .ok_or("a record without an id")?;
        if id == "host" {
            cores = record.get("cores").and_then(Json::as_u64);
        }
        let Some(value) = record.get("metric").and_then(Json::as_f64) else {
            continue;
        };
        let better = record.get("better").and_then(Json::as_str);
        let gate = match (better, record.get("floor").and_then(Json::as_f64)) {
            (None, None) => None,
            (Some("higher"), Some(floor)) => Some((Better::Higher, floor)),
            (Some("lower"), Some(floor)) => Some((Better::Lower, floor)),
            _ => return Err(format!("{id}: a gate needs `better` and `floor`")),
        };
        metrics.push((id.to_owned(), value, gate));
    }
    Ok((cores, metrics))
}

/// Judge the fresh text of report `file` against its committed text:
///
/// * a gated metric regresses when its better-over-worse ratio against
///   the committed value falls below its floor;
/// * a metric gated in the committed report but absent from the fresh
///   one regresses, so a gate cannot vanish unnoticed;
/// * a gated metric with no committed value is new, and skipped;
/// * a report whose committed run came from a host with another core
///   count is skipped whole: scaling ratios do not carry across hosts.
pub fn diff(file: &str, committed: &str, fresh: &str) -> Result<Diff, String> {
    let (old_cores, old) = read_report(committed)?;
    let (new_cores, new) = read_report(fresh)?;
    let value = |records: &[Metric], id: &str| records.iter().find(|r| r.0 == id).map(|r| r.1);
    // The fresh run declares the gates; the committed one's count only
    // for metrics the fresh run lacks.
    let gates: Vec<(&str, Gate)> = new
        .iter()
        .chain(old.iter().filter(|o| value(&new, &o.0).is_none()))
        .filter_map(|(id, _, gate)| Some((id.as_str(), (*gate)?)))
        .collect();
    let mut out = Diff::default();
    if gates.is_empty() {
        return Ok(out);
    }
    if old_cores.is_some() && old_cores != new_cores {
        let cores = |c: Option<u64>| c.map_or("?".to_owned(), |c| c.to_string());
        out.lines.push(format!(
            "{file}: committed baseline is from a {}-core host, this is a {}-core host; skipping",
            cores(old_cores),
            cores(new_cores)
        ));
        return Ok(out);
    }
    for (id, (direction, floor)) in gates {
        let verdict = match (value(&old, id), value(&new, id)) {
            (_, None) => {
                out.regressed = true;
                "missing from the fresh run".to_owned()
            }
            (None, Some(_)) => "new metric, no committed baseline yet, skipping".to_owned(),
            (Some(o), Some(n)) => {
                let (better, worse) = match direction {
                    Better::Higher => (n, o),
                    Better::Lower => (o, n),
                };
                let ratio = if worse != 0.0 { better / worse } else { 1.0 };
                out.regressed |= ratio < floor;
                let mark = if ratio < floor { "REGRESSION" } else { "ok" };
                format!("{o:.3} -> {n:.3} ({ratio:.2}x, floor {floor}) {mark}")
            }
        };
        out.lines.push(format!("{file}: {id}: {verdict}"));
    }
    Ok(out)
}

fn fmt_metric(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value:.3}")
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Collect bench functions into one runnable group, criterion-style:
/// `criterion_group!(benches, bench_a, bench_b);`
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $group;
            config = $crate::bench::Criterion::default();
            targets = $($target),+
        }
    };
    (name = $group:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion: $crate::bench::Criterion = $cfg;
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate `main` for a `harness = false` bench target:
/// `criterion_main!(benches);`
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_sane_stats() {
        let mut bencher = Bencher {
            mode: Mode::Measure(8),
            samples: Vec::new(),
            iters: 100,
        };
        bencher.iter(|| std::hint::black_box((0..50u64).sum::<u64>()));
        let stats = bencher.stats("sum");
        assert_eq!(stats.samples, 8);
        assert!(stats.median_ns > 0.0);
        assert!(stats.p95_ns >= stats.median_ns);
    }

    /// The report a group named `g` writes on a `cores`-core host.
    fn report(cores: usize, metrics: &[(&str, f64, Option<Gate>)]) -> String {
        let mut criterion = Criterion {
            json_dir: None,
            default_sample_size: 2,
        };
        let mut group = criterion.benchmark_group("g");
        for &(id, value, gate) in metrics {
            group.record(id.to_owned(), value, gate);
        }
        group.report(cores)
    }

    /// `diff` of one metric `m` under `gate`, committed on a
    /// `cores`-core host and fresh on a 2-core one; `None` omits it.
    fn judge(cores: usize, old: Option<f64>, new: Option<f64>, gate: Option<Gate>) -> Diff {
        let records = |v: Option<f64>| v.map(|v| ("m", v, gate)).into_iter().collect::<Vec<_>>();
        diff(
            "B.json",
            &report(cores, &records(old)),
            &report(2, &records(new)),
        )
        .expect("the writer's reports read back")
    }

    #[test]
    fn diff_judges_direction_floor_missing_new_and_core_count() {
        let (lo, hi) = (Some((Better::Lower, 0.9)), Some((Better::Higher, 0.75)));
        #[rustfmt::skip]
        let cases = [
            // The same 20% rise fails a lower-is-better count and passes
            // a higher-is-better throughput.
            (2, Some(480.0), Some(576.0), lo, true, "m: 480.000 -> 576.000 (0.83x, floor 0.9) REGRESSION"),
            (2, Some(480.0), Some(576.0), hi, false, "m: 480.000 -> 576.000 (1.20x, floor 0.75) ok"),
            // The floor is the smallest accepted ratio.
            (2, Some(100.0), Some(75.0), hi, false, "m: 100.000 -> 75.000 (0.75x, floor 0.75) ok"),
            (2, Some(100.0), Some(74.0), hi, true, "m: 100.000 -> 74.000 (0.74x, floor 0.75) REGRESSION"),
            (2, Some(480.0), None, lo, true, "m: missing from the fresh run"),
            (2, None, Some(480.0), lo, false, "m: new metric, no committed baseline yet, skipping"),
            (1, Some(480.0), Some(4800.0), lo, false,
             "committed baseline is from a 1-core host, this is a 2-core host; skipping"),
        ];
        for (cores, old, new, gate, regressed, line) in cases {
            let lines = vec![format!("B.json: {line}")];
            assert_eq!(judge(cores, old, new, gate), Diff { lines, regressed });
        }
        // A plain metric has no floor, however far it moves.
        assert_eq!(judge(2, Some(100.0), Some(1.0), None), Diff::default());
    }
}
