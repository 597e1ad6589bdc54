//! Oracle-checked benchmark of the revpebble solver, session runtime and
//! daemon. See `README.md` beside this crate for the workloads, metrics
//! and how to run it.
//!
//! ```text
//! perfbench --workload fixed|minimize|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; progress, failures and
//! the per-metric notes go to standard error.

mod gen;
mod solve;
mod trace;
mod wire;

use std::fmt::{Display, Write as _};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gen::{Ask, Instance};
use solve::Failure;
use trace::Tracer;

/// Times each workload's set-up is repeated; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// Untimed warm-up before the timed phase, so one-time costs (page
/// faults, allocator growth, thread start-up) stay out of it.
const WARM_UP: Duration = Duration::from_secs(2);

/// Operation outcomes of one phase.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed their oracle check, errored or were shed.
    pub failed: usize,
    /// Failures that returned a wrong answer rather than no answer.
    pub wrong: usize,
    /// Latency of every operation, in seconds.
    pub latencies: Vec<f64>,
    /// Step counts of the strategies that passed their check.
    pub steps: Vec<usize>,
    /// Wall-clock seconds of the phase.
    pub elapsed: f64,
    /// How often the inputs ran out: a solve pool starts over, a `serve`
    /// script ends.
    pub wraps: usize,
}

impl Ops {
    /// Counts one operation's oracle outcome.
    pub fn settle(&mut self, op: impl Display, checked: Result<usize, Failure>) {
        self.attempted += 1;
        match checked {
            Ok(steps) => self.steps.push(steps),
            Err(failure) => {
                self.failed += 1;
                self.wrong += usize::from(failure.is_wrong());
                eprintln!("operation {op} failed: {failure:?}");
            }
        }
    }

    fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            self.0.iter().all(|(n, ..)| n != name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_owned(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (index, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if index == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Percentiles `latency_tail_s` picks from, highest first, in tenths
/// of a percent.
const TAIL_PERMILLES: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The mean latency of the samples beyond the highest of
/// [`TAIL_PERMILLES`] that has at least ten samples beyond it, with that
/// percentile and the sample count; the maximum when no percentile does.
///
/// `serve` latencies come in steps of the daemon's 25 ms poll tick, so
/// any single order statistic in the tail sits on one step or the next,
/// and a few requests crossing a tick boundary move it by a whole step:
/// the 11th-slowest of 2400 requests read 68 ms or 100 ms, and the p99
/// of 3600 read 44 ms or 64 ms, from run to run. The mean of the samples
/// beyond the percentile moves by a fraction of a step instead. Picking
/// the percentile from a fixed ladder keeps it the same when a run makes
/// one pass more or less.
fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for permille in TAIL_PERMILLES {
        // The nearest-rank percentile: the smallest sample with at
        // least that share of the samples at or below it.
        let rank = (permille * n).div_ceil(1000).max(1);
        if n >= rank + 10 {
            let beyond = &sorted[rank..];
            let mean = beyond.iter().sum::<f64>() / beyond.len() as f64;
            return (mean, permille as f64 / 10.0, n);
        }
    }
    (sorted.last().copied().unwrap_or(0.0), 100.0, n)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !matches!(args.workload.as_str(), "fixed" | "minimize" | "serve") {
        return Err(format!(
            "--workload must be fixed, minimize or serve (got {:?})",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last result with
/// the median set-up time; `discard` tears down every earlier result.
fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

fn end_to_end(ops: &Ops, setup_s: f64, metrics: &mut Metrics) {
    let (tail_s, percentile, samples) = tail(&ops.latencies);
    let steps = ops.steps.iter().sum::<usize>() as f64 / ops.steps.len().max(1) as f64;
    metrics.put("setup_s", setup_s, "s");
    metrics.put(
        "throughput_per_s",
        ops.attempted as f64 / ops.elapsed.max(1e-9),
        "1/s",
    );
    metrics.put("latency_p50_s", median(&ops.latencies), "s");
    metrics.put("latency_tail_s", tail_s, "s");
    metrics.put(
        "ok_frac",
        1.0 - ops.failed as f64 / ops.attempted.max(1) as f64,
        "ratio",
    );
    metrics.put("strategy_steps", steps, "steps");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "latency_tail_s is the mean beyond p{percentile:.1} of {samples} samples; \
         {} of {} operations failed; \
         inputs ran out {} times",
        ops.failed, ops.attempted, ops.wraps
    );
}

/// A solve-path workload's input pool, corpus size and question.
fn solve_workload(workload: &str, seed: u64) -> (Vec<Instance>, usize, Ask) {
    match workload {
        "fixed" => (gen::fixed_pool(seed), gen::FIXED_CORPUS, Ask::Fixed),
        _ => (
            gen::minimize_pool(seed),
            gen::MINIMIZE_CORPUS,
            Ask::Minimize,
        ),
    }
}

/// Splits an instance script (cold, copy, cold, copy, …) over `clients`
/// connections, keeping each copy on the connection of its original.
fn deal(script: Vec<gen::WireRequest>, clients: usize) -> Vec<Vec<gen::WireRequest>> {
    let mut scripts = vec![Vec::new(); clients];
    for (pair, requests) in script.chunks(2).enumerate() {
        scripts[pair % clients].extend_from_slice(requests);
    }
    scripts
}

fn run(args: &Args) -> (Ops, Metrics) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let seconds = Duration::from_secs_f64(args.seconds);
    eprintln!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let mut metrics = Metrics::default();
    let serve_scripts = || gen::serve_scripts(args.seed, nproc);

    if !args.trace {
        let (ops, setup_s) = if args.workload == "serve" {
            let ((scripts, mut daemon), setup_s) = repeated_setup(
                || (serve_scripts(), wire::Daemon::start(nproc, nproc)),
                |(_, daemon)| daemon.stop(),
            );
            wire::warm_up(&mut daemon, Instant::now() + WARM_UP);
            let ops = wire::timed(&mut daemon, &scripts, Instant::now() + seconds);
            daemon.stop();
            (ops, setup_s)
        } else {
            let ((pool, corpus, ask), setup_s) =
                repeated_setup(|| solve_workload(&args.workload, args.seed), drop);
            // A corpus of one makes every operation a stopping point.
            solve::timed(&pool, 1, ask, Instant::now() + WARM_UP);
            let ops = solve::timed(&pool, corpus, ask, Instant::now() + seconds);
            (ops, setup_s)
        };
        end_to_end(&ops, setup_s, &mut metrics);
        return (ops, metrics);
    }

    // The traced run: the solve path, then the serve path, each for
    // `seconds`.
    let mut tracer = Tracer::default();
    let mut layers = solve::SolveLayers::default();
    let (mut ops, scripts, ask) = if args.workload == "serve" {
        let scripts = serve_scripts();
        let cold: Vec<Instance> = scripts
            .iter()
            .flatten()
            .filter(|request| !request.warm)
            .enumerate()
            .map(|(id, request)| Instance {
                id,
                dag: request.dag.clone(),
                min: request.min,
            })
            .collect();
        let (ops, _) = solve::traced(
            &cold,
            Ask::Fixed,
            Instant::now() + seconds,
            &mut tracer,
            &mut layers,
        );
        (ops, scripts, Ask::Fixed)
    } else {
        let (pool, _, ask) = solve_workload(&args.workload, args.seed);
        let (ops, done) = solve::traced(
            &pool,
            ask,
            Instant::now() + seconds,
            &mut tracer,
            &mut layers,
        );
        let scripts = deal(gen::instance_script(args.seed, &done, ask), nproc);
        (ops, scripts, ask)
    };
    layers.report(&tracer, &mut metrics);
    let wire_ops = wire::traced(
        &scripts,
        ask,
        nproc,
        Instant::now() + seconds,
        &mut tracer,
        &mut metrics,
    );
    ops.absorb(wire_ops);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tracer.to_json_lines()))
    {
        Ok(()) => eprintln!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(err) => eprintln!("trace: could not write {}: {err}", path.display()),
    }
    (ops, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let (ops, metrics) = run(&args);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ops.wrong == 0,
        ops.attempted,
        ops.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_averages_beyond_the_highest_ladder_percentile_with_ten_samples_beyond() {
        // 2377..=2400 lie beyond the p99 of 1..=2400.
        let values: Vec<f64> = (1..=2400).map(f64::from).collect();
        assert_eq!(tail(&values), (2388.5, 99.0, 2400));
        // The p99 of 300 samples has 3 beyond it; the p95 has 15.
        let values: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(tail(&values), (293.0, 95.0, 300));
        let values: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&values), (19_990.5, 99.9, 20_000));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0, 3));
    }
}
