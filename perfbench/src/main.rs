//! One benchmark command for the advdiag platform.
//!
//! ```text
//! perfbench --workload <fig4_session|service_open|explore_sweep|voltammetry>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--rate <sessions/s>] [--latency-limit-ms <ms>]
//! ```
//!
//! `--trace 0` measures the workload and prints every end-to-end metric;
//! `--trace 1` runs it again through spans and layer probes and prints
//! every per-layer metric. Either way the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`, and the process exits non-zero when a correctness check
//! fails.

mod drive;
mod fig4;
mod probe;
mod report;
mod service;
mod stats;
mod sweep;
mod trace;
mod voltammetry;

use report::{info_line, json_string, result_line, Layers, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = [
    "fig4_session",
    "service_open",
    "explore_sweep",
    "voltammetry",
];

/// Metric name, value and unit, in declaration order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Cold set-ups per untraced run (this process plus fresh children);
/// `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;

#[derive(Debug, Clone)]
pub struct Cli {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Open-loop arrival rate of `service_open`, sessions per second.
    pub rate: f64,
    /// A request served later than this counts as failed.
    pub latency_limit_ms: f64,
    /// Only set up, print the set-up seconds and exit.
    pub setup_probe: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rate: 350.0,
        latency_limit_ms: 1000.0,
        setup_probe: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            cli.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cli.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => cli.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--rate" => cli.rate = value.parse().map_err(|_| bad())?,
            "--latency-limit-ms" => cli.latency_limit_ms = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(cli.seconds > 0.0 && cli.rate > 0.0 && cli.latency_limit_ms > 0.0) {
        return Err("--seconds, --rate and --latency-limit-ms must be positive".into());
    }
    Ok(cli)
}

/// What one measured (or traced) run observed.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Operations that returned an error or a failed outcome.
    pub errors: Vec<String>,
    pub latencies_ms: Vec<f64>,
    /// Per finished request: seconds since measurement start, work units
    /// done, seconds the request took.
    pub done: Vec<(f64, f64, f64)>,
    /// Measured span the `done` marks fall in.
    pub wall_s: f64,
    /// Set by workloads that measure capacity apart from their own load;
    /// otherwise capacity is requests per busy second.
    pub capacity_per_s: Option<f64>,
    pub info: Vec<(&'static str, String)>,
    /// Traced runs: span sets to write out, each with a file label.
    pub spans: Vec<(&'static str, Tracer)>,
}

impl Measured {
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    /// Records one finished request.
    pub fn finish(&mut self, at_s: f64, units: f64, took_s: f64) {
        self.done.push((at_s, units, took_s));
    }
}

/// Length of the windows rates are taken over.
const WINDOW_S: f64 = 1.0;

/// Throughput (work units per second) and capacity (requests per busy
/// second) as medians over whole one-second windows, so a burst of
/// interference from other processes moves one window, not the result.
fn windowed_rates(done: &[(f64, f64, f64)], span_s: f64) -> (f64, f64) {
    let (n, window) = if span_s >= WINDOW_S {
        ((span_s / WINDOW_S).floor() as usize, WINDOW_S)
    } else {
        (1, span_s)
    };
    let mut units = vec![0.0; n];
    let mut count = vec![0.0; n];
    let mut busy = vec![0.0; n];
    for &(at, u, took) in done {
        // Marks past the last whole window are left out.
        let w = (at / window) as usize;
        if w < n {
            units[w] += u;
            count[w] += 1.0;
            busy[w] += took;
        }
    }
    let throughput: Vec<f64> = units.iter().map(|u| u / window).collect();
    let capacity: Vec<f64> = count
        .iter()
        .zip(&busy)
        .filter(|(_, b)| **b > 0.0)
        .map(|(c, b)| c / b)
        .collect();
    (
        stats::median(&throughput),
        if capacity.is_empty() {
            0.0
        } else {
            stats::median(&capacity)
        },
    )
}

// One value per run, so the size difference between variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum State {
    Fig4(fig4::State),
    Service(service::State),
    Sweep(sweep::State),
    Voltammetry(voltammetry::State),
}

fn setup(cli: &Cli) -> State {
    match cli.workload.as_str() {
        "fig4_session" => State::Fig4(fig4::setup(cli)),
        "service_open" => State::Service(service::setup(cli)),
        "explore_sweep" => State::Sweep(sweep::setup(cli)),
        _ => State::Voltammetry(voltammetry::setup(cli)),
    }
}

/// Peak resident set (VmHWM) of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_owned))
        })
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up seconds of fresh processes, so every sample starts with empty
/// caches. Each child is waited for before the next starts.
fn child_setups(cli: &Cli, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..n)
        .map(|_| {
            let out = Command::new(&exe)
                .args([
                    "--setup-probe",
                    "--workload",
                    &cli.workload,
                    "--seed",
                    &cli.seed.to_string(),
                    "--seconds",
                    &cli.seconds.to_string(),
                    "--rate",
                    &cli.rate.to_string(),
                ])
                .output()
                .map_err(|e| e.to_string())?;
            if !out.status.success() {
                return Err(format!("set-up probe failed: {}", out.status));
            }
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("set-up probe output: {e}"))
        })
        .collect()
}

fn threads() -> usize {
    bios_platform::ExecPolicy::Auto.threads_for(usize::MAX)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The execution policy a run's measured work used.
fn exec_policy(cli: &Cli) -> &'static str {
    match (cli.trace, cli.workload.as_str()) {
        (false, _) | (true, "explore_sweep") => "Auto",
        (true, "service_open") => "Auto (open loop), Sequential (burst and replay)",
        (true, _) => "Sequential",
    }
}

fn run_info(cli: &Cli, m: &Measured) -> String {
    let mut info: Vec<(&str, String)> = vec![
        ("workload", json_string(&cli.workload)),
        ("seed", cli.seed.to_string()),
        ("seconds", cli.seconds.to_string()),
        ("trace", cli.trace.to_string()),
        ("host_cores", host_cores().to_string()),
        ("threads", threads().to_string()),
        ("exec_policy", json_string(exec_policy(cli))),
        ("caches_started_empty", "true".into()),
        ("attempted", m.attempted.to_string()),
        ("failed", m.failed.to_string()),
        ("samples", m.latencies_ms.len().to_string()),
    ];
    info.extend(m.info.iter().cloned());
    if let Some(e) = m.errors.first() {
        info.push(("first_error", json_string(e)));
    }
    if let Some(e) = m.mismatches.first() {
        info.push(("first_mismatch", json_string(e)));
    }
    info_line(&info)
}

fn untraced(cli: &Cli) -> Result<(Measured, Metrics), String> {
    let mut setups = child_setups(cli, SETUP_SAMPLES - 1)?;
    let t0 = Instant::now();
    let mut state = setup(cli);
    setups.push(t0.elapsed().as_secs_f64());
    let mut m = match &mut state {
        State::Fig4(s) => fig4::run(s, cli),
        State::Service(s) => service::run(s, cli),
        State::Sweep(s) => sweep::run(s, cli),
        State::Voltammetry(s) => voltammetry::run(s, cli),
    };
    if m.latencies_ms.is_empty() {
        return Err("no request completed".into());
    }
    let lat = stats::sorted(&m.latencies_ms);
    let tail = stats::tail(&lat);
    let (throughput, capacity) = windowed_rates(&m.done, m.wall_s);
    let values = [
        stats::median(&setups),
        peak_rss_mb(),
        stats::percentile(&lat, 50.0),
        tail.value,
        throughput,
        m.capacity_per_s.unwrap_or(capacity),
        (m.attempted - m.failed.min(m.attempted)) as f64 / m.attempted as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    m.info.extend([
        ("latency_tail_pct", tail.pct.to_string()),
        ("latency_tail_beyond", tail.beyond.to_string()),
        (
            "latency_p99_ms",
            format!("{:?}", stats::percentile(&lat, 99.0)),
        ),
        (
            "throughput_whole_run_per_s",
            format!("{:?}", m.done.iter().map(|d| d.1).sum::<f64>() / m.wall_s),
        ),
        ("setup_samples", format!("{setups:?}")),
        ("latency_limit_ms", cli.latency_limit_ms.to_string()),
    ]);
    Ok((m, metrics))
}

fn traced(cli: &Cli) -> (Measured, Metrics) {
    let mut layers = Layers::default();
    let mut state = setup(cli);
    let m = match &mut state {
        State::Fig4(s) => {
            let replay = probe::replay_fig4(&mut layers);
            fig4::traced(s, cli, &replay, &mut layers)
        }
        State::Service(s) => {
            let replay = probe::replay_fig4(&mut layers);
            service::traced(s, cli, &replay, &mut layers)
        }
        State::Sweep(s) => sweep::traced(s, cli, &mut layers),
        State::Voltammetry(s) => voltammetry::traced(s, cli, &mut layers),
    };
    probe::fill_missing(&mut layers);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).unwrap_or(0.0), unit))
        .collect();
    (m, metrics)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.setup_probe {
        let t0 = Instant::now();
        let _state = setup(&cli);
        println!("{:?}", t0.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }
    let (m, metrics) = if cli.trace {
        traced(&cli)
    } else {
        match untraced(&cli) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    for (label, tracer) in &m.spans {
        let path = std::path::Path::new(".bench_trace").join(format!("{label}.tsv"));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    let correct = m.mismatches.is_empty();
    for e in &m.mismatches {
        eprintln!("perfbench: correctness check failed: {e}");
    }
    println!("{}", run_info(&cli, &m));
    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        result_line(correct, m.attempted.max(1), m.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_medians_over_whole_windows() {
        // Three whole windows at 2, 4 and 4 requests, plus a partial one
        // whose marks are ignored.
        let mut done = Vec::new();
        for (w, n) in [(0.0, 2), (1.0, 4), (2.0, 4), (3.0, 9)] {
            for k in 0..n {
                done.push((w + 0.1 * f64::from(k), 10.0, 0.1));
            }
        }
        let (throughput, capacity) = windowed_rates(&done, 3.5);
        assert_eq!(throughput, 40.0);
        assert_eq!(capacity, 10.0);
    }
}
