//! The repository benchmark: two workloads over the simulator and its
//! control plane, timed end to end (`--trace 0`) or layer by layer
//! (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload data_plane --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  Every line before it is
//! for people: each metric with its unit and direction, the operation
//! counts, every output check and the digest of the simulated outputs.
//! The process exits non-zero when a check fails.  `NOTES.md` explains the
//! workloads and metrics.

mod capacity;
mod fleet;
mod flex;
mod measure;
mod online;
mod pass;

use kairos_core::ThroughputEstimator;
use kairos_models::{best_homogeneous, latency::LatencyTable, Config, ModelKind, PoolSpec};
use measure::{max, median, peak_rss_mb};
use pass::{Check, Pass, Size, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;

/// The benchmark's workloads.  Each is two parts run one after the other
/// in every pass, and a timed figure of a pass is the sum of its parts'.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// `fleet_replay` then `flex_replay`: the engine without a control
    /// plane.
    DataPlane,
    /// `online_serving` then `capacity_search`: the serving loop, the
    /// planner and Kairos matching.
    ControlPlane,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::DataPlane, Workload::ControlPlane];

    fn name(self) -> &'static str {
        match self {
            Workload::DataPlane => "data_plane",
            Workload::ControlPlane => "control_plane",
        }
    }

    fn pass(self, size: Size, seed: u64, threads: usize, traced: bool) -> Pass {
        match (self, traced) {
            (Workload::DataPlane, false) => Pass::join(
                fleet::pass(size, seed, threads),
                flex::pass(size, seed, threads),
            ),
            (Workload::DataPlane, true) => Pass::join(
                fleet::traced_pass(size, seed),
                flex::traced_pass(size, seed),
            ),
            (Workload::ControlPlane, false) => {
                Pass::join(online::pass(size, seed), capacity::pass(size, threads))
            }
            (Workload::ControlPlane, true) => {
                Pass::join(online::traced_pass(size, seed), capacity::traced_pass(size))
            }
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("--size takes full or smoke, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// Geometric mean of positive values; 0 if any is not positive.
pub(crate) fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Estimated throughput upper bound of `config` over that of the best
/// homogeneous configuration of the same cost (scaled for the budget it
/// leaves unused), for `model` under the batch mix `sample`.
pub(crate) fn planned_over_homo(
    pool: &PoolSpec,
    model: ModelKind,
    latency: &LatencyTable,
    sample: &[u32],
    config: &Config,
) -> f64 {
    let estimator = ThroughputEstimator::new(pool.clone(), model, latency.clone(), sample.to_vec());
    let cost = config.cost(pool);
    // A hair above the cost, so a config of n base instances is not
    // floored to n - 1 by rounding.
    let homo = best_homogeneous(pool, cost * (1.0 + 1e-9));
    estimator.estimate(config) / estimator.estimate(&homo) * (homo.cost(pool) / cost)
}

/// The sample count and maximum of a timing, and the highest of its p99,
/// p90 and p75 with at least ten samples above it, when there is one.
fn spread_note(samples: &[f64]) -> String {
    let n = samples.len() as f64;
    let mut note = format!("n={n} max={}", max(samples));
    if let Some(pct) = [99.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
    {
        note += &format!(" p{pct}={}", measure::percentile(samples, pct));
    }
    note
}

/// Runs at least one pass, and more while another pass, as long as the
/// mean one so far, would end nearer to `seconds` after `start` than
/// stopping now does.  A run so ends within half a pass of its deadline.
fn run_passes(
    args: &Args,
    threads: usize,
    traced: bool,
    start: Instant,
    seconds: f64,
) -> Vec<Pass> {
    let first = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty()
        || measure::secs(start) + measure::secs(first) / passes.len() as f64 / 2.0 < seconds
    {
        passes.push(args.workload.pass(args.size, args.seed, threads, traced));
    }
    passes
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--size full|smoke]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} size={:?} threads={threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size
    );

    let start = Instant::now();
    // Untraced passes for the end-to-end figures; a traced run spends half
    // its time on them (for the overhead ratio) and half on traced passes.
    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = run_passes(&args, threads, false, start, untraced_budget);
    let traced = if args.trace {
        run_passes(&args, threads, true, start, args.seconds)
    } else {
        Vec::new()
    };
    let peak_rss = peak_rss_mb();

    // Checks: every pass's own, plus the simulated outputs repeating
    // exactly across passes (traced passes included).
    let mut checks: Vec<Check> = Vec::new();
    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    for pass in &all {
        for check in &pass.checks {
            if !check.ok || !checks.iter().any(|c| c.name == check.name) {
                checks.push(check.clone());
            }
        }
    }
    let first = all[0];
    let digests_agree = all
        .iter()
        .all(|p| p.digest == first.digest && p.sim == first.sim);
    checks.push(Check::new(
        "sim_digest_identical_across_passes",
        digests_agree,
        format!("{} passes", all.len()),
    ));
    checks.push(Check::new(
        "peak_rss_readable",
        peak_rss.is_some(),
        "/proc/self/status VmHWM",
    ));

    let run_s: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.run_s.iter().copied())
        .collect();
    let sharded_s: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.sharded_run_s.iter().copied())
        .collect();
    let setup_s: Vec<f64> = all.iter().flat_map(|p| p.setup_s.iter().copied()).collect();
    let sim = first.sim;

    // (name, value, unit, in the JSON summary, note for the log line)
    let mut metrics: Vec<(&str, f64, &str, bool, String)> = Vec::new();
    if args.trace {
        let traced_run: Vec<f64> = traced
            .iter()
            .flat_map(|p| p.run_s.iter().copied())
            .collect();
        for &(name, unit) in PER_LAYER {
            let samples: Vec<f64> = if name == "trace_overhead_frac" {
                vec![median(&traced_run) / median(&run_s) - 1.0]
            } else {
                traced
                    .iter()
                    .filter_map(|p| p.layers.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                    .collect()
            };
            let note = if samples.is_empty() {
                "not measured on this workload, reads 0".to_string()
            } else {
                format!("median of {} traced passes", traced.len())
            };
            metrics.push((name, median(&samples), unit, true, note));
        }
    } else {
        for &(name, unit, higher, in_summary) in END_TO_END {
            let (value, note) = match name {
                "run_s" => (median(&run_s), spread_note(&run_s)),
                "sharded_run_s" => (median(&sharded_s), spread_note(&sharded_s)),
                "setup_s" => (median(&setup_s), spread_note(&setup_s)),
                "peak_rss_mb" => (peak_rss.unwrap_or(0.0), "VmHWM".to_string()),
                "qos_violation_frac" => (sim.qos_violation_frac, "simulated".to_string()),
                "sim_p99_ms" => (sim.p99_ms, "simulated".to_string()),
                "billed_usd_per_hr" => (sim.billed_usd_per_hr, "simulated".to_string()),
                "kairos_over_homo" => (sim.kairos_over_homo, "simulated".to_string()),
                other => unreachable!("metric {other} has no source"),
            };
            let direction = if higher { "higher" } else { "lower" };
            let note = format!("{direction} is better, {note}");
            metrics.push((name, value, unit, in_summary, note));
        }
    }
    for (name, value, unit, in_summary, note) in &metrics {
        let summary = if *in_summary { "" } else { ", not in summary" };
        println!("metric {name} {value} ({unit}, {note}{summary})");
    }
    let finite = metrics.iter().all(|m| m.1.is_finite());
    checks.push(Check::new("metrics_finite", finite, "every metric value"));

    println!("ops {}", sim.ops);
    println!("ops_failed {}", sim.ops_failed);
    println!("ops_lost {}", sim.ops_lost);
    for check in &checks {
        let verdict = if check.ok { "ok" } else { "FAILED" };
        println!("check {} {verdict} ({})", check.name, check.detail);
    }
    println!("sim_digest {:016x}", first.digest);

    let correct = checks.iter().all(|c| c.ok);
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.3)
        .map(|&(name, value, unit, _, _)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        sim.ops.max(1),
        sim.ops_lost,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
