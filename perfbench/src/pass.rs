//! What one pass of a workload returns, and the metric tables every pass is
//! reported against.

use crate::measure::{failed_queries, Digest};
use kairos_sim::{SimReport, SimulationOptions};

/// The end-to-end metrics: name, unit, whether higher is better, and
/// whether the metric is in the JSON summary the benchmark is judged by.
/// Every workload reports every one; `NOTES.md` says why the two simulated
/// metrics left out of the summary print as log lines only.
pub const END_TO_END: &[(&str, &str, bool, bool)] = &[
    ("run_s", "s", false, true),
    ("sharded_run_s", "s", false, true),
    ("setup_s", "s", false, true),
    ("peak_rss_mb", "MB", false, true),
    ("qos_violation_frac", "frac", false, false),
    ("sim_p99_ms", "ms", false, false),
    ("billed_usd_per_hr", "usd/hr", false, true),
    ("kairos_over_homo", "ratio", true, true),
];

/// The per-layer metrics of a traced run: name and unit.  A layer a
/// workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.trace_gen_s", "s"),
    ("sim.engine.build_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.engine.ns_per_event", "ns"),
    ("sim.engine.sched_rounds", "count"),
    ("sim.engine.sched_s", "s"),
    ("sim.engine.sched_round_ns.p50", "ns"),
    ("sim.engine.sched_round_ns.p99", "ns"),
    ("sim.engine.dispatches", "count"),
    ("sim.engine.self_s", "s"),
    ("sim.flex.batches_fired", "count"),
    ("sim.flex.mean_fill", "queries"),
    ("sim.flex.mean_wait_us", "us"),
    ("sim.sharded.split_s", "s"),
    ("sim.sharded.lane_sum_s", "s"),
    ("sim.sharded.lane_max_s", "s"),
    ("sim.sharded.merge_s", "s"),
    ("sim.stats.metrics_s", "s"),
    ("sim.stats.records_mb", "MB"),
    ("sim.capacity.probes", "count"),
    ("sim.capacity.ramp_s.p50", "s"),
    ("sim.capacity.ramp_s.max", "s"),
    ("core.distribution.rounds", "count"),
    ("core.distribution.busy_s", "s"),
    ("core.distribution.round_us.p50", "us"),
    ("core.distribution.round_us.p99", "us"),
    ("core.distribution.queue_len.p50", "count"),
    ("core.distribution.queue_len.p99", "count"),
    ("core.planner.plan_ms.p50", "ms"),
    ("core.planner.plan_ms.max", "ms"),
    ("core.planner.ranked", "count"),
    ("core.service.setup_ms", "ms"),
    ("core.service.replans", "count"),
    ("core.service.reconfigs", "count"),
    ("core.service.plan_cache_hits", "count"),
    ("core.service.plan_cache_misses", "count"),
    ("trace_overhead_frac", "frac"),
];

/// The simulated outputs of a pass.  Deterministic for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimOutputs {
    /// Share of offered queries over QoS or never finished.
    pub qos_violation_frac: f64,
    /// Simulated p99 latency in ms.
    pub p99_ms: f64,
    /// Billed dollars per simulated hour.
    pub billed_usd_per_hr: f64,
    /// Allowable (or estimated) throughput of the Kairos deployment over
    /// the best homogeneous one at the same budget.
    pub kairos_over_homo: f64,
    /// Operations attempted: queries offered, or ramps in capacity_search.
    pub ops: u64,
    /// Operations failed: queries over QoS or never finished, or ramps
    /// without a plan or with no allowable rate.
    pub ops_failed: u64,
    /// Operations that did not complete at all: unfinished queries, or
    /// failed ramps.  This is the benchmark's hard-failure count.
    pub ops_lost: u64,
}

impl SimOutputs {
    /// The outputs of a replay whose failures are its queries over QoS or
    /// never finished.
    pub fn of_replay(report: &SimReport, kairos_over_homo: f64) -> Self {
        let failed = failed_queries(report) as u64;
        Self {
            qos_violation_frac: failed as f64 / report.offered as f64,
            p99_ms: report.p99_latency_us() as f64 / 1000.0,
            billed_usd_per_hr: report.billed_cost_per_hour(),
            kairos_over_homo,
            ops: report.offered as u64,
            ops_failed: failed,
            ops_lost: report.unfinished.len() as u64,
        }
    }

    /// The outputs of two parts of one workload: counts add up, the bills
    /// of the two simulated clusters add up, the log-only QoS figures are
    /// the worse part's, and the throughput ratio is `b`'s (a workload puts
    /// the part that measures the paper's headline last).
    pub fn join(a: &Self, b: &Self) -> Self {
        Self {
            qos_violation_frac: a.qos_violation_frac.max(b.qos_violation_frac),
            p99_ms: a.p99_ms.max(b.p99_ms),
            billed_usd_per_hr: a.billed_usd_per_hr + b.billed_usd_per_hr,
            kairos_over_homo: b.kairos_over_homo,
            ops: a.ops + b.ops,
            ops_failed: a.ops_failed + b.ops_failed,
            ops_lost: a.ops_lost + b.ops_lost,
        }
    }
}

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was compared, for the log.
    pub detail: String,
}

impl Check {
    /// A check from a condition and a description of the compared values.
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// Everything one pass of a workload yields.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Set-up samples taken in this pass, in seconds.
    pub setup_s: Vec<f64>,
    /// Samples of the timed section, in seconds.
    pub run_s: Vec<f64>,
    /// Samples of the sharded (parallel) section, in seconds; none in
    /// traced passes.
    pub sharded_run_s: Vec<f64>,
    /// Simulated outputs.
    pub sim: SimOutputs,
    /// Digest over the simulated outputs.
    pub digest: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Per-layer values of a traced pass (empty otherwise).
    pub layers: Vec<(&'static str, f64)>,
}

impl Pass {
    /// One pass of a workload made of two parts run one after the other.
    /// Timed samples add up pairwise (a part without samples of a kind
    /// contributes none), checks are kept from both, the digest covers
    /// both, and a layer both parts measure is reported from `a`.
    pub fn join(a: Pass, b: Pass) -> Pass {
        let mut digest = Digest::default();
        digest.word(a.digest);
        digest.word(b.digest);
        let mut layers = a.layers;
        for layer in b.layers {
            if !layers.iter().any(|(n, _)| *n == layer.0) {
                layers.push(layer);
            }
        }
        Pass {
            setup_s: add_samples(&a.setup_s, &b.setup_s),
            run_s: add_samples(&a.run_s, &b.run_s),
            sharded_run_s: add_samples(&a.sharded_run_s, &b.sharded_run_s),
            sim: SimOutputs::join(&a.sim, &b.sim),
            digest: digest.value(),
            checks: a.checks.into_iter().chain(b.checks).collect(),
            layers,
        }
    }
}

/// Pairwise sums of two parts' samples; the other part's samples when one
/// part has none.
fn add_samples(a: &[f64], b: &[f64]) -> Vec<f64> {
    match (a.is_empty(), b.is_empty()) {
        (true, _) => b.to_vec(),
        (_, true) => a.to_vec(),
        _ => a.iter().zip(b).map(|(x, y)| x + y).collect(),
    }
}

/// Sizes a workload runs at: `Full` for the benchmark, `Smoke` for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark size.
    Full,
    /// A few-second size for tests.
    Smoke,
}

/// Engine options of a replay: service-time noise seeded from the run's
/// seed.
pub fn engine_options(seed: u64) -> SimulationOptions {
    SimulationOptions {
        seed: derive_seed(seed, 2),
    }
}

/// Derives an independent 64-bit seed for `stream` from the run's seed
/// (SplitMix64 finalizer).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
