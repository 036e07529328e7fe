//! `capacity_search`, the second part of `control_plane`: the paper's
//! Sec. 8 headline.  For every model and budget, `KairosPlanner::plan`
//! picks a configuration, then two `allowable_throughput` ramps measure it
//! under `KairosScheduler` and the best homogeneous configuration under
//! FCFS.

use crate::geomean;
use crate::measure::{
    failed_queries, max, median, percentile, serial, time_metrics, timed, timed_n, workers, Digest,
    RoundLog, TimedScheduler,
};
use crate::pass::{Check, Pass, SimOutputs, Size};
use kairos_core::{KairosPlanner, KairosScheduler, Plan};
use kairos_models::{
    best_homogeneous, calibration::paper_calibration, ec2, latency::LatencyTable, Config,
    ModelKind, PoolSpec,
};
use kairos_sim::{
    allowable_throughput, allowable_throughput_many, CapacityOptions, CapacityResult,
    FcfsScheduler, Scheduler, ServiceSpec, SimContext, SimReport, SimulationOptions,
};
use kairos_workload::{BatchSizeDistribution, TraceSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

const MODELS: [ModelKind; 5] = [
    ModelKind::Ncf,
    ModelKind::Rm2,
    ModelKind::Wnd,
    ModelKind::MtWnd,
    ModelKind::Dien,
];
const BUDGETS: [f64; 2] = [2.5, 5.0];
const SAMPLE: usize = 4_000;
/// Set-ups timed per pass, as many as the serving part of
/// `control_plane` times (one takes about a millisecond).
const SETUP_REPEATS: usize = crate::online::SETUP_REPEATS;
/// The search runs on fixed seeds, those of the figure harness, whatever
/// the run's seed: which configuration the planner picks and which probes
/// fail decide how deep the failing probes' queues get, and Kairos round
/// cost grows with queue depth, so the search's work swings widely from
/// one input to the next (see `NOTES.md`).
const PROBE_SEED: u64 = 97;
const SAMPLE_SEED: u64 = 1234;

/// Probe length and bisection steps of every ramp.
fn ramp_shape(size: Size) -> (f64, usize) {
    match size {
        Size::Full => (1.0, 3),
        Size::Smoke => (0.25, 1),
    }
}

struct ModelSetup {
    kind: ModelKind,
    service: ServiceSpec,
    planner: KairosPlanner,
    sample: Vec<u32>,
}

struct Setup {
    pool: PoolSpec,
    latency: LatencyTable,
    models: Vec<ModelSetup>,
    homogeneous: Vec<Config>,
    options: CapacityOptions,
    sample_gen_s: f64,
}

fn setup(size: Size) -> Setup {
    let pool = PoolSpec::new(ec2::paper_pool());
    let latency = paper_calibration();
    let (duration_s, refine_steps) = ramp_shape(size);
    let mut options = CapacityOptions::with_seed(PROBE_SEED);
    options.duration_s = duration_s;
    options.refine_steps = refine_steps;
    options.batch_sizes = BatchSizeDistribution::production_default();
    let mut sample_gen_s = 0.0;
    let models = MODELS
        .iter()
        .map(|&kind| {
            let (sample, secs) = timed(|| {
                let mut rng = StdRng::seed_from_u64(SAMPLE_SEED);
                options.batch_sizes.sample_many(&mut rng, SAMPLE)
            });
            sample_gen_s += secs;
            ModelSetup {
                kind,
                service: ServiceSpec::new(kind, latency.clone()),
                planner: KairosPlanner::new(pool.clone(), kind, latency.clone()),
                sample,
            }
        })
        .collect();
    let homogeneous = BUDGETS
        .iter()
        .map(|&b| best_homogeneous(&pool, b))
        .collect();
    Setup {
        pool,
        latency,
        models,
        homogeneous,
        options,
        sample_gen_s,
    }
}

/// One (model, budget) case of the search.
struct Case {
    model: usize,
    budget: usize,
    plan: Plan,
    kairos: CapacityResult,
    homo: CapacityResult,
}

impl Case {
    /// Kairos's allowable QPS over the best homogeneous configuration's,
    /// scaled up for the budget the homogeneous one leaves unused.
    fn ratio(&self, s: &Setup) -> f64 {
        let homo_cost = s.homogeneous[self.budget].cost(&s.pool);
        let scaled = self.homo.allowable_qps * BUDGETS[self.budget] / homo_cost;
        self.kairos.allowable_qps / scaled
    }
}

/// Time spent in each part of the serial search.
#[derive(Default)]
struct SearchTimes {
    plan_ms: Vec<f64>,
    ramp_s: Vec<f64>,
}

/// The serial search: plan, then both ramps, case by case.  `kairos` and
/// `fcfs` build each probe's scheduler.
fn search(
    s: &Setup,
    times: &mut SearchTimes,
    kairos: &dyn Fn(&ModelSetup) -> Box<dyn Scheduler>,
    fcfs: &dyn Fn() -> Box<dyn Scheduler>,
) -> Vec<Case> {
    let mut cases = Vec::with_capacity(MODELS.len() * BUDGETS.len());
    for (m, ms) in s.models.iter().enumerate() {
        for (b, &budget) in BUDGETS.iter().enumerate() {
            let (plan, plan_s) = timed(|| ms.planner.plan(budget, &ms.sample));
            times.plan_ms.push(plan_s * 1e3);
            let (kairos_result, kairos_s) = timed(|| {
                allowable_throughput(&s.pool, &plan.chosen, &ms.service, &s.options, || {
                    kairos(ms)
                })
            });
            let (homo_result, homo_s) = timed(|| {
                allowable_throughput(&s.pool, &s.homogeneous[b], &ms.service, &s.options, fcfs)
            });
            times.ramp_s.extend([kairos_s, homo_s]);
            cases.push(Case {
                model: m,
                budget: b,
                plan,
                kairos: kairos_result,
                homo: homo_result,
            });
        }
    }
    cases
}

fn kairos_for(s: &Setup) -> impl Fn(&ModelSetup) -> Box<dyn Scheduler> + '_ {
    move |ms| Box::new(KairosScheduler::with_priors(ms.kind, &s.latency))
}

/// The same ramps fanned out over `threads` workers: per model and
/// scheduler, both budgets' ramps run side by side.
fn parallel_search(
    s: &Setup,
    cases: &[Case],
    threads: usize,
) -> Vec<(CapacityResult, CapacityResult)> {
    let workers = workers(threads);
    let mut out = Vec::with_capacity(cases.len());
    for (m, ms) in s.models.iter().enumerate() {
        let planned: Vec<Config> = cases
            .iter()
            .filter(|c| c.model == m)
            .map(|c| c.plan.chosen.clone())
            .collect();
        let (kairos, homo) = workers.install(|| {
            let kairos =
                allowable_throughput_many(&s.pool, &planned, &ms.service, &s.options, || {
                    Box::new(KairosScheduler::with_priors(ms.kind, &s.latency))
                        as Box<dyn Scheduler>
                });
            let homo =
                allowable_throughput_many(&s.pool, &s.homogeneous, &ms.service, &s.options, || {
                    Box::new(FcfsScheduler::new()) as Box<dyn Scheduler>
                });
            (kairos, homo)
        });
        out.extend(kairos.into_iter().zip(homo));
    }
    out
}

/// Replays each Kairos plan to completion at the rate its ramp accepted,
/// with the ramp's own trace and seed.
fn confirm(s: &Setup, cases: &[Case]) -> Vec<SimReport> {
    cases
        .iter()
        .filter(|c| c.kairos.allowable_qps > 0.0)
        .map(|c| {
            let ms = &s.models[c.model];
            let trace = TraceSpec {
                arrival: s.options.arrival.with_rate(c.kairos.allowable_qps),
                batch_sizes: s.options.batch_sizes.clone(),
                duration_s: s.options.duration_s,
                seed: s.options.seed,
            }
            .generate();
            let ctx = SimContext::with_options(
                &s.pool,
                &ms.service,
                &trace,
                SimulationOptions {
                    seed: s.options.seed,
                },
            );
            ctx.run(
                &c.plan.chosen,
                &mut KairosScheduler::with_priors(ms.kind, &s.latency),
            )
        })
        .collect()
}

fn same(a: &CapacityResult, b: &CapacityResult) -> bool {
    a.allowable_qps.to_bits() == b.allowable_qps.to_bits() && a.probes == b.probes
}

/// Simulated outputs, digest and checks of a finished search.
fn finish(s: &Setup, cases: &[Case]) -> (SimOutputs, u64, Vec<Check>, Vec<SimReport>) {
    let confirmed = confirm(s, cases);
    let ratios: Vec<f64> = cases.iter().map(|c| c.ratio(s)).collect();
    let failed_ramps = cases
        .iter()
        .flat_map(|c| [&c.kairos, &c.homo])
        .filter(|r| r.allowable_qps <= 0.0)
        .count() as u64;
    let offered: usize = confirmed.iter().map(|r| r.offered).sum();
    let failed: usize = confirmed.iter().map(failed_queries).sum();
    let p99s: Vec<f64> = confirmed
        .iter()
        .map(|r| r.p99_latency_us() as f64 / 1000.0)
        .collect();
    let billed: Vec<f64> = confirmed
        .iter()
        .map(SimReport::billed_cost_per_hour)
        .collect();
    let sim = SimOutputs {
        qos_violation_frac: failed as f64 / offered.max(1) as f64,
        p99_ms: median(&p99s),
        billed_usd_per_hr: billed.iter().sum::<f64>() / billed.len().max(1) as f64,
        kairos_over_homo: if failed_ramps == 0 {
            geomean(&ratios)
        } else {
            0.0
        },
        ops: (cases.len() * 2) as u64,
        ops_failed: failed_ramps,
        ops_lost: failed_ramps,
    };

    let mut digest = Digest::default();
    for c in cases {
        for &n in c.plan.chosen.counts() {
            digest.word(n as u64);
        }
        for r in [&c.kairos, &c.homo] {
            digest.float(r.allowable_qps);
            digest.word(r.probes as u64);
        }
    }
    for r in &confirmed {
        digest.report(r);
    }
    let tolerance = s.options.violation_tolerance;
    let held = confirmed.iter().filter(|r| r.meets_qos(tolerance)).count();
    let checks = vec![Check::new(
        "accepted_rates_meet_qos_on_full_replay",
        held == confirmed.len(),
        format!("{held} of {} replays within {tolerance}", confirmed.len()),
    )];
    (sim, digest.value(), checks, confirmed)
}

/// One pass: the serial search (`run_s`), then the same ramps fanned out
/// over every core (`sharded_run_s`), checked equal ramp for ramp.
pub fn pass(size: Size, threads: usize) -> Pass {
    let (s, setup_s) = timed_n(SETUP_REPEATS, || setup(size));
    let mut times = SearchTimes::default();
    let kairos = kairos_for(&s);
    let fcfs = || Box::new(FcfsScheduler::new()) as Box<dyn Scheduler>;
    let (cases, run_s) = timed(|| serial(|| search(&s, &mut times, &kairos, &fcfs)));
    let (parallel, sharded_run_s) = timed(|| parallel_search(&s, &cases, threads));
    let matching = cases
        .iter()
        .zip(&parallel)
        .filter(|(c, (k, h))| same(&c.kairos, k) && same(&c.homo, h))
        .count();

    let (sim, digest, mut checks, _) = finish(&s, &cases);
    checks.push(Check::new(
        "parallel_ramps_equal_serial_ramps",
        matching == cases.len() && parallel.len() == cases.len(),
        format!("{matching} of {} cases", cases.len()),
    ));
    Pass {
        setup_s,
        run_s: vec![run_s],
        sharded_run_s: vec![sharded_run_s],
        sim,
        digest,
        checks,
        layers: Vec::new(),
    }
}

/// A traced pass: the serial search with every probe's scheduler wrapped —
/// KairosScheduler rounds feed `core.distribution.*`, FCFS rounds feed
/// `sim.engine.sched_*`.
pub fn traced_pass(size: Size) -> Pass {
    let (s, setup_s) = timed_n(SETUP_REPEATS, || setup(size));
    let kairos_log = Rc::new(RefCell::new(RoundLog::default()));
    let fcfs_log = Rc::new(RefCell::new(RoundLog::default()));
    let kairos = |ms: &ModelSetup| {
        Box::new(TimedScheduler::new(
            KairosScheduler::with_priors(ms.kind, &s.latency),
            kairos_log.clone(),
        )) as Box<dyn Scheduler>
    };
    let fcfs = || {
        Box::new(TimedScheduler::new(FcfsScheduler::new(), fcfs_log.clone())) as Box<dyn Scheduler>
    };
    let mut times = SearchTimes::default();
    let (cases, run_s) = timed(|| serial(|| search(&s, &mut times, &kairos, &fcfs)));

    let (sim, digest, checks, confirmed) = finish(&s, &cases);
    let metrics_s = time_metrics(&confirmed);
    let k = kairos_log.borrow();
    let f = fcfs_log.borrow();
    let probes: usize = cases.iter().map(|c| c.kairos.probes + c.homo.probes).sum();
    let layers = vec![
        ("workload.trace_gen_s", s.sample_gen_s),
        (
            "sim.engine.build_s",
            (k.bind_to_first_round_ns + f.bind_to_first_round_ns) as f64 / 1e9,
        ),
        ("sim.engine.sched_rounds", f.rounds as f64),
        ("sim.engine.sched_s", f.busy_ns as f64 / 1e9),
        ("sim.engine.sched_round_ns.p50", f.round_ns_pct(50.0)),
        ("sim.engine.sched_round_ns.p99", f.round_ns_pct(99.0)),
        ("sim.engine.dispatches", f.dispatches as f64),
        ("sim.stats.metrics_s", metrics_s),
        ("sim.capacity.probes", probes as f64),
        ("sim.capacity.ramp_s.p50", percentile(&times.ramp_s, 50.0)),
        ("sim.capacity.ramp_s.max", max(&times.ramp_s)),
        ("core.distribution.rounds", k.rounds as f64),
        ("core.distribution.busy_s", k.busy_ns as f64 / 1e9),
        ("core.distribution.round_us.p50", k.round_ns_pct(50.0) / 1e3),
        ("core.distribution.round_us.p99", k.round_ns_pct(99.0) / 1e3),
        ("core.distribution.queue_len.p50", k.queue_len_pct(50.0)),
        ("core.distribution.queue_len.p99", k.queue_len_pct(99.0)),
        ("core.planner.plan_ms.p50", median(&times.plan_ms)),
        ("core.planner.plan_ms.max", max(&times.plan_ms)),
        (
            "core.planner.ranked",
            cases.iter().map(|c| c.plan.ranked.len()).sum::<usize>() as f64,
        ),
    ];
    Pass {
        setup_s,
        run_s: vec![run_s],
        sharded_run_s: Vec::new(),
        sim,
        digest,
        checks,
        layers,
    }
}
