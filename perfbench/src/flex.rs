//! `flex_replay`, the second part of `data_plane`: an NCF small-query
//! stream on a fixed 6-instance g4dn cluster with FCFS, dynamic batching
//! and fair throughput sharing — the only part that runs the engine's flex
//! service path.

use crate::measure::{
    conservation, records_mb, same_report, time_metrics, timed, timed_n, workers, Digest, RoundLog,
    TimedScheduler,
};
use crate::pass::{derive_seed, engine_options, Check, Pass, SimOutputs, Size};
use crate::planned_over_homo;
use kairos_models::{
    calibration::paper_calibration, ec2, Config, ModelKind, PoolSpec, ThroughputDegradation,
};
use kairos_sim::{
    BatchingOptions, ClusterSpec, FcfsScheduler, Scheduler, ServiceSpec, ShardedEngine,
    SharingMode, SharingOptions, SimEngine, SimReport, SimulationOptions,
};
use kairos_workload::{BatchSizeDistribution, PhasedArrival, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

const INSTANCES: usize = 6;
const RATE_QPS: f64 = 20_000.0;
/// Rate of the surge phase, above what the cluster can serve.
const SURGE_QPS: f64 = 150_000.0;
const SURGE_S: f64 = 0.1;
const TIMEOUT_US: u64 = 500;
const SHARING_ALPHA: f64 = 0.2;
const MAX_CONCURRENCY: u32 = 4;
/// Set-ups timed per pass, as many as the fleet part of `data_plane`
/// times.
pub const SETUP_REPEATS: usize = 2;

/// Seconds at the base rate before and after the surge.
fn steady_s(size: Size) -> f64 {
    match size {
        Size::Full => 10.0,
        Size::Smoke => 0.5,
    }
}

/// The offered mix: log-normal batch sizes with median 8.
fn mix() -> BatchSizeDistribution {
    BatchSizeDistribution::LogNormal {
        median: 8.0,
        sigma: 0.8,
    }
}

struct Setup {
    pool: PoolSpec,
    service: ServiceSpec,
    config: Config,
    trace: Trace,
    batching: BatchingOptions,
    sharing: SharingOptions,
    trace_gen_s: f64,
}

fn setup(size: Size, seed: u64) -> Setup {
    let pool = PoolSpec::new(ec2::paper_pool());
    let service = ServiceSpec::new(ModelKind::Ncf, paper_calibration());
    let mut counts = vec![0usize; pool.num_types()];
    counts[pool.base_index()] = INSTANCES;
    // Fire a forming batch once it has fused the mix's p99 batch size.
    let fuse_cap = mix().quantile(
        0.99,
        &mut StdRng::seed_from_u64(derive_seed(seed, 3)),
        20_000,
    );
    let curve = ThroughputDegradation::try_new_linear(SHARING_ALPHA)
        .expect("a linear degradation of 0.2 is valid");
    let (trace, trace_gen_s) = timed(|| {
        PhasedArrival::burst(
            RATE_QPS,
            SURGE_QPS,
            mix(),
            steady_s(size),
            SURGE_S,
            steady_s(size),
            derive_seed(seed, 1),
        )
        .generate()
    });
    Setup {
        pool,
        service,
        config: Config::new(counts),
        trace,
        batching: BatchingOptions::new(fuse_cap, TIMEOUT_US),
        sharing: SharingOptions::uniform(curve).with_max_concurrency(MAX_CONCURRENCY),
        trace_gen_s,
    }
}

fn replay<'a>(
    s: &'a Setup,
    scheduler: &'a mut dyn Scheduler,
    opts: &SimulationOptions,
) -> SimEngine<'a> {
    SimEngine::new(&s.pool, &s.config, &s.service, &s.trace, scheduler, opts)
        .with_batching(s.batching)
        .with_sharing(SharingMode::Fair(s.sharing.clone()))
}

fn outputs(s: &Setup, report: &SimReport) -> (SimOutputs, u64) {
    let sample = mix().sample_many(&mut StdRng::seed_from_u64(7), 256);
    let gain = planned_over_homo(
        &s.pool,
        ModelKind::Ncf,
        &paper_calibration(),
        &sample,
        &s.config,
    );
    let sim = SimOutputs::of_replay(report, gain);
    let mut digest = Digest::default();
    digest.report(report);
    let st = &report.service;
    for w in [
        st.batches_fired,
        st.batched_queries,
        st.batch_fill_sum,
        st.batch_wait_us_sum,
    ] {
        digest.word(w);
    }
    (sim, digest.value())
}

fn checks(report: &SimReport) -> Vec<Check> {
    let st = &report.service;
    vec![
        conservation("completed_plus_unfinished_equals_offered", report),
        Check::new(
            "batched_queries_equals_batch_fill_sum",
            st.batched_queries == st.batch_fill_sum,
            format!("{} vs {}", st.batched_queries, st.batch_fill_sum),
        ),
    ]
}

/// One pass: the combined engine (`run_s`), then the same replay through
/// `ShardedEngine` with batching and sharing (`sharded_run_s`; one lane,
/// so this measures the sharded path's overhead), checked bit for bit
/// against the combined one.
pub fn pass(size: Size, seed: u64, threads: usize) -> Pass {
    let (s, setup_s) = timed_n(SETUP_REPEATS, || setup(size, seed));
    let opts = engine_options(seed);
    let (combined, run_s) = timed(|| replay(&s, &mut FcfsScheduler::new(), &opts).run());
    let mut all_checks = checks(&combined);

    let spec = ClusterSpec::single(s.config.clone());
    let workers = workers(threads);
    let sharded_engine = ShardedEngine::new(&s.pool, &spec, &[&s.service], &opts)
        .with_batching(s.batching)
        .with_sharing(SharingMode::Fair(s.sharing.clone()));
    let (sharded, sharded_run_s) = timed(|| {
        workers.install(|| {
            sharded_engine.run(&s.trace, |_| {
                Box::new(FcfsScheduler::new()) as Box<dyn Scheduler>
            })
        })
    });
    all_checks.push(Check::new(
        "sharded_bit_identical_to_combined",
        same_report(&combined, &sharded),
        format!(
            "records {}/{}, events {}/{}",
            combined.records.len(),
            sharded.records.len(),
            combined.events_processed,
            sharded.events_processed
        ),
    ));

    let (sim, digest) = outputs(&s, &combined);
    Pass {
        setup_s,
        run_s: vec![run_s],
        sharded_run_s: vec![sharded_run_s],
        sim,
        digest,
        checks: all_checks,
        layers: Vec::new(),
    }
}

/// A traced pass: the combined engine with a timed FCFS wrapper, build and
/// run timed apart, plus the report's metric calls.
pub fn traced_pass(size: Size, seed: u64) -> Pass {
    let (s, setup_s) = timed_n(SETUP_REPEATS, || setup(size, seed));
    let opts = engine_options(seed);
    let log = Rc::new(RefCell::new(RoundLog::default()));
    let mut scheduler = TimedScheduler::new(FcfsScheduler::new(), log.clone());
    let (engine, build_s) = timed(|| replay(&s, &mut scheduler, &opts));
    let (report, engine_run_s) = timed(|| engine.run());
    let metrics_s = time_metrics([&report]);

    let log = log.borrow();
    let sched_s = log.busy_ns as f64 / 1e9;
    let st = &report.service;
    let layers = vec![
        ("workload.trace_gen_s", s.trace_gen_s),
        ("sim.engine.build_s", build_s),
        ("sim.engine.events", report.events_processed as f64),
        (
            "sim.engine.ns_per_event",
            engine_run_s * 1e9 / report.events_processed.max(1) as f64,
        ),
        ("sim.engine.sched_rounds", log.rounds as f64),
        ("sim.engine.sched_s", sched_s),
        ("sim.engine.sched_round_ns.p50", log.round_ns_pct(50.0)),
        ("sim.engine.sched_round_ns.p99", log.round_ns_pct(99.0)),
        ("sim.engine.dispatches", log.dispatches as f64),
        ("sim.engine.self_s", engine_run_s - sched_s),
        ("sim.flex.batches_fired", st.batches_fired as f64),
        ("sim.flex.mean_fill", st.mean_batch_fill()),
        ("sim.flex.mean_wait_us", st.mean_batch_wait_us()),
        ("sim.stats.metrics_s", metrics_s),
        ("sim.stats.records_mb", records_mb(&report)),
    ];
    let (sim, digest) = outputs(&s, &report);
    Pass {
        setup_s,
        run_s: vec![build_s + engine_run_s],
        sharded_run_s: Vec::new(),
        sim,
        digest,
        checks: checks(&report),
        layers,
    }
}
