//! `fleet_replay`, the first part of `data_plane`: the fig_scale
//! five-model mix on a ~1,450-instance base-type fleet, replayed through the combined engine and then through
//! `ShardedEngine`, with a bit-identity check between the two.

use crate::measure::{
    conservation, percentile, records_mb, same_report, time_metrics, timed, timed_n, workers,
    Digest, RoundLog, TimedScheduler,
};
use crate::pass::{derive_seed, engine_options, Check, Pass, SimOutputs, Size};
use crate::planned_over_homo;
use kairos_models::{calibration::paper_calibration, ec2, Config, ModelKind, PoolSpec};
use kairos_sim::{
    ClusterSpec, FcfsScheduler, Scheduler, ServiceSpec, ShardedEngine, SimEngine, SimReport,
};
use kairos_workload::{BatchSizeDistribution, MixSpec, MixedTraceSpec, Trace};
use std::cell::RefCell;
use std::rc::Rc;

const KINDS: [ModelKind; 5] = [
    ModelKind::Ncf,
    ModelKind::Wnd,
    ModelKind::MtWnd,
    ModelKind::Dien,
    ModelKind::Rm2,
];
const SHARES: [f64; 5] = [0.55, 0.20, 0.13, 0.10, 0.02];
const BATCH: u32 = 8;
const HEADROOM: f64 = 1.35;
/// Set-ups timed per pass (trace generation takes under 0.1 s).
const SETUP_REPEATS: usize = crate::flex::SETUP_REPEATS;

/// Offered rate and trace length.
fn shape(size: Size) -> (f64, f64) {
    match size {
        Size::Full => (300_000.0, 1.0),
        Size::Smoke => (20_000.0, 0.5),
    }
}

struct Setup {
    pool: PoolSpec,
    services: Vec<ServiceSpec>,
    configs: Vec<Config>,
    spec: ClusterSpec,
    trace: Trace,
    trace_gen_s: f64,
}

fn setup(size: Size, seed: u64) -> Setup {
    let (qps, duration_s) = shape(size);
    let pool = PoolSpec::new(ec2::paper_pool());
    let latency = paper_calibration();
    let base = pool.base_index();
    let base_name = pool.types()[base].name.clone();
    let services: Vec<ServiceSpec> = KINDS
        .iter()
        .map(|&k| ServiceSpec::new(k, latency.clone()))
        .collect();
    // Each lane gets enough base-type instances for its share at HEADROOM.
    let configs: Vec<Config> = KINDS
        .iter()
        .zip(SHARES)
        .map(|(&kind, share)| {
            let per_query_s = latency.expect(kind, &base_name).latency_ms(BATCH) / 1000.0;
            let mut counts = vec![0usize; pool.num_types()];
            counts[base] = ((share * qps * per_query_s * HEADROOM).ceil() as usize).max(1);
            Config::new(counts)
        })
        .collect();
    let spec = ClusterSpec::from_configs(configs.clone());
    let mix = MixSpec::from_shares(
        &SHARES,
        &vec![BatchSizeDistribution::Fixed(BATCH); SHARES.len()],
    );
    let (trace, trace_gen_s) =
        timed(|| MixedTraceSpec::poisson(qps, mix, duration_s, derive_seed(seed, 1)).generate());
    Setup {
        pool,
        services,
        configs,
        spec,
        trace,
        trace_gen_s,
    }
}

/// Simulated outputs of the combined report, plus the report's digest.
fn outputs(s: &Setup, report: &SimReport) -> (SimOutputs, u64) {
    let latency = paper_calibration();
    let sample = vec![BATCH; 64];
    let ratios: Vec<f64> = KINDS
        .iter()
        .zip(&s.configs)
        .map(|(&kind, config)| planned_over_homo(&s.pool, kind, &latency, &sample, config))
        .collect();
    let sim = SimOutputs::of_replay(report, crate::geomean(&ratios));
    let mut digest = Digest::default();
    digest.report(report);
    (sim, digest.value())
}

/// One pass: the combined engine (timed as `run_s`), then the sharded
/// engine on every core (timed as `sharded_run_s`), checked bit for bit
/// against the combined report.
pub fn pass(size: Size, seed: u64, threads: usize) -> Pass {
    let (s, setup_s) = timed_n(SETUP_REPEATS, || setup(size, seed));
    let svc_refs: Vec<&ServiceSpec> = s.services.iter().collect();
    let opts = engine_options(seed);

    let (combined, run_s) = timed(|| {
        let mut scheduler = FcfsScheduler::new();
        SimEngine::new_multi(&s.pool, &s.spec, &svc_refs, &s.trace, &mut scheduler, &opts).run()
    });

    let workers = workers(threads);
    let sharded_engine = ShardedEngine::new(&s.pool, &s.spec, &svc_refs, &opts);
    let (sharded, sharded_run_s) = timed(|| {
        workers.install(|| {
            sharded_engine.run(&s.trace, |_| {
                Box::new(FcfsScheduler::new()) as Box<dyn Scheduler>
            })
        })
    });
    let checks = vec![
        conservation("completed_plus_unfinished_equals_offered", &combined),
        Check::new(
            "sharded_bit_identical_to_combined",
            same_report(&combined, &sharded),
            format!(
                "records {}/{}, events {}/{}, billed bits {:#x}/{:#x}",
                combined.records.len(),
                sharded.records.len(),
                combined.events_processed,
                sharded.events_processed,
                combined.billed_dollars.to_bits(),
                sharded.billed_dollars.to_bits()
            ),
        ),
    ];
    let (sim, digest) = outputs(&s, &combined);
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

/// A traced pass: the combined engine with a timed FCFS wrapper (build and
/// run timed apart), then the sharded path's parts called one by one —
/// the lane split, each lane replayed alone, and the report merge.
pub fn traced_pass(size: Size, seed: u64) -> Pass {
    let (s, setup_s) = timed_n(SETUP_REPEATS, || setup(size, seed));
    let svc_refs: Vec<&ServiceSpec> = s.services.iter().collect();
    let opts = engine_options(seed);

    let log = Rc::new(RefCell::new(RoundLog::default()));
    let mut scheduler = TimedScheduler::new(FcfsScheduler::new(), log.clone());
    let (engine, build_s) = timed(|| {
        SimEngine::new_multi(&s.pool, &s.spec, &svc_refs, &s.trace, &mut scheduler, &opts)
    });
    let (combined, engine_run_s) = timed(|| engine.run());

    let metrics_s = time_metrics([&combined]);

    let (subs, split_s) = timed(|| s.trace.split_by_model(s.services.len()));
    let mut lane_times = Vec::with_capacity(s.spec.pools.len());
    let mut lane_reports = Vec::with_capacity(s.spec.pools.len());
    for slice in &s.spec.pools {
        let lane_spec = ClusterSpec::new(vec![slice.clone()]);
        let sub = &subs[slice.model.index()];
        let (report, lane_s) = timed(|| {
            let mut fcfs = FcfsScheduler::new();
            SimEngine::new_multi(&s.pool, &lane_spec, &svc_refs, sub, &mut fcfs, &opts).run()
        });
        lane_times.push(lane_s);
        lane_reports.push(report);
    }
    let lane_offered: usize = lane_reports.iter().map(|r| r.offered).sum();
    let (merged, merge_s) = timed(|| SimReport::merge_many(lane_reports));
    let merged = merged.expect("five lanes merge into one report");

    let log = log.borrow();
    let sched_s = log.busy_ns as f64 / 1e9;
    let (sim, digest) = outputs(&s, &combined);
    let layers = vec![
        ("workload.trace_gen_s", s.trace_gen_s),
        ("sim.engine.build_s", build_s),
        ("sim.engine.events", combined.events_processed as f64),
        (
            "sim.engine.ns_per_event",
            engine_run_s * 1e9 / combined.events_processed.max(1) as f64,
        ),
        ("sim.engine.sched_rounds", log.rounds as f64),
        ("sim.engine.sched_s", sched_s),
        ("sim.engine.sched_round_ns.p50", log.round_ns_pct(50.0)),
        ("sim.engine.sched_round_ns.p99", log.round_ns_pct(99.0)),
        ("sim.engine.dispatches", log.dispatches as f64),
        ("sim.engine.self_s", engine_run_s - sched_s),
        ("sim.sharded.split_s", split_s),
        ("sim.sharded.lane_sum_s", lane_times.iter().sum()),
        ("sim.sharded.lane_max_s", percentile(&lane_times, 100.0)),
        ("sim.sharded.merge_s", merge_s),
        ("sim.stats.metrics_s", metrics_s),
        ("sim.stats.records_mb", records_mb(&combined)),
    ];
    Pass {
        setup_s,
        run_s: vec![build_s + engine_run_s],
        sharded_run_s: Vec::new(),
        sim,
        digest,
        checks: vec![
            conservation("completed_plus_unfinished_equals_offered", &combined),
            Check::new(
                "lanes_offer_the_whole_trace",
                lane_offered == combined.offered && merged.offered == combined.offered,
                format!("{lane_offered} vs {}", combined.offered),
            ),
        ],
        layers,
    }
}
