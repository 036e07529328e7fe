//! `online_serving`, the first part of `control_plane`:
//! `InferenceService::run` serving NCF/RM2/WND under one 8 $/hr budget
//! through a stepped multi-model load, replanning every 0.5 s — where the
//! control plane and Kairos matching work.

use crate::measure::{conservation, records_mb, serial, time_metrics, timed, timed_n, Digest};
use crate::pass::{derive_seed, Pass, SimOutputs, Size};
use crate::{geomean, planned_over_homo};
use kairos_core::{InferenceService, MultiServingOutcome, ServingOptions};
use kairos_models::{calibration::paper_calibration, ec2, ModelKind, PoolSpec};
use kairos_sim::{ClusterSpec, ServiceSpec};
use kairos_workload::{BatchSizeDistribution, MixSpec, ModelId, Phase, PhasedArrival, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MODELS: [ModelKind; 3] = [ModelKind::Ncf, ModelKind::Rm2, ModelKind::Wnd];
const SHARES: [f64; 3] = [0.45, 0.20, 0.35];
const PHASE_QPS: [f64; 6] = [100.0, 250.0, 400.0, 250.0, 150.0, 400.0];
const BUDGET: f64 = 8.0;
const WARM_QUERIES: usize = 3_000;
/// Set-ups timed per pass, as many as the search part of `control_plane`
/// times.
pub const SETUP_REPEATS: usize = 5;

fn phase_s(size: Size) -> f64 {
    match size {
        Size::Full => 10.0,
        Size::Smoke => 2.0,
    }
}

fn mix() -> MixSpec {
    MixSpec::from_shares(
        &SHARES,
        &[
            BatchSizeDistribution::production_default(),
            BatchSizeDistribution::production_default(),
            BatchSizeDistribution::production_default(),
        ],
    )
}

/// Demand the initial plan is made for: the first phase's rate, split by
/// share.
fn initial_demands() -> Vec<f64> {
    SHARES.iter().map(|s| s * PHASE_QPS[0]).collect()
}

struct Setup {
    pool: PoolSpec,
    service: InferenceService,
    specs: Vec<ServiceSpec>,
    initial: ClusterSpec,
    trace: Trace,
    trace_gen_s: f64,
    control_setup_s: f64,
}

fn setup(size: Size, seed: u64) -> Setup {
    let pool = PoolSpec::new(ec2::paper_pool());
    let latency = paper_calibration();
    let (trace, trace_gen_s) = timed(|| {
        let phases = PHASE_QPS
            .iter()
            .map(|&qps| Phase::poisson_mix(qps, mix(), phase_s(size)))
            .collect();
        PhasedArrival::new(phases, derive_seed(seed, 1)).generate()
    });
    let mut service = InferenceService::new(
        pool.clone(),
        &MODELS,
        Some(latency.clone()),
        ServingOptions::default()
            .budget(BUDGET)
            .replan_every(500_000)
            .provisioning_delay(300_000)
            .with_seed(derive_seed(seed, 2)),
    );
    let (initial, control_setup_s) = timed(|| {
        serial(|| {
            service.warm_monitors(&mix(), WARM_QUERIES, derive_seed(seed, 3));
            service
                .plan_initial(&initial_demands())
                .expect("calibration priors allow planning")
        })
    });
    let specs = service.service_specs(&latency);
    Setup {
        pool,
        service,
        specs,
        initial,
        trace,
        trace_gen_s,
        control_setup_s,
    }
}

/// Estimated gain of the initial per-model Kairos deployment over the best
/// homogeneous deployment of the same cost, geometric mean over models.
fn planned_gain(s: &Setup, seed: u64) -> f64 {
    let latency = paper_calibration();
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 4));
    let sample = BatchSizeDistribution::production_default().sample_many(&mut rng, 1_000);
    let ratios: Vec<f64> = s
        .initial
        .pools
        .iter()
        .map(|slice| {
            let kind = MODELS[slice.model.index()];
            planned_over_homo(&s.pool, kind, &latency, &sample, &slice.config)
        })
        .collect();
    geomean(&ratios)
}

fn outputs(outcome: &MultiServingOutcome, gain: f64) -> (SimOutputs, u64) {
    let report = &outcome.report;
    let sim = SimOutputs::of_replay(report, gain);
    let mut digest = Digest::default();
    digest.report(report);
    digest.word(outcome.replans as u64);
    for r in &outcome.reconfigs {
        digest.word(r.at_us);
        digest.word(r.model.index() as u64);
        for &c in r.target.counts() {
            digest.word(c as u64);
        }
    }
    for &b in &outcome.last_budget_split {
        digest.float(b);
    }
    digest.float(gain);
    (sim, digest.value())
}

/// One pass: the serving loop (`run_s`).  It has no sharded section.
pub fn pass(size: Size, seed: u64) -> Pass {
    let (mut s, setup_s) = timed_n(SETUP_REPEATS, || setup(size, seed));
    let gain = planned_gain(&s, seed);
    let (outcome, run_s) = timed(|| serial(|| s.service.run(&s.initial, &s.specs, &s.trace)));
    let checks = vec![conservation(
        "completed_plus_unfinished_equals_offered",
        &outcome.report,
    )];
    let (sim, digest) = outputs(&outcome, gain);
    Pass {
        setup_s,
        run_s: vec![run_s],
        sharded_run_s: Vec::new(),
        sim,
        digest,
        checks,
        layers: Vec::new(),
    }
}

/// A traced pass: set-up parts timed apart, then the serving loop.  The
/// loop owns its scheduler, so Kairos rounds are not timed here, and the
/// planner's figures come from the `capacity_search` part, which calls
/// `KairosPlanner::plan` itself.
pub fn traced_pass(size: Size, seed: u64) -> Pass {
    let (mut s, setup_s) = timed_n(SETUP_REPEATS, || setup(size, seed));
    let gain = planned_gain(&s, seed);

    let (outcome, run_s) = timed(|| serial(|| s.service.run(&s.initial, &s.specs, &s.trace)));
    let report = &outcome.report;
    let metrics_s = time_metrics([report]);
    let (hits, misses) = (0..MODELS.len()).fold((0u64, 0u64), |(h, m), i| {
        let cache = s.service.lane(ModelId::new(i)).plan_cache();
        (h + cache.hits(), m + cache.misses())
    });

    let layers = vec![
        ("workload.trace_gen_s", s.trace_gen_s),
        ("sim.engine.events", report.events_processed as f64),
        ("sim.stats.metrics_s", metrics_s),
        ("sim.stats.records_mb", records_mb(report)),
        ("core.service.setup_ms", s.control_setup_s * 1e3),
        ("core.service.replans", outcome.replans as f64),
        ("core.service.reconfigs", outcome.reconfigs.len() as f64),
        ("core.service.plan_cache_hits", hits as f64),
        ("core.service.plan_cache_misses", misses as f64),
    ];
    let (sim, digest) = outputs(&outcome, gain);
    Pass {
        setup_s,
        run_s: vec![run_s],
        sharded_run_s: Vec::new(),
        sim,
        digest,
        checks: vec![conservation(
            "completed_plus_unfinished_equals_offered",
            &outcome.report,
        )],
        layers,
    }
}
