//! Criterion benchmarks for the discrete-event serving simulator: how fast a
//! trace replay runs under the different scheduling policies.  This bounds the
//! cost of every allowable-throughput probe used by the figure harness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kairos_baselines::ClockworkScheduler;
use kairos_bench::{scheduler_factory, SchedulerKind};
use kairos_models::{
    calibration::paper_calibration, ec2, Config, FailureDomain, FaultEvent, FaultProcess,
    ModelKind, PoolSpec,
};
use kairos_sim::{
    allowable_throughput, run_trace, run_trace_naive, BatchingOptions, CapacityOptions,
    CapacityProber, ClusterSpec, FcfsScheduler, Scheduler, ServiceSpec, ShardedEngine, SharingMode,
    SharingOptions, SimulationOptions,
};
use kairos_workload::{
    BatchSizeDistribution, MixSpec, MixedTraceSpec, Phase, PhasedArrival, TraceSpec,
};
use std::hint::black_box;

fn bench_trace_replay(c: &mut Criterion) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let latency = paper_calibration();
    let model = ModelKind::Wnd;
    let service = ServiceSpec::new(model, latency.clone());
    let config = Config::new(vec![2, 0, 4, 0]);
    let trace = TraceSpec::production(300.0, 1.0, 5).generate();

    let mut group = c.benchmark_group("trace_replay_300qps_1s");
    group.sample_size(10);
    for kind in [
        SchedulerKind::Kairos,
        SchedulerKind::Ribbon,
        SchedulerKind::Drs(280),
        SchedulerKind::Clockwork,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut scheduler = scheduler_factory(kind, model, &latency);
                    black_box(run_trace(
                        &pool,
                        &config,
                        &service,
                        &trace,
                        scheduler.as_mut(),
                        &SimulationOptions::default(),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// Kairos matching rounds at queue depth: an NCF stream of small log-normal
/// batches (median 8, sigma 0.8) at 6 kQPS for 1.5 s, about 9k queries, on
/// two g4dn instances without batching.  The pool serves a fraction of that
/// rate, so the central queue grows through the whole replay and every
/// round matches thousands of queued queries against two instances: the
/// round cost is linear in queue depth, and this bench gates its constant.
fn bench_kairos_deep_queue(c: &mut Criterion) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let latency = paper_calibration();
    let model = ModelKind::Ncf;
    let service = ServiceSpec::new(model, latency.clone());
    let mut counts = vec![0usize; pool.num_types()];
    counts[pool.base_index()] = 2;
    let config = Config::new(counts);
    let mix = BatchSizeDistribution::LogNormal {
        median: 8.0,
        sigma: 0.8,
    };
    let trace = PhasedArrival::new(vec![Phase::poisson(6_000.0, mix, 1.5)], 5).generate();

    let mut group = c.benchmark_group("kairos_deep_queue");
    group.sample_size(10);
    group.bench_function("ncf_6kqps_2xg4dn", |b| {
        b.iter(|| {
            let mut scheduler = scheduler_factory(SchedulerKind::Kairos, model, &latency);
            black_box(run_trace(
                &pool,
                &config,
                &service,
                &trace,
                scheduler.as_mut(),
                &SimulationOptions::default(),
            ))
        })
    });
    group.finish();
}

/// Incremental `SimEngine` vs the preserved per-event-rebuild reference on a
/// 50k-query production trace — the regression gate for the engine refactor:
/// the incremental views must deliver at least a 2x speedup at identical
/// output.
///
/// Clockwork is the showcase scheduler because it queues queries at busy
/// instances, so the naive path recomputes `nominal_latency_ms` over every
/// local queue entry on every event (O(events × instances × queue-depth));
/// the incremental engine keeps per-instance `free_at_us` as a running value.
/// The trace rate (2.5 kQPS on a ~2.2 kQPS configuration) mildly overloads
/// the pool so local queues actually carry depth, as they do during every
/// allowable-throughput probe at the QoS boundary.  An FCFS pair (idle-only
/// dispatch, so queue depth stays 0) isolates the remaining constant-factor
/// win of the persistent views and the gap-closing central-queue sweep.
fn bench_engine_vs_naive_50k(c: &mut Criterion) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let latency = paper_calibration();
    let model = ModelKind::Wnd;
    let service = ServiceSpec::new(model, latency.clone());
    let config = Config::new(vec![8, 4, 8, 4]);
    let trace = TraceSpec::production(2_500.0, 20.0, 17).generate();
    assert!(
        trace.len() >= 50_000,
        "want a 50k-query trace, got {}",
        trace.len()
    );
    let opts = SimulationOptions::default();

    let mut group = c.benchmark_group("trace_replay_50k");
    group.sample_size(10);
    group.bench_function("clockwork_sim_engine", |b| {
        b.iter(|| {
            let mut scheduler = ClockworkScheduler::new(model, latency.clone());
            black_box(run_trace(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &opts,
            ))
        })
    });
    group.bench_function("clockwork_run_trace_naive", |b| {
        b.iter(|| {
            let mut scheduler = ClockworkScheduler::new(model, latency.clone());
            black_box(run_trace_naive(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &opts,
            ))
        })
    });
    group.bench_function("fcfs_sim_engine", |b| {
        b.iter(|| {
            let mut scheduler = FcfsScheduler::new();
            black_box(run_trace(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &opts,
            ))
        })
    });
    group.bench_function("fcfs_run_trace_naive", |b| {
        b.iter(|| {
            let mut scheduler = FcfsScheduler::new();
            black_box(run_trace_naive(
                &pool,
                &config,
                &service,
                &trace,
                &mut scheduler,
                &opts,
            ))
        })
    });
    // The market-attached replay: same 50k-query trace with a constant
    // market bound to the engine, so per-instance billing integrals and the
    // market event plumbing are on the measured path.  Its budget entry in
    // BENCH_budget.json gates the preemption-era engine against silently
    // regressing the allocation-free hot loop.
    let market = kairos_models::ConstantMarket::from_pool(&pool);
    group.bench_function("fcfs_sim_engine_market", |b| {
        b.iter(|| {
            let mut scheduler = FcfsScheduler::new();
            black_box(
                kairos_sim::SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                    .with_market(&market)
                    .run(),
            )
        })
    });
    // The throughput-sharing hot path: same 50k-query replay with fair
    // sharing enabled (Linear contention, four admission slots per
    // instance), so the processed-volume advance, the O(affected-instance)
    // frontmost-completion recompute and the generation-stamped lazy
    // deletion are all on the measured path.  Budget-gated in
    // BENCH_budget.json.
    group.bench_function("fcfs_sharing", |b| {
        let sharing = SharingMode::Fair(
            SharingOptions::uniform(
                kairos_models::ThroughputDegradation::try_new_linear(0.2).unwrap(),
            )
            .with_max_concurrency(4),
        );
        b.iter(|| {
            let mut scheduler = FcfsScheduler::new();
            black_box(
                kairos_sim::SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                    .with_sharing(sharing.clone())
                    .run(),
            )
        })
    });
    // The fault-calendar hot path: same 50k-query replay with a zone outage
    // (notice -> drain -> kill -> purchase rejection), a capacity shortage
    // and a straggler onset materialized mid-trace, so the TimedKind
    // calendar, the preemption lifecycle and per-domain bookkeeping are all
    // on the measured path.  Budget-gated in BENCH_budget.json.
    let zone_a = FailureDomain::zone("us-east-1", "us-east-1a");
    let zone_b = FailureDomain::zone("us-east-1", "us-east-1b");
    let placements = vec![
        zone_a.clone(),
        zone_a.clone(),
        zone_b.clone(),
        zone_b.clone(),
    ];
    let process = FaultProcess::new(vec![
        FaultEvent::Straggler {
            at_us: 5_000_000,
            offering: 0,
            slowdown: 0.5,
        },
        FaultEvent::ZoneOutage {
            domain: zone_a,
            start_us: 8_000_000,
            duration_us: 4_000_000,
        },
        FaultEvent::CapacityShortage {
            domain: zone_b,
            start_us: 14_000_000,
            end_us: 16_000_000,
        },
    ]);
    group.bench_function("fcfs_fault_injection", |b| {
        b.iter(|| {
            let mut scheduler = FcfsScheduler::new();
            black_box(
                kairos_sim::SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                    .with_faults(&process, &placements)
                    .run(),
            )
        })
    });
    // The dynamic-batcher hot path: queue-and-fire on an 8-query-scale fuse
    // cap or a 2 ms timeout, serial service per instance.  Exercises batch
    // formation, timeout scheduling/cancellation and fused completions.
    group.bench_function("fcfs_batched", |b| {
        let batching = BatchingOptions::new(8 * 128, 2_000);
        b.iter(|| {
            let mut scheduler = FcfsScheduler::new();
            black_box(
                kairos_sim::SimEngine::new(&pool, &config, &service, &trace, &mut scheduler, &opts)
                    .with_batching(batching)
                    .run(),
            )
        })
    });
    group.finish();
}

/// Sharded vs combined multi-model replay on a three-model 2.4 kQPS trace:
/// the regression gate for the sharded engine's per-lane fan-out.  The
/// sharded pass must stay within budget (and the per-run report carries
/// `events_processed` / `events_per_sec` as first-class metrics, asserted
/// non-zero here so the counter itself is gated too).
fn bench_sharded_replay(c: &mut Criterion) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let latency = paper_calibration();
    let services: Vec<ServiceSpec> = [ModelKind::Ncf, ModelKind::Wnd, ModelKind::MtWnd]
        .iter()
        .map(|&k| ServiceSpec::new(k, latency.clone()))
        .collect();
    let svc_refs: Vec<&ServiceSpec> = services.iter().collect();
    let spec = ClusterSpec::from_configs(vec![
        Config::new(vec![4, 0, 2, 0]),
        Config::new(vec![6, 0, 4, 0]),
        Config::new(vec![6, 0, 4, 0]),
    ]);
    let mix = MixSpec::from_shares(
        &[0.5, 0.3, 0.2],
        &[
            BatchSizeDistribution::Fixed(8),
            BatchSizeDistribution::Fixed(8),
            BatchSizeDistribution::Fixed(8),
        ],
    );
    let trace = MixedTraceSpec::poisson(2_400.0, mix, 20.0, 17).generate();
    let opts = SimulationOptions::default();

    let mut group = c.benchmark_group("sharded_replay_multimodel");
    group.sample_size(10);
    group.bench_function("fcfs_single_engine", |b| {
        b.iter(|| {
            let mut scheduler = FcfsScheduler::new();
            black_box(
                kairos_sim::SimEngine::new_multi(
                    &pool,
                    &spec,
                    &svc_refs,
                    &trace,
                    &mut scheduler,
                    &opts,
                )
                .run(),
            )
        })
    });
    group.bench_function("fcfs_sharded_engine", |b| {
        let sharded = ShardedEngine::new(&pool, &spec, &svc_refs, &opts);
        b.iter(|| {
            let report = sharded.run(&trace, |_| Box::new(FcfsScheduler::new()));
            assert!(report.events_processed > 0);
            assert!(report.events_per_sec(1.0) > 0.0);
            black_box(report)
        })
    });
    group.finish();
}

/// Engine cost against cluster size: the fig_scale five-model mix (NCF 55 %,
/// WND 20 %, MT-WND 13 %, DIEN 10 %, RM2 2 %, batch 8) at a fixed 50k QPS
/// for 0.4 s (~20k queries) under FCFS, replayed on all-base clusters of
/// about 250, 1,000 and 4,000 instances.  Each lane gets instances in
/// proportion to its offered load, so the larger clusters only add idle
/// capacity: per-event cost should not grow with it.  Each row prints its
/// size and event count; divide the row's mean by the events for ns/event.
fn bench_large_cluster_replay(c: &mut Criterion) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let latency = paper_calibration();
    let kinds = [
        ModelKind::Ncf,
        ModelKind::Wnd,
        ModelKind::MtWnd,
        ModelKind::Dien,
        ModelKind::Rm2,
    ];
    let shares = [0.55, 0.20, 0.13, 0.10, 0.02];
    let (total_qps, batch) = (50_000.0, 8);
    let services: Vec<ServiceSpec> = kinds
        .iter()
        .map(|&k| ServiceSpec::new(k, latency.clone()))
        .collect();
    let svc_refs: Vec<&ServiceSpec> = services.iter().collect();
    let mix = MixSpec::from_shares(
        &shares,
        &vec![BatchSizeDistribution::Fixed(batch); kinds.len()],
    );
    let trace = MixedTraceSpec::poisson(total_qps, mix, 0.4, 2023).generate();
    // Busy instances each lane needs on average (its offered load).
    let base = pool.base_index();
    let base_name = pool.types()[base].name.clone();
    let loads: Vec<f64> = kinds
        .iter()
        .zip(&shares)
        .map(|(&kind, &share)| {
            share * total_qps * latency.expect(kind, &base_name).latency_ms(batch) / 1000.0
        })
        .collect();
    let total_load: f64 = loads.iter().sum();
    let opts = SimulationOptions::default();

    let mut group = c.benchmark_group("large_cluster_replay");
    group.sample_size(10);
    for target in [250usize, 1_000, 4_000] {
        let headroom = target as f64 / total_load;
        let spec = ClusterSpec::from_configs(
            loads
                .iter()
                .map(|load| {
                    let mut counts = vec![0usize; pool.num_types()];
                    counts[base] = ((load * headroom).ceil() as usize).max(1);
                    Config::new(counts)
                })
                .collect(),
        );
        let replay = || {
            let mut scheduler = FcfsScheduler::new();
            kairos_sim::SimEngine::new_multi(&pool, &spec, &svc_refs, &trace, &mut scheduler, &opts)
                .run()
        };
        let probe = replay();
        assert_eq!(probe.completed(), trace.len(), "every query must complete");
        let instances: usize = spec.pools.iter().map(|p| p.config.total_instances()).sum();
        println!(
            "large_cluster_replay/base_{target}: {instances} instances, {} events per replay",
            probe.events_processed
        );
        group.bench_function(format!("base_{target}"), |b| b.iter(|| black_box(replay())));
    }
    group.finish();
}

fn capacity_options(early_exit: bool) -> CapacityOptions {
    CapacityOptions {
        duration_s: 1.0,
        refine_steps: 3,
        max_qps: 4_000.0,
        early_exit,
        ..CapacityOptions::with_seed(97)
    }
}

fn fcfs_factory() -> Box<dyn Scheduler> {
    Box::new(FcfsScheduler::new())
}

/// End-to-end measured configuration ranking, shaped like the serving loop's
/// replanning: seven replan rounds rank the budget's candidate set with
/// capacity ramps — cadence replans re-rank the *same* enumerated candidates
/// (only knowledge drifts), and one drift replan swaps two candidates in.
/// `memoized_early_exit` is the production path: one [`CapacityProber`]
/// shared across rounds (per-config memo keyed by interned type names) with
/// early-exit probes.  `naive_full_replay` re-simulates every probe of every
/// round to completion, which is what the sweep cost before this
/// optimization pass.
fn bench_rank_configs_sweep(c: &mut Criterion) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
    let candidates: Vec<Config> = vec![
        Config::new(vec![1, 0, 0, 0]),
        Config::new(vec![1, 0, 1, 0]),
        Config::new(vec![1, 0, 2, 0]),
        Config::new(vec![1, 1, 0, 0]),
        Config::new(vec![2, 0, 0, 0]),
        Config::new(vec![1, 0, 0, 2]),
    ];
    let drifted: Vec<Config> = vec![
        Config::new(vec![1, 0, 1, 0]),
        Config::new(vec![1, 0, 2, 0]),
        Config::new(vec![1, 1, 0, 0]),
        Config::new(vec![2, 0, 0, 0]),
        Config::new(vec![1, 1, 1, 0]),
        Config::new(vec![2, 0, 2, 0]),
    ];
    let rounds: Vec<&[Config]> = vec![
        &candidates,
        &candidates,
        &candidates,
        &candidates,
        &drifted,
        &drifted,
        &drifted,
    ];

    let mut group = c.benchmark_group("rank_configs_sweep");
    group.sample_size(10);
    group.bench_function("memoized_early_exit", |b| {
        b.iter(|| {
            let prober = CapacityProber::new(&pool, &service, capacity_options(true));
            for round in &rounds {
                black_box(prober.rank_measured(round, fcfs_factory));
            }
        })
    });
    group.bench_function("naive_full_replay", |b| {
        b.iter(|| {
            for round in &rounds {
                let prober = CapacityProber::new(&pool, &service, capacity_options(false));
                black_box(prober.rank_measured(round, fcfs_factory));
            }
        })
    });
    group.finish();
}

/// Variant-aware configuration ranking: the merged enumerate-once,
/// rank-per-lane sweep the variant planner runs at every replan (three RM2
/// lanes — fp32, int8, distilled — over the same budget's candidate set).
/// Budgeted at roughly twice the single-lane `rank_configs_sweep` path: the
/// per-lane closed-form rankings dominate and the merge is linear.
fn bench_rank_configs_variants(c: &mut Criterion) {
    use kairos_core::paper_variant_planner;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let pool = PoolSpec::new(ec2::paper_pool());
    let planner = paper_variant_planner(&pool, ModelKind::Rm2, &paper_calibration());
    let sample = BatchSizeDistribution::production_default()
        .sample_many(&mut StdRng::seed_from_u64(7), 2_000);

    let mut group = c.benchmark_group("rank_configs_variants");
    group.sample_size(10);
    group.bench_function("three_lane_merge", |b| {
        b.iter(|| black_box(planner.rank_configs_variants(2.5, black_box(&sample), None)))
    });
    group.finish();
}

/// One serving-loop replan that misses the plan cache: a warmed RM2 system
/// picks its next target under a budget that alternates between two nearby
/// shares (as the multi-model water-filling moves a lane's share whenever
/// any lane replans), so every call re-ranks the ~8k configurations the
/// budget affords and selects the cheapest covering one.
fn bench_replan_miss(c: &mut Criterion) {
    use kairos_core::{ServingOptions, ServingSystem};

    let pool = PoolSpec::new(ec2::paper_pool());
    let mut system = ServingSystem::new(
        pool,
        ModelKind::Rm2,
        Some(paper_calibration()),
        ServingOptions::default(),
    );
    system.warm_monitor(&BatchSizeDistribution::production_default(), 2_000, 7);
    let budgets = [2.7, 2.71];
    let best = system.controller().plan(budgets[0]).unwrap().ranked[0].1;
    let demand = best * 0.6;
    let current = system
        .plan_for_demand_with_budget(budgets[0], demand)
        .unwrap();

    let mut group = c.benchmark_group("replan_miss");
    group.sample_size(10);
    let mut turn = 0;
    group.bench_function("rm2_alternating_budget", |b| {
        b.iter(|| {
            turn ^= 1;
            black_box(system.select_target_for(budgets[turn], demand, black_box(&current)))
        })
    });
    group.finish();
}

/// The sparse per-model hot paths a thousands-of-models serverless tail
/// leans on: sampling a 2000-component mix (binary search over the
/// cumulative-share table — the legacy linear subtraction scan is O(n) per
/// draw) and reading per-lane state out of a model-tagged monitor window
/// (active-lane index + per-lane rings instead of full-window scans).
fn bench_sparse_mix(c: &mut Criterion) {
    use kairos_workload::{MixSpec, ModelId, QueryMonitor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let n = 2_000usize;
    let shares: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64).collect();
    let dists: Vec<BatchSizeDistribution> = vec![BatchSizeDistribution::Fixed(64); n];
    let mix = MixSpec::from_shares(&shares, &dists);

    let mut monitor = QueryMonitor::with_capacity(4_096);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..8_192 {
        let (model, batch) = mix.sample(&mut rng);
        monitor.observe_tagged(model, batch);
    }

    let mut group = c.benchmark_group("sparse_mix_2000");
    group.sample_size(10);
    group.bench_function("sample_10k", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(11);
            let mut acc = 0usize;
            for _ in 0..10_000 {
                acc += mix.sample(&mut rng).0.index();
            }
            black_box(acc)
        })
    });
    group.bench_function("monitor_mix_and_lane_snapshots", |b| {
        b.iter(|| {
            let mix = monitor.mix();
            let mut len = mix.len();
            for &lane in monitor.active_models() {
                len += monitor.snapshot_for(ModelId::new(lane)).len();
            }
            black_box(len)
        })
    });
    group.finish();
}

/// One allowable-throughput ramp for a single configuration: the unit of
/// work every planner comparison and baseline grid search repeats hundreds
/// of times.  Early exit aborts each probe replay the moment its verdict is
/// provable; the verdicts (and hence the ramp result) are identical.
fn bench_allowable_throughput_probe(c: &mut Criterion) {
    let pool = PoolSpec::new(ec2::paper_pool());
    let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
    let config = Config::new(vec![2, 0, 4, 0]);

    let mut group = c.benchmark_group("allowable_throughput_probe");
    group.sample_size(10);
    for (label, early_exit) in [("early_exit", true), ("full_replay", false)] {
        let opts = capacity_options(early_exit);
        group.bench_with_input(BenchmarkId::from_parameter(label), &opts, |b, opts| {
            b.iter(|| {
                black_box(allowable_throughput(
                    &pool,
                    &config,
                    &service,
                    opts,
                    fcfs_factory,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_trace_replay,
    bench_kairos_deep_queue,
    bench_engine_vs_naive_50k,
    bench_sharded_replay,
    bench_large_cluster_replay,
    bench_rank_configs_sweep,
    bench_rank_configs_variants,
    bench_replan_miss,
    bench_sparse_mix,
    bench_allowable_throughput_probe
);
criterion_main!(benches);
