//! Property tests pinning the Kairos matching round to a reference round.
//!
//! The reference builds the matrices the straightforward way: one predictor
//! lookup per (query, instance) pair, a `Vec<Vec<bool>>` feasibility table,
//! a cost matrix in query-major orientation and a fresh [`solve_jv`] call.
//! [`KairosScheduler`] builds one prediction per (query, type) into reused
//! buffers laid out the way the solver wants them; every dispatch vector
//! must match the reference exactly, on random queues (waits past the QoS
//! target included), random view sets (non-accepting instances, pools
//! without a base instance, both matrix orientations) and predictors in
//! every learning state (unobserved, one batch size, fitted; with and
//! without priors).  [`MultiScheduler`] is checked the same way against a
//! per-model partition of the reference.

use kairos_assignment::{jv::solve_jv, Assignment, CostMatrix};
use kairos_core::{heterogeneity_coefficients, KairosScheduler, MultiScheduler, DEFAULT_XI};
use kairos_models::{calibration::paper_calibration, ec2, mlmodel::ModelKind, MAX_BATCH_SIZE};
use kairos_sim::{Dispatch, IdleIndex, InstanceView, Scheduler, SchedulingContext};
use kairos_workload::{ModelId, Query};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Reference round: the per-(query, instance) construction.
// ---------------------------------------------------------------------------

const QOS_PENALTY_FACTOR: f64 = 10.0;

struct QueryRow {
    batch_size: u32,
    waited_ms: f64,
}

struct InstanceColumn {
    remaining_ms: f64,
    coefficient: f64,
    predicted_service_ms: Vec<f64>,
}

struct LMatrices {
    completion_ms: CostMatrix,
    feasible: Vec<Vec<bool>>,
    cost: CostMatrix,
}

fn build_matrices(
    queries: &[QueryRow],
    instances: &[InstanceColumn],
    qos_ms: f64,
    xi: f64,
) -> LMatrices {
    let m = queries.len();
    let n = instances.len();
    let penalty = QOS_PENALTY_FACTOR * qos_ms;
    let mut completion = Vec::with_capacity(m * n);
    let mut cost = Vec::with_capacity(m * n);
    let mut feasible = vec![vec![false; n]; m];
    for (i, q) in queries.iter().enumerate() {
        for (j, inst) in instances.iter().enumerate() {
            let l_ij = inst.remaining_ms + inst.predicted_service_ms[i];
            completion.push(l_ij);
            let ok = l_ij + q.waited_ms <= xi * qos_ms;
            feasible[i][j] = ok;
            let effective_l = if ok { l_ij } else { penalty };
            cost.push(inst.coefficient * effective_l);
        }
    }
    LMatrices {
        completion_ms: CostMatrix::from_vec(m, n, completion).expect("finite completion times"),
        feasible,
        cost: CostMatrix::from_vec(m, n, cost).expect("finite costs"),
    }
}

/// The dispatches of one reference round for a scheduler in `kairos`'s
/// learning state with safeguard `xi`.
fn reference_round(
    kairos: &KairosScheduler,
    xi: f64,
    ctx: &SchedulingContext<'_>,
) -> Vec<Dispatch> {
    let predictors = kairos.predictors();
    let instances: Vec<&InstanceView> = ctx.instances.iter().filter(|i| i.accepting).collect();
    if ctx.queued.is_empty() || instances.is_empty() {
        return Vec::new();
    }
    let qos_ms = ctx.qos_us as f64 / 1000.0;

    // Per-type coefficients keyed by type name, base type anchoring.
    let mut names: Vec<Arc<str>> = Vec::new();
    let mut base_pos = 0usize;
    for inst in &instances {
        if !names.contains(&inst.type_name) {
            if inst.is_base {
                base_pos = names.len();
            }
            names.push(inst.type_name.clone());
        }
    }
    let latencies: Vec<f64> = names
        .iter()
        .map(|n| predictors.predict(n, MAX_BATCH_SIZE).max(1e-6))
        .collect();
    let coeffs = heterogeneity_coefficients(&latencies, base_pos);
    let coefficient = |name: &Arc<str>| coeffs[names.iter().position(|n| n == name).unwrap()];

    let rows: Vec<QueryRow> = ctx
        .queued
        .iter()
        .map(|q| QueryRow {
            batch_size: q.batch_size,
            waited_ms: q.waiting_time_us(ctx.now_us) as f64 / 1000.0,
        })
        .collect();
    let columns: Vec<InstanceColumn> = instances
        .iter()
        .map(|inst| InstanceColumn {
            remaining_ms: inst.remaining_us(ctx.now_us) as f64 / 1000.0,
            coefficient: coefficient(&inst.type_name),
            predicted_service_ms: rows
                .iter()
                .map(|r| predictors.predict(&inst.type_name, r.batch_size).max(1e-3))
                .collect(),
        })
        .collect();
    let mut matrices = build_matrices(&rows, &columns, qos_ms, xi);

    // Cold-start optimism for types without a latency fit.
    let type_fitted: Vec<bool> = instances
        .iter()
        .map(|inst| {
            predictors
                .get(&inst.type_name)
                .map(|p| p.has_fit())
                .unwrap_or(false)
        })
        .collect();
    for i in 0..rows.len() {
        for j in 0..columns.len() {
            if !matrices.feasible[i][j] && !type_fitted[j] {
                matrices.feasible[i][j] = true;
                matrices.cost.set(
                    i,
                    j,
                    columns[j].coefficient * matrices.completion_ms.get(i, j),
                );
            }
        }
    }

    let assignment: Assignment = match solve_jv(&matrices.cost) {
        Ok(a) => a,
        Err(_) => return Vec::new(),
    };
    assignment
        .pairs()
        .filter(|&(i, j)| matrices.feasible[i][j] || rows[i].waited_ms >= qos_ms)
        .map(|(query_index, j)| Dispatch {
            query_index,
            instance_index: instances[j].instance_index,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Random inputs.
// ---------------------------------------------------------------------------

fn type_names() -> Vec<Arc<str>> {
    ec2::paper_pool()
        .iter()
        .map(|t| Arc::from(t.name.as_str()))
        .collect()
}

/// A scheduler with or without priors, then per type: no observation, one
/// batch size only (no fit) or several batch sizes (a fit).
fn random_scheduler(rng: &mut StdRng, names: &[Arc<str>]) -> (KairosScheduler, f64) {
    let kinds = [ModelKind::Ncf, ModelKind::Rm2, ModelKind::Wnd];
    let mut kairos = if rng.gen_bool(0.5) {
        KairosScheduler::with_priors(kinds[rng.gen_range(0..kinds.len())], &paper_calibration())
    } else {
        KairosScheduler::new()
    };
    let xi = [DEFAULT_XI, 1.0, 0.9][rng.gen_range(0..3usize)];
    kairos = kairos.with_xi(xi);
    kairos.bind_types(names);
    for t in 0..names.len() {
        observe(rng, &mut kairos, t);
    }
    (kairos, xi)
}

fn observe(rng: &mut StdRng, kairos: &mut KairosScheduler, type_index: usize) {
    match rng.gen_range(0..3u32) {
        0 => {}
        1 => {
            let batch = rng.gen_range(1..=MAX_BATCH_SIZE);
            for _ in 0..rng.gen_range(1..4u32) {
                let ms = rng.gen_range(0.05..40.0);
                kairos.on_completion(type_index, ModelId::DEFAULT, batch, ms);
            }
        }
        _ => {
            for _ in 0..rng.gen_range(2..8u32) {
                let batch = rng.gen_range(1..=MAX_BATCH_SIZE);
                let ms = rng.gen_range(0.05..40.0);
                kairos.on_completion(type_index, ModelId::DEFAULT, batch, ms);
            }
        }
    }
}

/// One round's inputs: a queue, views over the paper's four types and the
/// clock.  Some pools have no base-type view; some views do not accept;
/// some queries have already waited past the QoS target.
struct Round {
    now_us: u64,
    qos_us: u64,
    queued: Vec<Query>,
    views: Vec<InstanceView>,
}

fn random_round(rng: &mut StdRng, names: &[Arc<str>], models: usize) -> Round {
    let qos_us = [5_000u64, 25_000, 350_000][rng.gen_range(0..3usize)];
    let now_us = rng.gen_range(3 * qos_us..10 * qos_us);
    let queries = if rng.gen_bool(0.5) {
        rng.gen_range(1..=30usize)
    } else {
        rng.gen_range(1..=400usize)
    };
    let queued = (0..queries)
        .map(|id| {
            let waited = if rng.gen_bool(0.2) {
                rng.gen_range(qos_us..=2 * qos_us)
            } else {
                rng.gen_range(0..qos_us)
            };
            let mut q = Query::new(
                id as u64,
                rng.gen_range(1..=MAX_BATCH_SIZE),
                now_us - waited,
            );
            q.model = ModelId::new(rng.gen_range(0..models));
            q
        })
        .collect();
    let first_type = if rng.gen_bool(0.25) { 1 } else { 0 };
    let views = (0..rng.gen_range(1..=30usize))
        .map(|instance_index| {
            let type_index = rng.gen_range(first_type..names.len());
            let busy = rng.gen_bool(0.5);
            InstanceView {
                instance_index,
                type_index,
                type_name: names[type_index].clone(),
                model: ModelId::new(rng.gen_range(0..models)),
                is_base: type_index == 0,
                accepting: rng.gen_bool(0.85),
                free_at_us: if busy {
                    now_us + rng.gen_range(1..2 * qos_us)
                } else {
                    rng.gen_range(0..=now_us)
                },
                backlog: usize::from(busy),
            }
        })
        .collect();
    Round {
        now_us,
        qos_us,
        queued,
        views,
    }
}

fn context<'a>(
    round: &'a Round,
    idle: &'a IdleIndex,
    qos_by_model: &'a [u64],
) -> SchedulingContext<'a> {
    SchedulingContext {
        now_us: round.now_us,
        queued: &round.queued,
        instances: &round.views,
        idle,
        qos_us: round.qos_us,
        qos_by_model,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Several rounds of different shapes through one scheduler (so its
    /// buffers are reused), with completions learned between rounds.
    #[test]
    fn round_dispatches_match_the_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let names = type_names();
        let (mut kairos, xi) = random_scheduler(&mut rng, &names);
        let mut expected_rounds = 0;
        for _ in 0..3 {
            let round = random_round(&mut rng, &names, 1);
            let idle = IdleIndex::from_views(&round.views, round.now_us);
            let ctx = context(&round, &idle, &[]);
            let expected = reference_round(&kairos, xi, &ctx);
            if round.views.iter().any(|v| v.accepting) {
                expected_rounds += 1;
            }
            let mut actual = vec![Dispatch { query_index: 7, instance_index: 7 }];
            kairos.schedule_into(&ctx, &mut actual);
            prop_assert_eq!(&actual[1..], &expected[..]);
            prop_assert_eq!(kairos.schedule(&ctx), expected);
            let t = rng.gen_range(0..names.len());
            observe(&mut rng, &mut kairos, t);
        }
        prop_assert_eq!(kairos.rounds(), 2 * expected_rounds);
    }

    /// The multi-model policy equals the reference run per model on that
    /// model's queries and views, mapped back to queue positions.
    #[test]
    fn multi_model_dispatches_match_the_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let names = type_names();
        let models = rng.gen_range(1..=3usize);
        let inner: Vec<(KairosScheduler, f64)> =
            (0..models).map(|_| random_scheduler(&mut rng, &names)).collect();
        let mut multi = MultiScheduler::new(inner.iter().map(|(k, _)| k.clone()).collect());
        let qos_by_model: Vec<u64> =
            (0..models).map(|_| [5_000u64, 25_000, 350_000][rng.gen_range(0..3usize)]).collect();
        for _ in 0..2 {
            let round = random_round(&mut rng, &names, models);
            let no_idle = IdleIndex::default();
            let ctx = context(&round, &no_idle, &qos_by_model);
            let mut expected = Vec::new();
            for (m, (kairos, xi)) in inner.iter().enumerate() {
                let model = ModelId::new(m);
                let qmap: Vec<usize> =
                    (0..round.queued.len()).filter(|&i| round.queued[i].model == model).collect();
                let queued: Vec<Query> = qmap.iter().map(|&i| round.queued[i]).collect();
                let views: Vec<InstanceView> =
                    round.views.iter().filter(|v| v.model == model).cloned().collect();
                let sub = SchedulingContext {
                    now_us: round.now_us,
                    queued: &queued,
                    instances: &views,
                    idle: &no_idle,
                    qos_us: ctx.qos_for(model),
                    qos_by_model: &qos_by_model,
                };
                expected.extend(reference_round(kairos, *xi, &sub).into_iter().map(|d| Dispatch {
                    query_index: qmap[d.query_index],
                    instance_index: d.instance_index,
                }));
            }
            prop_assert_eq!(multi.schedule(&ctx), expected);
        }
    }
}
