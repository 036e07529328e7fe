//! Test-only reference for the lean planning path.
//!
//! The reference is the selection the serving loop made before
//! [`Ranking`] existed: enumerate `Config`s recursively, rank them with
//! [`ThroughputEstimator::rank_configs`] (a stable sort by bound), run
//! [`select_configuration`] over the sorted list, and pick targets by
//! filtering and scanning that list.  The production path must agree with
//! it exactly: the same ranked list bit for bit, the same chosen
//! configuration, and the same deployment target for every demand, current
//! deployment, spread limit and purchase-backoff book.

use crate::controller::KairosController;
use crate::planner::{Covering, PlanCache, Ranking};
use crate::selection::select_configuration;
use crate::serving::{select_target, spread_or_unconstrained, PurchaseBackoff, ServingOptions};
use crate::upper_bound::ThroughputEstimator;
use crate::Plan;
use kairos_models::{
    calibration::paper_calibration, ec2, latency::LatencyTable, mlmodel::ModelKind, Config,
    FailureDomain, InstanceClass, InstanceType, PoolSpec,
};
use kairos_workload::{BatchSizeDistribution, TimeUs};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The recursive enumerator, with the retain filter applied afterwards.
fn enumerate_reference(pool: &PoolSpec, budget: f64) -> Vec<Config> {
    fn recurse(
        pool: &PoolSpec,
        max_counts: &[usize],
        budget: f64,
        dim: usize,
        spent: f64,
        current: &mut Vec<usize>,
        out: &mut Vec<Config>,
    ) {
        if dim == max_counts.len() {
            out.push(Config::new(current.clone()));
            return;
        }
        let price = pool.price(dim);
        for count in 0..=max_counts[dim] {
            let cost = spent + price * count as f64;
            if cost > budget + 1e-9 {
                break;
            }
            current[dim] = count;
            recurse(pool, max_counts, budget, dim + 1, cost, current, out);
        }
        current[dim] = 0;
    }
    let max_counts: Vec<usize> = (0..pool.num_types())
        .map(|i| (budget / pool.price(i)).floor() as usize)
        .collect();
    let mut out = Vec::new();
    let mut current = vec![0; pool.num_types()];
    recurse(pool, &max_counts, budget, 0, 0.0, &mut current, &mut out);
    out.retain(|c| c.total_instances() > 0 && c.count(pool.base_index()) > 0);
    out
}

/// The sorted-list plan of `controller`'s current knowledge.
fn reference_plan(controller: &KairosController, budget: f64) -> Plan {
    let pool = controller.pool();
    let configs = enumerate_reference(pool, budget);
    assert!(!configs.is_empty(), "cannot afford");
    let estimator = ThroughputEstimator::new(
        pool.clone(),
        controller.model(),
        controller.learned_table().expect("priors cover the pool"),
        controller.batch_sample(),
    );
    let ranked = estimator.rank_configs(&configs);
    let chosen = select_configuration(&ranked, pool);
    Plan {
        chosen,
        ranked,
        budget_per_hour: budget,
    }
}

/// Cheapest ranked configuration whose upper bound covers `required` QPS
/// (ties broken towards the higher bound).
fn cheapest_covering(pool: &PoolSpec, ranked: &[(Config, f64)], required: f64) -> Option<Config> {
    ranked
        .iter()
        .filter(|(_, ub)| *ub >= required)
        .min_by(|(ca, ua), (cb, ub)| {
            ca.cost(pool)
                .partial_cmp(&cb.cost(pool))
                .unwrap()
                .then(ub.partial_cmp(ua).unwrap())
        })
        .map(|(c, _)| c.clone())
}

fn purchasable(
    target: &Config,
    current: &Config,
    pool: &PoolSpec,
    backoff: &PurchaseBackoff,
    now: TimeUs,
) -> bool {
    target.counts().iter().enumerate().all(|(i, &n)| {
        let held = current.counts().get(i).copied().unwrap_or(0);
        let cap = if pool.types()[i].is_base {
            held.max(1)
        } else {
            held
        };
        n <= cap || !backoff.blocked(i, now)
    })
}

fn within_spread(config: &Config, table: &[FailureDomain], fraction: f64) -> bool {
    let total: usize = config.counts().iter().sum();
    if total <= 1 {
        return true;
    }
    let limit = fraction * total as f64 + 1e-9;
    let mut seen: Vec<(&FailureDomain, usize)> = Vec::new();
    for (type_index, &count) in config.counts().iter().enumerate() {
        if count == 0 {
            continue;
        }
        match seen.iter_mut().find(|(d, _)| *d == &table[type_index]) {
            Some((_, n)) => *n += count,
            None => seen.push((&table[type_index], count)),
        }
    }
    seen.iter().all(|(_, n)| *n as f64 <= limit)
}

/// The candidate both planning entry points pick when no backoff applies.
fn reference_candidate(
    plan: &Plan,
    pool: &PoolSpec,
    required: f64,
    spread: Option<(f64, &[FailureDomain])>,
) -> Config {
    match spread {
        Some((fraction, table)) => {
            let spread_ok: Vec<(Config, f64)> = plan
                .ranked
                .iter()
                .filter(|(c, _)| within_spread(c, table, fraction))
                .cloned()
                .collect();
            if spread_ok.is_empty() {
                cheapest_covering(pool, &plan.ranked, required)
                    .unwrap_or_else(|| plan.chosen.clone())
            } else {
                cheapest_covering(pool, &spread_ok, required)
                    .unwrap_or_else(|| spread_ok[0].0.clone())
            }
        }
        None => {
            cheapest_covering(pool, &plan.ranked, required).unwrap_or_else(|| plan.chosen.clone())
        }
    }
}

/// The slice-scanning `select_target`.
#[allow(clippy::too_many_arguments)]
fn reference_select_target(
    plan: &Plan,
    pool: &PoolSpec,
    options: &ServingOptions,
    demand_qps: f64,
    current: &Config,
    domains: Option<&[FailureDomain]>,
    blocked: Option<(&PurchaseBackoff, TimeUs)>,
) -> Config {
    let required = demand_qps * options.demand_headroom;
    let realizable: Option<Vec<(Config, f64)>> = blocked
        .filter(|(backoff, now)| backoff.any_blocked(*now))
        .map(|(backoff, now)| {
            plan.ranked
                .iter()
                .filter(|(c, _)| purchasable(c, current, pool, backoff, now))
                .cloned()
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty());
    let spread = options.max_fraction_per_domain.zip(domains);
    let candidate = match &realizable {
        Some(realizable) => {
            cheapest_covering(pool, realizable, required).unwrap_or_else(|| realizable[0].0.clone())
        }
        None => reference_candidate(plan, pool, required, spread),
    };
    let current_ub = plan
        .ranked
        .iter()
        .find(|(c, _)| c == current)
        .map(|(_, ub)| *ub)
        .unwrap_or(0.0);
    let keep = current_ub >= required * 0.8
        && current.cost(pool) <= candidate.cost(pool) * options.shrink_factor
        && (realizable.is_some()
            || spread.is_none_or(|(fraction, table)| within_spread(current, table, fraction)));
    if keep {
        current.clone()
    } else {
        candidate
    }
}

/// Ranked lists equal bit for bit.
fn assert_same_plan(lean: &Plan, reference: &Plan) {
    assert_eq!(lean.chosen, reference.chosen, "chosen configuration");
    assert_eq!(lean.ranked.len(), reference.ranked.len(), "ranked length");
    for (i, ((lc, lb), (rc, rb))) in lean.ranked.iter().zip(&reference.ranked).enumerate() {
        assert_eq!(lc, rc, "ranked[{i}] configuration");
        assert_eq!(lb.to_bits(), rb.to_bits(), "ranked[{i}] bound");
    }
    assert_eq!(
        lean.budget_per_hour.to_bits(),
        reference.budget_per_hour.to_bits()
    );
}

/// A pool with exact cost ties: a twin of `r5n.large` (same price, same
/// latency) and a compute type at exactly twice its price, so distinct
/// configurations share a cost, and some share a bound too.
fn tied_pool() -> (PoolSpec, LatencyTable) {
    let r5n = ec2::r5n_large();
    let twin = InstanceType::new("r5n.twin", r5n.class, r5n.price_per_hour, false);
    let double = InstanceType::new(
        "c5n.double",
        InstanceClass::ComputeOptimized,
        2.0 * r5n.price_per_hour,
        false,
    );
    let mut table = paper_calibration();
    for model in ModelKind::ALL {
        table.insert(model, &twin.name, table.expect(model, &r5n.name));
        table.insert(model, &double.name, table.expect(model, "c5n.2xlarge"));
    }
    let pool = PoolSpec::new(vec![ec2::g4dn_xlarge(), r5n, twin, double]);
    (pool, table)
}

/// The paper's pools on their calibration, or the tied pool.
fn pool_for(rng: &mut StdRng) -> (PoolSpec, LatencyTable) {
    match rng.gen_range(0..10u32) {
        0..=4 => (PoolSpec::new(ec2::paper_pool()), paper_calibration()),
        5..=6 => (PoolSpec::new(ec2::figure1_pool()), paper_calibration()),
        _ => tied_pool(),
    }
}

/// A controller on calibration priors, with a random batch mix in its
/// monitor (or none: the worst-case sample) and online latency fits for a
/// random subset of types.
fn random_controller(rng: &mut StdRng, pool: &PoolSpec, truth: &LatencyTable) -> KairosController {
    let model = ModelKind::ALL[rng.gen_range(0..ModelKind::ALL.len())];
    let mut controller = KairosController::with_priors(pool.clone(), model, truth.clone());
    let n = rng.gen_range(20..1500usize);
    match rng.gen_range(0..4u32) {
        0 => {}
        1 => (0..n).for_each(|_| controller.observe_query(rng.gen_range(1..120u32))),
        2 => (0..n).for_each(|_| {
            let b = if rng.gen_bool(0.8) {
                rng.gen_range(1..80u32)
            } else {
                rng.gen_range(400..1000u32)
            };
            controller.observe_query(b)
        }),
        _ => {
            let mix = BatchSizeDistribution::production_default();
            (0..n).for_each(|_| controller.observe_query(mix.sample(rng)));
        }
    }
    for ty in pool.types() {
        if rng.gen_bool(0.4) {
            let prior = truth.expect(model, &ty.name);
            let scale = rng.gen_range(0.7..1.4);
            for _ in 0..12 {
                let batch = rng.gen_range(1..600u32);
                let noise = rng.gen_range(0.95..1.05);
                controller.observe_completion(
                    &ty.name,
                    batch,
                    prior.latency_ms(batch) * scale * noise,
                );
            }
        }
    }
    controller
}

/// A deployment either drawn from the ranking or made up: a ranked one
/// with a few counts moved (possibly off the ranking, over budget or
/// without a base instance), or arbitrary counts.
fn random_current(rng: &mut StdRng, ranking: &Ranking, pool: &PoolSpec) -> Config {
    let mut counts = match rng.gen_range(0..3u32) {
        0 => ranking.chosen().counts().to_vec(),
        1 => ranking.counts(rng.gen_range(0..ranking.len())).to_vec(),
        _ => {
            return Config::new(
                (0..pool.num_types())
                    .map(|_| rng.gen_range(0..30usize))
                    .collect(),
            )
        }
    };
    if rng.gen_bool(0.4) {
        for _ in 0..rng.gen_range(1..3u32) {
            let i = rng.gen_range(0..counts.len());
            counts[i] = rng.gen_range(0..4usize);
        }
    }
    Config::new(counts)
}

fn random_domains(rng: &mut StdRng, pool: &PoolSpec) -> Vec<FailureDomain> {
    let zones = ["us-east-1a", "us-east-1b", "us-east-1c"];
    let used = rng.gen_range(1..=zones.len());
    (0..pool.num_types())
        .map(|_| FailureDomain::zone("us-east-1", zones[rng.gen_range(0..used)]))
        .collect()
}

/// A backoff book parking a random subset of offerings (possibly none,
/// possibly all, the base included) around `now`.
fn random_backoff(rng: &mut StdRng, pool: &PoolSpec, now: TimeUs) -> PurchaseBackoff {
    let mut backoff = PurchaseBackoff::new(pool.num_types());
    let all = rng.gen_bool(0.2);
    for i in 0..pool.num_types() {
        if all || rng.gen_bool(0.4) {
            // Some parks have already expired at `now`.
            backoff.park(i, now - 1_000 + rng.gen_range(0..5_000u64));
        }
    }
    backoff
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random knowledge, budgets, demands, deployments, spread limits and
    /// backoff books: every plan, candidate and target matches the
    /// sorted-list reference.  One cache serves every call of a case, so
    /// hits, misses and budget changes are all exercised.
    #[test]
    fn lean_ranking_selects_what_the_sorted_list_selects(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (pool, truth) = pool_for(&mut rng);
        let controller = random_controller(&mut rng, &pool, &truth);
        let mut cache = PlanCache::new();
        let mut options = ServingOptions::default();
        for _ in 0..2 {
            let budget = if rng.gen_bool(0.5) {
                rng.gen_range(0.5..3.5)
            } else {
                rng.gen_range(0.5..12.0)
            };
            if budget < pool.price(pool.base_index()) {
                let lean = catch_unwind(AssertUnwindSafe(|| controller.plan(budget)));
                let reference = catch_unwind(|| reference_plan(&controller, budget));
                prop_assert!(lean.is_err() && reference.is_err());
                continue;
            }
            let reference = reference_plan(&controller, budget);
            assert_same_plan(&controller.plan(budget).unwrap(), &reference);
            let ranking = cache.ranking(&controller, budget).unwrap();
            let best = reference.ranked[0].1;
            prop_assert_eq!(ranking.best_bound().to_bits(), best.to_bits());
            for _ in 0..4 {
                options.demand_headroom = rng.gen_range(1.0..1.5);
                options.shrink_factor = rng.gen_range(0.5..1.0);
                let current = random_current(&mut rng, &ranking, &pool);
                // Demands near the deployment's own bound put the keep rule
                // on its edge.
                let held = ranking.bound_of(&current).unwrap_or(best);
                let demand = match rng.gen_range(0..5u32) {
                    0 => 0.0,
                    1 => 1e9, // nothing covers
                    2 => rng.gen_range(0.0..best * 1.3),
                    _ => held * rng.gen_range(0.8..1.3) / options.demand_headroom,
                };
                let domains = random_domains(&mut rng, &pool);
                let domains = rng.gen_bool(0.7).then_some(domains.as_slice());
                options.max_fraction_per_domain =
                    rng.gen_bool(0.6).then(|| rng.gen_range(0.3..1.0));
                let now: TimeUs = rng.gen_range(10_000..1_000_000);
                let backoff = random_backoff(&mut rng, &pool, now);
                let blocked = rng.gen_bool(0.5).then_some((&backoff, now));

                let spread = options.max_fraction_per_domain.zip(domains);
                let required = demand * options.demand_headroom;
                prop_assert_eq!(
                    spread_or_unconstrained(&ranking, &pool, required, spread),
                    reference_candidate(&reference, &pool, required, spread)
                );
                let lean = select_target(
                    &mut cache, &controller, &pool, &options, budget, demand, &current,
                    domains, blocked,
                );
                let expected = reference_select_target(
                    &reference, &pool, &options, demand, &current, domains, blocked,
                );
                prop_assert_eq!(lean, Some(expected));
            }
        }
    }
}

#[test]
fn a_filter_that_admits_nothing_finds_nothing() {
    let pool = PoolSpec::new(ec2::paper_pool());
    let controller =
        KairosController::with_priors(pool.clone(), ModelKind::Rm2, paper_calibration());
    let ranking = controller.ranking(2.7).unwrap();
    let none = Covering {
        cheapest: None,
        top: None,
    };
    assert_eq!(ranking.covering(&pool, 0.0, |_| false), none);
    // Admitting everything, the best-ranked admitted configuration is the
    // top of the ranked list, and nothing covers an unbounded demand.
    let plan = ranking.to_plan();
    let all = ranking.covering(&pool, f64::INFINITY, |_| true);
    assert_eq!(all.cheapest, None);
    assert_eq!(ranking.config(all.top.unwrap()), plan.ranked[0].0);
}

#[test]
fn bound_of_finds_exactly_the_ranked_configurations() {
    let pool = PoolSpec::new(ec2::paper_pool());
    let controller =
        KairosController::with_priors(pool.clone(), ModelKind::Wnd, paper_calibration());
    let ranking = controller.ranking(1.9).unwrap();
    let plan = ranking.to_plan();
    for (config, bound) in &plan.ranked {
        assert_eq!(
            ranking.bound_of(config).map(f64::to_bits),
            Some(bound.to_bits())
        );
    }
    // Not enumerable: no base instance, or over budget.
    assert_eq!(ranking.bound_of(&Config::new(vec![0, 1, 1, 1])), None);
    assert_eq!(ranking.bound_of(&Config::new(vec![9, 0, 0, 0])), None);
    assert_eq!(ranking.len(), plan.ranked.len());
}
