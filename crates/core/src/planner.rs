//! The Kairos one-shot configuration planner (paper Sec. 5.2).
//!
//! Given a cost budget, the planner enumerates every configuration that fits,
//! estimates each configuration's throughput upper bound with the closed-form
//! formula, and applies the similarity-based selection rule — producing a
//! deployable configuration **without a single online evaluation**.  The
//! paper reports that ranking ~1000 configurations takes well under two
//! seconds; the Criterion bench `upper_bound` verifies the same property for
//! this implementation.

use crate::controller::KairosController;
use crate::selection::{select_configuration, TOP_CANDIDATES};
use crate::upper_bound::ThroughputEstimator;
use kairos_models::{
    enumerate_config_counts, latency::LatencyTable, mlmodel::ModelKind, Config, EnumerationOptions,
    PoolSpec,
};
use std::sync::Arc;

/// Output of a planning pass.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The configuration Kairos deploys.
    pub chosen: Config,
    /// Every affordable configuration with its upper bound, sorted by bound
    /// (descending).  Used by Kairos+ and by the Fig. 13/14 analyses.
    pub ranked: Vec<(Config, f64)>,
    /// The hourly budget the plan was computed for.
    pub budget_per_hour: f64,
}

impl Plan {
    /// Upper bound of the chosen configuration.
    pub fn chosen_upper_bound(&self) -> f64 {
        self.ranked
            .iter()
            .find(|(c, _)| c == &self.chosen)
            .map(|(_, ub)| *ub)
            .unwrap_or(0.0)
    }

    /// The top-`n` configurations by upper bound.
    pub fn top(&self, n: usize) -> &[(Config, f64)] {
        &self.ranked[..self.ranked.len().min(n)]
    }
}

/// A planning pass in lean form: every affordable configuration's counts
/// and upper bound in enumeration order, plus the few that rank highest.
///
/// The serving loop reads only a handful of things from a ranked list — the
/// top [`TOP_CANDIDATES`] (for [`select_configuration`]), the best bound, the
/// bound of the deployed configuration, and one cheapest covering
/// configuration — so a `Ranking` keeps flat buffers instead of a sorted
/// `Vec<(Config, f64)>`.  [`Ranking::to_plan`] sorts once to materialize the
/// full [`Plan`] for the callers that want it.
///
/// "Ranked order" below is the order of [`Plan::ranked`]: bound descending,
/// ties in enumeration order (the stable sort's order).
#[derive(Debug, Clone)]
pub struct Ranking {
    num_types: usize,
    /// `len() × num_types` counts, one configuration per chunk, in the
    /// (lexicographic) order of [`enumerate_config_counts`].
    counts: Vec<usize>,
    /// Upper bound of each configuration, aligned with `counts`.
    bounds: Vec<f64>,
    /// The first (at most) [`TOP_CANDIDATES`] indices in ranked order.
    top: Vec<usize>,
    /// [`select_configuration`] over the top candidates.
    chosen: Config,
    budget_per_hour: f64,
}

/// What [`Ranking::covering`] found among the configurations a filter
/// admits, as indices into the ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Covering {
    /// The cheapest admitted configuration whose bound covers the required
    /// rate; among equal costs the higher bound, then the earlier one in
    /// ranked order.
    pub cheapest: Option<usize>,
    /// The admitted configuration first in ranked order; `None` exactly
    /// when the filter admits nothing.
    pub top: Option<usize>,
}

impl Ranking {
    /// Ranks the flat `counts` (as written by [`enumerate_config_counts`]
    /// for `pool`) with `estimator`.
    ///
    /// # Panics
    /// Panics if `counts` holds no configuration or a bound is NaN.
    fn new(
        pool: &PoolSpec,
        counts: Vec<usize>,
        estimator: &ThroughputEstimator,
        budget_per_hour: f64,
    ) -> Self {
        let num_types = pool.num_types();
        let bounds: Vec<f64> = counts
            .chunks_exact(num_types)
            .map(|c| estimator.estimate_counts(c))
            .collect();
        assert!(!bounds.is_empty(), "a ranking needs a configuration");
        // Insertion into a short sorted list: a new index goes after every
        // kept bound at least as high, which is where a stable descending
        // sort puts it.
        let mut top: Vec<usize> = Vec::with_capacity(TOP_CANDIDATES + 1);
        for (i, &bound) in bounds.iter().enumerate() {
            assert!(!bound.is_nan(), "finite bounds");
            if top.len() == TOP_CANDIDATES && bound <= bounds[top[TOP_CANDIDATES - 1]] {
                continue;
            }
            let at = top.partition_point(|&j| bounds[j] >= bound);
            top.insert(at, i);
            top.truncate(TOP_CANDIDATES);
        }
        let candidates: Vec<(Config, f64)> = top
            .iter()
            .map(|&i| {
                (
                    Config::new(counts[i * num_types..][..num_types].to_vec()),
                    bounds[i],
                )
            })
            .collect();
        let chosen = select_configuration(&candidates, pool);
        Self {
            num_types,
            counts,
            bounds,
            top,
            chosen,
            budget_per_hour,
        }
    }

    /// Number of ranked configurations.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Whether the ranking is empty (never, for a constructed ranking).
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// The counts of configuration `index` (enumeration order).
    pub fn counts(&self, index: usize) -> &[usize] {
        &self.counts[index * self.num_types..][..self.num_types]
    }

    /// Configuration `index` (enumeration order) as a [`Config`].
    pub fn config(&self, index: usize) -> Config {
        Config::new(self.counts(index).to_vec())
    }

    /// The configuration Kairos deploys ([`Plan::chosen`]).
    pub fn chosen(&self) -> &Config {
        &self.chosen
    }

    /// The highest upper bound in the ranking (`Plan::ranked[0].1`).
    pub fn best_bound(&self) -> f64 {
        self.bounds[self.top[0]]
    }

    /// Upper bound of `config`, or `None` when it is not in the ranking.
    /// A binary search: enumeration order is lexicographic.
    pub fn bound_of(&self, config: &Config) -> Option<f64> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.counts(mid).cmp(config.counts()) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(self.bounds[mid]),
            }
        }
        None
    }

    /// One pass over the configurations `admit` accepts: the cheapest one
    /// whose bound covers `required` QPS under `pool`'s prices, and the one
    /// first in ranked order (see [`Covering`]).  Each covering
    /// configuration's cost is computed once, summing
    /// [`InstanceType::cost_of`](kairos_models::InstanceType::cost_of) in
    /// type order as [`Config::cost`] does, so the pick is the one a
    /// `min_by(cost, then bound descending)` over the ranked list makes.
    ///
    /// # Panics
    /// Panics if `pool` has a different number of types than the ranking.
    pub fn covering(
        &self,
        pool: &PoolSpec,
        required: f64,
        admit: impl Fn(&[usize]) -> bool,
    ) -> Covering {
        assert_eq!(
            pool.num_types(),
            self.num_types,
            "config/pool dimension mismatch"
        );
        let mut cheapest: Option<(usize, f64)> = None;
        let mut top: Option<usize> = None;
        for (i, (counts, &bound)) in self
            .counts
            .chunks_exact(self.num_types)
            .zip(&self.bounds)
            .enumerate()
        {
            // Enumeration order breaks ties, so only a strictly higher
            // bound can displace the best-ranked admitted configuration.
            let covers = bound >= required;
            let ranks_higher = top.is_none_or(|t| bound > self.bounds[t]);
            if !(covers || ranks_higher) || !admit(counts) {
                continue;
            }
            if ranks_higher {
                top = Some(i);
            }
            if covers {
                let cost: f64 = counts
                    .iter()
                    .zip(pool.types())
                    .map(|(&c, t)| t.cost_of(c))
                    .sum();
                let better = cheapest.is_none_or(|(j, best)| {
                    cost < best || (cost == best && bound > self.bounds[j])
                });
                if better {
                    cheapest = Some((i, cost));
                }
            }
        }
        Covering {
            cheapest: cheapest.map(|(i, _)| i),
            top,
        }
    }

    /// Materializes the full [`Plan`]: one stable sort of the indices by
    /// bound, descending.
    pub fn to_plan(&self) -> Plan {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| {
            self.bounds[b]
                .partial_cmp(&self.bounds[a])
                .expect("finite bounds")
        });
        Plan {
            chosen: self.chosen.clone(),
            ranked: order
                .into_iter()
                .map(|i| (self.config(i), self.bounds[i]))
                .collect(),
            budget_per_hour: self.budget_per_hour,
        }
    }
}

/// The Kairos planner: throughput-upper-bound ranking plus similarity-based
/// selection over the affordable configuration space.
#[derive(Debug, Clone)]
pub struct KairosPlanner {
    pool: PoolSpec,
    model: ModelKind,
    latency: LatencyTable,
}

impl KairosPlanner {
    /// Creates a planner from the latency knowledge Kairos has gathered (its
    /// online-learned table, or a calibration table in offline studies).
    pub fn new(pool: PoolSpec, model: ModelKind, latency: LatencyTable) -> Self {
        Self {
            pool,
            model,
            latency,
        }
    }

    /// Builds the estimator for a given observed batch-size sample.
    pub fn estimator(&self, batch_sample: Vec<u32>) -> ThroughputEstimator {
        ThroughputEstimator::new(
            self.pool.clone(),
            self.model,
            self.latency.clone(),
            batch_sample,
        )
    }

    /// Plans a configuration under the given hourly budget, using the observed
    /// batch-size sample (e.g. the query monitor window) to parameterize the
    /// upper bound.
    ///
    /// # Panics
    /// Panics if the budget cannot afford a configuration with a base
    /// instance.
    pub fn plan(&self, budget_per_hour: f64, batch_sample: &[u32]) -> Plan {
        self.rank(budget_per_hour, batch_sample.to_vec()).to_plan()
    }

    /// [`Self::plan`] in lean form: ranks every affordable configuration
    /// without sorting them, taking the batch sample by value.
    ///
    /// # Panics
    /// Panics if the budget cannot afford a configuration with a base
    /// instance.
    pub fn rank(&self, budget_per_hour: f64, batch_sample: Vec<u32>) -> Ranking {
        let options = EnumerationOptions::with_budget(budget_per_hour);
        let mut counts = Vec::new();
        let found = enumerate_config_counts(&self.pool, &options, &mut counts);
        assert!(
            found > 0,
            "budget {budget_per_hour} cannot afford any configuration with a base instance"
        );
        let estimator = self.estimator(batch_sample);
        Ranking::new(&self.pool, counts, &estimator, budget_per_hour)
    }
}

/// Memoizes the most recent [`Ranking`] against the inputs it was computed
/// from, so a replanning loop (the serving system replans on a cadence *and*
/// on demand drift) only pays for enumeration + ranking when the planner's
/// inputs changed.
///
/// The key is `(quantized knowledge signature, budget bits)` — see
/// [`KairosController::knowledge_signature`].  A miss ranks from the
/// controller's exact current knowledge; only a hit reuses a ranking
/// computed from older knowledge whose signature quantizes the same.  The
/// ranking depends on those inputs, **not** on the observed arrival rate:
/// the demand-aware selection happens downstream over the cached ranking,
/// which is why cadence replans under drifting load can still hit — but
/// any change of the budget misses, and the multi-model service re-splits
/// every lane's budget whenever any lane replans.  Rankings are shared out
/// as [`Arc`]s, so a hit costs a pointer clone.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    entry: Option<(u64, u64, Arc<Ranking>)>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The controller's current ranking for `budget_per_hour`, reusing the
    /// cached one when the controller's quantized knowledge is unchanged.
    /// Returns `None` (and caches nothing) while the controller cannot plan.
    pub fn ranking(
        &mut self,
        controller: &KairosController,
        budget_per_hour: f64,
    ) -> Option<Arc<Ranking>> {
        let signature = controller.knowledge_signature();
        let budget_bits = budget_per_hour.to_bits();
        if let Some((cached_sig, cached_budget, ranking)) = &self.entry {
            if *cached_sig == signature && *cached_budget == budget_bits {
                self.hits += 1;
                return Some(ranking.clone());
            }
        }
        let ranking = Arc::new(controller.ranking(budget_per_hour)?);
        self.misses += 1;
        self.entry = Some((signature, budget_bits, ranking.clone()));
        Some(ranking)
    }

    /// Number of replans served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of replans that had to recompute.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::{best_homogeneous, calibration::paper_calibration, ec2};
    use kairos_workload::BatchSizeDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(17);
        BatchSizeDistribution::production_default().sample_many(&mut rng, 4000)
    }

    fn planner(model: ModelKind) -> KairosPlanner {
        KairosPlanner::new(PoolSpec::new(ec2::paper_pool()), model, paper_calibration())
    }

    #[test]
    fn plan_respects_budget_and_includes_base() {
        let plan = planner(ModelKind::Rm2).plan(2.5, &sample());
        let pool = PoolSpec::new(ec2::paper_pool());
        assert!(plan.chosen.cost(&pool) <= 2.5 + 1e-9);
        assert!(plan.chosen.count(pool.base_index()) >= 1);
        assert!(plan.ranked.len() > 100);
        assert!(plan.chosen_upper_bound() > 0.0);
    }

    #[test]
    fn chosen_config_is_heterogeneous_and_beats_homogeneous_bound_for_rm2() {
        let plan = planner(ModelKind::Rm2).plan(2.5, &sample());
        let pool = PoolSpec::new(ec2::paper_pool());
        let homo = best_homogeneous(&pool, 2.5);
        let estimator = planner(ModelKind::Rm2).estimator(sample());
        assert!(
            !plan.chosen.is_homogeneous(&pool),
            "RM2 should favour heterogeneity"
        );
        assert!(estimator.estimate(&plan.chosen) > estimator.estimate(&homo));
    }

    #[test]
    fn ranked_list_is_sorted_and_contains_chosen() {
        let plan = planner(ModelKind::Wnd).plan(2.5, &sample());
        assert!(plan.ranked.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(plan.ranked.iter().any(|(c, _)| c == &plan.chosen));
        assert_eq!(plan.top(10).len(), 10);
    }

    #[test]
    fn larger_budget_never_reduces_the_best_upper_bound() {
        let p = planner(ModelKind::Dien);
        let s = sample();
        let small = p.plan(2.5, &s);
        let large = p.plan(10.0, &s);
        assert!(large.ranked[0].1 >= small.ranked[0].1);
        assert!(large.ranked.len() > small.ranked.len());
    }

    #[test]
    #[should_panic(expected = "cannot afford")]
    fn budget_below_one_base_instance_panics() {
        planner(ModelKind::Ncf).plan(0.3, &sample());
    }

    #[test]
    fn plan_cache_misses_on_a_budget_only_change_and_hits_a_repeated_key() {
        let pool = PoolSpec::new(ec2::paper_pool());
        let mut controller =
            KairosController::with_priors(pool, ModelKind::Rm2, paper_calibration());
        for i in 0..2000u32 {
            controller.observe_query(10 + i % 300);
        }
        let signature = controller.knowledge_signature();
        let mut cache = PlanCache::new();
        // The water-filled split moves a lane's share by tiny amounts: a
        // budget one ulp away is a different key.
        let budget = 2.7f64;
        let nudged = f64::from_bits(budget.to_bits() + 1);
        let first = cache.ranking(&controller, budget).unwrap();
        let moved = cache.ranking(&controller, nudged).unwrap();
        assert_eq!(controller.knowledge_signature(), signature);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert!(!Arc::ptr_eq(&first, &moved));
        // A miss ranks from the exact current knowledge.
        let fresh = controller.ranking(nudged).unwrap().to_plan();
        let moved_plan = moved.to_plan();
        assert_eq!(moved_plan.chosen, fresh.chosen);
        assert!(moved_plan
            .ranked
            .iter()
            .zip(&fresh.ranked)
            .all(|((a, x), (b, y))| a == b && x.to_bits() == y.to_bits()));
        // The same key again is a hit, sharing the cached ranking.
        let again = cache.ranking(&controller, nudged).unwrap();
        assert!(Arc::ptr_eq(&moved, &again));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        // One entry: going back to the first budget misses again.
        cache.ranking(&controller, budget).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
    }

    #[test]
    fn plan_cache_reuses_until_knowledge_or_budget_changes() {
        let pool = PoolSpec::new(ec2::paper_pool());
        let mut controller =
            KairosController::with_priors(pool, ModelKind::Rm2, paper_calibration());
        for i in 0..2000u32 {
            controller.observe_query(10 + i % 300);
        }
        let mut cache = PlanCache::new();
        let first = cache.ranking(&controller, 2.5).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Identical knowledge: the second replan is a pointer clone.
        let second = cache.ranking(&controller, 2.5).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // More observations of the *same* mix leave the quantized signature
        // (band mass in twentieths) unchanged: still a cache hit.
        for i in 0..2000u32 {
            controller.observe_query(10 + i % 300);
        }
        let third = cache.ranking(&controller, 2.5).unwrap();
        assert!(Arc::ptr_eq(&first, &third));
        // A different budget misses.
        let other = cache.ranking(&controller, 5.0).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(cache.misses(), 2);
        // A real mix shift (all-large queries) re-plans.
        for _ in 0..4000 {
            controller.observe_query(900);
        }
        let shifted = cache.ranking(&controller, 5.0).unwrap();
        assert!(!Arc::ptr_eq(&other, &shifted));
        assert_eq!(cache.misses(), 3);
    }
}
