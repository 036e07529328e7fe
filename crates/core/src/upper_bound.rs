//! Throughput upper-bound estimation (paper Sec. 5.2, Eq. 9–15).
//!
//! Evaluating the real throughput of a heterogeneous configuration is
//! expensive (it needs instance allocation and a load ramp), so Kairos ranks
//! configurations by a closed-form *upper bound* on the throughput any query
//! distribution could achieve on them.  The bound splits the query mix at a
//! batch-size cutoff `s` (the largest query the auxiliary type can serve
//! within QoS): a fraction `f` of queries is small enough for the auxiliary
//! instances, the remaining `1-f` must run on base instances at their reduced
//! rate `Q_b^{s+}`.  Whichever side saturates first is the bottleneck.
//!
//! With multiple auxiliary types, the bound optimistically assumes every
//! auxiliary type shares the largest cutoff (`f' = max f_i`), which keeps the
//! estimate an upper bound (Sec. 5.2).

use kairos_models::{
    latency::LatencyTable,
    mlmodel::{spec, ModelKind, ModelSpec},
    Config, PoolSpec,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Inputs of the one-base-type / one-auxiliary-type bound (Eq. 12–13).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SingleAuxInputs {
    /// Number of base instances (`u`).
    pub base_nodes: usize,
    /// Number of auxiliary instances (`v`).
    pub aux_nodes: usize,
    /// Standalone base throughput over the full query mix (`Q_b`), QPS.
    pub q_base: f64,
    /// Base throughput when serving only larger-than-`s` queries (`Q_b^{s+}`), QPS.
    pub q_base_splus: f64,
    /// Auxiliary throughput over QoS-feasible (small) queries (`Q_a`), QPS.
    pub q_aux: f64,
    /// Fraction of queries with batch size at most `s` (`f`).
    pub fraction_small: f64,
}

/// One auxiliary class in the general bound (Eq. 14–15): node count `v_i` and
/// small-query throughput `Q_a^i`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuxClass {
    /// Number of instances of this auxiliary type (`v_i`).
    pub nodes: usize,
    /// Throughput of one instance over queries below the shared cutoff (`Q_a^i`), QPS.
    pub qps: f64,
}

/// Numerical tolerance on the `f` fraction boundaries.
const F_EPS: f64 = 1e-9;

/// Computes the upper bound for one base type and one auxiliary type
/// (Eq. 12 / Eq. 13, which reduce to Eq. 9 / Eq. 11 when `u = v = 1`).
pub fn upper_bound_single(inputs: &SingleAuxInputs) -> f64 {
    let aux = [AuxClass {
        nodes: inputs.aux_nodes,
        qps: inputs.q_aux,
    }];
    upper_bound_general(
        inputs.base_nodes,
        inputs.q_base,
        inputs.q_base_splus,
        &aux,
        inputs.fraction_small,
    )
}

/// Computes the general n-auxiliary-type upper bound (Eq. 14–15).
///
/// * `base_nodes` — `u`, number of base instances.
/// * `q_base` — `Q_b`, base throughput over the full mix.
/// * `q_base_splus` — `Q_b^{s+}`, base throughput over larger-than-cutoff queries.
/// * `aux` — auxiliary classes `(v_i, Q_a^i)`.
/// * `fraction_small` — `f'`, the fraction of queries below the shared cutoff.
pub fn upper_bound_general(
    base_nodes: usize,
    q_base: f64,
    q_base_splus: f64,
    aux: &[AuxClass],
    fraction_small: f64,
) -> f64 {
    for a in aux {
        assert!(a.qps >= 0.0, "auxiliary throughput must be non-negative");
    }
    let aux_total: f64 = aux.iter().map(|a| a.nodes as f64 * a.qps).sum();
    upper_bound_from_aux_total(base_nodes, q_base, q_base_splus, aux_total, fraction_small)
}

/// [`upper_bound_general`] once the auxiliary side is summed: `aux_total`
/// is `Σ v_i · Q_a^i`, accumulated in class order.
fn upper_bound_from_aux_total(
    base_nodes: usize,
    q_base: f64,
    q_base_splus: f64,
    aux_total: f64,
    fraction_small: f64,
) -> f64 {
    assert!(
        q_base >= 0.0 && q_base_splus >= 0.0,
        "throughputs must be non-negative"
    );
    assert!(
        (0.0..=1.0 + F_EPS).contains(&fraction_small),
        "fraction must lie in [0, 1], got {fraction_small}"
    );

    let u = base_nodes as f64;
    let f = fraction_small;

    // Degenerate mixes.
    if f <= F_EPS {
        // Every query is larger than the cutoff: only the base instances can
        // serve, at their large-query rate.
        return u * q_base_splus;
    }
    if f >= 1.0 - F_EPS {
        // Every query fits the auxiliary instances: both sides serve at full
        // rate and simply add up.
        return aux_total + u * q_base;
    }

    // Offload pressure the auxiliary side pushes onto the base side (Eq. 14).
    let offload = aux_total * (1.0 - f) / f;
    let base_capacity = u * q_base_splus;

    if base_capacity <= offload {
        // Base instances are the bottleneck (Eq. 9 / Eq. 12).
        base_capacity / (1.0 - f)
    } else {
        // Auxiliary instances are the bottleneck; the base side has slack to
        // absorb additional (small) queries (Eq. 11 / Eq. 13 / Eq. 15).
        let slack_ratio = if base_capacity > 0.0 {
            (base_capacity - offload) / base_capacity
        } else {
            0.0
        };
        aux_total / f + slack_ratio * u * q_base
    }
}

/// The sample statistics of one candidate shared cutoff `s`: everything in
/// the bound that depends on the batch sample depends on it *only through*
/// `s`, and `s` ranges over at most one value per pool type.  Precomputing
/// these once per estimator makes [`ThroughputEstimator::estimate`]
/// O(types) per configuration instead of O(sample) — the cost that used to
/// dominate ranking a thousand-configuration candidate space, and triply so
/// with one ranking pass per variant lane.  The arithmetic (filter in
/// sample order, sum, divide by count) is exactly the per-call computation
/// it replaces, so every bound is bit-identical.
#[derive(Debug, Clone)]
struct CutoffStats {
    /// The shared cutoff `s` these statistics describe.
    cutoff: u32,
    /// Fraction of the sample with batch size at most `s` (`f'`).
    fraction_small: f64,
    /// Base throughput over larger-than-`s` queries (`Q_b^{s+}`), QPS.
    q_base_splus: f64,
    /// Per-type throughput over at-most-`s` queries (`Q_a^i`), QPS; indexed
    /// by pool type (0.0 where no sample entry qualifies).
    aux_qps: Vec<f64>,
}

/// Estimates upper bounds for whole configurations, deriving the `Q` and `f`
/// parameters from latency profiles and an observed batch-size sample —
/// exactly the information Kairos gathers online (learned latencies plus the
/// query monitor window).
#[derive(Debug, Clone)]
pub struct ThroughputEstimator {
    pool: PoolSpec,
    model: ModelSpec,
    latency: LatencyTable,
    batch_sample: Vec<u32>,
    /// Index of the pool's base type.
    base_index: usize,
    /// QoS cutoff per pool type, precomputed (see [`Self::cutoff`]).
    cutoffs: Vec<Option<u32>>,
    /// Base throughput over the full mix (`Q_b`), QPS, precomputed.
    q_base: f64,
    /// Sample statistics for every distinct auxiliary cutoff value.
    cutoff_stats: Vec<CutoffStats>,
}

impl ThroughputEstimator {
    /// Creates an estimator.
    ///
    /// # Panics
    /// Panics if the batch sample is empty or the latency table misses a
    /// (model, type) pair used by the pool.
    pub fn new(
        pool: PoolSpec,
        model_kind: ModelKind,
        latency: LatencyTable,
        batch_sample: Vec<u32>,
    ) -> Self {
        assert!(!batch_sample.is_empty(), "batch sample must not be empty");
        let model = spec(model_kind);
        for t in pool.types() {
            latency.expect(model_kind, &t.name);
        }
        let base_index = pool.base_index();
        let mut est = Self {
            pool,
            model,
            latency,
            batch_sample,
            base_index,
            cutoffs: Vec::new(),
            q_base: 0.0,
            cutoff_stats: Vec::new(),
        };
        est.cutoffs = (0..est.pool.num_types())
            .map(|i| est.compute_cutoff(i))
            .collect();
        est.q_base = est
            .mean_latency_over(base_index, |_| true)
            .map(|ms| 1000.0 / ms)
            .unwrap_or(0.0);
        // A configuration's shared cutoff is the max over its auxiliary
        // types' cutoffs, so it can only take one of these values.
        let mut distinct: Vec<u32> = est
            .cutoffs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != base_index)
            .filter_map(|(_, c)| *c)
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        est.cutoff_stats = distinct
            .into_iter()
            .map(|s| CutoffStats {
                cutoff: s,
                fraction_small: est.batch_sample.iter().filter(|&&b| b <= s).count() as f64
                    / est.batch_sample.len() as f64,
                q_base_splus: est
                    .mean_latency_over(base_index, |b| b > s)
                    .map(|ms| 1000.0 / ms)
                    .unwrap_or(est.q_base),
                aux_qps: (0..est.pool.num_types())
                    .map(|idx| {
                        est.mean_latency_over(idx, |b| b <= s)
                            .map(|ms| 1000.0 / ms)
                            .unwrap_or(0.0)
                    })
                    .collect(),
            })
            .collect();
        assert!(
            est.cutoff_stats
                .iter()
                .all(|cs| cs.aux_qps.iter().all(|&qps| qps >= 0.0)),
            "auxiliary throughput must be non-negative"
        );
        est
    }

    /// The pool this estimator describes.
    pub fn pool(&self) -> &PoolSpec {
        &self.pool
    }

    /// The served model.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// QoS cutoff `s_i` of an instance type: largest batch it can serve within
    /// QoS (None if it cannot even serve a single-request query).
    pub fn cutoff(&self, type_index: usize) -> Option<u32> {
        self.cutoffs[type_index]
    }

    /// Derives a type's QoS cutoff from its latency profile (the
    /// construction-time computation behind [`Self::cutoff`]).
    fn compute_cutoff(&self, type_index: usize) -> Option<u32> {
        let name = &self.pool.types()[type_index].name;
        self.latency
            .expect(self.model.kind, name)
            .max_batch_within(self.model.qos_ms)
            .map(|b| b.min(self.model.max_batch_size))
    }

    /// Mean service latency (ms) of a type over the sample entries selected by
    /// `filter`; `None` when no entry matches.
    fn mean_latency_over<F: Fn(u32) -> bool>(&self, type_index: usize, filter: F) -> Option<f64> {
        let name = &self.pool.types()[type_index].name;
        let profile = self.latency.expect(self.model.kind, name);
        // Counted, then summed in sample order: no buffer per call.
        let selected = || self.batch_sample.iter().copied().filter(|&b| filter(b));
        let n = selected().count();
        (n > 0).then(|| selected().map(|b| profile.latency_ms(b)).sum::<f64>() / n as f64)
    }

    /// Estimates the throughput upper bound (QPS) of a configuration.
    /// A wrapper over [`Self::estimate_counts`].
    pub fn estimate(&self, config: &Config) -> f64 {
        self.estimate_counts(config.counts())
    }

    /// Estimates the throughput upper bound (QPS) of the configuration with
    /// per-type instance `counts` (aligned with the pool's type order).
    ///
    /// O(types) per call and allocation-free: every sample-dependent
    /// quantity in the bound depends on the sample only through the shared
    /// cutoff, and the statistics of every possible cutoff are precomputed
    /// at construction (`CutoffStats`).  The auxiliary side is summed in
    /// type order, exactly as [`upper_bound_general`] sums its classes, so
    /// the bound is bit-identical to building the `AuxClass` list.
    pub fn estimate_counts(&self, counts: &[usize]) -> f64 {
        assert_eq!(counts.len(), self.cutoffs.len(), "config/pool mismatch");
        let base_index = self.base_index;
        let u = counts[base_index];

        // Shared cutoff: the largest s over the auxiliary types present in
        // the configuration (paper's optimistic simplification for
        // multiple auxiliary types).
        let mut s_max: Option<u32> = None;
        for (idx, &count) in counts.iter().enumerate() {
            if idx == base_index || count == 0 {
                continue;
            }
            if let Some(s) = self.cutoffs[idx] {
                s_max = Some(s_max.map_or(s, |m| m.max(s)));
            }
        }

        let Some(s_max) = s_max else {
            // No usable auxiliary instances: the bound is the homogeneous rate.
            return u as f64 * self.q_base;
        };

        let stats = self
            .cutoff_stats
            .iter()
            .find(|cs| cs.cutoff == s_max)
            .expect("every auxiliary cutoff has precomputed statistics");

        // Auxiliary classes: throughput over the small-query mass.
        let aux_total: f64 = counts
            .iter()
            .enumerate()
            .filter(|&(idx, &count)| idx != base_index && count > 0 && self.cutoffs[idx].is_some())
            .map(|(idx, &count)| count as f64 * stats.aux_qps[idx])
            .sum();

        upper_bound_from_aux_total(
            u,
            self.q_base,
            stats.q_base_splus,
            aux_total,
            stats.fraction_small,
        )
    }

    /// Ranks configurations by their upper bound, highest first.
    ///
    /// Each configuration's bound is independent of the others, so the
    /// estimates are computed as a rayon fan-out over the candidates (the
    /// planner ranks on the order of a thousand configurations per pass,
    /// paper Sec. 5.2).
    pub fn rank_configs(&self, configs: &[Config]) -> Vec<(Config, f64)> {
        let mut ranked: Vec<(Config, f64)> = configs
            .par_iter()
            .map(|c| (c.clone(), self.estimate(c)))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite bounds"));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::{calibration::paper_calibration, ec2};

    /// Fig. 7, Scenario 1: the base instance is the bottleneck.
    #[test]
    fn figure7_scenario1() {
        let inputs = SingleAuxInputs {
            base_nodes: 1,
            aux_nodes: 1,
            q_base: 100.0,
            q_base_splus: 90.0,
            q_aux: 150.0,
            fraction_small: 0.6,
        };
        let ub = upper_bound_single(&inputs);
        assert!((ub - 225.0).abs() < 1e-9, "expected 225, got {ub}");
    }

    /// Fig. 7, Scenario 2: the auxiliary instance is the bottleneck and the
    /// base contributes slack throughput.
    #[test]
    fn figure7_scenario2() {
        let inputs = SingleAuxInputs {
            base_nodes: 1,
            aux_nodes: 1,
            q_base: 100.0,
            q_base_splus: 90.0,
            q_aux: 140.0,
            fraction_small: 0.7,
        };
        let ub = upper_bound_single(&inputs);
        // Q_a / f = 200, slack = (90 - 60) / 90 * 100 = 33.33 -> 233.33.
        assert!((ub - 233.333333).abs() < 1e-3, "expected 233.3, got {ub}");
    }

    #[test]
    fn no_auxiliary_reduces_to_homogeneous_rate() {
        let ub = upper_bound_general(3, 50.0, 20.0, &[], 0.5);
        assert!((ub - 150.0).abs() < 1e-9);
    }

    #[test]
    fn no_base_and_large_queries_present_gives_zero() {
        let aux = [AuxClass {
            nodes: 5,
            qps: 100.0,
        }];
        let ub = upper_bound_general(0, 0.0, 0.0, &aux, 0.8);
        assert_eq!(ub, 0.0);
    }

    #[test]
    fn all_small_queries_adds_both_sides() {
        let aux = [AuxClass {
            nodes: 2,
            qps: 80.0,
        }];
        let ub = upper_bound_general(1, 120.0, 60.0, &aux, 1.0);
        assert!((ub - (160.0 + 120.0)).abs() < 1e-9);
    }

    #[test]
    fn all_large_queries_uses_only_base_splus_rate() {
        let aux = [AuxClass {
            nodes: 9,
            qps: 500.0,
        }];
        let ub = upper_bound_general(2, 120.0, 70.0, &aux, 0.0);
        assert!((ub - 140.0).abs() < 1e-9);
    }

    #[test]
    fn bound_is_monotone_in_node_counts() {
        let base = SingleAuxInputs {
            base_nodes: 1,
            aux_nodes: 1,
            q_base: 100.0,
            q_base_splus: 80.0,
            q_aux: 150.0,
            fraction_small: 0.7,
        };
        let more_base = SingleAuxInputs {
            base_nodes: 2,
            ..base
        };
        let more_aux = SingleAuxInputs {
            aux_nodes: 2,
            ..base
        };
        assert!(upper_bound_single(&more_base) >= upper_bound_single(&base));
        assert!(upper_bound_single(&more_aux) >= upper_bound_single(&base));
    }

    fn estimator(model: ModelKind) -> ThroughputEstimator {
        let pool = PoolSpec::new(ec2::paper_pool());
        // A deterministic, production-like sample: 80 % small, 20 % large.
        let mut sample = Vec::new();
        for i in 0..200u32 {
            sample.push(10 + (i % 40) * 5); // 10..205
        }
        for i in 0..50u32 {
            sample.push(600 + (i % 10) * 40); // 600..960
        }
        ThroughputEstimator::new(pool, model, paper_calibration(), sample)
    }

    #[test]
    fn estimator_cutoffs_follow_calibration() {
        let est = estimator(ModelKind::Wnd);
        // Base type has no relevance for cutoff here, but must exist.
        assert!(est.cutoff(0).unwrap() >= 1000);
        let c1 = est.cutoff(1).unwrap();
        let c2 = est.cutoff(2).unwrap();
        assert!(c1 > c2, "c5n should sustain larger batches than r5n");
    }

    #[test]
    fn heterogeneous_config_bound_exceeds_homogeneous_bound_for_rm2() {
        let est = estimator(ModelKind::Rm2);
        let homo = est.estimate(&Config::new(vec![4, 0, 0, 0]));
        let hetero = est.estimate(&Config::new(vec![3, 1, 3, 0]));
        assert!(
            hetero > homo,
            "heterogeneous bound {hetero} should exceed homogeneous bound {homo}"
        );
    }

    #[test]
    fn adding_instances_never_lowers_the_estimated_bound() {
        let est = estimator(ModelKind::Dien);
        let small = Config::new(vec![2, 0, 1, 0]);
        for type_index in 0..4 {
            let bigger = small.with_one_more(type_index);
            assert!(
                est.estimate(&bigger) + 1e-9 >= est.estimate(&small),
                "adding type {type_index} lowered the bound"
            );
        }
    }

    /// The estimate built the way it was before `estimate_counts`: an
    /// `AuxClass` list summed by [`upper_bound_general`].
    fn estimate_via_aux_classes(est: &ThroughputEstimator, config: &Config) -> f64 {
        let base_index = est.pool.base_index();
        let u = config.count(base_index);
        let s_max = config
            .counts()
            .iter()
            .enumerate()
            .filter(|&(idx, &count)| idx != base_index && count > 0)
            .filter_map(|(idx, _)| est.cutoffs[idx])
            .max();
        let Some(s_max) = s_max else {
            return u as f64 * est.q_base;
        };
        let stats = est
            .cutoff_stats
            .iter()
            .find(|cs| cs.cutoff == s_max)
            .unwrap();
        let aux: Vec<AuxClass> = config
            .counts()
            .iter()
            .enumerate()
            .filter(|&(idx, &count)| idx != base_index && count > 0 && est.cutoffs[idx].is_some())
            .map(|(idx, &count)| AuxClass {
                nodes: count,
                qps: stats.aux_qps[idx],
            })
            .collect();
        upper_bound_general(
            u,
            est.q_base,
            stats.q_base_splus,
            &aux,
            stats.fraction_small,
        )
    }

    #[test]
    fn estimate_counts_is_bitwise_the_aux_class_formulation() {
        let pool = PoolSpec::new(ec2::paper_pool());
        for model in ModelKind::ALL {
            let est = estimator(model);
            for budget in [0.6, 2.7, 5.0] {
                let configs = kairos_models::enumerate_configs(
                    &pool,
                    &kairos_models::EnumerationOptions::with_budget(budget),
                );
                for config in &configs {
                    assert_eq!(
                        est.estimate(config).to_bits(),
                        estimate_via_aux_classes(&est, config).to_bits(),
                        "{model:?} {config}"
                    );
                }
            }
        }
    }

    #[test]
    fn mean_latency_is_bitwise_the_collected_mean() {
        let est = estimator(ModelKind::Dien);
        for type_index in 0..est.pool.num_types() {
            let profile = est
                .latency
                .expect(ModelKind::Dien, &est.pool.types()[type_index].name);
            for cutoff in [0, 10, 77, 205, 700, 2000] {
                let selected: Vec<f64> = est
                    .batch_sample
                    .iter()
                    .filter(|&&b| b <= cutoff)
                    .map(|&b| profile.latency_ms(b))
                    .collect();
                let collected = (!selected.is_empty())
                    .then(|| selected.iter().sum::<f64>() / selected.len() as f64);
                let mean = est.mean_latency_over(type_index, |b| b <= cutoff);
                assert_eq!(mean.map(f64::to_bits), collected.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn rank_configs_is_sorted_descending() {
        let est = estimator(ModelKind::Ncf);
        let configs = vec![
            Config::new(vec![1, 0, 0, 0]),
            Config::new(vec![2, 0, 3, 0]),
            Config::new(vec![1, 1, 1, 1]),
        ];
        let ranked = est.rank_configs(&configs);
        assert_eq!(ranked.len(), 3);
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    #[should_panic(expected = "batch sample")]
    fn estimator_rejects_empty_sample() {
        let pool = PoolSpec::new(ec2::paper_pool());
        ThroughputEstimator::new(pool, ModelKind::Ncf, paper_calibration(), vec![]);
    }
}
