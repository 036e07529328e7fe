//! The Kairos query-distribution mechanism (paper Sec. 5.1).
//!
//! At every scheduling instant the central controller matches queued queries
//! to instances by solving a min-cost bipartite matching over the
//! heterogeneity-weighted completion-time matrix, with QoS-violating pairs
//! penalized (Eq. 4–8).  Latencies are learned online: the scheduler starts
//! with (optional) priors, records every completion, and quickly converges to
//! a lookup table (Sec. 5.1 "Remarks").
//!
//! This module implements that policy against the [`kairos_sim::Scheduler`]
//! interface so it can be dropped into the discrete-event engine alongside the
//! baselines.

use crate::coefficient::heterogeneity_coefficients;
use crate::lmatrix::{LMatrix, DEFAULT_XI};
use kairos_assignment::JvScratch;
use kairos_models::{
    latency::LatencyTable, mlmodel::ModelKind, predictor::PredictorBank, MAX_BATCH_SIZE,
};
use kairos_sim::{Dispatch, InstanceView, Scheduler, SchedulingContext};
use kairos_workload::{ModelId, Query, TimeUs};
use std::sync::Arc;

/// The Kairos matching-based query distributor.
#[derive(Debug, Clone)]
pub struct KairosScheduler {
    /// Online latency predictors, one per instance type.
    predictors: PredictorBank,
    /// Interned pool type names indexed by type index (from
    /// [`Scheduler::bind_types`]), so completion-time learning resolves the
    /// predictor without receiving a string from the engine.
    type_names: Vec<Arc<str>>,
    /// Noise-safeguard factor ξ applied to the QoS target (default 0.98).
    xi: f64,
    /// Largest batch size used to compute heterogeneity coefficients.
    reference_batch: u32,
    /// Number of matching rounds performed (exposed for tests/diagnostics).
    rounds: u64,
    /// Buffers reused by every round.
    scratch: RoundScratch,
}

/// The buffers of one matching round, kept across rounds so a round in
/// steady state allocates nothing.
#[derive(Debug, Clone, Default)]
struct RoundScratch {
    matrix: LMatrix,
    jv: JvScratch,
    /// Distinct type names of the round's columns, in first-seen order.
    types: Vec<Arc<str>>,
    /// Largest-query latency per entry of `types`.
    latencies: Vec<f64>,
    /// Cluster instance index of every column.
    instances: Vec<usize>,
    /// Matched (query, column) pairs of a transposed solve.
    pairs: Vec<(usize, usize)>,
    /// Per-round prediction memo, `[slot * MEMO_BATCHES + batch]`: a
    /// prediction and the round stamp it was computed in.  Predictors only
    /// change between rounds, so within a round every query of the same
    /// batch size and type gets the same value.
    memo: Vec<(u64, f64)>,
    /// Stamp of the current round in `memo`.
    stamp: u64,
}

/// Batch sizes `0..MEMO_BATCHES` have a slot in the prediction memo; larger
/// ones are predicted directly.
const MEMO_BATCHES: usize = MAX_BATCH_SIZE as usize + 1;

impl Default for KairosScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl KairosScheduler {
    /// Creates a scheduler with no prior latency knowledge: it learns latency
    /// entirely online, as in the paper's evaluation.
    pub fn new() -> Self {
        Self {
            predictors: PredictorBank::new(),
            type_names: Vec::new(),
            xi: DEFAULT_XI,
            reference_batch: MAX_BATCH_SIZE,
            rounds: 0,
            scratch: RoundScratch::default(),
        }
    }

    /// Creates a scheduler whose predictors are seeded from a latency table
    /// (e.g. profiles measured for a sibling deployment).  Kairos does not
    /// need this, but it is useful for ablations isolating the effect of the
    /// online-learning warm-up.
    pub fn with_priors(model: ModelKind, table: &LatencyTable) -> Self {
        let mut scheduler = Self::new();
        for (m, name, profile) in table.iter() {
            if m == model {
                // Seed the predictor with two synthetic observations so the
                // linear fit starts from the prior profile.
                scheduler.predictors.observe(name, 1, profile.latency_ms(1));
                scheduler.predictors.observe(
                    name,
                    MAX_BATCH_SIZE,
                    profile.latency_ms(MAX_BATCH_SIZE),
                );
            }
        }
        scheduler
    }

    /// Overrides the ξ noise-safeguard factor.
    pub fn with_xi(mut self, xi: f64) -> Self {
        assert!(xi > 0.0 && xi <= 1.0, "xi must lie in (0, 1]");
        self.xi = xi;
        self
    }

    /// Number of matching rounds performed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Read access to the online predictors (for diagnostics and tests).
    pub fn predictors(&self) -> &PredictorBank {
        &self.predictors
    }

    /// One matching round of `queued` against the accepting instances among
    /// `views`, appending the dispatches to `out` in query order.  Query
    /// indices refer to `queued`; instance indices are the views' own.
    pub(crate) fn match_round<'v>(
        &mut self,
        now_us: TimeUs,
        queued: &[Query],
        views: impl Iterator<Item = &'v InstanceView>,
        qos_us: u64,
        out: &mut Vec<Dispatch>,
    ) {
        if queued.is_empty() {
            return;
        }
        let Self {
            predictors,
            xi,
            reference_batch,
            rounds,
            scratch: s,
            ..
        } = self;
        let qos_ms = qos_us as f64 / 1000.0;
        s.matrix.begin(qos_ms, *xi);
        s.types.clear();
        s.instances.clear();

        // Instance columns.  Draining and retired instances take no new
        // work: they are left out of the matching entirely (the engine would
        // reject such dispatches).  Types are numbered as first seen, and
        // the base type's number anchors the coefficients.
        let mut base_slot = 0usize;
        for inst in views.filter(|v| v.accepting) {
            let slot = match s.types.iter().position(|t| *t == inst.type_name) {
                Some(slot) => slot,
                None => {
                    if inst.is_base {
                        base_slot = s.types.len();
                    }
                    s.types.push(inst.type_name.clone());
                    s.types.len() - 1
                }
            };
            s.matrix
                .push_column(inst.remaining_us(now_us) as f64 / 1000.0, slot);
            s.instances.push(inst.instance_index);
        }
        if s.instances.is_empty() {
            return;
        }
        *rounds += 1;

        // Query rows: accumulated wait (W_i).
        for q in queued {
            s.matrix
                .push_query(q.waiting_time_us(now_us) as f64 / 1000.0);
        }

        // Per-type heterogeneity coefficients and predictions, one per
        // (query, type).  Cold-start optimism: while a type has not produced
        // enough completions for a latency fit, its predictions are
        // placeholder values, so a "predicted violation" there carries no
        // information.  Treating such pairs as feasible lets queries flow
        // immediately, which is what makes the online learning converge
        // within the first few queries instead of stalling the queue
        // (Sec. 5.1 "Kairos starts with a linear model but does not rely on
        // the model accuracy").
        s.latencies.clear();
        s.latencies.extend(
            s.types
                .iter()
                .map(|t| predictors.predict(t, *reference_batch).max(1e-6)),
        );
        let coefficients = heterogeneity_coefficients(&s.latencies, base_slot);
        s.stamp += 1;
        let stamp = s.stamp;
        if s.memo.len() < s.types.len() * MEMO_BATCHES {
            s.memo.resize(s.types.len() * MEMO_BATCHES, (0, 0.0));
        }
        for (slot, (t, &coefficient)) in s.types.iter().zip(&coefficients).enumerate() {
            let predictor = predictors.get(t);
            let fitted = predictor.is_some_and(|p| p.has_fit());
            let predict = |batch: u32| {
                predictor
                    .map_or(1.0 + batch as f64, |p| p.predict(batch))
                    .max(1e-3)
            };
            let memo = &mut s.memo[slot * MEMO_BATCHES..][..MEMO_BATCHES];
            s.matrix.push_type(
                coefficient,
                fitted,
                queued
                    .iter()
                    .map(|q| match memo.get_mut(q.batch_size as usize) {
                        Some(hit) if hit.0 == stamp => hit.1,
                        Some(miss) => {
                            *miss = (stamp, predict(q.batch_size));
                            miss.1
                        }
                        None => predict(q.batch_size),
                    }),
            );
        }
        s.matrix.build();

        let (costs, rows, cols) = s.matrix.solver_costs();
        let Ok(matched) = s.jv.solve(costs, rows, cols) else {
            return;
        };
        s.pairs.clear();
        if s.matrix.transposed() {
            s.pairs
                .extend(matched.iter().enumerate().map(|(j, &i)| (i, j)));
            s.pairs.sort_unstable();
        } else {
            s.pairs.extend(matched.iter().copied().enumerate());
        }
        for &(query_index, column) in &s.pairs {
            // Dispatch feasible pairs immediately.  A pair predicted to
            // violate QoS is held back for the next round while the query
            // still has a chance of meeting its target elsewhere; once the
            // query is doomed anyway (its wait alone exceeds the target) it is
            // dispatched regardless so the queue cannot grow without bound.
            if s.matrix.is_feasible(query_index, column)
                || s.matrix.waited_ms(query_index) >= qos_ms
            {
                out.push(Dispatch {
                    query_index,
                    instance_index: s.instances[column],
                });
            }
        }
    }
}

impl Scheduler for KairosScheduler {
    fn name(&self) -> &'static str {
        "kairos"
    }

    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> Vec<Dispatch> {
        let mut out = Vec::new();
        self.schedule_into(ctx, &mut out);
        out
    }

    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        self.match_round(
            ctx.now_us,
            ctx.queued,
            ctx.instances.iter(),
            ctx.qos_us,
            out,
        );
    }

    fn bind_types(&mut self, type_names: &[Arc<str>]) {
        self.type_names = type_names.to_vec();
    }

    fn on_completion(
        &mut self,
        type_index: usize,
        _model: ModelId,
        batch_size: u32,
        service_ms: f64,
    ) {
        // A KairosScheduler instance serves one model's queries (the
        // multi-model facade routes completions per model), so the model tag
        // does not partition the predictors here.
        if service_ms <= 0.0 {
            return;
        }
        if let Some(name) = self.type_names.get(type_index) {
            self.predictors.observe(name, batch_size, service_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_models::{calibration::paper_calibration, ec2, Config, PoolSpec};
    use kairos_sim::{engine::run_trace, IdleIndex, SimulationOptions};
    use kairos_workload::TraceSpec;

    fn view(
        idx: usize,
        type_index: usize,
        name: &str,
        is_base: bool,
        free_at: u64,
    ) -> InstanceView {
        InstanceView {
            instance_index: idx,
            type_index,
            type_name: name.into(),
            model: ModelId::DEFAULT,
            is_base,
            accepting: true,
            free_at_us: free_at,
            backlog: usize::from(free_at > 0),
        }
    }

    /// Two-instance, four-query scenario shaped after Fig. 5: the large
    /// high-speedup queries must land on the GPU and the small ones on the
    /// CPU, which FCFS would not do.
    #[test]
    fn prioritizes_high_speedup_queries_on_powerful_instances() {
        let mut kairos = KairosScheduler::with_priors(ModelKind::Wnd, &paper_calibration());
        let queued = vec![
            Query::new(0, 900, 0), // large: only the GPU can meet QoS
            Query::new(1, 30, 0),  // small: fine anywhere
        ];
        let instances = vec![
            view(0, 2, "r5n.large", false, 0),
            view(1, 0, "g4dn.xlarge", true, 0),
        ];
        let idle = IdleIndex::from_views(&instances, 0);
        let ctx = SchedulingContext {
            now_us: 0,
            queued: &queued,
            instances: &instances,
            idle: &idle,
            qos_us: 25_000,
            qos_by_model: &[],
        };
        let plan = kairos.schedule(&ctx);
        assert_eq!(plan.len(), 2);
        let large = plan.iter().find(|d| d.query_index == 0).unwrap();
        let small = plan.iter().find(|d| d.query_index == 1).unwrap();
        assert_eq!(large.instance_index, 1, "large query must go to the GPU");
        assert_eq!(
            small.instance_index, 0,
            "small query should use the cheap CPU"
        );
    }

    #[test]
    fn holds_back_queries_that_would_violate_qos_prematurely() {
        let mut kairos = KairosScheduler::with_priors(ModelKind::Wnd, &paper_calibration());
        // Only a slow CPU is available and the query is large: dispatching it
        // would burn the instance for a guaranteed violation, so Kairos waits.
        let queued = vec![Query::new(0, 900, 0)];
        let instances = vec![view(0, 2, "r5n.large", false, 0)];
        let idle = IdleIndex::from_views(&instances, 0);
        let ctx = SchedulingContext {
            now_us: 0,
            queued: &queued,
            instances: &instances,
            idle: &idle,
            qos_us: 25_000,
            qos_by_model: &[],
        };
        assert!(kairos.schedule(&ctx).is_empty());

        // Once the query is already doomed (waited past the target), it is
        // dispatched anyway to clear the queue.
        let doomed = vec![Query::new(0, 900, 0)];
        let ctx = SchedulingContext {
            now_us: 30_000,
            queued: &doomed,
            instances: &instances,
            idle: &idle,
            qos_us: 25_000,
            qos_by_model: &[],
        };
        assert_eq!(kairos.schedule(&ctx).len(), 1);
    }

    #[test]
    fn learns_latency_online_from_completions() {
        let mut kairos = KairosScheduler::new();
        assert_eq!(kairos.predictors().total_observations(), 0);
        kairos.bind_types(&["g4dn.xlarge".into(), "r5n.large".into()]);
        kairos.on_completion(0, ModelId::DEFAULT, 100, 5.6);
        kairos.on_completion(0, ModelId::DEFAULT, 500, 12.0);
        // An unbound type index is ignored rather than misattributed.
        kairos.on_completion(7, ModelId::DEFAULT, 100, 3.0);
        assert_eq!(kairos.predictors().total_observations(), 2);
        assert!(kairos.predictors().get("g4dn.xlarge").unwrap().has_fit());
    }

    #[test]
    fn end_to_end_simulation_meets_qos_under_light_load() {
        // No priors: the first few large queries can be mispredicted while the
        // scheduler learns latency online (the paper includes this warm-up
        // overhead too), so the tolerance is looser than the steady-state 1 %.
        let pool = PoolSpec::new(ec2::paper_pool());
        let service = kairos_sim::ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let trace = TraceSpec::production(60.0, 2.0, 15).generate();
        let config = Config::new(vec![1, 0, 2, 0]);
        let mut kairos = KairosScheduler::new();
        let report = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut kairos,
            &SimulationOptions::default(),
        );
        assert!(
            report.meets_qos(0.06),
            "violation fraction {}",
            report.violation_fraction()
        );
        assert!(report.completed() > 0);

        // With latency priors the warm-up disappears and the strict
        // 99th-percentile target is met.
        let mut seeded = KairosScheduler::with_priors(ModelKind::Wnd, &paper_calibration());
        let report = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut seeded,
            &SimulationOptions::default(),
        );
        assert!(
            report.meets_qos(0.01),
            "violation fraction {}",
            report.violation_fraction()
        );
    }

    #[test]
    fn outperforms_fcfs_on_a_mixed_load() {
        // Under a load that saturates the pool, Kairos's matching should yield
        // at least as much goodput as naive FCFS on the same configuration.
        let pool = PoolSpec::new(ec2::paper_pool());
        let service = kairos_sim::ServiceSpec::new(ModelKind::Wnd, paper_calibration());
        let trace = TraceSpec::production(250.0, 1.5, 13).generate();
        let config = Config::new(vec![1, 0, 3, 0]);

        let mut kairos = KairosScheduler::with_priors(ModelKind::Wnd, &paper_calibration());
        let kairos_report = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut kairos,
            &SimulationOptions::default(),
        );
        let mut fcfs = kairos_sim::FcfsScheduler::new();
        let fcfs_report = run_trace(
            &pool,
            &config,
            &service,
            &trace,
            &mut fcfs,
            &SimulationOptions::default(),
        );

        assert!(
            kairos_report.goodput_qps() >= fcfs_report.goodput_qps() * 0.95,
            "kairos {} vs fcfs {}",
            kairos_report.goodput_qps(),
            fcfs_report.goodput_qps()
        );
    }

    #[test]
    #[should_panic(expected = "xi")]
    fn with_xi_rejects_out_of_range() {
        let _ = KairosScheduler::new().with_xi(0.0);
    }
}
