//! The scheduling-policy interface of the simulated serving system.
//!
//! The central controller invokes a [`Scheduler`] every time the system state
//! changes (a query arrives or an instance completes a query).  The scheduler
//! sees the central queue of not-yet-dispatched queries and a view of every
//! instance (its type and when it will next be free) and returns a set of
//! (query, instance) dispatch decisions.  Dispatched queries are appended to
//! the target instance's local FIFO queue, which allows both
//! central-queue policies (Kairos, Ribbon, DRS — they only dispatch to idle
//! instances) and per-instance-queue policies (Clockwork) to be expressed.
//!
//! # Hot-path contract
//!
//! The engine invokes the scheduler once per event, so this interface is the
//! innermost loop of every capacity probe.  Three design points keep it
//! allocation-free in steady state:
//!
//! * [`Scheduler::schedule_into`] writes dispatches into a caller-owned
//!   buffer that the engine reuses across rounds.  Policies with internal
//!   scratch (the FCFS baseline here, the `kairos-baselines` schedulers)
//!   override it; the default delegates to [`Scheduler::schedule`] so simple
//!   or test policies only implement the allocating form.
//! * [`SchedulingContext::idle`] is an engine-maintained [`IdleIndex`] of
//!   the immediately dispatchable instances: one list per `(model, class)`,
//!   class being the pool's base type or an auxiliary type, each sorted by
//!   instance index (highest first).  Idle-dispatch policies read their
//!   query's model lists directly ([`IdleIndex::of`]) and take
//!   from them with [`IdleCursors`], so a round's cost follows the queries
//!   it considers and the dispatches it makes — no scan, copy or sort of
//!   the cluster's idle set.
//!   Instances still provisioning are not in the index; their views carry
//!   the provisioning boundary as `free_at_us`.
//! * [`Scheduler::on_completion`] identifies the serving instance by its
//!   *pool type index* and the served model by its [`ModelId`] index, not
//!   strings, so completion-time learning needs no string hashing;
//!   [`Scheduler::bind_types`] / [`Scheduler::bind_models`] hand policies
//!   the index → name / index → model mappings once per run.
//!
//! # Multi-model scheduling
//!
//! Every [`InstanceView`] carries the [`ModelId`] its instance hosts, and
//! the context exposes the per-model QoS table
//! ([`SchedulingContext::qos_for`]).  The engine *rejects* dispatches whose
//! query model differs from the target instance's binding, so well-behaved
//! policies must pair queries with same-model instances only.

use kairos_models::mlmodel::ModelKind;
use kairos_workload::{ModelId, Query, TimeUs};
use std::sync::Arc;

/// Snapshot of one simulated instance as seen by a scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceView {
    /// Index of the instance within the cluster.
    pub instance_index: usize,
    /// Index of the instance's type within the pool specification.
    pub type_index: usize,
    /// Cloud name of the instance type (e.g. `"g4dn.xlarge"`).  Interned per
    /// type: cloning the view copies a pointer, not the string.
    pub type_name: Arc<str>,
    /// The model this instance hosts.  The engine rejects dispatches whose
    /// query model differs from this binding.
    pub model: ModelId,
    /// Whether the instance's type is the pool's base type.
    pub is_base: bool,
    /// Whether the instance accepts new dispatches.  `false` for draining and
    /// retired instances; the engine silently drops dispatches aimed at them,
    /// so well-behaved policies should skip non-accepting views.
    pub accepting: bool,
    /// Virtual time at which the instance will have drained its current query
    /// and everything already sitting in its local queue.  For an idle
    /// instance this is the time it went idle — some value `<= now` (or its
    /// provisioning boundary when the instance has not come online yet), so
    /// read availability through [`Self::is_idle`] / [`Self::remaining_us`]
    /// or clamp with `free_at_us.max(now_us)` rather than comparing raw idle
    /// values (the engine's hot path deliberately skips re-stamping every
    /// idle view to `now` each round).
    ///
    /// Only **accepting** views carry an exact value on the engine's hot
    /// path: views of retired instances are not refreshed (policies must not
    /// dispatch to them, so their projected free time is meaningless).
    pub free_at_us: TimeUs,
    /// Number of queries currently queued locally at the instance (including
    /// the one being served).
    pub backlog: usize,
}

impl InstanceView {
    /// Whether the instance is idle and dispatchable right now.  Draining and
    /// retired instances are never idle in this sense.
    pub fn is_idle(&self, now_us: TimeUs) -> bool {
        self.accepting && self.backlog == 0 && self.free_at_us <= now_us
    }

    /// Remaining busy time from `now` until the instance frees up.
    pub fn remaining_us(&self, now_us: TimeUs) -> TimeUs {
        self.free_at_us.saturating_sub(now_us)
    }
}

/// Everything a scheduler can see when making a dispatch decision.
#[derive(Debug)]
pub struct SchedulingContext<'a> {
    /// Current virtual time.
    pub now_us: TimeUs,
    /// Queries waiting in the central queue, in arrival order.
    pub queued: &'a [Query],
    /// View of every instance in the cluster.
    pub instances: &'a [InstanceView],
    /// The *dispatchable* backlog-free instances usable right now —
    /// accepting, nothing serving, nothing queued locally, provisioning
    /// boundary passed — as one list per `(model, class)`, each sorted by
    /// instance index, highest first (see [`IdleIndex`]).
    ///
    /// Maintained incrementally by the engine so policies that only dispatch
    /// to idle instances never scan the full view array.  Hand-built
    /// contexts derive it with [`IdleIndex::from_views`].
    pub idle: &'a IdleIndex,
    /// QoS target of the primary ([`ModelId::DEFAULT`]) model, in
    /// microseconds.  Single-model policies may read this directly;
    /// multi-model policies should resolve per query via
    /// [`Self::qos_for`].
    pub qos_us: u64,
    /// Per-model QoS targets in microseconds, indexed by [`ModelId`].  May
    /// be empty in hand-built single-model contexts, in which case
    /// [`Self::qos_for`] falls back to [`Self::qos_us`].
    pub qos_by_model: &'a [u64],
}

impl SchedulingContext<'_> {
    /// QoS target of a model in microseconds — an array index, never a
    /// string lookup.  Falls back to [`Self::qos_us`] when the table does
    /// not cover the model (hand-built single-model contexts).
    #[inline]
    pub fn qos_for(&self, model: ModelId) -> u64 {
        self.qos_by_model
            .get(model.index())
            .copied()
            .unwrap_or(self.qos_us)
    }
}

/// Reference ordering of the dispatchable backlog-free instances of a view
/// array, sorted by `(free_at_us, instance_index)`: the usable ones (idle
/// since some time `<= now`, which the reference views clamp to `now`) in
/// instance-index order, then the still-provisioning ones by boundary.
///
/// This is the oracle the engine's incremental idle index and its pending
/// list are tested against: filtered to one `(model, class)` and to
/// `free_at_us <= now`, it is that class's [`IdleIndex`] list reversed.
pub fn idle_order(views: &[InstanceView]) -> Vec<u32> {
    let mut idle: Vec<u32> = views
        .iter()
        .filter(|v| v.accepting && v.backlog == 0)
        .map(|v| v.instance_index as u32)
        .collect();
    idle.sort_by_key(|&i| (views[i as usize].free_at_us, i));
    idle
}

/// The immediately dispatchable instances, indexed by `(model, class)`:
/// class is the pool's base type or an auxiliary type, and each list is
/// sorted by instance index, **highest first**.
///
/// The engine keeps one index and updates it where an instance's
/// dispatchability changes (service start and completion, reconfiguration,
/// preemption, faults, the flex path, the provisioning boundary passing), so
/// reading a model's lists is free.  The descending order puts the
/// preferred lowest-index instances at the tail: FCFS takes from the low
/// end and completions mostly return there, so both touch the tail of the
/// list instead of shifting the whole of it.
#[derive(Debug, Clone, Default)]
pub struct IdleIndex {
    /// `lists[2 * model + class]`, class 0 = base, 1 = auxiliary.
    lists: Vec<Vec<u32>>,
}

impl IdleIndex {
    /// An empty index sized for `num_models` served models.
    pub fn new(num_models: usize) -> Self {
        Self {
            lists: vec![Vec::new(); 2 * num_models],
        }
    }

    /// Builds the index from a view array: every accepting, backlog-free
    /// instance whose `free_at_us <= now_us`.  For hand-built scheduling
    /// contexts and reference checks; the engine maintains its index
    /// incrementally.
    pub fn from_views(views: &[InstanceView], now_us: TimeUs) -> Self {
        let mut index = Self::default();
        for v in views
            .iter()
            .filter(|v| v.accepting && v.backlog == 0 && v.free_at_us <= now_us)
        {
            index.insert(v.model, v.is_base, v.instance_index as u32);
        }
        index
    }

    #[inline]
    fn slot(model: ModelId, base: bool) -> usize {
        2 * model.index() + usize::from(!base)
    }

    /// The idle instances hosting `model` in one class, sorted by instance
    /// index, highest first (empty for a model the index has never seen).
    #[inline]
    pub fn of(&self, model: ModelId, base: bool) -> &[u32] {
        self.lists
            .get(Self::slot(model, base))
            .map_or(&[], Vec::as_slice)
    }

    /// Number of models the index has lists for.
    pub fn num_models(&self) -> usize {
        self.lists.len() / 2
    }

    /// Total idle instances across every list.
    pub fn len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Whether no instance is idle.
    pub fn is_empty(&self) -> bool {
        self.lists.iter().all(Vec::is_empty)
    }

    /// Every indexed instance, list by list (not in instance-index order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.lists.iter().flatten().copied()
    }

    /// Every indexed instance in instance-index order — the flat usable
    /// order, derived from the lists.  Allocates; not for the hot path.
    pub fn usable(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self.iter().collect();
        all.sort_unstable();
        all
    }

    /// Whether instance `index` is in `model`'s `base`/auxiliary list.
    pub(crate) fn contains(&self, model: ModelId, base: bool, index: u32) -> bool {
        self.of(model, base)
            .binary_search_by(|x| index.cmp(x))
            .is_ok()
    }

    /// Indexes instance `index` (not already present) in its list.
    pub(crate) fn insert(&mut self, model: ModelId, base: bool, index: u32) {
        let slot = Self::slot(model, base);
        if slot >= self.lists.len() {
            self.lists.resize(slot + 2 - slot % 2, Vec::new());
        }
        let list = &mut self.lists[slot];
        let pos = list.binary_search_by(|x| index.cmp(x)).unwrap_err();
        list.insert(pos, index);
    }

    /// Removes instance `index` from its list; `false` if it was not there.
    pub(crate) fn remove(&mut self, model: ModelId, base: bool, index: u32) -> bool {
        let Some(list) = self.lists.get_mut(Self::slot(model, base)) else {
            return false;
        };
        match list.binary_search_by(|x| index.cmp(x)) {
            Ok(pos) => {
                list.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

/// Per-round cursors over an [`IdleIndex`]: hands out each `(model, class)`
/// list lowest instance index first, so successive takes in one round never
/// return the same instance and cost O(1) each.  Policies keep one as
/// scratch and [`reset`](Self::reset) it at the start of every round.
#[derive(Debug, Default, Clone)]
pub struct IdleCursors {
    /// Per list: how many instances are still untaken (the list's head).
    left: Vec<usize>,
}

impl IdleCursors {
    /// Makes every instance of `idle` available again.
    pub fn reset(&mut self, idle: &IdleIndex) {
        self.left.clear();
        self.left.extend(idle.lists.iter().map(Vec::len));
    }

    /// Takes the lowest-index instance of `model`'s `base`/auxiliary list
    /// not yet taken this round.
    #[inline]
    pub fn take(&mut self, idle: &IdleIndex, model: ModelId, base: bool) -> Option<u32> {
        let slot = IdleIndex::slot(model, base);
        let left = self.left.get_mut(slot).filter(|left| **left > 0)?;
        *left -= 1;
        Some(idle.lists[slot][*left])
    }
}

/// A dispatch decision: send `queued[query_index]` to `instances[instance_index]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Index into [`SchedulingContext::queued`].
    pub query_index: usize,
    /// Index into [`SchedulingContext::instances`] (same as
    /// [`InstanceView::instance_index`]).
    pub instance_index: usize,
}

/// A query-distribution policy.
pub trait Scheduler {
    /// Policy name used in reports and benchmark output.
    fn name(&self) -> &'static str;

    /// Decides which queued queries to dispatch to which instances.
    ///
    /// Constraints (validated by the engine):
    /// * each `query_index` appears at most once,
    /// * indices must be in range.
    ///
    /// A query may be dispatched to a busy instance, in which case it waits in
    /// that instance's local queue.  Queries left undecided stay in the
    /// central queue and are offered again at the next invocation.
    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> Vec<Dispatch>;

    /// Scratch-aware variant of [`Self::schedule`]: appends the dispatch
    /// decisions to `out` (cleared by the caller), which the engine reuses
    /// across rounds so steady-state scheduling performs no allocation.
    ///
    /// The default delegates to `schedule`; hot-path policies should override
    /// this and implement `schedule` in terms of it.
    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        out.extend(self.schedule(ctx));
    }

    /// Hands the policy the pool's interned type names, indexed by the type
    /// index used in [`Self::on_completion`] and [`InstanceView::type_index`].
    /// Called once before a simulation starts.  The default ignores it.
    fn bind_types(&mut self, _type_names: &[Arc<str>]) {}

    /// Hands the policy the served models, indexed by [`ModelId`] — the
    /// model half of the `(type, model)` binding pair.  Policies that keep
    /// per-model latency knowledge (Clockwork, Kairos) resolve their
    /// per-`(type, model)` profiles here, once per run, so nothing on the
    /// scheduling hot path hashes a model name.  Called once before a
    /// simulation starts, after [`Self::bind_types`].  The default ignores
    /// it (single-model policies need no model table).
    fn bind_models(&mut self, _models: &[ModelKind]) {}

    /// Callback invoked when a query finishes, so policies can learn latency
    /// online (Kairos) or adapt thresholds.  The serving instance's pool type
    /// and the query's model are identified by index (see
    /// [`Self::bind_types`] / [`Self::bind_models`]) so the completion hot
    /// path involves no string comparison.  The default does nothing.
    fn on_completion(
        &mut self,
        _type_index: usize,
        _model: ModelId,
        _batch_size: u32,
        _service_ms: f64,
    ) {
    }
}

/// The naive first-come-first-serve policy: dispatch the oldest queued query
/// to any idle instance *hosting its model*, preferring base-type instances
/// (this is the query distribution used by Ribbon, paper Sec. 7, and the
/// "naive" scheme of Fig. 5).
///
/// On a single-model cluster every instance matches every query, so the
/// policy reduces exactly to the classic slot-by-slot pairing.
#[derive(Debug, Default, Clone)]
pub struct FcfsScheduler {
    /// Per-round cursors into the context's idle lists.
    cursors: IdleCursors,
}

impl FcfsScheduler {
    /// Creates the FCFS policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FcfsScheduler {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> Vec<Dispatch> {
        let mut out = Vec::new();
        self.schedule_into(ctx, &mut out);
        out
    }

    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        // Oldest query first: each takes its model's lowest-index idle base
        // instance, else its lowest-index idle auxiliary one (Ribbon
        // "prefers instances of the base type when multiple instances are
        // available").  On a single-model cluster query k pairs with the
        // k-th idle instance in (base first, index) order.
        let mut free = ctx.idle.len();
        self.cursors.reset(ctx.idle);
        for (query_index, query) in ctx.queued.iter().enumerate() {
            if free == 0 {
                break;
            }
            let slot = self
                .cursors
                .take(ctx.idle, query.model, true)
                .or_else(|| self.cursors.take(ctx.idle, query.model, false));
            if let Some(i) = slot {
                free -= 1;
                out.push(Dispatch {
                    query_index,
                    instance_index: i as usize,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(idx: usize, is_base: bool, free_at: TimeUs) -> InstanceView {
        InstanceView {
            instance_index: idx,
            type_index: if is_base { 0 } else { 1 },
            type_name: if is_base {
                "g4dn.xlarge".into()
            } else {
                "r5n.large".into()
            },
            model: ModelId::DEFAULT,
            is_base,
            accepting: true,
            free_at_us: free_at,
            backlog: if free_at > 0 { 1 } else { 0 },
        }
    }

    #[test]
    fn instance_view_idleness() {
        let v = view(0, true, 0);
        assert!(v.is_idle(10));
        let busy = view(1, false, 50);
        assert!(!busy.is_idle(10));
        assert_eq!(busy.remaining_us(10), 40);
        assert_eq!(busy.remaining_us(60), 0);
        // A draining instance is never idle, even when free.
        let mut draining = view(2, true, 0);
        draining.accepting = false;
        assert!(!draining.is_idle(10));
    }

    #[test]
    fn idle_order_filters_and_sorts() {
        let mut views = vec![view(0, false, 700), view(1, true, 0), view(2, false, 0)];
        views[0].backlog = 0; // provisioning: idle but not usable yet
        let idle = idle_order(&views);
        // Usable instances by index first, then the provisioning one.
        assert_eq!(idle, vec![1, 2, 0]);
        let index = IdleIndex::from_views(&views, 10);
        let ctx = SchedulingContext {
            now_us: 10,
            queued: &[],
            instances: &views,
            idle: &index,
            qos_us: 1_000_000,
            qos_by_model: &[],
        };
        assert_eq!(ctx.idle.of(ModelId::DEFAULT, true), &[1]);
        assert_eq!(ctx.idle.of(ModelId::DEFAULT, false), &[2]);
        assert_eq!(ctx.idle.of(ModelId::new(3), true), &[] as &[u32]);
        assert_eq!(index.usable(), vec![1, 2]);
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn idle_index_keeps_each_list_sorted() {
        let mut index = IdleIndex::new(1);
        let m1 = ModelId::new(1);
        for i in [7, 3, 9, 1] {
            index.insert(m1, false, i);
        }
        index.insert(ModelId::DEFAULT, true, 4);
        assert_eq!(index.num_models(), 2);
        assert_eq!(index.of(m1, false), &[9, 7, 3, 1]);
        assert!(index.remove(m1, false, 3));
        assert!(!index.remove(m1, false, 3));
        assert!(!index.remove(m1, true, 7), "wrong class");
        assert!(!index.remove(ModelId::new(5), true, 7), "unknown model");
        assert!(index.contains(m1, false, 9));
        assert_eq!(index.usable(), vec![1, 4, 7, 9]);
        let mut cursors = IdleCursors::default();
        cursors.reset(&index);
        assert_eq!(cursors.take(&index, m1, false), Some(1));
        assert_eq!(cursors.take(&index, m1, false), Some(7));
        assert_eq!(cursors.take(&index, m1, true), None);
        assert_eq!(cursors.take(&index, ModelId::new(5), true), None);
    }

    fn context<'a>(
        now_us: TimeUs,
        queued: &'a [Query],
        instances: &'a [InstanceView],
        idle: &'a IdleIndex,
    ) -> SchedulingContext<'a> {
        SchedulingContext {
            now_us,
            queued,
            instances,
            idle,
            qos_us: 1_000_000,
            qos_by_model: &[],
        }
    }

    #[test]
    fn fcfs_prefers_base_instances() {
        let queued = vec![Query::new(0, 10, 0), Query::new(1, 20, 0)];
        let instances = vec![view(0, false, 0), view(1, true, 0), view(2, false, 500)];
        let idle = IdleIndex::from_views(&instances, 0);
        let plan = FcfsScheduler::new().schedule(&context(0, &queued, &instances, &idle));
        assert_eq!(plan.len(), 2);
        // Oldest query goes to the base instance.
        assert_eq!(
            plan[0],
            Dispatch {
                query_index: 0,
                instance_index: 1
            }
        );
        assert_eq!(
            plan[1],
            Dispatch {
                query_index: 1,
                instance_index: 0
            }
        );
    }

    #[test]
    fn fcfs_ignores_busy_instances() {
        let queued = vec![Query::new(0, 10, 0)];
        let instances = vec![view(0, true, 900)];
        let idle = IdleIndex::from_views(&instances, 100);
        let ctx = context(100, &queued, &instances, &idle);
        assert!(FcfsScheduler::new().schedule(&ctx).is_empty());
    }

    /// The sort-and-scan FCFS round the idle index replaced: copy the usable
    /// idle instances, sort them by `(!is_base, index)`, and give each query,
    /// oldest first, the first untaken instance bound to its model.  The
    /// oracle for the cursor-based round.
    fn fcfs_sort_and_scan(ctx: &SchedulingContext<'_>) -> Vec<Dispatch> {
        let mut order: Vec<u32> = idle_order(ctx.instances)
            .into_iter()
            .filter(|&i| ctx.instances[i as usize].free_at_us <= ctx.now_us)
            .collect();
        order.sort_unstable_by_key(|&i| (!ctx.instances[i as usize].is_base, i));
        let mut taken = vec![false; order.len()];
        let mut plan = Vec::new();
        for (query_index, query) in ctx.queued.iter().enumerate() {
            let slot = (0..order.len())
                .find(|&k| !taken[k] && ctx.instances[order[k] as usize].model == query.model);
            if let Some(k) = slot {
                taken[k] = true;
                plan.push(Dispatch {
                    query_index,
                    instance_index: order[k] as usize,
                });
            }
        }
        plan
    }

    /// Random instance: (model, is_base, accepting, backlog, free_at).
    fn random_view(
        index: usize,
        (model, is_base, accepting, backlog, free_at): (usize, bool, bool, usize, TimeUs),
    ) -> InstanceView {
        InstanceView {
            instance_index: index,
            type_index: usize::from(!is_base),
            type_name: if is_base { "base" } else { "aux" }.into(),
            model: ModelId::new(model),
            is_base,
            accepting,
            free_at_us: free_at,
            backlog,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// On random multi-model, heterogeneous contexts — busy, draining
        /// and still-provisioning instances mixed in — with mixed-model
        /// queues, the cursor round dispatches exactly what the sort-based
        /// round did, in the same order.
        #[test]
        fn fcfs_matches_the_sort_based_oracle(
            raw_views in proptest::collection::vec(
                (0usize..4, 0usize..2, 0usize..8, 0usize..3, 0u64..2_000),
                0..48,
            ),
            raw_queue in proptest::collection::vec((0usize..5, 1u32..1_000), 0..64),
            now_us in 0u64..2_000,
        ) {
            let instances: Vec<InstanceView> = raw_views
                .iter()
                .enumerate()
                .map(|(i, &(m, base, accept, backlog, free_at))| {
                    random_view(i, (m, base == 1, accept != 0, backlog, free_at))
                })
                .collect();
            let queued: Vec<Query> = raw_queue
                .iter()
                .enumerate()
                .map(|(id, &(m, batch))| Query::for_model(id as u64, ModelId::new(m), batch, 0))
                .collect();
            let idle = IdleIndex::from_views(&instances, now_us);
            let ctx = context(now_us, &queued, &instances, &idle);
            let mut fcfs = FcfsScheduler::new();
            let plan = fcfs.schedule(&ctx);
            proptest::prop_assert_eq!(&plan, &fcfs_sort_and_scan(&ctx));
            // The scratch carries nothing across rounds.
            proptest::prop_assert_eq!(fcfs.schedule(&ctx), plan);
        }
    }
}
