//! Measurement helpers: order statistics, peak memory, the report digest
//! and the timing wrapper the traced runs put around each scheduler.

use crate::pass::Check;
use kairos_models::ModelKind;
use kairos_sim::{Dispatch, QueryRecord, Scheduler, SchedulingContext, SimReport};
use kairos_workload::ModelId;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, secs(start))
}

/// Runs `f` `n` times (at least once) and returns the last result with the
/// seconds each call took.
pub fn timed_n<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::with_capacity(n);
    let mut out = None;
    for _ in 0..n.max(1) {
        let (value, secs) = timed(&mut f);
        samples.push(secs);
        out = Some(value);
    }
    (out.expect("f ran at least once"), samples)
}

/// Nearest-rank percentile (0–100) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (mean of the middle pair for an even count); 0 for an empty
/// slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Largest value; 0 for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A 64-bit hash over the simulated outputs of a pass, so a pass can be
/// compared with another bit for bit from one printed number.  FNV-1a's
/// constants, folded a word at a time with an extra shift so every input
/// bit reaches the low bits too.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one 64-bit word into the digest.
    pub fn word(&mut self, w: u64) {
        let h = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self.0 = h ^ (h >> 29);
    }

    /// Folds a float by its bits.
    pub fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    /// Folds every record, unfinished query, the event count and the
    /// billed-dollar bits of a report.
    pub fn report(&mut self, report: &SimReport) {
        self.word(report.offered as u64);
        self.word(report.records.len() as u64);
        for r in &report.records {
            self.word(r.id);
            self.word(r.model.index() as u64);
            self.word(r.arrival_us);
            self.word(r.start_us);
            self.word(r.completion_us);
            self.word(r.instance_index as u64);
        }
        self.word(report.unfinished.len() as u64);
        for u in &report.unfinished {
            self.word(u.id);
            self.word(u.arrival_us);
        }
        self.word(report.events_processed);
        self.word(report.horizon_us);
        self.float(report.billed_dollars);
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Whether two reports of the same replay are bit-identical: records,
/// unfinished queries, event count, billed-dollar bits and service-path
/// counters.
pub fn same_report(a: &SimReport, b: &SimReport) -> bool {
    a.records == b.records
        && a.unfinished == b.unfinished
        && a.events_processed == b.events_processed
        && a.billed_dollars.to_bits() == b.billed_dollars.to_bits()
        && a.service == b.service
}

/// Checks that every offered query of `report` either completed or is
/// listed unfinished.
pub fn conservation(name: &'static str, report: &SimReport) -> Check {
    Check::new(
        name,
        report.completed() + report.unfinished.len() == report.offered,
        format!(
            "{} + {} vs {}",
            report.completed(),
            report.unfinished.len(),
            report.offered
        ),
    )
}

/// Seconds the report-metric calls take on `reports`: p99 latency,
/// violation fraction and the per-model breakdown.
pub fn time_metrics<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> f64 {
    timed(|| {
        for r in reports {
            std::hint::black_box(r.p99_latency_us());
            std::hint::black_box(r.violation_fraction());
            std::hint::black_box(r.per_model());
        }
    })
    .1
}

/// Runs `f` with every fan-out inside it on the calling thread, so a
/// serial section's time does not depend on how fast the machine hands
/// work to a second core.
pub fn serial<T>(f: impl FnOnce() -> T) -> T {
    workers(1).install(f)
}

/// A worker pool of `threads` threads for the parallel sections.
pub fn workers(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the rayon shim never fails to build a pool")
}

/// Offered queries that were over QoS or never finished — the failures of
/// a replay.  Unlike [`SimReport::violations`], every unfinished query
/// counts, however young it was at the horizon.
pub fn failed_queries(report: &SimReport) -> usize {
    let late = report
        .records
        .iter()
        .filter(|r| !r.within_qos(report.qos_for(r.model)))
        .count();
    late + report.unfinished.len()
}

/// Memory held by a report's completion records, in MB.
pub fn records_mb(report: &SimReport) -> f64 {
    (report.records.len() * std::mem::size_of::<QueryRecord>()) as f64 / (1024.0 * 1024.0)
}

/// What the timing wrapper saw over every scheduler it wrapped.
#[derive(Debug, Default)]
pub struct RoundLog {
    /// Scheduler rounds (calls to `schedule_into`).
    pub rounds: u64,
    /// Dispatches returned over all rounds.
    pub dispatches: u64,
    /// Nanoseconds spent inside the wrapped scheduler's rounds.
    pub busy_ns: u64,
    /// Duration of every round, in ns.
    pub round_ns: Vec<u32>,
    /// Central-queue length at every round.
    pub queue_len: Vec<u32>,
    /// Nanoseconds from each engine's `bind_types` call (made while the
    /// engine is being built) to its first round.
    pub bind_to_first_round_ns: u64,
    /// Engines the wrapped schedulers were bound to.
    pub engines: u64,
}

impl RoundLog {
    /// Round-time percentile in ns.
    pub fn round_ns_pct(&self, pct: f64) -> f64 {
        pct_u32(&self.round_ns, pct)
    }

    /// Queue-length percentile.
    pub fn queue_len_pct(&self, pct: f64) -> f64 {
        pct_u32(&self.queue_len, pct)
    }
}

fn pct_u32(values: &[u32], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1])
}

/// A [`Scheduler`] that delegates to `inner` and logs the duration, queue
/// length and dispatch count of every round into a shared [`RoundLog`].
/// The log is shared so a capacity ramp's fresh per-probe schedulers all
/// report into one place.
pub struct TimedScheduler<S> {
    inner: S,
    log: Rc<RefCell<RoundLog>>,
    bound_at: Option<Instant>,
}

impl<S: Scheduler> TimedScheduler<S> {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: S, log: Rc<RefCell<RoundLog>>) -> Self {
        Self {
            inner,
            log,
            bound_at: None,
        }
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> Vec<Dispatch> {
        let mut out = Vec::new();
        self.schedule_into(ctx, &mut out);
        out
    }

    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        let before = out.len();
        let start = Instant::now();
        self.inner.schedule_into(ctx, out);
        let ns = start.elapsed().as_nanos() as u64;
        let mut log = self.log.borrow_mut();
        if let Some(bound) = self.bound_at.take() {
            log.bind_to_first_round_ns += start.duration_since(bound).as_nanos() as u64;
        }
        log.rounds += 1;
        log.dispatches += (out.len() - before) as u64;
        log.busy_ns += ns;
        log.round_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        log.queue_len
            .push(u32::try_from(ctx.queued.len()).unwrap_or(u32::MAX));
    }

    fn bind_types(&mut self, type_names: &[Arc<str>]) {
        self.log.borrow_mut().engines += 1;
        self.bound_at = Some(Instant::now());
        self.inner.bind_types(type_names);
    }

    fn bind_models(&mut self, models: &[ModelKind]) {
        self.inner.bind_models(models);
    }

    fn on_completion(
        &mut self,
        type_index: usize,
        model: ModelId,
        batch_size: u32,
        service_ms: f64,
    ) {
        self.inner
            .on_completion(type_index, model, batch_size, service_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [3.0, 1.0, 2.0, 10.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[4.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(max(&v), 10.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_sees_every_word() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.word(1);
        b.word(2);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.word(1);
        assert_eq!(a.value(), c.value());
    }
}
