//! Construction of the `L` matrix and the QoS-penalized cost matrix
//! (paper Sec. 5.1, Eq. 2–8).
//!
//! `L[i][j]` is the time instance `j` would be occupied, measured from the
//! scheduling instant `t0`, if it were chosen to serve query `i`: the
//! instance's remaining busy time plus the predicted service latency of the
//! query on that instance type.  The QoS constraint (Eq. 3, with the paper's
//! `ξ = 0.98` noise safeguard) is folded into the matrix by replacing
//! infeasible entries with a `10 × T_qos` penalty (Eq. 8), after which the
//! problem is a plain min-cost bipartite matching with edge cost
//! `C_j · L[i][j]` (Eq. 2).
//!
//! # Per-type construction
//!
//! A prediction depends on the query and the instance's *type*, never on the
//! instance itself, so `LMatrix` takes one prediction per (query, type) —
//! `Q·T` of them, with `T ≤ 4` on the paper's pool — and combines them with
//! each instance's remaining busy time while it writes the `Q·N` cost
//! entries.  The entries go straight into the orientation the JV solver
//! needs (rows ≤ columns: `Q × N`, or `N × Q` with instances as rows when
//! the queue is longer than the pool), into buffers kept across rounds.
//! Feasibility is not stored: it is recomputed, from the same operands in
//! the same order, for the few pairs the matching selects.

/// Default noise-safeguard factor: completion times predicted within 2 % of
/// the QoS target are treated as violations (paper Sec. 5.1).
pub const DEFAULT_XI: f64 = 0.98;

/// Penalty multiplier applied to QoS-violating pairs (paper Eq. 8).
pub const QOS_PENALTY_FACTOR: f64 = 10.0;

/// The per-type terms of one round.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TypeTerms {
    /// Heterogeneity coefficient `C_j` of the type.
    coefficient: f64,
    /// Whether the type's latency predictor has a fit.  While it has none,
    /// its predictions are placeholders, so a predicted violation on it
    /// carries no information and the pair is treated as feasible.
    fitted: bool,
}

/// One instance column: its remaining busy time and its type.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Column {
    remaining_ms: f64,
    type_slot: usize,
}

/// One matrix entry, computed in the paper's operation order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    /// `L[i][j] = remaining_j + predicted(i, type_j)`.
    completion_ms: f64,
    /// Eq. 3 with the ξ safeguard, or an unfitted type.
    feasible: bool,
    /// `C_j · L~[i][j]`.
    cost: f64,
}

#[inline(always)]
fn entry(
    remaining_ms: f64,
    predicted_ms: f64,
    waited_ms: f64,
    terms: TypeTerms,
    limit_ms: f64,
    penalty_ms: f64,
) -> Entry {
    // Completion time from t0: wait for the instance, then serve.
    let completion_ms = remaining_ms + predicted_ms;
    // Eq. 3 with the ξ safeguard: (L_ij + W_i) <= ξ T_qos.
    let feasible = completion_ms + waited_ms <= limit_ms || !terms.fitted;
    let effective = if feasible { completion_ms } else { penalty_ms };
    Entry {
        completion_ms,
        feasible,
        cost: terms.coefficient * effective,
    }
}

/// The `L`/cost matrices of one scheduling round, built into buffers that
/// are reused across rounds.
///
/// A round is [`Self::begin`], then queries ([`Self::push_query`]),
/// instance columns ([`Self::push_column`]) and instance types
/// ([`Self::push_type`]) in any order, then [`Self::build`].  Entries are
/// addressed as (query `i`, instance `j`) whatever the solver orientation.
#[derive(Debug, Clone, Default)]
pub(crate) struct LMatrix {
    qos_ms: f64,
    xi: f64,
    /// `W_i` per query row.
    waited_ms: Vec<f64>,
    /// Predicted service latency, type-major: `[t * Q + i]`.
    predicted_ms: Vec<f64>,
    types: Vec<TypeTerms>,
    columns: Vec<Column>,
    /// Cost entries, row-major in solver orientation.
    cost: Vec<f64>,
}

impl LMatrix {
    /// Starts a round with QoS target `qos_ms` and safeguard `xi`, emptying
    /// every buffer but keeping its allocation.
    pub(crate) fn begin(&mut self, qos_ms: f64, xi: f64) {
        self.qos_ms = qos_ms;
        self.xi = xi;
        self.waited_ms.clear();
        self.predicted_ms.clear();
        self.types.clear();
        self.columns.clear();
        self.cost.clear();
    }

    /// Appends a query row with the time it has already waited in the
    /// central queue (`W_i`, ms).
    pub(crate) fn push_query(&mut self, waited_ms: f64) {
        self.waited_ms.push(waited_ms);
    }

    /// Appends an instance column: its remaining busy time (ms, 0 when idle)
    /// and the slot of its type, counted in [`Self::push_type`] order.
    pub(crate) fn push_column(&mut self, remaining_ms: f64, type_slot: usize) {
        self.columns.push(Column {
            remaining_ms,
            type_slot,
        });
    }

    /// Appends an instance type: its heterogeneity coefficient `C_j`, whether
    /// its predictor has a fit, and the predicted service latency (ms) of
    /// every query row on it, in row order.  Push every query first.
    ///
    /// # Panics
    /// Panics if `C_j` lies outside `(0, 1]` or the predictions do not cover
    /// every query.
    pub(crate) fn push_type(
        &mut self,
        coefficient: f64,
        fitted: bool,
        predicted_ms: impl IntoIterator<Item = f64>,
    ) {
        assert!(
            coefficient > 0.0 && coefficient <= 1.0,
            "C_j must lie in (0, 1]"
        );
        self.predicted_ms.extend(predicted_ms);
        self.types.push(TypeTerms {
            coefficient,
            fitted,
        });
        assert_eq!(
            self.predicted_ms.len(),
            self.types.len() * self.waited_ms.len(),
            "type predictions must cover every query"
        );
    }

    /// Number of query rows.
    pub(crate) fn queries(&self) -> usize {
        self.waited_ms.len()
    }

    /// Number of instance columns.
    pub(crate) fn instances(&self) -> usize {
        self.columns.len()
    }

    /// Whether the solver sees the matrix transposed: instances as rows,
    /// because there are more queries than instances.
    pub(crate) fn transposed(&self) -> bool {
        self.queries() > self.instances()
    }

    /// Writes every cost entry in solver orientation.
    ///
    /// # Panics
    /// Panics with no query or no instance, a non-positive QoS target, `ξ`
    /// outside `(0, 1]`, a column of an unknown type, or a completion time
    /// that is not finite.
    pub(crate) fn build(&mut self) {
        assert!(!self.waited_ms.is_empty(), "need at least one query");
        assert!(!self.columns.is_empty(), "need at least one instance");
        assert!(self.qos_ms > 0.0, "QoS target must be positive");
        assert!(self.xi > 0.0 && self.xi <= 1.0, "xi must lie in (0, 1]");
        assert!(
            self.columns.iter().all(|c| c.type_slot < self.types.len()),
            "every column needs a pushed type"
        );
        let q = self.waited_ms.len();
        let limit_ms = self.xi * self.qos_ms;
        let penalty_ms = QOS_PENALTY_FACTOR * self.qos_ms;
        let mut finite = true;
        self.cost.clear();
        self.cost.reserve(q * self.columns.len());
        if self.transposed() {
            // Instance rows: each row reads one type's predictions in order.
            for col in &self.columns {
                let terms = self.types[col.type_slot];
                let predicted = &self.predicted_ms[col.type_slot * q..][..q];
                for (&p, &w) in predicted.iter().zip(&self.waited_ms) {
                    let e = entry(col.remaining_ms, p, w, terms, limit_ms, penalty_ms);
                    finite &= e.completion_ms.is_finite();
                    self.cost.push(e.cost);
                }
            }
        } else {
            for (i, &w) in self.waited_ms.iter().enumerate() {
                for col in &self.columns {
                    let p = self.predicted_ms[col.type_slot * q + i];
                    let e = entry(
                        col.remaining_ms,
                        p,
                        w,
                        self.types[col.type_slot],
                        limit_ms,
                        penalty_ms,
                    );
                    finite &= e.completion_ms.is_finite();
                    self.cost.push(e.cost);
                }
            }
        }
        assert!(finite, "completion times must be finite");
    }

    /// The built cost entries, row-major in solver orientation, with that
    /// orientation's `(rows, cols)`; `rows <= cols` always.
    pub(crate) fn solver_costs(&self) -> (&[f64], usize, usize) {
        let (q, n) = (self.queries(), self.instances());
        (&self.cost, q.min(n), q.max(n))
    }

    fn entry(&self, i: usize, j: usize) -> Entry {
        let col = self.columns[j];
        entry(
            col.remaining_ms,
            self.predicted_ms[col.type_slot * self.queries() + i],
            self.waited_ms[i],
            self.types[col.type_slot],
            self.xi * self.qos_ms,
            QOS_PENALTY_FACTOR * self.qos_ms,
        )
    }

    /// Time query `i` has already waited (`W_i`, ms).
    pub(crate) fn waited_ms(&self, i: usize) -> f64 {
        self.waited_ms[i]
    }

    /// Raw completion time `L[i][j]` (ms), before QoS penalization.
    #[cfg(test)]
    fn completion_ms(&self, i: usize, j: usize) -> f64 {
        self.entry(i, j).completion_ms
    }

    /// Whether pair `(i, j)` counts as feasible: it meets the QoS target
    /// (Eq. 3 with ξ), or instance `j`'s type has no latency fit yet.
    pub(crate) fn is_feasible(&self, i: usize, j: usize) -> bool {
        self.entry(i, j).feasible
    }

    /// Solver cost of pair `(i, j)` (`C_j` weighting and penalty applied),
    /// as [`Self::build`] wrote it.
    #[cfg(test)]
    fn cost(&self, i: usize, j: usize) -> f64 {
        let (row, col) = if self.transposed() { (j, i) } else { (i, j) };
        self.cost[row * self.queries().max(self.instances()) + col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two queries (batch 10 with no wait, batch 800 after 5 ms) on a base
    /// GPU (idle, fast for both) and a cheap CPU busy for 3 ms, which is fine
    /// for the small query but would blow a 25 ms target on the large one.
    fn matrix(qos_ms: f64, xi: f64) -> LMatrix {
        let mut m = LMatrix::default();
        m.begin(qos_ms, xi);
        m.push_query(0.0);
        m.push_query(5.0);
        m.push_column(0.0, 0);
        m.push_column(3.0, 1);
        m.push_type(1.0, true, [5.0, 18.0]);
        m.push_type(0.4, true, [8.0, 60.0]);
        m.build();
        m
    }

    #[test]
    fn completion_includes_remaining_time() {
        let m = matrix(25.0, 1.0);
        assert_eq!(m.completion_ms(0, 0), 5.0);
        assert_eq!(m.completion_ms(0, 1), 11.0);
        assert_eq!(m.completion_ms(1, 1), 63.0);
    }

    #[test]
    fn qos_violations_are_penalized_by_ten_times_target() {
        let m = matrix(25.0, 1.0);
        assert!(m.is_feasible(0, 0) && m.is_feasible(0, 1));
        assert!(m.is_feasible(1, 0));
        assert!(!m.is_feasible(1, 1));
        // Penalized entry: C_j * 10 * T_qos = 0.4 * 250.
        assert_eq!(m.cost(1, 1), 0.4 * 250.0);
        // Feasible entries are weighted completion times.
        assert_eq!(m.cost(0, 1), 0.4 * 11.0);
        assert_eq!(m.cost(1, 0), 18.0);
    }

    #[test]
    fn xi_safeguard_tightens_the_boundary() {
        // Query 0 on instance 1 completes at 11 ms + 0 wait; with QoS 11.2 ms
        // it is feasible at xi = 1.0 but infeasible at the default xi = 0.98.
        assert!(matrix(11.2, 1.0).is_feasible(0, 1));
        assert!(!matrix(11.2, DEFAULT_XI).is_feasible(0, 1));
    }

    #[test]
    fn waiting_time_counts_against_qos() {
        // The large query already waited 5 ms; on the GPU it completes at
        // 18 ms for a total of 23 ms, so a 22 ms target is violated but a
        // 24 ms target is met (xi = 1 to keep the arithmetic exact).
        assert!(!matrix(22.0, 1.0).is_feasible(1, 0));
        assert!(matrix(24.0, 1.0).is_feasible(1, 0));
    }

    #[test]
    fn unfitted_types_count_as_feasible_at_their_completion_cost() {
        let mut m = LMatrix::default();
        m.begin(25.0, 1.0);
        m.push_query(5.0);
        m.push_column(3.0, 0);
        m.push_type(0.4, false, [60.0]);
        m.build();
        assert!(m.is_feasible(0, 0));
        assert_eq!(m.cost(0, 0), 0.4 * 63.0);
    }

    #[test]
    fn long_queues_are_laid_out_with_instances_as_rows() {
        let mut m = matrix(25.0, 1.0);
        m.begin(25.0, 1.0);
        for w in [0.0, 5.0, 1.0] {
            m.push_query(w);
        }
        m.push_column(3.0, 0);
        m.push_type(0.5, true, [1.0, 2.0, 3.0]);
        m.build();
        assert!(m.transposed());
        let (costs, rows, cols) = m.solver_costs();
        assert_eq!((rows, cols), (1, 3));
        assert_eq!(costs, &[0.5 * 4.0, 0.5 * 5.0, 0.5 * 6.0]);
        assert_eq!(m.cost(2, 0), 0.5 * 6.0);
    }

    #[test]
    #[should_panic(expected = "cover every query")]
    fn dimension_mismatch_is_rejected() {
        let mut m = LMatrix::default();
        m.begin(25.0, 1.0);
        m.push_query(0.0);
        m.push_query(5.0);
        m.push_type(1.0, true, [5.0]);
    }

    #[test]
    #[should_panic(expected = "C_j")]
    fn rejects_out_of_range_coefficient() {
        let mut m = LMatrix::default();
        m.begin(25.0, 1.0);
        m.push_query(0.0);
        m.push_type(1.5, true, [5.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_non_finite_completion_times() {
        let mut m = LMatrix::default();
        m.begin(25.0, 1.0);
        m.push_query(0.0);
        m.push_column(0.0, 0);
        m.push_type(1.0, true, [f64::NAN]);
        m.build();
    }
}
