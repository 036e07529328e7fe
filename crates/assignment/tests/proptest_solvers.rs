//! Property-based tests for the assignment solvers.
//!
//! Invariants checked:
//! * The exact solvers (Jonker–Volgenant, Hungarian) agree with the
//!   brute-force optimum on random rectangular matrices.
//! * Every solver returns a structurally valid rectangular matching.
//! * Optimal cost is invariant under transposition and monotone under
//!   uniform cost shifts.
//! * A reused [`JvScratch`] returns exactly the matching a fresh
//!   [`solve_jv`] returns, on tie-heavy matrices of changing shape.

use kairos_assignment::{
    brute::solve_brute_force, hungarian::solve_hungarian, jv::solve_jv, CostMatrix, JvScratch,
};
use proptest::prelude::*;

/// Strategy producing rectangular matrices whose entries take only a few
/// distinct values, so most augmentations meet ties.
fn tie_heavy_matrix() -> impl Strategy<Value = CostMatrix> {
    (1usize..=40, 1usize..=40).prop_flat_map(|(rows, cols)| {
        prop::collection::vec(0u32..4, rows * cols).prop_map(move |data| {
            CostMatrix::from_vec(rows, cols, data.into_iter().map(f64::from).collect()).unwrap()
        })
    })
}

/// Strategy producing small rectangular matrices with bounded finite costs.
fn small_matrix() -> impl Strategy<Value = CostMatrix> {
    (1usize..=6, 1usize..=6).prop_flat_map(|(rows, cols)| {
        prop::collection::vec(-100.0f64..100.0, rows * cols)
            .prop_map(move |data| CostMatrix::from_vec(rows, cols, data).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jv_matches_brute_force(m in small_matrix()) {
        let jv = solve_jv(&m).unwrap();
        let brute = solve_brute_force(&m).unwrap();
        prop_assert!((jv.total_cost - brute.total_cost).abs() < 1e-6);
        prop_assert!(jv.is_valid_for(m.rows(), m.cols()));
    }

    #[test]
    fn hungarian_matches_brute_force(m in small_matrix()) {
        let h = solve_hungarian(&m).unwrap();
        let brute = solve_brute_force(&m).unwrap();
        prop_assert!((h.total_cost - brute.total_cost).abs() < 1e-6);
        prop_assert!(h.is_valid_for(m.rows(), m.cols()));
    }

    #[test]
    fn optimal_cost_invariant_under_transpose(m in small_matrix()) {
        let a = solve_jv(&m).unwrap();
        let b = solve_jv(&m.transposed()).unwrap();
        prop_assert!((a.total_cost - b.total_cost).abs() < 1e-6);
    }

    #[test]
    fn uniform_shift_changes_cost_predictably(m in small_matrix(), shift in -50.0f64..50.0) {
        // Adding a constant to every entry adds `min(rows, cols) * shift`
        // to the optimal cost and leaves the optimal matching structure valid.
        let shifted = CostMatrix::from_fn(m.rows(), m.cols(), |r, c| m.get(r, c) + shift).unwrap();
        let a = solve_jv(&m).unwrap();
        let b = solve_jv(&shifted).unwrap();
        let k = m.rows().min(m.cols()) as f64;
        prop_assert!((b.total_cost - (a.total_cost + k * shift)).abs() < 1e-6);
    }

    #[test]
    fn matched_count_is_min_dimension(m in small_matrix()) {
        let a = solve_jv(&m).unwrap();
        prop_assert_eq!(a.matched_count(), m.rows().min(m.cols()));
    }
}

proptest! {
    // Stale-state leaks show up only on some shape sequences, so this check
    // draws more cases than the optimality checks above; each is cheap.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reused_scratch_matches_fresh_solve_on_ties(
        ms in prop::collection::vec(tie_heavy_matrix(), 1..6)
    ) {
        // One scratch across matrices of changing shape: stale state from a
        // larger or differently oriented solve must not leak into the next.
        let mut scratch = JvScratch::new();
        for m in &ms {
            let fresh = solve_jv(m).unwrap();
            let row_to_col: Vec<Option<usize>> = if m.rows() <= m.cols() {
                let col4row = scratch.solve(m.as_slice(), m.rows(), m.cols()).unwrap();
                col4row.iter().map(|&c| Some(c)).collect()
            } else {
                let t = m.transposed();
                let row4col = scratch.solve(t.as_slice(), t.rows(), t.cols()).unwrap();
                let mut mapping = vec![None; m.rows()];
                for (col, &row) in row4col.iter().enumerate() {
                    mapping[row] = Some(col);
                }
                mapping
            };
            prop_assert_eq!(&row_to_col, &fresh.row_to_col);
        }
    }
}
