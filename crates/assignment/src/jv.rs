//! Jonker–Volgenant shortest-augmenting-path solver for the rectangular
//! linear-sum assignment problem.
//!
//! This is the algorithm Kairos uses to solve its query-distribution
//! optimization (paper Sec. 5.1 and Sec. 6: "Kairos solves this problem using
//! the Jonker-Volgenant algorithm which is a variant of the widely used
//! Hungarian algorithm, but more efficient in practice").  The implementation
//! follows the modified Jonker–Volgenant formulation without initialization
//! described by Crouse, *"On implementing 2D rectangular assignment
//! algorithms"* (IEEE TAES 2016) — the same formulation used by SciPy's
//! `linear_sum_assignment`, which the paper's reference implementation calls
//! through `scipy.optimize`.
//!
//! Complexity: each of the `r` augmentations scans at most `c` columns per
//! step of its path, and a path has at most `r` steps, so a solve costs
//! `O(r^2 * c)` for an `r x c` matrix with `r <= c` (a taller matrix is
//! solved transposed, so in general `O(min(r, c)^2 * max(r, c))`), plus
//! `O(r * c)` to reset the per-augmentation state.  The 20-query x
//! 20-instance matchings the paper measures stay far below a millisecond.
//!
//! [`JvScratch`] owns every buffer the solver needs, so a caller that solves
//! one matrix per scheduling round (the Kairos distributor) allocates only
//! when a round outgrows every earlier one.  [`solve_jv`] is a thin wrapper
//! that runs the same core on a fresh scratch.

use crate::matrix::CostMatrix;
use crate::solution::{Assignment, AssignmentError, AssignmentSolver};

/// Exact rectangular LAP solver (shortest augmenting paths with dual updates).
#[derive(Debug, Default, Clone, Copy)]
pub struct JonkerVolgenantSolver;

impl JonkerVolgenantSolver {
    /// Creates a new solver.
    pub fn new() -> Self {
        Self
    }
}

impl AssignmentSolver for JonkerVolgenantSolver {
    fn solve(&self, matrix: &CostMatrix) -> Result<Assignment, AssignmentError> {
        solve_jv(matrix)
    }

    fn name(&self) -> &'static str {
        "jonker-volgenant"
    }
}

/// Solves the rectangular min-cost assignment problem and returns an optimal
/// matching of size `min(rows, cols)`.
pub fn solve_jv(matrix: &CostMatrix) -> Result<Assignment, AssignmentError> {
    let mut scratch = JvScratch::new();
    // The core routine requires rows <= cols; transpose otherwise.
    if matrix.rows() <= matrix.cols() {
        let col4row = scratch.solve(matrix.as_slice(), matrix.rows(), matrix.cols())?;
        let mapping = col4row.iter().map(|&col| Some(col)).collect();
        Ok(Assignment::from_row_mapping(matrix, mapping))
    } else {
        let transposed = matrix.transposed();
        let col4row = scratch.solve(transposed.as_slice(), transposed.rows(), transposed.cols())?;
        // `col4row[j]` is, in original terms, the row matched to column j.
        let mut row_to_col = vec![None; matrix.rows()];
        for (col, &row) in col4row.iter().enumerate() {
            row_to_col[row] = Some(col);
        }
        Ok(Assignment::from_row_mapping(matrix, row_to_col))
    }
}

/// Marks an unmatched row or column.
const UNASSIGNED: usize = usize::MAX;

/// Reusable buffers of the Jonker–Volgenant core: dual variables, the
/// matching in both directions and the per-augmentation search state.
///
/// Every buffer is reset at the start of [`Self::solve`], so a scratch that
/// solved one matrix solves the next exactly as a fresh one would.
#[derive(Debug, Default, Clone)]
pub struct JvScratch {
    u: Vec<f64>,
    v: Vec<f64>,
    col4row: Vec<usize>,
    row4col: Vec<usize>,
    shortest_path_costs: Vec<f64>,
    path: Vec<usize>,
    /// Rows an augmentation's search visited, first its starting row.
    visited_rows: Vec<usize>,
    /// Columns an augmentation's search scanned (removed from `remaining`).
    scanned_cols: Vec<usize>,
    remaining: Vec<usize>,
}

impl JvScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves the `rows x cols` problem whose costs `cost` holds row-major,
    /// with `rows <= cols`, and returns `col4row`: `col4row[i]` is the column
    /// matched to row `i`.  Every row is matched.
    ///
    /// # Panics
    /// Panics if `rows > cols` or `cost.len() != rows * cols`.
    pub fn solve(
        &mut self,
        cost: &[f64],
        rows: usize,
        cols: usize,
    ) -> Result<&[usize], AssignmentError> {
        assert!(rows <= cols, "the JV core needs rows <= cols");
        assert_eq!(cost.len(), rows * cols, "cost buffer shape mismatch");
        let (nr, nc) = (rows, cols);
        reset(&mut self.u, nr, 0.0);
        reset(&mut self.v, nc, 0.0);
        reset(&mut self.col4row, nr, UNASSIGNED);
        reset(&mut self.row4col, nc, UNASSIGNED);
        reset(&mut self.shortest_path_costs, nc, f64::INFINITY);
        reset(&mut self.path, nc, UNASSIGNED);
        let Self {
            u,
            v,
            col4row,
            row4col,
            shortest_path_costs,
            path,
            visited_rows,
            scanned_cols,
            remaining,
        } = self;

        for cur_row in 0..nr {
            // Reset per-augmentation state.
            shortest_path_costs.fill(f64::INFINITY);
            visited_rows.clear();
            scanned_cols.clear();
            remaining.clear();
            remaining.extend(0..nc);

            let mut min_val = 0.0f64;
            let mut i = cur_row;
            let mut sink = UNASSIGNED;

            while sink == UNASSIGNED {
                visited_rows.push(i);
                let mut index = UNASSIGNED;
                let mut lowest = f64::INFINITY;
                let row_slice = &cost[i * nc..(i + 1) * nc];

                for (it, &j) in remaining.iter().enumerate() {
                    let r = min_val + row_slice[j] - u[i] - v[j];
                    if r < shortest_path_costs[j] {
                        path[j] = i;
                        shortest_path_costs[j] = r;
                    }
                    // Prefer unassigned columns on ties so the augmenting path
                    // terminates as early as possible.
                    if shortest_path_costs[j] < lowest
                        || (shortest_path_costs[j] == lowest && row4col[j] == UNASSIGNED)
                    {
                        lowest = shortest_path_costs[j];
                        index = it;
                    }
                }

                min_val = lowest;
                if !min_val.is_finite() || index == UNASSIGNED {
                    // Cannot happen with finite cost matrices, but guard anyway.
                    return Err(AssignmentError::Infeasible);
                }
                let j = remaining[index];
                if row4col[j] == UNASSIGNED {
                    sink = j;
                } else {
                    i = row4col[j];
                }
                scanned_cols.push(j);
                remaining.swap_remove(index);
            }

            // Update dual variables.  Each entry's update reads only the
            // search state, so visiting order does not change the result.
            u[cur_row] += min_val;
            for &irow in &visited_rows[1..] {
                u[irow] += min_val - shortest_path_costs[col4row[irow]];
            }
            for &jcol in scanned_cols.iter() {
                v[jcol] -= min_val - shortest_path_costs[jcol];
            }

            // Augment along the alternating path ending at `sink`.
            let mut j = sink;
            loop {
                let i = path[j];
                row4col[j] = i;
                std::mem::swap(&mut col4row[i], &mut j);
                if i == cur_row {
                    break;
                }
            }
        }

        Ok(&self.col4row)
    }
}

/// Resizes `buf` to `len` entries, all equal to `value`, keeping its
/// allocation.
fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::solve_brute_force;

    fn solve(rows: usize, cols: usize, data: Vec<f64>) -> Assignment {
        let m = CostMatrix::from_vec(rows, cols, data).unwrap();
        solve_jv(&m).unwrap()
    }

    #[test]
    fn square_3x3_known_optimum() {
        // Classic example: optimal cost is 5 (0->1, 1->0, 2->2) -> 1 + 2 + 2.
        let a = solve(3, 3, vec![4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 2.0]);
        assert_eq!(a.matched_count(), 3);
        assert!((a.total_cost - 5.0).abs() < 1e-9);
    }

    #[test]
    fn identity_preference() {
        // Diagonal is cheapest: the solver must pick it.
        let a = solve(3, 3, vec![0.0, 9.0, 9.0, 9.0, 0.0, 9.0, 9.0, 9.0, 0.0]);
        assert_eq!(a.row_to_col, vec![Some(0), Some(1), Some(2)]);
        assert_eq!(a.total_cost, 0.0);
    }

    #[test]
    fn wide_matrix_fewer_rows_than_cols() {
        // 2 queries, 4 instances: both queries must be matched.
        let a = solve(2, 4, vec![10.0, 2.0, 8.0, 7.0, 3.0, 9.0, 9.0, 9.0]);
        assert_eq!(a.matched_count(), 2);
        assert!((a.total_cost - 5.0).abs() < 1e-9);
        assert_eq!(a.row_to_col, vec![Some(1), Some(0)]);
    }

    #[test]
    fn tall_matrix_fewer_cols_than_rows() {
        // 4 queries, 2 instances: exactly two queries get served.
        let a = solve(4, 2, vec![5.0, 6.0, 1.0, 9.0, 9.0, 1.0, 4.0, 4.0]);
        assert_eq!(a.matched_count(), 2);
        assert!((a.total_cost - 2.0).abs() < 1e-9);
        assert!(a.is_valid_for(4, 2));
    }

    #[test]
    fn single_cell() {
        let a = solve(1, 1, vec![42.0]);
        assert_eq!(a.row_to_col, vec![Some(0)]);
        assert_eq!(a.total_cost, 42.0);
    }

    #[test]
    fn negative_costs_supported() {
        let a = solve(2, 2, vec![-5.0, 0.0, 0.0, -5.0]);
        assert!((a.total_cost - -10.0).abs() < 1e-9);
    }

    #[test]
    fn matches_brute_force_on_small_matrices() {
        // Deterministic pseudo-random matrices via a simple LCG, so this test
        // does not need the rand crate.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 100.0
        };
        for rows in 1..=5usize {
            for cols in 1..=5usize {
                let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
                let m = CostMatrix::from_vec(rows, cols, data).unwrap();
                let jv = solve_jv(&m).unwrap();
                let brute = solve_brute_force(&m).unwrap();
                assert!(
                    (jv.total_cost - brute.total_cost).abs() < 1e-6,
                    "JV {} vs brute {} on {rows}x{cols}",
                    jv.total_cost,
                    brute.total_cost
                );
                assert!(jv.is_valid_for(rows, cols));
            }
        }
    }

    #[test]
    fn ties_resolve_to_a_valid_matching() {
        let a = solve(3, 3, vec![1.0; 9]);
        assert_eq!(a.matched_count(), 3);
        assert!((a.total_cost - 3.0).abs() < 1e-9);
        assert!(a.is_valid_for(3, 3));
    }
}
