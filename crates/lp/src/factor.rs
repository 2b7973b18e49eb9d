//! The basis factorization behind the revised simplex.
//!
//! The pivot loop in [`crate::simplex`] only ever needs four linear-algebra
//! operations on the basis matrix `B`:
//!
//! * `ftran` — `x ← B⁻¹ b` (entering column image, basic values);
//! * `btran` — `y ← B⁻ᵀ c` (duals, devex reference row);
//! * `update` — rank-one replacement of one basis column after a pivot;
//! * `refactor` — rebuild from the current basis columns.
//!
//! [`SparseLuFactor`] provides exactly those over the sparse Markowitz LU +
//! eta file from [`crate::sparse_lu`], and adds the refactorization policy.

use crate::model::{LpError, SolverOptions};
use crate::scratch::Counters;
use crate::sparse_lu::{LuFactors, SparseCol};

/// Sparse Markowitz LU with product-form updates ([`crate::sparse_lu`]).
/// `lu` is `None` for an empty (`m == 0`) basis; between solves the
/// factors are parked in [`crate::Scratch`] so their storage is reused.
#[derive(Default)]
pub(crate) struct SparseLuFactor {
    pub(crate) lu: Option<LuFactors>,
}

impl SparseLuFactor {
    /// Rebuilds the factors from the basis columns (`cols.len() == m`),
    /// counting workspace acquisitions in `cnt`.
    pub(crate) fn refactor(
        &mut self,
        m: usize,
        cols: &[SparseCol],
        cnt: &mut Counters,
    ) -> Result<(), LpError> {
        if m == 0 {
            self.lu = None;
            return Ok(());
        }
        self.lu
            .get_or_insert_with(LuFactors::default)
            .refactor_in_place(m, cols, cnt)
            .map_err(LpError::Numerical)
    }

    /// In place: `x ← B⁻¹ x` (input indexed by row, output by basis position).
    pub(crate) fn ftran(&mut self, x: &mut [f64]) {
        if let Some(lu) = self.lu.as_mut() {
            lu.ftran(x);
        }
    }

    /// In place: `x ← B⁻ᵀ x` (input indexed by basis position, output by row).
    pub(crate) fn btran(&mut self, x: &mut [f64]) {
        if let Some(lu) = self.lu.as_mut() {
            lu.btran(x);
        }
    }

    /// Writes row `r` of `B⁻¹` into `out` (length `m`).
    pub(crate) fn binv_row(&mut self, r: usize, out: &mut [f64]) {
        out.fill(0.0);
        out[r] = 1.0;
        self.btran(out);
    }

    /// Replaces basis position `r_leave`; `w` is the FTRAN image of the
    /// entering column. `Err` means "refactorize now".
    pub(crate) fn update(&mut self, r_leave: usize, w: &[f64]) -> Result<(), LpError> {
        match self.lu.as_mut() {
            Some(lu) => lu.update(r_leave, w).map_err(LpError::Numerical),
            None => Ok(()),
        }
    }

    /// Whether the engine should refactorize given pivots since the last one.
    pub(crate) fn wants_refactor(&self, since: usize, opts: &SolverOptions) -> bool {
        let Some(lu) = self.lu.as_ref() else {
            return false;
        };
        // Refactorize when the eta file stops paying for itself: solves
        // cost O(lu_nnz + eta_nnz), refactorization is cheap for sparse
        // bases, and long eta chains also degrade numerically.
        since >= opts.refactor_every.min(120) || lu.eta_nnz > 2 * lu.lu_nnz().max(500)
    }

    /// Nonzeros in the current factors (fill-in accounting).
    pub(crate) fn factor_nnz(&self) -> usize {
        self.lu.as_ref().map_or(0, |lu| lu.lu_nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense `B` from sparse columns, row-major.
    fn dense(m: usize, cols: &[SparseCol]) -> Vec<f64> {
        let mut b = vec![0.0; m * m];
        for (k, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                b[r as usize * m + k] = v;
            }
        }
        b
    }

    fn assert_small(label: &str, got: &[f64], want: &[f64]) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() < 1e-10, "{label}[{i}]: {g} != {w}");
        }
    }

    /// Residual checks against the dense basis: `B·ftran(b) = b`,
    /// `Bᵀ·btran(c) = c`, and `binv_row(r)·B = e_r`.
    fn check_residuals(f: &mut SparseLuFactor, m: usize, cols: &[SparseCol]) {
        let bm = dense(m, cols);
        let b = [1.0, -2.0, 0.5];
        let mut x = b;
        f.ftran(&mut x);
        let bx: Vec<f64> = (0..m)
            .map(|r| (0..m).map(|k| bm[r * m + k] * x[k]).sum())
            .collect();
        assert_small("B·ftran(b)", &bx, &b);

        let c = [0.5, 0.0, -1.5];
        let mut y = c;
        f.btran(&mut y);
        let bty: Vec<f64> = (0..m)
            .map(|k| (0..m).map(|r| bm[r * m + k] * y[r]).sum())
            .collect();
        assert_small("Bᵀ·btran(c)", &bty, &c);

        for r in 0..m {
            let mut row = [0.0; 3];
            f.binv_row(r, &mut row);
            let e: Vec<f64> = (0..m)
                .map(|k| (0..m).map(|i| row[i] * bm[i * m + k]).sum())
                .collect();
            let mut want = [0.0; 3];
            want[r] = 1.0;
            assert_small(&format!("binv_row({r})·B"), &e, &want);
        }
    }

    /// The sparse LU solves against its basis before and after a
    /// product-form update.
    #[test]
    fn sparse_lu_residuals_before_and_after_update() {
        let mut cols: Vec<SparseCol> = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(1, 1.0), (2, 3.0)],
            vec![(0, 1.0), (2, 5.0)],
        ];
        let mut cnt = Counters::default();
        let mut f = SparseLuFactor::default();
        f.refactor(3, &cols, &mut cnt).unwrap();
        check_residuals(&mut f, 3, &cols);

        // Replace basis position 0 with a new column.
        let a: SparseCol = vec![(0, 1.0), (1, 1.0)];
        let mut w = [1.0, 1.0, 0.0];
        f.ftran(&mut w);
        f.update(0, &w).unwrap();
        cols[0] = a;
        check_residuals(&mut f, 3, &cols);
    }
}
