//! Sparse LDLᵀ (Cholesky) factorization for symmetric positive-definite
//! MNA systems — the SPD fast path.
//!
//! The DC power-grid matrix (pads eliminated, gmin on the diagonal) and
//! the chip thermal map are SPD by construction, so they never need the
//! partial pivoting the general LU in [`crate::sparse`] pays for. This
//! module factors `P·A·Pᵀ = L·D·Lᵀ` with:
//!
//! * a fill-reducing nested-dissection permutation (George–Liu level
//!   structures, with [`crate::ordering::amd`] on parts of at most 6000
//!   nodes and on any system that small),
//! * a **symbolic phase** run once per sparsity pattern — elimination
//!   tree, postorder, exact per-column fill counts — so
//!   [`CholeskyFactorization::refactor`] is numeric-only, exactly like
//!   the LU path's factor-once/refactor split, and
//! * an up-looking **numeric phase** (Davis' `ldl` formulation)
//!   parallelized with rayon over independent elimination-tree
//!   subtrees.
//!
//! The parallel schedule is deterministic and byte-identical to the
//! serial factorization: the postordered etree makes every subtree a
//! contiguous column range, row patterns stay inside their subtree, so
//! each task writes its own disjoint slices of `L` and `D` in place; the
//! serial "top" pass then finishes the shared ancestor rows in ascending
//! order — the exact append order the serial code would have produced
//! (see DESIGN.md §12). [`SparseMatrix::factor_cholesky_serial`]
//! is the single-task reference twin the determinism suite compares
//! against.
//!
//! ```
//! use hotwire_circuit::sparse::SparseMatrix;
//!
//! let mut m = SparseMatrix::zeros(3);
//! for i in 0..3 {
//!     m.add(i, i, 2.0);
//! }
//! m.add(0, 1, -1.0);
//! m.add(1, 0, -1.0);
//! assert!(m.is_spd_candidate());
//! let f = m.factor_cholesky()?;
//! let x = f.solve(&[1.0, 0.0, 4.0]);
//! assert!((2.0 * x[2] - 4.0).abs() < 1e-12);
//! # Ok::<(), hotwire_circuit::CircuitError>(())
//! ```

use crate::ordering::{etree, nested_dissection, postorder, subtree_sizes, ND_LEAF};
use crate::sparse::{Csc, SparseMatrix};
use crate::CircuitError;
use hotwire_obs::metrics;
use rayon::prelude::*;

/// Sentinel for "no node" in u32 index arrays.
const NONE: u32 = u32::MAX;

/// `D` pivots at or below this magnitude are treated as "not positive
/// definite" (matches `PIVOT_TINY` on the LU path).
const PIVOT_TINY: f64 = 1e-300;

/// Upper bound on the size of an elimination-tree subtree claimed by
/// one parallel task. Fixed-point (machine-independent) so the task
/// decomposition — and therefore the telemetry — is reproducible; the
/// factor *values* are schedule-independent anyway.
fn subtree_threshold(n: usize) -> usize {
    (n / 32).clamp(64, 16_384)
}

impl SparseMatrix {
    /// `true` when the stamped matrix is a structural + numeric
    /// symmetric matrix with a strictly positive diagonal in every
    /// column — the cheap O(nnz) screen the solver dispatch uses before
    /// attempting [`SparseMatrix::factor_cholesky`]. MNA systems with
    /// voltage-source branch rows (zero diagonal) or nonreciprocal
    /// stamps fail this and stay on LU.
    #[must_use]
    pub fn is_spd_candidate(&self) -> bool {
        spd_candidate(self.n(), &self.to_csc())
    }

    /// Factors `P·A·Pᵀ = L·D·Lᵀ` with nested-dissection ordering and the
    /// parallel subtree schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotPositiveDefinite`] when the matrix is
    /// not an SPD candidate (see [`SparseMatrix::is_spd_candidate`]) or
    /// a pivot of `D` comes out non-positive. Callers that can also
    /// stamp indefinite systems should fall back to
    /// [`SparseMatrix::factor`] — the solver dispatch in
    /// [`crate::solver`] does exactly that.
    pub fn factor_cholesky(&self) -> Result<CholeskyFactorization, CircuitError> {
        self.factor_cholesky_inner(true, ND_LEAF)
    }

    /// The single-task serial twin of [`SparseMatrix::factor_cholesky`]:
    /// same ordering, same symbolic phase, numeric phase run as one
    /// ascending pass. Exists as the reference the determinism suite
    /// compares the parallel schedule against, byte for byte.
    ///
    /// # Errors
    ///
    /// As [`SparseMatrix::factor_cholesky`].
    pub fn factor_cholesky_serial(&self) -> Result<CholeskyFactorization, CircuitError> {
        self.factor_cholesky_inner(false, ND_LEAF)
    }

    /// The factorization behind both schedules; `leaf` is the
    /// nested-dissection leaf size (tests shrink it to dissect small
    /// grids).
    fn factor_cholesky_inner(
        &self,
        parallel: bool,
        leaf: usize,
    ) -> Result<CholeskyFactorization, CircuitError> {
        let n = self.n();
        let a = self.to_csc();
        if !spd_candidate(n, &a) {
            return Err(CircuitError::NotPositiveDefinite { row: 0 });
        }
        metrics::counter("solver.chol.factor").inc();
        let _t = hotwire_obs::trace::span("solver.chol.factor_time");

        // ---- ordering + symbolic phase (once per sparsity pattern) ----
        let (perm, pinv, au, parent, l_colptr) = {
            let _o = hotwire_obs::trace::span("solver.chol.ordering_time");
            // Nested dissection on the full symmetric pattern, then
            // postorder the elimination tree so subtrees are contiguous
            // index ranges.
            let perm0 = nested_dissection(n, &a.col_ptr, &a.row_idx, leaf);
            let mut pinv0 = vec![0u32; n];
            for (k, &p) in perm0.iter().enumerate() {
                #[allow(clippy::cast_possible_truncation)]
                {
                    pinv0[p as usize] = k as u32;
                }
            }
            let au0 = permuted_upper(n, &a, &pinv0);
            let parent0 = etree(n, &au0.col_ptr, &au0.row_idx);
            let post = postorder(&parent0);
            let perm: Vec<u32> = post.iter().map(|&k| perm0[k as usize]).collect();
            let mut pinv = vec![0u32; n];
            for (k, &p) in perm.iter().enumerate() {
                #[allow(clippy::cast_possible_truncation)]
                {
                    pinv[p as usize] = k as u32;
                }
            }
            // Rebuild under the final (postordered) permutation and
            // recompute the etree there: the relabeled tree satisfies
            // parent[k] > k, which the contiguous-subtree schedule and
            // the up-looking walks both rely on.
            let au = permuted_upper(n, &a, &pinv);
            let parent = etree(n, &au.col_ptr, &au.row_idx);
            let lnz = column_counts(n, &au, &parent);
            let mut l_colptr = vec![0usize; n + 1];
            for k in 0..n {
                l_colptr[k + 1] = l_colptr[k] + lnz[k] as usize;
            }
            (perm, pinv, au, parent, l_colptr)
        };

        let (ranges, top_rows) = if parallel {
            schedule(&parent, subtree_threshold(n))
        } else {
            #[allow(clippy::cast_possible_truncation)]
            (Vec::new(), (0..n as u32).collect())
        };

        let nnz = l_colptr[n];
        let mut f = CholeskyFactorization {
            n,
            perm,
            pinv,
            parent,
            l_colptr,
            l_rows: vec![0; nnz],
            l_vals: vec![0.0; nnz],
            d: vec![0.0; n],
            ranges,
            top_rows,
            anorm_1: a.norm_1(),
        };
        f.numeric(&au)?;
        #[allow(clippy::cast_precision_loss)]
        metrics::gauge("solver.chol.fill_nnz").set(f.nnz() as f64);
        Ok(f)
    }
}

/// A sparse LDLᵀ factorization `P·A·Pᵀ = L·D·Lᵀ`.
///
/// The *symbolic* state — permutation, elimination tree, column
/// pointers and the parallel subtree schedule — is retained, so
/// [`CholeskyFactorization::refactor`] refreshes only the numeric
/// values from a same-pattern matrix, exactly like the LU path.
#[derive(Debug, Clone)]
pub struct CholeskyFactorization {
    n: usize,
    /// `perm[k]` = original index of the k-th pivot.
    perm: Vec<u32>,
    /// `pinv[orig] = pivot position`.
    pinv: Vec<u32>,
    /// Elimination tree in pivot (postordered) numbering.
    parent: Vec<u32>,
    /// Strictly-lower `L` by column, rows ascending, in pivot space.
    l_colptr: Vec<usize>,
    l_rows: Vec<u32>,
    l_vals: Vec<f64>,
    /// The diagonal of `D`.
    d: Vec<f64>,
    /// Independent subtree column ranges `[lo, hi)` for the parallel
    /// numeric phase; disjoint and ascending.
    ranges: Vec<(u32, u32)>,
    /// Rows not owned by any subtree task (shared ancestors), ascending,
    /// processed serially after the tasks are merged.
    top_rows: Vec<u32>,
    /// ‖A‖₁ of the matrix behind the current numeric values, refreshed
    /// by [`CholeskyFactorization::refactor`] (condition-estimate input).
    anorm_1: f64,
}

impl CholeskyFactorization {
    /// The dimension `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nonzeros in `L + D` (fill-in diagnostic, comparable with the LU
    /// path's [`crate::sparse::Factorization::nnz`]).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.l_vals.len() + self.n
    }

    /// Σⱼ cⱼ² over the strictly-lower column counts cⱼ of `L` — the
    /// multiply-add count of a numeric [`CholeskyFactorization::refactor`]
    /// up to a constant, the quantity [`crate::grid_dc`] weighs against
    /// the per-iteration cost of a PCG solve.
    #[must_use]
    pub fn refactor_work(&self) -> f64 {
        self.l_colptr
            .windows(2)
            .map(|w| {
                #[allow(clippy::cast_precision_loss)]
                let c = (w[1] - w[0]) as f64;
                c * c
            })
            .sum()
    }

    /// The fill-reducing permutation (`perm[k]` = original index of the
    /// k-th pivot).
    #[must_use]
    pub fn ordering(&self) -> &[u32] {
        &self.perm
    }

    /// Number of independent subtree tasks in the parallel schedule
    /// (0 for the serial twin).
    #[must_use]
    pub fn subtree_tasks(&self) -> usize {
        self.ranges.len()
    }

    /// The values of strictly-lower `L`, column-major — exposed so the
    /// determinism suite can compare schedules bit-for-bit.
    #[must_use]
    pub fn l_values(&self) -> &[f64] {
        &self.l_vals
    }

    /// The diagonal of `D`, in pivot order.
    #[must_use]
    pub fn diagonal(&self) -> &[f64] {
        &self.d
    }

    /// ‖A‖₁ of the matrix behind the current numeric values (refreshed
    /// on [`CholeskyFactorization::refactor`]).
    #[must_use]
    pub fn anorm_1(&self) -> f64 {
        self.anorm_1
    }

    /// Smallest |dₖ| of the LDLᵀ diagonal — the SPD path's pivot-health
    /// analog: a collapse toward zero means the grid is drifting toward
    /// singular (floating nodes, vanishing conductances).
    #[must_use]
    pub fn min_pivot(&self) -> f64 {
        self.d.iter().map(|v| v.abs()).fold(f64::INFINITY, f64::min)
    }

    /// Recomputes the numeric factor from a matrix with the **same
    /// sparsity pattern** (same stamping structure): no ordering, no
    /// symbolic work, no schedule rebuild. This is the Picard/Newton
    /// fast path on the SPD route.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotPositiveDefinite`] when the new values
    /// are no longer SPD, and [`CircuitError::Singular`] when the
    /// pattern drifted from the factored one (including a stamp with
    /// fewer entries, which would leave slots of `L` unwritten). The
    /// factor is overwritten in place, so after an error it is unusable:
    /// callers should fall back to a fresh factorization.
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension differs from the factored one.
    pub fn refactor(&mut self, matrix: &SparseMatrix) -> Result<(), CircuitError> {
        assert_eq!(matrix.n(), self.n, "refactor dimension mismatch");
        metrics::counter("solver.chol.refactor").inc();
        let _t = hotwire_obs::trace::span("solver.chol.refactor_time");
        let a = matrix.to_csc();
        let au = permuted_upper(self.n, &a, &self.pinv);
        self.anorm_1 = a.norm_1();
        self.numeric(&au)?;
        #[allow(clippy::cast_precision_loss)]
        metrics::gauge("solver.chol.fill_nnz").set(self.nnz() as f64);
        Ok(())
    }

    /// Runs the numeric phase (subtree tasks, then the serial top pass)
    /// against the permuted upper triangle `au`, overwriting the stored
    /// factor values in place.
    fn numeric(&mut self, au: &Csc) -> Result<(), CircuitError> {
        let Self {
            n,
            parent,
            l_colptr,
            l_rows,
            l_vals,
            d,
            ranges,
            top_rows,
            ..
        } = self;
        let (n, parent, l_colptr): (usize, &[u32], &[usize]) = (*n, parent, l_colptr);
        let mut lnz = vec![0u32; n];

        // Each task owns a contiguous column range, so its slices of the
        // factor storage are disjoint: carve them off in ascending order.
        let mut tasks = Vec::with_capacity(ranges.len());
        {
            let (mut rows, mut vals) = (&mut l_rows[..], &mut l_vals[..]);
            let (mut cnts, mut diag) = (&mut lnz[..], &mut d[..]);
            let mut at = 0;
            for &(lo, hi) in ranges.iter() {
                let (lo, hi) = (lo as usize, hi as usize);
                let skip = l_colptr[lo] - l_colptr[at];
                let take = l_colptr[hi] - l_colptr[lo];
                tasks.push((
                    lo..hi,
                    carve(&mut rows, skip, take),
                    carve(&mut vals, skip, take),
                    carve(&mut cnts, lo - at, hi - lo),
                    carve(&mut diag, lo - at, hi - lo),
                ));
                at = hi;
            }
        }

        // Snap the logical context so each subtree task's span parents
        // under the enclosing factor/refactor span even on a worker.
        let ctx = hotwire_obs::trace::context();
        tasks
            .into_par_iter()
            .map(|(cols, rows, vals, cnts, diag)| {
                let _ctx = ctx.adopt();
                let _task_span = hotwire_obs::trace::span("solver.chol.subtree");
                let (base, width) = (cols.start, cols.len());
                numeric_rows(
                    cols, base, width, au, parent, l_colptr, rows, vals, cnts, diag,
                )
            })
            .collect::<Result<Vec<()>, CircuitError>>()?;

        // Serial top pass: shared ancestor rows, ascending — the same
        // per-column append order the all-serial factorization produces.
        numeric_rows(
            top_rows.iter().map(|&k| k as usize),
            0,
            n,
            au,
            parent,
            l_colptr,
            l_rows,
            l_vals,
            &mut lnz,
            d,
        )?;

        // A stamp with fewer entries than the factored pattern leaves
        // slots unwritten (stale values from the last factor): reject it.
        match (0..n).find(|&k| lnz[k] as usize != l_colptr[k + 1] - l_colptr[k]) {
            Some(k) => Err(CircuitError::Singular { row: k }),
            None => Ok(()),
        }
    }

    /// Solves `A·x = b` using the stored factor.
    ///
    /// # Panics
    ///
    /// Panics on an rhs length mismatch.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A·x = b` into a caller-provided buffer (resized to `n`).
    ///
    /// # Panics
    ///
    /// Panics when `b.len() != n`.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) {
        x.clear();
        x.resize(self.n, 0.0);
        self.solve_with(b, x, &mut Vec::new());
    }

    /// Solves `A·x = b` into `x` (length `n`) using `y` as the
    /// pivot-space scratch vector — allocation-free once `y` has grown
    /// to `n`, which is what the preconditioner of
    /// [`crate::grid_dc::DcGridSolver`]'s PCG calls per iteration.
    ///
    /// # Panics
    ///
    /// Panics when `b.len() != n` or `x.len() != n`.
    pub fn solve_with(&self, b: &[f64], x: &mut [f64], y: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        assert_eq!(x.len(), self.n, "solution length mismatch");
        // y ← P·b, solved in pivot space.
        y.resize(self.n, 0.0);
        for (k, &p) in self.perm.iter().enumerate() {
            y[k] = b[p as usize];
        }
        // Forward: L·z = P·b (unit diagonal).
        for k in 0..self.n {
            let yk = y[k];
            if yk != 0.0 {
                let (lo, hi) = (self.l_colptr[k], self.l_colptr[k + 1]);
                for (&r, &v) in self.l_rows[lo..hi].iter().zip(&self.l_vals[lo..hi]) {
                    y[r as usize] -= v * yk;
                }
            }
        }
        // Diagonal: D·w = z.
        for (yk, dk) in y.iter_mut().zip(&self.d) {
            *yk /= dk;
        }
        // Backward: Lᵀ·v = w.
        for k in (0..self.n).rev() {
            let mut acc = y[k];
            let (lo, hi) = (self.l_colptr[k], self.l_colptr[k + 1]);
            for (&r, &v) in self.l_rows[lo..hi].iter().zip(&self.l_vals[lo..hi]) {
                acc -= v * y[r as usize];
            }
            y[k] = acc;
        }
        // x ← Pᵀ·v.
        for (k, &p) in self.perm.iter().enumerate() {
            x[p as usize] = y[k];
        }
    }
}

/// Splits the next `take` elements, after skipping `skip`, off the front
/// of `buf`.
fn carve<'a, T>(buf: &mut &'a mut [T], skip: usize, take: usize) -> &'a mut [T] {
    let (_, rest) = std::mem::take(buf).split_at_mut(skip);
    let (piece, rest) = rest.split_at_mut(take);
    *buf = rest;
    piece
}

/// Up-looking numeric kernel over a set of rows, writing columns
/// `[base, base + width)` whose storage is passed as slices offset by
/// `l_colptr[base]`. Subtree tasks call this with their own range (row
/// patterns cannot escape a postordered subtree); the top pass calls it
/// with the full matrix. One code path ⇒ identical arithmetic and
/// append order under every schedule.
#[allow(clippy::too_many_arguments, clippy::cast_possible_truncation)]
fn numeric_rows<I>(
    rows: I,
    base: usize,
    width: usize,
    au: &Csc,
    parent: &[u32],
    l_colptr: &[usize],
    l_rows: &mut [u32],
    l_vals: &mut [f64],
    lnz: &mut [u32],
    d: &mut [f64],
) -> Result<(), CircuitError>
where
    I: IntoIterator<Item = usize>,
{
    let off = l_colptr[base];
    let mut y = vec![0.0f64; width];
    let mut flag = vec![NONE; width];
    let mut pattern = vec![0u32; width];
    for k in rows {
        let kl = k - base;
        let ku = k as u32;
        let mut top = width;
        let mut len = 0usize;
        flag[kl] = ku;
        let mut dk = 0.0f64;
        // Scatter A's column k (upper triangle) and build the row
        // pattern by walking each entry up the elimination tree to the
        // first already-visited node — reversed path segments land in
        // pattern[top..width] in topological order.
        for p in au.col_ptr[k]..au.col_ptr[k + 1] {
            let i = au.row_idx[p] as usize;
            if i == k {
                dk += au.values[p];
                continue;
            }
            y[i - base] += au.values[p];
            let mut node = i;
            while flag[node - base] != ku {
                pattern[len] = node as u32;
                len += 1;
                flag[node - base] = ku;
                let up = parent[node];
                // A well-formed pattern walks straight up to k; anything
                // else means the matrix no longer matches the symbolic
                // structure (refactor with drifted stamps).
                if up == NONE || up as usize > k {
                    return Err(CircuitError::Singular { row: k });
                }
                node = up as usize;
            }
            while len > 0 {
                len -= 1;
                top -= 1;
                pattern[top] = pattern[len];
            }
        }
        // Sparse triangular solve along the pattern; append row k to
        // each participating column.
        for &iu in &pattern[top..width] {
            let i = iu as usize;
            let il = i - base;
            let yi = y[il];
            y[il] = 0.0;
            let start = l_colptr[i] - off;
            let cnt = lnz[il] as usize;
            if cnt >= l_colptr[i + 1] - l_colptr[i] {
                return Err(CircuitError::Singular { row: k });
            }
            for t in start..start + cnt {
                y[l_rows[t] as usize - base] -= l_vals[t] * yi;
            }
            let l_ki = yi / d[il];
            dk -= l_ki * yi;
            l_rows[start + cnt] = ku;
            l_vals[start + cnt] = l_ki;
            lnz[il] = (cnt + 1) as u32;
        }
        if !(dk > PIVOT_TINY) {
            return Err(CircuitError::NotPositiveDefinite { row: k });
        }
        d[kl] = dk;
    }
    Ok(())
}

/// `true` when `a` is structurally and numerically symmetric with a
/// strictly positive diagonal in every column.
fn spd_candidate(n: usize, a: &Csc) -> bool {
    for k in 0..n {
        let (lo, hi) = (a.col_ptr[k], a.col_ptr[k + 1]);
        let col = &a.row_idx[lo..hi];
        let pos = col.partition_point(|&r| (r as usize) < k);
        if pos >= col.len() || col[pos] as usize != k || !(a.values[lo + pos] > 0.0) {
            return false;
        }
    }
    // Columns are sorted and deduped, so symmetry is array equality
    // against the transpose. NaN anywhere compares unequal ⇒ LU path.
    let t = transpose(n, a);
    a.col_ptr == t.col_ptr && a.row_idx == t.row_idx && a.values == t.values
}

/// Explicit transpose of a CSC matrix (columns come out sorted).
fn transpose(n: usize, a: &Csc) -> Csc {
    let nnz = a.row_idx.len();
    let mut col_ptr = vec![0usize; n + 1];
    for &r in &a.row_idx {
        col_ptr[r as usize + 1] += 1;
    }
    for k in 0..n {
        col_ptr[k + 1] += col_ptr[k];
    }
    let mut cursor = col_ptr.clone();
    let mut row_idx = vec![0u32; nnz];
    let mut values = vec![0.0f64; nnz];
    for c in 0..n {
        for p in a.col_ptr[c]..a.col_ptr[c + 1] {
            let r = a.row_idx[p] as usize;
            let slot = cursor[r];
            cursor[r] += 1;
            #[allow(clippy::cast_possible_truncation)]
            {
                row_idx[slot] = c as u32;
            }
            values[slot] = a.values[p];
        }
    }
    Csc {
        col_ptr,
        row_idx,
        values,
    }
}

/// The upper triangle of `P·A·Pᵀ` in CSC form: column `k` holds entries
/// with pivot-space row `i <= k`. Entry order within a column follows
/// the original column scan — deterministic, and identical between
/// `factor` and `refactor` for same-pattern stamps.
fn permuted_upper(n: usize, a: &Csc, pinv: &[u32]) -> Csc {
    let mut count = vec![0usize; n + 1];
    for c in 0..n {
        let k = pinv[c] as usize;
        for &r in &a.row_idx[a.col_ptr[c]..a.col_ptr[c + 1]] {
            if (pinv[r as usize] as usize) <= k {
                count[k + 1] += 1;
            }
        }
    }
    for k in 0..n {
        count[k + 1] += count[k];
    }
    let mut cursor = count.clone();
    let nnz = count[n];
    let mut row_idx = vec![0u32; nnz];
    let mut values = vec![0.0f64; nnz];
    for c in 0..n {
        let k = pinv[c] as usize;
        for p in a.col_ptr[c]..a.col_ptr[c + 1] {
            let i = pinv[a.row_idx[p] as usize];
            if (i as usize) <= k {
                let slot = cursor[k];
                cursor[k] += 1;
                row_idx[slot] = i;
                values[slot] = a.values[p];
            }
        }
    }
    Csc {
        col_ptr: count,
        row_idx,
        values,
    }
}

/// Exact per-column fill counts of `L` via flagged etree walks (Davis'
/// symbolic pass). For Cholesky these counts are exact, so the numeric
/// phase fills every column slot with no slack.
fn column_counts(n: usize, au: &Csc, parent: &[u32]) -> Vec<u32> {
    let mut lnz = vec![0u32; n];
    let mut flag = vec![NONE; n];
    for k in 0..n {
        #[allow(clippy::cast_possible_truncation)]
        let ku = k as u32;
        flag[k] = ku;
        for &ri in &au.row_idx[au.col_ptr[k]..au.col_ptr[k + 1]] {
            let mut i = ri as usize;
            while flag[i] != ku {
                flag[i] = ku;
                lnz[i] += 1;
                let up = parent[i];
                if up == NONE {
                    break;
                }
                i = up as usize;
            }
        }
    }
    lnz
}

/// Splits a postordered elimination forest into maximal subtrees of at
/// most `threshold` nodes (the parallel tasks, as contiguous column
/// ranges) plus the remaining shared ancestor rows (the serial top
/// pass), both ascending.
fn schedule(parent: &[u32], threshold: usize) -> (Vec<(u32, u32)>, Vec<u32>) {
    let n = parent.len();
    let size = subtree_sizes(parent);
    let mut in_range = vec![false; n];
    let mut ranges = Vec::new();
    for r in 0..n {
        if size[r] > threshold {
            continue;
        }
        let parent_too_big = match parent[r] {
            NONE => true,
            p => size[p as usize] > threshold,
        };
        if parent_too_big {
            let lo = r + 1 - size[r];
            #[allow(clippy::cast_possible_truncation)]
            ranges.push((lo as u32, (r + 1) as u32));
            for slot in &mut in_range[lo..=r] {
                *slot = true;
            }
        }
    }
    #[allow(clippy::cast_possible_truncation)]
    let top = (0..n).filter(|&k| !in_range[k]).map(|k| k as u32).collect();
    (ranges, top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 5-point grid Laplacian with gmin shift and one grounded corner —
    /// SPD by construction, the shape of every power-grid MNA matrix.
    fn grid_laplacian(rows: usize, cols: usize) -> SparseMatrix {
        stamp_grid(rows, cols, 1.0, None)
    }

    /// [`grid_laplacian`] with every stamp scaled by `g`, optionally
    /// leaving out the coupling between nodes `skip.0` and `skip.1`.
    fn stamp_grid(rows: usize, cols: usize, g: f64, skip: Option<(usize, usize)>) -> SparseMatrix {
        let n = rows * cols;
        let mut m = SparseMatrix::zeros(n);
        let at = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                m.add(at(r, c), at(r, c), 1e-9 * g);
                let mut couple = |a: usize, b: usize| {
                    if skip != Some((a, b)) {
                        m.add(a, a, g);
                        m.add(b, b, g);
                        m.add(a, b, -g);
                        m.add(b, a, -g);
                    }
                };
                if c + 1 < cols {
                    couple(at(r, c), at(r, c + 1));
                }
                if r + 1 < rows {
                    couple(at(r, c), at(r + 1, c));
                }
            }
        }
        m.add(0, 0, 1.0e3 * g);
        m
    }

    /// A weighted 5-point grid Laplacian with random branch
    /// conductances and per-node leaks — SPD, like `DcGridSolver`'s.
    fn random_spd_grid(rows: usize, cols: usize, seed: u64) -> SparseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = SparseMatrix::zeros(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let here = r * cols + c;
                let mut near = Vec::new();
                if c + 1 < cols {
                    near.push(here + 1);
                }
                if r + 1 < rows {
                    near.push(here + cols);
                }
                for there in near {
                    let g = rng.gen_range(0.1..10.0);
                    m.add(here, here, g);
                    m.add(there, there, g);
                    m.add(here, there, -g);
                    m.add(there, here, -g);
                }
                m.add(here, here, rng.gen_range(1.0e-3..1.0));
            }
        }
        m
    }

    fn residual_norm(m: &SparseMatrix, x: &[f64], b: &[f64]) -> f64 {
        m.mul_vec(x)
            .iter()
            .zip(b)
            .map(|(ax, bi)| (ax - bi).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solves_grid_system() {
        let m = grid_laplacian(11, 13);
        let n = m.n();
        #[allow(clippy::cast_precision_loss)]
        let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let f = m.factor_cholesky().unwrap();
        let x = f.solve(&b);
        assert!(residual_norm(&m, &x, &b) < 1e-9);
    }

    #[test]
    fn agrees_with_lu() {
        let m = grid_laplacian(9, 9);
        let b: Vec<f64> = (0..m.n())
            .map(|i| if i % 3 == 0 { 1.0 } else { -0.5 })
            .collect();
        let xc = m.factor_cholesky().unwrap().solve(&b);
        let xl = m.factor().unwrap().solve(&b);
        for (a, l) in xc.iter().zip(&xl) {
            assert!((a - l).abs() < 1e-9, "cholesky {a} vs lu {l}");
        }
    }

    #[test]
    fn fill_beats_lu_natural_order() {
        let m = grid_laplacian(20, 20);
        let fc = m.factor_cholesky().unwrap();
        let fl = m.factor().unwrap();
        assert!(
            fc.nnz() < fl.nnz(),
            "cholesky fill {} should undercut LU fill {}",
            fc.nnz(),
            fl.nnz()
        );
    }

    #[test]
    fn serial_and_parallel_schedules_match_bitwise() {
        let m = grid_laplacian(17, 19);
        let fp = m.factor_cholesky().unwrap();
        let fs = m.factor_cholesky_serial().unwrap();
        assert!(fp.subtree_tasks() > 1, "schedule should actually split");
        assert_eq!(fs.subtree_tasks(), 0);
        assert_eq!(
            fp.l_values(),
            fs.l_values(),
            "L values must be bit-identical"
        );
        assert_eq!(fp.diagonal(), fs.diagonal(), "D must be bit-identical");
    }

    #[test]
    fn refactor_is_bitwise_equal_to_fresh_factor() {
        let m = grid_laplacian(10, 10);
        let mut f = m.factor_cholesky().unwrap();
        // Same pattern, scaled values, same stamping order.
        f.refactor(&stamp_grid(10, 10, 2.5, None)).unwrap();
        let fresh = stamp_grid(10, 10, 2.5, None).factor_cholesky().unwrap();
        assert_eq!(f.l_values(), fresh.l_values());
        assert_eq!(f.diagonal(), fresh.diagonal());
    }

    #[test]
    fn refactor_rejects_a_stamp_with_a_coupling_dropped() {
        // Cutting the chain in two leaves no entry of L linking the
        // halves, so some slot of the factored pattern goes unwritten.
        let mut f = grid_laplacian(1, 200).factor_cholesky().unwrap();
        let cut = stamp_grid(1, 200, 1.0, Some((99, 100)));
        assert!(matches!(
            f.refactor(&cut),
            Err(CircuitError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_asymmetric_and_zero_diagonal() {
        let mut asym = SparseMatrix::zeros(2);
        asym.add(0, 0, 2.0);
        asym.add(1, 1, 2.0);
        asym.add(0, 1, -1.0); // no (1,0) twin
        assert!(!asym.is_spd_candidate());
        assert!(matches!(
            asym.factor_cholesky(),
            Err(CircuitError::NotPositiveDefinite { .. })
        ));

        // MNA voltage-source shape: zero diagonal on the branch row.
        let mut vsrc = SparseMatrix::zeros(2);
        vsrc.add(0, 0, 1.0);
        vsrc.add(0, 1, 1.0);
        vsrc.add(1, 0, 1.0);
        assert!(!vsrc.is_spd_candidate());
    }

    #[test]
    fn rejects_indefinite_values() {
        // Symmetric with positive diagonal but not positive definite:
        // [[1, 2], [2, 1]] has eigenvalues 3 and -1.
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 0, 1.0);
        m.add(1, 1, 1.0);
        m.add(0, 1, 2.0);
        m.add(1, 0, 2.0);
        assert!(m.is_spd_candidate(), "screen can't see indefiniteness");
        assert!(matches!(
            m.factor_cholesky(),
            Err(CircuitError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn solve_into_reuses_buffer_and_empty_matrix_works() {
        let m = grid_laplacian(6, 6);
        let f = m.factor_cholesky().unwrap();
        let b1 = vec![1.0; m.n()];
        let b2 = vec![-2.0; m.n()];
        let mut x = Vec::new();
        f.solve_into(&b1, &mut x);
        assert!(residual_norm(&m, &x, &b1) < 1e-9);
        f.solve_into(&b2, &mut x);
        assert!(residual_norm(&m, &x, &b2) < 1e-9);

        let empty = SparseMatrix::zeros(0);
        let fe = empty.factor_cholesky().unwrap();
        assert!(fe.solve(&[]).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// With an 8-node leaf the grids proptest can afford are
        /// dissected for real: the LDLᵀ solve must still agree with LU to
        /// 1e-9 relative, and the parallel schedule must reproduce the
        /// serial factor bit for bit.
        #[test]
        fn dissected_factor_agrees_with_lu_and_its_serial_twin(
            rows in 2_usize..17,
            cols in 2_usize..17,
            seed in 0_u64..u64::MAX,
        ) {
            let m = random_spd_grid(rows, cols, seed);
            let par = m.factor_cholesky_inner(true, 8).expect("grid stamp is SPD");
            let ser = m.factor_cholesky_inner(false, 8).expect("grid stamp is SPD");
            prop_assert_eq!(par.nnz(), ser.nnz());
            for (a, b) in par.l_values().iter().zip(ser.l_values()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in par.diagonal().iter().zip(ser.diagonal()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            let mut rng = StdRng::seed_from_u64(!seed);
            let b: Vec<f64> = (0..m.n()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let xc = par.solve(&b);
            let xl = m.factor().expect("grid stamp is nonsingular").solve(&b);
            let scale = xl.iter().fold(1.0_f64, |s, &v| s.max(v.abs()));
            for (k, (&a, &r)) in xc.iter().zip(&xl).enumerate() {
                prop_assert!(
                    (a - r).abs() <= 1.0e-9 * scale,
                    "node {k}: cholesky {a} vs lu {r} (scale {scale})"
                );
            }
        }
    }
}
