//! Anderson acceleration (type II, Walker & Ni 2011) of the branch-
//! temperature fixed point `T ↦ G(T)`.
//!
//! With residual `f_k = G(x_k) − x_k` and the last `m ≤ DEPTH`
//! differences `ΔF = [f_{i+1} − f_i]`, `ΔX = [x_{i+1} − x_i]`, the next
//! iterate is
//!
//! ```text
//! γ       = argmin ‖f_k − ΔF·γ‖₂
//! x_{k+1} = x_k + β·f_k − (ΔX + β·ΔF)·γ
//! ```
//!
//! with the mixing parameter β = the engine's damping. An empty history
//! is the plain damped step `x + β·f`. When the residual's max-norm
//! grows the history is dropped (a *restart*), so the mixer falls back
//! to a damped step exactly where acceleration stopped helping.
//!
//! Every buffer is allocated the first time it is needed and reused
//! from then on: the history is a ring of `DEPTH` column pairs, and the
//! residual swaps places with the previous one instead of being cloned.

/// History depth `m`: how many residual differences the least-squares
/// fit mixes.
const DEPTH: usize = 3;

/// Relative pivot under which a Gram-matrix column counts as linearly
/// dependent on the newer ones and the oldest column is dropped.
const PIVOT_FLOOR: f64 = 1.0e-12;

/// Anderson mixing state of one fixed-point loop.
#[derive(Debug, Clone)]
pub(crate) struct Anderson {
    beta: f64,
    /// Residual of the current iterate (filled by the caller).
    f: Vec<f64>,
    f_prev: Vec<f64>,
    x_prev: Vec<f64>,
    /// `ΔF` columns, a ring: column `j` of the fit is slot
    /// `(head + j) % DEPTH`, oldest first.
    df: [Vec<f64>; DEPTH],
    /// `ΔX + β·ΔF` columns, slot-aligned with `df`.
    dg: [Vec<f64>; DEPTH],
    head: usize,
    len: usize,
    /// Max-norm of `f_prev`, once there is a previous iterate.
    prev_norm: Option<f64>,
}

impl Anderson {
    pub(crate) fn new(beta: f64) -> Self {
        Self {
            beta,
            f: Vec::new(),
            f_prev: Vec::new(),
            x_prev: Vec::new(),
            df: Default::default(),
            dg: Default::default(),
            head: 0,
            len: 0,
            prev_norm: None,
        }
    }

    /// Forgets the previous iterate and every difference; buffers stay
    /// allocated. The next update is a plain damped step.
    pub(crate) fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.prev_norm = None;
    }

    /// The residual buffer, sized to `n`, for the caller to fill with
    /// `G(x) − x` before [`Anderson::update`].
    pub(crate) fn residual_mut(&mut self, n: usize) -> &mut [f64] {
        self.f.resize(n, 0.0);
        &mut self.f
    }

    /// Moves `x` to the next iterate given the residual already written
    /// through [`Anderson::residual_mut`] and its max-norm. Returns
    /// `true` when a growing residual restarted the history.
    pub(crate) fn update(&mut self, x: &mut [f64], norm: f64) -> bool {
        let n = x.len();
        let mut restarted = false;
        if let Some(prev_norm) = self.prev_norm {
            if norm > prev_norm {
                self.len = 0;
                restarted = true;
            } else {
                self.push_difference(x);
            }
        }
        self.x_prev.resize(n, 0.0);
        self.x_prev.copy_from_slice(x);
        let mut gamma = [0.0_f64; DEPTH];
        let m = self.solve_gamma(&mut gamma);
        let dg: [&[f64]; DEPTH] = std::array::from_fn(|j| &self.dg[(self.head + j) % DEPTH][..]);
        for (i, (xi, &fi)) in x.iter_mut().zip(&self.f).enumerate() {
            let mixed: f64 = dg[..m].iter().zip(&gamma).map(|(col, g)| col[i] * g).sum();
            *xi += self.beta * fi - mixed;
        }
        std::mem::swap(&mut self.f, &mut self.f_prev);
        self.prev_norm = Some(norm);
        restarted
    }

    /// Appends `Δf = f − f_prev` and `Δx + β·Δf` as the newest column,
    /// overwriting the oldest one once the ring is full.
    fn push_difference(&mut self, x: &[f64]) {
        let slot = if self.len < DEPTH {
            self.len += 1;
            (self.head + self.len - 1) % DEPTH
        } else {
            let oldest = self.head;
            self.head = (self.head + 1) % DEPTH;
            oldest
        };
        let (df, dg) = (&mut self.df[slot], &mut self.dg[slot]);
        df.resize(x.len(), 0.0);
        dg.resize(x.len(), 0.0);
        for i in 0..x.len() {
            let d_f = self.f[i] - self.f_prev[i];
            df[i] = d_f;
            dg[i] = (x[i] - self.x_prev[i]) + self.beta * d_f;
        }
    }

    /// Solves the `m × m` normal equations `ΔFᵀΔF·γ = ΔFᵀf` by Cholesky,
    /// dropping the oldest column while the Gram matrix is numerically
    /// singular. Returns the number of columns `γ` covers (0 = plain
    /// damped step).
    fn solve_gamma(&mut self, gamma: &mut [f64; DEPTH]) -> usize {
        let m = self.len;
        let cols: [&[f64]; DEPTH] = std::array::from_fn(|j| &self.df[(self.head + j) % DEPTH][..]);
        let mut gram = [[0.0_f64; DEPTH]; DEPTH];
        let mut rhs = [0.0_f64; DEPTH];
        for (a, col_a) in cols.iter().enumerate().take(m) {
            rhs[a] = dot(col_a, &self.f);
            for (b, col_b) in cols.iter().enumerate().take(a + 1) {
                gram[a][b] = dot(col_a, col_b);
            }
        }
        // Dropping the oldest column deletes row/column 0 of the
        // system; `skip` counts how many were dropped.
        for skip in 0..m {
            if let Some(solution) = cholesky_solve(&gram, &rhs, skip, m) {
                self.head = (self.head + skip) % DEPTH;
                self.len = m - skip;
                gamma[..self.len].copy_from_slice(&solution[..self.len]);
                return self.len;
            }
        }
        self.len = 0;
        0
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves the trailing `k = m − skip` block of the symmetric system
/// whose lower triangle is `gram`, or `None` when a pivot falls under
/// [`PIVOT_FLOOR`] relative to its diagonal.
fn cholesky_solve(
    gram: &[[f64; DEPTH]; DEPTH],
    rhs: &[f64; DEPTH],
    skip: usize,
    m: usize,
) -> Option<[f64; DEPTH]> {
    let k = m - skip;
    let mut l = [[0.0_f64; DEPTH]; DEPTH];
    for a in 0..k {
        for b in 0..=a {
            let lower: f64 = l[a][..b].iter().zip(&l[b][..b]).map(|(x, y)| x * y).sum();
            let s = gram[skip + a][skip + b] - lower;
            if a == b {
                if !(s > PIVOT_FLOOR * gram[skip + a][skip + a]) {
                    return None;
                }
                l[a][a] = s.sqrt();
            } else {
                l[a][b] = s / l[b][b];
            }
        }
    }
    // L·y = rhs, then Lᵀ·γ = y, in place.
    let mut y = [0.0_f64; DEPTH];
    for a in 0..k {
        let lower: f64 = l[a][..a].iter().zip(&y[..a]).map(|(x, y)| x * y).sum();
        y[a] = (rhs[skip + a] - lower) / l[a][a];
    }
    for a in (0..k).rev() {
        let upper: f64 = (a + 1..k).map(|c| l[c][a] * y[c]).sum();
        y[a] = (y[a] - upper) / l[a][a];
    }
    Some(y)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a fixed-point map to convergence; returns the iterate
    /// and the iteration count.
    fn iterate(
        beta: f64,
        x0: &[f64],
        g: impl Fn(&[f64], &mut [f64]),
        tol: f64,
    ) -> (Vec<f64>, usize) {
        let mut acc = Anderson::new(beta);
        let mut x = x0.to_vec();
        let mut gx = vec![0.0; x.len()];
        for k in 1..=200 {
            g(&x, &mut gx);
            let f = acc.residual_mut(x.len());
            let mut norm = 0.0_f64;
            for i in 0..x.len() {
                f[i] = gx[i] - x[i];
                norm = norm.max(f[i].abs());
            }
            if beta * norm <= tol {
                return (x, k);
            }
            acc.update(&mut x, norm);
        }
        panic!("no convergence");
    }

    #[test]
    fn linear_contraction_converges_in_few_steps() {
        // x = A·x + b with a slow (0.9) mode: damped Picard needs
        // hundreds of steps; Anderson with depth ≥ 2 spans the modes.
        let g = |x: &[f64], out: &mut [f64]| {
            out[0] = 0.9 * x[0] + 1.0;
            out[1] = 0.5 * x[1] + 0.1 * x[0] - 2.0;
        };
        let (x, k) = iterate(0.7, &[0.0, 0.0], g, 1e-10);
        assert!(k <= 8, "took {k} iterations");
        assert!((x[0] - 10.0).abs() < 1e-8, "{x:?}");
        assert!((x[1] - -2.0).abs() < 1e-8, "{x:?}");
    }

    #[test]
    fn empty_history_is_a_damped_step() {
        let mut acc = Anderson::new(0.5);
        let mut x = vec![1.0, 2.0];
        acc.residual_mut(2).copy_from_slice(&[4.0, -2.0]);
        assert!(!acc.update(&mut x, 4.0));
        assert_eq!(x, vec![3.0, 1.0]);
    }

    #[test]
    fn growing_residual_restarts_and_clear_forgets() {
        let mut acc = Anderson::new(1.0);
        let mut x = vec![0.0];
        acc.residual_mut(1)[0] = 1.0;
        acc.update(&mut x, 1.0);
        acc.residual_mut(1)[0] = 2.0;
        assert!(acc.update(&mut x, 2.0), "growth restarts");
        // After the restart the step is plain: x = 1 + 2.
        assert_eq!(x, vec![3.0]);
        acc.clear();
        acc.residual_mut(1)[0] = 5.0;
        assert!(!acc.update(&mut x, 5.0), "no previous norm after clear");
        assert_eq!(x, vec![8.0]);
    }

    #[test]
    fn dependent_columns_drop_to_a_solvable_fit() {
        // A 1-D problem keeps producing parallel difference columns; the
        // fit must drop them instead of dividing by a zero pivot.
        let g = |x: &[f64], out: &mut [f64]| out[0] = 0.5 * x[0] + 1.0;
        let (x, _) = iterate(0.7, &[0.0], g, 1e-12);
        assert!((x[0] - 2.0).abs() < 1e-10, "{x:?}");
    }
}
