//! Preconditioned conjugate gradients for SPD systems — the factor-free
//! inner solve of the coupled Picard loop.
//!
//! Both linear systems of a coupled iteration are SPD: the reduced DC
//! grid (pads eliminated, `gmin` on the diagonal) and the chip thermal
//! map (a 5-point stencil with every node tied to the substrate). Their
//! callers own the operator and the preconditioner, so [`pcg`] takes
//! both as closures and only runs the iteration:
//!
//! * the chip thermal map is strongly diagonally dominant, so a Jacobi
//!   preconditioner converges in a handful of iterations from a cold
//!   start (see `thermal::chip`);
//! * the DC grid changes only through ρ(T) between Picard steps, so the
//!   LDLᵀ factor of an earlier step is a near-exact preconditioner for
//!   the current one (see [`crate::grid_dc`]).
//!
//! The kernel allocates nothing once its [`PcgWork`] has been sized,
//! runs every reduction as a serial left-to-right loop (so results are
//! independent of the thread count), and stops at one fixed rule:
//! ‖r‖∞ ≤ [`PCG_RTOL`]·‖b‖∞ on the recurrence residual.
//!
//! ```
//! use hotwire_circuit::pcg::{pcg, PcgWork};
//!
//! // [4 1; 1 3]·x = [1; 2], Jacobi-preconditioned.
//! let a = [[4.0, 1.0], [1.0, 3.0]];
//! let apply = |x: &[f64], y: &mut [f64]| {
//!     y[0] = a[0][0] * x[0] + a[0][1] * x[1];
//!     y[1] = a[1][0] * x[0] + a[1][1] * x[1];
//! };
//! let jacobi = |r: &[f64], z: &mut [f64]| {
//!     z[0] = r[0] / 4.0;
//!     z[1] = r[1] / 3.0;
//! };
//! let mut x = [0.0; 2];
//! let iterations = pcg(apply, jacobi, &[1.0, 2.0], &mut x, 10, &mut PcgWork::default())
//!     .expect("SPD system converges");
//! assert!(iterations <= 2, "CG is exact after n steps");
//! assert!((x[0] - 1.0 / 11.0).abs() < 1e-12 && (x[1] - 7.0 / 11.0).abs() < 1e-12);
//! ```

/// Relative stopping tolerance: iteration stops once the residual's
/// max-norm falls to `PCG_RTOL·‖b‖∞`. Fixed, so every caller converges
/// to the same standard a direct solve meets on these grids.
pub const PCG_RTOL: f64 = 1e-12;

/// Why a [`pcg`] attempt gave up. `x` holds the last iterate; callers
/// fall back to a direct solve or report the failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcgFailure {
    /// What stopped the iteration.
    pub reason: PcgFailureReason,
    /// Iterations performed before stopping.
    pub iterations: usize,
    /// ‖r‖∞/‖b‖∞ at the last finite residual.
    pub residual_rel: f64,
}

/// The three ways a [`pcg`] attempt fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PcgFailureReason {
    /// The iteration budget ran out before the tolerance was met.
    Budget,
    /// A search direction had `pᵀ·A·p ≤ 0` (or `rᵀ·z ≤ 0`): the operator
    /// or the preconditioner is not positive definite.
    Indefinite,
    /// A NaN or infinity appeared in a reduction.
    NonFinite,
}

/// Reusable work vectors for [`pcg`]: residual `r`, preconditioned
/// residual `z`, direction `p` and `q = A·p`. Sized on first use and
/// kept, so repeated solves of one dimension allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct PcgWork {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
}

impl PcgWork {
    fn resize(&mut self, n: usize) {
        for v in [&mut self.r, &mut self.z, &mut self.p, &mut self.q] {
            v.resize(n, 0.0);
        }
    }
}

/// Solves `A·x = b` by preconditioned conjugate gradients, starting
/// from the `x` passed in (zero it for a cold start).
///
/// `apply(v, out)` writes `A·v`; `precondition(r, out)` writes `M⁻¹·r`
/// for an SPD `M ≈ A`. Both overwrite every entry of `out`. Returns the
/// number of iterations (0 when the start already meets the
/// tolerance, and for `b = 0`, where `x` is set to zero).
///
/// # Errors
///
/// Returns [`PcgFailure`] when `max_iterations` run out, a curvature
/// `pᵀ·A·p` or `rᵀ·z` is not positive, or a reduction goes non-finite.
///
/// # Panics
///
/// Panics when `x.len() != b.len()`.
pub fn pcg<A, M>(
    mut apply: A,
    mut precondition: M,
    b: &[f64],
    x: &mut [f64],
    max_iterations: usize,
    work: &mut PcgWork,
) -> Result<usize, PcgFailure>
where
    A: FnMut(&[f64], &mut [f64]),
    M: FnMut(&[f64], &mut [f64]),
{
    assert_eq!(x.len(), b.len(), "pcg: solution and rhs lengths differ");
    let b_norm = max_abs(b);
    if b_norm == 0.0 {
        x.fill(0.0);
        return Ok(0);
    }
    work.resize(b.len());
    let PcgWork { r, z, p, q } = work;
    let tol = PCG_RTOL * b_norm;
    let fail = |reason, iterations, r_norm: f64| PcgFailure {
        reason,
        iterations,
        residual_rel: r_norm / b_norm,
    };

    apply(x, q);
    for ((ri, bi), qi) in r.iter_mut().zip(b).zip(q.iter()) {
        *ri = bi - qi;
    }
    let mut r_norm = max_abs(r);
    if !r_norm.is_finite() {
        return Err(fail(PcgFailureReason::NonFinite, 0, f64::INFINITY));
    }
    if r_norm <= tol {
        return Ok(0);
    }
    precondition(r, z);
    let mut rz = dot(r, z);
    p.copy_from_slice(z);
    for it in 1..=max_iterations {
        if !(rz > 0.0) {
            let reason = if rz.is_finite() {
                PcgFailureReason::Indefinite
            } else {
                PcgFailureReason::NonFinite
            };
            return Err(fail(reason, it - 1, r_norm));
        }
        apply(p, q);
        let pq = dot(p, q);
        if !(pq > 0.0) {
            let reason = if pq.is_finite() {
                PcgFailureReason::Indefinite
            } else {
                PcgFailureReason::NonFinite
            };
            return Err(fail(reason, it, r_norm));
        }
        let alpha = rz / pq;
        for ((xi, ri), (pi, qi)) in x.iter_mut().zip(r.iter_mut()).zip(p.iter().zip(q.iter())) {
            *xi += alpha * pi;
            *ri -= alpha * qi;
        }
        let norm = max_abs(r);
        if !norm.is_finite() {
            return Err(fail(PcgFailureReason::NonFinite, it, r_norm));
        }
        r_norm = norm;
        if r_norm <= tol {
            return Ok(it);
        }
        precondition(r, z);
        let rz_next = dot(r, z);
        let beta = rz_next / rz;
        rz = rz_next;
        for (pi, zi) in p.iter_mut().zip(z.iter()) {
            *pi = zi + beta * *pi;
        }
    }
    Err(fail(PcgFailureReason::Budget, max_iterations, r_norm))
}

/// Serial left-to-right dot product.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
}

/// ‖v‖∞, NaN-propagating (a NaN entry makes the norm NaN).
fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, &x| {
        if x.is_nan() || m.is_nan() {
            f64::NAN
        } else {
            m.max(x.abs())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-D Dirichlet Laplacian `tridiag(-1, 2 + shift, -1)`.
    fn laplacian(shift: f64) -> impl FnMut(&[f64], &mut [f64]) {
        move |x: &[f64], y: &mut [f64]| {
            let n = x.len();
            for i in 0..n {
                let mut acc = (2.0 + shift) * x[i];
                if i > 0 {
                    acc -= x[i - 1];
                }
                if i + 1 < n {
                    acc -= x[i + 1];
                }
                y[i] = acc;
            }
        }
    }

    fn identity(r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }

    #[test]
    fn converges_to_the_stopping_rule_within_n_steps() {
        let n = 40;
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let mut x = vec![0.0; n];
        let mut work = PcgWork::default();
        let it = pcg(laplacian(0.01), identity, &b, &mut x, 4 * n, &mut work).unwrap();
        assert!(it <= n + 5, "CG took {it} iterations on n = {n}");
        let mut ax = vec![0.0; n];
        laplacian(0.01)(&x, &mut ax);
        let res = ax
            .iter()
            .zip(&b)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(res <= 1e-10 * max_abs(&b), "true residual {res}");
    }

    #[test]
    fn warm_start_at_the_solution_takes_no_iterations() {
        let b = [1.0, 2.0, 3.0];
        let mut x = [0.0; 3];
        let mut work = PcgWork::default();
        pcg(laplacian(1.0), identity, &b, &mut x, 10, &mut work).unwrap();
        let it = pcg(laplacian(1.0), identity, &b, &mut x, 10, &mut work).unwrap();
        assert_eq!(it, 0);
    }

    #[test]
    fn zero_rhs_zeroes_the_solution() {
        let mut x = [5.0, -1.0];
        let it = pcg(
            laplacian(0.0),
            identity,
            &[0.0, 0.0],
            &mut x,
            3,
            &mut PcgWork::default(),
        );
        assert_eq!(it, Ok(0));
        assert_eq!(x, [0.0, 0.0]);
    }

    #[test]
    fn failures_are_typed() {
        let b = [1.0; 30];
        let mut work = PcgWork::default();
        let mut x = [0.0; 30];
        let budget = pcg(laplacian(0.0), identity, &b, &mut x, 2, &mut work).unwrap_err();
        assert_eq!(budget.reason, PcgFailureReason::Budget);
        assert_eq!(budget.iterations, 2);
        assert!(budget.residual_rel > PCG_RTOL);

        let negate = |x: &[f64], y: &mut [f64]| {
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi = -xi;
            }
        };
        let mut x = [0.0; 30];
        let indefinite = pcg(negate, identity, &b, &mut x, 10, &mut work).unwrap_err();
        assert_eq!(indefinite.reason, PcgFailureReason::Indefinite);

        let poison = |_: &[f64], y: &mut [f64]| y.fill(f64::NAN);
        let mut x = [0.0; 30];
        let nan = pcg(poison, identity, &b, &mut x, 10, &mut work).unwrap_err();
        assert_eq!(nan.reason, PcgFailureReason::NonFinite);
    }
}
