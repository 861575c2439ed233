//! Numerical-health assessment: condition estimation, convergence-rate
//! fitting, and the `health.*` metric catalog.
//!
//! The solver stack can fail in ways a residual history alone cannot
//! explain — a near-singular MNA matrix, pivot growth eating the
//! factorization's accuracy, a Picard loop that is oscillating rather
//! than contracting. This module holds the *math* of diagnosing those
//! failures; the instrumented crates (`hotwire-circuit`,
//! `hotwire-coupled`) call it and publish the results through the
//! metrics registry under the names in [`names`], and the coupled
//! engine attaches a [`HealthReport`] to every report and diagnostic
//! bundle (see [`crate::recorder`]).
//!
//! Everything here is feature-independent pure arithmetic: the
//! `telemetry` feature gates *recording*, not *assessment*, so a
//! `--no-default-features` build still classifies its own convergence.
//!
//! # Condition estimation
//!
//! [`condest_1norm`] is Hager's 1-norm power iteration in the form
//! popularized by Higham (the LAPACK `xLACON` kernel): it estimates
//! ‖A⁻¹‖₁ from a handful of solves with an existing factorization of
//! `A` and `Aᵀ`, never forming the inverse. The estimate is a **lower
//! bound** on the true condition number; in practice it is within a
//! small factor (the property tests in `tests/health_properties.rs`
//! pin [`CONDEST_UNDERESTIMATE_FACTOR`]).

use crate::json::Json;

/// Documented worst-case slack of [`condest_1norm`] on the random
/// grid-like matrices the property tests generate: the estimate is an
/// exact lower bound (`est ≤ κ₁`) and is asserted to stay within this
/// multiplicative factor of the true 1-norm condition number
/// (`est ≥ κ₁ / CONDEST_UNDERESTIMATE_FACTOR`). Hager's iteration has
/// adversarial counterexamples far worse than this, but they do not
/// arise from diagonally-dominant MNA stamps.
pub const CONDEST_UNDERESTIMATE_FACTOR: f64 = 10.0;

/// Hager iterations before giving up; Higham reports the iteration
/// almost always converges in 2, and LAPACK caps at 5.
const CONDEST_MAX_ITERS: usize = 5;

/// Estimates the 1-norm condition number κ₁(A) = ‖A‖₁‖A⁻¹‖₁ of an
/// already-factored `n × n` matrix via Hager/Higham power iteration on
/// ‖A⁻¹‖₁.
///
/// `anorm_1` is ‖A‖₁ of the stamped matrix (cheap: max column absolute
/// sum). `solve(b, x)` must write `x = A⁻¹b` and `solve_transposed(b,
/// x)` must write `x = A⁻ᵀb`, both reusing the factorization — the
/// whole estimate costs O(few solves), no refactorization.
///
/// Returns `0.0` for an empty matrix, `f64::INFINITY` when a solve
/// produces non-finite values (numerically singular), and otherwise a
/// lower bound on κ₁ (see [`CONDEST_UNDERESTIMATE_FACTOR`]).
pub fn condest_1norm(
    n: usize,
    anorm_1: f64,
    mut solve: impl FnMut(&[f64], &mut [f64]),
    mut solve_transposed: impl FnMut(&[f64], &mut [f64]),
) -> f64 {
    if n == 0 || anorm_1 == 0.0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let mut x = vec![1.0 / n as f64; n];
    let mut y = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut est = 0.0_f64;
    for iter in 0..CONDEST_MAX_ITERS {
        solve(&x, &mut y);
        let ynorm: f64 = y.iter().map(|v| v.abs()).sum();
        if !ynorm.is_finite() {
            return f64::INFINITY;
        }
        // The iteration is an ascent on ‖A⁻¹x‖₁ over the unit 1-norm
        // ball; once a step stops improving the previous estimate is
        // the answer.
        if iter > 0 && ynorm <= est {
            break;
        }
        est = ynorm;
        let xi: Vec<f64> = y
            .iter()
            .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
            .collect();
        solve_transposed(&xi, &mut z);
        if z.iter().any(|v| !v.is_finite()) {
            return f64::INFINITY;
        }
        let (j, zmax) = z
            .iter()
            .enumerate()
            .fold((0, 0.0_f64), |(bj, bv), (i, &v)| {
                if v.abs() > bv {
                    (i, v.abs())
                } else {
                    (bj, bv)
                }
            });
        let ztx: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
        // Optimality test: the subgradient certificate z attains its
        // max at the current vertex — no better e_j exists.
        if zmax <= ztx.abs() {
            break;
        }
        x.iter_mut().for_each(|v| *v = 0.0);
        x[j] = 1.0;
    }
    let kappa = est * anorm_1;
    if kappa.is_finite() {
        kappa
    } else {
        f64::INFINITY
    }
}

/// Early classification of a fixed-point iteration from its residual
/// (`delta`) history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConvergenceClass {
    /// Deltas are contracting; the loop should reach tolerance.
    Converging,
    /// Deltas are flat — neither contracting nor growing. Raising the
    /// iteration cap will not help; the fixed point is out of reach at
    /// this damping/tolerance.
    Stagnated,
    /// Deltas alternate between growth and shrinkage around a flat
    /// trend — the classic overshooting signature; lower the damping.
    Oscillating,
    /// Deltas are growing; the iteration is moving away from the fixed
    /// point.
    Diverging,
    /// Not enough history to say (fewer than three deltas).
    Unknown,
}

impl ConvergenceClass {
    /// Stable lower-case label used in JSON, metrics, and `doctor`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Converging => "converging",
            Self::Stagnated => "stagnated",
            Self::Oscillating => "oscillating",
            Self::Diverging => "diverging",
            Self::Unknown => "unknown",
        }
    }

    /// Parses [`ConvergenceClass::label`] output (`None` otherwise).
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "converging" => Some(Self::Converging),
            "stagnated" => Some(Self::Stagnated),
            "oscillating" => Some(Self::Oscillating),
            "diverging" => Some(Self::Diverging),
            "unknown" => Some(Self::Unknown),
            _ => None,
        }
    }
}

/// Fitted convergence-rate diagnosis of a Picard (fixed-point) loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PicardHealth {
    /// Fitted per-iteration contraction factor: the geometric mean of
    /// consecutive delta ratios over the recent window. `< 1` is
    /// contracting, `≈ 1` stagnating, `> 1` growing; `0` when fewer
    /// than two deltas exist.
    pub contraction: f64,
    /// Iterations still needed to bring the last delta under tolerance
    /// at the fitted rate; `None` unless the loop is classified
    /// [`ConvergenceClass::Converging`] and is not there yet.
    pub predicted_iterations: Option<u64>,
    /// The early classification.
    pub class: ConvergenceClass,
}

/// Window of recent deltas the rate fit looks at; the start of a
/// Picard transient is deliberately forgotten.
const RATE_WINDOW: usize = 8;

/// Fits a contraction factor to a delta history and classifies the
/// iteration (see [`ConvergenceClass`]).
///
/// `deltas` is the per-iteration residual sequence (most recent last),
/// `tolerance` the loop's convergence threshold in the same units.
/// Non-positive deltas are treated as converged-scale noise.
#[must_use]
pub fn picard_rate(deltas: &[f64], tolerance: f64) -> PicardHealth {
    let window = &deltas[deltas.len().saturating_sub(RATE_WINDOW)..];
    let ratios: Vec<f64> = window
        .windows(2)
        .filter(|w| w[0] > 0.0 && w[1] > 0.0)
        .map(|w| w[1] / w[0])
        .collect();
    let last = window.last().copied().unwrap_or(0.0);
    if ratios.is_empty() {
        let class = if last > 0.0 && last <= tolerance {
            ConvergenceClass::Converging
        } else {
            ConvergenceClass::Unknown
        };
        return PicardHealth {
            contraction: 0.0,
            predicted_iterations: None,
            class,
        };
    }
    #[allow(clippy::cast_precision_loss)]
    let contraction = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    if last <= tolerance {
        return PicardHealth {
            contraction,
            predicted_iterations: None,
            class: ConvergenceClass::Converging,
        };
    }
    if ratios.len() < 2 {
        return PicardHealth {
            contraction,
            predicted_iterations: None,
            class: ConvergenceClass::Unknown,
        };
    }
    // Oscillation: the log-ratios keep changing sign (grow, shrink,
    // grow, …) while the overall trend is roughly flat.
    let flips = ratios
        .windows(2)
        .filter(|w| (w[0] > 1.0) != (w[1] > 1.0))
        .count();
    let class =
        if ratios.iter().rev().take(3).filter(|&&r| r > 1.0).count() == 3 || contraction > 1.2 {
            ConvergenceClass::Diverging
        } else if flips + 1 >= ratios.len() && (0.8..=1.25).contains(&contraction) {
            ConvergenceClass::Oscillating
        } else if (0.95..=1.05).contains(&contraction) {
            ConvergenceClass::Stagnated
        } else if contraction < 1.0 {
            ConvergenceClass::Converging
        } else {
            ConvergenceClass::Diverging
        };
    let predicted_iterations = if class == ConvergenceClass::Converging && contraction > 0.0 {
        let n = (tolerance / last).ln() / contraction.ln();
        if n.is_finite() && n > 0.0 {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(n.ceil().min(1e12) as u64)
        } else {
            None
        }
    } else {
        None
    };
    PicardHealth {
        contraction,
        predicted_iterations,
        class,
    }
}

/// A self-contained numerical-health summary: what the monitors saw
/// during one solver run.
///
/// Attached to `CoupledReport`, embedded in diagnostic bundles
/// ([`crate::recorder::bundle`]), and rendered by `hotwire doctor`.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Fixed-point rate diagnosis.
    pub picard: PicardHealth,
    /// Iterations the loop actually ran.
    pub iterations: u64,
    /// Final delta (residual) of the loop, kelvin for the coupled
    /// engine.
    pub last_delta: f64,
    /// The convergence threshold the loop was aiming for.
    pub tolerance: f64,
    /// Hager/Higham κ₁ estimate of the most recently sampled
    /// electrical factorization, when one was computed.
    pub condition_estimate: Option<f64>,
    /// Worst post-solve relative residual ‖Ax−b‖∞/‖b‖∞ observed.
    pub residual_rel: Option<f64>,
    /// KCL current-conservation audit: worst per-node current
    /// imbalance relative to the total load current.
    pub kcl_imbalance_rel: Option<f64>,
    /// LU pivot-growth factor max|U| / max|A| of the sampled
    /// factorization.
    pub pivot_growth: Option<f64>,
}

impl HealthReport {
    /// Serializes to the bundle schema documented in
    /// `docs/OBSERVABILITY.md`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::from);
        Json::object([
            ("class", Json::from(self.picard.class.label())),
            ("contraction", Json::from(self.picard.contraction)),
            (
                "predicted_iterations",
                self.picard
                    .predicted_iterations
                    .map_or(Json::Null, Json::from),
            ),
            ("iterations", Json::from(self.iterations)),
            ("last_delta", Json::from(self.last_delta)),
            ("tolerance", Json::from(self.tolerance)),
            ("condition_estimate", opt(self.condition_estimate)),
            ("residual_rel", opt(self.residual_rel)),
            ("kcl_imbalance_rel", opt(self.kcl_imbalance_rel)),
            ("pivot_growth", opt(self.pivot_growth)),
        ])
    }

    /// Rebuilds a report from [`HealthReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let class = v
            .get("class")
            .and_then(Json::as_str)
            .and_then(ConvergenceClass::from_label)
            .ok_or("missing or unknown `class`")?;
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("missing number `{key}`"))
        };
        let opt = |key: &str| v.get(key).and_then(Json::as_f64);
        Ok(Self {
            picard: PicardHealth {
                contraction: num("contraction")?,
                predicted_iterations: v.get("predicted_iterations").and_then(Json::as_u64),
                class,
            },
            iterations: v
                .get("iterations")
                .and_then(Json::as_u64)
                .ok_or("missing count `iterations`")?,
            last_delta: num("last_delta")?,
            tolerance: num("tolerance")?,
            condition_estimate: opt("condition_estimate"),
            residual_rel: opt("residual_rel"),
            kcl_imbalance_rel: opt("kcl_imbalance_rel"),
            pivot_growth: opt("pivot_growth"),
        })
    }
}

/// Registry names of the `health.*` metric family (catalog in
/// `docs/OBSERVABILITY.md`). Centralized so the instrumented crates,
/// the CI schema assertions, and the docs cannot drift apart.
pub mod names {
    /// Gauge: Hager/Higham κ₁ estimate of the sampled factorization.
    pub const COND_EST: &str = "health.cond_est";
    /// Counter: condition estimates computed (sampling, not per-solve).
    pub const COND_SAMPLES: &str = "health.cond_samples";
    /// Gauge: last post-solve relative residual ‖Ax−b‖∞/‖b‖∞.
    pub const RESIDUAL_REL: &str = "health.residual_rel";
    /// Counter: residual checks that exceeded the warn threshold.
    pub const RESIDUAL_WARN: &str = "health.residual_warn";
    /// Gauge: KCL audit — worst node imbalance / total load current.
    pub const KCL_IMBALANCE_REL: &str = "health.kcl_imbalance_rel";
    /// Counter: KCL audits that exceeded the warn threshold.
    pub const KCL_WARN: &str = "health.kcl_warn";
    /// Gauge: LU pivot growth max|U|/max|A| of the last factorization.
    pub const PIVOT_GROWTH: &str = "health.pivot_growth";
    /// Gauge: smallest |LDLᵀ pivot| of the last Cholesky factorization.
    pub const CHOL_MIN_PIVOT: &str = "health.chol_min_pivot";
    /// Gauge: fitted Picard contraction factor.
    pub const PICARD_CONTRACTION: &str = "health.picard.contraction";
    /// Gauge: predicted iterations-to-converge at the fitted rate.
    pub const PICARD_PREDICTED: &str = "health.picard.predicted_iters";
    /// Counter: iterations classified stagnated.
    pub const PICARD_STAGNATED: &str = "health.picard.stagnated";
    /// Counter: iterations classified oscillating.
    pub const PICARD_OSCILLATING: &str = "health.picard.oscillating";
    /// Counter: iterations classified diverging.
    pub const PICARD_DIVERGING: &str = "health.picard.diverging";
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-norm of a dense row-major `n × n` matrix.
    fn norm_1(a: &[Vec<f64>]) -> f64 {
        let n = a.len();
        (0..n)
            .map(|j| (0..n).map(|i| a[i][j].abs()).sum())
            .fold(0.0, f64::max)
    }

    /// Partially-pivoted Gaussian elimination solve, fine for the tiny
    /// well-conditioned fixtures below.
    fn dense_solve(a: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
        let n = a.len();
        let mut m: Vec<Vec<f64>> = a.to_vec();
        let mut x = b.to_vec();
        for k in 0..n {
            let p = (k..n)
                .max_by(|&i, &j| m[i][k].abs().total_cmp(&m[j][k].abs()))
                .unwrap();
            m.swap(k, p);
            x.swap(k, p);
            let (pivot_rows, rest) = m.split_at_mut(k + 1);
            let pivot = &pivot_rows[k];
            for (off, row) in rest.iter_mut().enumerate() {
                let f = row[k] / pivot[k];
                for (rj, &pj) in row[k..].iter_mut().zip(&pivot[k..]) {
                    *rj -= f * pj;
                }
                x[k + 1 + off] -= f * x[k];
            }
        }
        for i in (0..n).rev() {
            for j in i + 1..n {
                let xj = x[j];
                x[i] -= m[i][j] * xj;
            }
            x[i] /= m[i][i];
        }
        x
    }

    fn transpose(a: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let n = a.len();
        (0..n).map(|i| (0..n).map(|j| a[j][i]).collect()).collect()
    }

    fn exact_cond_1(a: &[Vec<f64>]) -> f64 {
        let n = a.len();
        // ‖A⁻¹‖₁ column by column.
        let inv_norm = (0..n)
            .map(|j| {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                dense_solve(a, &e).iter().map(|v| v.abs()).sum::<f64>()
            })
            .fold(0.0, f64::max);
        norm_1(a) * inv_norm
    }

    fn estimate(a: &[Vec<f64>]) -> f64 {
        let at = transpose(a);
        condest_1norm(
            a.len(),
            norm_1(a),
            |b, x| x.copy_from_slice(&dense_solve(a, b)),
            |b, x| x.copy_from_slice(&dense_solve(&at, b)),
        )
    }

    #[test]
    fn condest_is_exact_on_diagonal_matrices() {
        let a = vec![
            vec![4.0, 0.0, 0.0],
            vec![0.0, 0.5, 0.0],
            vec![0.0, 0.0, 2.0],
        ];
        let est = estimate(&a);
        assert!((est - 8.0).abs() < 1e-12, "κ₁ = 4/0.5 = 8, got {est}");
    }

    #[test]
    fn condest_lower_bounds_and_tracks_the_exact_value() {
        let a = vec![
            vec![10.0, -1.0, 0.0, -2.0],
            vec![-1.0, 7.0, -3.0, 0.0],
            vec![0.0, -3.0, 9.0, -1.0],
            vec![-2.0, 0.0, -1.0, 6.0],
        ];
        let exact = exact_cond_1(&a);
        let est = estimate(&a);
        assert!(est <= exact * (1.0 + 1e-9), "est {est} > exact {exact}");
        assert!(
            est >= exact / CONDEST_UNDERESTIMATE_FACTOR,
            "est {est} too far below exact {exact}"
        );
    }

    #[test]
    fn condest_flags_singularity_as_infinite() {
        // Solve against a singular matrix yields non-finite values.
        let est = condest_1norm(2, 1.0, |_, x| x.fill(f64::NAN), |_, x| x.fill(f64::NAN));
        assert_eq!(est, f64::INFINITY);
        assert_eq!(condest_1norm(0, 0.0, |_, _| (), |_, _| ()), 0.0);
    }

    #[test]
    fn geometric_decay_is_converging_with_a_rate() {
        let deltas: Vec<f64> = (0..10).map(|i| 8.0 * 0.5_f64.powi(i)).collect();
        let h = picard_rate(&deltas, 1e-6);
        assert_eq!(h.class, ConvergenceClass::Converging);
        assert!((h.contraction - 0.5).abs() < 1e-9);
        // last delta 8·0.5⁹ ≈ 1.56e-2; (ln(1e-6/1.56e-2))/ln(0.5) ≈ 13.9.
        assert_eq!(h.predicted_iterations, Some(14));
    }

    #[test]
    fn flat_history_is_stagnated() {
        let deltas = vec![0.5, 0.505, 0.495, 0.5, 0.501, 0.499];
        let h = picard_rate(&deltas, 1e-6);
        assert!(
            matches!(
                h.class,
                ConvergenceClass::Stagnated | ConvergenceClass::Oscillating
            ),
            "{h:?}"
        );
        assert!(h.predicted_iterations.is_none());
    }

    #[test]
    fn growth_is_diverging() {
        let deltas: Vec<f64> = (0..8).map(|i| 0.1 * 1.9_f64.powi(i)).collect();
        let h = picard_rate(&deltas, 1e-6);
        assert_eq!(h.class, ConvergenceClass::Diverging);
        assert!(h.contraction > 1.5);
    }

    #[test]
    fn alternating_growth_is_oscillating() {
        let mut deltas = Vec::new();
        let mut d = 1.0;
        for i in 0..10 {
            d *= if i % 2 == 0 { 1.6 } else { 0.65 };
            deltas.push(d);
        }
        let h = picard_rate(&deltas, 1e-6);
        assert_eq!(h.class, ConvergenceClass::Oscillating, "{h:?}");
    }

    /// Anderson-accelerated Picard contracts superlinearly: the ratios
    /// shrink step after step instead of settling on a rate. Every
    /// prefix the engine classifies on the way must stay clear of the
    /// oscillating/stagnated verdicts (their counters would false-alarm),
    /// and the full history is converging.
    #[test]
    fn superlinear_anderson_histories_are_converging() {
        for deltas in [
            &[66.6, 48.1, 13.0, 0.331, 0.0145][..],
            &[37.5, 20.1, 1.83, 0.0241][..],
        ] {
            for n in 1..=deltas.len() {
                let class = picard_rate(&deltas[..n], 0.05).class;
                assert!(
                    !matches!(
                        class,
                        ConvergenceClass::Oscillating | ConvergenceClass::Stagnated
                    ),
                    "prefix {:?} classified {class:?}",
                    &deltas[..n]
                );
            }
            let h = picard_rate(deltas, 0.05);
            assert_eq!(h.class, ConvergenceClass::Converging, "{deltas:?}: {h:?}");
            assert!(h.contraction < 1.0, "{h:?}");
        }
    }

    #[test]
    fn short_history_is_unknown_and_converged_is_converging() {
        assert_eq!(picard_rate(&[], 1e-6).class, ConvergenceClass::Unknown);
        assert_eq!(picard_rate(&[0.5], 1e-6).class, ConvergenceClass::Unknown);
        let h = picard_rate(&[0.5, 1e-9], 1e-6);
        assert_eq!(h.class, ConvergenceClass::Converging);
    }

    #[test]
    fn health_report_round_trips_through_json() {
        let report = HealthReport {
            picard: PicardHealth {
                contraction: 0.42,
                predicted_iterations: Some(7),
                class: ConvergenceClass::Converging,
            },
            iterations: 12,
            last_delta: 3.2e-4,
            tolerance: 1e-4,
            condition_estimate: Some(1.8e6),
            residual_rel: Some(4.4e-13),
            kcl_imbalance_rel: None,
            pivot_growth: Some(1.9),
        };
        let text = report.to_json().to_pretty_string();
        let back = HealthReport::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn class_labels_round_trip() {
        for class in [
            ConvergenceClass::Converging,
            ConvergenceClass::Stagnated,
            ConvergenceClass::Oscillating,
            ConvergenceClass::Diverging,
            ConvergenceClass::Unknown,
        ] {
            assert_eq!(ConvergenceClass::from_label(class.label()), Some(class));
        }
        assert_eq!(ConvergenceClass::from_label("nope"), None);
    }
}
