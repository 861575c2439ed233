//! Chip-scale steady-state thermal map for power-grid straps.
//!
//! The coupled electro-thermal signoff loop needs the temperature of
//! every strap segment given every segment's Joule dissipation. At chip
//! scale the relevant physics is the paper's §2.2 picture applied per
//! node: heat generated in the metal flows *down* through the
//! inter-layer dielectric into the substrate (held at the reference
//! temperature) and *sideways* along the metal straps themselves, whose
//! thermal conductivity is two orders of magnitude above the oxide's.
//! Quasi-2D spreading in the dielectric is folded into the vertical path
//! exactly as eq. 9 does for a single line, via the effective width
//! `W + φ·t_ox` (see [`crate::impedance::effective_width`]).
//!
//! The model is a node-based finite-volume system on the strap
//! intersections:
//!
//! * each node owns the half-segments incident on it and gets their
//!   vertical (node-to-substrate) conductance `G_half` each;
//! * adjacent nodes couple through the strap's axial metal conduction
//!   `G_lat = k_m·W·t_m / ℓ`;
//! * node powers (W) come from splitting each branch's `I²R` equally
//!   onto its endpoints.
//!
//! With uniform current this reduces per segment to exactly
//! ΔT = j²·ρ·κ with κ from [`crate::impedance::self_heating_constant`] —
//! the single-wire limit the eq. 13 solver uses — which is what anchors
//! the coupled loop's single-wire regression test.
//!
//! The conduction matrix is an SPD M-matrix and is never factored.
//! Every node is tied to the substrate, so the matrix is strongly
//! diagonally dominant: with `m ≤ 4` incident segments a node's
//! diagonal is `m·(G_half + G_lat)` against `m·G_lat` off the diagonal,
//! and in the demo geometry `G_lat ≈ 0.04·G_half`. Jacobi-preconditioned
//! CG ([`hotwire_circuit::pcg`]) therefore converges in a handful of
//! stencil sweeps from a cold start. [`ChipThermalModel::new`] only
//! precomputes the stencil diagonal; see THEORY.md §10 for the
//! condition-number bound.

use crate::error::ThermalError;
use hotwire_circuit::pcg::{pcg, PcgWork};
use hotwire_obs::{metrics, recorder};

/// A chip thermal model over a `rows × cols` grid of strap
/// intersections: the 5-point conduction stencil and the CG work
/// vectors its solves reuse.
#[derive(Debug, Clone)]
pub struct ChipThermalModel {
    rows: usize,
    cols: usize,
    lateral_g: f64,
    vertical_g: Vec<f64>,
    /// Stencil diagonal: vertical plus incident lateral conductances.
    diag: Vec<f64>,
    work: PcgWork,
}

impl ChipThermalModel {
    /// Builds the conduction stencil.
    ///
    /// `lateral_conductance` is the strap-axial metal conductance per
    /// branch, `k_m·W·t_m / ℓ` (W/K); `vertical_half_conductance` is the
    /// node-to-substrate conductance contributed by **one** incident
    /// half-segment, `W_eff·(ℓ/2) / Σ(tᵢ/kᵢ)` (W/K). A node touching
    /// `m` segments gets `m × vertical_half_conductance` to the sink.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidInput`] for a degenerate grid
    /// (fewer than two intersections) or non-physical conductances.
    pub fn new(
        rows: usize,
        cols: usize,
        lateral_conductance: f64,
        vertical_half_conductance: f64,
    ) -> Result<Self, ThermalError> {
        if rows == 0 || cols == 0 || rows * cols < 2 {
            return Err(ThermalError::InvalidInput {
                message: format!("chip thermal map needs ≥ 2 intersections, got {rows}×{cols}"),
            });
        }
        if !(vertical_half_conductance > 0.0) || !vertical_half_conductance.is_finite() {
            return Err(ThermalError::InvalidInput {
                message: format!(
                    "vertical half-segment conductance must be positive, got {vertical_half_conductance}"
                ),
            });
        }
        if !(lateral_conductance >= 0.0) || !lateral_conductance.is_finite() {
            return Err(ThermalError::InvalidInput {
                message: format!(
                    "lateral conductance must be non-negative, got {lateral_conductance}"
                ),
            });
        }
        metrics::counter("thermal.chip.factor").inc();
        recorder::record(
            "thermal.factor",
            format_args!("chip thermal map {rows}x{cols} (Jacobi-preconditioned CG)"),
        );
        let _t = hotwire_obs::trace::span("thermal.chip.factor_time");
        let n = rows * cols;
        let mut vertical_g = vec![0.0; n];
        let mut diag = vec![0.0; n];
        for r in 0..rows {
            for c in 0..cols {
                let incident = usize::from(c > 0)
                    + usize::from(c + 1 < cols)
                    + usize::from(r > 0)
                    + usize::from(r + 1 < rows);
                let m = incident as f64;
                vertical_g[r * cols + c] = m * vertical_half_conductance;
                diag[r * cols + c] = m * vertical_half_conductance + m * lateral_conductance;
            }
        }
        Ok(Self {
            rows,
            cols,
            lateral_g: lateral_conductance,
            vertical_g,
            diag,
            work: PcgWork::default(),
        })
    }

    /// Number of intersections.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.rows * self.cols
    }

    /// The node-to-substrate conductance of intersection
    /// `(row, col)` (W/K), row-major.
    ///
    /// # Panics
    ///
    /// Panics if the intersection is outside the grid.
    #[must_use]
    pub fn vertical_conductance(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols);
        self.vertical_g[row * self.cols + col]
    }

    /// Solves for per-node temperature **rise** above the substrate
    /// reference (K) given per-node powers (W), both row-major
    /// (`row * cols + col`). Runs Jacobi-preconditioned CG from a zero
    /// start, so the result depends on the powers alone; the work
    /// vectors are reused across calls.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidInput`] on a length mismatch or a
    /// non-finite/negative power, and [`ThermalError::NoConvergence`]
    /// if CG fails to reach its residual target within `2n + 100`
    /// iterations.
    pub fn solve_into(
        &mut self,
        node_power: &[f64],
        rise: &mut Vec<f64>,
    ) -> Result<(), ThermalError> {
        let n = self.node_count();
        if node_power.len() != n {
            return Err(ThermalError::InvalidInput {
                message: format!("expected {n} node powers, got {}", node_power.len()),
            });
        }
        for (k, &p) in node_power.iter().enumerate() {
            if !(p >= 0.0) || !p.is_finite() {
                return Err(ThermalError::InvalidInput {
                    message: format!("node {k} power must be finite and ≥ 0, got {p}"),
                });
            }
        }
        metrics::counter("thermal.chip.solves").inc();
        let _t = hotwire_obs::trace::span("thermal.chip.solve_time");
        rise.clear();
        rise.resize(n, 0.0);
        // In exact arithmetic CG ends within n iterations; the slack
        // absorbs rounding on small grids.
        let cap = 2 * n + 100;
        let (rows, cols, g, diag) = (self.rows, self.cols, self.lateral_g, &self.diag);
        let iterations = pcg(
            |x, y| apply_stencil(rows, cols, g, diag, x, y),
            |r, z| {
                for ((zi, ri), di) in z.iter_mut().zip(r).zip(diag) {
                    *zi = ri / di;
                }
            },
            node_power,
            rise,
            cap,
            &mut self.work,
        )
        .map_err(|failure| ThermalError::NoConvergence {
            iterations: failure.iterations,
            residual: failure.residual_rel,
        })?;
        metrics::counter("thermal.chip.cg_iterations").add(iterations as u64);
        Ok(())
    }

    /// Allocating convenience wrapper around
    /// [`ChipThermalModel::solve_into`].
    ///
    /// # Errors
    ///
    /// As [`ChipThermalModel::solve_into`].
    pub fn solve(&mut self, node_power: &[f64]) -> Result<Vec<f64>, ThermalError> {
        let mut rise = Vec::new();
        self.solve_into(node_power, &mut rise)?;
        Ok(rise)
    }
}

/// `y = A·x` for the 5-point conduction stencil, row-major.
fn apply_stencil(rows: usize, cols: usize, g: f64, diag: &[f64], x: &[f64], y: &mut [f64]) {
    for r in 0..rows {
        for c in 0..cols {
            let k = r * cols + c;
            let mut nbr = 0.0;
            if c > 0 {
                nbr += x[k - 1];
            }
            if c + 1 < cols {
                nbr += x[k + 1];
            }
            if r > 0 {
                nbr += x[k - cols];
            }
            if r + 1 < rows {
                nbr += x[k + cols];
            }
            y[k] = diag[k] * x[k] - g * nbr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(ChipThermalModel::new(1, 1, 1.0, 1.0).is_err());
        assert!(ChipThermalModel::new(0, 5, 1.0, 1.0).is_err());
        assert!(ChipThermalModel::new(2, 2, 1.0, 0.0).is_err());
        assert!(ChipThermalModel::new(2, 2, -1.0, 1.0).is_err());
        assert!(ChipThermalModel::new(2, 2, f64::NAN, 1.0).is_err());
        assert!(ChipThermalModel::new(2, 2, 1.0, 1.0).is_ok());
    }

    #[test]
    fn zero_lateral_decouples_nodes() {
        // Without metal conduction every node is P/G_v exactly.
        let mut m = ChipThermalModel::new(3, 4, 0.0, 0.5).unwrap();
        let p: Vec<f64> = (0..12).map(|k| 0.1 * (k + 1) as f64).collect();
        let t = m.solve(&p).unwrap();
        for r in 0..3 {
            for c in 0..4 {
                let k = r * 4 + c;
                let expect = p[k] / m.vertical_conductance(r, c);
                assert!((t[k] - expect).abs() < 1e-12, "node {k}");
            }
        }
    }

    #[test]
    fn energy_balance_closes_with_lateral_conduction() {
        // All heat must leave through the vertical conductances.
        let mut m = ChipThermalModel::new(5, 7, 2.0, 0.3).unwrap();
        let p: Vec<f64> = (0..35).map(|k| ((k * 13) % 7) as f64 * 0.05).collect();
        let t = m.solve(&p).unwrap();
        let total_in: f64 = p.iter().sum();
        let mut total_out = 0.0;
        for r in 0..5 {
            for c in 0..7 {
                total_out += t[r * 7 + c] * m.vertical_conductance(r, c);
            }
        }
        assert!(
            (total_in - total_out).abs() < 1e-9 * total_in,
            "in {total_in} vs out {total_out}"
        );
    }

    #[test]
    fn lateral_conduction_spreads_a_hot_spot() {
        let rows = 5;
        let cols = 5;
        let mut p = vec![0.0; rows * cols];
        p[2 * cols + 2] = 1.0;
        let mut isolated = ChipThermalModel::new(rows, cols, 0.0, 0.2).unwrap();
        let mut coupled = ChipThermalModel::new(rows, cols, 1.0, 0.2).unwrap();
        let ti = isolated.solve(&p).unwrap();
        let tc = coupled.solve(&p).unwrap();
        // The heated node cools down; its neighbors warm up.
        assert!(tc[2 * cols + 2] < ti[2 * cols + 2]);
        assert!(ti[2 * cols + 1] == 0.0);
        assert!(tc[2 * cols + 1] > 0.0);
        // Peak stays at the heated node.
        let peak = tc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak, 2 * cols + 2);
    }

    #[test]
    fn tall_and_wide_grids_agree_by_transpose() {
        // Solving a tall grid and its wide transpose must give the same
        // field (exercises both unknown orderings).
        let (rows, cols) = (3, 6);
        let p: Vec<f64> = (0..rows * cols).map(|k| 0.01 * (k % 5) as f64).collect();
        let mut wide = ChipThermalModel::new(rows, cols, 0.7, 0.2).unwrap();
        let mut tall = ChipThermalModel::new(cols, rows, 0.7, 0.2).unwrap();
        let tw = wide.solve(&p).unwrap();
        let mut pt = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                pt[c * rows + r] = p[r * cols + c];
            }
        }
        let tt = tall.solve(&pt).unwrap();
        for r in 0..rows {
            for c in 0..cols {
                let a = tw[r * cols + c];
                let b = tt[c * rows + r];
                assert!((a - b).abs() < 1e-12, "({r},{c}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn sparse_backend_engages_and_satisfies_the_stencil() {
        // A grid past the old band/sparse switch must still solve the
        // same physics: check the finite-volume stencil residual at
        // every node.
        let (rows, cols) = (66, 66);
        let gl = 0.8;
        let gh = 0.3;
        let mut m = ChipThermalModel::new(rows, cols, gl, gh).unwrap();
        let p: Vec<f64> = (0..rows * cols)
            .map(|k| ((k * 7) % 11) as f64 * 0.02)
            .collect();
        let t = m.solve(&p).unwrap();
        let mut worst = 0.0f64;
        for r in 0..rows {
            for c in 0..cols {
                let k = r * cols + c;
                let mut acc = m.vertical_conductance(r, c) * t[k];
                let mut couple = |nk: usize| acc += gl * (t[k] - t[nk]);
                if c > 0 {
                    couple(k - 1);
                }
                if c + 1 < cols {
                    couple(k + 1);
                }
                if r > 0 {
                    couple(k - cols);
                }
                if r + 1 < rows {
                    couple(k + cols);
                }
                worst = worst.max((acc - p[k]).abs());
            }
        }
        assert!(worst < 1e-9, "stencil residual {worst}");
    }

    #[test]
    fn single_row_chain_matches_hand_solution() {
        // 1×2 chain, one branch: both nodes have one incident
        // half-segment. Equal powers ⇒ equal temperatures ⇒ no lateral
        // flow: ΔT = P / G_half regardless of the lateral conductance.
        let mut m = ChipThermalModel::new(1, 2, 3.0, 0.25).unwrap();
        let t = m.solve(&[0.5, 0.5]).unwrap();
        assert!((t[0] - 2.0).abs() < 1e-12);
        assert!((t[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn input_validation_on_solve() {
        let mut m = ChipThermalModel::new(2, 2, 1.0, 1.0).unwrap();
        assert!(m.solve(&[0.0; 3]).is_err());
        assert!(m.solve(&[0.0, 0.0, 0.0, f64::NAN]).is_err());
        assert!(m.solve(&[0.0, 0.0, 0.0, -1.0]).is_err());
    }
}
