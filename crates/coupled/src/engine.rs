//! The coupled fixed-point engine: IR drop ⇄ Joule heating ⇄
//! temperature-dependent resistivity, then an EM rollup on the
//! converged state.
//!
//! One iteration of the Anderson-accelerated Picard loop:
//!
//! 1. stamp every branch's conductance from its current temperature,
//!    `g_b = A / (ρ(T_b)·ℓ)`, and DC-solve the grid — the first solve
//!    factors the reduced sparse matrix, later solves reuse its
//!    symbolic structure via `refactor()`;
//! 2. convert branch currents to Joule powers `P_b = I_b²/g_b`, split
//!    them onto the end nodes, and solve the chip thermal map (factored
//!    once — thermal conductances never change);
//! 3. form the residual `f = G(T) − T` against the substrate-referenced
//!    field and move every branch temperature by Anderson mixing of the
//!    last three residual differences (damping `α` is the mixing
//!    parameter; a growing residual restarts to the plain damped step
//!    `T + α·f`). The *resistivity lookup* is clamped into the metal
//!    fit's validity window so an overshooting iterate can never stamp
//!    a non-physical resistance.
//!
//! Convergence is declared when the damped residual `α·max|f|` falls
//! under the tolerance; growth over consecutive iterations raises
//! [`CoupledError::Diverged`] naming the offending branches, and a
//! converged state still pinned at the validity limit raises
//! [`CoupledError::BeyondResistivityRange`].

use hotwire_circuit::grid_dc::DcGridSolver;
use hotwire_circuit::solver::SolverPath;
use hotwire_circuit::transient::TransientOptions;
use hotwire_core::signoff::{GoverningRule, NetVerdict};
use hotwire_em::blech::BlechModel;
use hotwire_em::lifetime::{LognormalLifetime, WeakestLinkPopulation};
use hotwire_em::BlackModel;
use hotwire_obs::health::{self, ConvergenceClass, HealthReport};
use hotwire_obs::trace::FieldValue;
use hotwire_obs::{metrics, recorder, trace as obs_trace};
use hotwire_tech::{Dielectric, Metal};
use hotwire_thermal::chip::ChipThermalModel;
use hotwire_thermal::impedance::{effective_width, InsulatorStack, QUASI_2D_PHI};
use hotwire_units::{Current, CurrentDensity, Kelvin, Length, Seconds, Voltage};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::anderson::Anderson;
use crate::error::{BranchHotspot, CoupledError};
use crate::trace::{ConvergenceTrace, IterationRecord};

/// How many offending branches an error report names.
const ERROR_REPORT_BRANCHES: usize = 8;

/// A strap between two grid intersections, `((row, col), (row, col))`.
pub type GridBranch = ((usize, usize), (usize, usize));

/// Specification of a power grid for coupled electro-thermal signoff.
///
/// Unlike the purely electrical
/// [`PowerGridSpec`](hotwire_circuit::power_grid::PowerGridSpec), this
/// carries the full physical picture: strap geometry, the inter-layer
/// dielectric under the straps, the metal's material model, and the
/// substrate reference temperature. `1 × N` chains are allowed — that
/// degenerate grid is the paper's single-wire limit and the anchor for
/// the eq. 13 regression test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoupledGridSpec {
    /// Number of strap intersections vertically.
    pub rows: usize,
    /// Number of strap intersections horizontally.
    pub cols: usize,
    /// Distance between adjacent intersections.
    pub pitch: Length,
    /// Strap width.
    pub strap_width: Length,
    /// Strap metal thickness.
    pub strap_thickness: Length,
    /// Thickness of the dielectric between the straps and the substrate.
    pub dielectric_thickness: Length,
    /// That dielectric's material.
    pub dielectric: Dielectric,
    /// Heat-spreading parameter φ (eq. 14; 2.45 for quasi-2D lines).
    pub phi: f64,
    /// The strap metal (resistivity fit, thermal conductivity, EM).
    pub metal: Metal,
    /// Supply voltage at the pads.
    pub vdd: Voltage,
    /// DC current drawn by the logic under each intersection.
    pub sink_per_node: Current,
    /// `(row, col)` intersections bonded to ideal supply pads.
    pub pads: Vec<(usize, usize)>,
    /// Substrate (chip reference) temperature.
    pub reference_temperature: Kelvin,
}

impl CoupledGridSpec {
    /// A representative deep-sub-micron Cu grid for demos and benches:
    /// 100 µm pitch, 2 × 0.8 µm straps over 1 µm of oxide, 2.5 V pads
    /// at the four corners, 0.2 mA per intersection, 100 °C substrate.
    #[must_use]
    pub fn demo(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            pitch: Length::from_micrometers(100.0),
            strap_width: Length::from_micrometers(2.0),
            strap_thickness: Length::from_micrometers(0.8),
            dielectric_thickness: Length::from_micrometers(1.0),
            dielectric: Dielectric::oxide(),
            phi: QUASI_2D_PHI,
            metal: Metal::copper(),
            vdd: Voltage::new(2.5),
            sink_per_node: Current::from_milliamps(0.2),
            pads: vec![
                (0, 0),
                (0, cols.saturating_sub(1)),
                (rows.saturating_sub(1), 0),
                (rows.saturating_sub(1), cols.saturating_sub(1)),
            ],
            reference_temperature: hotwire_units::Celsius::new(100.0).into(),
        }
    }
}

/// Knobs of the fixed-point iteration and the EM rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoupledOptions {
    /// Convergence tolerance on the damped residual
    /// `damping · max|G(T) − T|` (K).
    pub tolerance: f64,
    /// Iteration cap before [`CoupledError::NotConverged`].
    pub max_iterations: usize,
    /// Damping factor α ∈ (0, 1]: the mixing parameter of the Anderson
    /// update, which reduces to `T ← T + α·(G(T) − T)` with an empty
    /// history.
    pub damping: f64,
    /// Initial branch-temperature guess; defaults to the substrate
    /// reference.
    pub initial_temperature: Option<Kelvin>,
    /// Lognormal shape parameter σ of each strap's TTF distribution.
    pub sigma: f64,
    /// Cumulative failure fraction the TTF is quoted at (the paper uses
    /// 0.1 %).
    pub failure_quantile: f64,
    /// Blech immortality filter (None disables it).
    pub blech: Option<BlechModel>,
}

impl Default for CoupledOptions {
    fn default() -> Self {
        Self {
            tolerance: 0.05,
            max_iterations: 100,
            damping: 0.7,
            initial_temperature: None,
            sigma: 0.5,
            failure_quantile: 1.0e-3,
            blech: Some(BlechModel::copper()),
        }
    }
}

/// One strap's converged operating point plus its EM verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BranchAssessment {
    /// Tail intersection `(row, col)`.
    pub from: (usize, usize),
    /// Head intersection `(row, col)`.
    pub to: (usize, usize),
    /// Magnitude of the DC current through the strap.
    pub current: Current,
    /// The corresponding (average = RMS = peak, r = 1) density.
    pub density: CurrentDensity,
    /// The strap's converged metal temperature.
    pub temperature: Kelvin,
    /// The signoff verdict, in `core::signoff` style.
    pub verdict: NetVerdict,
    /// Black TTF at the local stress (`None` for immortal or idle
    /// straps, which cannot fail by EM).
    pub ttf: Option<Seconds>,
}

/// The converged chip-level result.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledReport {
    /// Picard iterations to convergence.
    pub iterations: usize,
    /// Damped residual `α·max|G(T) − T|` of every iteration (K), in
    /// order.
    pub iteration_deltas: Vec<f64>,
    /// Largest supply droop anywhere on the grid.
    pub worst_ir_drop: Voltage,
    /// The intersection with the largest droop.
    pub worst_node: (usize, usize),
    /// The hottest strap's metal temperature.
    pub peak_temperature: Kelvin,
    /// The full per-iteration residual history (what
    /// `coupled-signoff --trace-out` writes; superset of
    /// [`CoupledReport::iteration_deltas`]).
    pub trace: ConvergenceTrace,
    /// Every strap's assessment, in grid order.
    pub branches: Vec<BranchAssessment>,
    /// Weakest-link failure distribution over every mortal strap
    /// (`None` when the whole grid is immortal or idle).
    pub chip_failure: Option<WeakestLinkPopulation>,
    /// The chip TTF at the configured failure quantile.
    pub chip_ttf: Option<Seconds>,
    /// Numerical-health summary of the run: Picard rate fit, condition
    /// estimate, post-solve residual, and KCL audit (what a diagnostic
    /// bundle embeds and `hotwire doctor` renders).
    pub health: HealthReport,
}

impl CoupledReport {
    /// The failing straps, most over-stressed first (mirrors
    /// [`hotwire_core::signoff::ranked_violations`]).
    #[must_use]
    pub fn violations(&self) -> Vec<&BranchAssessment> {
        let mut v: Vec<&BranchAssessment> = self
            .branches
            .iter()
            .filter(|b| !b.verdict.passes())
            .collect();
        v.sort_by(|a, b| b.verdict.utilization.total_cmp(&a.verdict.utilization));
        v
    }

    /// `true` when every strap meets its rule.
    #[must_use]
    pub fn passes(&self) -> bool {
        self.branches.iter().all(|b| b.verdict.passes())
    }
}

/// The coupled engine: owns the DC solver (with its reusable
/// factorization), the factored chip thermal map, and the temperature
/// state.
#[derive(Debug, Clone)]
pub struct CoupledEngine {
    spec: CoupledGridSpec,
    options: CoupledOptions,
    branches: Vec<GridBranch>,
    solver: DcGridSolver,
    thermal: ChipThermalModel,
    cross_section: f64,
    branch_t: Vec<f64>,
    branch_g: Vec<f64>,
    /// Per-branch resistance multipliers (≥ 1) back-annotated by the
    /// tree-EM aging loop as voids grow under straps.
    branch_r_mult: Vec<f64>,
    node_power: Vec<f64>,
    node_rise: Vec<f64>,
    deltas: Vec<f64>,
    records: Vec<IterationRecord>,
    converged: bool,
    /// Mixing history of the temperature update.
    anderson: Anderson,
}

impl CoupledEngine {
    /// Validates the spec and builds both factorizable systems (the
    /// thermal one is factored here, once).
    ///
    /// # Errors
    ///
    /// Returns [`CoupledError::InvalidSpec`] for degenerate geometry,
    /// an empty or out-of-range pad list, or bad options.
    pub fn new(spec: CoupledGridSpec, options: CoupledOptions) -> Result<Self, CoupledError> {
        let invalid = |message: String| CoupledError::InvalidSpec { message };
        if spec.rows == 0 || spec.cols == 0 || spec.rows * spec.cols < 2 {
            return Err(invalid(format!(
                "grid needs at least 2 intersections, got {}×{}",
                spec.rows, spec.cols
            )));
        }
        for (what, v) in [
            ("pitch", spec.pitch.value()),
            ("strap width", spec.strap_width.value()),
            ("strap thickness", spec.strap_thickness.value()),
            ("dielectric thickness", spec.dielectric_thickness.value()),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(invalid(format!("{what} must be positive, got {v} m")));
            }
        }
        if !(spec.phi >= 0.0) || !spec.phi.is_finite() {
            return Err(invalid(format!("phi must be ≥ 0, got {}", spec.phi)));
        }
        if !(spec.sink_per_node.value() >= 0.0) {
            return Err(invalid(format!(
                "sink per node must be ≥ 0, got {}",
                spec.sink_per_node
            )));
        }
        if !(spec.reference_temperature.value() > 0.0) {
            return Err(invalid(format!(
                "reference temperature must be positive, got {}",
                spec.reference_temperature
            )));
        }
        if spec.pads.is_empty() {
            return Err(invalid("grid needs at least one pad".to_owned()));
        }
        for &(r, c) in &spec.pads {
            if r >= spec.rows || c >= spec.cols {
                return Err(invalid(format!(
                    "pad ({r}, {c}) outside the {}×{} grid",
                    spec.rows, spec.cols
                )));
            }
        }
        if !(options.tolerance > 0.0) || !options.tolerance.is_finite() {
            return Err(invalid(format!(
                "tolerance must be positive, got {} K",
                options.tolerance
            )));
        }
        if options.max_iterations == 0 {
            return Err(invalid("max_iterations must be at least 1".to_owned()));
        }
        if !(options.damping > 0.0 && options.damping <= 1.0) {
            return Err(invalid(format!(
                "damping must be in (0, 1], got {}",
                options.damping
            )));
        }
        if !(options.sigma > 0.0) || !options.sigma.is_finite() {
            return Err(invalid(format!(
                "lognormal sigma must be positive, got {}",
                options.sigma
            )));
        }
        if !(options.failure_quantile > 0.0 && options.failure_quantile < 1.0) {
            return Err(invalid(format!(
                "failure quantile must be in (0, 1), got {}",
                options.failure_quantile
            )));
        }
        let (lo, hi) = spec.metal.resistivity_validity_range();
        let t0 = options
            .initial_temperature
            .unwrap_or(spec.reference_temperature);
        if !(t0.value() >= lo.value() && t0.value() <= hi.value()) {
            return Err(invalid(format!(
                "initial temperature {} outside the resistivity fit's validity window [{:.1} K, {:.1} K]",
                t0,
                lo.value(),
                hi.value()
            )));
        }

        let (rows, cols) = (spec.rows, spec.cols);
        let mut branches = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    branches.push(((r, c), (r, c + 1)));
                }
                if r + 1 < rows {
                    branches.push(((r, c), (r + 1, c)));
                }
            }
        }
        let node_branches: Vec<(usize, usize)> = branches
            .iter()
            .map(|&((r0, c0), (r1, c1))| (r0 * cols + c0, r1 * cols + c1))
            .collect();
        let pinned: Vec<(usize, f64)> = spec
            .pads
            .iter()
            .map(|&(r, c)| (r * cols + c, spec.vdd.value()))
            .collect();
        let mut solver = DcGridSolver::new(
            rows * cols,
            node_branches,
            &pinned,
            TransientOptions::default().gmin,
        )?;
        for cell in 0..rows * cols {
            solver.set_sink(cell, spec.sink_per_node.value());
        }

        // Thermal conductances (W/K): axial metal conduction per branch
        // and per-half-segment vertical conduction through the ILD into
        // the substrate, with eq. 14's effective-width spreading.
        let area = spec.strap_width.value() * spec.strap_thickness.value();
        let pitch = spec.pitch.value();
        let stack = InsulatorStack::single(spec.dielectric_thickness, &spec.dielectric);
        let srt = stack.series_resistance_thickness();
        let w_eff = effective_width(spec.strap_width, spec.dielectric_thickness, spec.phi);
        let g_lateral = spec.metal.thermal_conductivity().value() * area / pitch;
        let g_half = w_eff.value() * (0.5 * pitch) / srt;
        let thermal = ChipThermalModel::new(rows, cols, g_lateral, g_half)?;

        let n_branches = branches.len();
        let anderson = Anderson::new(options.damping);
        Ok(Self {
            spec,
            options,
            branches,
            solver,
            thermal,
            cross_section: area,
            branch_t: vec![t0.value(); n_branches],
            branch_g: vec![0.0; n_branches],
            branch_r_mult: vec![1.0; n_branches],
            node_power: vec![0.0; rows * cols],
            node_rise: Vec::new(),
            deltas: Vec::new(),
            records: Vec::new(),
            converged: false,
            anderson,
        })
    }

    /// One Anderson-accelerated Picard iteration; returns the damped
    /// residual `damping · max|G(T) − T|` (K).
    ///
    /// # Errors
    ///
    /// Propagates electrical ([`CoupledError::Circuit`]) and thermal
    /// ([`CoupledError::Thermal`]) solve failures.
    pub fn step(&mut self) -> Result<f64, CoupledError> {
        metrics::counter("coupled.iterations").inc();
        // The per-iteration span carries the 1-based iteration index as
        // an attribute, so `hotwire trace` can key its critical-path
        // extraction on it; the stage spans below nest underneath.
        let _iter_span = obs_trace::span_with(
            "coupled.iteration",
            &[("iteration", FieldValue::U64(self.deltas.len() as u64 + 1))],
        );
        let step_start = hotwire_obs::Stopwatch::start();
        let metal = &self.spec.metal;
        let pitch = self.spec.pitch.value();
        let area = self.cross_section;
        // 1. Electrical: restamp ρ(T) and solve (refactor after the
        //    first iteration).
        let electrical_start = hotwire_obs::Stopwatch::start();
        {
            let _t = obs_trace::span("coupled.stamp_time");
            for (k, (g, &t)) in self.branch_g.iter_mut().zip(&self.branch_t).enumerate() {
                let (rho, _) = metal.resistivity_clamped(Kelvin::new(t));
                *g = area / (rho.value() * pitch * self.branch_r_mult[k]);
            }
        }
        {
            let _t = obs_trace::span("coupled.electrical_time");
            self.solver.solve(&self.branch_g)?;
        }
        let electrical = electrical_start.elapsed();
        // 2. Thermal: branch Joule powers onto end nodes, one banded
        //    substitution for the whole chip.
        let thermal_start = hotwire_obs::Stopwatch::start();
        self.node_power.iter_mut().for_each(|p| *p = 0.0);
        let cols = self.spec.cols;
        for (k, &((r0, c0), (r1, c1))) in self.branches.iter().enumerate() {
            let i = self.solver.branch_currents()[k];
            let p = i * i / self.branch_g[k];
            self.node_power[r0 * cols + c0] += 0.5 * p;
            self.node_power[r1 * cols + c1] += 0.5 * p;
        }
        {
            let _t = obs_trace::span("coupled.thermal_time");
            self.thermal
                .solve_into(&self.node_power, &mut self.node_rise)?;
        }
        let thermal = thermal_start.elapsed();
        // 3. Anderson-mixed update toward the substrate-referenced
        //    field: the residual is `G(T) − T`, its damped max-norm the
        //    reported delta.
        let _t_update = obs_trace::span("coupled.update_time");
        let t_ref = self.spec.reference_temperature.value();
        let residual = self.anderson.residual_mut(self.branches.len());
        let mut norm = 0.0_f64;
        for (k, &((r0, c0), (r1, c1))) in self.branches.iter().enumerate() {
            let rise = 0.5 * (self.node_rise[r0 * cols + c0] + self.node_rise[r1 * cols + c1]);
            residual[k] = t_ref + rise - self.branch_t[k];
            norm = norm.max(residual[k].abs());
        }
        let delta = self.options.damping * norm;
        if self.anderson.update(&mut self.branch_t, norm) {
            metrics::counter("coupled.anderson.restarts").inc();
        }
        let peak = self
            .branch_t
            .iter()
            .fold(f64::NEG_INFINITY, |m, &t| m.max(t));
        self.deltas.push(delta);
        self.converged = delta <= self.options.tolerance;
        let worst_drop = self.spec.vdd.value()
            - self
                .solver
                .node_voltages()
                .iter()
                .fold(f64::INFINITY, |m, &v| m.min(v));
        self.records.push(IterationRecord {
            iteration: self.deltas.len(),
            max_delta_t: delta,
            peak_temperature: peak,
            worst_ir_drop: worst_drop,
            electrical_ms: electrical.as_secs_f64() * 1e3,
            thermal_ms: thermal.as_secs_f64() * 1e3,
            total_ms: step_start.elapsed().as_secs_f64() * 1e3,
        });
        metrics::gauge("coupled.residual").set(delta);
        metrics::gauge("coupled.peak_t_k").set(peak);
        // Rate fit + early classification on the delta history so far;
        // the class counters let dashboards alarm on a sick loop long
        // before the iteration cap fires.
        let rate = health::picard_rate(&self.deltas, self.options.tolerance);
        metrics::gauge(health::names::PICARD_CONTRACTION).set(rate.contraction);
        if let Some(n) = rate.predicted_iterations {
            #[allow(clippy::cast_precision_loss)]
            metrics::gauge(health::names::PICARD_PREDICTED).set(n as f64);
        }
        match rate.class {
            ConvergenceClass::Stagnated => {
                metrics::counter(health::names::PICARD_STAGNATED).inc();
            }
            ConvergenceClass::Oscillating => {
                metrics::counter(health::names::PICARD_OSCILLATING).inc();
            }
            ConvergenceClass::Diverging => {
                metrics::counter(health::names::PICARD_DIVERGING).inc();
            }
            _ => {}
        }
        recorder::record(
            "coupled.iteration",
            format_args!(
                "iter {} delta {delta:.4e} K peak {peak:.2} K drop {worst_drop:.4} V \
                 contraction {:.3} class {}",
                self.deltas.len(),
                rate.contraction,
                rate.class.label()
            ),
        );
        if obs_trace::enabled(obs_trace::Level::Debug) {
            obs_trace::debug(
                "coupled",
                "iteration",
                &[
                    ("iteration", FieldValue::U64(self.deltas.len() as u64)),
                    ("max_delta_t_k", FieldValue::F64(delta)),
                    ("peak_t_k", FieldValue::F64(peak)),
                    ("worst_ir_drop_v", FieldValue::F64(worst_drop)),
                ],
            );
        }
        Ok(delta)
    }

    /// Runs [`CoupledEngine::step`] to convergence.
    ///
    /// # Errors
    ///
    /// [`CoupledError::Diverged`] when the update keeps growing,
    /// [`CoupledError::NotConverged`] at the iteration cap, and
    /// [`CoupledError::BeyondResistivityRange`] when the settled state
    /// is pinned at the metal fit's validity limit.
    pub fn run(&mut self) -> Result<(), CoupledError> {
        let _run_span = obs_trace::span("coupled.run");
        recorder::record(
            "coupled.run",
            format_args!(
                "start: {}x{} grid, tol {:.2e} K, damping {}, max {} iters",
                self.spec.rows,
                self.spec.cols,
                self.options.tolerance,
                self.options.damping,
                self.options.max_iterations
            ),
        );
        while !self.converged {
            if self.deltas.len() >= self.options.max_iterations {
                let last_delta = self.deltas.last().copied().unwrap_or(f64::INFINITY);
                recorder::record(
                    "coupled.not_converged",
                    format_args!(
                        "iteration cap {} hit with delta {last_delta:.4e} K (tol {:.2e} K)",
                        self.options.max_iterations, self.options.tolerance
                    ),
                );
                return Err(CoupledError::NotConverged {
                    iterations: self.deltas.len(),
                    last_delta,
                    history: self.deltas.clone(),
                    hottest: self.hotspots_by(|_, &t| t),
                });
            }
            let delta = self.step()?;
            let n = self.deltas.len();
            let growing = n >= 3
                && self.deltas[n - 1] > self.deltas[n - 2]
                && self.deltas[n - 2] > self.deltas[n - 3];
            if !delta.is_finite() || (growing && delta > 100.0 * self.options.tolerance) {
                recorder::record(
                    "coupled.diverged",
                    format_args!("delta {delta:.4e} K growing at iteration {n}"),
                );
                return Err(CoupledError::Diverged {
                    iterations: n,
                    delta,
                    offending: self.hotspots_by(|_, &t| t),
                });
            }
        }
        // Converged: audit current conservation on the settled grid.
        let kcl = self.solver.kcl_audit();
        recorder::record(
            "coupled.converged",
            format_args!(
                "{} iterations, last delta {:.4e} K, KCL imbalance {kcl:.3e}",
                self.deltas.len(),
                self.deltas.last().copied().unwrap_or(0.0)
            ),
        );
        let (_, hi) = self.spec.metal.resistivity_validity_range();
        let beyond: Vec<usize> = (0..self.branches.len())
            .filter(|&k| self.branch_t[k] >= hi.value())
            .collect();
        if !beyond.is_empty() {
            let mut offending: Vec<BranchHotspot> = beyond
                .iter()
                .map(|&k| BranchHotspot {
                    from: self.branches[k].0,
                    to: self.branches[k].1,
                    temperature: Kelvin::new(self.branch_t[k]),
                })
                .collect();
            offending.sort_by(|a, b| b.temperature.value().total_cmp(&a.temperature.value()));
            offending.truncate(ERROR_REPORT_BRANCHES);
            return Err(CoupledError::BeyondResistivityRange {
                limit: hi,
                offending,
            });
        }
        if obs_trace::enabled(obs_trace::Level::Info) {
            obs_trace::info(
                "coupled",
                "converged",
                &[
                    ("iterations", FieldValue::U64(self.deltas.len() as u64)),
                    (
                        "last_delta_k",
                        FieldValue::F64(self.deltas.last().copied().unwrap_or(0.0)),
                    ),
                ],
            );
        }
        Ok(())
    }

    /// The worst branches by a score function, for error reports.
    fn hotspots_by(&self, score: impl Fn(usize, &f64) -> f64) -> Vec<BranchHotspot> {
        let mut scored: Vec<(f64, usize)> = self
            .branch_t
            .iter()
            .enumerate()
            .map(|(k, t)| (score(k, t), k))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        scored
            .iter()
            .take(ERROR_REPORT_BRANCHES)
            .map(|&(_, k)| BranchHotspot {
                from: self.branches[k].0,
                to: self.branches[k].1,
                temperature: Kelvin::new(self.branch_t[k]),
            })
            .collect()
    }

    /// Iterations performed so far.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.deltas.len()
    }

    /// The convergence trace accumulated so far — available even when
    /// [`CoupledEngine::run`] fails, so a `--trace-out` post-mortem can
    /// see the residual history that led to the error.
    #[must_use]
    pub fn trace(&self) -> ConvergenceTrace {
        ConvergenceTrace {
            records: self.records.clone(),
            converged: self.converged,
            tolerance: self.options.tolerance,
            damping: self.options.damping,
        }
    }

    /// `true` once the temperature field has settled under tolerance.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Numerical-health summary of the run so far: the Picard rate fit
    /// over the delta history plus whatever the electrical solver's
    /// monitors have sampled. Available mid-run and after a failed
    /// [`CoupledEngine::run`] — the error-path diagnostic bundles lean
    /// on exactly that.
    #[must_use]
    pub fn health_report(&self) -> HealthReport {
        let kcl = if self.converged && self.solver.solve_count() > 0 {
            Some(self.solver.kcl_audit())
        } else {
            None
        };
        HealthReport {
            picard: health::picard_rate(&self.deltas, self.options.tolerance),
            iterations: self.deltas.len() as u64,
            last_delta: self.deltas.last().copied().unwrap_or(0.0),
            tolerance: self.options.tolerance,
            condition_estimate: self.solver.condition_estimate(),
            residual_rel: self.solver.last_residual_rel(),
            kcl_imbalance_rel: kcl,
            pivot_growth: self.solver.pivot_growth(),
        }
    }

    /// Per-branch metal temperatures (K), in grid order.
    #[must_use]
    pub fn branch_temperatures(&self) -> &[f64] {
        &self.branch_t
    }

    /// Per-branch resistance multipliers set by
    /// [`CoupledEngine::set_branch_resistance_multipliers`] (all 1 on a
    /// fresh engine), in grid order.
    #[must_use]
    pub fn branch_resistance_multipliers(&self) -> &[f64] {
        &self.branch_r_mult
    }

    /// Per-node voltages of the latest electrical solve, row-major.
    #[must_use]
    pub fn node_voltages(&self) -> &[f64] {
        self.solver.node_voltages()
    }

    /// The branch list, `((row, col), (row, col))` per strap.
    #[must_use]
    pub fn branches(&self) -> &[GridBranch] {
        &self.branches
    }

    /// Signed per-branch currents of the latest electrical solve
    /// (positive = conventional current from the branch's first node to
    /// its second), in grid order. The tree-EM layer consumes the sign
    /// to orient electron wind along each segment.
    #[must_use]
    pub fn branch_currents(&self) -> &[f64] {
        self.solver.branch_currents()
    }

    /// The grid spec the engine was built from.
    #[must_use]
    pub fn spec(&self) -> &CoupledGridSpec {
        &self.spec
    }

    /// The options the engine was built with.
    #[must_use]
    pub fn options(&self) -> &CoupledOptions {
        &self.options
    }

    /// Back-annotates per-branch resistance multipliers (≥ 1, one per
    /// strap) — the aging loop's hook: as voids grow, the liner carries
    /// the current at elevated resistance, which reshapes both the IR
    /// drop and the Joule heat of the next coupled solve.
    ///
    /// Call [`CoupledEngine::reset_convergence`] afterwards to re-run
    /// the fixed point with the new multipliers.
    ///
    /// # Errors
    ///
    /// [`CoupledError::InvalidSpec`] on a length mismatch or a
    /// multiplier below 1 / non-finite.
    pub fn set_branch_resistance_multipliers(
        &mut self,
        multipliers: &[f64],
    ) -> Result<(), CoupledError> {
        if multipliers.len() != self.branches.len() {
            return Err(CoupledError::InvalidSpec {
                message: format!(
                    "{} resistance multipliers for {} branches",
                    multipliers.len(),
                    self.branches.len()
                ),
            });
        }
        if let Some(bad) = multipliers.iter().find(|m| !m.is_finite() || **m < 1.0) {
            return Err(CoupledError::InvalidSpec {
                message: format!("resistance multipliers must be finite and ≥ 1, got {bad}"),
            });
        }
        self.branch_r_mult.copy_from_slice(multipliers);
        // Residuals of the old map must not mix with the new one's.
        self.anderson.clear();
        Ok(())
    }

    /// Clears the convergence state (residual and Anderson history, and
    /// the flag) while keeping the warm temperature field and
    /// factorizations — the aging loop calls this between epochs so
    /// each re-solve gets the full iteration budget and converges fast
    /// from the warm start.
    pub fn reset_convergence(&mut self) {
        self.deltas.clear();
        self.records.clear();
        self.converged = false;
        self.anderson.clear();
    }

    /// Size of the reduced electrical system.
    #[must_use]
    pub fn unknown_count(&self) -> usize {
        self.solver.unknown_count()
    }

    /// Which linear-solver backend served the electrical solves, or
    /// `None` before the first factorization. SPD grid stamps route to
    /// sparse Cholesky; everything else takes LU.
    #[must_use]
    pub fn solver_path(&self) -> Option<SolverPath> {
        self.solver.solver_path()
    }

    /// Evaluates the per-branch EM stage on the converged state and
    /// rolls it up into the chip-level report. The per-branch verdicts
    /// run on a rayon pool in an order-preserving fan-out, so the
    /// result is byte-identical to [`CoupledEngine::assess_serial`].
    ///
    /// # Errors
    ///
    /// [`CoupledError::InvalidSpec`] when called before convergence;
    /// [`CoupledError::Em`] if the statistics stage rejects a TTF.
    pub fn assess(&self) -> Result<CoupledReport, CoupledError> {
        self.assess_impl(true)
    }

    /// Serial twin of [`CoupledEngine::assess`] (determinism reference).
    ///
    /// # Errors
    ///
    /// As [`CoupledEngine::assess`].
    pub fn assess_serial(&self) -> Result<CoupledReport, CoupledError> {
        self.assess_impl(false)
    }

    fn assess_impl(&self, parallel: bool) -> Result<CoupledReport, CoupledError> {
        if !self.converged {
            return Err(CoupledError::InvalidSpec {
                message: "assess() requires a converged engine; call run() first".to_owned(),
            });
        }
        let _assess_span = obs_trace::span("coupled.assess");
        let black = BlackModel::for_metal(&self.spec.metal);
        let blech = self.options.blech;
        let pitch = self.spec.pitch;
        let area = self.cross_section;
        let eval = |k: usize| -> (BranchAssessment, Option<(CurrentDensity, Kelvin)>) {
            let (from, to) = self.branches[k];
            let i = self.solver.branch_currents()[k].abs();
            let j = i / area;
            let t = Kelvin::new(self.branch_t[k]);
            let allowed_wearout = black.allowed_average_density(t);
            let blech_floor = blech.as_ref().map(|b| b.immortality_density(pitch));
            let (allowed, governing) = match blech_floor {
                Some(floor) if floor > allowed_wearout => (floor, GoverningRule::BlechImmortal),
                _ => (allowed_wearout, GoverningRule::SelfConsistent),
            };
            let immortal = j <= 0.0
                || blech
                    .as_ref()
                    .is_some_and(|b| b.is_immortal(CurrentDensity::new(j), pitch));
            let verdict = NetVerdict {
                net: format!("strap ({},{})->({},{})", from.0, from.1, to.0, to.1),
                allowed_j_peak: allowed,
                governing,
                utilization: j / allowed.value(),
                metal_temperature: t,
            };
            // Atomic counters, so the serial and parallel fan-outs
            // agree on the totals.
            if immortal {
                metrics::counter("coupled.em.immortal_straps").inc();
            } else {
                metrics::counter("coupled.em.mortal_straps").inc();
            }
            let stress = (!immortal).then_some((CurrentDensity::new(j), t));
            (
                BranchAssessment {
                    from,
                    to,
                    current: Current::new(i),
                    density: CurrentDensity::new(j),
                    temperature: t,
                    verdict,
                    ttf: None, // filled from the batch TTF below
                },
                stress,
            )
        };
        // One contiguous chunk of straps per worker, one span per chunk:
        // a strap takes well under a microsecond, too little to carry a
        // span of its own. The context is snapped before the fan-out so
        // the worker spans parent under `coupled.assess`.
        let n = self.branches.len();
        let workers = if parallel {
            rayon::current_num_threads()
        } else {
            1
        };
        let chunk_len = n.div_ceil(workers);
        let chunks: Vec<std::ops::Range<usize>> = (0..n)
            .step_by(chunk_len)
            .map(|start| start..(start + chunk_len).min(n))
            .collect();
        let ctx = obs_trace::context();
        let eval_chunk = |straps: std::ops::Range<usize>| -> Vec<_> {
            let _ctx = ctx.adopt();
            let _chunk_span = obs_trace::span_with(
                "coupled.em.chunk",
                &[("straps", FieldValue::U64(straps.len() as u64))],
            );
            straps.map(eval).collect()
        };
        let per_chunk: Vec<Vec<_>> = if parallel {
            chunks.into_par_iter().map(eval_chunk).collect()
        } else {
            chunks.into_iter().map(eval_chunk).collect()
        };
        let mut assessed = Vec::with_capacity(n);
        for chunk in per_chunk {
            assessed.extend(chunk);
        }
        // Batch TTF over the mortal straps, then the weakest-link rollup.
        let stresses: Vec<(CurrentDensity, Kelvin)> =
            assessed.iter().filter_map(|(_, s)| *s).collect();
        let ttfs = black.batch_ttf(&stresses);
        let mut members = Vec::with_capacity(ttfs.len());
        // `batch_ttf` yields one TTF per stress, and `stresses` holds
        // one entry per mortal branch in order — zipping the mortal
        // subset against the TTFs restores the pairing without an
        // unreachable-panic path.
        let mortal = assessed.iter_mut().filter(|(_, stress)| stress.is_some());
        for ((branch, _), &ttf) in mortal.zip(&ttfs) {
            branch.ttf = Some(ttf);
            members.push(
                LognormalLifetime::from_quantile(
                    ttf,
                    self.options.failure_quantile,
                    self.options.sigma,
                )
                .map_err(CoupledError::Em)?,
            );
        }
        let chip_failure = if members.is_empty() {
            None
        } else {
            Some(WeakestLinkPopulation::new(members).map_err(CoupledError::Em)?)
        };
        let chip_ttf = match &chip_failure {
            Some(pop) => Some(
                pop.time_to_fraction(self.options.failure_quantile)
                    .map_err(CoupledError::Em)?,
            ),
            None => None,
        };

        let vdd = self.spec.vdd.value();
        let cols = self.spec.cols;
        let mut worst_drop = 0.0_f64;
        let mut worst_node = (0, 0);
        for r in 0..self.spec.rows {
            for c in 0..cols {
                let drop = vdd - self.solver.node_voltages()[r * cols + c];
                if drop > worst_drop {
                    worst_drop = drop;
                    worst_node = (r, c);
                }
            }
        }
        let peak = self
            .branch_t
            .iter()
            .fold(f64::NEG_INFINITY, |m, &t| m.max(t));
        Ok(CoupledReport {
            iterations: self.deltas.len(),
            iteration_deltas: self.deltas.clone(),
            trace: self.trace(),
            worst_ir_drop: Voltage::new(worst_drop),
            worst_node,
            peak_temperature: Kelvin::new(peak),
            branches: assessed.into_iter().map(|(b, _)| b).collect(),
            chip_failure,
            chip_ttf,
            health: self.health_report(),
        })
    }
}

/// One-call convenience: build, iterate to the fixed point, assess.
///
/// # Errors
///
/// As [`CoupledEngine::new`], [`CoupledEngine::run`], and
/// [`CoupledEngine::assess`].
pub fn coupled_signoff(
    spec: CoupledGridSpec,
    options: CoupledOptions,
) -> Result<CoupledReport, CoupledError> {
    let mut engine = CoupledEngine::new(spec, options)?;
    engine.run()?;
    engine.assess()
}
