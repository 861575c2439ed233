//! Property-based tests on the self-consistent solver (eq. 13): the
//! returned point must actually satisfy both physical constraints, and
//! the qualitative laws the paper derives from the equation must hold
//! across the whole physical parameter space. The chip-scale coupled
//! engine iterates the same rule with Anderson-accelerated Picard; its
//! properties close the file.

use hotwire::core::SelfConsistentProblem;
use hotwire::coupled::{CoupledEngine, CoupledError, CoupledGridSpec, CoupledOptions};
use hotwire::tech::{Dielectric, Metal};
use hotwire::thermal::impedance::{InsulatorStack, LineGeometry};
use hotwire::units::{Current, CurrentDensity, Length};
use proptest::prelude::*;

fn um(v: f64) -> Length {
    Length::from_micrometers(v)
}

fn problem(
    w_um: f64,
    tm_um: f64,
    tox_um: f64,
    k_th: f64,
    r: f64,
    j0_ma: f64,
    phi: f64,
) -> SelfConsistentProblem {
    SelfConsistentProblem::builder()
        .metal(Metal::copper().with_design_rule_j0(CurrentDensity::from_mega_amps_per_cm2(j0_ma)))
        .line(LineGeometry::new(um(w_um), um(tm_um), um(1000.0)).unwrap())
        .stack(
            InsulatorStack::new()
                .with_raw_layer(um(tox_um), hotwire::units::ThermalConductivity::new(k_th)),
        )
        .phi(phi)
        .duty_cycle(r)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fixed point actually balances: (a) the heating model maps the
    /// returned j_rms to the returned ΔT; (b) the EM model allows exactly
    /// the returned j_avg at the returned temperature.
    #[test]
    fn solution_is_a_true_fixed_point(
        w in 0.3_f64..5.0,
        tm in 0.3_f64..1.5,
        tox in 0.5_f64..6.0,
        k in 0.2_f64..1.4,
        r in 1.0e-4_f64..1.0,
        j0 in 0.3_f64..2.0,
    ) {
        let p = problem(w, tm, tox, k, r, j0, 2.45);
        let sol = match p.solve() {
            Ok(s) => s,
            Err(hotwire::core::CoreError::MeltLimited { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        };
        // (a) heating balance
        let rho = p.metal().resistivity(sol.metal_temperature).value();
        let dt = sol.j_rms.value().powi(2) * rho * p.heating_constant();
        prop_assert!(
            (dt - sol.temperature_rise.value()).abs() <= 0.02 * sol.temperature_rise.value().max(1e-6) + 1e-6,
            "ΔT balance: {dt} vs {}", sol.temperature_rise.value()
        );
        // (b) EM bound
        let allowed = p.black_model().allowed_average_density(sol.metal_temperature);
        prop_assert!(
            (sol.j_avg.value() - allowed.value()).abs() <= 1e-3 * allowed.value(),
            "EM bound: {} vs {}", sol.j_avg.value(), allowed.value()
        );
        // universal ordering
        prop_assert!(sol.j_avg <= sol.j_rms);
        prop_assert!(sol.j_rms <= sol.j_peak);
        prop_assert!(sol.metal_temperature.value() >= p.reference_temperature().value());
        prop_assert!(sol.metal_temperature < p.metal().melting_point());
    }

    /// Lower duty cycle ⇒ hotter self-consistent temperature and higher
    /// allowed peak (Fig. 2's monotonicities).
    #[test]
    fn monotone_in_duty_cycle(
        w in 0.3_f64..5.0,
        j0 in 0.3_f64..2.0,
        r_hi in 0.01_f64..1.0,
        ratio in 0.05_f64..0.9,
    ) {
        let r_lo = r_hi * ratio;
        let p_hi = problem(w, 0.5, 3.0, 1.15, r_hi, j0, 0.88);
        let p_lo = p_hi.with_duty_cycle(r_lo).unwrap();
        let (Ok(s_hi), Ok(s_lo)) = (p_hi.solve(), p_lo.solve()) else { return Ok(()); };
        prop_assert!(s_lo.metal_temperature.value() >= s_hi.metal_temperature.value() - 1e-9);
        prop_assert!(s_lo.j_peak.value() >= s_hi.j_peak.value() * (1.0 - 1e-9));
        // …and the penalty vs EM-only worsens (paper's 2nd Fig. 2 remark)
        let pen_hi = s_hi.j_peak / p_hi.em_only_peak();
        let pen_lo = s_lo.j_peak / p_lo.em_only_peak();
        prop_assert!(pen_lo <= pen_hi + 1e-9);
    }

    /// Poorer conduction (lower k, thicker stack, larger κ) always lowers
    /// the allowed peak.
    #[test]
    fn monotone_in_conduction_path(
        w in 0.3_f64..5.0,
        k_good in 0.6_f64..1.4,
        degrade in 0.2_f64..0.9,
        r in 0.01_f64..1.0,
    ) {
        let good = problem(w, 0.5, 3.0, k_good, r, 0.6, 2.45);
        let bad = problem(w, 0.5, 3.0, k_good * degrade, r, 0.6, 2.45);
        let (Ok(sg), Ok(sb)) = (good.solve(), bad.solve()) else { return Ok(()); };
        prop_assert!(sb.j_peak <= sg.j_peak * (1.0 + 1e-9));
        prop_assert!(sb.metal_temperature.value() >= sg.metal_temperature.value() - 1e-9);
    }

    /// Raising j₀ raises both T_m and j_peak, but with diminishing
    /// returns (Fig. 3).
    #[test]
    fn diminishing_returns_in_j0(
        r in 1.0e-4_f64..0.5,
        j0 in 0.3_f64..1.0,
        gain in 1.5_f64..4.0,
    ) {
        let base = problem(3.0, 0.5, 3.0, 1.15, r, j0, 0.88);
        let boosted = base.with_design_rule_j0(
            CurrentDensity::from_mega_amps_per_cm2(j0 * gain),
        );
        let (Ok(s0), Ok(s1)) = (base.solve(), boosted.solve()) else { return Ok(()); };
        prop_assert!(s1.metal_temperature >= s0.metal_temperature);
        prop_assert!(s1.j_peak >= s0.j_peak);
        let realized = s1.j_peak / s0.j_peak;
        prop_assert!(realized <= gain * (1.0 + 1e-9), "realized {realized} vs j0 gain {gain}");
    }

    /// A larger heat-spreading parameter (more lateral conduction) can
    /// only help.
    #[test]
    fn phi_helps(
        w in 0.3_f64..3.0,
        r in 0.01_f64..1.0,
        phi_lo in 0.5_f64..2.0,
        dphi in 0.1_f64..2.0,
    ) {
        let a = problem(w, 0.5, 3.0, 1.15, r, 0.6, phi_lo);
        let b = problem(w, 0.5, 3.0, 1.15, r, 0.6, phi_lo + dphi);
        let (Ok(sa), Ok(sb)) = (a.solve(), b.solve()) else { return Ok(()); };
        prop_assert!(sb.j_peak >= sa.j_peak * (1.0 - 1e-9));
    }
}

/// The mixed-dielectric stack of eq. (15) is bounded by its single-material
/// extremes.
#[test]
fn mixed_stack_between_extremes() {
    let make = |stack: InsulatorStack| {
        SelfConsistentProblem::builder()
            .metal(Metal::copper())
            .line(LineGeometry::new(um(1.0), um(0.5), um(1000.0)).unwrap())
            .stack(stack)
            .phi(2.45)
            .duty_cycle(0.1)
            .build()
            .unwrap()
            .solve()
            .unwrap()
    };
    let ox = make(InsulatorStack::single(um(3.0), &Dielectric::oxide()));
    let poly = make(InsulatorStack::single(um(3.0), &Dielectric::polyimide()));
    let mix = make(
        InsulatorStack::new()
            .with_layer(um(1.5), &Dielectric::oxide())
            .with_layer(um(1.5), &Dielectric::polyimide()),
    );
    assert!(mix.j_peak <= ox.j_peak);
    assert!(mix.j_peak >= poly.j_peak);
}

/// A small demo grid fed from its first `pads` of three corners, each
/// pad sourcing about `pad_ma` — the knob that sets how hot the
/// straps next to it run.
fn small_grid(rows: usize, cols: usize, pad_ma: f64, pads: usize) -> CoupledGridSpec {
    let mut spec = CoupledGridSpec::demo(rows, cols);
    let nodes = (rows * cols) as f64;
    spec.sink_per_node = Current::from_milliamps(pad_ma * pads as f64 / nodes);
    spec.pads = [(0, 0), (rows - 1, cols - 1), (0, cols - 1)][..pads].to_vec();
    spec
}

fn converged(
    spec: CoupledGridSpec,
    options: CoupledOptions,
) -> Result<CoupledEngine, CoupledError> {
    let mut engine = CoupledEngine::new(spec, options)?;
    engine.run()?;
    Ok(engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The accelerated loop stops at the default tolerance on the same
    /// fixed point a tight (1e-6 K) solve reaches.
    #[test]
    fn accelerated_picard_lands_on_the_tight_fixed_point(
        rows in 2_usize..9,
        cols in 2_usize..9,
        pad_ma in 20.0_f64..600.0,
        pads in 1_usize..4,
    ) {
        let spec = small_grid(rows, cols, pad_ma, pads);
        let loose = converged(spec.clone(), CoupledOptions::default());
        let tight = converged(
            spec,
            CoupledOptions { tolerance: 1.0e-6, ..CoupledOptions::default() },
        );
        let (loose, tight) = match (loose, tight) {
            (Ok(l), Ok(t)) => (l, t),
            (Err(l), Err(t)) => {
                // Both refuse: the refusal does not hinge on the tolerance.
                prop_assert_eq!(std::mem::discriminant(&l), std::mem::discriminant(&t));
                return Ok(());
            }
            (l, t) => return Err(TestCaseError::fail(format!(
                "loose {:?} vs tight {:?}", l.err(), t.err()
            ))),
        };
        for (k, (a, b)) in loose
            .branch_temperatures()
            .iter()
            .zip(tight.branch_temperatures())
            .enumerate()
        {
            prop_assert!((a - b).abs() <= 0.5, "branch {k}: {a} K vs tight {b} K");
        }
    }

    /// Driving `step()` by hand and then calling `run()` (what an
    /// embedding caller or an in-process oracle does) yields the same
    /// report, bit for bit, as a bare `run()`: the mixing state lives in
    /// the engine.
    #[test]
    fn stepping_then_running_matches_a_bare_run(
        rows in 2_usize..9,
        cols in 2_usize..9,
        pad_ma in 20.0_f64..600.0,
        steps in 1_usize..5,
    ) {
        let spec = small_grid(rows, cols, pad_ma, 2);
        let options = CoupledOptions::default();
        let mut bare = CoupledEngine::new(spec.clone(), options.clone()).unwrap();
        let bare_result = bare.run();
        let mut stepped = CoupledEngine::new(spec, options).unwrap();
        let mut step_error = None;
        while !stepped.converged() && stepped.iterations() < steps {
            if let Err(e) = stepped.step() {
                step_error = Some(e);
                break;
            }
        }
        let stepped_result = match step_error {
            Some(e) => Err(e),
            None => stepped.run(),
        };
        prop_assert_eq!(bare_result.is_ok(), stepped_result.is_ok());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bare.iterations(), stepped.iterations());
        prop_assert_eq!(bits(bare.branch_temperatures()), bits(stepped.branch_temperatures()));
        prop_assert_eq!(bits(bare.node_voltages()), bits(stepped.node_voltages()));
        if bare_result.is_ok() {
            let (a, b) = (bare.assess().unwrap(), stepped.assess().unwrap());
            prop_assert_eq!(bits(&a.iteration_deltas), bits(&b.iteration_deltas));
            prop_assert_eq!(a.branches, b.branches);
            prop_assert_eq!(a.chip_ttf, b.chip_ttf);
            prop_assert_eq!(a.health, b.health);
        }
    }
}

/// The 200×200 demo heats past the copper resistivity fit: a typed
/// refusal, however fast the loop gets there. (The 50×50 runaway
/// refusal is pinned in `crates/coupled/tests/coupled.rs`.)
#[test]
fn oversized_demo_is_beyond_the_resistivity_range() {
    match converged(CoupledGridSpec::demo(200, 200), CoupledOptions::default()) {
        Err(CoupledError::BeyondResistivityRange { .. }) => {}
        other => panic!("expected BeyondResistivityRange, got {:?}", other.err()),
    }
}
