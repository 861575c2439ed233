//! Cross-validation between the finite-volume cross-section solver (the
//! "lab") and the closed-form quasi-2-D impedance model (the "theory") —
//! the same consistency the paper establishes between its Fig. 5
//! measurements and eq. (14).

use hotwire::core::rules::array_comparison;
use hotwire::core::SelfConsistentProblem;
use hotwire::tech::{Dielectric, Metal};
use hotwire::thermal::grid2d::{ArrayLevel, ArrayStructure, MeshControl, SingleWireStructure};
use hotwire::thermal::impedance::{thermal_impedance, InsulatorStack, LineGeometry, QUASI_1D_PHI};
use hotwire::units::{CurrentDensity, Length};

fn um(v: f64) -> Length {
    Length::from_micrometers(v)
}

/// Extract φ from the simulated narrow-line structure, then verify the
/// eq. (14) closed form parameterized with that φ reproduces the
/// simulated θ of *other* widths to ~20 % — exactly the generalization
/// step the paper performs between Fig. 5 and §3.2.
#[test]
fn extracted_phi_generalizes_across_widths() {
    let control = MeshControl::resolving(um(0.08), 1);
    let t_ox = um(1.2);
    let t_m = um(0.55);
    let length = um(1000.0);

    // Extraction at the narrowest width (the paper uses W = 0.35 µm).
    let narrow = SingleWireStructure::all_oxide(um(0.35), t_m, t_ox);
    let sol = narrow.solve(um(6.0), control).unwrap();
    let phi = sol.phi();
    assert!(phi > 1.0 && phi < 4.0, "extracted φ = {phi}");

    // Generalize to other widths via the closed form.
    for w in [0.7, 1.5, 3.0] {
        let sim = SingleWireStructure::all_oxide(um(w), t_m, t_ox)
            .solve(um(6.0), control)
            .unwrap();
        let theta_sim = sim.thermal_impedance(length);
        let line = LineGeometry::new(um(w), t_m, length).unwrap();
        let stack = InsulatorStack::single(t_ox, &Dielectric::oxide());
        let theta_model = thermal_impedance(line, &stack, phi).unwrap();
        let err = (theta_model.value() - theta_sim.value()).abs() / theta_sim.value();
        assert!(
            err < 0.25,
            "W = {w} µm: model {theta_model} vs simulated {theta_sim} (err {err:.2})"
        );
    }
}

/// The Fig. 5 numbers EXPERIMENTS.md reports, on the `repro --experiment
/// fig5` mesh (0.07 µm cells, 6 µm padding): φ at W = 0.35 µm and θ at
/// L = 1000 µm for oxide and HSQ gap fill at the two ends of the sweep,
/// at the precision the table prints.
#[test]
fn fig5_mesh_reproduces_the_reported_numbers() {
    let control = MeshControl::resolving(um(0.07), 1);
    let length = um(1000.0);
    for (w, theta_oxide, theta_hsq, phi) in [
        (0.35, "373.3", "430.7", Some("2.04")),
        (3.5, "172.0", "182.4", None),
    ] {
        let oxide = SingleWireStructure::all_oxide(um(w), um(0.55), um(1.2));
        let hsq = oxide.clone().with_gap_fill(Dielectric::hsq());
        let sol_ox = oxide.solve(um(6.0), control).unwrap();
        let sol_hsq = hsq.solve(um(6.0), control).unwrap();
        for sol in [&sol_ox, &sol_hsq] {
            let residual = sol.field().residual();
            assert!(
                residual <= 1e-10,
                "W = {w} µm: energy residual {residual:e}"
            );
        }
        let ox = format!("{:.1}", sol_ox.thermal_impedance(length).value());
        let hs = format!("{:.1}", sol_hsq.thermal_impedance(length).value());
        assert_eq!(
            (ox.as_str(), hs.as_str()),
            (theta_oxide, theta_hsq),
            "θ at W = {w} µm"
        );
        if let Some(phi) = phi {
            assert_eq!(format!("{:.2}", sol_ox.phi()), phi, "extracted φ");
        }
    }
}

/// The classical quasi-1-D φ = 0.88 *underestimates* the conduction of
/// narrow DSM lines (the paper's motivation for re-extracting φ): the
/// simulated θ must be *lower* than the 0.88 prediction at W/t_ox ≈ 0.3.
#[test]
fn quasi_1d_is_pessimistic_for_narrow_lines() {
    let narrow = SingleWireStructure::all_oxide(um(0.35), um(0.55), um(1.2));
    let sol = narrow
        .solve(um(6.0), MeshControl::resolving(um(0.08), 1))
        .unwrap();
    let line = LineGeometry::new(um(0.35), um(0.55), um(1000.0)).unwrap();
    let stack = InsulatorStack::single(um(1.2), &Dielectric::oxide());
    let theta_1d = thermal_impedance(line, &stack, QUASI_1D_PHI).unwrap();
    let theta_sim = sol.thermal_impedance(um(1000.0));
    assert!(
        theta_sim.value() < theta_1d.value(),
        "2-D spreading must beat the 0.88 model: sim {theta_sim} vs 1-D {theta_1d}"
    );
}

/// Full Table 7 pipeline: finite-volume array coupling → eq. (18)'s κ →
/// the modified self-consistent solve → a dense-array j_peak reduction in
/// the tens of percent.
#[test]
fn dense_array_reduces_allowed_peak_like_table7() {
    let array = ArrayStructure {
        levels: vec![
            ArrayLevel {
                width: um(0.4),
                pitch: um(0.8),
                thickness: um(0.6),
                ild_below: um(0.8),
            },
            ArrayLevel {
                width: um(0.4),
                pitch: um(0.8),
                thickness: um(0.6),
                ild_below: um(0.7),
            },
            ArrayLevel {
                width: um(0.6),
                pitch: um(1.2),
                thickness: um(0.8),
                ild_below: um(0.7),
            },
            ArrayLevel {
                width: um(1.0),
                pitch: um(2.0),
                thickness: um(1.0),
                ild_below: um(0.8),
            },
        ],
        dielectric: Dielectric::oxide(),
        cap_thickness: um(1.0),
        metal_conductivity: 395.0,
        periods: 5,
    };
    let control = MeshControl::resolving(um(0.1), 1);
    let heated = vec![true; 4];
    let rise_dense = array.solve_rise(&heated, true, 3, control).unwrap();
    let rise_isolated = array.solve_rise(&heated, false, 3, control).unwrap();
    assert!(rise_dense > rise_isolated);

    let problem = SelfConsistentProblem::builder()
        .metal(Metal::copper().with_design_rule_j0(CurrentDensity::from_mega_amps_per_cm2(1.8)))
        .line(LineGeometry::new(um(1.0), um(1.0), um(1000.0)).unwrap())
        .heating_constant(1.0) // overridden by array_comparison
        .duty_cycle(0.1)
        .build()
        .unwrap();
    let cmp = array_comparison(&problem, rise_dense, rise_isolated).unwrap();
    assert!(
        cmp.reduction > 0.10 && cmp.reduction < 0.70,
        "Table 7-scale reduction expected, got {:.2}",
        cmp.reduction
    );
    // magnitudes comparable to Table 7's 6.4 / 10.6 MA/cm² row
    assert!(cmp.j_peak_isolated.to_mega_amps_per_cm2() > 2.0);
    assert!(cmp.j_peak_dense < cmp.j_peak_isolated);
}

/// Mesh refinement converges the simulated thermal impedance.
#[test]
fn mesh_refinement_converges() {
    let sw = SingleWireStructure::all_oxide(um(0.5), um(0.55), um(1.2));
    let coarse = sw
        .solve(um(5.0), MeshControl::resolving(um(0.25), 1))
        .unwrap()
        .rise_per_line_power();
    let medium = sw
        .solve(um(5.0), MeshControl::resolving(um(0.12), 1))
        .unwrap()
        .rise_per_line_power();
    let fine = sw
        .solve(um(5.0), MeshControl::resolving(um(0.05), 1))
        .unwrap()
        .rise_per_line_power();
    let d_coarse = (coarse - fine).abs();
    let d_medium = (medium - fine).abs();
    assert!(
        d_medium <= d_coarse,
        "refinement must not diverge: {coarse} {medium} {fine}"
    );
    assert!(d_medium / fine < 0.1, "medium mesh within 10 % of fine");
}
