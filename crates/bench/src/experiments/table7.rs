//! Table 7 — maximum allowed peak current density for a metal-4 line in a
//! densely packed 4-level array with all lines heated, vs the same line
//! isolated. The paper (via the FEM results of Rzepka et al. \[11\])
//! reports 6.4 vs 10.6 MA/cm² — a ≈ 40 % reduction.
//!
//! We regenerate the coupling constants with the finite-volume array
//! solver and push them through the modified self-consistent equation
//! (eq. 18 → eq. 13).

use hotwire_core::rules::array_comparison;
use hotwire_core::{CoreError, SelfConsistentProblem};
use hotwire_tech::{presets, Dielectric};
use hotwire_thermal::grid2d::{ArrayLevel, ArrayStructure, MeshControl};
use hotwire_thermal::impedance::LineGeometry;
use hotwire_units::{CurrentDensity, Length};

use crate::render_table;

/// Builds the quadruple-level array of the paper's Fig. 8 from the
/// 0.25 µm preset's lower four levels.
#[must_use]
pub fn fig8_array() -> ArrayStructure {
    let tech = presets::ntrs_250nm();
    ArrayStructure {
        levels: tech.layers()[..4]
            .iter()
            .map(|l| ArrayLevel {
                width: l.width(),
                pitch: l.pitch(),
                thickness: l.thickness(),
                ild_below: l.ild_below(),
            })
            .collect(),
        dielectric: Dielectric::oxide(),
        cap_thickness: Length::from_micrometers(1.0),
        metal_conductivity: 395.0,
        periods: 5,
    }
}

/// Prints the Table 7 comparison.
///
/// # Errors
///
/// Propagates grid and solver errors.
pub fn run() -> Result<(), CoreError> {
    println!("Table 7 — M4 in a dense 4-level array (all lines hot) vs isolated M4\n");
    let array = fig8_array();
    let control = MeshControl::resolving(Length::from_micrometers(0.1), 1);
    let heated = vec![true; 4];
    let rise_dense = array
        .solve_rise(&heated, true, 3, control)
        .map_err(CoreError::Thermal)?;
    let rise_isolated = array
        .solve_rise(&heated, false, 3, control)
        .map_err(CoreError::Thermal)?;

    let tech = presets::ntrs_250nm();
    let m4 = tech.layer("M4").expect("preset M4");
    let problem = SelfConsistentProblem::builder()
        .metal(
            tech.metal()
                .clone()
                .with_design_rule_j0(CurrentDensity::from_amps_per_cm2(1.8e6)),
        )
        .line(
            LineGeometry::new(m4.width(), m4.thickness(), Length::from_micrometers(1000.0))
                .map_err(CoreError::Thermal)?,
        )
        .heating_constant(1.0) // replaced inside array_comparison
        .duty_cycle(0.1)
        .build()?;
    let cmp = array_comparison(&problem, rise_dense, rise_isolated)?;

    let header = vec![
        "configuration".to_owned(),
        "rise per line power [K/(W/m)]".to_owned(),
        "max allowed j_peak [MA/cm²]".to_owned(),
    ];
    let rows = vec![
        vec![
            "M1–M4 heated (3-D)".to_owned(),
            format!("{rise_dense:.3e}"),
            format!("{:.1}", cmp.j_peak_dense.to_mega_amps_per_cm2()),
        ],
        vec![
            "Isolated M4 heated (2-D)".to_owned(),
            format!("{rise_isolated:.3e}"),
            format!("{:.1}", cmp.j_peak_isolated.to_mega_amps_per_cm2()),
        ],
    ];
    print!("{}", render_table(&header, &rows));
    println!(
        "\npaper: 6.4 vs 10.6 MA/cm² (≈ 40 % reduction); measured reduction here: {:.0} %",
        cmp.reduction * 100.0
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn table7_runs() {
        super::run().unwrap();
    }
}
