//! Fig. 5 — effective thermal impedance of level-1 AlCu lines vs line
//! width, oxide vs HSQ gap fill, and the extraction of the
//! heat-spreading parameter φ (paper value: 2.45).
//!
//! The paper *measured* fabricated 0.25 µm structures; we regenerate the
//! measurement with the finite-volume cross-section solver (see
//! DESIGN.md's substitution table).

use hotwire_tech::Dielectric;
use hotwire_thermal::grid2d::{MeshControl, SingleWireStructure};
use hotwire_thermal::ThermalError;
use hotwire_units::Length;

use crate::render_table;

/// The Fig. 5 width sweep (µm).
pub const WIDTHS_UM: [f64; 6] = [0.35, 0.6, 1.0, 1.6, 2.5, 3.5];

/// One `(width_um, theta_oxide, theta_hsq)` row of the Fig. 5 series,
/// impedances in K/W for L = 1000 µm.
pub type Fig5Row = (f64, f64, f64);

/// Runs the simulated Fig. 5 experiment, returning the width-sweep rows
/// plus the extracted φ at the narrowest width.
///
/// # Errors
///
/// Propagates grid-solver errors.
pub fn series() -> Result<(Vec<Fig5Row>, f64), ThermalError> {
    let um = Length::from_micrometers;
    let control = MeshControl::resolving(um(0.07), 1);
    let length = um(1000.0);
    let mut rows = Vec::new();
    let mut phi = 0.0;
    for &w in &WIDTHS_UM {
        let oxide = SingleWireStructure::all_oxide(um(w), um(0.55), um(1.2));
        let hsq = oxide.clone().with_gap_fill(Dielectric::hsq());
        let sol_ox = oxide.solve(um(6.0), control)?;
        let sol_hsq = hsq.solve(um(6.0), control)?;
        if (w - WIDTHS_UM[0]).abs() < 1e-12 {
            phi = sol_ox.phi();
        }
        rows.push((
            w,
            sol_ox.thermal_impedance(length).value(),
            sol_hsq.thermal_impedance(length).value(),
        ));
    }
    Ok((rows, phi))
}

/// Prints the Fig. 5 series.
///
/// # Errors
///
/// Propagates grid-solver errors.
pub fn run() -> Result<(), ThermalError> {
    println!("Figure 5 — effective thermal impedance vs line width");
    println!("level-1 AlCu, t_m = 0.55 µm, t_ox = 1.2 µm, L = 1000 µm (simulated measurement)\n");
    let (rows, phi) = series()?;
    let header = vec![
        "W [µm]".to_owned(),
        "θ oxide [K/W]".to_owned(),
        "θ HSQ gap fill [K/W]".to_owned(),
        "HSQ/oxide".to_owned(),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(w, a, b)| {
            vec![
                format!("{w:.2}"),
                format!("{a:.1}"),
                format!("{b:.1}"),
                format!("{:.3}", b / a),
            ]
        })
        .collect();
    print!("{}", render_table(&header, &table));
    let narrow_ratio = rows[0].2 / rows[0].1;
    println!(
        "\nextracted φ at W = 0.35 µm: {phi:.2} (paper: 2.45 from measurements)\n\
         shape check: HSQ gap fill raises θ by {:.0} % at the narrowest width \
         (paper: ≈ 20 %), and θ falls monotonically with width",
        (narrow_ratio - 1.0) * 100.0
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shapes() {
        let (rows, phi) = series().unwrap();
        // θ decreases with width for both processes
        for w in rows.windows(2) {
            assert!(w[1].1 < w[0].1);
            assert!(w[1].2 < w[0].2);
        }
        // HSQ is always worse, most at the narrowest line
        for (_, a, b) in &rows {
            assert!(b > a);
        }
        let first = rows[0].2 / rows[0].1;
        let last = rows[rows.len() - 1].2 / rows[rows.len() - 1].1;
        assert!(first > last, "gap-fill penalty is largest for narrow lines");
        // φ in the quasi-2-D regime
        assert!(phi > 1.0 && phi < 4.0, "φ = {phi}");
    }
}
