//! Render the steady-state temperature field of an interconnect
//! cross-section as an ASCII heat map — the picture behind the paper's
//! Fig. 4 (quasi-2-D spreading) and Fig. 8 (array coupling).
//!
//! Run with: `cargo run --example thermal_map`

use hotwire::tech::Dielectric;
use hotwire::thermal::grid2d::{
    solve, ArrayLevel, ArrayStructure, Field, MeshControl, SingleWireStructure,
};
use hotwire::units::Length;

fn um(v: f64) -> Length {
    Length::from_micrometers(v)
}

/// Renders the field on a uniform character raster, top of the stack at
/// the top of the output, substrate at the bottom.
fn heat_map(field: &Field, width_m: f64, height_m: f64, cols: usize, rows: usize) -> String {
    const SHADES: &[u8] = b" .:-=+*#%@";
    let peak = field.max_rise().max(1e-30);
    let mut out = String::new();
    for r in 0..rows {
        #[allow(clippy::cast_precision_loss)]
        let y = height_m * (1.0 - (r as f64 + 0.5) / rows as f64);
        for c in 0..cols {
            #[allow(clippy::cast_precision_loss)]
            let x = width_m * (c as f64 + 0.5) / cols as f64;
            let v = field.rise_at(x, y) / peak;
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                clippy::cast_precision_loss
            )]
            let idx = ((v * (SHADES.len() as f64 - 1.0)).round() as usize).min(SHADES.len() - 1);
            out.push(SHADES[idx] as char);
        }
        out.push('\n');
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A single narrow wire over oxide: watch the heat spread far beyond
    //    the drawn width (why φ = 2.45 ≫ 0.88).
    println!("single 0.35 µm wire over 1.2 µm oxide — ΔT field (substrate at bottom):\n");
    let sw = SingleWireStructure::all_oxide(um(0.35), um(0.55), um(1.2));
    let (structure, _) = sw.build(um(4.0))?;
    let field = solve(&structure, MeshControl::resolving(um(0.07), 1))?;
    print!(
        "{}",
        heat_map(&field, structure.width(), structure.height(), 72, 16)
    );
    println!(
        "peak rise {:.2} K per W/m of line power\n",
        field.max_rise()
    );

    // 2. The Fig. 8 dense array: every line hot, one pitch shown.
    println!("dense 4-level array (all lines hot) — thermal coupling in action:\n");
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
        periods: 3,
    };
    let (structure, target) = array.build(&[true; 4], false, 3)?;
    let field = solve(&structure, MeshControl::resolving(um(0.1), 1))?;
    print!(
        "{}",
        heat_map(&field, structure.width(), structure.height(), 72, 20)
    );
    println!(
        "M4 target line average rise: {:.2} K per W/m per line — compare the \
         isolated case with `repro --experiment table7`.",
        field.average_rise_in(target)
    );
    Ok(())
}
