//! The chip thermal map's Jacobi-preconditioned CG against a direct
//! sparse LDLᵀ solve of the same 5-point stencil, over random grid
//! shapes, conductance ratios spanning six decades, and random powers.

use hotwire_circuit::sparse::SparseMatrix;
use hotwire_thermal::chip::ChipThermalModel;
use proptest::prelude::*;

/// The conduction stencil `ChipThermalModel` solves, assembled
/// explicitly: `m` incident half-segments to the substrate and one
/// lateral branch per neighbour.
fn stencil(rows: usize, cols: usize, g_lat: f64, g_half: f64) -> SparseMatrix {
    let mut a = SparseMatrix::zeros(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let here = r * cols + c;
            let mut neighbours = Vec::new();
            if c > 0 {
                neighbours.push(here - 1);
            }
            if c + 1 < cols {
                neighbours.push(here + 1);
            }
            if r > 0 {
                neighbours.push(here - cols);
            }
            if r + 1 < rows {
                neighbours.push(here + cols);
            }
            let m = neighbours.len() as f64;
            a.add(here, here, m * g_half + m * g_lat);
            if g_lat > 0.0 {
                for nb in neighbours {
                    a.add(here, nb, -g_lat);
                }
            }
        }
    }
    a
}

/// Splitmix64 — derives a case's powers from one proptest seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` node powers in [0, 1) W, a quarter of them exactly zero.
fn powers(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            if u < 0.25 {
                0.0
            } else {
                (u - 0.25) / 0.75
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cg_matches_a_direct_solve_and_balances_energy(
        rows in 1usize..=40,
        cols in 1usize..=40,
        lateral_zero in 0u32..5,
        lateral_exp in -3.0f64..3.0,
        half_exp in -3.0f64..3.0,
        seed in any::<u64>(),
    ) {
        prop_assume!(rows * cols >= 2);
        // g_lat is exactly 0 in one case out of five, else log-uniform
        // in [1e-3, 1e3] like g_half.
        let g_lat = if lateral_zero == 0 { 0.0 } else { 10f64.powf(lateral_exp) };
        let g_half = 10f64.powf(half_exp);
        let p = powers(rows * cols, seed);
        let mut model = ChipThermalModel::new(rows, cols, g_lat, g_half).unwrap();
        let rise = model.solve(&p).unwrap();
        let direct = stencil(rows, cols, g_lat, g_half)
            .factor_cholesky()
            .unwrap()
            .solve(&p);
        let scale = direct.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (k, (cg, d)) in rise.iter().zip(&direct).enumerate() {
            prop_assert!(
                (cg - d).abs() <= 1e-9 * scale,
                "node {}: CG {} vs direct {} (scale {})", k, cg, d, scale
            );
        }
        let heat_in: f64 = p.iter().sum();
        let mut heat_out = 0.0;
        for r in 0..rows {
            for c in 0..cols {
                heat_out += rise[r * cols + c] * model.vertical_conductance(r, c);
            }
        }
        prop_assert!(
            (heat_in - heat_out).abs() <= 1e-9 * heat_in,
            "energy: in {} vs out {}", heat_in, heat_out
        );
    }
}
