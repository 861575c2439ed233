//! Property tests for the dense/sparse solver stack: on random
//! SPD grid-shaped systems (the structure every power-grid and RC-mesh
//! MNA matrix has), the sparse LU must agree with the dense LU to 1e-9,
//! and factorization reuse — including the DC grid's stale-factor PCG —
//! must not change answers.

use hotwire_circuit::grid_dc::DcGridSolver;
use hotwire_circuit::linalg::Matrix;
use hotwire_circuit::solver::MnaMatrix;
use hotwire_circuit::sparse::SparseMatrix;
use proptest::prelude::*;

/// Stamps the same random SPD grid system into both representations:
/// a `rows × cols` 5-point mesh with per-edge conductances drawn from
/// `gs`, plus a strictly positive diagonal tie to ground from `ties`
/// (which makes the matrix strictly diagonally dominant ⇒ SPD).
fn stamp_grid(rows: usize, cols: usize, gs: &[f64], ties: &[f64]) -> (Matrix, SparseMatrix) {
    let n = rows * cols;
    let mut dense = Matrix::zeros(n, n);
    let mut sparse = SparseMatrix::zeros(n);
    let at = |r: usize, c: usize| r * cols + c;
    let mut edge = 0usize;
    let mut couple = |a: usize, b: usize, g: f64| {
        for (r, c, v) in [(a, a, g), (b, b, g), (a, b, -g), (b, a, -g)] {
            dense.add(r, c, v);
            sparse.add(r, c, v);
        }
    };
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                couple(at(r, c), at(r, c + 1), gs[edge % gs.len()]);
                edge += 1;
            }
            if r + 1 < rows {
                couple(at(r, c), at(r + 1, c), gs[edge % gs.len()]);
                edge += 1;
            }
        }
    }
    for i in 0..n {
        let tie = ties[i % ties.len()];
        dense.add(i, i, tie);
        sparse.add(i, i, tie);
    }
    (dense, sparse)
}

proptest! {
    #[test]
    fn sparse_agrees_with_dense_on_random_spd_grids(
        rows in 2usize..9,
        cols in 2usize..9,
        gs in prop::collection::vec(0.05f64..20.0, 16),
        ties in prop::collection::vec(1e-3f64..2.0, 8),
        rhs_seed in prop::collection::vec(-5.0f64..5.0, 8),
    ) {
        let (dense, sparse) = stamp_grid(rows, cols, &gs, &ties);
        let n = rows * cols;
        let b: Vec<f64> = (0..n).map(|i| rhs_seed[i % rhs_seed.len()]).collect();
        let xd = dense.solve(&b).unwrap();
        let xs = sparse.factor().unwrap().solve(&b);
        for (i, (a, s)) in xd.iter().zip(&xs).enumerate() {
            prop_assert!(
                (a - s).abs() < 1e-9,
                "unknown {i}: dense {a} vs sparse {s}"
            );
        }
        // Residual check on the sparse side too (agreement alone could
        // mask a shared error in the comparison).
        let back = sparse.mul_vec(&xs);
        for (bi, ax) in b.iter().zip(&back) {
            prop_assert!((bi - ax).abs() < 1e-7);
        }
    }

    #[test]
    fn factor_reuse_matches_one_shot_solves(
        rows in 2usize..7,
        cols in 2usize..7,
        gs in prop::collection::vec(0.1f64..10.0, 12),
        ties in prop::collection::vec(1e-2f64..1.0, 6),
    ) {
        let (dense, sparse) = stamp_grid(rows, cols, &gs, &ties);
        let n = rows * cols;
        let f = sparse.factor().unwrap();
        let mut lu = dense.clone();
        lu.factor().unwrap();
        let mut buf = Vec::new();
        for k in 0..3usize {
            #[allow(clippy::cast_precision_loss)]
            let b: Vec<f64> = (0..n).map(|i| ((i + k) % 5) as f64 - 2.0).collect();
            // one-shot dense is the reference
            let reference = dense.solve(&b).unwrap();
            f.solve_into(&b, &mut buf);
            for (a, s) in reference.iter().zip(&buf) {
                prop_assert!((a - s).abs() < 1e-9);
            }
            lu.solve_factored_into(&b, &mut buf);
            for (a, s) in reference.iter().zip(&buf) {
                prop_assert!((a - s).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn mna_auto_crossover_is_transparent(
        rows in 2usize..6,
        cols in 2usize..6,
        gs in prop::collection::vec(0.1f64..10.0, 10),
        ties in prop::collection::vec(1e-2f64..1.0, 5),
    ) {
        // Whatever backend auto picks, forcing the other one must agree.
        let n = rows * cols;
        let mut forced_dense = MnaMatrix::dense(n);
        let mut forced_sparse = MnaMatrix::sparse(n);
        let (dense, _) = stamp_grid(rows, cols, &gs, &ties);
        for r in 0..n {
            for c in 0..n {
                let v = dense[(r, c)];
                if v != 0.0 {
                    forced_dense.add(r, c, v);
                    forced_sparse.add(r, c, v);
                }
            }
        }
        let b: Vec<f64> = (0..n).map(|i| gs[i % gs.len()]).collect();
        let xd = forced_dense.solve(&b).unwrap();
        let xs = forced_sparse.solve(&b).unwrap();
        for (a, s) in xd.iter().zip(&xs) {
            prop_assert!((a - s).abs() < 1e-9);
        }
    }
}

/// Splitmix64 — derives a whole restamp sequence from one seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[lo, hi)`.
fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((splitmix(state) >> 11) as f64 / (1u64 << 53) as f64)
}

/// A `rows × cols` mesh with `pads` random nodes pinned at 1 V and a
/// random sink on every node, all drawn from `seed`.
fn dc_mesh(rows: usize, cols: usize, pads: usize, seed: u64) -> DcGridSolver {
    let mut state = seed;
    let mut branches = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                branches.push((r * cols + c, r * cols + c + 1));
            }
            if r + 1 < rows {
                branches.push((r * cols + c, (r + 1) * cols + c));
            }
        }
    }
    let n = rows * cols;
    let pinned: Vec<(usize, f64)> = (0..pads)
        .map(|_| ((splitmix(&mut state) % n as u64) as usize, 1.0))
        .collect();
    let mut solver = DcGridSolver::new(n, branches, &pinned, 1e-12).unwrap();
    for node in 0..n {
        solver.set_sink(node, uniform(&mut state, 0.0, 1e-3));
    }
    solver
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stale_factor_pcg_matches_a_fresh_solver_on_every_stamp(
        rows in 15usize..=40,
        cols in 15usize..=40,
        pads in 1usize..=4,
        stamps in 3usize..=8,
        seed in any::<u64>(),
    ) {
        let mut reused = dc_mesh(rows, cols, pads, seed);
        let mut state = !seed;
        let mut g: Vec<f64> = (0..reused.branch_count())
            .map(|_| uniform(&mut state, 0.5, 2.0))
            .collect();
        for stamp in 0..stamps {
            // The second stamp repeats the first (a Picard step whose
            // temperatures did not move); the others scale every branch
            // by up to ±50 %, at a per-stamp amplitude spanning decades.
            if stamp > 1 {
                let amplitude = 0.5 * 10f64.powf(uniform(&mut state, -6.0, 0.0));
                for gb in &mut g {
                    *gb *= 1.0 + amplitude * uniform(&mut state, -1.0, 1.0);
                }
            }
            reused.solve(&g).unwrap();
            let mut fresh = dc_mesh(rows, cols, pads, seed);
            fresh.solve(&g).unwrap();
            for (k, (a, b)) in reused.node_voltages().iter().zip(fresh.node_voltages()).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-9,
                    "stamp {} node {}: reused {} vs fresh {}", stamp, k, a, b
                );
            }
        }
        prop_assert!(reused.pcg_solve_count() >= 1, "no solve was served by PCG");
    }
}
