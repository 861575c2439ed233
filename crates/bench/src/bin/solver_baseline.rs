//! Measures the power-grid DC solve before/after the sparse solver and
//! writes the machine-readable baseline `BENCH_solver.json`.
//!
//! ```text
//! cargo run --release -p hotwire-bench --bin solver_baseline
//! cargo run --release -p hotwire-bench --bin solver_baseline -- --out BENCH_solver.json
//! ```
//!
//! "Seed" is the dense damped-Newton path replayed by
//! [`hotwire_bench::baseline`]; "direct" is the current
//! `PowerGrid::analyze`, which routes SPD grid stamps to the
//! nested-dissection-ordered sparse LDLᵀ; "lu" forces the sparse-LU backend the
//! direct path used before the Cholesky fast path existed. The seed
//! path is *measured* up to 30×30 and n⁶-extrapolated beyond (dense LU
//! is cubic in the matrix dimension, and the matrix dimension is the
//! squared grid edge); the forced-LU path is measured up to 200×200 and
//! n⁴-extrapolated beyond (grid LU cost grows as the 4th power of the
//! edge) — each entry says which, so nobody mistakes a model for a
//! measurement.
//!
//! Every Cholesky row also records the factor layer of that grid's
//! reduced DC stamp: fill nnz of `L + D`, Σⱼ cⱼ² (the numeric work), and
//! the medians of the `solver.chol.ordering_time` span and of the rest
//! of `solver.chol.factor_time` (the numeric phase).

use std::process::ExitCode;
use std::time::Instant;

use hotwire_bench::baseline;
use hotwire_circuit::power_grid::{PowerGrid, PowerGridSpec};
use hotwire_circuit::sparse::SparseMatrix;
use hotwire_obs::metrics;
use hotwire_units::{Area, Current, Resistance, Voltage};

/// Largest grid edge where the seed path is timed rather than modeled.
const SEED_MEASURE_CAP: usize = 30;

/// Largest grid edge where the forced-LU path is timed rather than
/// modeled. Beyond it the LU column scales the anchor measurement by
/// `(n/200)^4` — the committed 50→100→200 LU measurements track that
/// exponent to within a few percent.
const LU_MEASURE_CAP: usize = 200;

/// Grid sizes reported in the baseline file.
const SIZES: [usize; 8] = [10, 20, 50, 100, 200, 300, 500, 1000];

/// Segment conductance stamped by [`PowerGrid::analyze`] for the spec
/// below (1 / segment_resistance).
const SEGMENT_G: f64 = 1.0 / 0.5;

fn power_grid(n: usize) -> PowerGrid {
    PowerGrid::build(&PowerGridSpec {
        rows: n,
        cols: n,
        segment_resistance: Resistance::new(0.5),
        strap_cross_section: Area::from_um2(1.44),
        vdd: Voltage::new(2.5),
        sink_per_node: Current::from_milliamps(0.4),
        pads: vec![(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)],
    })
    .expect("valid grid spec")
}

/// The reduced DC stamp [`PowerGrid::dc_solver`] factors for
/// `power_grid(n)`: free intersections numbered row-major (the four
/// corner pads eliminated), segment couplings plus a leak to ground.
/// Orderings see only the pattern, so its factor has the solver's fill
/// — [`chol_layer`] checks that against the solver's gauge.
fn reduced_stamp(n: usize) -> SparseMatrix {
    let pad = |r: usize, c: usize| (r == 0 || r == n - 1) && (c == 0 || c == n - 1);
    let mut unknown = vec![usize::MAX; n * n];
    let mut count = 0;
    for r in 0..n {
        for c in 0..n {
            if !pad(r, c) {
                unknown[r * n + c] = count;
                count += 1;
            }
        }
    }
    let mut m = SparseMatrix::zeros(count);
    for r in 0..n {
        for c in 0..n {
            let a = unknown[r * n + c];
            if a != usize::MAX {
                m.add(a, a, 1e-12);
            }
            for (rr, cc) in [(r, c + 1), (r + 1, c)] {
                if rr >= n || cc >= n {
                    continue;
                }
                let b = unknown[rr * n + cc];
                for k in [a, b] {
                    if k != usize::MAX {
                        m.add(k, k, SEGMENT_G);
                    }
                }
                if a != usize::MAX && b != usize::MAX {
                    m.add(a, b, -SEGMENT_G);
                    m.add(b, a, -SEGMENT_G);
                }
            }
        }
    }
    m
}

/// The factor layer of one grid's Cholesky factorization.
struct CholLayer {
    fill_nnz: usize,
    /// Σⱼ cⱼ² over the strictly-lower column counts of `L`.
    work: f64,
    ordering_ms: f64,
    numeric_ms: f64,
}

/// Summed wall time of a span-fed timer so far (0 when absent).
fn timer_total_ms(name: &str) -> f64 {
    metrics::snapshot()
        .timers
        .get(name)
        .map_or(0.0, |t| t.total_ms)
}

/// Factors `power_grid(n)`'s reduced stamp `reps` times (after one
/// warmup) and reads the ordering and numeric spans of each run.
fn chol_layer(n: usize, reps: usize) -> CholLayer {
    let m = reduced_stamp(n);
    let solver_fill = metrics::snapshot()
        .gauges
        .get("solver.chol.fill_nnz")
        .map(|g| g.value);
    let f = m.factor_cholesky().expect("grid stamp is SPD");
    #[allow(clippy::cast_precision_loss)]
    if let Some(fill) = solver_fill {
        assert_eq!(
            fill,
            f.nnz() as f64,
            "{n}x{n}: stamp differs from the solver's"
        );
    }
    let (mut ordering, mut numeric) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        let (ord0, fac0) = (
            timer_total_ms("solver.chol.ordering_time"),
            timer_total_ms("solver.chol.factor_time"),
        );
        let _ = m.factor_cholesky().expect("grid stamp is SPD");
        let ord = timer_total_ms("solver.chol.ordering_time") - ord0;
        ordering.push(ord);
        numeric.push(timer_total_ms("solver.chol.factor_time") - fac0 - ord);
    }
    CholLayer {
        fill_nnz: f.nnz(),
        work: f.refactor_work(),
        ordering_ms: median(ordering),
        numeric_ms: median(numeric),
    }
}

/// Median wall time of `reps` runs of `f`, after one warmup run.
fn median_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    median(
        (0..reps.max(1))
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1.0e3
            })
            .collect(),
    )
}

/// The upper median of a non-empty sample.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Repetitions per timing at a given grid edge — the big factorizations
/// are too expensive to run five times.
fn reps_for(n: usize) -> usize {
    if n >= 500 {
        1
    } else if n >= 100 {
        3
    } else {
        5
    }
}

/// Times the `DcGridSolver` solve with the Cholesky fast path kept out
/// (dense below the crossover, sparse LU above — the pre-LDLᵀ behavior).
fn lu_forced_ms(grid: &PowerGrid, reps: usize) -> f64 {
    let branch_count = grid.dc_solver().expect("grid solver").branch_count();
    let conductance = vec![SEGMENT_G; branch_count];
    median_ms(reps, || {
        let mut s = grid.dc_solver().expect("grid solver");
        s.set_lu_only(true);
        s.solve(&conductance).expect("forced-LU solve");
        assert_eq!(
            s.solver_path().map(|p| p.label()),
            Some(if s.is_sparse() { "lu" } else { "dense" }),
            "set_lu_only must keep the Cholesky path out"
        );
    })
}

/// One un-timed direct solve to observe which backend serves this size.
fn observed_path(grid: &PowerGrid) -> &'static str {
    let mut s = grid.dc_solver().expect("grid solver");
    let conductance = vec![SEGMENT_G; s.branch_count()];
    s.solve(&conductance).expect("direct solve");
    s.solver_path().map_or("unknown", |p| p.label())
}

struct Row {
    grid: usize,
    unknowns: usize,
    seed_ms: f64,
    seed_source: &'static str,
    lu_ms: f64,
    lu_source: &'static str,
    direct_ms: f64,
    path: &'static str,
    chol: Option<CholLayer>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_solver.json");
    let mut metrics_out: Option<String> = None;
    let mut sizes: Vec<usize> = SIZES.to_vec();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" | "-o" => {
                if i + 1 >= args.len() {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
                out_path.clone_from(&args[i + 1]);
                i += 2;
            }
            "--metrics-out" => {
                if i + 1 >= args.len() {
                    eprintln!("--metrics-out needs a path");
                    return ExitCode::FAILURE;
                }
                metrics_out = Some(args[i + 1].clone());
                i += 2;
            }
            "--sizes" => {
                if i + 1 >= args.len() {
                    eprintln!("--sizes needs a comma-separated list (e.g. 10,20)");
                    return ExitCode::FAILURE;
                }
                match args[i + 1]
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<usize>, _>>()
                {
                    Ok(list) if !list.is_empty() && list.iter().all(|&n| n >= 3) => sizes = list,
                    _ => {
                        eprintln!("--sizes: `{}` is not a list of grid edges ≥ 3", args[i + 1]);
                        return ExitCode::FAILURE;
                    }
                }
                i += 2;
            }
            "--help" | "-h" => {
                println!(
                    "usage: solver_baseline [--out <path>] [--metrics-out <path>] [--sizes n,n,...]\n\
                     times the seed dense DC path, the forced sparse-LU path, and\n\
                     the direct path (Cholesky on SPD stamps) on square power\n\
                     grids and writes a JSON baseline (default: BENCH_solver.json\n\
                     in the current directory); the baseline embeds a `metrics`\n\
                     registry snapshot, --metrics-out additionally writes it\n\
                     standalone, and --sizes restricts the grid edges (default:\n\
                     10,20,50,100,200,500,1000) — CI uses the small sizes (the\n\
                     30x30 anchor row is always measured)"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    // Sanity anchor: both paths must agree before we compare their cost.
    {
        let g = power_grid(10);
        let seed = baseline::seed_worst_ir_drop(&g, 2.5).expect("seed path solves 10x10");
        let direct = g
            .analyze()
            .expect("direct path solves 10x10")
            .worst_ir_drop
            .value();
        assert!(
            (seed - direct).abs() < 1e-6,
            "seed ({seed}) and direct ({direct}) disagree; refusing to benchmark"
        );
    }

    let mut rows: Vec<Row> = Vec::new();

    // The seed-extrapolation anchor: largest grid where the seed path is
    // still cheap enough to time. Measured first and included in the file
    // even though SIZES skips it, so the anchor is visible next to the
    // model.
    let anchor_ms = {
        let n = SEED_MEASURE_CAP;
        let grid = power_grid(n);
        let seed_ms = median_ms(3, || {
            let _ = baseline::seed_dense_dc_solve(&grid).expect("seed solve");
        });
        let direct_ms = median_ms(5, || {
            let _ = grid.analyze().expect("direct solve");
        });
        let lu_ms = lu_forced_ms(&grid, 5);
        let path = observed_path(&grid);
        eprintln!("{n:>4}x{n:<4} direct {direct_ms:>12.3} ms ({path})  lu {lu_ms:>12.3} ms (measured)  seed {seed_ms:>14.1} ms (measured, anchor)");
        rows.push(Row {
            grid: n,
            unknowns: n * n - 4,
            seed_ms,
            seed_source: "measured",
            lu_ms,
            lu_source: "measured",
            direct_ms,
            path,
            chol: (path == "cholesky").then(|| chol_layer(n, 5)),
        });
        seed_ms
    };

    // The LU-extrapolation anchor, measured lazily: only sizes beyond the
    // cap need it, and CI's small-size runs must not pay the 200x200 LU.
    let mut lu_anchor_ms: Option<f64> = None;

    for n in sizes {
        if n == SEED_MEASURE_CAP {
            continue; // the anchor row above already covers this size
        }
        let grid = power_grid(n);
        let unknowns = n * n - 4; // pad corners are eliminated
        let reps = reps_for(n);
        let direct_ms = median_ms(reps, || {
            let _ = grid.analyze().expect("direct solve");
        });
        let path = observed_path(&grid);
        let chol = (path == "cholesky").then(|| chol_layer(n, reps));
        let (lu_ms, lu_source) = if n <= LU_MEASURE_CAP {
            let ms = lu_forced_ms(&grid, reps);
            if n == LU_MEASURE_CAP {
                lu_anchor_ms = Some(ms);
            }
            (ms, "measured")
        } else {
            let anchor =
                *lu_anchor_ms.get_or_insert_with(|| lu_forced_ms(&power_grid(LU_MEASURE_CAP), 3));
            #[allow(clippy::cast_precision_loss)]
            let scale = (n as f64 / LU_MEASURE_CAP as f64).powi(4);
            (anchor * scale, "extrapolated_n4")
        };
        let (seed_ms, seed_source) = if n <= SEED_MEASURE_CAP {
            let ms = median_ms(3, || {
                let _ = baseline::seed_dense_dc_solve(&grid).expect("seed solve");
            });
            (ms, "measured")
        } else {
            // Dense LU is O(d³) in the matrix dimension d ≈ n², so the
            // seed cost scales as (n/anchor)⁶ from the measured anchor.
            #[allow(clippy::cast_precision_loss)]
            let scale = (n as f64 / SEED_MEASURE_CAP as f64).powi(6);
            (anchor_ms * scale, "extrapolated_n6")
        };
        eprintln!(
            "{n:>4}x{n:<4} direct {direct_ms:>12.3} ms ({path})  lu {lu_ms:>12.3} ms ({lu_source})  seed {seed_ms:>14.1} ms ({seed_source})"
        );
        rows.push(Row {
            grid: n,
            unknowns,
            seed_ms,
            seed_source,
            lu_ms,
            lu_source,
            direct_ms,
            path,
            chol,
        });
    }
    rows.sort_by_key(|r| r.grid);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"benchmark\": \"PowerGrid::analyze (DC IR-drop solve, square grid, 4 corner pads)\",\n",
    );
    json.push_str("  \"before\": \"seed path: dense MNA with vsrc branches, full clone+pivot LU per damped-Newton iteration (hotwire_bench::baseline replica)\",\n");
    json.push_str("  \"after\": \"direct DC solve, pads eliminated, single factorization; SPD stamps route to nested-dissection-ordered sparse LDL^T above 128 unknowns (sparse LU is the non-SPD fallback, forced here for the lu_ms column); cholesky rows add the factor layer: fill_nnz of L+D, factor_work = sum of squared column counts of L, and medians of the ordering span and of the numeric rest of the factor span\",\n");
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    json.push_str(&format!(
        "  \"machine\": \"medians of 1-5 runs after warmup\",\n  \"threads\": {},\n  \"nproc\": {nproc},\n",
        rayon::current_num_threads()
    ));
    json.push_str(&format!(
        "  \"seed_measure_cap\": {SEED_MEASURE_CAP},\n  \"seed_extrapolation\": \"sizes above the cap scale the last measured seed time by (n/{SEED_MEASURE_CAP})^6 (dense LU is cubic in the n^2 matrix dimension); they are a model, not a measurement\",\n"
    ));
    json.push_str(&format!(
        "  \"lu_measure_cap\": {LU_MEASURE_CAP},\n  \"lu_extrapolation\": \"sizes above the cap scale the measured {LU_MEASURE_CAP}x{LU_MEASURE_CAP} forced-LU time by (n/{LU_MEASURE_CAP})^4 (grid LU cost grows as the 4th power of the edge); they are a model, not a measurement\",\n"
    ));
    json.push_str("  \"sizes\": [\n");
    for (k, r) in rows.iter().enumerate() {
        let speedup = r.seed_ms / r.direct_ms;
        let speedup_vs_lu = r.lu_ms / r.direct_ms;
        let layer = r.chol.as_ref().map_or(String::new(), |c| {
            format!(
                ", \"fill_nnz\": {}, \"factor_work\": {:.4e}, \"ordering_ms\": {:.3}, \"numeric_ms\": {:.3}",
                c.fill_nnz, c.work, c.ordering_ms, c.numeric_ms
            )
        });
        json.push_str(&format!(
            "    {{\"grid\": \"{n}x{n}\", \"unknowns\": {u}, \"seed_ms\": {s:.3}, \"seed_source\": \"{src}\", \"lu_ms\": {l:.3}, \"lu_source\": \"{lsrc}\", \"direct_ms\": {d:.3}, \"path\": \"{p}\", \"speedup\": {sp:.1}, \"speedup_vs_lu\": {spl:.1}{layer}}}{comma}\n",
            n = r.grid,
            u = r.unknowns,
            s = r.seed_ms,
            src = r.seed_source,
            l = r.lu_ms,
            lsrc = r.lu_source,
            d = r.direct_ms,
            p = r.path,
            sp = speedup,
            spl = speedup_vs_lu,
            comma = if k + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    // Registry totals over every run above: `solver.factor` counts how
    // many full factorizations the whole comparison actually paid for.
    let snapshot = metrics::snapshot();
    json.push_str(&format!("  \"metrics\": {}\n", snapshot.to_json()));
    json.push_str("}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    if let Some(path) = metrics_out {
        let mut pretty = snapshot.to_json().to_pretty_string();
        pretty.push('\n');
        if let Err(e) = std::fs::write(&path, pretty) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
