//! Measures the coupled EM–IR–thermal fixed-point loop and writes the
//! machine-readable baseline `BENCH_coupled.json`.
//!
//! ```text
//! cargo run --release -p hotwire-bench --bin coupled_baseline
//! cargo run --release -p hotwire-bench --bin coupled_baseline -- --out BENCH_coupled.json
//! ```
//!
//! The headline number is the factorization-reuse ratio: iteration 1
//! pays the full sparse LU of the grid's MNA matrix, while iterations
//! 2+ restamp the same sparsity pattern and `refactor()` along the
//! cached pivot order. The file records both times per grid size so a
//! regression in either shows up as a ratio shift.
//!
//! Every grid size is measured twice: once plain and once with span
//! capture live (`spantree::capture_start`), the latter reported under
//! a `NxN+trace` label. The paired rows let `bench_diff
//! --trace-overhead` assert that full tracing stays within its bound of
//! the untraced run on the committed baseline.

use std::process::ExitCode;
use std::time::Instant;

use hotwire_circuit::power_grid::{PowerGrid, PowerGridSpec};
use hotwire_coupled::{CoupledEngine, CoupledGridSpec, CoupledOptions};
use hotwire_obs::{metrics, spantree};
use hotwire_units::{Area, Current, Resistance};

/// Grid edges reported in the baseline file. The 20×20 entry exists so
/// the CI `bench-diff` job (which cannot afford the big grids) has a
/// committed size to compare against.
const SIZES: [usize; 3] = [20, 50, 100];

/// Timing repetitions per grid size (medians are reported).
const REPS: usize = 3;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

struct Row {
    grid: String,
    unknowns: usize,
    iterations: usize,
    first_iter_ms: f64,
    later_iter_ms: f64,
    total_ms: f64,
    path: &'static str,
}

/// One converged run, timed per iteration. Returns
/// `(iterations, first_ms, median_later_ms, total_ms, solver_path)`.
///
/// Drives [`CoupledEngine::run`] (not `step()` in a hand-rolled loop)
/// so the run-level `coupled.run` registry timer encloses exactly the
/// work measured here — the embedded metrics snapshot and the `sizes`
/// timings must describe the same execution. Per-iteration times come
/// from the engine's own convergence trace.
///
/// With `traced` the run executes under a live span capture, so the
/// timings include every `trace::span` record the engine emits; the
/// captured tree is drained (outside the timed window) and discarded.
fn timed_run(n: usize, traced: bool) -> (usize, f64, f64, f64, &'static str) {
    let mut engine = CoupledEngine::new(CoupledGridSpec::demo(n, n), CoupledOptions::default())
        .expect("valid demo spec");
    if traced {
        spantree::capture_start();
    }
    let start = Instant::now();
    engine.run().expect("demo grid converges");
    let total_ms = start.elapsed().as_secs_f64() * 1.0e3;
    if traced {
        let captured = spantree::capture_take();
        assert!(
            !captured.telemetry || !captured.spans.is_empty(),
            "a traced run recorded no spans — the overhead row would measure nothing"
        );
    }
    let path = engine.solver_path().map_or("unknown", |p| p.label());
    let iter_ms: Vec<f64> = engine.trace().records.iter().map(|r| r.total_ms).collect();
    let first = iter_ms[0];
    let later = median(iter_ms[1..].to_vec());
    (iter_ms.len(), first, later, total_ms, path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_coupled.json");
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
                    eprintln!("--sizes needs a comma-separated list (e.g. 20,50)");
                    return ExitCode::FAILURE;
                }
                match args[i + 1]
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<usize>, _>>()
                {
                    Ok(list) if !list.is_empty() && list.iter().all(|&n| n >= 2) => sizes = list,
                    _ => {
                        eprintln!("--sizes: `{}` is not a list of grid edges ≥ 2", args[i + 1]);
                        return ExitCode::FAILURE;
                    }
                }
                i += 2;
            }
            "--help" | "-h" => {
                println!(
                    "usage: coupled_baseline [--out <path>] [--metrics-out <path>] [--sizes n,n,...]\n\
                     times the coupled electro-thermal fixed-point loop on square\n\
                     power grids (iterations to converge, first vs later iteration\n\
                     cost showing factorization reuse) and writes a JSON baseline\n\
                     (default: BENCH_coupled.json in the current directory); the\n\
                     baseline embeds a `metrics` registry snapshot, --metrics-out\n\
                     additionally writes it standalone, and --sizes restricts the\n\
                     grid edges (default: 20,50,100) — CI uses the small sizes;\n\
                     every size is also rerun under a live span capture and\n\
                     reported as `NxN+trace` for the bench_diff overhead gate"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    // Sanity anchor: at a negligible load the coupled loop's electrical
    // state must agree with the seed-era transient grid solve (behind
    // the circuit crate's `bench-baselines` feature) — heating is then
    // ~µK and resistivity effectively constant.
    {
        let n = 10;
        let spec = CoupledGridSpec {
            sink_per_node: Current::from_milliamps(0.01),
            ..CoupledGridSpec::demo(n, n)
        };
        let rho = spec.metal.resistivity(spec.reference_temperature).value();
        let area = spec.strap_width.value() * spec.strap_thickness.value();
        let seg_r = rho * spec.pitch.value() / area;
        let seed = PowerGrid::build(&PowerGridSpec {
            rows: n,
            cols: n,
            segment_resistance: Resistance::new(seg_r),
            strap_cross_section: Area::new(area),
            vdd: spec.vdd,
            sink_per_node: spec.sink_per_node,
            pads: spec.pads.clone(),
        })
        .expect("valid seed spec")
        .analyze_via_transient()
        .expect("seed path solves 10x10")
        .worst_ir_drop
        .value();
        let mut engine =
            CoupledEngine::new(spec.clone(), CoupledOptions::default()).expect("valid anchor spec");
        engine.run().expect("anchor grid converges");
        let coupled = spec.vdd.value()
            - engine
                .node_voltages()
                .iter()
                .fold(f64::INFINITY, |m, &v| m.min(v));
        assert!(
            (seed - coupled).abs() < 1.0e-6,
            "seed transient drop ({seed}) and coupled drop ({coupled}) disagree; refusing to benchmark"
        );
    }

    let mut rows = Vec::new();
    for n in sizes {
        for traced in [false, true] {
            let runs: Vec<(usize, f64, f64, f64, &'static str)> =
                (0..REPS).map(|_| timed_run(n, traced)).collect();
            let iterations = runs[0].0;
            assert!(
                runs.iter().all(|r| r.0 == iterations),
                "iteration count must be deterministic"
            );
            let path = runs[0].4;
            let first_iter_ms = median(runs.iter().map(|r| r.1).collect());
            let later_iter_ms = median(runs.iter().map(|r| r.2).collect());
            let total_ms = median(runs.iter().map(|r| r.3).collect());
            let label = format!("{n}x{n}{}", if traced { "+trace" } else { "" });
            eprintln!(
                "{label:>15} {iterations:>3} iterations   first {first_iter_ms:>9.3} ms   later {later_iter_ms:>9.3} ms   total {total_ms:>10.3} ms   ({path})"
            );
            rows.push(Row {
                grid: label,
                unknowns: n * n - 4,
                iterations,
                first_iter_ms,
                later_iter_ms,
                total_ms,
                path,
            });
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"coupled EM-IR-thermal fixed point (CoupledGridSpec::demo, Anderson-accelerated Picard, tol 0.05 K)\",\n");
    json.push_str("  \"first_vs_later\": \"iteration 1 pays the full sparse factorization (AMD-ordered LDL^T for the SPD grid stamps, sparse LU otherwise); iterations 2+ restamp and refactor() along the cached ordering — the ratio is the factorization-reuse payoff\",\n");
    json.push_str("  \"machine\": \"container, medians of 3 runs\",\n");
    json.push_str("  \"trace_rows\": \"grids labeled NxN+trace rerun the same workload under a live span capture (hotwire_obs::spantree); bench_diff --trace-overhead pairs them with the plain rows and bounds the tracing cost\",\n");
    json.push_str("  \"sizes\": [\n");
    for (k, r) in rows.iter().enumerate() {
        let speedup = r.first_iter_ms / r.later_iter_ms;
        json.push_str(&format!(
            "    {{\"grid\": \"{n}\", \"unknowns\": {u}, \"iterations\": {it}, \"first_iter_ms\": {f:.3}, \"later_iter_ms\": {l:.3}, \"refactor_speedup\": {sp:.1}, \"total_ms\": {t:.3}, \"path\": \"{p}\"}}{comma}\n",
            n = r.grid,
            u = r.unknowns,
            it = r.iterations,
            f = r.first_iter_ms,
            l = r.later_iter_ms,
            sp = speedup,
            t = r.total_ms,
            p = r.path,
            comma = if k + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    // Registry totals over every run above: factor vs refactor counts
    // corroborate the first-vs-later timing story from the inside.
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
