//! Criterion benchmarks for the finite-volume cross-section solver across
//! mesh densities, and for the DC power-grid solve (direct sparse vs the
//! seed's dense path).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hotwire_bench::baseline;
use hotwire_circuit::power_grid::{PowerGrid, PowerGridSpec};
use hotwire_thermal::grid2d::{MeshControl, SingleWireStructure};
use hotwire_units::{Area, Current, Length, Resistance, Voltage};

fn um(v: f64) -> Length {
    Length::from_micrometers(v)
}

fn bench_mesh_density(c: &mut Criterion) {
    let sw = SingleWireStructure::all_oxide(um(0.35), um(0.55), um(1.2));
    let mut group = c.benchmark_group("grid2d_fig5_cell_size");
    group.sample_size(10);
    for cell_um in [0.15, 0.08, 0.05] {
        group.bench_with_input(
            BenchmarkId::from_parameter(cell_um),
            &cell_um,
            |b, &cell| {
                let control = MeshControl::resolving(um(cell), 1);
                b.iter(|| black_box(sw.solve(um(6.0), control).unwrap().rise_per_line_power()));
            },
        );
    }
    group.finish();
}

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

/// The new direct sparse DC analysis across grid sizes — the headline
/// number of this PR (compare against `power_grid_seed_path` below; the
/// crossover sizes also exercise the dense backend at 10×10).
fn bench_power_grid_analyze(c: &mut Criterion) {
    let mut group = c.benchmark_group("power_grid_analyze");
    group.sample_size(10);
    for n in [10usize, 20, 50, 100, 200] {
        let grid = power_grid(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &grid, |b, grid| {
            b.iter(|| black_box(grid.analyze().unwrap()));
        });
    }
    group.finish();
}

/// The seed's dense damped-Newton transient path, replayed from
/// `hotwire_bench::baseline`. Capped at 30×30: dense LU is O(n⁶) in the
/// grid edge, so 100×100 would take minutes *per solve* — which is the
/// point of this PR. `BENCH_solver.json` extrapolates the larger sizes.
fn bench_power_grid_seed_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("power_grid_seed_path");
    group.sample_size(10);
    for n in [10usize, 20, 30] {
        let grid = power_grid(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &grid, |b, grid| {
            b.iter(|| black_box(baseline::seed_dense_dc_solve(grid).unwrap().v));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mesh_density,
    bench_power_grid_analyze,
    bench_power_grid_seed_path
);
criterion_main!(benches);
