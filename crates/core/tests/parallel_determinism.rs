//! The parallel sweep engine must be *bit-identical* to the serial
//! reference: same points, same order, same bits — CSV renderings byte
//! for byte. Thread counts are set with `ThreadPool::install`, which is
//! local to the calling thread (and the threads it spawns), so no other
//! test's thread count changes.

use hotwire_core::rules::{DesignRuleSpec, DesignRuleTable};
use hotwire_core::sweep::{
    duty_cycle_sweep, duty_cycle_sweep_serial, j0_sweep, log_spaced, SweepPoint,
};
use hotwire_core::SelfConsistentProblem;
use hotwire_tech::{presets, Dielectric, Metal};
use hotwire_thermal::impedance::{InsulatorStack, LineGeometry, QUASI_1D_PHI};
use hotwire_units::{CurrentDensity, Length};

fn fig2_problem() -> SelfConsistentProblem {
    let um = Length::from_micrometers;
    SelfConsistentProblem::builder()
        .metal(Metal::copper().with_design_rule_j0(CurrentDensity::from_amps_per_cm2(6.0e5)))
        .line(LineGeometry::new(um(3.0), um(0.5), um(1000.0)).unwrap())
        .stack(InsulatorStack::single(um(3.0), &Dielectric::oxide()))
        .phi(QUASI_1D_PHI)
        .duty_cycle(0.1)
        .build()
        .unwrap()
}

/// Renders sweep points the way the figure CSV exports do — full float
/// round-trip precision, so byte equality ⇔ bit equality.
fn sweep_csv(points: &[SweepPoint]) -> String {
    let mut out = String::from("duty_cycle,j_peak,j_rms,j_avg,t_metal,em_only_peak\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            p.duty_cycle,
            p.solution.j_peak.value(),
            p.solution.j_rms.value(),
            p.solution.j_avg.value(),
            p.solution.metal_temperature.value(),
            p.em_only_peak.value(),
        ));
    }
    out
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

#[test]
fn parallel_sweeps_are_bit_identical_to_serial() {
    // Force real multi-threading even on a single-core runner, so the
    // chunk-stitch ordering path is actually exercised.
    pool(4).install(sweeps_at_four_threads);
}

fn sweeps_at_four_threads() {
    let problem = fig2_problem();
    let rs = log_spaced(1e-4, 1.0, 21);

    // duty-cycle sweep: parallel vs the serial reference
    let par = duty_cycle_sweep(&problem, &rs).unwrap();
    let ser = duty_cycle_sweep_serial(&problem, &rs).unwrap();
    assert_eq!(par.len(), ser.len());
    assert_eq!(
        sweep_csv(&par).into_bytes(),
        sweep_csv(&ser).into_bytes(),
        "parallel duty-cycle sweep must be byte-identical to serial"
    );
    // Debug formatting round-trips f64 exactly — catches fields the CSV
    // doesn't render.
    assert_eq!(format!("{par:?}"), format!("{ser:?}"));

    // j₀ sweep: the flattened fan-out must regroup exactly like nested
    // serial sweeps.
    let j0s = [
        CurrentDensity::from_amps_per_cm2(6.0e5),
        CurrentDensity::from_amps_per_cm2(1.2e6),
        CurrentDensity::from_amps_per_cm2(1.8e6),
    ];
    let series = j0_sweep(&problem, &j0s, &rs).unwrap();
    assert_eq!(series.len(), j0s.len());
    for (s, &j0) in series.iter().zip(&j0s) {
        assert_eq!(s.j0, j0);
        let reference = duty_cycle_sweep_serial(&problem.with_design_rule_j0(j0), &rs).unwrap();
        assert_eq!(format!("{:?}", s.points), format!("{reference:?}"));
    }

    // design-rule table: 4 threads vs 1 thread, byte-identical CSV
    let tech = presets::ntrs_250nm();
    let spec = DesignRuleSpec::paper_defaults(&tech, 2, CurrentDensity::from_amps_per_cm2(6.0e5));
    let t4 = DesignRuleTable::generate(&spec).unwrap();
    let t1 = pool(1).install(|| DesignRuleTable::generate(&spec).unwrap());
    assert_eq!(
        t4.to_csv().into_bytes(),
        t1.to_csv().into_bytes(),
        "parallel table generation must be byte-identical to serial"
    );
    // (case, layer, dielectric) nesting order preserved
    let mut expected = Vec::new();
    for case in ["Signal Lines (r = 0.1)", "Power Lines (r = 1.0)"] {
        for layer in ["M5", "M6"] {
            for d in ["oxide", "HSQ", "polyimide"] {
                expected.push((case, layer, d));
            }
        }
    }
    let got: Vec<(&str, &str, &str)> = t4
        .entries
        .iter()
        .map(|e| (e.case.as_str(), e.layer.as_str(), e.dielectric.as_str()))
        .collect();
    assert_eq!(got, expected);
}
