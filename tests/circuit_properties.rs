//! Property-based tests on the MNA transient engine: passivity, charge
//! conservation and discretization sanity for randomly generated RC
//! networks.

use hotwire::circuit::netlist::Circuit;
use hotwire::circuit::sources::SourceWaveform;
use hotwire::circuit::transient::{simulate, Integration, TransientOptions};
use proptest::prelude::*;

/// Builds a random ladder of resistors and capacitors hanging off a
/// driven node. All elements are passive, so every node voltage must stay
/// within the source's range at all times.
fn random_ladder(
    r_values: &[f64],
    c_values: &[f64],
    vdd: f64,
) -> (Circuit, Vec<hotwire::circuit::netlist::NodeId>) {
    let mut c = Circuit::new();
    let src = c.node();
    c.voltage_source(
        src,
        Circuit::GROUND,
        SourceWaveform::pulse(0.0, vdd, 0.0, 1.0e-9, 1.0e-9, 5.0e-9, 16.0e-9),
    );
    let mut nodes = vec![src];
    let mut prev = src;
    for (rk, ck) in r_values.iter().zip(c_values) {
        let n = c.node();
        c.resistor(prev, n, *rk);
        c.capacitor(n, Circuit::GROUND, *ck);
        nodes.push(n);
        prev = n;
    }
    (c, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Passivity: no internal node of an RC ladder may exceed the source
    /// range [0, vdd] by more than numerical noise.
    ///
    /// Integrated with backward Euler: the L-stable method is monotone for
    /// any step size, so passivity is an exact property. (Trapezoidal is
    /// only A-stable and famously *rings* transiently when `dt ≫ RC` —
    /// proptest found exactly that with R = 100 Ω, C = 1 fF, dt = 16 ps —
    /// which is an artifact of the integrator, not a solver defect; SPICE
    /// has the same behaviour.)
    #[test]
    fn rc_networks_are_passive(
        r_values in proptest::collection::vec(100.0_f64..100.0e3, 1..8),
        c_values in proptest::collection::vec(1.0e-15_f64..1.0e-12, 1..8),
        vdd in 0.5_f64..5.0,
    ) {
        let n = r_values.len().min(c_values.len());
        let (circ, nodes) = random_ladder(&r_values[..n], &c_values[..n], vdd);
        let result = simulate(
            &circ,
            32.0e-9,
            TransientOptions {
                dt: Some(16.0e-12),
                integration: Integration::BackwardEuler,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        for &node in &nodes {
            for v in result.voltage(node) {
                prop_assert!(
                    v >= -1e-6 && v <= vdd + 1e-6,
                    "node {node} left the rails: {v}"
                );
            }
        }
    }

    /// KCL at interior nodes: the current into an interior ladder node
    /// through its left resistor equals the capacitor current plus the
    /// current out through the right resistor (checked at steady samples
    /// by charge accounting over the full run).
    #[test]
    fn charge_accounting_closes(
        r1 in 200.0_f64..20.0e3,
        r2 in 200.0_f64..20.0e3,
        cap in 10.0e-15_f64..1.0e-12,
        vdd in 0.5_f64..3.0,
    ) {
        let mut c = Circuit::new();
        let src = c.node();
        let mid = c.node();
        let end = c.node();
        c.voltage_source(src, Circuit::GROUND, SourceWaveform::dc(vdd));
        let ra = c.resistor(src, mid, r1);
        let rb = c.resistor(mid, end, r2);
        c.capacitor(mid, Circuit::GROUND, cap);
        c.capacitor(end, Circuit::GROUND, cap);
        let t_stop = 20.0 * (r1 + r2) * cap;
        let result = simulate(
            &c,
            t_stop,
            TransientOptions {
                dt: Some(t_stop / 4000.0),
                ..TransientOptions::default()
            },
        )
        .unwrap();
        // Integrated charge through ra equals charge through rb plus the
        // charge stored on the mid capacitor.
        let ia = result.resistor_current(&c, ra);
        let ib = result.resistor_current(&c, rb);
        let dt = result.times[1] - result.times[0];
        let q_in: f64 = ia.windows(2).map(|w| 0.5 * (w[0] + w[1]) * dt).sum();
        let q_out: f64 = ib.windows(2).map(|w| 0.5 * (w[0] + w[1]) * dt).sum();
        let v_mid = *result.voltage(mid).last().unwrap();
        let q_stored = cap * v_mid;
        let residual = (q_in - q_out - q_stored).abs();
        prop_assert!(
            residual < 0.02 * q_in.abs().max(1e-18),
            "charge books do not close: in {q_in:.3e} out {q_out:.3e} stored {q_stored:.3e}"
        );
    }

    /// Backward Euler and trapezoidal agree on the steady state of any RC
    /// ladder driven by DC.
    #[test]
    fn integration_methods_agree_at_steady_state(
        r_values in proptest::collection::vec(100.0_f64..50.0e3, 1..6),
        c_values in proptest::collection::vec(1.0e-15_f64..0.5e-12, 1..6),
        vdd in 0.5_f64..3.0,
    ) {
        let n = r_values.len().min(c_values.len());
        let build = |_method| {
            let mut c = Circuit::new();
            let src = c.node();
            c.voltage_source(src, Circuit::GROUND, SourceWaveform::dc(vdd));
            let mut prev = src;
            let mut last = src;
            for (rk, ck) in r_values[..n].iter().zip(&c_values[..n]) {
                let node = c.node();
                c.resistor(prev, node, *rk);
                c.capacitor(node, Circuit::GROUND, *ck);
                prev = node;
                last = node;
            }
            (c, last)
        };
        // The ladder's dominant time constant is bounded by the Elmore sum
        // Σᵢ (Σ_{k≤i} R_k)·Cᵢ — each capacitor charges through all upstream
        // resistance. (A plain Σ RᵢCᵢ badly underestimates it when a large
        // upstream R feeds a large downstream C.)
        let mut r_cum = 0.0;
        let mut tau = 0.0;
        for (r, c) in r_values[..n].iter().zip(&c_values[..n]) {
            r_cum += r;
            tau += r_cum * c;
        }
        let t_stop = 40.0 * tau;
        let mut finals = Vec::new();
        for method in [Integration::BackwardEuler, Integration::Trapezoidal] {
            let (circ, last) = build(method);
            let result = simulate(
                &circ,
                t_stop,
                TransientOptions {
                    dt: Some(t_stop / 2000.0),
                    integration: method,
                    ..TransientOptions::default()
                },
            )
            .unwrap();
            finals.push(*result.voltage(last).last().unwrap());
        }
        prop_assert!((finals[0] - vdd).abs() < 1e-3 * vdd);
        prop_assert!((finals[0] - finals[1]).abs() < 1e-3 * vdd);
    }
}

/// Grid solver maximum principle: with a single heated wire, the
/// temperature rise is non-negative everywhere and maximal in/near the
/// heated region.
#[test]
fn grid_maximum_principle() {
    use hotwire::thermal::grid2d::{MeshControl, SingleWireStructure};
    use hotwire::units::Length;
    let um = Length::from_micrometers;
    let sw = SingleWireStructure::all_oxide(um(1.0), um(0.55), um(1.2));
    let (structure, wire) = sw.build(um(4.0)).unwrap();
    let field =
        hotwire::thermal::grid2d::solve(&structure, MeshControl::resolving(um(0.1), 1)).unwrap();
    let wire_avg = field.average_rise_in(wire);
    assert!(wire_avg > 0.0);
    // the global max must not exceed the wire region's max by more than
    // numerical noise — heat flows downhill from the source
    let max = field.max_rise();
    assert!(
        max <= wire_avg * 1.5,
        "field max {max} should live in/near the wire (avg {wire_avg})"
    );
}
