//! The output oracle.
//!
//! Before timing, every generated input is solved in-process through the
//! same public API the CLI and the server call; the result becomes an
//! expectation here. Each timed operation is then checked against it, at
//! the precision the program prints. Independently of the reference, a
//! report whose IR drop reaches Vdd or whose temperature leaves the
//! metal's resistivity fit is nonsense and fails the operation.

use hotwire::coupled::{CoupledGridSpec, CoupledReport};
use hotwire::tech::Metal;
use hotwire::units::Seconds;

/// Bounds a physically meaningful report stays inside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Physical {
    /// Supply voltage in mV: the IR drop must stay below it.
    pub vdd_mv: f64,
    /// `Metal::resistivity_validity_range`, in K.
    pub t_min_k: f64,
    pub t_max_k: f64,
}

impl Physical {
    #[must_use]
    pub fn new(vdd_v: f64, metal: &Metal) -> Self {
        let (lo, hi) = metal.resistivity_validity_range();
        Self {
            vdd_mv: vdd_v * 1e3,
            t_min_k: lo.value(),
            t_max_k: hi.value(),
        }
    }

    /// `Err` when a reported drop or temperature is nonphysical.
    pub fn check(&self, ir_drop_mv: Option<f64>, temperature_k: f64) -> Result<(), String> {
        if let Some(mv) = ir_drop_mv {
            if !(mv.is_finite() && mv < self.vdd_mv) {
                return Err(format!(
                    "nonphysical IR drop {mv} mV (Vdd {} mV)",
                    self.vdd_mv
                ));
            }
        }
        if !(temperature_k >= self.t_min_k && temperature_k <= self.t_max_k) {
            return Err(format!(
                "temperature {temperature_k} K outside the resistivity fit [{}, {}] K",
                self.t_min_k, self.t_max_k
            ));
        }
        Ok(())
    }
}

const KELVIN_AT_0C: f64 = 273.15;

/// What `coupled-signoff` must print for one input.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledExpect {
    pub exit: i32,
    pub iterations: usize,
    /// Worst IR drop, `{:.1}` mV.
    pub ir_mv: String,
    /// Peak strap temperature, `{:.2}` °C.
    pub peak_c: String,
    /// Chip TTF, `{:.2e}` hours, or `unbounded`.
    pub ttf_h: String,
    /// The reference's own drop (mV) and peak temperature (K).
    pub worst_ir_drop_mv: f64,
    pub peak_k: f64,
    pub physical: Physical,
}

impl CoupledExpect {
    #[must_use]
    pub fn from_report(report: &CoupledReport, spec: &CoupledGridSpec) -> Self {
        Self {
            exit: if report.violations().is_empty() { 0 } else { 3 },
            iterations: report.iterations,
            ir_mv: format!("{:.1}", report.worst_ir_drop.value() * 1e3),
            peak_c: format!("{:.2}", report.peak_temperature.to_celsius().value()),
            ttf_h: report.chip_ttf.map_or("unbounded".to_owned(), |t| {
                format!("{:.2e}", t.value() / 3600.0)
            }),
            worst_ir_drop_mv: report.worst_ir_drop.value() * 1e3,
            peak_k: report.peak_temperature.value(),
            physical: Physical::new(spec.vdd.value(), &spec.metal),
        }
    }

    /// The physical check applied to the reference report itself.
    pub fn check_physical(&self) -> Result<(), String> {
        self.physical
            .check(Some(self.worst_ir_drop_mv), self.peak_k)
    }
}

/// The value after `label … = ` on the first line containing `label`.
fn field<'a>(stdout: &'a str, label: &str) -> Result<&'a str, String> {
    stdout
        .lines()
        .find(|l| l.contains(label))
        .and_then(|l| l.split_once("= "))
        .map(|(_, v)| v.trim())
        .ok_or_else(|| format!("no `{label}` line in the output"))
}

fn first_token(s: &str) -> &str {
    s.split_whitespace().next().unwrap_or("")
}

fn number(token: &str, what: &str) -> Result<f64, String> {
    token
        .parse()
        .map_err(|_| format!("{what}: `{token}` is not a number"))
}

fn expect_eq(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, reference {want}"))
    }
}

/// Checks one `coupled-signoff` process against its reference.
pub fn check_coupled(stdout: &str, exit: i32, want: &CoupledExpect) -> Result<(), String> {
    if exit != want.exit {
        return Err(format!("exit code {exit}, reference {}", want.exit));
    }
    let iterations = stdout
        .lines()
        .find_map(|l| l.split_once("fixed point in "))
        .map(|(_, rest)| first_token(rest))
        .ok_or("no `fixed point in` line in the output")?;
    expect_eq("iterations", iterations, &want.iterations.to_string())?;
    let ir = first_token(field(stdout, "worst IR drop")?);
    let peak = field(stdout, "peak strap T")?;
    let peak_c = first_token(peak);
    let peak_k = peak
        .split_once('(')
        .map(|(_, k)| first_token(k))
        .ok_or("peak strap T has no kelvin value")?;
    want.physical
        .check(Some(number(ir, "IR drop")?), number(peak_k, "peak T")?)?;
    expect_eq("worst IR drop [mV]", ir, &want.ir_mv)?;
    expect_eq("peak strap T [°C]", peak_c, &want.peak_c)?;
    expect_eq(
        "chip TTF [h]",
        first_token(field(stdout, "chip TTF")?),
        &want.ttf_h,
    )
}

/// Renders a lifetime the way `tree-signoff` does: years from a tenth
/// of a year up, hours below.
#[must_use]
pub fn horizon_time(t: Seconds) -> String {
    let years = t.to_years();
    if years >= 0.1 {
        format!("{years:.2} years")
    } else {
        format!("{:.2} hours", t.value() / 3600.0)
    }
}

/// What `tree-signoff` must print for one netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeExpect {
    pub exit: i32,
    pub trees: usize,
    pub failing: usize,
    /// Chip TTF as printed (only when some tree fails).
    pub ttf: Option<String>,
    /// The uniform metal temperature the trees are assessed at (K).
    pub temperature_k: f64,
    pub physical: Physical,
}

impl TreeExpect {
    /// The physical check applied to the reference itself.
    pub fn check_physical(&self) -> Result<(), String> {
        self.physical.check(None, self.temperature_k)
    }
}

/// Checks one `tree-signoff` process against its reference.
pub fn check_tree(stdout: &str, exit: i32, want: &TreeExpect) -> Result<(), String> {
    if exit != want.exit {
        return Err(format!("exit code {exit}, reference {}", want.exit));
    }
    let header = stdout
        .lines()
        .find(|l| l.contains(" tree(s) from "))
        .ok_or("no `tree(s) from` header in the output")?;
    expect_eq("trees", first_token(header), &want.trees.to_string())?;
    let temp_c = header
        .split_once(" at ")
        .map(|(_, rest)| first_token(rest))
        .ok_or("header has no temperature")?;
    want.physical
        .check(None, number(temp_c, "tree temperature")? + KELVIN_AT_0C)?;
    match &want.ttf {
        Some(ttf) => {
            let line = field(stdout, "chip TTF")?;
            let (printed, rest) = line
                .split_once(" at the ")
                .ok_or("chip TTF line has no quantile")?;
            expect_eq("chip TTF", printed, ttf)?;
            let failing = rest
                .split_once('(')
                .map(|(_, n)| first_token(n))
                .ok_or("chip TTF line has no failing-tree count")?;
            expect_eq("failing trees", failing, &want.failing.to_string())
        }
        None if stdout.contains("all trees survive the horizon") => Ok(()),
        None => Err("reference has no failing tree, output does".to_owned()),
    }
}

/// What `POST /signoff` must answer for one grid size.
#[derive(Debug, Clone, PartialEq)]
pub struct SignoffExpect {
    pub ok: bool,
    pub iterations: u64,
    pub worst_ir_drop_mv: f64,
    pub peak_k: f64,
    pub physical: Physical,
}

impl SignoffExpect {
    #[must_use]
    pub fn from_report(report: &CoupledReport, spec: &CoupledGridSpec) -> Self {
        Self {
            ok: report.passes(),
            iterations: report.iterations as u64,
            worst_ir_drop_mv: report.worst_ir_drop.value() * 1e3,
            peak_k: report.peak_temperature.value(),
            physical: Physical::new(spec.vdd.value(), &spec.metal),
        }
    }

    /// The physical check applied to the reference report itself.
    pub fn check_physical(&self) -> Result<(), String> {
        self.physical
            .check(Some(self.worst_ir_drop_mv), self.peak_k)
    }
}

/// Checks one `POST /signoff` response against its reference.
pub fn check_signoff(status: u16, body: &str, want: &SignoffExpect) -> Result<(), String> {
    if status != 200 {
        return Err(format!("HTTP {status}: {}", body.trim()));
    }
    let json = hotwire::obs::json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
    let num = |key: &str| {
        json.get(key)
            .and_then(hotwire::obs::json::Json::as_f64)
            .ok_or(format!("response has no numeric `{key}`"))
    };
    let drop_mv = num("worst_ir_drop_mv")?;
    want.physical
        .check(Some(drop_mv), num("peak_temperature_c")? + KELVIN_AT_0C)?;
    let ok = json
        .get("ok")
        .and_then(hotwire::obs::json::Json::as_bool)
        .ok_or("response has no boolean `ok`")?;
    let iterations = json
        .get("iterations")
        .and_then(hotwire::obs::json::Json::as_u64)
        .ok_or("response has no `iterations`")?;
    if ok != want.ok || iterations != want.iterations {
        return Err(format!(
            "ok/iterations {ok}/{iterations}, reference {}/{}",
            want.ok, want.iterations
        ));
    }
    // The body is rendered from the same f64 with a shortest round-trip
    // formatter; allow only representation noise.
    if (drop_mv - want.worst_ir_drop_mv).abs() > 1e-9 * want.worst_ir_drop_mv.abs() {
        return Err(format!(
            "worst_ir_drop_mv {drop_mv}, reference {}",
            want.worst_ir_drop_mv
        ));
    }
    Ok(())
}

/// Checks one `GET /metrics` response: a 200 carrying exposition text.
pub fn check_metrics(status: u16, body: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!("HTTP {status} on /metrics"));
    }
    if !body.contains("# TYPE ") {
        return Err("/metrics body is not Prometheus exposition text".to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn physical() -> Physical {
        Physical::new(2.5, &Metal::copper())
    }

    const COUPLED_OUT: &str = "\
100×100 grid: fixed point in 23 iterations (last max |dT| = 4.241e-2 K)
  worst IR drop  = 1849.1 mV at node (49, 50)
  peak strap T   = 336.49 °C (609.64 K)
  chip TTF       = 3.23e1 h at the 1e-3 failure quantile (3992 mortal straps)
";

    fn coupled_want() -> CoupledExpect {
        CoupledExpect {
            exit: 3,
            iterations: 23,
            ir_mv: "1849.1".to_owned(),
            peak_c: "336.49".to_owned(),
            ttf_h: "3.23e1".to_owned(),
            worst_ir_drop_mv: 1849.1,
            peak_k: 609.64,
            physical: physical(),
        }
    }

    #[test]
    fn coupled_output_matching_the_reference_passes() {
        check_coupled(COUPLED_OUT, 3, &coupled_want()).unwrap();
    }

    #[test]
    fn coupled_oracle_rejects_a_tampered_answer() {
        let tampered = COUPLED_OUT.replace("1849.1 mV", "1849.2 mV");
        assert!(check_coupled(&tampered, 3, &coupled_want())
            .unwrap_err()
            .contains("IR drop"));
        let fewer = COUPLED_OUT.replace("in 23 iterations", "in 22 iterations");
        assert!(check_coupled(&fewer, 3, &coupled_want()).is_err());
        // A clean exit where the reference has violations is wrong too.
        assert!(check_coupled(COUPLED_OUT, 0, &coupled_want()).is_err());
    }

    #[test]
    fn coupled_oracle_rejects_a_nonphysical_report() {
        // Even when the reference agrees, a drop at or above Vdd fails.
        let over_vdd = COUPLED_OUT.replace("1849.1 mV", "2500.0 mV");
        let mut want = coupled_want();
        want.ir_mv = "2500.0".to_owned();
        assert!(check_coupled(&over_vdd, 3, &want)
            .unwrap_err()
            .contains("nonphysical"));
        let molten = COUPLED_OUT.replace("(609.64 K)", "(1400.00 K)");
        assert!(check_coupled(&molten, 3, &coupled_want())
            .unwrap_err()
            .contains("outside"));
    }

    #[test]
    fn tree_oracle_checks_count_ttf_and_temperature() {
        let out = "\
200 tree(s) from t.sp at 100.0 °C (signoff horizon: 10.0 years)
σ_crit = 34 MPa (cu, Blech-calibrated at 100 °C)
chip TTF = 1.19 years at the 1e-3 failure quantile (54 failing tree(s))
";
        let want = TreeExpect {
            exit: 3,
            trees: 200,
            failing: 54,
            ttf: Some("1.19 years".to_owned()),
            temperature_k: 373.15,
            physical: physical(),
        };
        check_tree(out, 3, &want).unwrap();
        assert!(check_tree(&out.replace("(54 failing", "(53 failing"), 3, &want).is_err());
        assert!(check_tree(&out.replace("1.19 years at", "1.20 years at"), 3, &want).is_err());
        let cold = out.replace("at 100.0 °C (signoff", "at -400.0 °C (signoff");
        assert!(check_tree(&cold, 3, &want).unwrap_err().contains("outside"));
    }

    #[test]
    fn serve_oracle_checks_status_fields_and_physics() {
        let want = SignoffExpect {
            ok: false,
            iterations: 9,
            worst_ir_drop_mv: 412.25,
            peak_k: 403.65,
            physical: physical(),
        };
        let body = r#"{"ok": false, "iterations": 9, "worst_ir_drop_mv": 412.25,
                       "peak_temperature_c": 130.5}"#;
        check_signoff(200, body, &want).unwrap();
        assert!(check_signoff(500, body, &want).is_err());
        assert!(check_signoff(200, &body.replace("412.25", "412.26"), &want).is_err());
        assert!(check_signoff(
            200,
            &body.replace("\"iterations\": 9", "\"iterations\": 8"),
            &want
        )
        .is_err());
        let mut hot = want.clone();
        hot.worst_ir_drop_mv = 2600.0;
        assert!(check_signoff(200, &body.replace("412.25", "2600"), &hot)
            .unwrap_err()
            .contains("nonphysical"));
        assert!(hot.check_physical().is_err());
        assert!(want.check_physical().is_ok());
        assert!(check_metrics(200, "# TYPE x counter\nx 1\n").is_ok());
        assert!(check_metrics(404, "").is_err());
    }

    #[test]
    fn horizon_time_switches_to_hours_below_a_tenth_of_a_year() {
        assert_eq!(horizon_time(Seconds::from_years(1.19)), "1.19 years");
        assert_eq!(horizon_time(Seconds::new(7200.0)), "2.00 hours");
    }
}
