//! Per-run convergence telemetry of the coupled Picard loop.
//!
//! Unlike the process-wide metrics registry (`hotwire_obs::metrics`,
//! compiled out without the `telemetry` feature), the convergence trace
//! is a **functional output**: it is always recorded, rides along on
//! [`CoupledReport`](crate::CoupledReport), and is what
//! `hotwire coupled-signoff --trace-out` writes to disk. It answers the
//! post-mortem questions the scalar report cannot: how fast did the
//! fixed point settle, did the residual stall before the cap, and which
//! stage (electrical refactor+solve vs banded thermal substitution)
//! dominated each iteration.
//!
//! The registry view is complementary: the `coupled.residual` gauge
//! keeps only the *last* residual but its snapshot carries the min/max
//! envelope of every write, so an oscillating loop that happens to end
//! on a small residual is still visible post-hoc — compare the gauge's
//! `max` against the per-iteration `max_delta_t` series here.

use hotwire_obs::json::Json;
use serde::{Deserialize, Serialize};

/// One iteration of the coupled loop, as observed from the outside.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: usize,
    /// The damped residual `α·max|G(T) − T|` (K) — equal to the max
    /// |ΔT| update of a damped Picard step.
    pub max_delta_t: f64,
    /// Hottest branch temperature after the update (K).
    pub peak_temperature: f64,
    /// Largest supply droop of this iteration's electrical solve (V).
    pub worst_ir_drop: f64,
    /// Wall time of the restamp + DC grid solve (ms).
    pub electrical_ms: f64,
    /// Wall time of the chip thermal substitution (ms).
    pub thermal_ms: f64,
    /// Wall time of the whole iteration (ms) — electrical + thermal +
    /// the temperature update. Strictly ≥ `electrical_ms + thermal_ms`, and
    /// the `coupled.run` registry timer is in turn ≥ the sum of these
    /// over a run, since its RAII span encloses the full Picard loop.
    pub total_ms: f64,
}

/// The full residual history of one [`run`](crate::CoupledEngine::run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceTrace {
    /// One record per Picard iteration, in order.
    pub records: Vec<IterationRecord>,
    /// Whether the loop settled under tolerance.
    pub converged: bool,
    /// The convergence tolerance on max |ΔT| (K).
    pub tolerance: f64,
    /// The damping factor α of the update.
    pub damping: f64,
}

impl ConvergenceTrace {
    /// Serializes the trace for `--trace-out` (schema documented in
    /// `docs/OBSERVABILITY.md`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let records: Vec<Json> = self
            .records
            .iter()
            .map(|r| {
                Json::object([
                    ("iteration", Json::from(r.iteration)),
                    ("max_delta_t_k", Json::from(r.max_delta_t)),
                    ("peak_temperature_k", Json::from(r.peak_temperature)),
                    ("worst_ir_drop_v", Json::from(r.worst_ir_drop)),
                    ("electrical_ms", Json::from(r.electrical_ms)),
                    ("thermal_ms", Json::from(r.thermal_ms)),
                    ("total_ms", Json::from(r.total_ms)),
                ])
            })
            .collect();
        Json::object([
            ("converged", Json::from(self.converged)),
            ("tolerance_k", Json::from(self.tolerance)),
            ("damping", Json::from(self.damping)),
            ("iterations", Json::from(self.records.len())),
            ("records", Json::Arr(records)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_serializes_with_one_record_per_iteration() {
        let trace = ConvergenceTrace {
            records: vec![
                IterationRecord {
                    iteration: 1,
                    max_delta_t: 12.5,
                    peak_temperature: 385.6,
                    worst_ir_drop: 0.11,
                    electrical_ms: 3.0,
                    thermal_ms: 1.0,
                    total_ms: 4.2,
                },
                IterationRecord {
                    iteration: 2,
                    max_delta_t: 0.02,
                    peak_temperature: 386.1,
                    worst_ir_drop: 0.112,
                    electrical_ms: 2.0,
                    thermal_ms: 1.0,
                    total_ms: 3.1,
                },
            ],
            converged: true,
            tolerance: 0.05,
            damping: 0.7,
        };
        let json = trace.to_json();
        assert_eq!(json.get("iterations").and_then(Json::as_u64), Some(2));
        assert_eq!(json.get("converged").and_then(Json::as_bool), Some(true));
        let records = json.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[1].get("max_delta_t_k").and_then(Json::as_f64),
            Some(0.02)
        );
        // And the rendered text must parse back.
        let reparsed = hotwire_obs::json::parse(&json.to_string()).unwrap();
        assert_eq!(
            reparsed
                .get("records")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
    }
}
