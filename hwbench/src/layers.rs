//! The traced run: per-layer metrics.
//!
//! The workload's generated inputs are replayed in-process through the
//! public calls the CLI and the server make, with benchmark-side spans
//! around each call ([`crate::inproc`]). Below that boundary the run
//! reads the deltas of the counters and timers the program already
//! publishes through `hotwire::obs::metrics::snapshot()`.
//!
//! Every per-layer metric is reported on every workload. A layer the
//! workload never enters (the tree solver on a grid, say) is replayed on
//! the same seed's inputs of the metric's *home* workload instead: the
//! coupled, solver and thermal layers on grid-picard, `em_tree` on
//! tree-em, `serve` on serve-mixed, and the capture overhead always on
//! grid-picard, which defines it.

use std::collections::BTreeMap;
use std::path::Path;

use hotwire::obs::metrics::{self, MetricsSnapshot};
use hotwire::serve::{route, Request, ServeConfig};

use crate::e2e::{self, Expect};
use crate::gen::{generate, signoff_body, Batch, Kind, Op};
use crate::inproc::{self, Spans};
use crate::report::Outcome;
use crate::server::{self, Server};
use crate::stats::{median, percentile};

/// Every per-layer metric: name, unit, home workload, and the
/// end-to-end metric it should move.
#[rustfmt::skip]
pub const PER_LAYER: &[(&str, &str, Kind, &str)] = &[
    ("coupled.new_ms", "ms", Kind::GridPicard, "op_p50_ms on serve-mixed"),
    ("coupled.step_first_ms", "ms", Kind::GridPicard, "wall_s on grid-padded"),
    ("coupled.step_later_ms", "ms", Kind::GridPicard, "wall_s on grid-picard"),
    ("coupled.iterations", "count", Kind::GridPicard, "wall_s on grid-picard"),
    ("coupled.assess_ms", "ms", Kind::GridPicard, "wall_s on grid-padded"),
    ("coupled.span_coverage_pct", "%", Kind::GridPicard, "(check: >= 95 on grid workloads)"),
    ("solver.ordering_ms", "ms", Kind::GridPicard, "wall_s on grid-padded, tree-em"),
    ("solver.factor_ms", "ms", Kind::GridPicard, "wall_s on grid-padded, tree-em"),
    ("solver.refactor_ms", "ms", Kind::GridPicard, "wall_s on grid-picard"),
    ("solver.factors", "count", Kind::GridPicard, "wall_s on tree-em"),
    ("solver.refactors", "count", Kind::GridPicard, "wall_s on grid-picard"),
    ("solver.fill_nnz", "count", Kind::GridPicard, "peak_rss_mb, wall_s on grid-padded"),
    ("solver.refactor_share", "ratio", Kind::GridPicard, "wall_s on grid-picard"),
    ("thermal.factor_ms", "ms", Kind::GridPicard, "op_p50_ms on serve-mixed, wall_s on grid-padded"),
    ("thermal.solve_ms", "ms", Kind::GridPicard, "wall_s on grid-picard"),
    ("em_tree.extract_ms", "ms", Kind::TreeEm, "wall_s on tree-em"),
    ("em_tree.steady_ms", "ms", Kind::TreeEm, "wall_s on tree-em"),
    ("em_tree.transient_ms", "ms", Kind::TreeEm, "wall_s on tree-em"),
    ("em_tree.immortal_ratio", "ratio", Kind::TreeEm, "wall_s on tree-em"),
    ("em_tree.factors_per_tree", "count", Kind::TreeEm, "wall_s on tree-em"),
    ("serve.route_signoff_ms", "ms", Kind::ServeMixed, "op_p50_ms on serve-mixed"),
    ("serve.route_metrics_ms", "ms", Kind::ServeMixed, "op_p90_ms on serve-mixed"),
    ("serve.transport_wait_ms", "ms", Kind::ServeMixed, "op_p90_ms, ops_per_s on serve-mixed"),
    ("obs.capture_overhead_pct", "%", Kind::GridPicard, "none (ROADMAP bound: <= 5)"),
];

/// Spans must cover this share of the in-process signoff time.
const MIN_COVERAGE_PCT: f64 = 95.0;

type Layer = BTreeMap<&'static str, f64>;

/// Counter and timer deltas across a replay.
struct Delta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Delta {
    fn around<T>(f: impl FnOnce() -> T) -> (T, Delta) {
        let before = metrics::snapshot();
        let out = f();
        (
            out,
            Delta {
                before,
                after: metrics::snapshot(),
            },
        )
    }

    #[allow(clippy::cast_precision_loss)]
    fn count(&self, name: &str) -> f64 {
        (self.after.counter(name) - self.before.counter(name)) as f64
    }

    fn total_ms(&self, name: &str) -> f64 {
        let t = |s: &MetricsSnapshot| s.timers.get(name).map_or(0.0, |t| t.total_ms);
        t(&self.after) - t(&self.before)
    }

    fn gauge_max(&self, name: &str) -> f64 {
        self.after.gauges.get(name).map_or(0.0, |g| g.max)
    }
}

/// Durations of the spans named `name`, grouped per operation.
fn per_op(spans: &Spans, name: &str) -> BTreeMap<usize, Vec<f64>> {
    let mut out: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in spans.records.iter().filter(|s| s.name == name) {
        out.entry(s.op).or_default().push(s.ms());
    }
    out
}

/// Coupled, solver and thermal metrics of a replay of `ops` signoffs.
fn coupled_layers(spans: &Spans, d: &Delta, ops: f64, layer: &mut Layer) {
    let steps = per_op(spans, "coupled.step");
    let first: Vec<f64> = steps.values().map(|v| v[0]).collect();
    let later: Vec<f64> = steps
        .values()
        .flat_map(|v| v[1..].iter().copied())
        .collect();
    let step_total: f64 = steps.values().flatten().sum();
    #[allow(clippy::cast_precision_loss)]
    let iterations = steps.values().map(Vec::len).sum::<usize>() as f64 / ops;
    let covered: f64 = ["coupled.new", "coupled.assess"]
        .iter()
        .flat_map(|n| spans.durations(n))
        .sum::<f64>()
        + step_total;
    let whole: f64 = spans.durations("signoff").iter().sum();
    layer.insert("coupled.new_ms", median(&spans.durations("coupled.new")));
    layer.insert("coupled.step_first_ms", median(&first));
    if !later.is_empty() {
        layer.insert("coupled.step_later_ms", median(&later));
    }
    layer.insert("coupled.iterations", iterations);
    layer.insert(
        "coupled.assess_ms",
        median(&spans.durations("coupled.assess")),
    );
    layer.insert("coupled.span_coverage_pct", 100.0 * covered / whole);
    solver_layers(d, ops, layer);
    if d.count("solver.chol.refactor") > 0.0 {
        layer.insert(
            "solver.refactor_ms",
            d.total_ms("solver.refactor_time") / ops,
        );
        layer.insert("solver.refactors", d.count("solver.chol.refactor") / ops);
        layer.insert(
            "solver.refactor_share",
            d.total_ms("solver.refactor_time") / step_total,
        );
    }
    layer.insert(
        "thermal.factor_ms",
        d.total_ms("thermal.chip.factor_time") / ops,
    );
    layer.insert(
        "thermal.solve_ms",
        d.total_ms("thermal.chip.solve_time") / ops,
    );
}

/// First-factorization metrics shared by grids and trees.
fn solver_layers(d: &Delta, ops: f64, layer: &mut Layer) {
    layer.insert(
        "solver.ordering_ms",
        d.total_ms("solver.chol.ordering_time") / ops,
    );
    layer.insert("solver.factor_ms", d.total_ms("solver.factor_time") / ops);
    layer.insert("solver.factors", d.count("solver.chol.factor") / ops);
    layer.insert("solver.fill_nnz", d.gauge_max("solver.chol.fill_nnz"));
}

/// Replays one workload's batch and returns its layer metrics with the
/// spans recorded on the way. Every replayed report is an operation of
/// the run, failed when it is nonphysical.
fn replay(
    batch: &Batch,
    bin: &str,
    work: &Path,
    nproc: usize,
    out: &mut Outcome,
) -> Result<(Layer, Spans), String> {
    let mut layer = Layer::new();
    let mut spans = Spans::default();
    #[allow(clippy::cast_precision_loss)]
    let ops = batch.ops.len() as f64;
    let mut expects = Vec::new();
    match batch.kind {
        Kind::GridPicard | Kind::GridPadded => {
            let (refs, d) = Delta::around(|| e2e::cli_references(batch, &mut spans));
            expects = refs?;
            for e in &expects {
                out.tally(|| "in-process signoff".to_owned(), e.check_physical());
            }
            coupled_layers(&spans, &d, ops, &mut layer);
            let coverage = layer["coupled.span_coverage_pct"];
            if coverage < MIN_COVERAGE_PCT {
                out.failed_checks += 1;
                out.notes.push(format!(
                    "layer spans cover {coverage:.2}% of signoff time (< {MIN_COVERAGE_PCT}%)"
                ));
            }
        }
        Kind::TreeEm => {
            let mut runs = Vec::new();
            let (result, d) = Delta::around(|| -> Result<(), String> {
                for (i, op) in batch.ops.iter().enumerate() {
                    if let Op::Tree(t) = op {
                        runs.push(inproc::tree_signoff(&t.deck, &mut spans, i)?);
                    }
                }
                Ok(())
            });
            result?;
            for r in &runs {
                out.tally(
                    || "in-process tree signoff".to_owned(),
                    r.expect().check_physical(),
                );
            }
            let trees: usize = runs.iter().map(|r| r.trees).sum();
            let immortal: usize = runs.iter().map(|r| r.immortal).sum();
            #[allow(clippy::cast_precision_loss)]
            let trees = trees as f64;
            layer.insert(
                "em_tree.extract_ms",
                median(&spans.durations("em_tree.extract")),
            );
            layer.insert(
                "em_tree.steady_ms",
                median(&spans.durations("em_tree.steady")),
            );
            layer.insert(
                "em_tree.transient_ms",
                median(&spans.durations("em_tree.transient")),
            );
            #[allow(clippy::cast_precision_loss)]
            layer.insert("em_tree.immortal_ratio", immortal as f64 / trees);
            layer.insert(
                "em_tree.factors_per_tree",
                d.count("em.stress.factorizations") / trees,
            );
            solver_layers(&d, ops, &mut layer);
        }
        Kind::ServeMixed => serve_layers(batch, bin, nproc, &mut spans, out, &mut layer)?,
    }
    if batch.kind == Kind::GridPicard {
        let overhead = capture_overhead(batch, &expects, bin, work, nproc, out)?;
        layer.insert("obs.capture_overhead_pct", overhead);
    }
    Ok((layer, spans))
}

/// Serve layers: the signoff engine on each distinct size, `route`
/// in-process on the whole deck, and one HTTP pass for the transport
/// wait.
fn serve_layers(
    batch: &Batch,
    bin: &str,
    nproc: usize,
    spans: &mut Spans,
    out: &mut Outcome,
    layer: &mut Layer,
) -> Result<(), String> {
    let (refs, d) = Delta::around(|| e2e::serve_references(batch, spans));
    let refs = refs?;
    #[allow(clippy::cast_precision_loss)]
    coupled_layers(spans, &d, refs.len() as f64, layer);
    for want in refs.values() {
        out.tally(|| "in-process signoff".to_owned(), want.check_physical());
    }

    let config = ServeConfig {
        threads: nproc,
        ..ServeConfig::demo()
    };
    let (mut route_signoff, mut route_metrics) = (Vec::new(), Vec::new());
    let mut by_class: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (i, op) in batch.ops.iter().enumerate() {
        let request = match op {
            Op::Signoff(size) => Request {
                method: "POST".to_owned(),
                path: "/signoff".to_owned(),
                body: signoff_body(*size).into_bytes(),
            },
            _ => Request {
                method: "GET".to_owned(),
                path: "/metrics".to_owned(),
                body: Vec::new(),
            },
        };
        let id = spans.open("serve.route", i, None);
        let response = route(&request, &config);
        spans.close(id);
        let t = spans.records[id].ms();
        let reply = Ok(crate::http::Reply {
            status: response.status,
            body: String::from_utf8_lossy(&response.body).into_owned(),
        });
        out.tally(
            || format!("route {op:?}"),
            e2e::check_reply(op, &reply, &refs),
        );
        match op {
            Op::Signoff(size) => {
                route_signoff.push(t);
                by_class.entry(size_class(*size)).or_default().0.push(t);
            }
            _ => route_metrics.push(t),
        }
    }

    let (server, _) = Server::start(bin, nproc).map_err(|e| format!("serve: {e}"))?;
    let mut http_signoff = Vec::new();
    for s in server::play(server.addr, &batch.ops, nproc) {
        let op = &batch.ops[s.index];
        out.tally(|| format!("{op:?}"), e2e::check_reply(op, &s.result, &refs));
        if let Op::Signoff(size) = op {
            let t = s.latency.as_secs_f64() * 1e3;
            http_signoff.push(t);
            by_class.entry(size_class(*size)).or_default().1.push(t);
        }
    }
    server.stop().map_err(|e| format!("stopping serve: {e}"))?;

    let route_p50 = median(&route_signoff);
    layer.insert("serve.route_signoff_ms", route_p50);
    layer.insert("serve.route_metrics_ms", median(&route_metrics));
    layer.insert("serve.transport_wait_ms", median(&http_signoff) - route_p50);
    out.lines
        .push("  POST /signoff by size class: route p50 / HTTP p50 / HTTP p90 [ms]".into());
    for (class, (route_ms, http_ms)) in &by_class {
        out.lines.push(format!(
            "    {class:<12} n={:<4} {:>9.3} {:>9.3} {:>9.3}",
            route_ms.len(),
            median(route_ms),
            median(http_ms),
            percentile(http_ms, 0.9)
        ));
    }
    Ok(())
}

fn size_class(size: usize) -> &'static str {
    match size {
        0..=31 => "16-31 edge",
        32..=47 => "32-47 edge",
        _ => "48-64 edge",
    }
}

/// `coupled-signoff` wall time with its own `--trace-out` span capture
/// against without, in percent: the median over inputs of each
/// back-to-back pair (order alternating), so host speed drifts cancel.
fn capture_overhead(
    batch: &Batch,
    expects: &[Expect],
    bin: &str,
    work: &Path,
    nproc: usize,
    out: &mut Outcome,
) -> Result<f64, String> {
    let capture = work.join("capture.jsonl");
    let mut overheads = Vec::with_capacity(batch.ops.len());
    for (i, (op, want)) in batch.ops.iter().zip(expects).enumerate() {
        let plain = e2e::cli_args(op, work)?;
        let mut traced = plain.clone();
        traced.extend([
            "--trace-out".to_owned(),
            capture.to_string_lossy().into_owned(),
            "--trace-format".to_owned(),
            "jsonl".to_owned(),
        ]);
        let mut wall = |args: &[String]| {
            e2e::run_cli_op(bin, args, want, nproc, out)
                .map(|(wall, _)| wall.as_secs_f64())
                .ok_or("capture run did not start")
        };
        let (plain_s, traced_s) = if i % 2 == 0 {
            let p = wall(&plain)?;
            (p, wall(&traced)?)
        } else {
            let t = wall(&traced)?;
            (wall(&plain)?, t)
        };
        overheads.push(100.0 * (traced_s - plain_s) / plain_s);
    }
    Ok(median(&overheads))
}

/// The traced run of `kind`: its own replay, home replays for the layers
/// it never enters, and the per-layer table.
pub fn run(kind: Kind, seed: u64, bin: &str, work: &Path, nproc: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut layer, spans) = replay(&generate(kind, seed), bin, work, nproc, &mut out)?;
    let mut replays = vec![(kind, spans)];
    let own: Vec<&str> = layer.keys().copied().collect();
    let mut homes: Vec<Kind> = Vec::new();
    for &(name, _, home, _) in PER_LAYER {
        if !layer.contains_key(name) && !homes.contains(&home) {
            homes.push(home);
        }
    }
    for home in homes {
        let (home_layer, spans) = replay(&generate(home, seed), bin, work, nproc, &mut out)?;
        for (name, value) in home_layer {
            layer.entry(name).or_insert(value);
        }
        replays.push((home, spans));
    }
    let path = work.join(format!("spans-{}-{seed}.jsonl", kind.name()));
    Spans::write_jsonl(&replays, &path).map_err(|e| format!("cannot write spans: {e}"))?;

    out.lines.push(format!(
        "  {:<28}{:>14}  {:<6} {:<13} moves",
        "per-layer metric", "value", "unit", "measured on"
    ));
    for &(name, unit, home, moves) in PER_LAYER {
        let value = *layer
            .get(name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        let on = if own.contains(&name) { kind } else { home };
        out.lines.push(format!(
            "  {name:<28}{value:>14.4}  {unit:<6} {:<13} {moves}",
            on.name()
        ));
        out.push(name, value, unit);
    }
    Ok(out)
}
