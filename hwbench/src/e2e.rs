//! The timed run: the release `hotwire` binary driven as users drive it,
//! with tracing off. A run repeats its workload's fixed batch until the
//! requested seconds have passed (at least once), checking every
//! operation against the oracle.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::gen::{Batch, Kind, Op};
use crate::inproc::{self, Spans};
use crate::oracle::{self, CoupledExpect, SignoffExpect, TreeExpect};
use crate::proc;
use crate::report::Outcome;
use crate::server::{self, Server};
use crate::stats::{self, median, percentile};

/// Start-up samples behind `setup_s`.
const CLI_SETUPS: usize = 41;
const SERVER_SETUPS: usize = 21;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one CLI operation must print.
pub enum Expect {
    Coupled(CoupledExpect),
    Tree(TreeExpect),
}

impl Expect {
    /// The physical check applied to the reference itself.
    pub fn check_physical(&self) -> Result<(), String> {
        match self {
            Expect::Coupled(c) => c.check_physical(),
            Expect::Tree(t) => t.check_physical(),
        }
    }
}

/// In-process references for a CLI batch (in batch order).
pub fn cli_references(batch: &Batch, spans: &mut Spans) -> Result<Vec<Expect>, String> {
    batch
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| match op {
            Op::Coupled(c) => {
                let (spec, options) = inproc::coupled_spec(c);
                let report = inproc::coupled_signoff(spec.clone(), options, spans, i)?;
                Ok(Expect::Coupled(CoupledExpect::from_report(&report, &spec)))
            }
            Op::Tree(t) => Ok(Expect::Tree(
                inproc::tree_signoff(&t.deck, spans, i)?.expect(),
            )),
            Op::Signoff(_) | Op::Metrics => Err("HTTP request in a CLI batch".to_owned()),
        })
        .collect()
}

/// In-process references for every distinct `POST /signoff` size.
pub fn serve_references(
    batch: &Batch,
    spans: &mut Spans,
) -> Result<BTreeMap<usize, SignoffExpect>, String> {
    let mut refs = BTreeMap::new();
    for op in &batch.ops {
        if let Op::Signoff(size) = *op {
            if let std::collections::btree_map::Entry::Vacant(slot) = refs.entry(size) {
                let (spec, options) = inproc::serve_spec(size);
                let report = inproc::coupled_signoff(spec.clone(), options, spans, size)?;
                slot.insert(SignoffExpect::from_report(&report, &spec));
            }
        }
    }
    Ok(refs)
}

/// The `hotwire` arguments for CLI operation `op`; tree decks are
/// written under `work` first.
pub fn cli_args(op: &Op, work: &Path) -> Result<Vec<String>, String> {
    match op {
        Op::Coupled(c) => Ok(c.args()),
        Op::Tree(t) => {
            let path = work.join(&t.file);
            std::fs::write(&path, &t.deck)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(vec![
                "tree-signoff".to_owned(),
                "--netlist".to_owned(),
                path.to_string_lossy().into_owned(),
            ])
        }
        Op::Signoff(_) | Op::Metrics => Err("HTTP request in a CLI batch".to_owned()),
    }
}

/// Runs one CLI operation and checks it; returns its wall time and peak
/// RSS when the process ran at all.
pub fn run_cli_op(
    bin: &str,
    args: &[String],
    expect: &Expect,
    nproc: usize,
    out: &mut Outcome,
) -> Option<(Duration, u64)> {
    let env = [("RAYON_NUM_THREADS", nproc.to_string())];
    match proc::run(bin, args, &env) {
        Ok(f) => {
            let checked = match expect {
                Expect::Coupled(want) => oracle::check_coupled(&f.stdout, f.reaped.exit, want),
                Expect::Tree(want) => oracle::check_tree(&f.stdout, f.reaped.exit, want),
            };
            let stderr = f.stderr.lines().last().unwrap_or("").to_owned();
            out.tally(
                || format!("{} ({stderr})", args[..3.min(args.len())].join(" ")),
                checked,
            );
            Some((f.wall, f.reaped.max_rss_kib))
        }
        Err(e) => {
            out.tally(|| args.join(" "), Err(format!("spawn failed: {e}")));
            None
        }
    }
}

/// Timed run of a workload.
pub fn run(
    batch: &Batch,
    bin: &str,
    work: &Path,
    seconds: f64,
    nproc: usize,
) -> Result<Outcome, String> {
    match batch.kind {
        Kind::ServeMixed => run_serve(batch, bin, seconds, nproc),
        _ => run_cli(batch, bin, work, seconds, nproc),
    }
}

fn run_cli(
    batch: &Batch,
    bin: &str,
    work: &Path,
    seconds: f64,
    nproc: usize,
) -> Result<Outcome, String> {
    let expects = cli_references(batch, &mut Spans::default())?;
    let args = batch
        .ops
        .iter()
        .map(|op| cli_args(op, work))
        .collect::<Result<Vec<_>, _>>()?;
    let mut setups = Vec::with_capacity(CLI_SETUPS);
    for _ in 0..CLI_SETUPS {
        let f = proc::run(bin, &["help".to_owned()], &[]).map_err(|e| format!("{bin}: {e}"))?;
        if f.reaped.exit != 0 {
            return Err(format!("`hotwire help` exited {}", f.reaped.exit));
        }
        setups.push(f.wall.as_secs_f64());
    }

    let mut out = Outcome::default();
    let (mut latencies, mut walls, mut peak_kib) = (Vec::new(), Vec::new(), 0u64);
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let batch_start = Instant::now();
        for (a, e) in args.iter().zip(&expects) {
            if let Some((wall, kib)) = run_cli_op(bin, a, e, nproc, &mut out) {
                latencies.push(ms(wall));
                peak_kib = peak_kib.max(kib);
            }
        }
        walls.push(batch_start.elapsed().as_secs_f64());
    }
    summarize(
        &mut out,
        &walls,
        &latencies,
        start.elapsed(),
        &setups,
        peak_kib,
    );
    Ok(out)
}

/// The end-to-end metrics, in the order every run reports them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Pushes the end-to-end metrics of a timed run: batch walls and set-ups
/// in seconds, operation latencies in milliseconds.
fn summarize(
    out: &mut Outcome,
    walls: &[f64],
    latencies: &[f64],
    measured: Duration,
    setups: &[f64],
    peak_rss_kib: u64,
) {
    #[allow(clippy::cast_precision_loss)]
    let values = [
        median(walls),
        median(latencies),
        percentile(latencies, 0.9),
        latencies.len() as f64 / measured.as_secs_f64(),
        median(setups),
        peak_rss_kib as f64 / 1024.0,
    ];
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        out.push(name, value, unit);
    }
    let n = latencies.len();
    out.lines.push(format!(
        "  samples: {n} operations in {} batches over {:.2} s; p90 {} ({} beyond it, {} needed)",
        walls.len(),
        measured.as_secs_f64(),
        if stats::resolved(n, 0.9) {
            "resolved"
        } else {
            "unresolved"
        },
        stats::beyond(n, 0.9),
        stats::MIN_BEYOND
    ));
}

/// Checks one HTTP reply against the oracle.
pub fn check_reply(
    op: &Op,
    reply: &std::io::Result<crate::http::Reply>,
    refs: &BTreeMap<usize, SignoffExpect>,
) -> Result<(), String> {
    let reply = reply.as_ref().map_err(|e| format!("request failed: {e}"))?;
    match op {
        Op::Signoff(size) => {
            let want = refs.get(size).ok_or("no reference for this size")?;
            oracle::check_signoff(reply.status, &reply.body, want)
        }
        Op::Metrics => oracle::check_metrics(reply.status, &reply.body),
        Op::Coupled(_) | Op::Tree(_) => Err("CLI input in the serve deck".to_owned()),
    }
}

fn run_serve(batch: &Batch, bin: &str, seconds: f64, nproc: usize) -> Result<Outcome, String> {
    let refs = serve_references(batch, &mut Spans::default())?;
    let start_server = || Server::start(bin, nproc).map_err(|e| format!("serve: {e}"));
    let mut setups = Vec::with_capacity(SERVER_SETUPS);
    for _ in 1..SERVER_SETUPS {
        let (server, setup) = start_server()?;
        setups.push(setup.as_secs_f64());
        server.stop().map_err(|e| format!("stopping serve: {e}"))?;
    }
    let (server, setup) = start_server()?;
    setups.push(setup.as_secs_f64());

    let mut out = Outcome::default();
    let (mut latencies, mut walls) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let batch_start = Instant::now();
        for s in server::play(server.addr, &batch.ops, nproc) {
            latencies.push(ms(s.latency));
            let op = &batch.ops[s.index];
            out.tally(|| format!("{op:?}"), check_reply(op, &s.result, &refs));
        }
        walls.push(batch_start.elapsed().as_secs_f64());
    }
    let measured = start.elapsed();
    let reaped = server.stop().map_err(|e| format!("stopping serve: {e}"))?;
    summarize(
        &mut out,
        &walls,
        &latencies,
        measured,
        &setups,
        reaped.max_rss_kib,
    );
    Ok(out)
}
