//! In-process signoffs through the library's public API: the oracle's
//! references, and the traced replay's unit of work.
//!
//! Each call mirrors what the CLI (or `POST /signoff`) does with the same
//! inputs, and records a benchmark-side span around every public call:
//! `CoupledEngine::new`, each `step`, the closing `run` (KCL audit and
//! validity check once converged) and `assess`; for trees, extraction,
//! the steady-state filter, the transient solve and the TTF rollup.

use std::io::{self, Write as _};
use std::time::Instant;

use hotwire::coupled::{CoupledEngine, CoupledGridSpec, CoupledOptions, CoupledReport};
use hotwire::em::lifetime::{LognormalLifetime, WeakestLinkPopulation};
use hotwire::em_tree::model::KorhonenModel;
use hotwire::em_tree::netlist::{trees_from_netlist_text, NetlistTreeOptions};
use hotwire::em_tree::steady::batch_steady_state;
use hotwire::em_tree::transient::{batch_to_failure, TransientOptions};
use hotwire::tech::Metal;
use hotwire::units::{Celsius, Current, Length, Seconds};

use crate::gen::{CoupledInput, Kind};
use crate::oracle::{horizon_time, Physical, TreeExpect};

/// One recorded span: a named interval of one operation.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The operation (signoff, netlist, request) it belongs to.
    pub op: usize,
    pub parent: Option<usize>,
    /// Milliseconds since the recorder was created.
    pub start_ms: f64,
    pub end_ms: f64,
}

impl Span {
    #[must_use]
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// In-memory span recorder; written out once, after the run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    pub records: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            records: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let t = self.now_ms();
        self.records.push(Span {
            name,
            op,
            parent,
            start_ms: t,
            end_ms: f64::NAN,
        });
        self.records.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.records[id].end_ms = self.now_ms();
    }

    /// Runs `f` inside a span.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (ms) of every closed span called `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter(|s| s.name == name && s.end_ms.is_finite())
            .map(Span::ms)
            .collect()
    }

    /// Writes every replay's spans, one JSON object per line, tagged
    /// with the workload whose inputs were replayed.
    pub fn write_jsonl(replays: &[(Kind, Spans)], path: &std::path::Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (kind, spans) in replays {
            for (id, s) in spans.records.iter().enumerate() {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"workload\":\"{}\",\"id\":{id},\"parent\":{parent},\"op\":{},\
                     \"name\":\"{}\",\"start_ms\":{:.4},\"end_ms\":{:.4}}}",
                    kind.name(),
                    s.op,
                    s.name,
                    s.start_ms,
                    s.end_ms
                )?;
            }
        }
        out.flush()
    }
}

/// The spec and options `coupled-signoff` builds from these flags.
#[must_use]
pub fn coupled_spec(input: &CoupledInput) -> (CoupledGridSpec, CoupledOptions) {
    let mut spec = CoupledGridSpec::demo(input.rows, input.cols);
    let sink: f64 = input
        .sink_ma
        .parse()
        .expect("generated sink currents are decimal numbers");
    spec.sink_per_node = Current::from_milliamps(sink);
    if let Some(pads) = &input.pads {
        spec.pads.clone_from(pads);
    }
    (spec, CoupledOptions::default())
}

/// The spec `POST /signoff` builds for a `size × size` body on the
/// server's default template.
#[must_use]
pub fn serve_spec(size: usize) -> (CoupledGridSpec, CoupledOptions) {
    (CoupledGridSpec::demo(size, size), CoupledOptions::default())
}

/// One coupled signoff, spanned per public call. The root span is
/// named `signoff`.
pub fn coupled_signoff(
    spec: CoupledGridSpec,
    options: CoupledOptions,
    spans: &mut Spans,
    op: usize,
) -> Result<CoupledReport, String> {
    let max_iterations = options.max_iterations;
    let root = spans.open("signoff", op, None);
    let mut engine = spans
        .timed("coupled.new", op, Some(root), || {
            CoupledEngine::new(spec, options)
        })
        .map_err(|e| e.to_string())?;
    while !engine.converged() && engine.iterations() < max_iterations {
        spans
            .timed("coupled.step", op, Some(root), || engine.step())
            .map_err(|e| e.to_string())?;
    }
    // Converged: `run` performs no step, only the closing audit and the
    // validity check (and reports non-convergence at the cap).
    spans
        .timed("coupled.run", op, Some(root), || engine.run())
        .map_err(|e| e.to_string())?;
    let report = spans
        .timed("coupled.assess", op, Some(root), || engine.assess())
        .map_err(|e| e.to_string())?;
    spans.close(root);
    Ok(report)
}

/// `tree-signoff`'s fixed options: 0.5 × 0.5 µm Cu at 100 °C, a ten-year
/// horizon, σ = 0.5 at the 10⁻³ quantile.
const TREE_WIDTH_UM: f64 = 0.5;
const TREE_THICKNESS_UM: f64 = 0.5;
const TREE_TEMP_C: f64 = 100.0;
const TREE_HORIZON_YEARS: f64 = 10.0;
const TREE_SIGMA: f64 = 0.5;
const TREE_QUANTILE: f64 = 1e-3;

/// The outcome of one tree signoff.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeRun {
    pub trees: usize,
    pub immortal: usize,
    pub failing: usize,
    pub ttf: Option<Seconds>,
}

impl TreeRun {
    #[must_use]
    pub fn expect(&self) -> TreeExpect {
        TreeExpect {
            exit: if self.failing > 0 { 3 } else { 0 },
            trees: self.trees,
            failing: self.failing,
            ttf: self.ttf.map(horizon_time),
            temperature_k: Celsius::new(TREE_TEMP_C).to_kelvin().value(),
            // Trees report no supply drop: only the temperature bound applies.
            physical: Physical::new(f64::INFINITY, &Metal::copper()),
        }
    }
}

/// One tree signoff of a netlist, mirroring `tree-signoff`. The root
/// span is named `signoff`.
pub fn tree_signoff(deck: &str, spans: &mut Spans, op: usize) -> Result<TreeRun, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let model = KorhonenModel::for_metal_name("cu").map_err(|e| err(&e))?;
    let options = NetlistTreeOptions {
        width: Length::from_micrometers(TREE_WIDTH_UM),
        thickness: Length::from_micrometers(TREE_THICKNESS_UM),
        metal: Metal::copper(),
        temperature: Celsius::new(TREE_TEMP_C).to_kelvin(),
    };
    let root = spans.open("signoff", op, None);
    let extracted = spans
        .timed("em_tree.extract", op, Some(root), || {
            trees_from_netlist_text(deck, &options)
        })
        .map_err(|e| err(&e))?;
    let trees: Vec<_> = extracted.iter().map(|e| e.tree.clone()).collect();
    let steady = spans
        .timed("em_tree.steady", op, Some(root), || {
            batch_steady_state(&trees, &model, true)
        })
        .map_err(|e| err(&e))?;
    let mortal: Vec<_> = trees
        .iter()
        .zip(&steady)
        .filter(|(_, s)| !s.immortal)
        .map(|(t, _)| t.clone())
        .collect();
    let horizon = Seconds::from_years(TREE_HORIZON_YEARS);
    let outcomes = spans
        .timed("em_tree.transient", op, Some(root), || {
            batch_to_failure(
                &mortal,
                &model,
                TransientOptions::for_horizon(horizon),
                true,
            )
        })
        .map_err(|e| err(&e))?;
    let failures: Vec<Seconds> = outcomes.iter().filter_map(|o| o.failure_time).collect();
    let ttf = spans.timed("em_tree.rollup", op, Some(root), || {
        if failures.is_empty() {
            return Ok(None);
        }
        let members = failures
            .iter()
            .map(|&t| LognormalLifetime::from_quantile(t, TREE_QUANTILE, TREE_SIGMA))
            .collect::<Result<Vec<_>, _>>()?;
        WeakestLinkPopulation::new(members)?
            .time_to_fraction(TREE_QUANTILE)
            .map(Some)
    });
    let ttf = ttf.map_err(|e| err(&e))?;
    spans.close(root);
    Ok(TreeRun {
        trees: trees.len(),
        immortal: trees.len() - mortal.len(),
        failing: failures.len(),
        ttf,
    })
}
