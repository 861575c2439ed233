//! Seeded workload generation.
//!
//! Every input a run hands the program comes from [`generate`], so the
//! same seed gives the same bytes. Continuous inputs are drawn
//! *stratified* — one value from each of `n` equal slices of the range,
//! in seeded order — so that two seeds exercise the same spread of
//! operating points and a run's cost does not swing with the draw.

use std::fmt::Write as _;

/// SplitMix64: tiny, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is fixed by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let top = (self.next_u64() >> 11) as f64;
        top / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        let r = (self.next_u64() % n as u64) as usize;
        r
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` values in `[lo, hi)`, one per equal stratum, shuffled.
    pub fn stratified(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)]
        let mut v: Vec<f64> = (0..n)
            .map(|i| lo + (hi - lo) * (i as f64 + self.uniform()) / n as f64)
            .collect();
        self.shuffle(&mut v);
        v
    }
}

/// The four workloads; see `hwbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    GridPicard,
    GridPadded,
    TreeEm,
    ServeMixed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::GridPicard,
        Kind::GridPadded,
        Kind::TreeEm,
        Kind::ServeMixed,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::GridPicard => "grid-picard",
            Kind::GridPadded => "grid-padded",
            Kind::TreeEm => "tree-em",
            Kind::ServeMixed => "serve-mixed",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One `coupled-signoff` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledInput {
    pub rows: usize,
    pub cols: usize,
    /// Per-node sink current exactly as passed on the command line; the
    /// in-process reference parses the same string.
    pub sink_ma: String,
    /// Explicit pad lattice (`None`: the CLI's four corner pads).
    pub pads: Option<Vec<(usize, usize)>>,
}

impl CoupledInput {
    /// The `hotwire` arguments that run this input.
    #[must_use]
    pub fn args(&self) -> Vec<String> {
        let mut args = vec![
            "coupled-signoff".to_owned(),
            "--rows".to_owned(),
            self.rows.to_string(),
            "--cols".to_owned(),
            self.cols.to_string(),
            "--sink-ma".to_owned(),
            self.sink_ma.clone(),
        ];
        if let Some(pads) = &self.pads {
            let list: Vec<String> = pads.iter().map(|(r, c)| format!("{r}:{c}")).collect();
            args.push("--pads".to_owned());
            args.push(list.join(","));
        }
        args
    }
}

/// One `tree-signoff` netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeInput {
    /// File name the deck is written under in the work directory.
    pub file: String,
    pub deck: String,
}

/// One operation of a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Coupled(CoupledInput),
    Tree(TreeInput),
    /// `POST /signoff` with body `{"rows": size, "cols": size}`.
    Signoff(usize),
    /// `GET /metrics`.
    Metrics,
}

/// The fixed amount of work one batch does; a run repeats its batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub kind: Kind,
    pub ops: Vec<Op>,
}

const PICARD_PROCESSES: usize = 6;
const PICARD_EDGE: usize = 100;
const PADDED_PROCESSES: usize = 1;
const PADDED_EDGE: usize = 300;
/// C4-style pad lattice: every `PAD_PITCH` nodes, starting `PAD_OFFSET` in.
const PAD_PITCH: usize = 20;
const PAD_OFFSET: usize = 10;
const SINK_MA: (f64, f64) = (0.15, 0.2);
const TREE_DECKS: usize = 2;
const TREES_PER_DECK: usize = 200;
const SEGMENTS_PER_TREE: usize = 40;
/// Load-current scale (A) that puts a tree near σ_crit; each tree draws
/// a multiple log-uniform in 10^[-0.5, 1.5), so roughly a quarter are
/// Blech-immortal and the rest go to the transient solve.
const TREE_LOAD_A: f64 = 2.0e-5;
const SERVE_SIGNOFFS: usize = 160;
const SERVE_SCRAPES: usize = 40;
const SERVE_EDGE: (usize, usize) = (16, 64);

/// The batch `kind` runs for `seed`.
#[must_use]
pub fn generate(kind: Kind, seed: u64) -> Batch {
    let mut rng = Rng::new(seed ^ (kind as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let ops = match kind {
        Kind::GridPicard => rng
            .stratified(PICARD_PROCESSES, SINK_MA.0, SINK_MA.1)
            .into_iter()
            .map(|sink| {
                Op::Coupled(CoupledInput {
                    rows: PICARD_EDGE,
                    cols: PICARD_EDGE,
                    sink_ma: format!("{sink:.4}"),
                    pads: None,
                })
            })
            .collect(),
        Kind::GridPadded => {
            let lattice: Vec<usize> = (PAD_OFFSET..PADDED_EDGE).step_by(PAD_PITCH).collect();
            let pads: Vec<(usize, usize)> = lattice
                .iter()
                .flat_map(|&r| lattice.iter().map(move |&c| (r, c)))
                .collect();
            rng.stratified(PADDED_PROCESSES, SINK_MA.0, SINK_MA.1)
                .into_iter()
                .map(|sink| {
                    Op::Coupled(CoupledInput {
                        rows: PADDED_EDGE,
                        cols: PADDED_EDGE,
                        sink_ma: format!("{sink:.4}"),
                        pads: Some(pads.clone()),
                    })
                })
                .collect()
        }
        Kind::TreeEm => (0..TREE_DECKS)
            .map(|i| {
                Op::Tree(TreeInput {
                    file: format!("trees-{seed}-{i}.sp"),
                    deck: tree_deck(&mut rng),
                })
            })
            .collect(),
        Kind::ServeMixed => {
            let span = (SERVE_EDGE.1 - SERVE_EDGE.0 + 1) as f64;
            let mut ops: Vec<Op> = rng
                .stratified(SERVE_SIGNOFFS, 0.0, span)
                .into_iter()
                .map(|x| {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let size = SERVE_EDGE.0 + x as usize;
                    Op::Signoff(size)
                })
                .chain(std::iter::repeat_n(Op::Metrics, SERVE_SCRAPES))
                .collect();
            rng.shuffle(&mut ops);
            ops
        }
    };
    Batch { kind, ops }
}

/// A SPICE-subset deck of independent supply trees: each has a V-source
/// root, `SEGMENTS_PER_TREE` resistor segments attached near the growing
/// tip (so trees are deep, not stars), and current-source loads on about
/// half the nodes.
fn tree_deck(rng: &mut Rng) -> String {
    let mut deck = String::new();
    for t in 0..TREES_PER_DECK {
        #[allow(clippy::cast_precision_loss)]
        let stratum = (t as f64 + rng.uniform()) / TREES_PER_DECK as f64;
        let scale = TREE_LOAD_A * 10f64.powf(-0.5 + 2.0 * stratum);
        let _ = writeln!(deck, "V{t} t{t}_0 0 DC 1.0");
        for k in 1..=SEGMENTS_PER_TREE {
            let parent = k.saturating_sub(4) + rng.below(k.min(4));
            let ohms = 0.9 + 3.5 * rng.uniform();
            let _ = writeln!(deck, "R{t}_{k} t{t}_{parent} t{t}_{k} {ohms:.4}");
            if rng.uniform() < 0.5 {
                let amps = scale * (0.5 + rng.uniform());
                let _ = writeln!(deck, "I{t}_{k} t{t}_{k} 0 DC {amps:.4e}");
            }
        }
    }
    deck
}

impl Batch {
    /// Canonical bytes of every input, in order.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for op in &self.ops {
            match op {
                Op::Coupled(c) => {
                    let _ = writeln!(out, "{}", c.args().join(" "));
                }
                Op::Tree(t) => {
                    let _ = writeln!(out, "tree {}\n{}", t.file, t.deck);
                }
                Op::Signoff(n) => {
                    let _ = writeln!(out, "POST /signoff {}", signoff_body(*n));
                }
                Op::Metrics => out.push_str("GET /metrics\n"),
            }
        }
        out.into_bytes()
    }

    /// FNV-1a 64 of [`Batch::to_bytes`], for the provenance record.
    #[must_use]
    pub fn hash(&self) -> u64 {
        crate::report::fnv1a(self.to_bytes(), crate::report::FNV_BASIS)
    }
}

/// The JSON body of a `POST /signoff` for a `size × size` grid.
#[must_use]
pub fn signoff_body(size: usize) -> String {
    format!("{{\"rows\": {size}, \"cols\": {size}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_different_seeds_differ() {
        for kind in Kind::ALL {
            let a = generate(kind, 7).to_bytes();
            assert_eq!(a, generate(kind, 7).to_bytes(), "{}", kind.name());
            assert_ne!(a, generate(kind, 8).to_bytes(), "{}", kind.name());
        }
    }

    #[test]
    fn stratified_draws_cover_every_stratum() {
        let mut rng = Rng::new(3);
        let mut v = rng.stratified(8, 0.0, 8.0);
        v.sort_by(f64::total_cmp);
        for (i, x) in v.iter().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let lo = i as f64;
            assert!((lo..lo + 1.0).contains(x), "{x} not in stratum {i}");
        }
    }

    #[test]
    fn serve_deck_mixes_signoffs_and_scrapes_in_range() {
        let batch = generate(Kind::ServeMixed, 1);
        let sizes: Vec<usize> = batch
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Signoff(n) => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(sizes.len(), SERVE_SIGNOFFS);
        assert_eq!(batch.ops.len(), SERVE_SIGNOFFS + SERVE_SCRAPES);
        assert!(sizes
            .iter()
            .all(|n| (SERVE_EDGE.0..=SERVE_EDGE.1).contains(n)));
    }
}
