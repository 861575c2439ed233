//! Coupled EM–IR–thermal chip signoff.
//!
//! The rest of the workspace analyses one interconnect at a time; this
//! crate closes the loop at chip scale. A power grid's IR drop sets the
//! branch currents, the currents Joule-heat the straps, the heat raises
//! the metal resistivity, and the changed resistivities move the IR
//! drop — a fixed point the paper's per-line eq. 13 solves analytically
//! for a single wire and that [`CoupledEngine`] solves by
//! Anderson-accelerated Picard iteration for the whole grid, reusing the sparse MNA symbolic
//! factorization across iterations.
//!
//! On the converged state the engine runs a per-strap electromigration
//! pass — Black's TTF at the *local* metal temperature, the Blech
//! immortality filter at the strap length — and rolls the mortal straps
//! into a weakest-link chip failure distribution.
//!
//! ```
//! use hotwire_coupled::{coupled_signoff, CoupledGridSpec, CoupledOptions};
//!
//! let spec = CoupledGridSpec::demo(20, 20);
//! let t_ref = spec.reference_temperature;
//! let report = coupled_signoff(spec, CoupledOptions::default()).unwrap();
//! assert!(report.iterations >= 2); // heating feeds back at least once
//! assert!(report.peak_temperature > t_ref);
//! assert!(report.worst_ir_drop.value() > 0.0);
//! ```

#![forbid(unsafe_code)]
// HW001 is fully enforced here (zero baseline entries): keep it that way
// at compile time, not just in `cargo xtask analyze`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod anderson;
pub mod engine;
pub mod error;
pub mod trace;
pub mod tree_em;

pub use engine::{
    coupled_signoff, BranchAssessment, CoupledEngine, CoupledGridSpec, CoupledOptions,
    CoupledReport, GridBranch,
};
pub use error::{BranchHotspot, CoupledError};
pub use trace::{ConvergenceTrace, IterationRecord};
pub use tree_em::{
    age_with_tree_em, assess_trees, AgingOptions, AgingReport, EpochRecord, TreeAssessment,
    TreeEmOptions, TreeEmReport,
};
