//! Interconnect thermal modelling.
//!
//! Four layers of fidelity, each exposed separately:
//!
//! * [`impedance`] — the paper's closed-form steady-state models: quasi-1-D
//!   and quasi-2-D thermal impedance (eqs. 8/10/14), multi-layer insulator
//!   stacks (eq. 15), and the self-consistent ΔT of Joule heating with
//!   temperature-dependent resistivity (eq. 9).
//! * [`fin`] — the 1-D fin ("healing length") treatment of via-cooled line
//!   ends (Schafft \[21\]), which quantifies the paper's *thermally long*
//!   vs *thermally short* distinction.
//! * [`grid2d`] — a finite-volume cross-section solver used where the
//!   paper used *measurements* (Fig. 5, to extract the heat-spreading
//!   parameter φ) and *finite-element simulations* (ref. \[11\] /
//!   Table 7, for densely packed 3-D arrays).
//! * [`transient`] — lumped transient Joule heating with melt detection,
//!   the engine behind the ESD (short-pulse failure) analysis of §6.
//! * [`chip`] — a chip-scale strap-intersection thermal map, solved per
//!   coupled-loop iteration by Jacobi-preconditioned CG.
//!
//! The crate's linear algebra is `hotwire-circuit`'s: [`grid2d`] solves
//! by its sparse LDLᵀ, [`chip`] by its PCG kernel.
//!
//! # Examples
//!
//! ```
//! use hotwire_thermal::impedance::{effective_width, LineGeometry, QUASI_1D_PHI};
//! use hotwire_units::Length;
//!
//! // Eq. (10): W_eff = W_m + 0.88·t_ox
//! let weff = effective_width(
//!     Length::from_micrometers(3.0),
//!     Length::from_micrometers(3.0),
//!     QUASI_1D_PHI,
//! );
//! assert!((weff.to_micrometers() - 5.64).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` is used deliberately throughout validation code: unlike
// `x <= 0.0` it also rejects NaN, which must never enter a solver.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod chip;
mod error;
pub mod fin;
pub mod grid2d;
pub mod impedance;
pub mod transient;

pub use error::ThermalError;
