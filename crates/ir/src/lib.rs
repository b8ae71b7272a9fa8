#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The PSKETCH middle end.
//!
//! This crate turns a type-checked [`psketch_lang::Program`] into the
//! form both halves of the CEGIS loop consume: per-thread straight-line
//! sequences of *guarded steps* over a finite store, where all
//! synthesis unknowns are integer holes collected in a [`HoleTable`].
//!
//! The passes mirror the paper:
//!
//! 1. [`desugar`] (§7): generator-function inlining, regular-expression
//!    generators → choice holes, `reorder` → the quadratic or
//!    exponential encoding, `repeat` expansion, `??` → allocated holes.
//! 2. [`lower`] (§6, "if-conversion"): call inlining, bounded loop
//!    unrolling, fork instantiation, and conversion to predicated
//!    atomic statements — the representation on which traces of one
//!    candidate can be projected onto the whole candidate space.
//! 3. [`resolve`]: maps a hole [`Assignment`] back onto the sketch AST
//!    to print the synthesized implementation (the paper's Figures
//!    2, 4 and 6).
//!
//! # Examples
//!
//! ```
//! use psketch_ir::{desugar, lower, Config};
//!
//! let src = r#"
//!     int g;
//!     harness void main() {
//!         int x = ??(2);
//!         g = x + 1;
//!         assert g == 3;
//!     }
//! "#;
//! let program = psketch_lang::check_program(src).unwrap();
//! let (sketch, holes) = desugar::desugar_program(&program, &Config::default()).unwrap();
//! let lowered = lower::lower_program(&sketch, holes, &Config::default()).unwrap();
//! assert_eq!(lowered.holes.num_holes(), 1);
//! assert!(lowered.workers.is_empty());
//! ```

pub mod config;
pub mod desugar;
pub mod footprint;
pub mod hash;
pub mod hole;
pub mod lower;
pub mod resolve;
pub mod step;

pub use config::{Config, ReorderEncoding};
pub use footprint::{thread_footprints, Footprint, Loc};
pub use hole::{Assignment, HoleId, HoleTable, SiteId, SiteKind};
pub use lower::{fold_const_binop, fold_const_unop};
pub use step::{GlobalSlot, Lowered, Lv, Op, Rv, ScalarKind, Step, StructLayout, Thread, ThreadId};
