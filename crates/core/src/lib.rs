#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! PSKETCH: counterexample-guided inductive synthesis (CEGIS) for
//! concurrent data structures.
//!
//! This is the top-level crate of the reproduction of *Sketching
//! Concurrent Data Structures* (Solar-Lezama, Jones, Bodík; PLDI
//! 2008). It wires the front end (`psketch-lang`), the middle end
//! (`psketch-ir`), the explicit-state verifier (`psketch-exec`) and
//! the SAT-based inductive synthesizer (`psketch-symbolic`) into the
//! paper's loop:
//!
//! ```text
//!        ┌───────────────┐   candidate    ┌──────────────┐
//!        │   inductive   │ ─────────────► │   verifier   │
//!        │  synthesizer  │                │ (all inter-  │
//!        │ (SAT over the │ ◄───────────── │  leavings)   │
//!        │  hole bits)   │  counterexample└──────────────┘
//!        └───────────────┘     trace
//! ```
//!
//! # Examples
//!
//! Synthesize which of two increments is safe under concurrency:
//!
//! ```
//! use psketch_core::{Options, Synthesis};
//!
//! let src = r#"
//!     int g;
//!     harness void main() {
//!         fork (i; 2) {
//!             if (??(1) == 0) { int t = g; g = t + 1; }
//!             else { int old = AtomicReadAndIncr(g); }
//!         }
//!         assert g == 2;
//!     }
//! "#;
//! let outcome = Synthesis::new(src, Options::default()).unwrap().run();
//! let resolution = outcome.resolution.expect("resolvable");
//! assert_eq!(resolution.assignment.value(0), 1); // the atomic one
//! ```

mod cegis;
pub mod mem;
mod report;
pub mod telemetry;

pub use cegis::{Mode, Options, Outcome, Resolution, Synthesis, VerifierKind};
pub use report::render_stats;
pub use telemetry::{
    BudgetKind, BudgetTrip, CegisStats, IterationRecord, Json, RunReport, VerifyCost,
};

pub use psketch_exec::FailureKind;
pub use psketch_ir::{Assignment, Config, ReorderEncoding};
pub use psketch_lang::SourceError;
