#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The PSKETCH verifier: a concrete evaluator over the guarded-step IR
//! and an explicit-state bounded model checker.
//!
//! The paper uses SPIN as its verification engine; the CEGIS algorithm
//! only requires "any verifier capable of producing bounded
//! counterexample traces" (§5–6). This crate is that verifier:
//! [`check`] explores *all* interleavings of a candidate's shared-state
//! steps (purely local steps are absorbed — a sound reduction), detects
//! assertion failures, memory-safety violations, pool exhaustion and
//! deadlocks, and returns a [`CexTrace`] — the exact sequence of
//! executed `(thread, step)` pairs plus the deadlock set — which
//! `psketch-symbolic` projects onto the whole candidate space.
//!
//! Every search runs a sealed [`CompiledProgram`]: [`check`] seals the
//! candidate itself, while the CEGIS loop seals once per iteration and
//! shares the artifact between [`ScheduleBank::prescreen_compiled`]
//! and [`check_compiled`].
//! [`mod@reference`] is the independent oracle the engine is tested
//! against.
//!
//! # Examples
//!
//! ```
//! use psketch_ir::{desugar, lower, Config};
//!
//! let src = r#"
//!     int g;
//!     harness void main() {
//!         fork (i; 2) { g = g + 1; }
//!         assert g >= 1;
//!     }
//! "#;
//! let cfg = Config::default();
//! let program = psketch_lang::check_program(src).unwrap();
//! let (sk, holes) = desugar::desugar_program(&program, &cfg).unwrap();
//! let lowered = lower::lower_program(&sk, holes, &cfg).unwrap();
//! let assignment = lowered.holes.identity_assignment();
//! let outcome = psketch_exec::check(&lowered, &assignment);
//! // `g = g + 1` is not atomic, but even the lost-update interleaving
//! // satisfies `g >= 1`.
//! assert!(outcome.is_ok());
//! ```

mod bank;
mod checker;
mod compiled;
pub mod fingerprint;
mod por;
pub mod reference;
mod store;
pub mod trace_fmt;
pub mod walker;

pub use bank::{BankStats, ScheduleBank};
pub use checker::{
    check, check_compiled, check_with_limit, replay_compiled, replay_fp_compiled, CheckOutcome,
    CheckStats, Interrupt, SearchLimits, Verdict,
};
pub use compiled::CompiledProgram;
pub use store::{CexTrace, Failure, FailureKind, StateBuf, StateLayout, UndoJournal};
pub use trace_fmt::{format_lowered, format_trace};
