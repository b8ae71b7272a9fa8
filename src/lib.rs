//! `psketch-repro`: the umbrella crate of the PSKETCH reproduction.
//!
//! Re-exports the public API of the workspace crates so the examples
//! and cross-crate integration tests have one front door. See
//! `README.md` for the repository tour and `DESIGN.md` for the
//! paper-to-module map.

#![forbid(unsafe_code)]

pub use psketch_core as core;
pub use psketch_exec as exec;
pub use psketch_ir as ir;
pub use psketch_lang as lang;
pub use psketch_sat as sat;
pub use psketch_suite as suite;
pub use psketch_symbolic as symbolic;
