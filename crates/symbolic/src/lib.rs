#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The PSKETCH inductive synthesizer.
//!
//! Implements the synthesis half of the concurrent CEGIS loop of
//! *Sketching Concurrent Data Structures* (PLDI 2008):
//!
//! * [`project()`] turns a verifier counterexample trace into an
//!   observation valid for *every* candidate — a merged order of all
//!   threads' predicated steps preserving the trace (§6);
//! * [`eval::SymEval`] executes that order with holes symbolic over a
//!   hash-consed boolean [`circuit`], producing `fail(Sk_t[c])` as a
//!   function of the hole bits;
//! * [`Synthesizer`] accumulates `¬fail` constraints in a CDCL solver
//!   and produces candidate hole assignments;
//! * [`verify_sequential`] is the SAT-based verifier for sequential
//!   `implements` sketches (§5), returning counterexample *inputs*.

pub mod bv;
pub mod circuit;
pub mod eval;
pub mod project;
pub mod synth;

pub use circuit::{Circuit, NodeRef};
pub use project::{project, sequential_order};
pub use synth::{
    trace_reproduces, verify_sequential, verify_sequential_limits, CandidateBatch, NoCandidate,
    Observation, SeqVerify, SynthStats, Synthesizer,
};
