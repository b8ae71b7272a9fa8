#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The PSKETCH surface language.
//!
//! This crate implements the front end for the sketch language of
//! *Sketching Concurrent Data Structures* (PLDI 2008): a C/Java-like
//! imperative language extended with
//!
//! * synthesis constructs — primitive holes `??` / `??(w)`,
//!   regular-expression expression generators `{| re |}`,
//!   `reorder { … }` blocks and `repeat (n) s` replication — and
//! * concurrency constructs — `fork (i; N) { … }`, `atomic { … }`
//!   sections and conditional atomics `atomic (cond) { … }`.
//!
//! The pipeline is: [`preprocess()`] (`#define` macros) → [`lex()`] →
//! [`parse()`] → [`typecheck()`]. The output [`ast::Program`] is consumed
//! by `psketch-ir`, which desugars the synthesis constructs into
//! integer holes.
//!
//! # Examples
//!
//! ```
//! let src = r#"
//!     struct Node { int key; Node next; }
//!     harness void main() {
//!         Node n = new Node(3);
//!         assert n.key == 3;
//!     }
//! "#;
//! let program = psketch_lang::parse_program(src).unwrap();
//! assert_eq!(program.structs.len(), 1);
//! psketch_lang::typecheck(&program).unwrap();
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod preprocess;
pub mod pretty;
pub mod regen;
pub mod token;
pub mod typecheck;

pub use ast::Program;
pub use error::{SourceError, SourceResult};
pub use lexer::lex;
pub use parser::parse;
pub use preprocess::preprocess;
pub use typecheck::{typecheck, TypeEnv};

/// Convenience: preprocess, lex and parse a program in one call.
///
/// # Errors
///
/// Returns a [`SourceError`] describing the first macro, lexical or
/// syntax error encountered.
pub fn parse_program(source: &str) -> SourceResult<Program> {
    let expanded = preprocess(source)?;
    let tokens = lex(&expanded)?;
    parse(&tokens)
}

/// Parse and typecheck a program.
///
/// # Errors
///
/// Returns the first front-end error (macro, lexical, syntax or type).
pub fn check_program(source: &str) -> SourceResult<Program> {
    let p = parse_program(source)?;
    typecheck(&p)?;
    Ok(p)
}
