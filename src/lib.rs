//! # reclose — automatically closing open reactive programs
//!
//! A Rust reproduction of Colby, Godefroid & Jagadeesan,
//! *Automatically Closing Open Reactive Programs* (PLDI 1998): a static
//! transformation that closes an open concurrent reactive program with its
//! most general environment by *eliminating its interface*, plus the full
//! toolchain around it — a C-like source language, control-flow-graph IR,
//! the dataflow analyses the algorithm consumes, a VeriSoft-style
//! state-space explorer, the naive most-general-environment baseline, and
//! a synthetic telephone-switching case study.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | crate | role |
//! |-------|------|
//! | [`minic`] | the MiniC language front end |
//! | [`cfgir`] | guarded-arc control-flow graphs |
//! | [`dataflow`] | points-to, MOD/REF, define-use, environment taint |
//! | [`closer`] | **the paper's transformation** (Figure 1) |
//! | [`verisoft`] | systematic state-space exploration |
//! | [`envgen`] | explicit most-general-environment synthesis (§3 baseline) |
//! | [`switchsim`] | the synthetic 5ESS-like case study (§6) |
//!
//! ## Quick start
//!
//! ```
//! use reclose::prelude::*;
//!
//! // An open program: the environment supplies x.
//! let src = r#"
//!     extern chan out;
//!     input x : 0..1023;
//!     proc p(int x) {
//!         if (x % 2 == 0) send(out, 0);
//!         else send(out, 1);
//!     }
//!     process p(x);
//! "#;
//!
//! // Close it automatically...
//! let closed = close_source(src)?;
//! assert!(closed.program.is_closed());
//!
//! // ...and explore every behavior without enumerating 1024 inputs.
//! let report = explore(&closed.program, &Config::default());
//! assert!(report.clean());
//! # Ok::<(), minic::Diagnostics>(())
//! ```

#![warn(missing_docs)]

pub use cfgir;
pub use closer;
pub use dataflow;
pub use envgen;
pub use minic;
pub use switchsim;
pub use verisoft;

/// The common imports for working with the toolchain.
pub mod prelude {
    pub use cfgir::{compile, CfgProgram};
    pub use closer::{close, close_source, Closed};
    pub use dataflow::analyze;
    pub use envgen::synthesize;
    pub use verisoft::{explore, Config, Engine, EnvMode, Executor, Report};
}
