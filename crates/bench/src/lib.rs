//! Experiment harness for the `repro` binary: bench-scale dataset
//! presets, method configurations matching the paper's terminology
//! (Table 5), a runner that trains + evaluates, and table/JSON reporting.

pub mod harness;
pub mod methods;
pub mod reportfmt;
