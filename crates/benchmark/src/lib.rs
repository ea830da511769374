//! The repo benchmark: six workloads, four end-to-end metrics,
//! per-layer cost counters and a traced run. See `README.md` in this
//! crate for every metric's definition and why each workload exists.
//!
//! The crate depends only on the layer crates' public API, so it keeps
//! measuring the same thing while the layers are refactored underneath.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod json;
pub mod measure;
pub mod metrics;
pub mod probes;
pub mod span;
pub mod summary;
pub mod workloads;
