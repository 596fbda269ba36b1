//! The repository's benchmark, as a library so that the `sbcc-bench` binary
//! and the self-tests share one set of declarations. See `bench/README.md`.

pub mod compare;
pub mod gen;
pub mod json;
pub mod ladder;
pub mod measure;
pub mod probes;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
