//! # sbcc-experiments — reproducing the paper's tables and figures
//!
//! The `repro` binary regenerates every table (I–X) and figure (4–18) of
//! *Semantics-Based Concurrency Control: Beyond Commutativity*. This library
//! part holds the machinery so it can be unit-tested:
//!
//! * [`tables`] — renders the compatibility tables (Tables I–VIII) straight
//!   from the data-type definitions and the parameter tables (IX and X) from
//!   [`sbcc_sim::SimParams`];
//! * [`figures`] — runs the simulation sweeps behind Figures 4–18 and
//!   formats them as the series the paper plots;
//! * [`summary`] — recomputes the Section 5.6 headline claims (peak
//!   throughput improvements, thrashing onset, ratio orderings);
//! * [`bench_net`] — the closed-loop network smoke behind
//!   `repro --serve` / `repro --bench-net` (performance numbers come from
//!   `bench/`, not from here);
//! * [`crash`] — the crash-recovery smoke workload behind
//!   `repro --crash-workload` / `repro --crash-recover`: a fixed
//!   transaction sequence against a write-ahead-logged database, plus
//!   the recover-side prefix self-check a `kill -9` driver asserts on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_net;
pub mod crash;
pub mod figures;
pub mod output;
pub mod summary;
pub mod tables;

pub use figures::{Figure, FigureId, Scale, SeriesSpec};
pub use output::{format_table, SeriesTable};
