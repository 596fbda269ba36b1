//! # sbcc-sim — the closed-queuing-network simulator
//!
//! A faithful re-implementation of the simulation model the paper uses for
//! its evaluation (Section 5), which in turn follows Agrawal, Carey & Livny
//! ("Concurrency control performance modeling: alternatives and
//! implications", ACM TODS 1987):
//!
//! * a fixed number of **terminals** submit transactions in a closed loop,
//!   with exponentially distributed think times between a completion and the
//!   next submission;
//! * at most `mpl_level` transactions are active at once; excess submissions
//!   wait in a **ready queue**;
//! * each transaction executes a script of 4–12 operations on objects drawn
//!   uniformly from the database, pausing `step_time` per operation (either
//!   a fixed delay under infinite resources or CPU + disk service under a
//!   finite number of resource units);
//! * operation requests are scheduled by the [`sbcc_core`] kernel — blocked
//!   requests wait for conflicting transactions to terminate, aborted
//!   transactions **restart immediately** at the end of the ready queue and
//!   re-execute the identical script;
//! * a transaction *completes* when it pseudo-commits or commits; its
//!   terminal then starts thinking about the next one.
//!
//! Two workload models are provided ([`DataModel`]): the read/write model
//! (write probability 0.3) and the abstract-data-type model where each
//! object's conflict behaviour is a random table with `P_c` commutative and
//! `P_r` recoverable entries (Section 5.5.2).
//!
//! The simulator reports the paper's metrics (Section 5.4): throughput,
//! response time, blocking ratio, restart ratio, cycle-check ratio and abort
//! length, with multi-run aggregation and confidence intervals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod event;
pub mod metrics;
pub mod resources;
pub mod rng;
pub mod runner;
pub mod simulator;
pub mod workload;

pub use config::{DataModel, ResourceMode, SimParams};
pub use metrics::{AggregatedMetric, AggregatedResult, SimulationResult};
pub use runner::run_averaged;
pub use simulator::Simulator;
pub use workload::WorkloadGenerator;
