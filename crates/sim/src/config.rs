//! Simulation parameters (paper Tables IX and X).

use sbcc_core::ConflictPolicy;

/// Which workload / data model the simulation uses (Section 5.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataModel {
    /// The traditional read/write model: each operation is a write with the
    /// given probability, otherwise a read; conflicts follow the Page
    /// compatibility tables (Tables I and II).
    ReadWrite {
        /// Probability that an operation is a write (paper: 0.3).
        write_probability: f64,
    },
    /// The abstract-data-type model: every object has `ops_per_object`
    /// operations and a randomly generated compatibility table with `p_c`
    /// commutative entries and `p_r` recoverable entries (Section 5.5.2).
    AbstractAdt {
        /// Number of operations per object (paper: 4).
        ops_per_object: usize,
        /// Number of commutative entries (`P_c`, even).
        p_c: usize,
        /// Number of recoverable entries (`P_r`).
        p_r: usize,
    },
}

impl DataModel {
    /// The paper's nominal read/write model.
    pub fn read_write() -> Self {
        DataModel::ReadWrite {
            write_probability: 0.3,
        }
    }

    /// The paper's abstract-data-type model with four operations.
    pub fn abstract_adt(p_c: usize, p_r: usize) -> Self {
        DataModel::AbstractAdt {
            ops_per_object: 4,
            p_c,
            p_r,
        }
    }

    /// A short label for experiment output.
    pub fn label(&self) -> String {
        match self {
            DataModel::ReadWrite { write_probability } => {
                format!("read/write (P(write)={write_probability})")
            }
            DataModel::AbstractAdt { p_c, p_r, .. } => format!("ADT (Pc={p_c}, Pr={p_r})"),
        }
    }
}

/// Hardware resource model (Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceMode {
    /// Infinite resources: every operation takes exactly `step_time`.
    Infinite,
    /// A finite number of resource units, each consisting of one CPU and two
    /// disks; operations queue for a CPU (`cpu_time`) and then for a
    /// randomly chosen disk (`io_time`).
    Finite {
        /// Number of resource units.
        resource_units: usize,
    },
}

impl ResourceMode {
    /// A short label for experiment output.
    pub fn label(&self) -> String {
        match self {
            ResourceMode::Infinite => "infinite resources".to_owned(),
            ResourceMode::Finite { resource_units } => {
                format!("{resource_units} resource unit(s)")
            }
        }
    }
}

/// Full parameter set for one simulation run (Tables IX and X).
#[derive(Debug, Clone, PartialEq)]
pub struct SimParams {
    /// Number of objects in the database (paper: 1000).
    pub db_size: usize,
    /// Number of terminals (paper: 200).
    pub num_terminals: usize,
    /// Multiprogramming level: maximum concurrently active transactions.
    pub mpl_level: usize,
    /// Minimum transaction length in operations (paper: 4).
    pub min_length: usize,
    /// Maximum transaction length in operations (paper: 12).
    pub max_length: usize,
    /// Execution time of each operation in seconds (paper: 0.05).
    pub step_time: f64,
    /// CPU time per operation under finite resources (paper: 0.015).
    pub cpu_time: f64,
    /// Disk time per operation under finite resources (paper: 0.035).
    pub io_time: f64,
    /// Resource model.
    pub resource_mode: ResourceMode,
    /// Mean think time between transactions in seconds (paper: 1.0).
    pub ext_think_time: f64,
    /// The workload / data model.
    pub data_model: DataModel,
    /// Conflict policy (the paper's comparison axis).
    pub policy: ConflictPolicy,
    /// Fair scheduling (Section 5.2; the paper's default).
    pub fair_scheduling: bool,
    /// Stop the run after this many transactions have completed
    /// (paper: 50 000).
    pub target_completions: u64,
    /// Random seed (runs are deterministic for a fixed seed).
    pub seed: u64,
    /// Number of scheduler-kernel shards
    /// ([`sbcc_core::shard::ShardedKernel`]). One shard reproduces the
    /// paper's single state machine exactly; more shards model the sharded
    /// kernel's admission behaviour (cross-shard transactions acquire the
    /// same dependencies in the one dependency graph all shards share, so
    /// cycles spanning shards are refused). The simulator charges no time for shard
    /// coordination, so simulated throughput measures admission behaviour,
    /// not lock contention — use `bash bench/run.sh` for the wall-clock
    /// story.
    pub shards: usize,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            db_size: 1000,
            num_terminals: 200,
            mpl_level: 50,
            min_length: 4,
            max_length: 12,
            step_time: 0.05,
            cpu_time: 0.015,
            io_time: 0.035,
            resource_mode: ResourceMode::Infinite,
            ext_think_time: 1.0,
            data_model: DataModel::read_write(),
            policy: ConflictPolicy::Recoverability,
            fair_scheduling: true,
            target_completions: 10_000,
            seed: 42,
            shards: 1,
        }
    }
}

impl SimParams {
    /// Nominal read/write-model parameters at a given multiprogramming level
    /// and policy.
    pub fn read_write(mpl_level: usize, policy: ConflictPolicy) -> Self {
        SimParams {
            mpl_level,
            policy,
            data_model: DataModel::read_write(),
            ..SimParams::default()
        }
    }

    /// Builder-style: set the resource mode.
    pub fn with_resources(mut self, mode: ResourceMode) -> Self {
        self.resource_mode = mode;
        self
    }

    /// Builder-style: set the number of completions to simulate.
    pub fn with_completions(mut self, target: u64) -> Self {
        self.target_completions = target;
        self
    }

    /// Builder-style: set the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: enable or disable fair scheduling.
    pub fn with_fair_scheduling(mut self, fair: bool) -> Self {
        self.fair_scheduling = fair;
        self
    }

    /// Builder-style: set the kernel shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Mean transaction length implied by the min/max lengths.
    pub fn mean_length(&self) -> f64 {
        (self.min_length + self.max_length) as f64 / 2.0
    }

    /// Validate parameter consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.db_size == 0 {
            return Err("db_size must be positive".into());
        }
        if self.num_terminals == 0 {
            return Err("num_terminals must be positive".into());
        }
        if self.mpl_level == 0 {
            return Err("mpl_level must be positive".into());
        }
        if self.min_length == 0 || self.min_length > self.max_length {
            return Err("transaction lengths must satisfy 0 < min <= max".into());
        }
        if self.step_time <= 0.0 || self.cpu_time < 0.0 || self.io_time < 0.0 {
            return Err("service times must be positive".into());
        }
        if self.ext_think_time < 0.0 {
            return Err("think time must be non-negative".into());
        }
        if self.target_completions == 0 {
            return Err("target_completions must be positive".into());
        }
        if let DataModel::ReadWrite { write_probability } = self.data_model {
            if !(0.0..=1.0).contains(&write_probability) {
                return Err("write_probability must lie in [0, 1]".into());
            }
        }
        if let DataModel::AbstractAdt {
            ops_per_object,
            p_c,
            p_r,
        } = self.data_model
        {
            if ops_per_object == 0 || ops_per_object > 8 {
                return Err("ops_per_object must lie in 1..=8".into());
            }
            if p_c % 2 != 0 {
                return Err("p_c must be even".into());
            }
            if p_c + p_r > ops_per_object * ops_per_object {
                return Err("p_c + p_r must not exceed the table size".into());
            }
        }
        if let ResourceMode::Finite { resource_units } = self.resource_mode {
            if resource_units == 0 {
                return Err("resource_units must be positive".into());
            }
        }
        if self.shards == 0 {
            return Err("shards must be positive".into());
        }
        Ok(())
    }

    /// One-line description used by the experiment harness.
    pub fn describe(&self) -> String {
        format!(
            "{} | {} | mpl={} | {} | fair={} | {} shard(s) | {} completions",
            self.data_model.label(),
            self.policy,
            self.mpl_level,
            self.resource_mode.label(),
            self.fair_scheduling,
            self.shards,
            self.target_completions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_nominal_values() {
        let p = SimParams::default();
        assert_eq!(p.db_size, 1000);
        assert_eq!(p.num_terminals, 200);
        assert_eq!(p.min_length, 4);
        assert_eq!(p.max_length, 12);
        assert!((p.step_time - 0.05).abs() < 1e-12);
        assert!((p.cpu_time - 0.015).abs() < 1e-12);
        assert!((p.io_time - 0.035).abs() < 1e-12);
        assert!((p.ext_think_time - 1.0).abs() < 1e-12);
        assert_eq!(p.mean_length(), 8.0);
        assert_eq!(
            p.data_model,
            DataModel::ReadWrite {
                write_probability: 0.3
            }
        );
        p.validate().unwrap();
    }

    #[test]
    fn constructors_and_builders() {
        let p = SimParams::read_write(100, ConflictPolicy::CommutativityOnly)
            .with_resources(ResourceMode::Finite { resource_units: 5 })
            .with_completions(500)
            .with_seed(7)
            .with_fair_scheduling(false);
        assert_eq!(p.mpl_level, 100);
        assert_eq!(p.policy, ConflictPolicy::CommutativityOnly);
        assert_eq!(p.resource_mode, ResourceMode::Finite { resource_units: 5 });
        assert_eq!(p.target_completions, 500);
        assert_eq!(p.seed, 7);
        assert!(!p.fair_scheduling);
        p.validate().unwrap();

        let p = SimParams {
            data_model: DataModel::abstract_adt(4, 8),
            ..SimParams::default()
        };
        assert_eq!(
            p.data_model,
            DataModel::AbstractAdt {
                ops_per_object: 4,
                p_c: 4,
                p_r: 8
            }
        );
        p.validate().unwrap();
        assert!(p.describe().contains("Pc=4"));
        assert!(SimParams::default().describe().contains("read/write"));
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let base = SimParams::default();
        for (mutate, _name) in [
            (
                Box::new(|p: &mut SimParams| p.db_size = 0) as Box<dyn Fn(&mut SimParams)>,
                "db",
            ),
            (
                Box::new(|p: &mut SimParams| p.num_terminals = 0),
                "terminals",
            ),
            (Box::new(|p: &mut SimParams| p.mpl_level = 0), "mpl"),
            (Box::new(|p: &mut SimParams| p.min_length = 0), "min"),
            (
                Box::new(|p: &mut SimParams| {
                    p.min_length = 10;
                    p.max_length = 4;
                }),
                "min>max",
            ),
            (Box::new(|p: &mut SimParams| p.step_time = 0.0), "step"),
            (
                Box::new(|p: &mut SimParams| p.ext_think_time = -1.0),
                "think",
            ),
            (
                Box::new(|p: &mut SimParams| p.target_completions = 0),
                "completions",
            ),
            (
                Box::new(|p: &mut SimParams| {
                    p.data_model = DataModel::ReadWrite {
                        write_probability: 1.5,
                    }
                }),
                "writeprob",
            ),
            (
                Box::new(|p: &mut SimParams| {
                    p.data_model = DataModel::AbstractAdt {
                        ops_per_object: 4,
                        p_c: 3,
                        p_r: 0,
                    }
                }),
                "odd pc",
            ),
            (
                Box::new(|p: &mut SimParams| {
                    p.data_model = DataModel::AbstractAdt {
                        ops_per_object: 2,
                        p_c: 2,
                        p_r: 8,
                    }
                }),
                "overfull",
            ),
            (
                Box::new(|p: &mut SimParams| {
                    p.resource_mode = ResourceMode::Finite { resource_units: 0 }
                }),
                "resources",
            ),
            (Box::new(|p: &mut SimParams| p.shards = 0), "shards"),
        ] {
            let mut p = base.clone();
            mutate(&mut p);
            assert!(p.validate().is_err());
        }
    }

    #[test]
    fn labels() {
        assert!(DataModel::read_write().label().contains("0.3"));
        assert!(DataModel::abstract_adt(2, 8).label().contains("Pr=8"));
        assert_eq!(ResourceMode::Infinite.label(), "infinite resources");
        assert!(ResourceMode::Finite { resource_units: 5 }
            .label()
            .contains('5'));
    }
}
